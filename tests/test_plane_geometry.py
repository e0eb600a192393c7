import itertools
import math
import random

import pytest

from conftest import eval_monomial
from cremona.field_tower import get_ctx
from cremona.plane_geometry import (
    DuplicatePoint,
    PlaneCurve,
    PointNotOnCurve,
    ProjPoint,
    ProjTransform,
    apply,
    apply_curve,
    collinear,
    hasse_row,
    monomials,
    node_check,
    singular_cubic_through,
    six_on_conic,
    veronese_row,
    veronese_rows,
)

CTX = get_ctx(2, 8)


def P(*coords, ctx=CTX):
    return ProjPoint(ctx, coords)


def rand_point(rnd, ctx=CTX):
    while True:
        c = (rnd.randrange(ctx.size), rnd.randrange(ctx.size), rnd.randrange(ctx.size))
        if any(c):
            return ProjPoint(ctx, c)


def rand_transform(rnd, p):
    while True:
        flat = [rnd.randrange(p) for _ in range(9)]
        try:
            return ProjTransform(p, [flat[0:3], flat[3:6], flat[6:9]])
        except ValueError:
            continue


def test_monomial_order():
    assert monomials(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )
    assert len(monomials(3)) == 10
    assert monomials(3)[0] == (3, 0, 0) and monomials(3)[-1] == (0, 0, 3)


def test_point_normalization_canonical():
    lam = 77
    p1 = P(3, 5, 9)
    p2 = ProjPoint(CTX, tuple(CTX.mul(lam, c) for c in (3, 5, 9)))
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1.coords[0] == 1


def test_collinear_trivials():
    assert collinear(P(1, 0, 0), P(0, 1, 0), P(1, 1, 0))
    assert not collinear(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))


def test_six_on_conic_by_construction():
    pts = [ProjPoint(CTX, (CTX.mul(t, t), t, 1)) for t in (1, 2, 3, 4, 5)]
    pts.append(P(1, 0, 0))  # also on x z = y^2
    assert six_on_conic(pts)


def test_six_on_conic_duplicate_rejected():
    pts = [P(1, 0, 0)] * 2 + [P(0, 1, 0), P(0, 0, 1), P(1, 1, 1), P(1, 2, 3)]
    with pytest.raises(DuplicatePoint):
        six_on_conic(pts)


def test_six_on_conic_against_brute_force_over_f7():
    # the oracle enumerates every conic of P^5(F_7) and checks incidence
    ctx = get_ctx(7, 1)

    def brute(pts):
        for coeffs in itertools.product(range(7), repeat=6):
            if not any(coeffs):
                continue
            ok = True
            for x, y, z in (p.coords for p in pts):
                val = (
                    coeffs[0] * x * x + coeffs[1] * x * y + coeffs[2] * x * z
                    + coeffs[3] * y * y + coeffs[4] * y * z + coeffs[5] * z * z
                )
                if val % 7:
                    ok = False
                    break
            if ok:
                return True
        return False

    # three collinear plus three generic: fixed instance
    pts = [
        ProjPoint(ctx, c)
        for c in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 1), (1, 3, 2), (0, 1, 5)]
    ]
    assert six_on_conic(pts) == brute(pts)
    # six on the conic x z = y^2 over F_7
    pts2 = [ProjPoint(ctx, ((t * t) % 7, t, 1)) for t in range(1, 6)]
    pts2.append(ProjPoint(ctx, (1, 0, 0)))
    assert six_on_conic(pts2) and brute(pts2)
    # a random generic sextuple
    rnd = random.Random(4)
    pts3 = []
    while len(pts3) < 6:
        q = ProjPoint(ctx, (rnd.randrange(7), rnd.randrange(7), 1))
        if q not in pts3:
            pts3.append(q)
    assert six_on_conic(pts3) == brute(pts3)


def test_six_on_conic_symmetric():
    rnd = random.Random(5)
    pts = []
    while len(pts) < 6:
        q = rand_point(rnd)
        if q not in pts:
            pts.append(q)
    base = six_on_conic(pts)
    for _ in range(10):
        rnd.shuffle(pts)
        assert six_on_conic(pts) == base


def test_five_points_determine_conic_and_sixth_point_test():
    rnd = random.Random(6)
    from cremona.field_tower import nullspace
    from cremona.plane_geometry import veronese_row

    for _ in range(20):
        pts = []
        while len(pts) < 5:
            q = rand_point(rnd)
            if q not in pts and not any(
                collinear(a, b, q) for a, b in itertools.combinations(pts, 2)
            ):
                pts.append(q)
        rows = [veronese_row(p.coords, 2, CTX) for p in pts]
        basis = nullspace(rows, CTX)
        assert basis  # a conic through any 5 points
        conic = PlaneCurve(CTX, 2, basis[0])
        sixth = rand_point(rnd)
        while sixth in pts:
            sixth = rand_point(rnd)
        expected = conic.evaluate(sixth) == 0 if len(basis) == 1 else None
        if expected is not None:
            assert six_on_conic(pts + [sixth]) == expected


def test_singular_cubic_through_with_collinear_triple():
    # line z = 0 through three points, conic through five others; the
    # product cubic is singular where line and conic meet: [1:0:0]
    line_pts = [P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)]
    conic_pts = [ProjPoint(CTX, (CTX.mul(t, t), t, 1)) for t in (1, 2, 3, 9, 77)]
    pts = line_pts + conic_pts
    flags = [singular_cubic_through(pts, i) for i in range(8)]
    assert flags[0] and not any(flags[1:])


def test_singular_cubic_duplicate_rejected():
    pts = [P(1, 0, 0)] * 2 + [P(0, 1, 0), P(0, 0, 1), P(1, 1, 1), P(1, 2, 3), P(1, 5, 8), P(1, 9, 2)]
    with pytest.raises(DuplicatePoint):
        singular_cubic_through(pts, 0)


def test_predicates_pgl_invariant():
    rnd = random.Random(7)
    pts = []
    while len(pts) < 8:
        q = rand_point(rnd)
        if q not in pts:
            pts.append(q)
    tri = [collinear(pts[i], pts[j], pts[k]) for i, j, k in itertools.combinations(range(8), 3)]
    hexes = [six_on_conic([pts[i] for i in t]) for t in itertools.combinations(range(8), 6)]
    cub = [singular_cubic_through(pts, i) for i in range(8)]
    for _ in range(100):
        g = rand_transform(rnd, 2)
        im = [apply(g, p) for p in pts]
        assert tri == [
            collinear(im[i], im[j], im[k])
            for i, j, k in itertools.combinations(range(8), 3)
        ]
        assert hexes == [
            six_on_conic([im[i] for i in t])
            for t in itertools.combinations(range(8), 6)
        ]
        assert cub == [singular_cubic_through(im, i) for i in range(8)]


def test_apply_identity_and_inverse():
    rnd = random.Random(8)
    ident = ProjTransform.identity(2)
    g = rand_transform(rnd, 2)
    gi = g.inverse()
    assert (g * gi).matrix == ident.matrix
    for _ in range(100):
        p = rand_point(rnd)
        assert apply(ident, p) == p
        assert apply(gi, apply(g, p)) == p


def test_apply_curve_consistent_with_points():
    rnd = random.Random(9)
    curve = PlaneCurve.from_dict(CTX, 3, {(1, 1, 1): 1, (3, 0, 0): 1, (0, 0, 3): 1})
    for _ in range(10):
        g = rand_transform(rnd, 2)
        image = apply_curve(g, curve)
        for _ in range(50):
            p = rand_point(rnd)
            assert (curve.evaluate(p) == 0) == (image.evaluate(apply(g, p)) == 0)


def test_node_check_normal_form():
    for q in (2, 3, 7):
        ctx = get_ctx(q, 2)
        curve = PlaneCurve.from_dict(
            ctx, 3, {(1, 1, 1): 1, (3, 0, 0): -1, (0, 0, 3): 1}
        )
        assert node_check(curve, ProjPoint(ctx, (0, 1, 0)))


def test_node_check_smooth_point_of_conic():
    conic = PlaneCurve.from_dict(CTX, 2, {(1, 0, 1): 1, (0, 2, 0): 1})
    assert not node_check(conic, P(1, 1, 1))


def test_node_check_cusp_rejected():
    for q in (2, 3, 7):
        ctx = get_ctx(q, 2)
        cusp = PlaneCurve.from_dict(ctx, 3, {(0, 2, 1): 1, (3, 0, 0): -1})
        assert not node_check(cusp, ProjPoint(ctx, (0, 0, 1)))


def test_node_check_point_not_on_curve():
    curve = PlaneCurve.from_dict(CTX, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    with pytest.raises(PointNotOnCurve):
        node_check(curve, P(1, 1, 1))  # 1 + 1 + 1 = 1 in characteristic 2


def test_curve_and_transform_serialization():
    curve = PlaneCurve.from_dict(CTX, 2, {(1, 0, 1): 1, (0, 2, 0): 1})
    data = curve.to_json()
    assert data["degree"] == 2 and len(data["coeffs"]) == 6
    again = PlaneCurve(CTX, data["degree"], data["coeffs"])
    assert again == curve
    g = ProjTransform(2, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    assert len(g.to_json()) == 9
    assert P(1, 2, 3).to_json() == [1, 2, 3]


@pytest.fixture(scope="module", params=[2, 3, 7, 13], ids=lambda q: f"{q}^8")
def eval_ctx(request):
    # F_{2^8}, F_{3^8} and F_{7^8} have tables (array tables at 7^8);
    # F_{13^8} has none
    return get_ctx(request.param, 8)


def _eval_points(ctx):
    """Coordinate triples with zeros among them, the zero triple included,
    and seeded ones."""
    rnd = random.Random(ctx.p)
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, ctx.p - 1, ctx.p)]
    for _ in range(16):
        pts.append(tuple(rnd.choice((0, 1, rnd.randrange(ctx.size))) for _ in range(3)))
    return pts


def test_veronese_row_matches_pow_per_coordinate(eval_ctx):
    ctx = eval_ctx
    assert (ctx._exp is None) == (ctx.p == 13)
    for coords in _eval_points(ctx):
        rows = veronese_rows(coords, 4, ctx)
        for d in range(5):
            expected = [eval_monomial(ctx, coords, e) for e in monomials(d)]
            assert veronese_row(coords, d, ctx) == expected, (coords, d)
            assert rows[d] == expected, (coords, d)


def test_hasse_row_matches_binomials_mod_p(eval_ctx):
    """D^(s) x^e = binom(e, s) x^(e - s), the binomials by math.comb mod p,
    for every shift of total at most 2 at degrees 2 and 3; a zero row
    when the degree is below the total."""
    ctx, p = eval_ctx, eval_ctx.p
    shifts = [s for s in itertools.product(range(3), repeat=3) if sum(s) <= 2]
    for coords in _eval_points(ctx):
        for d in (2, 3):
            for s in shifts:
                expected = []
                for e in monomials(d):
                    b = math.prod(math.comb(a, k) for a, k in zip(e, s)) % p
                    lower = tuple(a - k for a, k in zip(e, s))
                    expected.append(ctx.mul(b, eval_monomial(ctx, coords, lower)) if b else 0)
                assert hasse_row(veronese_rows(coords, d, ctx), s, ctx) == expected, (coords, d, s)
        assert hasse_row(veronese_rows(coords, 1, ctx), (1, 0, 1), ctx) == [0, 0, 0]
        assert hasse_row(veronese_rows(coords, 0, ctx), (0, 1, 0), ctx) == [0]
