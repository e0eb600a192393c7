import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from cremona.field_tower import FieldElement, frobenius_orbit, get_ctx
from cremona.general_position import GaloisOrbit8, orbit_from_seed
from cremona.general_position import test_general_position as gp_verdict
from cremona.nodal_cubic import (
    BadPose,
    NodalCubicNF,
    NotAPencil,
    ProductNotOne,
    Reducible,
    ZeroArgument,
    _chart_eliminant,
    _chart_sum,
    _pencil_minors,
    _SingularLocus,
    _value_rows,
    count_nodal_members,
    cubic_pencil_basis,
    is_cube,
    line_witness,
    normalize,
    param_point,
)
from cremona.plane_geometry import (
    PlaneCurve,
    ProjPoint,
    ProjTransform,
    apply,
    apply_curve,
    apply_raw,
    collinear,
    evaluate_form,
    monomials,
    node_check,
    normalize_coords,
    partial_form,
    six_on_conic,
    substitute_form,
)
from cremona.polynomial import _frobenius_orbits, eliminant, gcd, roots, to_dense, to_sparse, trim

from conftest import horner, pgl3_elements


def test_normal_form_has_node_with_cone_xz():
    # every normal form the constructor accepts; y appears only in xyz,
    # so at [0:1:0] the tangent cone is xz
    for q in (2, 3, 5, 7, 11, 13):
        ctx = get_ctx(q, 1)
        for c0 in range(1, q):
            curve = NodalCubicNF(q, c0).curve(ctx)
            assert node_check(curve, ProjPoint(ctx, (0, 1, 0)))
            with_y = {e for e, c in zip(monomials(3), curve.coeffs) if c and e[1]}
            assert with_y == {(1, 1, 1)}
    with pytest.raises(ZeroArgument):
        NodalCubicNF(3, 0)


def test_param_point_neutral_element():
    nf = NodalCubicNF(2, 1)
    ctx = get_ctx(2, 8)
    assert param_point(nf, FieldElement(ctx, 1)).coords == (1, 0, 1)
    with pytest.raises(ZeroArgument):
        param_point(nf, FieldElement(ctx, 0))


def test_param_points_lie_on_curve():
    rnd = random.Random(21)
    for q in (2, 3):
        nf = NodalCubicNF(q, 1)
        ctx = get_ctx(q, 8)
        curve = nf.curve(ctx)
        for _ in range(1000):
            a = FieldElement(ctx, rnd.randrange(1, ctx.size))
            assert curve.evaluate(param_point(nf, a)) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_collinearity_iff_product_one(q):
    rnd = random.Random(22)
    ctx = get_ctx(q, 8)
    nf = NodalCubicNF(q, 1)
    for _ in range(2000):
        vals = rnd.sample(range(1, ctx.size), 3)
        pts = [param_point(nf, FieldElement(ctx, v)) for v in vals]
        prod = ctx.mul(ctx.mul(vals[0], vals[1]), vals[2])
        assert collinear(*pts) == (prod == 1)


@pytest.mark.parametrize("q", [2, 3])
def test_coconic_iff_product_one(q):
    rnd = random.Random(23)
    ctx = get_ctx(q, 8)
    nf = NodalCubicNF(q, 1)
    for _ in range(2000):
        vals = rnd.sample(range(1, ctx.size), 6)
        pts = [param_point(nf, FieldElement(ctx, v)) for v in vals]
        prod = 1
        for v in vals:
            prod = ctx.mul(prod, v)
        assert six_on_conic(pts) == (prod == 1)


def test_collinearity_systematic_over_f256():
    # all triples from a fixed slice of F_256^* (budgeted exhaustive run)
    ctx = get_ctx(2, 8)
    nf = NodalCubicNF(2, 1)
    import itertools

    pool = list(range(1, 33))
    pts = {v: param_point(nf, FieldElement(ctx, v)) for v in pool}
    for a, b, c in itertools.combinations(pool, 3):
        prod = ctx.mul(ctx.mul(a, b), c)
        assert collinear(pts[a], pts[b], pts[c]) == (prod == 1)


def test_line_witness():
    ctx = get_ctx(7, 2)
    nf = NodalCubicNF(7, 3)
    rnd = random.Random(24)
    for _ in range(50):
        a1 = rnd.randrange(2, ctx.size)
        a2 = rnd.randrange(2, ctx.size)
        a3 = ctx.inv(ctx.mul(a1, a2))
        if len({a1, a2, a3}) != 3 or 0 in (a1, a2, a3):
            continue
        line = line_witness(nf, *(FieldElement(ctx, a) for a in (a1, a2, a3)))
        assert line.degree == 1
        for v in (a1, a2, a3):
            assert line.evaluate(param_point(nf, FieldElement(ctx, v))) == 0


def test_line_witness_coefficients_match_expansion():
    # expand c0 (x - a1)(x - a2)(x - a3) and compare with P(x,1) + Ax^2 + Bx:
    # A = -c0 e1(a), B = c0 e2(a) (elementary symmetric functions)
    ctx = get_ctx(7, 2)
    nf = NodalCubicNF(7, 2)
    a1, a2 = FieldElement(ctx, 5), FieldElement(ctx, 11)
    a3 = FieldElement(ctx, ctx.inv(ctx.mul(5, 11)))
    line = line_witness(nf, a1, a2, a3)
    vals = [a1.e, a2.e, a3.e]
    e1 = 0
    e2 = 0
    for v in vals:
        e1 = ctx.add(e1, v)
    for i in range(3):
        for j in range(i + 1, 3):
            e2 = ctx.add(e2, ctx.mul(vals[i], vals[j]))
    A = ctx.neg(ctx.mul(nf.c0, e1))
    B = ctx.mul(nf.c0, e2)
    expected = PlaneCurve.from_dict(
        ctx, 1, {(1, 0, 0): A, (0, 1, 0): 1, (0, 0, 1): B}
    )
    assert line == expected  # PlaneCurve compares up to normalization


def test_line_witness_contract_errors():
    ctx = get_ctx(7, 2)
    nf = NodalCubicNF(7, 1)
    with pytest.raises(ProductNotOne):
        line_witness(nf, FieldElement(ctx, 2), FieldElement(ctx, 3), FieldElement(ctx, 4))
    with pytest.raises(ZeroArgument):
        line_witness(nf, FieldElement(ctx, 0), FieldElement(ctx, 3), FieldElement(ctx, 4))


def test_is_cube():
    c2 = get_ctx(2, 1)
    assert is_cube(FieldElement(c2, 1))
    c7 = get_ctx(7, 1)
    cubes = {c7.pow(x, 3) for x in range(1, 7)}
    assert len(cubes) == 2  # (q-1)/3 cubes when 3 | q-1
    for x in range(1, 7):
        assert is_cube(FieldElement(c7, x)) == (x in cubes)
    with pytest.raises(ZeroArgument):
        is_cube(FieldElement(c7, 0))


def _posed_cubic(ctx, c0, c1, c2, c3):
    return PlaneCurve.from_dict(
        ctx,
        3,
        {
            (1, 1, 1): 1,
            (3, 0, 0): -c0,
            (2, 0, 1): -c1,
            (1, 0, 2): -c2,
            (0, 0, 3): -c3,
        },
    )


def test_normalize_already_normal():
    ctx = get_ctx(2, 1)
    curve = _posed_cubic(ctx, 1, 0, 0, 1)  # over F_2: -1 = 1
    g, nf = normalize(curve)
    assert nf == NodalCubicNF(2, 1)


def test_normalize_shear_and_scale_over_f7():
    ctx = get_ctx(7, 1)
    # -c0/c3 = -1/6 = 1, a cube
    curve = _posed_cubic(ctx, 1, 2, 3, 6)
    g, nf = normalize(curve)
    assert nf.q == 7
    # the substituted equation is exactly the normal form
    new = substitute_form(curve.coeffs, 3, g.matrix, ctx)
    assert PlaneCurve(ctx, 3, new) == nf.curve(ctx)
    # shear alone kills the x^2 z and x z^2 terms
    from cremona.plane_geometry import monomials

    shear = [[1, 0, 0], [2, 1, 3], [0, 0, 1]]
    sheared = substitute_form(curve.coeffs, 3, shear, ctx)
    idx = {m: i for i, m in enumerate(monomials(3))}
    assert sheared[idx[(2, 0, 1)]] == 0 and sheared[idx[(1, 0, 2)]] == 0


def test_normalize_non_cube_gives_none():
    ctx = get_ctx(7, 1)
    # cubes in F_7^* are {1, 6}; pick -c0/c3 = 3
    curve = _posed_cubic(ctx, 4, 0, 0, 1)  # -4/1 = 3 mod 7
    assert normalize(curve) is None


def test_normalize_error_contracts():
    ctx = get_ctx(7, 1)
    with pytest.raises(Reducible):
        normalize(_posed_cubic(ctx, 0, 1, 1, 1))
    bad_pose = PlaneCurve.from_dict(ctx, 3, {(1, 1, 1): 1, (0, 3, 0): 1})
    with pytest.raises(BadPose):
        normalize(bad_pose)


def test_pencil_basis_and_not_a_pencil():
    ctx = get_ctx(2, 8)
    nf = NodalCubicNF(2, 1)
    x = next(e for e in range(2, 256) if ctx.order(e) == 17)
    orbit = orbit_from_seed(nf, FieldElement(ctx, x))
    g1, g2 = cubic_pencil_basis(orbit.points, ctx)
    # both members vanish at every orbit point
    for coeffs in (g1, g2):
        curve = PlaneCurve(ctx, 3, coeffs)
        for p in orbit.proj_points():
            assert curve.evaluate(p) == 0
    # 8 points that impose dependent conditions break the pencil contract
    with pytest.raises(NotAPencil):
        cubic_pencil_basis([(1, 0, 0)], ctx)


def test_count_nodal_members_regression_witness():
    # golden regression: the general-position orbit seeded by the element
    # with encoding 2 sees 8 nodal pencil members within extension cap 8,
    # and already 1 over the prime field (the defining cubic)
    ctx = get_ctx(2, 8)
    nf = NodalCubicNF(2, 1)
    orbit = orbit_from_seed(nf, FieldElement(ctx, 2))
    assert gp_verdict(orbit).ok
    count = count_nodal_members(orbit, extension_cap=8)
    assert count == 8
    assert 1 <= count <= 12
    assert count_nodal_members(orbit, extension_cap=1) == 1


def test_normalize_pose_independent_up_to_cubes():
    # normalizing g . C for g in the pose stabilizer gives a PGL-equivalent
    # normal form: same c0 up to cube scaling
    ctx = get_ctx(7, 1)
    curve = _posed_cubic(ctx, 1, 0, 0, 6)
    _, nf0 = normalize(curve)
    cubes = {ctx.pow(x, 3) for x in range(1, 7)}
    rnd = random.Random(25)
    for _ in range(20):
        c1, c2 = rnd.randrange(7), rnd.randrange(7)
        shear = [[1, 0, 0], [c1, 1, c2], [0, 0, 1]]
        sheared = substitute_form(curve.coeffs, 3, shear, ctx)
        res = normalize(PlaneCurve(ctx, 3, sheared))
        assert res is not None
        _, nf1 = res
        ratio = ctx.div(nf1.c0, nf0.c0)
        assert ratio in cubes


# ----------------------------------------------------------------------
# the nodal-member count against the member-by-member search

def _node_oracle(curve, point):
    """node_check by substitution: move the point to [0:0:1] by the matrix
    whose columns are the two unit vectors after the point's leading
    coordinate and the point itself, substitute it into the whole form,
    and read the tangent cone off the coefficients of u^2, uv and v^2
    times w^(d-2)."""
    ctx = curve.ctx
    coords = point.coords
    if curve.evaluate(point) != 0:
        raise ValueError(f"{point} is not on the curve")
    d = curve.degree
    for v in range(3):
        if evaluate_form(partial_form(curve.coeffs, d, v, ctx), d - 1, coords, ctx):
            return False
    lead = coords.index(1)
    cols = [[0, 0, 0], [0, 0, 0], list(coords)]
    cols[0][(lead + 1) % 3] = 1
    cols[1][(lead + 2) % 3] = 1
    mat = [[cols[j][i] for j in range(3)] for i in range(3)]
    new = substitute_form(curve.coeffs, curve.degree, mat, ctx)
    idx = {m: i for i, m in enumerate(monomials(curve.degree))}
    a, b, c = (new[idx[e]] for e in ((2, 0, d - 2), (1, 1, d - 2), (0, 2, d - 2)))
    if a == 0 and b == 0 and c == 0:
        return False
    if ctx.p == 2:
        return b != 0
    return ctx.sub(ctx.mul(b, b), ctx.mul(4 % ctx.p, ctx.mul(a, c))) != 0


def _search_singular_points(coeffs, ctx):
    """All points of P^2(ctx) where the cubic and its partials vanish, or
    None when the partials vanish identically: the zero set of one
    nonzero partial (a conic) by one quadratic per x, then filtered."""
    parts = [partial_form(coeffs, 3, v, ctx) for v in range(3)]
    pivot = next((pt for pt in parts if any(pt)), None)
    if pivot is None:
        return None
    idx = {m: i for i, m in enumerate(monomials(2))}
    q20, q11, q10 = pivot[idx[(2, 0, 0)]], pivot[idx[(1, 1, 0)]], pivot[idx[(1, 0, 1)]]
    q02, q01, q00 = pivot[idx[(0, 2, 0)]], pivot[idx[(0, 1, 1)]], pivot[idx[(0, 0, 2)]]
    add, mul = ctx.add, ctx.mul
    cands = []
    for x in range(ctx.size):
        b = add(mul(q11, x), q01)
        c = add(add(mul(q20, mul(x, x)), mul(q10, x)), q00)
        roots = ctx.quadratic_roots(q02, b, c)
        ys = range(ctx.size) if roots is None else set(roots)
        cands.extend((x, y, 1) for y in ys)
    for x in range(ctx.size):
        if add(add(mul(q20, mul(x, x)), mul(q11, x)), q02) == 0:
            cands.append((x, 1, 0))
    if q20 == 0:
        cands.append((1, 0, 0))
    return [
        pt for pt in cands
        if evaluate_form(coeffs, 3, pt, ctx) == 0
        and all(evaluate_form(part, 2, pt, ctx) == 0 for part in parts)
    ]


def _search_count(orbit, cap):
    """The nodal members found member by member, O(q^{2m}) per level m:
    each member [1:t] or [0:1] new at level m is counted when it has
    exactly one singular point in P^2(F_{q^m}) and that point is a node."""
    ctx = orbit.ctx
    g1, g2 = cubic_pencil_basis(orbit.points, ctx)
    count = 0
    for m in range(1, cap + 1):
        sub = get_ctx(ctx.p, m)
        proper = [d for d in range(1, m) if m % d == 0]
        members = itertools.chain(((1, t) for t in range(sub.size)), [(0, 1)])
        for s, t in members:
            if any(sub.in_subfield(t, d) for d in proper):
                continue
            coeffs = [sub.add(sub.mul(s, a), sub.mul(t, b)) for a, b in zip(g1, g2)]
            sings = _search_singular_points(coeffs, sub)
            if sings is None or len(sings) != 1:
                continue
            if _node_oracle(PlaneCurve(sub, 3, coeffs), ProjPoint(sub, sings[0])):
                count += 1
    return count


def _gp_nodal_orbits_q2():
    """The 28 general-position orbits of param_point over F_{2^8}, by least
    parameter."""
    ctx = get_ctx(2, 8)
    nf = NodalCubicNF(2, 1)
    seen, out = set(), []
    for e in range(1, ctx.size):
        if ctx.in_subfield(e, 4) or e in seen:
            continue
        seen.update(v for (v,) in frobenius_orbit(ctx, (e,)))
        orbit = orbit_from_seed(nf, FieldElement(ctx, e))
        if gp_verdict(orbit).ok:
            out.append(orbit)
    return out


def _gp_orbits_q3(seed, n):
    """n general-position orbits of param_point over F_{3^8}, drawn with
    seeded parameters and seeded c0."""
    ctx = get_ctx(3, 8)
    rnd = random.Random(seed)
    out = []
    while len(out) < n:
        e = rnd.randrange(1, ctx.size)
        nf = NodalCubicNF(3, rnd.randrange(1, 3))
        if ctx.in_subfield(e, 4):
            continue
        orbit = orbit_from_seed(nf, FieldElement(ctx, e))
        if gp_verdict(orbit).ok:
            out.append(orbit)
    return out


@pytest.fixture(scope="module")
def orbits_q2():
    orbits = _gp_nodal_orbits_q2()
    assert len(orbits) == 28
    return orbits


@pytest.fixture(scope="module")
def caps_8_12_q2(orbits_q2):
    return [
        (count_nodal_members(o, extension_cap=8), count_nodal_members(o, extension_cap=12))
        for o in orbits_q2
    ]


def test_count_matches_member_search_q2(orbits_q2):
    for orbit in orbits_q2:
        for cap in (1, 2, 3, 4):
            assert count_nodal_members(orbit, extension_cap=cap) == _search_count(
                orbit, cap
            ), (orbit, cap)


def test_count_matches_member_search_q3():
    for orbit in _gp_orbits_q3(31, 6):
        for cap in (1, 2, 3):
            assert count_nodal_members(orbit, extension_cap=cap) == _search_count(
                orbit, cap
            ), (orbit, cap)


def _off_gp_orbits(q, n):
    """n seeded orbits over F_{q^8} with no three points on a line that
    still span a pencil but are not in general position: six of the
    points lie on a conic."""
    ctx = get_ctx(q, 8)
    rnd = random.Random(34)
    out = []
    while len(out) < n:
        orbit = frobenius_orbit(ctx, (1, rnd.randrange(ctx.size), rnd.randrange(ctx.size)))
        if len(orbit) != 8:
            continue
        orbit = GaloisOrbit8(ctx, orbit)
        report = gp_verdict(orbit)
        if report.ok or report.failed_lines:
            continue
        try:
            cubic_pencil_basis(orbit.points, ctx)
        except NotAPencil:
            continue
        out.append(orbit)
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_count_matches_member_search_off_general_position(q):
    # six points on a conic and no three on a line: often still a pencil,
    # but one member is the conic plus a line, with two singular points,
    # which neither count admits
    for orbit in _off_gp_orbits(q, 3):
        for cap in (1, 2, 3, 4):
            assert count_nodal_members(orbit, extension_cap=cap) == _search_count(
                orbit, cap
            ), (orbit, cap)


def test_cap8_histogram_q2(caps_8_12_q2):
    # the member-by-member search gives this histogram over the 28 orbits
    hist = Counter(c8 for c8, _ in caps_8_12_q2)
    assert hist == {1: 6, 5: 4, 6: 4, 8: 8, 12: 6}


def test_cap12_counts_every_nodal_member_q2(orbits_q2, caps_8_12_q2):
    # the discriminant of the pencil has degree 12, so no singular member
    # has degree above 12 and a larger cap finds nothing new
    for c8, c12 in caps_8_12_q2:
        assert c8 <= c12 <= 12
    assert Counter(c12 for _, c12 in caps_8_12_q2) == {5: 4, 6: 4, 8: 8, 12: 12}
    orbit = orbits_q2[0]
    assert count_nodal_members(orbit, extension_cap=13) == caps_8_12_q2[0][1]


def test_cap8_count_invariant_under_pgl3_q3():
    ctx = get_ctx(3, 8)
    (orbit,) = _gp_orbits_q3(33, 1)
    g = random.Random(32).choice(list(pgl3_elements(3)))
    moved = GaloisOrbit8(ctx, [apply_raw(g.matrix, p, ctx) for p in orbit.points])
    assert moved != orbit
    assert count_nodal_members(moved, extension_cap=8) == count_nodal_members(
        orbit, extension_cap=8
    )


@pytest.mark.slow
def test_cap12_q3_seeded_orbit():
    # one seeded q=3 orbit over the whole tower up to F_{3^12}: every
    # nodal member over the algebraic closure, a few seconds per orbit
    (orbit,) = _gp_orbits_q3(31, 1)
    c8 = count_nodal_members(orbit, extension_cap=8)
    c12 = count_nodal_members(orbit, extension_cap=12)
    assert c8 <= c12 <= 12
    assert c12 == 12


def _pencil_singular_points(orbit, cap):
    """(member, singular point) for every singular point of every member
    of the pencil found at the levels m <= cap, conjugates included."""
    ctx = orbit.ctx
    g1, g2 = cubic_pencil_basis(orbit.points, ctx)
    locus = _SingularLocus(g1, g2, get_ctx(ctx.p, 1))
    for m in range(1, cap + 1):
        sub = get_ctx(ctx.p, m)
        for (s, t), pts in _expand_walk(locus, sub).items():
            coeffs = [sub.add(sub.mul(s, a), sub.mul(t, b)) for a, b in zip(g1, g2)]
            yield from ((PlaneCurve(sub, 3, coeffs), ProjPoint(sub, pt)) for pt in pts)


def _random_transform(q, rnd):
    while True:
        try:
            return ProjTransform(q, [[rnd.randrange(q) for _ in range(3)] for _ in range(3)])
        except ValueError:
            continue


def test_node_check_matches_substitution_oracle(orbits_q2):
    # the Hasse-derivative cone against the cone of the substituted form:
    # every singular point of every member found up to cap 12 on the 28
    # q=2 orbits and up to cap 8 on 20 seeded q=3 orbits; the normal forms,
    # also moved by PGL_3(F_q) so the node has other leading coordinates;
    # a cusp, a tacnode, a triple point and a smooth point of a conic
    members = [case for orbit in orbits_q2 for case in _pencil_singular_points(orbit, 12)]
    members += [case for orbit in _gp_orbits_q3(36, 20) for case in _pencil_singular_points(orbit, 8)]
    verdicts = Counter(node_check(curve, pt) for curve, pt in members)
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts
    cases = list(members)
    rnd = random.Random(37)
    for q in (2, 3, 5, 7):
        ctx = get_ctx(q, 1)
        for c0 in range(1, q):
            curve, node = NodalCubicNF(q, c0).curve(ctx), ProjPoint(ctx, (0, 1, 0))
            cases.append((curve, node))
            for _ in range(4):
                g = _random_transform(q, rnd)
                cases.append((apply_curve(g, curve), apply(g, node)))
        origin = ProjPoint(ctx, (0, 0, 1))
        for terms, pt in (
            ({(0, 2, 1): 1, (3, 0, 0): -1}, origin),  # cusp y^2 z = x^3
            ({(0, 2, 1): 1, (2, 1, 0): -1}, origin),  # tacnode y (yz - x^2)
            ({(3, 0, 0): 1, (0, 3, 0): 1}, origin),  # triple point
            ({(1, 0, 1): 1, (0, 2, 0): -1}, ProjPoint(ctx, (1, 1, 1))),  # conic
        ):
            degree = sum(next(iter(terms)))
            cases.append((PlaneCurve.from_dict(ctx, degree, terms), pt))
    for curve, pt in cases:
        assert node_check(curve, pt) == _node_oracle(curve, pt), (curve, pt)


# ----------------------------------------------------------------------
# the Frobenius-orbit walk of the singular locus against the full scan

def _scan_points(g1, g2, ctx):
    """Every point of the locus in P^2(ctx), from the minors of [v1 v2]
    alone: each minor at [x0:y:1] as a dense polynomial in y for every x0
    of ctx, their gcd, and a test of every y in a fibre of degree >= 2;
    then the points [x0:1:0] and [1:0:0] where every minor vanishes.
    O(q^m) x-steps per level, where the walk takes one x0 per Frobenius
    orbit."""
    prime = get_ctx(ctx.p, 1)
    minors = _pencil_minors([_value_rows(g, prime) for g in (g1, g2)], ctx.p)
    add, mul, pw = ctx.add, ctx.mul, ctx.pow

    def fibre(minor, x0):
        out = [0] * 6
        for (i, j, _), c in minor.items():
            out[j] = add(out[j], mul(c, pw(x0, i)))
        return trim(out)

    forms = []  # the minors as dense forms, for the points with z = 0
    for minor in minors:
        d = sum(next(iter(minor)))
        forms.append(([minor.get(e, 0) for e in monomials(d)], d))

    def vanish(pt):
        return all(evaluate_form(f, d, pt, ctx) == 0 for f, d in forms)

    out = []
    for x0 in range(ctx.size):
        g = []
        for minor in minors:
            g = gcd(g, fibre(minor, x0), ctx)
            if len(g) == 1:
                break
        else:
            if not g:
                raise NotAPencil(f"the minors vanish at every point [{x0}:y:1]")
            out.extend((x0, y0, 1) for y0 in range(ctx.size) if horner(g, y0, ctx) == 0)
        if vanish((x0, 1, 0)):
            out.append((x0, 1, 0))
    if vanish((1, 0, 0)):
        out.append((1, 0, 0))
    return out


def _members_by_point(locus, pts, ctx):
    """{(s, t): singular points} from every point of the locus: the member
    named by each point, read off all eight forms of [v1 v2] at it, and
    kept when its field of definition is ctx itself (t in no proper
    subfield; [0:1] only over the prime field)."""
    proper = [d for d in range(1, ctx.n) if ctx.n % d == 0]
    out = {}
    for pt in pts:
        v1, v2 = ([evaluate_form(f, d, pt, ctx) for f, d in r] for r in locus.rows)
        k = next((k for k in range(4) if v1[k] or v2[k]), None)
        if k is None:
            raise NotAPencil(f"every member is singular at {pt}")
        s, t = (1, ctx.div(ctx.neg(v1[k]), v2[k])) if v2[k] else (0, 1)
        if (s == 0 and proper) or any(ctx.in_subfield(t, d) for d in proper):
            continue
        out.setdefault((s, t), []).append(pt)
    return {member: sorted(pts) for member, pts in out.items()}


def _expand_walk(locus, ctx):
    """The members of `locus.members(ctx)` and their singular points, with
    every entry (member, point) carried through all m Frobenius powers;
    asserts that each member has as many points as its orbit has entries."""
    m = ctx.n
    out = {}
    for key, named in locus.members(ctx).items():
        for member, pt in named:
            orbit = list(zip(frobenius_orbit(ctx, member), frobenius_orbit(ctx, pt)))
            assert len(orbit) == m and min(member for member, _ in orbit) == key
            for member, pt in orbit:
                out.setdefault(member, []).append(pt)
        assert all(len(out[member]) == len(named) for member, _ in named)
    return {member: sorted(pts) for member, pts in out.items()}


@lru_cache(maxsize=None)
def _scan_orbit(orbit, m):
    """`_scan_points` on the pencil through the orbit at level m, computed
    once: the walk and the eliminant are both checked against it."""
    g1, g2 = cubic_pencil_basis(orbit.points, orbit.ctx)
    return tuple(_scan_points(g1, g2, get_ctx(orbit.ctx.p, m)))


def _assert_walk_matches_scan(orbit, top):
    """Level by level: the points of `points` are one per Frobenius orbit
    of the full scan's points of exact degree m, and `members` gives the
    members of exact degree m with the same singular points as the
    per-point grouping of every scanned point."""
    ctx = orbit.ctx
    g1, g2 = cubic_pencil_basis(orbit.points, ctx)
    locus = _SingularLocus(g1, g2, get_ctx(ctx.p, 1))
    for m in range(1, top + 1):
        sub = get_ctx(ctx.p, m)
        scan = _scan_orbit(orbit, m)
        pts = [pt for rep in locus.points(sub) for pt in frobenius_orbit(sub, rep)]
        assert len(pts) == len(set(pts)), (orbit, m)
        exact = {pt for pt in scan if len(frobenius_orbit(sub, pt)) == m}
        assert set(pts) == exact, (orbit, m)
        assert _expand_walk(locus, sub) == _members_by_point(locus, scan, sub), (orbit, m)


def test_points_match_full_scan_q2(orbits_q2):
    for orbit in orbits_q2:
        _assert_walk_matches_scan(orbit, 12)


def test_points_match_full_scan_q3():
    for orbit in _gp_orbits_q3(31, 6):
        _assert_walk_matches_scan(orbit, 8)


@pytest.mark.parametrize("q, top", [(2, 12), (3, 8)])
def test_points_match_full_scan_off_general_position(q, top):
    for orbit in _off_gp_orbits(q, 3):
        _assert_walk_matches_scan(orbit, top)


def test_points_match_full_scan_conjugate_pair_at_infinity(orbits_q2):
    # the line through a conjugate pair of singular points over F_4 is
    # F_2-rational; a PGL_3(F_2) element that moves it to z = 0 gives a
    # pencil whose line gcd has roots outside the prime field
    orbit = orbits_q2[1]
    ctx, c2 = orbit.ctx, get_ctx(2, 2)
    g1, g2 = cubic_pencil_basis(orbit.points, ctx)
    pts = _SingularLocus(g1, g2, get_ctx(2, 1)).points(c2)
    a = next(pt for pt in pts if not all(c2.in_subfield(c, 1) for c in pt))
    b = tuple(map(c2.frobenius, a))
    line = normalize_coords(
        [c2.sub(c2.mul(a[i], b[j]), c2.mul(a[j], b[i])) for i, j in ((1, 2), (2, 0), (0, 1))],
        c2,
    )
    assert all(c2.in_subfield(c, 1) for c in line)
    pivot = next(i for i in range(3) if line[i])
    rows = [[int(i == j) for j in range(3)] for i in range(3) if i != pivot]
    moved = GaloisOrbit8(ctx, [apply_raw(rows + [list(line)], p, ctx) for p in orbit.points])
    g1, g2 = cubic_pencil_basis(moved.points, ctx)
    at_infinity = [pt for pt in _SingularLocus(g1, g2, get_ctx(2, 1)).points(c2) if pt[2] == 0]
    assert any(not c2.in_subfield(x, 1) for x, _, _ in at_infinity)
    _assert_walk_matches_scan(moved, 12)
    assert count_nodal_members(moved, extension_cap=8) == count_nodal_members(
        orbit, extension_cap=8
    )


def _poly_mul(a, b, ctx):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(u, v))
    return out


def _power_orbit(ctx, y, k):
    """[y, F^k y, F^2k y, ...] up to the first repetition."""
    out = [y]
    y = ctx.frobenius_iter(y, k)
    while y != out[0]:
        out.append(y)
        y = ctx.frobenius_iter(y, k)
    return out


@pytest.mark.parametrize(
    "p, m, k", [(2, 12, 4), (2, 12, 6), (3, 6, 2), (3, 6, 3), (2, 8, 1), (3, 6, 1)]
)
def test_roots_over_subfield_match_full_scan(p, m, k):
    # sparse polynomials with coefficients in F_{p^k}: the minimal
    # polynomial over F_{p^k} of a random r, alone (its roots sit at the
    # orbit-size bound) and times a random factor y - a with a in F_{p^k}
    # and a random quadratic over F_{p^k}; two linear polynomials, one
    # with root 0.  The zero polynomial, of which every element is a root,
    # is refused.  k = 1 gives F_p coefficients; for k > 1 some coefficients
    # lie outside F_p, which poly_at reads by their logs in characteristic 2
    ctx = get_ctx(p, m)
    assert sum(size for _, size, _ in _frobenius_orbits(ctx)) == ctx.size
    assert sum(d for _, _, d in _frobenius_orbits(ctx, k)) == ctx.size
    with pytest.raises(ValueError):
        roots([], ctx, k)
    sub = [e for e in range(ctx.size) if ctx.in_subfield(e, k)]
    rnd = random.Random(35 + m + k)
    polys = [[rnd.choice(sub), rnd.choice(sub[1:])], [0, rnd.choice(sub[1:])]]
    for _ in range(20):
        r = rnd.randrange(ctx.size)
        f = [1]
        for y in _power_orbit(ctx, r, k):
            f = _poly_mul(f, [ctx.neg(y), 1], ctx)
        polys.append(f)
        f = _poly_mul(f, [ctx.neg(rnd.choice(sub)), 1], ctx)
        polys.append(_poly_mul(f, [rnd.choice(sub), rnd.choice(sub), 1], ctx))
    outside = 0
    for f in polys:
        assert all(ctx.in_subfield(c, k) for c in f)
        outside += any(not ctx.in_subfield(c, 1) for c in f)
        # one root per F^k-orbit of roots, with the size of its F-orbit
        found = []
        for y, size in roots(to_sparse(f), ctx, k):
            assert size == len(frobenius_orbit(ctx, (y,)))
            found += _power_orbit(ctx, y, k)
        assert len(found) == len(set(found))
        assert set(found) == {y for y in range(ctx.size) if horner(f, y, ctx) == 0}
    assert bool(outside) == (k > 1)


def _cubic(ctx, terms):
    return list(PlaneCurve.from_dict(ctx, 3, terms).coeffs)


def test_singular_locus_not_finite():
    # a member with a double line, or a point where every member is
    # singular, makes the singular locus of the pencil infinite; a double
    # line x = x0 z, the line z = 0 and any line of positive degree in y
    # are seen when the locus is built
    ctx = get_ctx(3, 1)
    other = _cubic(ctx, {(0, 3, 0): 1, (0, 0, 3): 1, (1, 0, 2): 1})
    with pytest.raises(NotAPencil, match="line x = x0 z"):
        _SingularLocus(_cubic(ctx, {(2, 1, 0): 1}), other, ctx)
    with pytest.raises(NotAPencil, match="z = 0"):
        _SingularLocus(_cubic(ctx, {(1, 0, 2): 1}), other, ctx)
    cusp = _cubic(ctx, {(2, 0, 1): 1, (0, 3, 0): 1})
    with pytest.raises(NotAPencil, match="every member"):
        _SingularLocus(cusp, _cubic(ctx, {(0, 2, 1): 1, (3, 0, 0): 1}), ctx).members(ctx)
    # x y^2 is singular at the cusp too, and along the line y = 0
    with pytest.raises(NotAPencil, match="curve"):
        _SingularLocus(cusp, _cubic(ctx, {(1, 2, 0): 1}), ctx)


def test_vertical_line_in_the_locus_is_refused_when_built():
    # h = x^2 + xz + z^2 is irreducible over F_2 and splits over F_4 into
    # the lines x = w z, w^2 + w + 1 = 0.  The member h (s x + t y) is
    # singular wherever its line s x + t y = 0 meets them, so both lines
    # lie in the locus.  A factor of x alone, h passes the tries of the
    # eliminant, and a check at each fibre would raise only at level 2,
    # where the fibres over w are zero, after a wrong count at level 1;
    # the gcd of the charts' rows sees it when the locus is built
    ctx = get_ctx(2, 1)
    hx = _cubic(ctx, {(3, 0, 0): 1, (2, 0, 1): 1, (1, 0, 2): 1})
    hy = _cubic(ctx, {(2, 1, 0): 1, (1, 1, 1): 1, (0, 1, 2): 1})
    with pytest.raises(NotAPencil, match="line x = x0 z"):
        _SingularLocus(hx, hy, ctx)


# ----------------------------------------------------------------------
# the eliminant that prunes the x-scan of the singular locus

def _dense_charts(locus):
    return [[to_dense(row) for row in chart] for chart in locus.charts]


def _assert_eliminant_vanishes_on_scan(orbit, top):
    """r != 0, and r(x0) = 0 at the x0 of every point [x0:y0:1] that the
    full scan finds at the levels 1..top, by Horner's rule on dense r."""
    ctx = orbit.ctx
    g1, g2 = cubic_pencil_basis(orbit.points, ctx)
    r = to_dense(_SingularLocus(g1, g2, get_ctx(ctx.p, 1)).eliminant)
    assert r, orbit
    for m in range(1, top + 1):
        sub = get_ctx(ctx.p, m)
        for x0, _, z0 in _scan_orbit(orbit, m):
            assert z0 == 0 or horner(r, x0, sub) == 0, (orbit, m, x0)


def test_eliminant_vanishes_on_scanned_points_q2(orbits_q2):
    for orbit in orbits_q2:
        _assert_eliminant_vanishes_on_scan(orbit, 12)


def test_eliminant_vanishes_on_scanned_points_q3():
    for orbit in _gp_orbits_q3(31, 6):
        _assert_eliminant_vanishes_on_scan(orbit, 8)


def _integer_resultant(a, b, p):
    """Res_y(a, b) taken over Z by sympy, of the lifts of a and b with
    coefficients 0..p-1, then reduced mod p: the Sylvester determinant
    commutes with the reduction, since the lifts keep their degrees in y."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def lift(f):
        return sympy.Poly(
            sum(c * x**i * y**j for j, row in enumerate(f) for i, c in enumerate(row)),
            y, x, domain=sympy.ZZ,
        )

    res = lift(a).resultant(lift(b))
    return trim([int(c) % p for c in reversed(sympy.Poly(res, x).all_coeffs())])


def _times(f, h, p):
    """The product of two polynomials of F_p[x][y], each a list over the
    powers of y of dense lists in x."""
    out = [[] for _ in range(len(f) + len(h) - 1)]
    for i, u in enumerate(f):
        for j, v in enumerate(h):
            out[i + j] = trim([(s + t) % p for s, t in itertools.zip_longest(
                out[i + j], _poly_mul(u, v, get_ctx(p, 1)), fillvalue=0)])
    return out


def test_eliminant_matches_integer_resultant():
    # seeded pairs over F_2, F_3 and F_5 with y-degrees 0..4, some sharing
    # a factor of positive degree in y (resultant 0); the charts of the
    # seeded q=3 orbit; Res is taken up to sign.  Two polynomials in x
    # alone eliminate to the first of them.
    assert eliminant([[1, 0, 1]], [[0, 1]], 2) == [1, 0, 1]
    rnd = random.Random(39)
    cases = []
    for p in (2, 3, 5):
        def bivariate(dy, dx):
            f = [trim([rnd.randrange(p) for _ in range(dx + 1)]) for _ in range(dy)]
            return f + [trim([rnd.randrange(p) for _ in range(dx)] + [rnd.randrange(1, p)])]

        for _ in range(12):
            a = bivariate(rnd.randrange(1, 5), rnd.randrange(4))
            b = bivariate(rnd.randrange(1, 5), rnd.randrange(4))
            cases.append((a, b, p))
        cases.append((bivariate(0, 3), bivariate(2, 2), p))  # Res = a0^2
        for _ in range(4):
            h = bivariate(1, 2)
            cases.append((_times(bivariate(2, 2), h, p), _times(bivariate(1, 3), h, p), p))
    (orbit,) = _gp_orbits_q3(31, 1)
    g1, g2 = cubic_pencil_basis(orbit.points, orbit.ctx)
    charts = _dense_charts(_SingularLocus(g1, g2, get_ctx(3, 1)))
    cases += [(a, b, 3) for a, b in itertools.combinations(charts[:4], 2)]
    zeros = 0
    for a, b, p in cases:
        res = _integer_resultant(a, b, p)
        zeros += not res
        assert eliminant(a, b, p) in (res, [-c % p for c in res]), (a, b, p)
    assert zeros >= 3 * 4 + 3


def test_seeded_q3_orbit_needs_a_later_pair():
    # the seeded orbit of test_cap12_q3_seeded_orbit: its first three
    # charts share a factor of positive degree in y, so the pairs (0, 1)
    # and (0, 2) eliminate to 0; the first try, T = 0, is the pair (0, 1),
    # and the second, T = 1, pairs c_1 with the sum of the others and
    # gives r
    (orbit,) = _gp_orbits_q3(31, 1)
    g1, g2 = cubic_pencil_basis(orbit.points, orbit.ctx)
    locus = _SingularLocus(g1, g2, get_ctx(3, 1))
    charts = _dense_charts(locus)
    assert eliminant(charts[0], charts[1], 3) == []
    assert eliminant(charts[0], charts[2], 3) == []
    assert _try_sum(locus.charts, 0, 3) == charts[1]
    r = eliminant(charts[0], _try_sum(locus.charts, 1, 3), 3)
    assert r and locus.eliminant == to_sparse(r)


def test_first_try_is_the_first_pair_q2(orbits_q2):
    # on the 28 q=2 GP nodal pencils the first pair of charts eliminates
    # to a nonzero r, so the tries stop at T = 0 and r is that pair's
    for orbit in orbits_q2:
        g1, g2 = cubic_pencil_basis(orbit.points, orbit.ctx)
        locus = _SingularLocus(g1, g2, get_ctx(2, 1))
        charts = _dense_charts(locus)
        r = eliminant(charts[0], charts[1], 2)
        assert r and locus.eliminant == to_sparse(r), orbit


def _try_sum(charts, t, p):
    """The second argument of the t-th try T = 0, 1, x, x^2, ... of
    `_chart_eliminant` on sparse charts, by `_chart_sum`."""
    return _chart_sum(charts[1:2], 0, p) if t == 0 else _chart_sum(charts[1:], t - 1, p)


def _sympy_try_sum(charts, t, p):
    """sum T^(j-2) c_j over the dense charts c_j, j >= 2, for the t-th try
    T = 0, 1, x, x^2, ..., formed by sympy over Z and reduced mod p, as a
    list over the powers of y of dense lists in x."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    T = 0 if t == 0 else x ** (t - 1)
    lifts = [
        sum(c * x**i * y**k for k, row in enumerate(f) for i, c in enumerate(row)) for f in charts
    ]
    total = sympy.expand(sum(T ** (j - 1) * f for j, f in enumerate(lifts) if j))
    rows = {}
    for (k, i), c in sympy.Poly(total, y, x).terms():
        rows.setdefault(k, []).append((i, int(c) % p))
    return trim([trim(to_dense(rows.get(k, []))) for k in range(max(rows, default=-1) + 1)])


def test_tries_match_integer_resultant():
    # seeded chart triples (c_1, c_2, c_3) over F_2, F_3 and F_5, built from
    # factors h_i = y + a_i(x) with distinct a_i and from nonzero u, v, w
    # in x alone: c_1 = h_1 h_2 u, c_2 = h_1 h_3 v and c_3 = h_2 h_3 w share
    # a factor pair by pair but not all three, so every pair eliminates to
    # 0 and a later try does not; c_2 = h_1 v alone shares one with c_1;
    # and c_i = h_1 u_i share h_1, so every try gives 0.  At each of the
    # (s - 2) deg_y c_1 + 1 tries, `_chart_sum` equals the sum formed by
    # sympy, and its eliminant with c_1 equals sympy's resultant up to
    # sign; `_chart_eliminant` returns the first nonzero one, or raises
    rnd = random.Random(41)
    for p in (2, 3, 5):
        def in_x():
            lower = [rnd.randrange(p) for _ in range(rnd.randrange(3))]
            return trim(lower + [rnd.randrange(1, p)])

        for _ in range(3):
            h1, h2, h3 = (
                [trim([n // p**i % p for i in range(3)]), [1]]
                for n in rnd.sample(range(p**3), 3)
            )
            u, v, w = ([in_x()] for _ in range(3))
            triples = [
                (_times(_times(h1, h2, p), u, p), _times(_times(h1, h3, p), v, p),
                 _times(_times(h2, h3, p), w, p)),
                (_times(h1, u, p), _times(h1, v, p), _times(h2, w, p)),
                (_times(h1, u, p), _times(h1, v, p), _times(h1, w, p)),
            ]
            for kind, charts in enumerate(triples):
                sparse = [[to_sparse(row) for row in chart] for chart in charts]
                assert eliminant(charts[0], charts[1], p) == []
                if kind == 0:
                    pairs = itertools.combinations(charts, 2)
                    assert all(not eliminant(a, b, p) for a, b in pairs)
                found = []
                for t in range((len(charts) - 2) * (len(charts[0]) - 1) + 1):
                    other = _try_sum(sparse, t, p)
                    assert other == _sympy_try_sum(charts, t, p), (charts, t)
                    res = _integer_resultant(charts[0], other, p)
                    assert eliminant(charts[0], other, p) in (res, [-c % p for c in res])
                    found = found or eliminant(charts[0], other, p)
                if kind == 2:
                    assert not found
                    with pytest.raises(NotAPencil, match="curve"):
                        _chart_eliminant(sparse, p)
                else:
                    assert found and _chart_eliminant(sparse, p) == to_sparse(found)


def _zero_eliminant_pencil(ctx):
    """y^2 z and y^3 + z^3 + x z^2 + x^3: every chart has the factor y, so
    every pair and every try eliminates to 0."""
    return (
        _cubic(ctx, {(0, 2, 1): 1}),
        _cubic(ctx, {(0, 3, 0): 1, (0, 0, 3): 1, (1, 0, 2): 1, (3, 0, 0): 1}),
    )


def _minor_charts(g1, g2, p):
    """The minors of the pencil on the chart z = 1, sparse as in
    `_SingularLocus`, in the order of `_pencil_minors`."""
    minors = _pencil_minors([_value_rows(g, get_ctx(p, 1)) for g in (g1, g2)], p)
    charts = []
    for minor in minors:
        chart = [[] for _ in range(6)]
        for (i, j, _), c in sorted(minor.items()):
            chart[j].append((i, c))
        charts.append(trim(chart))
    return charts


@pytest.mark.parametrize("q", [2, 3])
def test_zero_eliminant_pencil_is_not_a_pencil(q):
    # the member y^2 z is singular along the line y = 0, so every chart
    # has the factor y: every pair and every one of the
    # (s - 2) deg_y c_1 + 1 tries eliminates to 0, and the locus is refused
    # before any level is visited; the full scan holds the line
    ctx = get_ctx(q, 1)
    g1, g2 = _zero_eliminant_pencil(ctx)
    charts = _minor_charts(g1, g2, q)
    assert len(charts) == {2: 5, 3: 6}[q]
    dense = [[to_dense(row) for row in chart] for chart in charts]
    assert all(not eliminant(a, b, q) for a, b in itertools.combinations(dense, 2))
    tries = (len(charts) - 2) * (len(charts[0]) - 1) + 1
    assert all(not eliminant(dense[0], _try_sum(charts, t, q), q) for t in range(tries))
    with pytest.raises(NotAPencil, match="curve"):
        _chart_eliminant(charts, q)
    with pytest.raises(NotAPencil, match="curve"):
        _SingularLocus(g1, g2, ctx)
    for m in range(1, 4):
        sub = get_ctx(q, m)
        assert {(x0, 0, 1) for x0 in range(sub.size)} <= set(_scan_points(g1, g2, sub))


# ----------------------------------------------------------------------
# the fibres over F_p, solved once per pencil

def _walk(locus, p, levels):
    """{m: [(points, members)]}, one entry per visit of level m, in the
    order given, with every list sorted."""
    out = {}
    for m in levels:
        sub = get_ctx(p, m)
        members = {key: sorted(named) for key, named in locus.members(sub).items()}
        out.setdefault(m, []).append((sorted(locus.points(sub)), members))
    return out


def _assert_any_level_order(g1, g2, p, top, scan_at, rnd):
    """One locus visited at the levels 1..top in a shuffled order, one
    level twice, gives at each level the points and members of a fresh
    locus walked in order, and those of the full scan `scan_at(m)`."""
    prime = get_ctx(p, 1)
    in_order = _walk(_SingularLocus(g1, g2, prime), p, range(1, top + 1))
    levels = list(range(1, top + 1))
    rnd.shuffle(levels)
    levels.insert(rnd.randrange(top + 1), rnd.choice(levels))
    locus = _SingularLocus(g1, g2, prime)
    shuffled = _walk(locus, p, levels)
    assert sorted(map(len, shuffled.values())) == [1] * (top - 1) + [2]
    for m in range(1, top + 1):
        assert shuffled[m] == in_order[m] * len(shuffled[m]), (levels, m)
        sub, scan = get_ctx(p, m), scan_at(m)
        pts = {pt for rep in shuffled[m][0][0] for pt in frobenius_orbit(sub, rep)}
        assert pts == {pt for pt in scan if len(frobenius_orbit(sub, pt)) == m}, m
        assert _expand_walk(locus, sub) == _members_by_point(locus, scan, sub), m


def test_levels_in_any_order_match_full_scan(orbits_q2):
    # the fibres over F_p are kept on the locus from the first level that
    # visits them; any order of the levels, and a repeated level, gives
    # the in-order walk and the full scan: the 28 q=2 orbits to cap 12 and
    # the seeded q=3 orbits to cap 8
    rnd = random.Random(40)
    for orbit in orbits_q2 + _gp_orbits_q3(31, 6):
        g1, g2 = cubic_pencil_basis(orbit.points, orbit.ctx)
        top = 12 if orbit.ctx.p == 2 else 8
        _assert_any_level_order(g1, g2, orbit.ctx.p, top, lambda m: _scan_orbit(orbit, m), rnd)


def test_fibres_over_the_prime_field_solved_once(orbits_q2, monkeypatch):
    # a root x0 of r in F_2 is visited at every level of a cap-8 count,
    # but the gcd in y of the charts over it is taken once
    calls = Counter()
    fibre = _SingularLocus._fibre

    def counted(self, x0, ctx):
        if ctx.in_subfield(x0, 1):
            calls[x0] += 1
        return fibre(self, x0, ctx)

    monkeypatch.setattr(_SingularLocus, "_fibre", counted)
    prime = get_ctx(2, 1)
    visited = 0
    for orbit in orbits_q2:
        g1, g2 = cubic_pencil_basis(orbit.points, orbit.ctx)
        xs = [x0 for x0, _ in roots(_SingularLocus(g1, g2, prime).eliminant, prime)]
        calls.clear()
        count_nodal_members(orbit, 8)
        assert calls == Counter(xs), orbit
        visited += len(xs)
    assert visited > 0


def _member_degrees(orbit, cap):
    """((degree, number of members), ...): the degrees of the fields of
    definition of the singular members of the pencil, up to cap."""
    ctx = orbit.ctx
    g1, g2 = cubic_pencil_basis(orbit.points, ctx)
    locus = _SingularLocus(g1, g2, get_ctx(ctx.p, 1))
    counts = {m: m * len(locus.members(get_ctx(ctx.p, m))) for m in range(1, cap + 1)}
    return tuple((m, n) for m, n in counts.items() if n)


def test_member_degrees_invariant_under_pgl3_q2(orbits_q2):
    # the degrees of the singular members are a PGL_3(F_2)-invariant of
    # the orbit; at cap 12 they are all the singular members
    degrees = [_member_degrees(orbit, 12) for orbit in orbits_q2]
    assert Counter(degrees) == {
        ((1, 1), (11, 11)): 6,
        ((1, 2), (3, 3), (7, 7)): 4,
        ((1, 3), (3, 3)): 4,
        ((1, 2), (7, 7)): 2,
        ((1, 2), (2, 2), (3, 3)): 2,
        ((1, 1), (2, 2), (4, 4), (5, 5)): 2,
        ((1, 3), (2, 2), (4, 4)): 2,
        ((1, 2), (3, 3), (4, 4)): 2,
        ((1, 2), (5, 5)): 2,
        ((1, 2), (2, 2), (5, 5)): 2,
    }
    ctx = orbits_q2[0].ctx
    for g in random.Random(38).sample(list(pgl3_elements(2)), 4):
        moved = [
            GaloisOrbit8(ctx, [apply_raw(g.matrix, p, ctx) for p in orbit.points])
            for orbit in orbits_q2
        ]
        assert [_member_degrees(orbit, 12) for orbit in moved] == degrees, g
