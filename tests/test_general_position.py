import collections
import itertools
import random

import pytest

from cremona import bertini_census
from cremona import general_position as gp
from cremona.field_tower import FieldElement, frobenius_orbit, get_ctx, nullspace, rank
from cremona.general_position import (
    Collision,
    GaloisOrbit8,
    ShortOrbit,
    beta_twist,
    general_position_report,
    lambda_scan,
    orbit_from_point,
    orbit_from_seed,
    orbit_report,
    unexplained_lambda_failures,
)
from cremona.nodal_cubic import NodalCubicNF, param_point
from cremona.plane_geometry import ProjPoint, apply, singular_cubic_through, veronese_row

from conftest import (
    Q2_GENERAL_POSITION,
    Q2_TOTAL_ORBITS,
    pair_products,
    pgl3_elements,
    q13_seed_bad_at_squares,
    q2_frobenius_orbits,
    q7_seed_bad_at_every_lambda,
)

CTX = get_ctx(2, 8)
NF = NodalCubicNF(2, 1)


def nodal_seeds_q2():
    """One representative per multiplicative Frobenius orbit outside F_16."""
    seeds = []
    seen = set()
    for e in range(1, 256):
        if CTX.in_subfield(e, 4) or e in seen:
            continue
        cur = e
        while True:
            seen.add(cur)
            cur = CTX.frobenius(cur)
            if cur == e:
                break
        seeds.append(e)
    return seeds


def test_orbit_from_point_rational_point_is_short():
    assert orbit_from_point(ProjPoint(CTX, (1, 1, 0))) is None
    assert orbit_from_point(ProjPoint(CTX, (0, 0, 1))) is None


def test_orbit_from_point_order_17_coordinate():
    x = next(e for e in range(2, 256) if CTX.order(e) == 17)
    orbit = orbit_from_point(ProjPoint(CTX, (x, 1, 0)))
    assert orbit is not None and len(orbit.points) == 8
    assert orbit.seed == min(orbit.points)


def test_orbits_in_a_degree_16_field():
    # a degree-8 point lies over F_{q^8}: over F_{2^16}, a Frobenius orbit
    # of size 8 is refused by GaloisOrbit8 and by orbit_report alike
    ctx = get_ctx(2, 16)
    g = next(e for e in range(2, ctx.size) if ctx.order(e) == ctx.size - 1)
    assert len(frobenius_orbit(ctx, (g,))) == 16
    assert orbit_from_point(ProjPoint(ctx, (1, g, 0))) is None
    x = next(e for e in range(2, ctx.size) if ctx.order(e) == 17)
    points = frobenius_orbit(ctx, (x, 1, 0))
    assert len(points) == 8
    with pytest.raises(ValueError, match="lies over"):
        GaloisOrbit8(ctx, points)
    with pytest.raises(ValueError, match="lies over"):
        orbit_from_point(ProjPoint(ctx, (x, 1, 0)))
    with pytest.raises(ValueError, match="works over"):
        orbit_report(points, ctx)


def test_orbit_invariants_enforced():
    with pytest.raises(Collision):
        GaloisOrbit8(CTX, [(1, 0, 0)] * 8)
    pts = [(1, y, 0) for y in range(8)]  # not Frobenius-closed
    with pytest.raises(ShortOrbit):
        GaloisOrbit8(CTX, pts)


def test_orbit_equality_is_projective():
    # one degree-8 point given by other coordinate triples: p_k scaled by
    # F^k(5) is still a Frobenius orbit of triples, one point scaled by 7
    # is not; both are the same 8 projective points
    points = frobenius_orbit(CTX, (1, 2, 3))
    orbit = GaloisOrbit8(CTX, points)
    lam, scaled = 5, []
    for p in points:
        scaled.append(tuple(CTX.mul(lam, c) for c in p))
        lam = CTX.frobenius(lam)
    one_scaled = list(points)
    one_scaled[3] = tuple(CTX.mul(7, c) for c in points[3])
    for triples in (scaled, one_scaled):
        assert triples != points
        other = GaloisOrbit8(CTX, triples)
        assert other == orbit and hash(other) == hash(orbit)
        assert other.points == orbit.points
        assert other.proj_points() == orbit.proj_points()


def test_two_degree_4_points_are_a_short_orbit():
    # 8 points closed under Frobenius, in two orbits of size 4 on z = 0,
    # are no degree-8 point in any order; the all-tuples test still takes
    # them, and finds every triple on the line
    f16 = [e for e in range(2, 256) if CTX.order(e) == 15]
    union = frobenius_orbit(CTX, (f16[0], 1, 0))
    union += frobenius_orbit(CTX, (next(e for e in f16 if (e, 1, 0) not in union), 1, 0))
    assert len(set(union)) == 8
    for points in (union, sorted(union), union[::-1]):
        with pytest.raises(ShortOrbit):
            GaloisOrbit8(CTX, points)
    assert len(general_position_report(union, CTX).failed_lines) == 56


def test_tier_short_circuit_on_synthetic_collinear_set():
    # synthetic 8-point set with a collinear triple: the line tier fires
    # and the later tiers are not reported
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    pts += [(CTX.mul(t, t), t, 1) for t in (1, 2, 3, 9, 77)]
    report = general_position_report(pts, CTX)
    assert not report.ok
    assert report.failed_lines and not report.failed_conics
    assert (0, 1, 2) in report.failed_lines
    data = report.to_json()
    assert data["ok"] is False and data["failed_lines"]


def tier(report):
    for name, failed in (("line", report.failed_lines), ("conic", report.failed_conics),
                         ("cubic", report.failed_cubics)):
        if failed:
            return name
    return "ok"


def test_orbit_report_needs_frobenius_order():
    # a GaloisOrbit8 holds its points in Frobenius order from the least
    # one, whatever order they come in; orbit_report refuses any other
    orbit = orbit_from_seed(NF, FieldElement(CTX, 2))
    frob_order = frobenius_orbit(CTX, min(orbit.points))
    assert list(orbit.points) == frob_order and orbit.seed == min(frob_order)
    for points in (sorted(frob_order), frob_order[3:] + frob_order[:3], frob_order[::-1]):
        assert GaloisOrbit8(CTX, points).points == orbit.points
    assert orbit_report(frob_order, CTX) == gp.test_general_position(orbit)
    assert sorted(frob_order) != frob_order
    with pytest.raises(ValueError, match="Frobenius order"):
        orbit_report(sorted(frob_order), CTX)
    with pytest.raises(ValueError, match="Frobenius order"):
        orbit_report(frob_order[:7], CTX)


def test_orbit_report_refuses_repeated_points():
    # a degree-4 point listed twice, and a rational point listed 8 times,
    # are in Frobenius order but are not 8 distinct points
    x = next(e for e in range(2, 256) if CTX.order(e) == 15)
    half = frobenius_orbit(CTX, (x, 1, 0))
    assert len(half) == 4
    with pytest.raises(Collision):
        orbit_report(half * 2, CTX)
    with pytest.raises(Collision):
        orbit_report([(1, 0, 0)] * 8, CTX)


@pytest.mark.slow
def test_orbit_report_matches_all_tuples_q7():
    """The rotation-class test against the all-tuples test over F_{7^8},
    the field on the array-table path: the pinned parameter that fails at
    every lambda, 30 seeded parameter orbits, and seeded orbits of degree
    8 on the line z = 0 and on the conic x z = y^2."""
    ctx = get_ctx(7, 8)
    a = q7_seed_bad_at_every_lambda(ctx)
    params = [(ctx.mul(lam, a), 1 + lam % 6) for lam in range(1, 7)]
    rnd = random.Random(77)
    seeds = []
    while len(seeds) < 32:
        e = rnd.randrange(1, ctx.size)
        if not ctx.in_subfield(e, 4):
            seeds.append(e)
    params += [(e, rnd.randrange(1, 7)) for e in seeds[:30]]
    orbits = [gp._param_points(NodalCubicNF(7, c0), FieldElement(ctx, e)) for e, c0 in params]
    orbits += [frobenius_orbit(ctx, (seeds[30], 1, 0))]
    orbits += [frobenius_orbit(ctx, (ctx.mul(t, t), t, 1)) for t in seeds[30:]]
    reports = [orbit_report(orbit, ctx) for orbit in orbits]
    assert [tier(report) for report in reports[:6]] == ["conic"] * 6
    assert tier(reports[36]) == "line"
    assert [len(report.failed_conics) for report in reports[37:]] == [28, 28]
    for orbit, report in zip(orbits, reports):
        assert general_position_report(orbit, ctx) == report


@pytest.mark.slow
def test_orbit_report_matches_all_tuples_q2():
    """The rotation-class test against the all-tuples test on every
    degree-8 orbit at q = 2: it finds the golden number of GP orbits,
    and on each of the others the same failure lists.  On a seeded
    sample, a GaloisOrbit8 built from the sorted points holds the same
    projective points, normalized, in Frobenius order, and gets the
    all-tuples report on them."""
    orbits = q2_frobenius_orbits()
    assert len(orbits) == Q2_TOTAL_ORBITS
    reports = [orbit_report(orbit, CTX) for orbit in orbits]
    assert collections.Counter(map(tier, reports)) == {
        "ok": Q2_GENERAL_POSITION, "conic": 1092, "line": 714}
    failing = [k for k, report in enumerate(reports) if not report.ok]
    for k in failing:
        assert general_position_report(orbits[k], CTX) == reports[k]
    rnd = random.Random(35)
    passing = [k for k, report in enumerate(reports) if report.ok]
    for k in rnd.sample(failing, 40) + rnd.sample(passing, 10):
        orbit = GaloisOrbit8(CTX, sorted(orbits[k]))
        assert orbit == GaloisOrbit8(CTX, orbits[k])
        assert orbit.points == tuple(frobenius_orbit(CTX, min(orbit.points)))
        assert set(orbit.proj_points()) == {ProjPoint(CTX, p) for p in orbits[k]}
        report = gp.test_general_position(orbit)
        assert report == general_position_report(orbit.points, CTX)
        assert tier(report) == tier(reports[k])


@pytest.mark.slow
def test_orbit_report_matches_all_tuples_q3():
    """The same on the exact q = 3 census: the 76 non-GP components of
    degree 8 and a seeded sample of the 900 GP ones, in Frobenius order
    from the census point and from the least point."""
    ctx = get_ctx(3, 8)
    orbits = [frobenius_orbit(ctx, point) for point, _ in bertini_census._subspace_components(3)]
    orbits = [orbit for orbit in orbits if len(orbit) == 8]
    reports = [orbit_report(orbit, ctx) for orbit in orbits]
    assert collections.Counter(map(tier, reports)) == {"ok": 900, "conic": 61, "line": 15}
    rnd = random.Random(36)
    failing = [k for k, report in enumerate(reports) if not report.ok]
    passing = rnd.sample([k for k, report in enumerate(reports) if report.ok], 20)
    for k in failing + passing:
        assert general_position_report(orbits[k], ctx) == reports[k]
        orbit = GaloisOrbit8(ctx, orbits[k])
        assert gp.test_general_position(orbit) == general_position_report(orbit.points, ctx)


@pytest.mark.slow
@pytest.mark.parametrize("q", [2, 3])
def test_no_cubic_is_singular_on_an_orbit_that_passes(q):
    """The lemma that lets `orbit_report` drop the cubic tier (module
    docstring of general_position), against `singular_cubic_through`: on
    every degree-8 orbit at q = 2 and every degree-8 component of the
    q = 3 census that passes lines and conics, no cubic through the 8
    points is singular at points[0].  Checking points[0] is enough, by
    Frobenius symmetry: F maps the orbit to itself, so if a cubic through
    it is singular at points[k], the cubic with F^(8 - k) applied to its
    coefficients also passes through the orbit and is singular at
    F^(8 - k)(points[k]) = points[0]."""
    ctx = get_ctx(q, 8)
    if q == 2:
        orbits = q2_frobenius_orbits()
    else:
        components = bertini_census._subspace_components(3)
        orbits = [frobenius_orbit(ctx, point) for point, _ in components]
        orbits = [orbit for orbit in orbits if len(orbit) == 8]
    passing = [orbit for orbit in orbits if orbit_report(orbit, ctx).ok]
    expected = {2: (Q2_TOTAL_ORBITS, Q2_GENERAL_POSITION), 3: (976, 900)}[q]
    assert (len(orbits), len(passing)) == expected
    assert not any(singular_cubic_through(orbit, 0, ctx) for orbit in passing)


@pytest.mark.parametrize("q", [2, 3, 7, 13])
def test_dual_basis_under_the_trace_form(q):
    # Tr(x*_a x^b) = [a = b], with x^b of encoding q^b; q = 13 has no tables
    ctx = get_ctx(q, 8)

    def trace(y):
        acc = 0
        for k in range(8):
            acc = ctx.add(acc, ctx.frobenius_iter(y, k))
        return acc

    dual = gp._dual_basis(ctx)
    assert [[trace(ctx.mul(d, q**b)) for b in range(8)] for d in dual] == [
        [int(a == b) for b in range(8)] for a in range(8)]


@pytest.mark.parametrize("q", [2, 3, 7, 13])
def test_prime_kernel_matches_nullspace_on_digits(q):
    """`_prime_kernel` eliminates on the field elements themselves; the
    oracle is `nullspace` over F_p on the grid of their base-p digits.
    Both give the reduced echelon basis, so the bases agree exactly: on
    seeded lists of 1 to 9 values, and on rank-deficient ones (zeros,
    repeats, F_p-multiples, sums, values in F_{q^4}).  The empty list
    leaves the whole of F_p^8, the unit vectors, where `nullspace` raises
    on an empty grid, which has no columns.  F_{13^8} has no tables."""
    ctx, fp = get_ctx(q, 8), get_ctx(q, 1)
    rnd = random.Random(50 + q)

    def draw(k):
        return [rnd.randrange(ctx.size) for _ in range(k)]

    quartic = [ctx.pow(y, q**4 + 1) for y in draw(6)]  # norms to F_{q^4}
    assert all(ctx.in_subfield(w, 4) for w in quartic)
    cases = [draw(k) for k in range(1, 10) for _ in range(2)]
    for _ in range(3):
        a, b, c = draw(3)
        lam = rnd.randrange(1, q)
        cases += [
            [0, 0, 0],
            [0, a, 0, b],
            [a, a, b, a],
            [a, ctx.mul(lam, a), b, c],
            [a, b, ctx.add(a, b), ctx.add(a, ctx.mul(lam, b)), c],
            quartic[:3] + [a],
            quartic,
            [1, lam, a],
        ]
    for values in cases:
        expected = nullspace([ctx.coeffs(w) for w in values], fp)
        assert gp._prime_kernel(values, ctx) == expected, values
    assert gp._prime_kernel([], ctx) == [[int(a == b) for b in range(8)] for a in range(8)]
    assert len(gp._prime_kernel(quartic, ctx)) >= 4


CONIC_REPRESENTATIVES = [members[0] for members in gp._CONIC_CLASSES]


def predicates_against_oracles(orbit, ctx, sextuples=CONIC_REPRESENTATIVES):
    """The conic predicate of `orbit_report` on the sextuples against
    ranks of the Veronese systems over the field, whatever tier the orbit
    fails; returns the number of sextuples on a conic."""
    rows = [veronese_row(c, 2, ctx) for c in orbit]
    on_conic = gp._on_conic(rows[0], ctx)
    hits = 0
    for t in sextuples:
        expected = rank([rows[i] for i in t], ctx) < 6
        assert on_conic(t) == expected, (orbit, t)
        hits += expected
    return hits


@pytest.mark.slow
def test_descended_predicates_match_oracles_q2():
    """The conic predicate decided over F_2, on every degree-8 orbit at
    q = 2, including the ones whose lines fail first; the positive
    branch, which `orbit_report` rarely reaches, is hit often."""
    hits = [predicates_against_oracles(orbit, CTX) for orbit in q2_frobenius_orbits()]
    assert len(hits) == Q2_TOTAL_ORBITS
    assert sum(1 for conics in hits if conics) == 1806


@pytest.mark.slow
def test_descended_predicates_match_oracles_q3_q7():
    """The same on every sextuple, over F_{3^8} (lists and Zech tables)
    and F_{7^8} (array tables): seeded orbits, the nodal orbits of the
    pinned q = 7 parameter at every lambda (conic failures, kernel of
    dimension 2), orbits on a conic (dimension 3, every sextuple) and on
    a line (every sextuple, on the line plus any other)."""
    every = list(itertools.combinations(range(8), 6))
    ctx = get_ctx(3, 8)
    rnd = random.Random(39)
    orbits = []
    while len(orbits) < 300:
        orbit = frobenius_orbit(ctx, (1, rnd.randrange(ctx.size), rnd.randrange(ctx.size)))
        if len(orbit) == 8:
            orbits.append(orbit)
    hits = [predicates_against_oracles(orbit, ctx, every) for orbit in orbits]
    assert sum(1 for conics in hits if conics) > 20
    ctx = get_ctx(7, 8)
    a = q7_seed_bad_at_every_lambda(ctx)
    orbits = [gp._param_points(NodalCubicNF(7, 1), FieldElement(ctx, ctx.mul(lam, a)))
              for lam in range(1, 7)]
    seeds = [e for e in (rnd.randrange(1, ctx.size) for _ in range(30))
             if not ctx.in_subfield(e, 4)]
    orbits += [gp._param_points(NodalCubicNF(7, 1 + e % 6), FieldElement(ctx, e)) for e in seeds[:20]]
    orbits += [frobenius_orbit(ctx, (ctx.mul(t, t), t, 1)) for t in seeds[20:22]]
    orbits += [frobenius_orbit(ctx, (seeds[22], 1, 0))]
    hits = [predicates_against_oracles(orbit, ctx, every) for orbit in orbits]
    assert hits[:6] == [4] * 6
    assert hits[-3:] == [28] * 3


@pytest.mark.slow
@pytest.mark.parametrize("q", [2, 3])
def test_conic_ratio_lemma(q):
    """The conic-ratio lemma (module docstring), against ranks of the
    Veronese systems over F_{q^8}, on every degree-8 orbit at q = 2 and
    every degree-8 component of the q = 3 census, whatever tier the orbit
    fails.  One representative per rotation class decides its class (the
    classes miss {i, i + d} for d = 1, 2, 3, 4).  The sextuples that miss
    {i, i + 1}, {i, i + 2} or {i, i + 3} lie on a conic only when all 28
    do, so 0, 4 or 28 sextuples are on a conic, never 12; the report of
    `orbit_report` lists them unless the lines fail first."""
    ctx = get_ctx(q, 8)
    if q == 2:
        orbits = q2_frobenius_orbits()
    else:
        components = bertini_census._subspace_components(3)
        orbits = [frobenius_orbit(ctx, point) for point, _ in components]
        orbits = [orbit for orbit in orbits if len(orbit) == 8]
    allowed = {
        (False, False, False, False): 0,
        (False, False, False, True): 4,
        (True, True, True, True): 28,
    }
    counts = collections.Counter()
    for orbit in orbits:
        rows = [veronese_row(c, 2, ctx) for c in orbit]
        classes = tuple(rank([rows[i] for i in t], ctx) < 6 for t in CONIC_REPRESENTATIVES)
        assert classes in allowed, (orbit, classes)
        counts[allowed[classes]] += 1
        assert len(orbit_report(orbit, ctx).failed_conics) in (0, allowed[classes])
    assert counts == {2: {0: 6384, 4: 336, 28: 1470}, 3: {0: 900, 4: 25, 28: 51}}[q]


@pytest.mark.parametrize("q", [2, 7])
def test_orbit_report_in_any_chart_and_scaling(q):
    """The line tier works in the chart of the first nonzero coordinate
    of points[0], so it must not depend on how the points are scaled nor
    on which chart that is.  Against the all-tuples test, each orbit as
    it comes and with points[k] scaled by F^k(s), s not in F_q (still in
    Frobenius order), all with one report: orbits on the rational lines
    x = 0 (chart y) and y = x + z (chart x), which fail every triple; at
    q = 2 a seeded sample of the orbits that fail lines, fail conics and
    pass; at q = 7 the pinned parameter, which fails conics at every
    lambda, and a seeded parameter."""
    ctx = get_ctx(q, 8)
    rnd = random.Random(60 + q)

    def off_fq():
        while True:
            s = rnd.randrange(q, ctx.size)
            if not ctx.in_subfield(s, 1):
                return s

    orbits = []
    while len(orbits) < 6:
        t = rnd.randrange(ctx.size)
        seed = (0, 1, t) if len(orbits) % 2 else (t, ctx.add(t, 1), 1)
        orbit = frobenius_orbit(ctx, seed)
        if len(orbit) == 8:
            orbits.append(orbit)
    if q == 2:
        by_tier = collections.defaultdict(list)
        for orbit in q2_frobenius_orbits():
            by_tier[tier(orbit_report(orbit, ctx))].append(orbit)
        orbits += [o for name in ("line", "conic", "ok") for o in rnd.sample(by_tier[name], 4)]
    else:
        a = q7_seed_bad_at_every_lambda(ctx)
        orbits += [gp._param_points(NodalCubicNF(7, 1), FieldElement(ctx, ctx.mul(lam, a)))
                   for lam in (1, 4)]
        orbits += [gp._param_points(NodalCubicNF(7, 3), FieldElement(ctx, off_fq()))]
    for k, orbit in enumerate(orbits):
        report = general_position_report(orbit, ctx)
        if k < 6:
            assert len(report.failed_lines) == 56
        for s in (1, off_fq(), off_fq()):
            image = frobenius_orbit(ctx, tuple(ctx.mul(s, c) for c in orbit[0]))
            assert image[1] == tuple(ctx.mul(ctx.frobenius(s), c) for c in orbit[1])
            assert orbit_report(image, ctx) == general_position_report(image, ctx) == report


def test_q13_parameter_fails_at_the_squares():
    """The q = 13 input of the lambda^6 = 1 check, over a field with no
    tables: the pinned parameter fails at the squares of F_13^*, each
    failure is explained by the produit lemma, and the descended conic
    predicate agrees with the rank oracle at every lambda."""
    ctx = get_ctx(13, 8)
    assert ctx._exp is None
    a = q13_seed_bad_at_squares(ctx)
    assert not ctx.in_subfield(a, 4) and ctx.mul(a, ctx.frobenius_iter(a, 4)) == 1
    nf = NodalCubicNF(13, 1)
    squares = sorted({lam * lam % 13 for lam in range(1, 13)})
    assert lambda_scan(nf, FieldElement(ctx, a)) == squares == [1, 3, 4, 9, 10, 12]
    for lam in range(1, 13):
        why = unexplained_lambda_failures(nf, FieldElement(ctx, a), lam)
        assert why == ([] if lam in squares else ["not bad: the points are in general position"])
        orbit = gp._param_points(nf, FieldElement(ctx, ctx.mul(lam, a)))
        assert predicates_against_oracles(orbit, ctx) == (1 if lam in squares else 0)


def test_nodal_orbits_q2_exhaustive_facts():
    """Exhaustive scan over all 30 nodal orbits at q = 2:

    * no collinear triple ever occurs (the Moebius-Kantor obstruction);
    * the singular-cubic tier never fires;
    * exactly 28 of 30 orbits are in general position, failures are
      conic-only;
    * on every failing orbit the four pair products under x -> x^(q^4)
      are equal, are cube roots of unity, and lie in F_q.
    """
    seeds = nodal_seeds_q2()
    assert len(seeds) == 30
    ok_count = 0
    for e in seeds:
        orbit = orbit_from_seed(NF, FieldElement(CTX, e))
        report = gp.test_general_position(orbit)
        assert not report.failed_lines
        # run the cubic systems directly even when conics already failed
        assert not any(
            singular_cubic_through(orbit.points, i, CTX) for i in range(8)
        )
        if report.ok:
            ok_count += 1
        else:
            assert report.failed_conics
            pis = pair_products(FieldElement(CTX, e))
            assert len(set(pis)) == 1
            pi = pis[0]
            assert CTX.pow(pi, 3) == 1
            assert CTX.in_subfield(pi, 1)
    assert ok_count == 28


def test_general_position_pgl_invariant_exhaustive():
    group = list(pgl3_elements(2))
    assert len(group) == 168
    seeds = nodal_seeds_q2()
    rnd = random.Random(31)
    sample = rnd.sample(seeds, 10)
    for e in sample:
        orbit = orbit_from_seed(NF, FieldElement(CTX, e))
        verdict = gp.test_general_position(orbit).ok
        for g in group:
            image = GaloisOrbit8(
                CTX, [apply(g, p).coords for p in orbit.proj_points()]
            )
            assert gp.test_general_position(image).ok == verdict


def test_orbit_from_seed_contract():
    x = next(e for e in range(2, 256) if CTX.order(e) == 17)
    orbit = orbit_from_seed(NF, FieldElement(CTX, x))
    assert len(orbit.points) == 8
    with pytest.raises(ShortOrbit):
        orbit_from_seed(NF, FieldElement(CTX, 1))
    # any element of F_16 is short
    f16 = next(e for e in range(2, 256) if CTX.in_subfield(e, 4))
    with pytest.raises(ShortOrbit):
        orbit_from_seed(NF, FieldElement(CTX, f16))


def test_param_commutes_with_frobenius():
    rnd = random.Random(32)
    for _ in range(100):
        e = rnd.randrange(1, 256)
        lhs = param_point(NF, FieldElement(CTX, CTX.frobenius(e)))
        rhs = param_point(NF, FieldElement(CTX, e)).frobenius()
        assert lhs == rhs


def test_lambda_scan_q2():
    seeds = nodal_seeds_q2()
    for e in seeds:
        bad = lambda_scan(NF, FieldElement(CTX, e))
        ok = gp.test_general_position(orbit_from_seed(NF, FieldElement(CTX, e))).ok
        assert bad == ([] if ok else [1])


def test_beta_twist_identity_and_coherence():
    rnd = random.Random(33)
    betas = [e for e in range(1, 256) if CTX.in_subfield(e, 4)]
    for _ in range(100):
        e = rnd.randrange(1, 256)
        if CTX.in_subfield(e, 4):
            continue
        a = FieldElement(CTX, e)
        assert beta_twist(a, FieldElement(CTX, 1)).e == e
        beta = FieldElement(CTX, rnd.choice(betas))
        b = beta_twist(a, beta)  # raises if coherence fails
        assert b.e == CTX.mul(beta.e, a.e)


def test_beta_twist_repairs_every_nonregular_orbit_q2():
    # Over F_2 the excluded twist set {x in F_16*: x^6 = 1, x^2 in F_2}
    # is just {1}; every other beta turns a failing nodal orbit into a
    # general-position one.
    bad_set = {
        e
        for e in range(1, 256)
        if CTX.in_subfield(e, 4)
        and CTX.pow(e, 6) == 1
        and CTX.in_subfield(CTX.pow(e, 2), 1)
    }
    assert bad_set == {1}
    betas = [e for e in range(1, 256) if CTX.in_subfield(e, 4) and e not in bad_set]
    assert len(betas) == 14
    failing = [
        e
        for e in nodal_seeds_q2()
        if not gp.test_general_position(orbit_from_seed(NF, FieldElement(CTX, e))).ok
    ]
    assert len(failing) == 2
    for e in failing:
        for beta in betas:
            twisted = beta_twist(FieldElement(CTX, e), FieldElement(CTX, beta))
            orbit = orbit_from_seed(NF, twisted)
            assert gp.test_general_position(orbit).ok


def test_short_orbit_on_collapsing_twist():
    # beta * a lands in F_16 only if a does; build the inverse situation
    x = next(e for e in range(2, 256) if not CTX.in_subfield(e, 4))
    beta_candidates = [e for e in range(2, 256) if CTX.in_subfield(e, 4)]
    for beta in beta_candidates:
        b = beta_twist(FieldElement(CTX, x), FieldElement(CTX, beta))
        assert not CTX.in_subfield(b.e, 4)


def test_orbit_serialization():
    # the points in Frobenius order from the least; equal point sets give
    # equal orbits, whatever order they come in
    orbit = orbit_from_seed(NF, FieldElement(CTX, 2))
    data = orbit.to_json()
    points = [tuple(p) for p in data]
    assert points == frobenius_orbit(CTX, min(points))
    again = GaloisOrbit8(CTX, points)
    shuffled = GaloisOrbit8(CTX, random.Random(37).sample(points, 8))
    assert again == shuffled == orbit and hash(again) == hash(shuffled) == hash(orbit)


def test_pair_products_need_full_orbit():
    with pytest.raises(ShortOrbit):
        pair_products(FieldElement(CTX, 1))


@pytest.mark.slow
def test_lambda_scan_q7_sample():
    # a pinned seed that fails at every lambda, then a 20-seed spot check
    # at q = 7 (the acceptance suite runs 100)
    ctx7 = get_ctx(7, 8)
    a = FieldElement(ctx7, q7_seed_bad_at_every_lambda(ctx7))
    for c0 in (1, 6):
        nf = NodalCubicNF(7, c0)
        assert lambda_scan(nf, a) == [1, 2, 3, 4, 5, 6]
        for lam in range(1, 7):
            assert unexplained_lambda_failures(nf, a, lam) == []
    rnd = random.Random(34)
    done = 0
    while done < 20:
        e = rnd.randrange(1, ctx7.size)
        if ctx7.in_subfield(e, 4):
            continue
        nf = NodalCubicNF(7, rnd.randrange(1, 7))
        for lam in lambda_scan(nf, FieldElement(ctx7, e)):
            assert unexplained_lambda_failures(nf, FieldElement(ctx7, e), lam) == []
        done += 1


@pytest.mark.parametrize("a, witness, bad", [(264619, 4, [2, 3]), (80835, 1, [1, 4])])
def test_lambda_scan_q5_bad_values_follow_a_six_conjugate_product(a, witness, bad):
    # the six points of lam * a at the conjugates i in {0, 1, 2, 4, 5, 6}
    # lie on a conic iff lam^6 times the product of those conjugates is 1
    # (the produit lemma).  For a = 264619 the product is 4, not 1, so the
    # bad lam are the roots of lam^6 = 4 in F_5, not of lam^6 = 1
    ctx = get_ctx(5, 8)
    conj = [v for (v,) in frobenius_orbit(ctx, (a,))]
    product = 1
    for i in (0, 1, 2, 4, 5, 6):
        product = ctx.mul(product, conj[i])
    assert product == witness
    for c0 in range(1, 5):
        assert lambda_scan(NodalCubicNF(5, c0), FieldElement(ctx, a)) == bad
    assert bad == [lam for lam in range(1, 5) if ctx.mul(ctx.pow(lam, 6), product) == 1]
    for lam in range(1, 5):
        why = unexplained_lambda_failures(NodalCubicNF(5, 1), FieldElement(ctx, a), lam)
        assert why == ([] if lam in bad else ["not bad: the points are in general position"])
