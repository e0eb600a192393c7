import itertools
import math
import random
from fractions import Fraction

import pytest

from cremona import bertini_census
from cremona import general_position as gp
from cremona.bertini_census import (
    canonical_class,
    mq_bound,
    mq_cross_check,
    pgl3_order,
    run_census,
    total_degree8_orbits,
    verify_orbit_lemma,
)
from cremona.field_tower import FieldElement, frobenius_orbit, get_ctx
from cremona.general_position import GaloisOrbit8, orbit_from_seed
from cremona.nodal_cubic import NodalCubicNF, param_point
from cremona.plane_geometry import ProjTransform, apply, apply_raw

from conftest import (
    BROKEN_SEARCH,
    Q2_CLASS_COUNT,
    Q2_GENERAL_POSITION,
    Q2_NODAL_CLASSES,
    Q2_TOTAL_ORBITS,
    broken_search,
    pgl3_elements,
)


def _point_count(q: int) -> int:
    """|P^2(F_{q^8})|, the size of the index space of `_point_at`."""
    return q ** 16 + q ** 8 + 1


def _point_at(q: int, index: int):
    """The normalized point of P^2(F_{q^8}) with the given index, in
    lexicographic order of coordinate triples: [0:0:1], [0:1:z], [1:y:z]."""
    size = q ** 8
    if index == 0:
        return (0, 0, 1)
    index -= 1
    if index < size:
        return (0, 1, index)
    index -= size
    return (1, index // size, index % size)


def enumerate_orbits(q: int):
    """The exhaustive point stream, the slow oracle of the subspace
    census: each degree-8 orbit of P^2(F_{q^8}) once, as a GaloisOrbit8,
    in the order of its minimal seed."""
    ctx = get_ctx(q, 8)
    for index in range(_point_count(q)):
        coords = _point_at(q, index)
        orbit = frobenius_orbit(ctx, coords)
        if len(orbit) == 8 and min(orbit) == coords:
            yield GaloisOrbit8(ctx, orbit)


def _cross(u, v, ctx):
    mul, sub = ctx.mul, ctx.sub
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def _dot(u, v, ctx):
    mul, add = ctx.mul, ctx.add
    return add(add(mul(u[0], v[0]), mul(u[1], v[1])), mul(u[2], v[2]))


def frame_records(points, ctx):
    """The frame-key oracle of the class key: one record per rotation i
    of the Frobenius-ordered points p_0, ..., p_7, the normalized images
    of p_{i+4}, ..., p_{i+7} under the map sending p_i, p_{i+1}, p_{i+2}
    to the coordinate points and p_{i+3} to [1:1:1].

    Elements of PGL_3(F_q) commute with Frobenius, so they carry the
    records of an orbit to those of its image.  Conversely, equal records
    of two orbits give a g in PGL_3(F_{q^8}) with g = g^F on a frame, so
    g is over F_q by Hilbert 90.  So the least record separates classes,
    and the number of rotations reaching it is the stabilizer order.

    The rows of the adjugate of [p_i p_{i+1} p_{i+2}] are the cross
    products p_{i+1} x p_{i+2}, p_{i+2} x p_i, p_i x p_{i+1}; scaling
    each row by the inverse of its product with p_{i+3} fixes [1:1:1].
    Raises ValueError when four consecutive points are not a frame.
    """
    records = []
    for i in range(8):
        p0, p1, p2, p3 = (points[(i + k) % 8] for k in range(4))
        rows = (_cross(p1, p2, ctx), _cross(p2, p0, ctx), _cross(p0, p1, ctx))
        scales = [_dot(r, p3, ctx) for r in rows]
        if _dot(rows[0], p0, ctx) == 0 or 0 in scales:
            raise ValueError(f"points {i}..{i + 3} of the orbit are not a frame")
        mat = tuple(
            tuple(ctx.mul(inv, x) for x in r)
            for r, inv in zip(rows, map(ctx.inv, scales))
        )
        records.append(
            tuple(apply_raw(mat, points[(i + k) % 8], ctx) for k in range(4, 8))
        )
    return records


def frame_key(orbit: GaloisOrbit8):
    """The least frame record of the orbit, whose points are in Frobenius
    order."""
    return min(frame_records(orbit.points, orbit.ctx))


def walk_component(q: int, start) -> set:
    """The walk oracle of `_component`: the states reached from `start`
    by the moves V -> V^q and V -> t^{-1} V, t in V up to F_q^*."""
    frob = get_ctx(q, 8).frobenius
    state, scalings = bertini_census._subspace_ops(q)
    seen = {start}
    todo = [start]
    while todo:
        u, v = todo.pop()
        for a, b in ((frob(u), frob(v)), *scalings(u, v)):
            s = state(a, b)
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def nodal_class_keys(q: int) -> set:
    """The nodal parameter sweep, the slow oracle of the nodal flag: the
    class keys of the GP orbits the nodal construction produces, over all
    normal forms and the least parameter of each Frobenius orbit of
    degree 8 (conjugate parameters give the same orbit)."""
    ctx = get_ctx(q, 8)
    keys = set()
    for c0 in range(1, q):
        nf = NodalCubicNF(q, c0)
        for e in range(1, ctx.size):
            params = frobenius_orbit(ctx, (e,))
            if len(params) == 8 and min(params) == params[0]:
                coords = param_point(nf, FieldElement(ctx, e)).coords
                points = frobenius_orbit(ctx, coords)
                if gp.general_position_report(points, ctx).ok:
                    keys.add(canonical_class(GaloisOrbit8(ctx, points)))
    return keys


@pytest.fixture(scope="module")
def census_q3():
    """The exact q = 3 census, shared by the tests of this module."""
    return run_census(3)


@pytest.fixture(scope="module")
def orbits_q2():
    """Every degree-8 orbit at q = 2, streamed once for this module."""
    return list(enumerate_orbits(2))


def test_pgl3_element_counts():
    g2 = list(pgl3_elements(2))
    assert len(g2) == 168 == pgl3_order(2)
    assert len(set(g2)) == 168
    assert ProjTransform.identity(2) in g2
    assert sum(1 for _ in pgl3_elements(3)) == 5616 == pgl3_order(3)


def test_identity_normalization_idempotent():
    ident = ProjTransform.identity(3)
    assert ProjTransform(3, ident.matrix).matrix == ident.matrix


def test_total_orbit_formula():
    assert total_degree8_orbits(2) == (65793 - 273) // 8 == 8190
    assert total_degree8_orbits(3) == 5380830


def test_enumerate_orbits_q2_count_and_validity(orbits_q2):
    count = 0
    prev_seed = None
    for orbit in orbits_q2:
        count += 1
        if count <= 50 or count % 500 == 0:
            assert len(set(orbit.points)) == 8
            assert orbit.seed == min(orbit.points)
        if prev_seed is not None and count <= 50:
            assert orbit.seed > prev_seed
        prev_seed = orbit.seed
    assert count == 8190


def test_orbit_stream_prefix_q3():
    stream = enumerate_orbits(3)
    for _ in range(25):
        orbit = next(stream)
        assert len(set(orbit.points)) == 8
        frob = orbit.ctx.frobenius
        for p in orbit.points:
            assert tuple(frob(c) for c in p) in set(orbit.points)


def test_canonical_class_invariance_and_stability():
    ctx = get_ctx(2, 8)
    nf = NodalCubicNF(2, 1)
    orbit = orbit_from_seed(nf, FieldElement(ctx, 2))
    key = canonical_class(orbit)
    rnd = random.Random(41)
    group = list(pgl3_elements(2))
    for g in rnd.sample(group, 12):
        image = GaloisOrbit8(ctx, [apply(g, p).coords for p in orbit.proj_points()])
        assert canonical_class(image) == key
    assert canonical_class(orbit) == key  # stable across calls
    # distinct classes separate
    other = orbit_from_seed(nf, FieldElement(ctx, 3))
    assert canonical_class(other) != key


def test_frame_key_matches_group_sweep_q2(orbits_q2, census_q2):
    # exhaustive cross-check against the 168-element sweep: the sweep
    # cuts the orbits into PGL_3(F_2)-blocks, each orbit visited once.
    # Off the rational lines every member of a block has the block's
    # class key and no two blocks share one; on a GP block the frame-key
    # oracle does the same.  So both keys induce the sweep's partition,
    # and the census gives one representative per GP block.  GP is
    # PGL_3-invariant (see test_general_position), so one member per
    # block is tested.
    ctx = get_ctx(2, 8)
    mats = [g.matrix for g in pgl3_elements(2)]
    seen = set()
    blocks: dict = {}
    gp_keys, frame_keys = set(), set()
    on_lines = 0
    for orbit in orbits_q2:
        if tuple(sorted(orbit.points)) in seen:
            continue
        block = {tuple(sorted(apply_raw(m, p, ctx) for p in orbit.points)) for m in mats}
        seen |= block
        try:
            key = canonical_class(orbit)
        except ValueError:  # an orbit on a rational line
            on_lines += len(block)
            continue
        assert key not in blocks
        assert {canonical_class(GaloisOrbit8(ctx, member)) for member in block} == {key}
        blocks[key] = block
        if not gp.general_position_report(orbit.points, ctx).ok:
            continue
        frames = {frame_key(GaloisOrbit8(ctx, member)) for member in block}
        assert len(frames) == 1 and frames.isdisjoint(frame_keys)
        frame_keys |= frames
        gp_keys.add(key)
        # trivial stabilizer: one rotation reaches the least record, and
        # the component has all 8 * 7 states
        records = frame_records(orbit.points, ctx)
        assert records.count(min(records)) == 1
        assert len(set(bertini_census._component(2, *key))) == 56
    assert len(seen) == Q2_TOTAL_ORBITS
    assert on_lines == 7 * (2 ** 8 - 2 ** 4) // 8 == 210
    assert len(blocks) == 52  # the components of degree 8
    assert sum(len(blocks[key]) for key in gp_keys) == Q2_GENERAL_POSITION
    assert len(gp_keys) == len(frame_keys) == Q2_CLASS_COUNT
    reps = {canonical_class(GaloisOrbit8(ctx, rep)): rep for rep in census_q2.class_reps}
    assert list(reps) == sorted(gp_keys)  # one representative per class, in key order
    for key, rep in reps.items():
        assert rep in blocks[key]
        assert rep == tuple(sorted(frobenius_orbit(ctx, (1, *key))))


def test_frame_key_invariance_q3():
    ctx = get_ctx(3, 8)
    rnd = random.Random(17)
    orbits = []  # seeded GP orbits, each in Frobenius order
    while len(orbits) < 4:
        seed = _point_at(3, rnd.randrange(_point_count(3)))
        frob_order = frobenius_orbit(ctx, seed)
        if len(frob_order) == 8 and gp.general_position_report(frob_order, ctx).ok:
            orbits.append(frob_order)
    group = list(pgl3_elements(3))
    for frob_order in orbits:
        orbit = GaloisOrbit8(ctx, frob_order)
        key, frame = canonical_class(orbit), frame_key(orbit)
        assert len(key) == 2 and len(frame) == 4
        for g in rnd.sample(group, 6):
            moved = GaloisOrbit8(ctx, [apply_raw(g.matrix, p, ctx) for p in frob_order])
            assert canonical_class(moved) == key
            assert frame_key(moved) == frame
        # Frobenius order from any starting point, and sorted order
        for start in range(8):
            rotated = frob_order[start:] + frob_order[:start]
            assert min(frame_records(rotated, ctx)) == frame
            assert canonical_class(GaloisOrbit8(ctx, rotated)) == key
        assert canonical_class(GaloisOrbit8(ctx, sorted(frob_order))) == key
        # rescale p_k by F^k(lam): still Frobenius-closed, same points
        lam = rnd.randrange(2, ctx.size)
        scaled = []
        for p in frob_order:
            scaled.append(tuple(ctx.mul(lam, c) for c in p))
            lam = ctx.frobenius(lam)
        assert scaled != frob_order
        assert canonical_class(GaloisOrbit8(ctx, scaled)) == key
    # keys of orbits in distinct classes differ
    keys = {canonical_class(GaloisOrbit8(ctx, o)) for o in orbits}
    assert len(keys) == len(orbits)


def test_frame_key_refuses_non_frame():
    # the class key and the frame-key oracle both refuse an orbit on a
    # rational line; two orbits of size 4 are no GaloisOrbit8 to key
    ctx = get_ctx(2, 8)
    a = next(e for e in range(2, ctx.size) if not ctx.in_subfield(e, 4))
    on_a_line = GaloisOrbit8(ctx, frobenius_orbit(ctx, (1, a, 0)))
    b = next(e for e in range(2, ctx.size) if ctx.in_subfield(e, 4) and not ctx.in_subfield(e, 2))
    conjugates = [b]
    for _ in range(3):
        conjugates.append(ctx.frobenius(conjugates[-1]))
    with pytest.raises(gp.ShortOrbit):
        GaloisOrbit8(ctx, [(1, c, 0) for c in conjugates] + [(1, 0, c) for c in conjugates])
    for key in (canonical_class, frame_key):
        with pytest.raises(ValueError):
            key(on_a_line)
    with pytest.raises(ValueError, match="rational line"):
        canonical_class(GaloisOrbit8(ctx, frobenius_orbit(ctx, (0, 1, a))))


@pytest.mark.parametrize("q", [2, pytest.param(3, marks=pytest.mark.slow)])
def test_component_matches_the_walk(q):
    # each component lists 8(q^2+q+1) states, and its distinct states are
    # those the walk reaches; the components come in the walk's order
    seen = set()
    walked = []
    for start in bertini_census._subspace_states(q):
        if start not in seen:
            states = walk_component(q, start)
            seen |= states
            component = bertini_census._component(q, *start)
            assert len(component) == 8 * (q * q + q + 1)
            assert set(component) == states
            walked.append(((1, *start), len(states)))
    assert bertini_census._subspace_components(q) == walked


def test_mq_bound_values():
    assert mq_bound(2) == 2
    assert mq_bound(3) == 12
    assert mq_bound(4) == Fraction(4095, 640)
    assert mq_bound(5) == Fraction(5 ** 6 - 1, 640)


def test_mq_cross_check_q2_q3():
    r2 = mq_cross_check(2)
    assert r2["N1"] == 21 and r2["N2"] == 4 and r2["N3"] == 27
    assert r2["pgl3_order"] == 168
    assert r2["product"] == Fraction(9, 8)
    assert math.ceil(r2["product"]) == 2
    r3 = mq_cross_check(3)
    assert r3["product"] == 12


@pytest.mark.parametrize("q", [7, 13, 31, 43, 61, 73, 97])
def test_mq_identity_divisible_branch(q):
    rep = mq_cross_check(q)
    assert rep["divide_by_3"]
    assert rep["product"] == rep["closed_form"] == Fraction(q ** 6 - 1, 640)


@pytest.mark.parametrize("q", [5, 11, 17, 23, 29, 41, 53, 59, 71, 83, 89, 101])
def test_mq_identity_nondivisible_branch(q):
    rep = mq_cross_check(q)
    assert not rep["divide_by_3"]
    assert rep["product"] == 3 * rep["closed_form"]
    assert rep["product"] >= rep["bound"]


def test_orbit_lemma_q2_exhaustive():
    report = verify_orbit_lemma(2)
    assert report["checked"] == 240
    assert report["violations"] == []
    assert all((2 ** j - 1) % 17 != 0 for j in range(1, 8))


def test_orbit_lemma_q3_generators():
    report = verify_orbit_lemma(3)
    assert report["checked"] == 2560
    assert report["violations"] == []


def test_census_q2_golden(census_q2):
    res = census_q2
    assert res.total_degree8_orbits == Q2_TOTAL_ORBITS
    assert res.general_position_count == Q2_GENERAL_POSITION
    assert res.pgl3_class_count == Q2_CLASS_COUNT
    assert res.bound_satisfied and res.pgl3_class_count >= 2
    assert res.nodal_class_count == Q2_NODAL_CLASSES
    assert res.non_nodal_class_count == Q2_CLASS_COUNT - Q2_NODAL_CLASSES
    # every class has the full group as its orbit: trivial stabilizers
    assert Q2_GENERAL_POSITION == Q2_CLASS_COUNT * 168
    assert len(res.class_reps) == Q2_CLASS_COUNT


def _subspace_count(q):
    """[7 choose 2]_q, the number of 3-subspaces of F_{q^8} containing 1."""
    return (q ** 7 - 1) * (q ** 6 - 1) // ((q ** 2 - 1) * (q - 1))


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_states_list_each_subspace_once(q):
    states = list(bertini_census._subspace_states(q))
    assert len(set(states)) == len(states) == _subspace_count(q)
    assert _subspace_count(2) == 2667 and _subspace_count(3) == 99463
    assert all(u > v > 0 and u % q == v % q == 0 for u, v in states)


def test_subspace_components_q2():
    ctx = get_ctx(2, 8)
    comps = bertini_census._subspace_components(2)
    assert sum(size for _, size in comps) == 2667
    degrees = [len(frobenius_orbit(ctx, point)) for point, _ in comps]
    assert sorted(degrees) == [4] + [8] * 52
    stabs = [56 // size for (_, size), d in zip(comps, degrees) if d == 8]
    assert sorted(stabs) == [1] * 44 + [2] * 6 + [4] * 2  # 38 GP classes, all free


@pytest.mark.parametrize("how", sorted(BROKEN_SEARCH))
def test_census_checks_catch_a_broken_search(monkeypatch, how):
    comps = broken_search(how)
    monkeypatch.setattr(bertini_census, "_subspace_components", lambda q: comps)
    with pytest.raises(AssertionError, match=BROKEN_SEARCH[how]):
        run_census(2)


def test_census_on_a_pool_matches_one_worker(census_q2):
    res = run_census(2, threads=2)
    assert res.threads == 2
    for name in ("general_position_count", "pgl3_class_count",
                 "nodal_class_count", "non_nodal_class_count", "class_reps"):
        assert getattr(res, name) == getattr(census_q2, name)


@pytest.mark.slow
def test_exact_census_q3(census_q3):
    res = census_q3
    assert res.total_degree8_orbits == 5380830
    assert res.pgl3_class_count == 900
    assert res.general_position_count == 5_054_400 == 900 * pgl3_order(3)
    assert res.bound_satisfied
    ctx = get_ctx(3, 8)
    spot = res.class_reps[::150]
    assert all(gp.general_position_report(rep, ctx).ok for rep in spot)
    keys = [canonical_class(GaloisOrbit8(ctx, rep)) for rep in spot]
    assert keys == sorted(set(keys))  # distinct classes, in key order
    assert (res.nodal_class_count, res.non_nodal_class_count) == (351, 549)
    # seeded GP orbits of the nodal construction are flagged nodal
    rnd = random.Random(23)
    flagged = 0
    while flagged < 6:
        e = rnd.randrange(1, ctx.size)
        if ctx.in_subfield(e, 4):
            continue
        nf = NodalCubicNF(3, rnd.randrange(1, 3))
        hit = bertini_census._class_of((3, param_point(nf, FieldElement(ctx, e)).coords, None))
        if hit:
            assert hit[2], f"parameter {e}, c0 = {nf.c0}"
            flagged += 1


@pytest.mark.slow
def test_frame_key_oracle_separates_q3_classes(census_q3):
    # the 900 GP classes have distinct frame keys, and the number of
    # frame rotations reaching each is 104 over the size of its component
    ctx = get_ctx(3, 8)
    frames = set()
    for rep in census_q3.class_reps:
        records = frame_records(frobenius_orbit(ctx, rep[0]), ctx)
        frames.add(min(records))
        key = canonical_class(GaloisOrbit8(ctx, rep))
        size = len(set(bertini_census._component(3, *key)))
        assert records.count(min(records)) * size == 104
    assert len(frames) == 900


def test_nodal_flag_matches_the_nodal_sweep_q2(census_q2):
    ctx = get_ctx(2, 8)
    sweep = nodal_class_keys(2)
    assert len(sweep) == Q2_NODAL_CLASSES
    flags = {}
    for rep in census_q2.class_reps:
        key, _, nodal = bertini_census._class_of((2, rep[0], None))
        flags[key] = nodal
        # another point of the orbit gives the same flag: the nodal
        # states are Frobenius-stable
        assert bertini_census._class_of((2, rep[-1], None))[2] == nodal
    assert {key for key, nodal in flags.items() if nodal} == sweep
    sampled = run_census(2, mode="sampled", sample_size=60, rng_seed=5)
    keys = {canonical_class(GaloisOrbit8(ctx, rep)) for rep in sampled.class_reps}
    assert sampled.nodal_class_count == len(keys & sweep) > 0
    assert sampled.non_nodal_class_count == len(keys - sweep) > 0


@pytest.mark.parametrize("q, count", [(2, 240), (3, 6312)])
def test_nodal_states_are_frobenius_stable_subspaces(q, count):
    ctx = get_ctx(q, 8)
    state, _ = bertini_census._subspace_ops(q)
    nodal = bertini_census._nodal_states(q)
    assert len(nodal) == count  # one per parameter of degree 8, some shared
    assert nodal <= {u * ctx.size + v for u, v in bertini_census._subspace_states(q)}
    images = (state(ctx.frobenius(u), ctx.frobenius(v))
              for u, v in (divmod(s, ctx.size) for s in nodal))
    assert {u * ctx.size + v for u, v in images} == nodal


def test_nodal_states_built_once_per_q():
    bertini_census._nodal_states.cache_clear()
    run_census(2, mode="sampled", sample_size=3, rng_seed=1)
    run_census(2, mode="sampled", sample_size=3, rng_seed=2)
    info = bertini_census._nodal_states.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
    assert isinstance(bertini_census._nodal_states(2), frozenset)


def test_sampled_census_deterministic_and_monotone(census_q2):
    r1 = run_census(2, mode="sampled", sample_size=60, rng_seed=5)
    r2 = run_census(2, mode="sampled", sample_size=60, rng_seed=5)
    assert r1.pgl3_class_count == r2.pgl3_class_count
    assert r1.class_reps == r2.class_reps
    assert r1.pgl3_class_count <= census_q2.pgl3_class_count
    assert r1.general_position_count <= r1.sample_size
    # a class has one representative, whichever orbit of it was drawn
    assert set(r1.class_reps) <= set(census_q2.class_reps)


def test_sampled_census_distinct_keys_are_certified():
    res = run_census(2, mode="sampled", sample_size=40, rng_seed=9)
    assert res.pgl3_class_count <= res.general_position_count
    assert res.mode == "sampled"


def test_every_class_key_partitions_verdict(census_q2):
    # spot check: representatives of distinct classes are inequivalent
    ctx = get_ctx(2, 8)
    reps = [tuple(tuple(p) for p in rep) for rep in census_q2.class_reps[:6]]
    keys = {canonical_class(GaloisOrbit8(ctx, rep)) for rep in reps}
    assert len(keys) == len(reps)
    for rep in reps:
        assert gp.general_position_report(list(rep), ctx).ok


def test_census_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_census(5)
    with pytest.raises(ValueError):
        run_census(2, mode="other")
    with pytest.raises(ValueError):
        run_census(2, mode="sampled", sample_size=0)
