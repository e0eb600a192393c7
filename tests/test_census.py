import itertools
import math
import random
from fractions import Fraction

import pytest

from cremona import bertini_census
from cremona import general_position as gp
from cremona.bertini_census import (
    _frame_records,
    _point_at,
    _point_count,
    canonical_class,
    mq_bound,
    mq_cross_check,
    pgl3_elements,
    pgl3_order,
    run_census,
    total_degree8_orbits,
    verify_orbit_lemma,
)
from cremona.field_tower import frobenius_orbit, get_ctx
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
)


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
                coords = param_point(nf, ctx.element(e)).coords
                points = frobenius_orbit(ctx, coords)
                if gp.general_position_report(points, ctx).ok:
                    keys.add(canonical_class(GaloisOrbit8(ctx, points)))
    return keys


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
    orbit = orbit_from_seed(nf, ctx.element(2))
    key = canonical_class(orbit)
    rnd = random.Random(41)
    group = list(pgl3_elements(2))
    for g in rnd.sample(group, 12):
        image = GaloisOrbit8(ctx, [apply(g, p).coords for p in orbit.proj_points()])
        assert canonical_class(image) == key
    assert canonical_class(orbit) == key  # stable across calls
    # distinct classes separate
    other = orbit_from_seed(nf, ctx.element(3))
    assert canonical_class(other) != key


def test_frame_key_matches_group_sweep_q2(orbits_q2, census_q2):
    # exhaustive cross-check against the 168-element sweep: the sweep
    # cuts the orbits into PGL_3(F_2)-blocks, each orbit visited once;
    # every member of a GP block has the block's frame key and no two
    # blocks share one, so the frame key and the sweep induce the same
    # partition; and the subspace census finds the same classes as the
    # point stream.  GP is PGL_3-invariant (see test_general_position),
    # so one member per block is tested.
    ctx = get_ctx(2, 8)
    mats = [g.matrix for g in pgl3_elements(2)]
    seen = set()
    blocks: dict = {}
    for orbit in orbits_q2:
        if orbit.points in seen:
            continue
        block = {tuple(sorted(apply_raw(m, p, ctx) for p in orbit.points)) for m in mats}
        seen |= block
        if not gp.general_position_report(orbit.points, ctx).ok:
            continue
        key = canonical_class(orbit)
        assert key not in blocks
        assert {canonical_class(GaloisOrbit8(ctx, member)) for member in block} == {key}
        blocks[key] = block
        # trivial stabilizer: the minimum is reached by one rotation only
        records = _frame_records(frobenius_orbit(ctx, orbit.seed), ctx)
        assert records.count(key.serialized) == 1
    assert len(seen) == Q2_TOTAL_ORBITS
    assert sum(len(b) for b in blocks.values()) == Q2_GENERAL_POSITION
    assert len(blocks) == Q2_CLASS_COUNT
    reps = {canonical_class(GaloisOrbit8(ctx, rep)): rep for rep in census_q2.class_reps}
    assert list(reps) == sorted(blocks)  # one representative per class, in key order
    for key, rep in reps.items():
        assert rep in blocks[key]


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
        key = canonical_class(orbit)
        assert len(key.serialized) == 4
        for g in rnd.sample(group, 6):
            moved = [apply_raw(g.matrix, p, ctx) for p in frob_order]
            assert canonical_class(GaloisOrbit8(ctx, moved)) == key
        # Frobenius order from any starting point, and sorted order
        for start in range(8):
            rotated = frob_order[start:] + frob_order[:start]
            assert min(_frame_records(rotated, ctx)) == key.serialized
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
    ctx = get_ctx(2, 8)
    a = next(e for e in range(2, ctx.size) if not ctx.in_subfield(e, 4))
    on_a_line = frobenius_orbit(ctx, (1, a, 0))
    with pytest.raises(ValueError):
        canonical_class(GaloisOrbit8(ctx, on_a_line))
    # two Frobenius orbits of size 4 make a closed set of 8 points
    b = next(e for e in range(2, ctx.size) if ctx.in_subfield(e, 4) and not ctx.in_subfield(e, 2))
    conjugates = [b]
    for _ in range(3):
        conjugates.append(ctx.frobenius(conjugates[-1]))
    two_orbits = [(1, c, 0) for c in conjugates] + [(1, 0, c) for c in conjugates]
    with pytest.raises(ValueError):
        canonical_class(GaloisOrbit8(ctx, two_orbits))


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
def test_exact_census_q3():
    res = run_census(3)
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
        hit = bertini_census._class_of((3, param_point(nf, ctx.element(e)).coords, None))
        if hit:
            assert hit[2], f"parameter {e}, c0 = {nf.c0}"
            flagged += 1


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
    # no sample can exceed the 8190 orbits: refused before any draw
    with pytest.raises(ValueError, match="exceeds the 8190"):
        run_census(2, mode="sampled", sample_size=Q2_TOTAL_ORBITS + 1)
