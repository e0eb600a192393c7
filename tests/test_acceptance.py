"""Acceptance suite: one test per criterion, at the stated tolerances.

Every check here is exact (integer or rational arithmetic); run with
`pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from cremona import general_position as gp
from cremona.amalgam_words import (
    FactorTable,
    TaggedWord,
    abelianize,
    bass_serre_ball,
    concat,
    normal_form,
    parse_word,
    signature,
)
from cremona.bertini_census import (
    mq_bound,
    mq_cross_check,
    pgl3_order,
    verify_orbit_lemma,
)
from cremona.field_tower import FieldElement, get_ctx
from cremona.general_position import (
    lambda_scan,
    orbit_from_seed,
    unexplained_lambda_failures,
)
from cremona.nodal_cubic import NodalCubicNF, count_nodal_members, param_point
from cremona.picard_lattice import (
    NotBig,
    blowup_lattice,
    chamber_of,
    chambers,
    explorer,
    negative_classes,
    run_ample_model,
    windows,
)
from cremona.picard_lattice import _ample_base
from cremona.plane_geometry import collinear, six_on_conic
from cremona.sarkisov_complex import (
    bertini_edge_square_count,
    build_local,
    elementary_relation,
)

from conftest import (
    Q2_CLASS_COUNT,
    Q2_GENERAL_POSITION,
    Q2_NODAL_CLASSES,
    Q2_TOTAL_ORBITS,
    q7_seed_bad_at_every_lambda,
)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_census_q2(census_q2):
    res = census_q2
    assert res.total_degree8_orbits == 8190 == Q2_TOTAL_ORBITS
    assert res.pgl3_class_count >= 2  # the paper's M_2
    assert res.pgl3_class_count == Q2_CLASS_COUNT  # frozen golden regression
    assert res.general_position_count == Q2_GENERAL_POSITION
    assert res.elapsed_ms <= 300_000  # five minutes, single worker suffices
    _report(
        1,
        f"q=2 census: 8190 orbits, {res.general_position_count} general, "
        f"{res.pgl3_class_count} PGL3(F_2)-classes >= M_2 = 2 "
        f"in {res.elapsed_ms / 1000:.1f}s",
    )


def test_criterion_2_orbit_lemma_exhaustive():
    t0 = time.monotonic()
    rep2 = verify_orbit_lemma(2)
    rep3 = verify_orbit_lemma(3)
    elapsed = time.monotonic() - t0
    assert rep2["checked"] == 240 and rep2["conjugations"] == 7
    assert rep2["violations"] == []
    assert rep3["checked"] == 2560  # phi(3^8 - 1) generators, reproduced
    assert rep3["violations"] == []
    assert elapsed <= 1.0
    _report(
        2,
        f"orbit lemma: 240x7 checks at q=2 and 2560 generators at q=3, "
        f"zero violations in {elapsed:.2f}s",
    )


@pytest.mark.parametrize("q", [2, 3])
def test_criterion_3_produit_equivalences(q):
    ctx = get_ctx(q, 8)
    nf = NodalCubicNF(q, 1)
    rnd = random.Random(100 + q)
    violations = 0
    for _ in range(5000):
        vals = rnd.sample(range(1, ctx.size), 3)
        pts = [param_point(nf, FieldElement(ctx, v)) for v in vals]
        prod = ctx.mul(ctx.mul(vals[0], vals[1]), vals[2])
        if collinear(*pts) != (prod == 1):
            violations += 1
    for _ in range(5000):
        vals = rnd.sample(range(1, ctx.size), 6)
        pts = [param_point(nf, FieldElement(ctx, v)) for v in vals]
        prod = 1
        for v in vals:
            prod = ctx.mul(prod, v)
        if six_on_conic(pts) != (prod == 1):
            violations += 1
    assert violations == 0
    _report(
        3,
        f"q={q}: collinearity and coconicity match the parameter product "
        f"on 10^4 random distinct tuples, zero violations (exact)",
    )


def test_criterion_4_mq_identity_all_primes():
    primes = [
        q
        for q in range(2, 102)
        if all(q % d for d in range(2, int(q ** 0.5) + 1))
    ]
    assert pgl3_order(2) == 168
    for q in primes:
        rep = mq_cross_check(q)
        if q == 2:
            assert rep["product"] == Fraction(9, 8)
            assert math.ceil(rep["product"]) == 2 == mq_bound(2)
        elif q == 3:
            assert rep["product"] == 12 == mq_bound(3)
        elif rep["divide_by_3"]:
            assert rep["product"] == rep["closed_form"]
        else:
            assert rep["product"] == 3 * rep["closed_form"]
            assert rep["product"] >= rep["closed_form"]
    _report(
        4,
        f"M_q product identity holds for all {len(primes)} primes <= 101 "
        f"(both 3 | q-1 branches), |PGL_3(F_2)| = 168",
    )


def test_criterion_5_example_38():
    Z = blowup_lattice([1, 1], nesting=[None, 0])
    assert Z.labels == ("L'", "E", "E'")
    assert tuple(-c for c in Z.K) == (3, 2, 4)  # -K = 3L' + 2E + 4E'
    H = Z.vector({"L'": 1, "E": 1, "E'": 2})  # H = L' + E + 2E'
    assert Z.selfint(H) == 1
    assert Z.k_squared() == 7
    neg = {Z.describe(v) for v in negative_classes(Z)}
    assert neg == {"L'", "E'", "E+E'"}
    chs = chambers(Z)
    assert len(chs) == 4
    rnd = random.Random(105)
    ex = explorer(Z)
    a0 = _ample_base(Z)
    nefs = [H] + list(ex.fibers)
    big = 0
    while big < 10_000:
        num, den = rnd.randrange(1, 40), rnd.randrange(1, 8)
        D = [Fraction(k) + Fraction(num, den) * a for k, a in zip(Z.K, a0)]
        for f in nefs:
            m = rnd.randrange(0, 4)
            D = [d + m * c for d, c in zip(D, f)]
        D = tuple(D)
        try:
            ran, _ = run_ample_model(Z, D)
        except NotBig:
            continue
        big += 1
        found = chamber_of(Z, chs, D)  # asserts exactly one chamber matches
        assert set(found.contracted) == set(ran.contracted)
    _report(
        5,
        "Example lattice (L', E, E'): -K = 3L'+2E+4E', H^2 = 1, K^2 = 7, "
        "negatives {L', E', E+E'}, 4 smooth chambers, 10^4 big classes "
        "each in exactly one chamber",
    )


def test_criterion_6_square_complex_counts():
    cx2 = build_local(blowup_lattice([1, 1]))
    assert len(cx2.squares) == 5
    cx3 = build_local(blowup_lattice([1, 1, 1]))
    lat = cx3.lattice
    p2 = next(
        v.name
        for v in cx3.vertices
        if v.rank == 1 and v.base == "pt"
        and {lat.describe(c) for c in v.contracted} == {"E1", "E2", "E3"}
    )
    assert len(cx3.squares_containing(p2)) == 3
    curve_tops = [v for v in cx3.vertices if v.rank == 3 and v.base == "P1"]
    assert curve_tops
    for v in curve_tops:
        assert len([s for s in cx3.squares if s[0] == v.name]) == 4
    b8 = bertini_edge_square_count(8)
    b1 = bertini_edge_square_count(1)
    assert b8 == 0 and b1 >= 1
    _report(
        6,
        f"two-point complex has 5 squares; three-point complex has 3 around "
        f"the plane vertex; curve-base disks have 4; degree-8 edge in "
        f"{b8} squares (degree-1 control: {b1})",
    )


def test_criterion_7_nodal_member_bound_exhaustive_q2():
    ctx = get_ctx(2, 8)
    nf = NodalCubicNF(2, 1)
    seen = set()
    tested = 0
    hist = {}
    for e in range(1, 256):
        if ctx.in_subfield(e, 4) or e in seen:
            continue
        cur = e
        while True:
            seen.add(cur)
            cur = ctx.frobenius(cur)
            if cur == e:
                break
        orbit = orbit_from_seed(nf, FieldElement(ctx, e))
        if not gp.test_general_position(orbit).ok:
            continue
        count = count_nodal_members(orbit, extension_cap=8)
        assert 1 <= count <= 12, (e, count)
        hist[count] = hist.get(count, 0) + 1
        tested += 1
    assert tested == 28
    # the member-by-member search this count replaced gives the same
    assert hist == {1: 6, 5: 4, 6: 4, 8: 8, 12: 6}
    _report(
        7,
        f"all {tested} general-position nodal orbits at q=2 have between 1 "
        f"and 12 nodal pencil members within extension cap 8, histogram "
        f"{dict(sorted(hist.items()))}",
    )


def test_criterion_8_amalgam_suite():
    table = FactorTable(("b1", "b2", "b3"), ("j", "g"))
    rnd = random.Random(108)

    def rand_word(k):
        letters = []
        for _ in range(k):
            if rnd.random() < 0.5:
                letters.append(("b", rnd.choice(table.bertini_ids)))
            else:
                letters.append(
                    ("e", ((rnd.choice(table.e_alphabet), rnd.choice([1, -1])),))
                )
        return TaggedWord(letters)

    for _ in range(1000):
        w = rand_word(rnd.randrange(0, 12))
        nf = normal_form(w)
        assert normal_form(nf) == nf
        pieces = [TaggedWord([l]) for l in w.letters]
        acc = TaggedWord()
        for piece in pieces:
            acc = concat(acc, piece)  # left-to-right incremental reduction
        assert acc == nf
    for _ in range(1000):
        u, v = rand_word(rnd.randrange(0, 9)), rand_word(rnd.randrange(0, 9))
        assert signature(concat(u, v)) == normal_form(
            TaggedWord(signature(u).letters + signature(v).letters)
        )
        assert abelianize(concat(u, v), table) == tuple(
            (a + b) % 2
            for a, b in zip(abelianize(u, table), abelianize(v, table))
        )
    for n in range(1, 101):
        w = parse_word(" ".join(["b1 e:j"] * n))
        assert len(w.letters) == 2 * n
    for nb in (1, 2, 3):
        sub = FactorTable(tuple(f"b{i+1}" for i in range(nb)), ("j",))
        verts, edges, dist = bass_serre_ball(sub, 4)
        assert len(edges) == len(verts) - 1  # connected and acyclic
        from collections import Counter

        deg = Counter()
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        for v in verts:
            if v[0] == "elt" and dist[v] < 4:
                assert deg[v] == nb + 1
    _report(
        8,
        "normal form idempotent/confluent on 10^3 words, signature is a "
        "homomorphism on 10^3 pairs, (b j)^n has length 2n up to n = 100, "
        "radius-4 balls are trees with plane-vertex degree |B|+1",
    )


def test_criterion_9_lambda_scan_q7():
    ctx = get_ctx(7, 8)
    rnd = random.Random(109)
    # a pinned seed that fails at every lambda, then a fixed 100-seed sample
    pinned = q7_seed_bad_at_every_lambda(ctx)
    seeds = [(pinned, c0) for c0 in range(1, 7)]
    while len(seeds) < 106:
        e = rnd.randrange(1, ctx.size)
        if not ctx.in_subfield(e, 4):
            seeds.append((e, rnd.randrange(1, 7)))
    total = 0
    exceptions = []
    for e, c0 in seeds:
        nf = NodalCubicNF(7, c0)
        bad = lambda_scan(nf, FieldElement(ctx, e))
        if e == pinned:
            assert bad == [1, 2, 3, 4, 5, 6]
        total += len(bad)
        for lam in bad:
            for why in unexplained_lambda_failures(nf, FieldElement(ctx, e), lam):
                exceptions.append((e, c0, lam, why))
    assert exceptions == []
    _report(
        9,
        f"q=7 lambda scan over a pinned seed (a = {pinned}, every c0) and a "
        f"fixed 100-seed sample: {total} bad lambda values, each explained "
        "by the produit lemma (lambda^3 or lambda^6 times a product of "
        "conjugates is 1)",
    )
