import itertools
import random
from fractions import Fraction

import pytest

from cremona import picard_lattice
from cremona.picard_lattice import (
    BadNesting,
    Chamber,
    Lattice,
    NotBig,
    NotNested,
    OutsideScope,
    blowup_lattice,
    chamber_of,
    chambers,
    codim_of_shared_face,
    explorer,
    negative_classes,
    run_ample_model,
    windows,
)
from cremona.picard_lattice import _ample_base, _plane_classes, _project_away
from cremona.sarkisov_complex import build_local, elementary_relation, export


def adjoint_sample(lat, rnd):
    """A random adjoint class K + (ample): ample = positive multiple of
    the ample base plus a nonnegative combination of nef classes."""
    ex = explorer(lat)
    h = lat.from_orth((1,) + (0,) * (lat.rank - 1))
    a0 = _ample_base(lat)
    num, den = rnd.randrange(1, 40), rnd.randrange(1, 8)
    D = [Fraction(k) + Fraction(num, den) * a for k, a in zip(lat.K, a0)]
    for f in [h] + list(ex.fibers):
        m = rnd.randrange(0, 4)
        D = [d + m * c for d, c in zip(D, f)]
    return tuple(D)


def test_blowup_lattice_basics():
    L1 = blowup_lattice([1])
    assert L1.labels == ("H", "E1")
    assert L1.k_squared() == 8
    L8 = blowup_lattice([8])
    assert L8.k_squared() == 1
    assert L8.selfint(L8.basis_vector("E1")) == -8
    with pytest.raises(ValueError):
        blowup_lattice([0])


def test_gram_symmetric_and_K_consistent():
    for degrees in ([1], [1, 1], [1, 1, 1], [8], [2, 3]):
        lat = blowup_lattice(degrees)
        n = lat.rank
        for i in range(n):
            for j in range(n):
                assert lat.gram[i][j] == lat.gram[j][i]
        assert lat.k_squared() == 9 - sum(degrees)


def test_example_nested_pair_lattice():
    Z = blowup_lattice([1, 1], nesting=[None, 0])
    assert Z.labels == ("L'", "E", "E'")
    # -K = 3L' + 2E + 4E' by construction
    assert tuple(-c for c in Z.K) == (3, 2, 4)
    H = Z.vector({"L'": 1, "E": 1, "E'": 2})
    assert Z.selfint(H) == 1
    assert Z.dot(H, Z.K) == -3
    assert Z.k_squared() == 7
    # Gram entries forced by the strict-transform identities
    assert Z.selfint(Z.basis_vector("L'")) == -1
    assert Z.selfint(Z.basis_vector("E")) == -2
    assert Z.selfint(Z.basis_vector("E'")) == -1
    assert Z.dot(Z.basis_vector("E"), Z.basis_vector("E'")) == 1
    assert Z.dot(Z.basis_vector("L'"), Z.basis_vector("E'")) == 1
    assert Z.dot(Z.basis_vector("L'"), Z.basis_vector("E")) == 0


def test_bad_nesting_rejected():
    with pytest.raises(BadNesting):
        blowup_lattice([1, 1, 1], nesting=[None, 0, 1])
    with pytest.raises(BadNesting):
        blowup_lattice([2, 1], nesting=[None, 0])


def test_negative_classes_known_answers():
    L1 = blowup_lattice([1])
    assert [L1.describe(v) for v in negative_classes(L1)] == ["E1"]
    L2 = blowup_lattice([1, 1])
    assert {L2.describe(v) for v in negative_classes(L2)} == {
        "E1", "E2", "H-E1-E2",
    }
    Z = blowup_lattice([1, 1], nesting=[None, 0])
    assert {Z.describe(v) for v in negative_classes(Z)} == {"L'", "E'", "E+E'"}


def test_negative_classes_bl3_against_brute_force():
    L3 = blowup_lattice([1, 1, 1])
    found = set(negative_classes(L3))
    # independent oracle: the classical (-1)-classes on a generic cubic
    # surface fragment: exceptional classes and lines through two points
    expected = set()
    for i in range(3):
        vec = [0, 0, 0, 0]
        vec[i + 1] = 1
        expected.add(tuple(vec))
    for i, j in itertools.combinations(range(3), 2):
        vec = [1, 0, 0, 0]
        vec[i + 1] = vec[j + 1] = -1
        expected.add(tuple(vec))
    assert found == expected


def test_negative_classes_dp1_includes_bertini_partner():
    L8 = blowup_lattice([8])
    found = set(negative_classes(L8))
    assert found == {(0, 1), (48, -17)}
    partner = (48, -17)
    assert L8.selfint(partner) == -8
    assert L8.dot(L8.K, partner) == -8


def test_plane_class_counts_are_classical():
    # exceptional and conic classes on the plane blown up at n general
    # points (Manin, Cubic Forms; Dolgachev, Classical Algebraic Geometry)
    minus_one = [1, 3, 6, 10, 16, 27, 56, 240]
    conics = [1, 2, 3, 5, 10, 27, 126, 2160]
    for n in range(1, 9):
        assert len(_plane_classes((1,) * n, -1, -1)) == minus_one[n - 1]
        assert len(_plane_classes((1,) * n, 0, -2)) == conics[n - 1]


def orbit_degree_multisets(total):
    # nondecreasing tuples of positive ints with the given sum
    def parts(rest, low):
        if rest == 0:
            yield ()
        for d in range(low, rest + 1):
            for tail in parts(rest - d, d):
                yield (d,) + tail
    return list(parts(total, 1))


def test_plane_classes_of_orbits_are_the_frobenius_fixed_classes():
    # a class constant on each orbit, listed once per orbit, is a class
    # of the n points fixed by Frobenius, and the lists keep one order
    multisets = [m for n in range(1, 9) for m in orbit_degree_multisets(n)]
    assert len(multisets) == 66
    for square, k_dot in ((-1, -1), (0, -2)):
        points = {n: _plane_classes((1,) * n, square, k_dot) for n in range(1, 9)}
        for degrees in multisets:
            blocks = [sum(degrees[:i]) for i in range(len(degrees) + 1)]

            def fixed(c):
                return all(
                    len(set(c[1 + lo:1 + hi])) == 1
                    for lo, hi in zip(blocks, blocks[1:])
                )

            expected = [
                (c[0],) + tuple(c[1 + lo] for lo in blocks[:-1])
                for c in points[sum(degrees)]
                if fixed(c)
            ]
            assert _plane_classes(degrees, square, k_dot) == expected, degrees


def test_walls_of_one_orbit_by_hand():
    # [2]: the two points and the line through them; [3]: the three
    # points and the three lines through two of them (3H - 2E1); [4]: the
    # lines through two of four cycled points meet; [5]: the conic
    # through all five
    expected = {
        2: {"E1", "H-E1"},
        3: {"E1", "3H-2E1"},
        4: {"E1"},
        5: {"E1", "2H-E1"},
    }
    for d, walls in expected.items():
        lat = blowup_lattice([d])
        assert {lat.describe(v) for v in negative_classes(lat)} == walls


def test_nonpositive_k_squared_is_outside_scope():
    lat = blowup_lattice([8, 2])
    assert lat.k_squared() == -1
    with pytest.raises(OutsideScope):
        explorer(lat)
    with pytest.raises(ValueError):
        chambers(blowup_lattice([9]))


def test_chamber_counts():
    assert len(chambers(blowup_lattice([1]))) == 2
    assert len(chambers(blowup_lattice([1, 1]))) == 5
    Z = blowup_lattice([1, 1], nesting=[None, 0])
    chs = chambers(Z)
    assert len(chs) == 4
    assert {c.labels for c in chs} == {
        (), ("E'",), ("L'",), ("E'", "E+E'"),
    }


def test_chamber_count_bl2_against_brute_force():
    # oracle: subsets of the three negative classes that are iteratively
    # contractible, i.e. pairwise orthogonal sets
    L2 = blowup_lattice([1, 1])
    neg = negative_classes(L2)
    count = 0
    for r in range(len(neg) + 1):
        for sub in itertools.combinations(neg, r):
            if all(L2.dot(a, b) == 0 for a, b in itertools.combinations(sub, 2)):
                count += 1
    assert count == len(chambers(L2)) == 5


def test_chamber_certificates_self_consistent():
    for lat in (
        blowup_lattice([1]),
        blowup_lattice([1, 1]),
        blowup_lattice([1, 1], nesting=[None, 0]),
        blowup_lattice([1, 1, 1]),
    ):
        chs = chambers(lat)
        for ch in chs:
            found = chamber_of(lat, chs, ch.certificate)
            assert found.contracted == ch.contracted
            ran, push = run_ample_model(lat, ch.certificate)
            assert set(ran.contracted) == set(ch.contracted)


def test_run_ample_model_examples():
    L8 = blowup_lattice([8])
    minus_k = tuple(-c for c in L8.K)
    ch, push = run_ample_model(L8, minus_k)
    assert ch.contracted == () and push == minus_k
    # Example 3.8: a class negative only against E' contracts exactly E'
    Z = blowup_lattice([1, 1], nesting=[None, 0])
    chs = chambers(Z)
    cert = next(c.certificate for c in chs if c.labels == ("E'",))
    ch, push = run_ample_model(Z, cert)
    assert [Z.describe(v) for v in ch.contracted] == ["E'"]


def test_run_ample_model_not_big():
    L1 = blowup_lattice([1])
    # K + fiber class is on the fibration face, not big
    f = L1.vector({"H": 1, "E1": -1})
    with pytest.raises(NotBig):
        run_ample_model(L1, tuple(k + c for k, c in zip(L1.K, f)))


def test_partition_and_order_independence():
    rnd = random.Random(51)
    for lat in (
        blowup_lattice([1, 1]),
        blowup_lattice([1, 1], nesting=[None, 0]),
        blowup_lattice([1, 1, 1]),
    ):
        chs = chambers(lat)
        big = 0
        while big < 200:
            D = adjoint_sample(lat, rnd)
            try:
                ch_run, _ = run_ample_model(lat, D)
            except NotBig:
                continue
            big += 1
            ch_sign = chamber_of(lat, chs, D)
            assert set(ch_run.contracted) == set(ch_sign.contracted)
            ch_rand, _ = run_ample_model(lat, D, rng=rnd)
            assert set(ch_rand.contracted) == set(ch_run.contracted)


def test_projection_formula_random_pairs():
    rnd = random.Random(52)
    lat = blowup_lattice([1, 1, 1])
    neg = negative_classes(lat)
    for _ in range(100):
        s = rnd.choice(neg)
        d = -lat.selfint(s)
        u = tuple(rnd.randrange(-4, 5) for _ in range(lat.rank))
        v = tuple(rnd.randrange(-4, 5) for _ in range(lat.rank))

        def push(x):
            coef = Fraction(lat.dot(x, s), d)
            return tuple(Fraction(a) + coef * b for a, b in zip(x, s))

        pu, pv = push(u), push(v)
        # pushforward vectors are perpendicular to s and their pairing
        # matches u.v corrected by the excess along s
        dot_push = sum(
            pu[i] * lat.gram[i][j] * pv[j]
            for i in range(lat.rank)
            for j in range(lat.rank)
        )
        assert dot_push == lat.dot(u, v) + Fraction(
            lat.dot(u, s) * lat.dot(v, s), d
        )


def test_codim_of_shared_face():
    Z = blowup_lattice([1, 1], nesting=[None, 0])
    chs = {c.labels: c for c in chambers(Z)}
    ident = chs[()]
    assert codim_of_shared_face(ident, ident) == 0
    assert codim_of_shared_face(ident, chs[("E'",)]) == 1
    assert codim_of_shared_face(ident, chs[("E'", "E+E'")]) == 2
    assert codim_of_shared_face(chs[("E'",)], chs[("E'", "E+E'")]) == 1
    with pytest.raises(NotNested):
        codim_of_shared_face(chs[("E'",)], chs[("L'",)])


def test_windows_counts_and_kinds():
    w1 = windows(blowup_lattice([1]))
    assert len(w1) == 2
    assert {w.base for w in w1} == {"pt", "P1"}
    w2 = windows(blowup_lattice([1, 1]))
    assert len(w2) == 5
    assert sum(1 for w in w2 if w.base == "pt") == 1
    # the two rulings of the quadric appear as distinct windows
    quadric = [w for w in w2 if w.base == "P1" and len(w.contracted) == 1
               and w.labels == ("H-E1-E2",)]
    assert len(quadric) == 2
    L8 = blowup_lattice([8])
    w8 = windows(L8)
    assert len(w8) == 2
    ex = explorer(L8)
    for w in w8:
        assert w.base == "pt"
        assert ex.k_int_squared(frozenset(w.contracted)) == 9


def test_every_extension_of_dp1_has_nonpositive_k_squared():
    for d in range(1, 9):
        assert blowup_lattice([8, d]).k_squared() == 1 - d <= 0


def test_lattice_serialization():
    Z = blowup_lattice([1, 1], nesting=[None, 0])
    data = Z.to_json()
    assert data["labels"] == ["L'", "E", "E'"]
    assert data["K"] == [-3, -2, -4]
    ch = chambers(Z)[1]
    cj = ch.to_json()
    assert set(cj) == {"contracted", "certificate"}
    assert all(isinstance(s, str) for s in cj["certificate"])


# ----------------------------------------------------------------------
# the integer explorer against the Fraction arithmetic it replaced

CROSS_CHECK_LATTICES = {
    "Bl1": ([1], None),
    "Bl2": ([1, 1], None),
    "Bl3": ([1, 1, 1], None),
    "Bl4": ([1, 1, 1, 1], None),
    "nested": ([1, 1], [None, 0]),
    "[2]": ([2], None),
    "[1,2]": ([1, 2], None),
    "[1,1,2]": ([1, 1, 2], None),
    "[8]": ([8], None),
    "[1,7]": ([1, 7], None),
    "[2,6]": ([2, 6], None),
    "[4,4]": ([4, 4], None),
    "[1,1,6]": ([1, 1, 6], None),
}


def full_gram_dot(lat, u, v):
    n = lat.rank
    return sum(u[i] * lat.gram[i][j] * v[j] for i in range(n) for j in range(n))


def sequential_project_away(lat, v, state):
    # one Fraction pass per contracted class, each coefficient taken from
    # the partly projected vector
    out = [Fraction(c) for c in v]
    for s in state:
        coef = Fraction(lat.dot(out, s), lat.selfint(s))
        out = [p - coef * sc for p, sc in zip(out, s)]
    return tuple(out)


def fraction_kept(ex, state):
    return [
        g
        for g in ex.curves + ex.fibers
        if any(sequential_project_away(ex.lat, g, state))
    ]


def fraction_chambers(lat):
    # the certificates built from the Fraction projection, with the sign
    # checks on the Fraction certificate
    ex = explorer(lat)
    base = _ample_base(lat)
    walls = ex.wall_classes
    out = []
    for state in ex.states:
        proj = picard_lattice._project_away(lat, base, state)
        keep = [c for c in walls if c not in state]
        for c in keep:
            if lat.dot(proj, c) <= 0:
                raise AssertionError("wall in the span of the contracted set")
        t = Fraction(1)
        for c in keep:
            d = -lat.selfint(c)
            t = max(t, Fraction(d + 1) / lat.dot(proj, c))
        eps = Fraction(1)
        for s in state:
            d = -lat.selfint(s)
            eps = min(eps, Fraction(d, 2) / (t * lat.dot(base, s)))
        cert = tuple(
            Fraction(k) + t * (p + eps * b)
            for k, p, b in zip(lat.K, proj, base)
        )
        for s in state:
            if lat.dot(cert, s) >= 0:
                raise AssertionError("certificate not negative on contracted")
        for c in keep:
            if lat.dot(cert, c) <= 0:
                raise AssertionError("certificate not positive on kept wall")
        out.append(Chamber(lat, tuple(sorted(state)), cert))
    return sorted(out, key=lambda ch: (len(ch.contracted), ch.contracted))


def lattice_answers(lat):
    """Everything the explorer feeds: states, kept curves, the ample
    base, chambers with their certificates and ample models, windows,
    and the square complex with its elementary relations."""
    ex = explorer(lat)
    chs = picard_lattice.chambers(lat)
    cx = build_local(lat)
    return {
        "walls": (ex.wall_candidates, ex.fibers, ex.wall_classes),
        "states": ex.states,
        "kept": [ex._kept(s) for s in ex.states],
        "ample": _ample_base(lat),
        "chambers": [(c.contracted, c.certificate, c.to_json()) for c in chs],
        "ample models": [
            (run_ample_model(lat, c.certificate), chamber_of(lat, chs, c.certificate))
            for c in chs
        ],
        "windows": [w.to_json() for w in windows(lat)],
        "json": export(cx, "json"),
        "dot": export(cx, "dot"),
        "relations": [
            elementary_relation(cx, v.name) for v in cx.vertices if v.rank == 3
        ],
    }


@pytest.mark.parametrize("name", list(CROSS_CHECK_LATTICES))
def test_integer_explorer_matches_fraction_projection(name, monkeypatch):
    degrees, nesting = CROSS_CHECK_LATTICES[name]
    lat = blowup_lattice(degrees, nesting=nesting)
    fast = lattice_answers(lat)
    ex = explorer(lat)
    for state in ex.states:
        for g in ex.curves + ex.fibers + [_ample_base(lat)]:
            assert _project_away(lat, g, state) == sequential_project_away(lat, g, state)

    # the same answers with the old full-Gram dot, sequential projection,
    # Fraction collapse test and Fraction certificates, from an empty
    # explorer cache
    monkeypatch.setattr(picard_lattice, "_EXPLORER_CACHE", {})
    monkeypatch.setattr(Lattice, "dot", full_gram_dot)
    monkeypatch.setattr(picard_lattice, "_project_away", sequential_project_away)
    monkeypatch.setattr(picard_lattice.LatticeExplorer, "_kept", fraction_kept)
    monkeypatch.setattr(picard_lattice, "chambers", fraction_chambers)
    slow = lattice_answers(lat)
    assert fast.keys() == slow.keys()
    for key in fast:
        assert fast[key] == slow[key], key


def test_negative_classes_bl4_are_the_classical_ten():
    lat = blowup_lattice([1, 1, 1, 1])
    expected = {lat.vector({f"E{i}": 1}) for i in range(1, 5)}
    for i, j in itertools.combinations(range(1, 5), 2):
        expected.add(lat.vector({"H": 1, f"E{i}": -1, f"E{j}": -1}))
    assert len(expected) == 10
    assert set(negative_classes(lat)) == expected
