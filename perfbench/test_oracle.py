"""Tests of the benchmark's oracle against facts known without it (field
axioms, small irreducibles, points on a line, a conic or a nodal cubic,
the classical (-1)-curves); none imports the cremona package.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import random

import pytest

import oracle


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (2, 8), (3, 2), (3, 8), (7, 2)])
def test_field_axioms(p, n):
    F = oracle.Field(p, oracle.smallest_irreducible(p, n))
    rng = random.Random(p * 100 + n)
    for _ in range(200):
        a, b, c = (rng.randrange(F.size) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.sub(F.add(a, b), b) == a
        assert F.mul(a, b) == F.plain_mul(a, b)
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.size) == a  # every element is a root of x^q - x


def test_plain_products_match_tables():
    F = oracle.Field(3, oracle.smallest_irreducible(3, 8))
    assert F._exp is not None
    rng = random.Random(5)
    for _ in range(500):
        a, b = rng.randrange(F.size), rng.randrange(F.size)
        assert F.mul(a, b) == F.plain_mul(a, b)


def test_large_field_uses_plain_products():
    F = oracle.Field(7, oracle.smallest_irreducible(7, 8))
    assert F._exp is None and F.size == 7 ** 8
    a = 123456
    assert F.mul(a, F.inv(a)) == 1
    assert F.in_subfield(3, 1) and not F.in_subfield(7, 4)


def test_smallest_irreducible_small_cases():
    assert oracle.smallest_irreducible(2, 2) == (1, 1, 1)  # t^2 + t + 1
    assert oracle.smallest_irreducible(2, 3) == (1, 1, 0, 1)  # t^3 + t + 1
    assert oracle.smallest_irreducible(3, 2) == (1, 0, 1)  # t^2 + 1


def test_subfield_sizes():
    F = oracle.Field(2, oracle.smallest_irreducible(2, 8))
    for d in (1, 2, 4, 8):
        assert sum(F.in_subfield(a, d) for a in F.elements()) == 2 ** d


def test_rank():
    F = oracle.Field(3, oracle.smallest_irreducible(3, 2))
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert oracle.rank(F, ident) == 4
    assert oracle.rank(F, ident + [[1, 2, 0, 1]]) == 4
    assert oracle.rank(F, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2
    assert oracle.rank(F, [[0, 0], [0, 0]]) == 0
    row = [5, 7, 1]
    assert oracle.rank(F, [row, [F.mul(4, x) for x in row]]) == 1


def _random_points(F, rng, k):
    return [tuple(rng.randrange(F.size) for _ in range(3)) for _ in range(k)]


def test_general_position_definitions():
    F = oracle.Field(3, oracle.smallest_irreducible(3, 8))
    rng = random.Random(7)
    generic = _random_points(F, rng, 8)
    # a random 8-tuple over a field this large is in general position
    assert oracle.in_general_position(F, generic)
    # three points on the line z = 0
    line = [(1, 0, 0), (0, 1, 0), (1, 1, 0)] + generic[3:]
    assert not oracle.in_general_position(F, line)
    # six points on the conic xz = y^2
    ts = [rng.randrange(1, F.size) for _ in range(6)]
    conic = [(1, t, F.mul(t, t)) for t in ts] + generic[6:]
    assert not oracle.in_general_position(F, conic)
    # seven points on the nodal cubic y^2 z = x^3 + x^2 z plus its node
    cubic = [(0, 0, 1)]
    while len(cubic) < 8:
        t = rng.randrange(2, F.size)
        # the line y = t x through the node meets the cubic at x = t^2 - 1
        x = F.sub(F.mul(t, t), 1)
        cubic.append((x, F.mul(t, x), 1))
    assert not oracle.in_general_position(F, cubic)
    # a repeated point
    assert not oracle.in_general_position(F, generic[:7] + [generic[0]])


def test_apply_matrix_keeps_collinearity():
    F = oracle.Field(3, oracle.smallest_irreducible(3, 4))
    rng = random.Random(3)
    g = oracle.random_pgl3(3, rng)
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    moved = [oracle.apply_matrix(F, g, p) for p in pts]
    assert oracle.rank(F, moved) == 2
    assert all(next(c for c in p if c) == 1 for p in moved)


def test_projective_plane_size():
    K = oracle.Field(2, oracle.smallest_irreducible(2, 3))
    pts = list(oracle.projective_plane(K))
    assert len(pts) == len(set(pts)) == 64 + 8 + 1


def test_node_and_cusp():
    K = oracle.Field(2, oracle.smallest_irreducible(2, 2))
    monos = oracle.exponents(3)

    def curve(terms):
        return [terms.get(e, 0) for e in monos]

    # xyz + x^3 + z^3: node at [0:1:0] with tangents x = 0 and z = 0
    nodal = curve({(1, 1, 1): 1, (3, 0, 0): 1, (0, 0, 3): 1})
    assert oracle._is_node(K, nodal, monos, (0, 1, 0))
    # y^2 z + x^3: cusp at [0:0:1], tangent cone y^2
    cusp = curve({(0, 2, 1): 1, (3, 0, 0): 1})
    assert not oracle._is_node(K, cusp, monos, (0, 0, 1))


def test_exceptional_curves():
    for r in range(1, 5):
        curves = oracle.exceptional_curves(r)
        assert len(curves) == r + r * (r - 1) // 2
        for c in curves:
            h = c.get("H", 0)
            es = [c.get(f"E{i + 1}", 0) for i in range(r)]
            assert h * h - sum(e * e for e in es) == -1  # C^2 = -1
            assert -3 * h - sum(es) == -1  # K.C = -1 for K = -3H + sum E_i, E_i^2 = -1
    with pytest.raises(ValueError):
        oracle.exceptional_curves(5)


def test_pencil_through_a_nodal_orbit():
    F = oracle.Field(2, oracle.smallest_irreducible(2, 8))
    for a in F.elements():
        if F.in_subfield(a, 4):
            continue
        pts = oracle.nodal_orbit(F, 2, 1, a)
        if oracle.in_general_position(F, pts):
            break
    members = oracle.cubic_pencil(F, pts)
    assert len(members) == 3
    assert tuple(x ^ y for x, y in zip(members[0], members[1])) == members[2]
    # the orbit lies on xyz = x^3 + z^3, a member with a node at [0:1:0]
    nodal = tuple(int(e in ((1, 1, 1), (3, 0, 0), (0, 0, 3))) for e in oracle.exponents(3))
    assert nodal in members
    assert 1 <= oracle.nodal_member_count(F, pts, 1) <= 3
