import json
import math
import os
import random
import subprocess
import sys
from array import array

import numpy as np
import pytest

from cremona import field_tower, plane_geometry
from cremona.field_tower import (
    FieldCtx,
    ZeroElement,
    euler_phi,
    find_modulus,
    frobenius_orbit,
    get_ctx,
    nullspace,
    rank,
)
from cremona.general_position import _CONIC_CLASSES

from conftest import Q2_TOTAL_ORBITS, q2_frobenius_orbits

# golden constants from the modulus scan (encodings 283 and 6572)
F2_OCTIC = (1, 1, 0, 1, 1, 0, 0, 0, 1)
F3_OCTIC = (2, 0, 1, 0, 0, 0, 0, 0, 1)


def _rabin_irreducible(f, p):
    """Independent irreducibility oracle: t^(p^n) = t mod f and
    gcd(t^(p^(n/l)) - t, f) = 1 for every prime l dividing n."""
    n = len(f) - 1

    def powmod_t(k):
        # t^(p^k) mod f by repeated p-th powering
        cur = [0, 1]
        for _ in range(k):
            cur = polypow(cur, p)
        return cur

    def polymul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return polymod(out)

    def polymod(a):
        a = a[:]
        while len(a) >= len(f):
            lead = a[-1]
            if lead:
                off = len(a) - len(f)
                for i, c in enumerate(f):
                    a[off + i] = (a[off + i] - lead * c) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    def polypow(a, k):
        out = [1]
        base = polymod(a[:])
        while k:
            if k & 1:
                out = polymul(out, base)
            base = polymul(base, base)
            k >>= 1
        return out

    def polygcd(a, b):
        a, b = a[:], b[:]
        while b:
            # remainder a mod b
            binv = pow(b[-1], -1, p)
            while len(a) >= len(b) and a:
                coef = (a[-1] * binv) % p
                off = len(a) - len(b)
                for i, c in enumerate(b):
                    a[off + i] = (a[off + i] - coef * c) % p
                while a and a[-1] == 0:
                    a.pop()
            a, b = b, a
        return a

    tq = powmod_t(n)
    if tq != [0, 1]:
        return False
    for ell in {d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)}:
        diff = powmod_t(n // ell)
        # g = t^(p^(n/ell)) - t
        g = diff[:]
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        while g and g[-1] == 0:
            g.pop()
        if len(polygcd(list(f), g)) != 1:
            return False
    return True


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, int(m ** 0.5) + 1))


def test_find_modulus_degree_one():
    assert find_modulus(2, 1) == (0, 1)  # the polynomial t


@pytest.mark.parametrize("p,golden", [
    (2, F2_OCTIC),
    (3, F3_OCTIC),
    (5, (2, 0, 0, 0, 0, 0, 0, 0, 1)),
    (7, (3, 1, 0, 0, 0, 0, 0, 0, 1)),
    (11, (4, 1, 0, 0, 0, 0, 0, 0, 1)),
    (13, (2, 0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_find_modulus_octics_against_scan_oracle(p, golden):
    # exhaustive scan with the independent (Rabin) irreducibility test
    found = None
    for low in range(p ** 8):
        coeffs = []
        e = low
        for _ in range(8):
            coeffs.append(e % p)
            e //= p
        f = coeffs + [1]
        if _rabin_irreducible(f, p):
            found = tuple(f)
            break
    assert found == golden
    assert find_modulus(p, 8) == golden


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldCtx(2, 2, (1, 0, 1))  # t^2 + 1 = (t + 1)^2


def test_encoding_roundtrip_exhaustive():
    for p, n in [(2, 8), (3, 8), (5, 2)]:
        ctx = get_ctx(p, n)
        seen = set()
        for e in range(ctx.size):
            c = ctx.coeffs(e)
            assert len(c) == n and all(0 <= x < p for x in c)
            back = sum(x * p ** i for i, x in enumerate(c))
            assert back == e
            seen.add(c)
        assert len(seen) == ctx.size


def test_frobenius_is_field_automorphism():
    rnd = random.Random(11)
    for q in (2, 3):
        ctx = get_ctx(q, 8)
        for _ in range(1000):
            a, b = rnd.randrange(ctx.size), rnd.randrange(ctx.size)
            assert ctx.frobenius(ctx.add(a, b)) == ctx.add(
                ctx.frobenius(a), ctx.frobenius(b)
            )
            assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(
                ctx.frobenius(a), ctx.frobenius(b)
            )
        fixed = [e for e in range(ctx.size) if ctx.frobenius(e) == e]
        assert len(fixed) == q  # exactly the prime subfield


@pytest.mark.parametrize("p, path", [(3, "list"), (7, "array"), (13, "none")])
def test_frobenius_is_the_p_th_power(p, path):
    """`frobenius` equals pow(a, p) and the polynomial path's a^p, 0
    included, on each of its three paths: the Frobenius table of the
    list-table F_{3^8}, the one exp lookup of the array-table F_{7^8},
    and `pow` on the table-less F_{13^8}."""
    ctx = get_ctx(p, 8)
    assert path == ("list" if ctx._frob_table is not None else
                    "array" if ctx._exp is not None else "none")
    rnd = random.Random(p)
    for a in [0, 1, p - 1, p, ctx.size - 1] + [rnd.randrange(ctx.size) for _ in range(200)]:
        assert ctx.frobenius(a) == ctx.pow(a, p) == ctx._pow_poly(a, p), a


def test_frobenius_trivial_and_order_preserving():
    ctx = get_ctx(2, 8)
    assert ctx.frobenius(0) == 0 and ctx.frobenius(1) == 1
    gen = next(e for e in range(2, 256) if ctx.order(e) == 255)
    assert ctx.order(ctx.frobenius(gen)) == 255


def test_frobenius_eighth_power_is_identity():
    rnd = random.Random(12)
    for q in (2, 3):
        ctx = get_ctx(q, 8)
        for _ in range(1000):
            a = rnd.randrange(ctx.size)
            assert ctx.frobenius_iter(a, 8) == a


def test_galois_orbit_lengths_divide_8_exhaustive():
    ctx = get_ctx(2, 8)
    counts = {}
    for e in range(256):
        n = len(frobenius_orbit(ctx, (e,)))
        counts[n] = counts.get(n, 0) + 1
        assert 8 % n == 0
    assert counts[8] == 240  # everything outside F_16


def test_galois_orbit_examples():
    ctx = get_ctx(2, 8)
    assert frobenius_orbit(ctx, (1,)) == [(1,)]
    x = next(e for e in range(2, 256) if ctx.order(e) == 17)
    orbit = frobenius_orbit(ctx, (x,))
    assert orbit == [(ctx.frobenius_iter(x, k),) for k in range(8)]


def test_polynomial_fallback_arithmetic():
    # 11^8 is above the table limit, so every operation takes the
    # polynomial path (the CLI's produit and lambda-scan reach it)
    ctx = FieldCtx(11, 8)
    assert ctx._exp is None
    rnd = random.Random(23)
    for _ in range(40):
        a, b, c = (rnd.randrange(1, ctx.size) for _ in range(3))
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.add(a, ctx.neg(a)) == 0  # the Zech table's -1 entry
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.frobenius_iter(a, 8) == a


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (7, 2)])
def test_quadratic_roots_against_brute_force(p, n):
    # seeded (a, b, c) with a = 0, b = 0 and the all-zero case among them
    ctx = get_ctx(p, n)
    rnd = random.Random(100 * p + n)
    triples = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    for _ in range(150):
        a, b, c = (rnd.randrange(ctx.size) for _ in range(3))
        triples += [(a, b, c), (0, b, c), (a, 0, c)]
    for a, b, c in triples:
        roots = ctx.quadratic_roots(a, b, c)
        if a == b == c == 0:
            assert roots is None
            continue
        brute = {
            y for y in range(ctx.size)
            if ctx.add(ctx.add(ctx.mul(a, ctx.mul(y, y)), ctx.mul(b, y)), c) == 0
        }
        assert len(roots) == len(set(roots)) and set(roots) == brute, (a, b, c)


def test_subfield_membership_matches_orbit_length():
    ctx = get_ctx(2, 8)
    for e in range(256):
        inside = ctx.in_subfield(e, 4)
        assert inside == (len(frobenius_orbit(ctx, (e,))) <= 4)


def test_element_order():
    ctx = get_ctx(2, 8)
    assert ctx.order(1) == 1
    gen = next(e for e in range(2, 256) if ctx.order(e) == 255)
    assert ctx.pow(gen, 255 // 3) != 1 and ctx.pow(gen, 255 // 5) != 1
    assert ctx.pow(gen, 255 // 17) != 1 and ctx.pow(gen, 255) == 1
    with pytest.raises(ZeroElement):
        ctx.order(0)
    c3 = get_ctx(3, 8)
    generators = sum(1 for e in range(1, c3.size) if c3.order(e) == 6560)
    assert generators == 2560 == euler_phi(3 ** 8 - 1)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(6560) == 2560
    # direct-count oracle for 255
    direct = sum(1 for k in range(1, 256) if math.gcd(k, 255) == 1)
    assert euler_phi(255) == direct == 128


def test_nullspace_trivial_cases():
    ctx = get_ctx(2, 8)
    assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ctx) == []
    assert len(nullspace([[0, 0, 0], [0, 0, 0]], ctx)) == 3


def test_nullspace_of_an_empty_grid_raises():
    # no equations leave the whole space, whose dimension an empty grid
    # does not give; its rank is still 0
    ctx = get_ctx(2, 8)
    with pytest.raises(ValueError):
        nullspace([], ctx)
    assert rank([], ctx) == 0


def test_nullspace_of_coconic_veronese():
    # six points on the conic x z - y^2 = 0 give a rank-deficient 6x6
    ctx = get_ctx(2, 8)
    pts = [(ctx.mul(t, t), t, 1) for t in (1, 2, 3, 4, 5)] + [(1, 0, 0)]
    rows = []
    for x, y, z in pts:
        rows.append(
            [
                ctx.mul(x, x), ctx.mul(x, y), ctx.mul(x, z),
                ctx.mul(y, y), ctx.mul(y, z), ctx.mul(z, z),
            ]
        )
    basis = nullspace(rows, ctx)
    assert basis, "expected a nonzero conic through the six points"
    # the kernel vector recovers x z - y^2 up to scale
    for vec in basis:
        for row in rows:
            acc = 0
            for c, v in zip(vec, row):
                acc = ctx.add(acc, ctx.mul(c, v))
            assert acc == 0


def test_nullspace_deterministic_and_reduced():
    ctx = get_ctx(3, 2)
    rows = [[1, 2, 0, 1], [0, 0, 1, 2]]
    b1 = nullspace([r[:] for r in rows], ctx)
    b2 = nullspace([r[:] for r in rows], ctx)
    assert b1 == b2
    assert len(b1) == 2
    assert rank([r[:] for r in rows], ctx) == 2


def _rref_oracle(matrix, ctx):
    """(rank, kernel basis) from the full reduced echelon form, entry by
    entry through `mul` and `sub`: the elimination `rank` and `nullspace`
    ran before the fused row operation, kept as their oracle."""
    rows = [list(r) for r in matrix]
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = inv(rows[r][c])
        rows[r] = [mul(piv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for k, pc in enumerate(pivots):
            vec[pc] = ctx.neg(rows[k][fc])
        basis.append(vec)
    return len(pivots), basis


# F_{2^8} (the xor path), F_{3^8} (list tables, Zech logs), F_{7^8}
# (array('i') tables) and F_{11^8} (no tables)
ELIMINATION_FIELDS = [(2, 8), (3, 8), (7, 8), (11, 8)]


@pytest.fixture(scope="module", params=ELIMINATION_FIELDS, ids=lambda pn: f"{pn[0]}^{pn[1]}")
def elimination_ctx(request):
    p, n = request.param
    return get_ctx(p, n) if p < 11 else FieldCtx(p, n)


def test_row_sub_matches_mul_and_sub(elimination_ctx):
    ctx = elimination_ctx
    assert (ctx._exp is None) == (ctx.p == 11)
    rnd = random.Random(ctx.p)
    for _ in range(100):
        f = rnd.randrange(1, ctx.size)
        a = [rnd.choice((0, rnd.randrange(ctx.size))) for _ in range(8)]
        b = [rnd.choice((0, rnd.randrange(ctx.size))) for _ in range(8)]
        a[0] = ctx.mul(f, b[0])  # an entry that cancels to 0
        assert ctx.row_sub(a, f, b) == [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a, b)]


def test_poly_at_matches_mul_and_add(elimination_ctx):
    # sparse polynomials, the zero polynomial among them, with coefficients
    # in F_p and with coefficients anywhere in the context, at 0, at 1 and
    # at seeded points, in the field and in its prime field; in odd
    # characteristic x^j + (p - 1) x^i cancels at x = 1
    p = elimination_ctx.p
    rnd = random.Random(p + 1)
    for ctx in (elimination_ctx, FieldCtx(p, 1)):
        def naive(terms, x):
            acc = 0
            for i, c in terms:
                acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, i)))
            return acc

        polys = [[], [(0, 1)], [(3, 1), (7, p - 1)]]
        for top in (p, ctx.size):
            for _ in range(40):
                support = sorted(rnd.sample(range(30), rnd.randrange(1, 8)))
                polys.append([(i, rnd.randrange(1, top)) for i in support])
        assert any(c >= p for terms in polys for _, c in terms) == (ctx.n > 1)
        xs = [0, 1] + [rnd.randrange(ctx.size) for _ in range(10)]
        for terms in polys:
            for x in xs:
                assert ctx.poly_at(terms, x) == naive(terms, x), (ctx, terms, x)


def _planted(ctx, rnd, m, n, k):
    """A seeded m x n matrix A B with A m x k and B k x n, so of rank at
    most k; about a fifth of the entries of A and B are zero."""
    def entry():
        return 0 if rnd.random() < 0.2 else rnd.randrange(1, ctx.size)

    a = [[entry() for _ in range(k)] for _ in range(m)]
    b = [[entry() for _ in range(n)] for _ in range(k)]
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i][j] = ctx.add(out[i][j], ctx.mul(a[i][t], b[t][j]))
    return out


@pytest.mark.slow
def test_elimination_matches_rref_oracle_on_planted_ranks(elimination_ctx):
    """`rank` and `nullspace` against the full reduced echelon form on
    seeded matrices of every planted rank; rank 0 is the zero matrix."""
    ctx = elimination_ctx
    rnd = random.Random(1000 + ctx.p)
    shapes = [(3, 3), (6, 6), (11, 10), (8, 10), (1, 1), (1, 6), (1, 10)]
    for m, n in shapes:
        for k in range(min(m, n) + 1):
            for _ in range(2 if ctx._exp is not None else 1):
                matrix = _planted(ctx, rnd, m, n, k)
                want_rank, want_basis = _rref_oracle(matrix, ctx)
                assert want_rank <= k
                assert rank(matrix, ctx) == want_rank, (m, n, k)
                assert nullspace(matrix, ctx) == want_basis, (m, n, k)
                assert k or (want_rank == 0 and len(want_basis) == n)


@pytest.mark.slow
def test_rank_matches_rref_oracle_on_every_q2_orbit(monkeypatch):
    """On each of the 8190 degree-8 orbits at q = 2, in Frobenius order,
    `rank` gives the oracle's rank on the 4 conic-class matrices of
    `orbit_report` and on the cubic system at points[0], whichever tier
    the orbit fails."""
    ctx = get_ctx(2, 8)
    orbits = q2_frobenius_orbits()
    assert len(orbits) == Q2_TOTAL_ORBITS
    cubic_systems = []
    monkeypatch.setattr(
        plane_geometry, "rank", lambda rows, _ctx: cubic_systems.append(rows) or 0)
    deficient = 0
    for orbit in orbits:
        conic = [plane_geometry.veronese_row(c, 2, ctx) for c in orbit]
        plane_geometry.singular_cubic_through(orbit, 0, ctx)
        matrices = [[conic[i] for i in members[0]] for members in _CONIC_CLASSES]
        for matrix in matrices + [cubic_systems.pop()]:
            got = rank(matrix, ctx)
            assert got == _rref_oracle(matrix, ctx)[0]
            deficient += got < len(matrix[0])
    assert deficient  # some orbit fails a conic or cubic condition


def test_serialization():
    ctx = get_ctx(2, 8)
    data = ctx.to_json()
    assert data == {"p": 2, "n": 8, "modulus": list(F2_OCTIC)}
    again = FieldCtx(data["p"], data["n"], tuple(data["modulus"]))
    assert again == ctx


# 3^13 = 1594323 elements: above the 2^20 size from which the exp table
# is cached on disk, and built fresh in about a second
BIG = (3, 13)


def _tables(ctx):
    return [ctx._exp, ctx._log, ctx._zech]


@pytest.fixture(scope="module")
def big_fresh(tmp_path_factory):
    """A fresh 3^13 context and the exp table it wrote to its cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CREMONA_CACHE_DIR", str(tmp_path_factory.mktemp("gftab")))
        ctx = FieldCtx(*BIG)
        exp = np.load(ctx._table_cache_path())
    return ctx, exp


def test_table_cache_hit_does_not_rebuild(big_fresh, tmp_path, monkeypatch):
    ref, exp = big_fresh
    monkeypatch.setenv("CREMONA_CACHE_DIR", str(tmp_path))
    np.save(ref._table_cache_path(), exp)

    def fail(self, np_mod):
        raise AssertionError("cache hit rebuilt the exp table")

    monkeypatch.setattr(FieldCtx, "_compute_exp_table", fail)
    assert _tables(FieldCtx(*BIG)) == _tables(ref)


def _write_corrupt(kind, path, exp):
    """Write a corrupt cache file of the given kind in place of `exp`."""
    if kind == "garbage":
        with open(path, "wb") as fh:
            fh.write(b"not a table " * 1000)
    elif kind == "truncated":
        np.save(path, exp)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-4096])
    elif kind == "int64":
        np.save(path, exp.astype(np.int64))
    elif kind in ("header-only", "one-short"):
        # a valid header over a body with no entries, or one entry short
        np.save(path, exp)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: -4 * len(exp)] if kind == "header-only" else data[:-4])
    elif kind == "version-2":
        # the right table under a version 2.0 header, which the load refuses
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, exp, version=(2, 0))
    elif kind in ("duplicate", "out-of-range"):
        bad = exp.copy()
        bad[7] = bad[8] if kind == "duplicate" else len(exp) + 1
        np.save(path, bad)
    elif kind == "reversed-tail":
        # bijective and exp[1] = g, but almost every product is wrong
        bad = exp.copy()
        bad[2:] = bad[2:][::-1]
        np.save(path, bad)
    else:
        # exp[k i] with gcd(k, units) = 1: the exp table of the generator
        # g^k, bijective and with exact products, but not of g
        units = len(exp)
        k = next(k for k in range(2, units) if math.gcd(k, units) == 1)
        np.save(path, exp[(k * np.arange(units)) % units])


@pytest.mark.parametrize(
    "kind",
    [
        "garbage", "truncated", "header-only", "one-short", "version-2", "int64",
        "duplicate", "out-of-range", "reversed-tail", "other-generator",
    ],
)
def test_corrupt_table_cache_is_rebuilt(big_fresh, tmp_path, monkeypatch, kind):
    ref, exp = big_fresh
    monkeypatch.setenv("CREMONA_CACHE_DIR", str(tmp_path))
    path = ref._table_cache_path()
    _write_corrupt(kind, path, exp)
    builds = []
    build = FieldCtx._compute_exp_table

    def counted(self, np_mod):
        builds.append(1)
        return build(self, np_mod)

    monkeypatch.setattr(FieldCtx, "_compute_exp_table", counted)
    ctx = FieldCtx(*BIG)
    # a version 2.0 header round the right table may be read or refused
    assert builds == [1] or (kind == "version-2" and not builds)
    assert _tables(ctx) == _tables(ref)
    rewritten = np.load(path)
    assert rewritten.dtype == np.int32 and np.array_equal(rewritten, exp)


def test_large_table_arithmetic_matches_polynomial_path(big_fresh):
    ctx = big_fresh[0]
    assert ctx._exp.itemsize == ctx._log.itemsize == ctx._zech.itemsize == 4
    rnd = random.Random(313)
    for _ in range(200):
        a, b, c = (rnd.randrange(1, ctx.size) for _ in range(3))
        k, i = rnd.randrange(-ctx.size, ctx.size), rnd.randrange(ctx.n)
        assert ctx.mul(a, b) == ctx._mul_poly(a, b)
        assert ctx.add(a, c) == ctx._add_poly(a, c)
        assert ctx.add(a, ctx.neg(a)) == 0  # the Zech table's -1 entry
        assert ctx.neg(b) == ctx._neg_poly(b)
        assert ctx.inv(c) == ctx._inv_poly(c)
        expected = ctx._pow_poly(a, k) if k >= 0 else ctx._inv_poly(ctx._pow_poly(a, -k))
        assert ctx.pow(a, k) == expected
        assert ctx.frobenius_iter(b, i) == ctx._pow_poly(b, ctx.p ** i)


def test_chunked_exp_table_build_matches_single_block(monkeypatch):
    # 3^11, above _LIST_LIMIT and below the disk cache, sits below
    # _CHUNK, so the default build multiplies each doubling step, scatters
    # log and runs the Zech pass in one block; 100-entry chunks must give
    # the same tables
    ref = FieldCtx(3, 11)
    monkeypatch.setattr(field_tower, "_CHUNK", 100)
    ctx = FieldCtx(3, 11)
    assert isinstance(ctx._exp, array)
    assert _tables(ctx) == _tables(ref)
    rnd = random.Random(38)
    for _ in range(200):
        a, b = rnd.randrange(1, ctx.size), rnd.randrange(1, ctx.size)
        assert ctx.mul(a, b) == ctx._mul_poly(a, b)


def test_f7_8_tables_stay_small():
    # what perfbench/tracing.table_mb reads: len x itemsize, 8 bytes a
    # list slot; the int32 tables of F_{7^8} take about 88 MB
    ctx = get_ctx(7, 8)
    total = sum(
        len(tab) * getattr(tab, "itemsize", 8)
        for tab in (ctx._exp, ctx._log, ctx._zech, ctx._frob_table, ctx._as_root)
        if tab is not None
    )
    assert total <= 100 * 2 ** 20


def _mat_pow(m, k, p):
    out = np.eye(len(m), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ m % p
        m, k = m @ m % p, k >> 1
    return out


def _reference_tables(ctx, frobenius):
    """exp (undoubled), log (log[0] = 0) and Zech (z(i) = -1 where
    g^i = -1; None in characteristic 2) tables of ctx by plain numpy, and
    with `frobenius` the table of x -> x^p.  Elements are digit columns,
    and multiplication by x the matrix sum x_k C^k over F_p, C the
    companion matrix of the modulus; g is the least encoding whose matrix
    has order u, and g^(B j + i) is a giant step times a baby step."""
    p, n, size = ctx.p, ctx.n, ctx.size
    units = size - 1
    weights = p ** np.arange(n, dtype=np.int64)
    comp = np.zeros((n, n), dtype=np.int64)
    comp[1:, :-1] = np.eye(n - 1, dtype=np.int64)
    comp[:, -1] = [-c % p for c in ctx.modulus[:-1]]
    powers = [_mat_pow(comp, k, p) for k in range(n)]

    def matrix(enc):
        return sum(int(d) * c for d, c in zip(enc // weights % p, powers)) % p

    def is_one(m):
        return m[0, 0] == 1 and not m[1:, 0].any()

    primes = [ell for ell in range(2, units + 1) if units % ell == 0 and _is_prime(ell)]
    gm = next(
        m for m in map(matrix, range(1, size))
        if not any(is_one(_mat_pow(m, units // ell, p)) for ell in primes)
    )
    step = math.isqrt(units) + 1
    baby = np.zeros((n, step), dtype=np.int64)
    baby[0, 0] = 1
    for i in range(1, step):
        baby[:, i] = gm @ baby[:, i - 1] % p
    giant, jump = np.eye(n, dtype=np.int64), _mat_pow(gm, step, p)
    exp = np.zeros(step * step, dtype=np.int32)
    for j in range(step):
        exp[j * step: (j + 1) * step] = weights @ (giant @ baby % p)
        giant = giant @ jump % p
    exp = exp[:units]
    log = np.full(size, -1, dtype=np.int32)
    log[exp] = np.arange(units, dtype=np.int32)
    assert log[1:].min() >= 0  # g generates the units
    zech = None
    if p != 2:
        low = exp % p
        plus_one = exp - low + (low + 1) % p
        zech = np.where(plus_one == 0, -1, log[plus_one])
    log[0] = 0
    frob = None
    if frobenius:
        # x^p = sum x_k t^(p k): column k is the digit vector of t^(p k)
        cols = np.stack([_mat_pow(comp, p * k, p)[:, 0] for k in range(n)], axis=1)
        digits = np.arange(size, dtype=np.int64)[:, None] // weights % p
        frob = digits @ cols.T % p @ weights
    return exp, log, zech, frob


# t^4 + t^3 + t^2 + t + 1, irreducible over F_3 and not the least such
# quartic; t has order 5 there, so the walk is of another generator
PHI5 = (1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "field",
    [
        (2, 8), (3, 8), BIG, (7, 8), (2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 4),
        (3, 4, PHI5), (11, 1), (101, 1), (2, 16), (7, 6), (3, 11),
    ],
)
def test_tables_match_plain_numpy_reference(field, big_fresh):
    # both sides of _LIST_LIMIT: the walk up to F_{2^16} and F_{7^6}, with
    # prime fields whose digits pass 9 and 36, and the numpy build from 3^11
    if len(field) == 3:
        assert _rabin_irreducible(field[2], field[0]) and field[2] != find_modulus(3, 4)
        ctx = FieldCtx(*field)
    else:
        ctx = big_fresh[0] if field == BIG else get_ctx(*field)
    small = ctx.size <= field_tower._LIST_LIMIT
    assert all(isinstance(t, list) == small for t in _tables(ctx) if t is not None)
    exp, log, zech, frob = _reference_tables(ctx, frobenius=small)
    units = ctx.size - 1
    got = np.asarray(ctx._exp)
    assert len(got) == 2 * units
    assert np.array_equal(got[:units], exp) and np.array_equal(got[units:], exp)
    assert np.array_equal(np.asarray(ctx._log), log)
    assert (ctx._zech is None) == (zech is None)
    if zech is not None:
        assert np.array_equal(np.asarray(ctx._zech), zech)
    assert (ctx._frob_table is None) != small
    if small:
        assert np.array_equal(np.asarray(ctx._frob_table), frob)
    rnd = random.Random(ctx.size)
    for _ in range(50):
        a, b = rnd.randrange(1, ctx.size), rnd.randrange(1, ctx.size)
        assert ctx.mul(a, b) == ctx._mul_poly(a, b)


_NO_NUMPY_CHILD = """
import contextlib, io, sys
from cremona import cli_app
from cremona.field_tower import get_ctx

for argv in (
    ["census", "--q", "2", "--no-cache"],
    ["census", "--q", "3", "--sample", "20", "--no-cache"],
    ["verify", "beta-twist", "--q", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_app.main(argv) == 0, argv
for m in range(1, 9):
    get_ctx(2, m)
assert "numpy" not in sys.modules
"""


def _run_child(code, cache, *args):
    """Run `code` with `args` in a fresh interpreter on this checkout's
    package, with the table cache at `cache`; the finished process."""
    src = os.path.dirname(os.path.dirname(field_tower.__file__))
    env = dict(os.environ, CREMONA_CACHE_DIR=str(cache), PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_list_fields_run_without_numpy(tmp_path):
    # the censuses, the beta-twist lemma and F_{2^m} build list tables by
    # the walk; numpy is imported for the first array field alone
    out = _run_child(_NO_NUMPY_CHILD, tmp_path)
    assert out.returncode == 0, out.stderr
    code = "import sys\nfrom cremona.field_tower import get_ctx\n"
    code += "get_ctx(5, 8)\nassert 'numpy' in sys.modules\n"
    out = _run_child(code, tmp_path)
    assert out.returncode == 0, out.stderr


_PEAK_CHILD = """
import json, sys
import numpy
from cremona.field_tower import FieldCtx

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak()
ctx = FieldCtx(int(sys.argv[1]), int(sys.argv[2]))
tables = sum(len(t) * t.itemsize for t in (ctx._exp, ctx._log, ctx._zech) if t is not None)
print(json.dumps({"rise": (peak() - before) * 1024, "tables": tables}))
"""


def _peak_rise(field, cache):
    """How far the peak RSS of a fresh interpreter rises while it builds
    the context of `field` with the table cache at `cache`, in bytes, and
    the bytes of that context's tables.  The child imports numpy and the
    package before its baseline.  The peak is VmHWM, the high-water mark
    of the child's own address space: ru_maxrss would start from the RSS
    of this test process, which exec carries over into the child."""
    out = _run_child(_PEAK_CHILD, cache, *map(str, field))
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    return data["rise"], data["tables"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize("field", [(7, 8), BIG])
def test_warm_table_load_makes_no_table_sized_copy(field, big_fresh, tmp_path, monkeypatch):
    # each table is filled in place, so the peak rises by little more than
    # the tables' bytes (a build through numpy copies rose by 115 MiB for
    # the 88 MiB of F_{7^8}, and by 36 MiB for the 24 MiB of F_{3^13})
    ctx = big_fresh[0] if field == BIG else get_ctx(*field)
    monkeypatch.setenv("CREMONA_CACHE_DIR", str(tmp_path))
    np.save(ctx._table_cache_path(), np.frombuffer(ctx._exp, np.int32)[: ctx.size - 1])
    rise, tables = _peak_rise(field, tmp_path)
    assert rise <= tables + 8 * 2 ** 20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_cold_table_build_peak(tmp_path):
    # a build that doubled 2^20 rows at a time and copied numpy tables into
    # arrays rose by 79.6 MiB at 3^13; the temporaries of this one are a
    # quarter as large, and it copies no table
    rise, _ = _peak_rise(BIG, tmp_path)
    assert rise <= 80 * 2 ** 20
    assert len(os.listdir(tmp_path)) == 1  # the table file, and no temporary
