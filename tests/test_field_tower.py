import math
import random

import pytest

from cremona.field_tower import (
    FieldCtx,
    FieldElement,
    ZeroElement,
    element_order,
    euler_phi,
    find_modulus,
    frobenius,
    galois_orbit,
    get_ctx,
    nullspace,
    rank,
)

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


@pytest.mark.parametrize("p,golden", [(2, F2_OCTIC), (3, F3_OCTIC)])
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
        n = len(galois_orbit(ctx.element(e)))
        counts[n] = counts.get(n, 0) + 1
        assert 8 % n == 0
    assert counts[8] == 240  # everything outside F_16


def test_galois_orbit_examples():
    ctx = get_ctx(2, 8)
    assert len(galois_orbit(ctx.element(1))) == 1
    x = next(e for e in range(2, 256) if ctx.order(e) == 17)
    assert len(galois_orbit(ctx.element(x))) == 8


def test_polynomial_fallback_arithmetic():
    # 11^8 is above the table limit, so every operation takes the
    # polynomial path (the CLI's produit and lambda-scan reach it)
    ctx = FieldCtx(11, 8)
    assert ctx._exp is None
    rnd = random.Random(23)
    for _ in range(40):
        a, b, c = (rnd.randrange(1, ctx.size) for _ in range(3))
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.add(a, ctx.neg(a)) == 0
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
        assert inside == (len(galois_orbit(ctx.element(e))) <= 4)


def test_element_order():
    ctx = get_ctx(2, 8)
    assert element_order(ctx.one) == 1
    gen = next(e for e in range(2, 256) if ctx.order(e) == 255)
    assert ctx.order(gen) == 255
    with pytest.raises(ZeroElement):
        element_order(ctx.zero)
    c3 = get_ctx(3, 8)
    generators = sum(1 for e in range(1, c3.size) if c3.order(e) == 6560)
    assert generators == 2560 == euler_phi(3 ** 8 - 1)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(6560) == 2560
    # direct-count oracle for 255
    direct = sum(1 for k in range(1, 256) if math.gcd(k, 255) == 1)
    assert euler_phi(255) == direct == 128


def test_element_wrapper_arithmetic():
    ctx = get_ctx(3, 4)
    a, b = ctx.element(37), ctx.element(53)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * 1 == a and a + 0 == a
    assert (a ** 3) * a == a ** 4
    assert -(-a) == a
    assert frobenius(frobenius(a)) == a.frobenius(2)


def test_nullspace_trivial_cases():
    ctx = get_ctx(2, 8)
    assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ctx) == []
    assert len(nullspace([[0, 0, 0], [0, 0, 0]], ctx)) == 3


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


def test_field_element_wrapper_matrix_interface():
    ctx = get_ctx(2, 8)
    grid = [[ctx.element(1), ctx.element(0)], [ctx.element(0), ctx.element(1)]]
    assert nullspace(grid) == []


def test_serialization():
    ctx = get_ctx(2, 8)
    data = ctx.to_json()
    assert data == {"p": 2, "n": 8, "modulus": list(F2_OCTIC)}
    again = FieldCtx(data["p"], data["n"], tuple(data["modulus"]))
    assert again == ctx
