import random

import pytest

from cremona import polynomial as poly
from cremona.field_tower import _decode, _encode, get_ctx

from conftest import horner


def _trial_division_irreducible(f, p):
    """Exhaustive trial division by all monic divisors of degree <= deg/2."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[0] == 0:  # divisible by t
        return False
    for d in range(1, n // 2 + 1):
        for enc in range(p ** d):
            div = _decode(enc, p, d) + [1]
            if not poly.div_rem(f, div, p)[1]:
                return False
    return True


def test_ben_or_matches_trial_division():
    # every monic polynomial of degree <= 8 over F_2, <= 5 over F_3,
    # <= 4 over F_5 and <= 3 over F_7, constants included
    checked = 0
    for p, top in ((2, 8), (3, 5), (5, 4), (7, 3)):
        for n in range(top + 1):
            for low in range(p ** n):
                f = _decode(low, p, n) + [1]
                assert poly.is_irreducible(f, p) == (
                    _trial_division_irreducible(f, p)
                ), (p, f)
                checked += 1
    assert checked == 2056


def _sympy():
    """sympy's galoistools, its ZZ, and converters from the little-endian
    int lists of `polynomial` to its big-endian lists and back."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def big(f):
        return [ZZ(c) for c in reversed(f)]

    def little(f):
        return [int(c) for c in reversed(f)]

    return gt, ZZ, big, little


def _random_poly(rnd, p, deg):
    """A seeded polynomial of degree exactly deg over F_p."""
    return [rnd.randrange(p) for _ in range(deg)] + [rnd.randrange(1, p)]


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_polynomial_helpers_match_sympy_galoistools(p):
    gt, ZZ, big, little = _sympy()
    rnd = random.Random(p)
    for _ in range(60):
        a, b = _random_poly(rnd, p, rnd.randrange(12)), _random_poly(rnd, p, rnd.randrange(6))
        if rnd.random() < 0.2:
            a = []  # the zero polynomial
        assert poly.mul(a, b, p) == little(gt.gf_mul(big(a), big(b), p, ZZ))
        assert poly.sub(a, b, p) == little(gt.gf_sub(big(a), big(b), p, ZZ))
        quot, rem = poly.div_rem(a, b, p)
        assert rem == little(gt.gf_rem(big(a), big(b), p, ZZ))
        assert [quot, rem] == [little(f) for f in gt.gf_div(big(a), big(b), p, ZZ)]
    # the table-less field arithmetic on them, against the tables
    ctx = get_ctx(p, 4)
    for _ in range(30):
        a, b = rnd.randrange(1, ctx.size), rnd.randrange(ctx.size)
        assert ctx._mul_poly(a, b) == ctx.mul(a, b)
        k = rnd.randrange(50)
        assert ctx._pow_poly(a, k) == ctx.pow(a, k)


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_power_matches_sympy_pow_and_pow_mod(p):
    # exponents 0..40 and one large one, with and without a modulus of
    # degree >= 1; the zero polynomial among the bases
    gt, ZZ, big, little = _sympy()
    rnd = random.Random(10 + p)
    for _ in range(40):
        a = _random_poly(rnd, p, rnd.randrange(6)) if rnd.random() > 0.1 else []
        mod = _random_poly(rnd, p, rnd.randrange(1, 7))
        for k in (0, 1, rnd.randrange(2, 12), rnd.randrange(40), p ** 5 + 3):
            if k < 12:
                assert poly.power(a, k, p) == little(gt.gf_pow(big(a), k, p, ZZ))
            assert poly.power(a, k, p, mod) == little(
                gt.gf_pow_mod(big(a), k, big(mod), p, ZZ)
            ), (a, k, mod)


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_gcdex_matches_sympy_gcdex(p):
    # the monic gcd and the cofactor of a, against sympy's extended Euclid,
    # on seeded pairs that share a planted factor, zero polynomials among
    # them; then through the table-less inverse of F_{p^4}.  gcd(0, 0) is
    # 0, with the cofactor 0 where sympy gives 1
    gt, ZZ, big, little = _sympy()
    assert poly.gcdex([], [], p) == ([], [])
    rnd = random.Random(20 + p)
    cases = [([], [1, 1]), ([1], [])]
    for _ in range(60):
        h = _random_poly(rnd, p, rnd.randrange(3))
        a = poly.mul(h, _random_poly(rnd, p, rnd.randrange(6)), p)
        b = poly.mul(h, _random_poly(rnd, p, rnd.randrange(6)), p)
        cases.append((a, b))
    for a, b in cases:
        g, s = poly.gcdex(a, b, p)
        s_ref, _, h_ref = gt.gf_gcdex(big(a), big(b), p, ZZ)
        assert g == little(h_ref), (a, b)
        assert s == little(s_ref), (a, b)
        if b:
            assert poly.div_rem(poly.sub(poly.mul(s, a, p), g, p), b, p)[1] == []
    ctx = get_ctx(p, 4)
    modulus = list(ctx.modulus)
    for _ in range(30):
        a = rnd.randrange(1, ctx.size)
        g, s = poly.gcdex(ctx._coeffs(a), modulus, p)
        s_ref, _, h_ref = gt.gf_gcdex(big(poly.trim(ctx._coeffs(a))), big(modulus), p, ZZ)
        assert g == little(h_ref) == [1]
        assert ctx._inv_poly(a) == _encode(s, p) == _encode(little(s_ref), p) == ctx.inv(a)


@pytest.mark.parametrize("p, m", [(2, 8), (3, 6)])
def test_gcd_over_extension_matches_common_roots(p, m):
    # seeded pairs over F_{p^m} with planted common roots (products of
    # y - r) and random cofactors: the roots in the field of gcd(a, b)
    # are exactly the common roots of a and b, found by a full scan, and
    # the gcd has at least the planted degree; gcd(a, 0) = a
    ctx = get_ctx(p, m)
    rnd = random.Random(30 + p)

    def times(f, h):
        out = [0] * (len(f) + len(h) - 1)
        for i, u in enumerate(f):
            for j, v in enumerate(h):
                out[i + j] = ctx.add(out[i + j], ctx.mul(u, v))
        return poly.trim(out)

    def random_poly(deg):
        return [rnd.randrange(ctx.size) for _ in range(deg)] + [rnd.randrange(1, ctx.size)]

    def zeros(f):
        return {y for y in range(ctx.size) if horner(f, y, ctx) == 0}

    for _ in range(12):
        planted = [1]
        for _ in range(rnd.randrange(4)):
            planted = times(planted, [ctx.neg(rnd.randrange(ctx.size)), 1])
        a = times(planted, random_poly(rnd.randrange(5)))
        b = times(planted, random_poly(rnd.randrange(5)))
        g = poly.gcd(a, b, ctx)
        assert len(g) >= len(planted)
        assert zeros(g) == zeros(a) & zeros(b), (a, b)
        assert poly.gcd(a, [], ctx) == a and poly.gcd([], a, ctx) == a
    assert poly.gcd([], [], ctx) == []

