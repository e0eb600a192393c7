"""Univariate polynomials: the one home of the polynomial arithmetic that
the field tower and the nodal count share.

Two representations, and every function takes exactly one of them:

- *Dense int lists over F_p*: little-endian coefficient lists of ints
  0..p-1, the prime p passed alongside; every result carries no trailing
  zero, so the zero polynomial is [].  `trim`, `sub`, `mul`, `div_rem`,
  `power`, `gcdex` and `is_irreducible` work on these; so do `prem` and
  `eliminant`, on polynomials in y over F_p[x], written as lists over
  the powers of y of such lists in x.
- *Polynomials over a field context*: `gcd` takes dense lists of element
  encodings, and `roots` sparse terms [(i, c)] with c a nonzero element
  of the context, i ascending.  `to_dense` and `to_sparse` convert.

F_p arithmetic stays on ints and never goes through a prime-field
context: the modulus of a context is found by `is_irreducible` before
the context exists, and the table-less F_{p^n} arithmetic of large
fields runs on these lists.  Routing that arithmetic through
`get_ctx(p, 1)` made `cremona verify lambda-scan --q 13 --seeds 20`
take 3.3-4.1 s instead of 2.3-2.6 s, and `FieldCtx(8388617, 1)`
recursed, since a prime field of that size has no tables either.

The algorithms are the classical ones: division with remainder, the
extended Euclidean algorithm and repeated squaring (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 3 and 4), Ben-Or's
irreducibility test, and the subresultant PRS (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 3.3.7).  This module
imports nothing from the package.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "div_rem", "eliminant", "gcd", "gcdex", "is_irreducible", "mul", "power",
    "prem", "roots", "sub", "to_dense", "to_sparse", "trim",
]


# ----------------------------------------------------------------------
# dense int lists over F_p

def trim(c: list) -> list:
    """c without its trailing zeros, in place: entries 0, or [] in a list
    of polynomials."""
    while c and not c[-1]:
        c.pop()
    return c


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    m = max(len(a), len(b))
    a, b = a + [0] * (m - len(a)), b + [0] * (m - len(b))
    return trim([(x - y) % p for x, y in zip(a, b)])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def div_rem(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by den; den must have a nonzero
    leading coefficient."""
    rem = trim(num[:])
    dn = len(den) - 1
    dinv = pow(den[-1], -1, p)
    quot = [0] * max(0, len(rem) - dn)
    while len(rem) > dn:
        coef = rem.pop() * dinv % p  # the leading term cancels
        if coef:
            off = len(rem) - dn
            quot[off] = coef
            for i in range(dn):
                rem[off + i] = (rem[off + i] - coef * den[i]) % p
    return trim(quot), trim(rem)


def power(a: list[int], k: int, p: int, mod: list[int] | None = None) -> list[int]:
    """a^k, k >= 0, by repeated squaring; reduced modulo `mod` after each
    product when it is given."""
    def reduce(f):
        return f if mod is None else div_rem(f, mod, p)[1]

    out, base = [1], reduce(a)
    while k:
        if k & 1:
            out = reduce(mul(out, base, p))
        k >>= 1
        if k:
            base = reduce(mul(base, base, p))
    return out


def gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(g, s): g the monic gcd of a and b, and s with s a = g (mod b), by
    the extended Euclidean algorithm, which carries only the cofactor of
    a; gcd(0, 0) = [], with s = []."""
    r0, r1 = trim(a[:]), trim(b[:])
    s0, s1 = [1], []
    while r1:
        q, rem = div_rem(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if not r0:
        return [], []
    lead_inv = pow(r0[-1], -1, p)
    return [c * lead_inv % p for c in r0], [c * lead_inv % p for c in s0]


def is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test: f of degree n >= 1 is irreducible over F_p iff
    gcd(t^(p^i) - t mod f, f) = 1 for i = 1, ..., n/2, since a factor of
    degree i divides t^(p^i) - t."""
    n = len(f) - 1
    if n <= 0:
        return False
    h = [0, 1]
    for _ in range(n // 2):
        h = power(h, p, p, f)
        if len(gcdex(sub(h, [0, 1], p), f, p)[0]) > 1:
            return False
    return True


def prem(a, b, p: int):
    """The pseudo-remainder of a by b in F_p[x][y], deg_y a >= deg_y b:
    lc(b)^(deg a - deg b + 1) a reduced modulo b, one leading term at a
    time.  A polynomial in y is a list over the powers of y of int lists
    in x, with no trailing zero entry."""
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    for _ in range(len(a) - db):
        top = a.pop()
        off = len(a) - db
        a = [mul(lead, c, p) for c in a]
        for i in range(db):
            a[off + i] = sub(a[off + i], mul(top, b[i], p), p)
    return trim(a)


def eliminant(a, b, p: int) -> list[int]:
    """Res_y(a, b) up to sign, for a and b in F_p[x][y] written as in
    `prem`, by the subresultant PRS, whose divisions are exact in F_p[x];
    a itself when neither involves y.  Either way the result lies in the
    ideal (a, b), and it is [], the zero polynomial, exactly when a and b
    share a factor of positive degree in y (b = [] shares a itself).  No
    squarefree part is taken: in characteristic p, f / gcd(f, f') drops
    every factor whose multiplicity p divides."""
    if len(a) < len(b):
        a, b = b, a
    if len(a) == 1 or not b:
        return a[0] if len(a) == 1 else []
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        r = prem(a, b, p)
        if not r:
            return []
        den = mul(g, power(h, delta, p), p)
        a, b = b, [div_rem(c, den, p)[0] for c in r]
        g = a[-1]
        if delta:
            h = div_rem(power(g, delta, p), power(h, delta - 1, p), p)[0]
    da = len(a) - 1
    return div_rem(power(b[0], da, p), power(h, da - 1, p), p)[0]


# ----------------------------------------------------------------------
# polynomials over a field context

def to_sparse(coeffs) -> list[tuple[int, int]]:
    """The terms [(i, c)] of the nonzero coefficients of a dense list."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def to_dense(terms) -> list[int]:
    """The dense coefficient list of sparse terms [(i, c)]."""
    out = [0] * (max((i for i, _ in terms), default=-1) + 1)
    for i, c in terms:
        out[i] = c
    return out


def gcd(a: list[int], b: list[int], ctx) -> list[int]:
    """A gcd (not made monic) of two trimmed dense lists of encodings over
    ctx; gcd(0, 0) = [].  Each reduction step adds -(a_top / b_top) times
    b, which costs no negation per coefficient, and a nonzero constant
    ends the loop."""
    add, mul_ = ctx.add, ctx.mul
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a = a[:]
        lead = ctx.neg(ctx.inv(b[-1]))
        db = len(b) - 1
        while len(a) > db:
            c = mul_(a[-1], lead)
            if c:
                off = len(a) - 1 - db
                for i in range(db):
                    a[off + i] = add(a[off + i], mul_(c, b[i]))
            a.pop()
        a, b = b, trim(a)
    return b or a


@lru_cache(maxsize=None)
def _frobenius_orbits(ctx, k: int = 1):
    """[(y, s, d)], one entry per orbit of F^k on ctx, F the p-power
    Frobenius: y an element of the orbit, s the size of its F-orbit and
    d = s / gcd(k, s) that of its F^k-orbit.  An F-orbit of size s splits
    into gcd(k, s) orbits of F^k, through y, Fy, ..., F^(gcd(k, s) - 1) y
    for its least element y, listed in that order.  One pass marking a
    visited bytearray, so that each element is stepped once; built on
    first use and kept per context and k."""
    frob = ctx.frobenius
    seen = bytearray(ctx.size)
    out = []
    for x in range(ctx.size):
        if seen[x]:
            continue
        size, y = 1, frob(x)
        while y != x:
            seen[y] = 1
            size, y = size + 1, frob(y)
        g = math.gcd(k, size)
        for _ in range(g):
            out.append((y, size, size // g))
            y = frob(y)
    return tuple(out)


def roots(terms, ctx, k: int = 1) -> list[tuple[int, int]]:
    """[(y, s)]: one root y in ctx from each F^k-orbit of roots of the
    polynomial f with sparse `terms` over ctx, whose coefficients lie in
    F_{p^k}, and s the size of the Frobenius orbit of y.  Raises
    ValueError on the zero polynomial, terms = [], of which every element
    is a root.

    F^k fixes f, so it permutes the roots, and one element of each
    F^k-orbit (`_frobenius_orbits`) is evaluated, by `ctx.poly_at`.  A
    root with an F^k-orbit of size d has a minimal polynomial over
    F_{p^k} of degree d, which divides f, so only the orbits with
    d <= deg f are tried.  A linear f gives its root by one division."""
    if not terms:
        raise ValueError("every element is a root of the zero polynomial")
    top = terms[-1][0]
    if top == 1:
        c = dict(terms)
        y = ctx.div(ctx.neg(c.get(0, 0)), c[1])
        s, z = 1, ctx.frobenius(y)
        while z != y:
            s, z = s + 1, ctx.frobenius(z)
        return [(y, s)]
    at = ctx.poly_at
    return [(y, s) for y, s, d in _frobenius_orbits(ctx, k) if d <= top and not at(terms, y)]
