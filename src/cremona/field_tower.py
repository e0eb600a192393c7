"""Exact arithmetic in F_p and its extensions F_{p^n}, n <= 16.

Field elements are represented as plain ints: the base-p little-endian
encoding of the coefficient vector of a residue polynomial.  This gives a
bijection with {0, ..., p^n - 1}; the zero and one of the field are the
ints 0 and 1, and elements of the prime subfield F_p are the ints
0, ..., p-1 in every context of the same characteristic.  A `FieldCtx`
carries the modulus and all arithmetic: ints plus a context are the one
arithmetic path.  `FieldElement` only carries such a pair, (ctx, e), as
the parameter-side API (`param_point`, `orbit_from_seed`, `lambda_scan`,
...) and the `perfbench` workloads pass it; it has no arithmetic.

For fields of size up to 2^23 the context builds discrete-log tables
(exp/log, plus Zech logarithms in odd characteristic), so that every
field operation is a few table lookups.  This covers the whole working
tower F_q c F_{q^2} c F_{q^4} c F_{q^8} for q in {2, 3, 5, 7}.  Larger
contexts fall back to polynomial arithmetic.

Table layout: exp holds g^0..g^(u-1) twice over (u = size - 1 units), so
a product is the one lookup exp[log a + log b]; log and Zech hold one
entry per element and per unit.  Two builders serve the two table forms.
`_walk_tables` builds the tables of a field of up to 2^17 elements as
Python lists, which index about twice as fast as arrays, with a
Frobenius table besides, by one pure-Python walk of g^i.  The fields of
the q = 2 and q = 3 censuses, nodal pencils and lemmas are all of that
size, so those runs never import numpy.  `_array_tables` builds
the tables of a larger field as array('i'), 4 bytes an entry where a
list slot takes 8 (plus the int it points to), so F_{7^8} takes
4 (2u + size + u) bytes, about 88 MB, and takes x^p as the one lookup
exp[p log x mod u].  Each table is allocated once at its final size and
filled in place through a numpy view, so that the build makes no
table-sized copy: a fresh exp table by baby and giant steps over the
F_p matrix of x -> x g, a few thousand rows a step (`_fill_exp_table`),
and the log scatter and the Zech pass a chunk at a time.  The
split sits where the walk costs about what the import of numpy and the
array build cost together (at 7^6, about 0.1 s either way).
From 2^20 elements on, the exp table is cached on disk as an int32 .npy
file under `cache_dir()`, whose body is read straight into the first
half of exp.  A cached table is used only after it passes checks of its
header (dtype, shape and order) and length, of its range, of bijectivity
onto the units, of its generator and of seeded products against the
polynomial arithmetic; any failure rebuilds it and rewrites the file.

Subfields of F_{q^n} are not separate contexts: membership in F_{q^d}
is the predicate x^(q^d) == x, and every Galois orbit, of an element or
of a point, is the one walk `frobenius_orbit`.

Linear algebra has one elimination kernel, the fused row operation
`FieldCtx.row_sub(a, f, b)` = a - f*b.  With tables it does the lookups
of `mul` and `add` inline: in characteristic 2 an entry is
a ^ exp[log f + log b]; in odd characteristic log(-f) = log f + u/2 (mod
u), the product is one exp lookup and the sum one Zech lookup.  Contexts
without tables fall back to `mul` and `sub` per entry.  `rank` runs
forward elimination alone (`_eliminate`: no pivot is normalised, nothing
above a pivot is cleared, one `div` per eliminated row); `nullspace`
follows that pass with a backward one to the reduced echelon form, with
the same row operation.  Its one caller in `src/` is
`nodal_cubic.cubic_pencil_basis`, on the F_p relations among ten values;
the general-position test finds its F_p kernel by eliminating on the
field elements themselves (`general_position._prime_kernel`).

A polynomial with coefficients in the context is evaluated by the fused
`FieldCtx.poly_at`: with tables, c x^i is the one exp lookup
g^(log c + i log x).  It is the one univariate evaluator of the
package; its callers are the root scan `polynomial.roots`, the chart
rows of `nodal_cubic._SingularLocus._fibre` and f'(x) in
`general_position._dual_basis`.  Every other polynomial operation, and
the arithmetic of contexts without tables, lives in `polynomial`, on int
coefficient lists over F_p.
"""

from __future__ import annotations

import math
import os
import random
from array import array
from functools import lru_cache
from typing import NamedTuple

from . import polynomial as poly

__all__ = [
    "FieldCtx",
    "FieldElement",
    "ZeroElement",
    "cache_dir",
    "euler_phi",
    "find_modulus",
    "frobenius_orbit",
    "get_ctx",
    "nullspace",
    "rank",
]

# Above this size no log/zech tables are built and the context falls
# back to polynomial arithmetic (7^8 = 5764801 stays below the limit).
_TABLE_LIMIT = 1 << 23

# Up to this size `_walk_tables` builds the tables as Python lists, which
# index about twice as fast as arrays at 3^8 entries, without numpy; above
# it `_array_tables` builds them as array('i') with numpy, 4 bytes an entry
# where a list slot takes 8 (plus the int it points to).  At 7^6, just
# below, the walk takes about as long as importing numpy and building.
_LIST_LIMIT = 1 << 17

# Entries per step of the log scatter and the Zech pass: at 2^18 no
# temporary comes near the size of a large field's table (2^20 peaked
# 7 MB higher at 7^8).
_CHUNK = 1 << 18


class ZeroElement(ZeroDivisionError):
    """Inverse or multiplicative order of 0 was requested."""


def cache_dir() -> str:
    """Where field tables and census results are cached: $CREMONA_CACHE_DIR,
    or ~/.cache/cremona when it is unset or empty."""
    return os.environ.get("CREMONA_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "cremona"
    )


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division (m up to ~2^50 is fine here)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Euler totient via trial-division factorization."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def _decode(e: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(e % p)
        e //= p
    return out


def _encode(coeffs, p: int) -> int:
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


def find_modulus(p: int, n: int) -> tuple[int, ...]:
    """The monic irreducible degree-n polynomial over F_p of minimal encoding.

    The encoding of a polynomial is the base-p little-endian value of its
    full coefficient vector (leading 1 included), so the result is a
    deterministic golden constant per (p, n).
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not 1 <= n <= 16:
        raise ValueError("degree must be in 1..16")
    for low in range(p ** n):
        f = _decode(low, p, n) + [1]
        if poly.is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ----------------------------------------------------------------------

class FieldCtx:
    """Arithmetic context for F_{p^n} = F_p[t]/(modulus).

    All operations take and return int encodings.  Contexts are immutable
    after construction and safe to share across workers.
    """

    def __init__(self, p: int, n: int, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not 1 <= n <= 16:
            raise ValueError("degree must be in 1..16")
        self.p = p
        self.n = n
        self.size = p ** n
        if modulus is None:
            modulus = find_modulus(p, n)  # proved irreducible there
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if not poly.is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self._units = self.size - 1
        self._exp = self._log = self._zech = None
        self._frob_table = None
        self._as_root = None
        if self.size <= _TABLE_LIMIT:
            self._build_tables()

    # -- construction of log tables ------------------------------------

    def _find_generator_poly(self) -> list[int]:
        """Smallest-encoding multiplicative generator, via polynomial pow."""
        if self._units == 1:
            return [1]
        fac = factorize(self._units)
        mod = list(self.modulus)
        for enc in range(2, self.size):
            g = _decode(enc, self.p, self.n)
            if all(
                poly.power(g, self._units // ell, self.p, mod) != [1]
                for ell in fac
            ):
                return g
        raise AssertionError("no generator found")  # unreachable

    def _table_cache_path(self):
        enc = _encode(self.modulus, self.p)
        return os.path.join(cache_dir(), f"gftab_p{self.p}_n{self.n}_m{enc}.npy")

    def _build_tables(self):
        """exp (doubled, so that mul is one lookup), log and, in odd
        characteristic, Zech logs: as lists by `_walk_tables` up to
        _LIST_LIMIT elements, with a Frobenius table besides, and as
        array('i') by `_array_tables` above it."""
        if self.size <= _LIST_LIMIT:
            self._exp, self._log, self._zech, self._frob_table = self._walk_tables()
        else:
            self._exp, self._log, self._zech = self._array_tables()

    def _walk_tables(self):
        """(exp, log, zech, frob) as lists, by one pure-Python walk of g^i
        for the generator g of `_find_generator_poly`.

        The walk keeps g^i packed, digit k in bits w k .. w k + w - 1 with
        w = p.bit_length() + 1.  A lane then holds the sum of two digits,
        and adding 2^(w-1) - p to every lane sets its top bit, with no
        carry, exactly where that sum is p or more, so one subtraction of
        p at those bits reduces every lane.  x -> x g is F_p-linear, so
        the next power is the sum of the products with g of the low and
        the high digits of the current one, each read from a dict keyed
        by those packed digits; two more dicts give the encoding.  zech
        and frob are gathers through log.
        """
        p, n, units = self.p, self.n, self._units
        g = _encode(self._find_generator_poly(), p)
        top = p.bit_length()  # the guard bit of a lane
        w = top + 1
        ones = sum(1 << (w * k) for k in range(n))
        flag = ((1 << top) - p) * ones

        def reduce(c):
            return c - ((c + flag) >> top & ones) * p

        def pack(e):
            return sum(d << (w * k) for k, d in enumerate(_decode(e, p, n)))

        def half(lo, hi):
            # ({key: encoding}, {key: product with g, packed}) over the
            # elements with digits in positions lo .. hi - 1 alone
            rows = [(0, 0, 0)]  # (key, encoding, product)
            for k in range(lo, hi):
                shift, pk = w * (k - lo), p ** k
                col = [0, pack(self._mul_poly(pk, g))]  # d t^k g for d < p
                while len(col) < p:
                    col.append(reduce(col[-1] + col[1]))
                rows = [(key + (d << shift), e + d * pk, reduce(prod + col[d]))
                        for d in range(p) for key, e, prod in rows]
            return {key: e for key, e, _ in rows}, {key: c for key, _, c in rows}

        h = (n + 1) // 2
        enc_lo, mul_lo = half(0, h)
        enc_hi, mul_hi = half(h, n)
        mask, shift = (1 << (w * h)) - 1, w * h
        first, log = [0] * units, [-1] * self.size
        c = 1
        for i in range(units):
            lo, hi = c & mask, c >> shift
            e = first[i] = enc_lo[lo] + enc_hi[hi]
            log[e] = i
            c = mul_lo[lo] + mul_hi[hi]
            c -= ((c + flag) >> top & ones) * p  # reduce(c), inline
        zech = None
        if p != 2:
            # z(i) = log(g^i + 1): 1 added to the constant digit, mod p,
            # and -1 (log[0], not yet set) where g^i = -1
            zech = [log[e + 1] if (e + 1) % p else log[e + 1 - p] for e in first]
        log[0] = 0  # never read: all ops guard zero
        frob = [first[i * p % units] for i in log]
        frob[0] = 0
        return first * 2, log, zech, frob

    def _array_tables(self):
        """(exp, log, zech) as array('i'), each allocated once at its final
        size and filled in place through a numpy view, a chunk at a time,
        so that no temporary comes near the size of a table."""
        import numpy as np

        p, units = self.p, self._units
        cache = self._table_cache_path() if self.size > (1 << 20) else None
        tables = self._load_exp_table(np, cache) if cache else None
        exp, log = tables or self._fresh_tables(np, cache)
        ev, lv = np.frombuffer(exp, np.int32), np.frombuffer(log, np.int32)
        first = ev[:units]
        ev[units:] = first
        zech = None
        if p != 2:
            # z(i) = log(g^i + 1), or -1 where g^i = -1 (log[0] is still -1)
            zech = array("i", [0]) * units
            zv = np.frombuffer(zech, np.int32)
            for lo in range(0, units, _CHUNK):
                seg = first[lo: lo + _CHUNK] + 1  # 1 added to the constant coefficient, mod p
                seg[seg % p == 0] -= p
                zv[lo: lo + _CHUNK] = lv[seg]
        log[0] = 0  # was the Zech pass's -1 marker; never read, all ops guard zero
        return exp, log, zech

    def _fresh_tables(self, np, cache):
        """(exp, log) as array('i'), the first half of exp filled in place
        by `_fill_exp_table` and then written to the file `cache`, if any,
        through a temporary and os.replace."""
        exp = array("i", [0]) * (2 * self._units)
        first = np.frombuffer(exp, np.int32)[: self._units]
        self._fill_exp_table(np, first)
        if cache:
            try:
                os.makedirs(os.path.dirname(cache), exist_ok=True)
                tmp = cache + ".tmp"
                np.save(tmp, first)
                os.replace(tmp + ".npy", cache)
            except OSError:
                pass
        return exp, self._log_table(np, exp)

    def _log_table(self, np, exp):
        """log[exp[i]] = i for i < units, from the first half of the
        array('i') exp, as an array('i') filled by a scatter a chunk at a
        time; log[0] stays -1, as does any unit exp misses."""
        log = array("i", [-1]) * self.size
        units = self._units
        ev, lv = np.frombuffer(exp, np.int32)[:units], np.frombuffer(log, np.int32)
        for lo in range(0, units, _CHUNK):
            lv[ev[lo: lo + _CHUNK]] = np.arange(lo, min(lo + _CHUNK, units), dtype=np.int32)
        return log

    def _load_exp_table(self, np, path):
        """(exp, log) as array('i') from the cached exp table at `path`, or
        None (a cache miss, and the table is rebuilt) when the file cannot
        be read or does not hold this field's exp table.  The body is read
        straight into the first half of exp; on a miss both tables go with
        this call, so the rebuild starts from fresh ones.

        The checks: a version 1.0 .npy header of int32, shape (units,) and
        C order, over a body of that length; exp[0] = 1 and every entry a
        unit; exp a bijection onto the units (no slot of log left unset);
        exp[1] the generator `_fill_exp_table` uses; and seeded spot
        products against polynomial multiplication.
        """
        fmt, units = np.lib.format, self._units
        try:
            with open(path, "rb") as fh:
                header = fmt.read_magic(fh) == (1, 0) and fmt.read_array_header_1_0(fh)
                if header != ((units,), False, np.dtype(np.int32)):
                    return None
                exp = array("i", [0]) * (2 * units)
                if fh.readinto(memoryview(exp).cast("B")[: 4 * units]) != 4 * units:
                    return None
        except (OSError, ValueError):
            return None
        first = np.frombuffer(exp, np.int32)[:units]
        if first[0] != 1 or first.min() < 1 or first.max() >= self.size:
            return None
        log = self._log_table(np, exp)
        if np.frombuffer(log, np.int32)[1:].min() < 0:
            return None
        if first[1] != _encode(self._find_generator_poly(), self.p):
            return None
        rnd = random.Random(units)
        for _ in range(16):
            i, j = rnd.randrange(units), rnd.randrange(units)
            if first[(i + j) % units] != self._mul_poly(int(first[i]), int(first[j])):
                return None
        return exp, log

    def _fill_exp_table(self, np, out):
        """out[i] = g^i for the generator g of `_find_generator_poly`, in
        place, by baby and giant steps over the float64 F_p matrix M(c) of
        x -> x c, whose row k holds the digits of t^k c, so that a row of
        digits times M(c) is the product with c.  The baby rows g^0..g^(B-1)
        come by doubling, which leaves M(g^B); each giant block is the baby
        rows times M(g^(B j)), encoded by the weights p^k.  Every entry of
        a product is below n p^2 < 2^53, so float64 is exact."""
        p, n, units = self.p, self.n, self._units
        g = _encode(self._find_generator_poly(), p)
        jump = np.array([_decode(self._mul_poly(p ** k, g), p, n) for k in range(n)], float)
        block = 1 << (units.bit_length() // 2 + 1)  # B, a power of two near 2 sqrt(u)
        baby = np.zeros((block, n))
        baby[0, 0] = 1
        k = 1
        while k < block:
            baby[k: 2 * k] = baby[:k] @ jump % p
            jump = jump @ jump % p
            k *= 2
        weights, step = p ** np.arange(n, dtype=float), np.eye(n)
        for lo in range(0, units, block):
            out[lo: lo + block] = (baby[: units - lo] @ step % p) @ weights
            step = step @ jump % p

    # -- scalar arithmetic on encodings ---------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._exp is None:
            return self._add_poly(a, b)
        if a == 0:
            return b
        if b == 0:
            return a
        la, lb = self._log[a], self._log[b]
        d = lb - la
        if d < 0:
            d += self._units
        z = self._zech[d]
        if z < 0:
            return 0
        return self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        if self._exp is None:
            return self._neg_poly(a)
        return self._exp[self._log[a] + self._units // 2]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is None:
            return self._mul_poly(a, b)
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("inverse of zero")
        if self._exp is None:
            return self._inv_poly(a)
        return self._exp[self._units - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def row_sub(self, a: list, f: int, b: list) -> list:
        """The row a - f*b, for f != 0: the row operation of elimination,
        with the lookups of `mul` and `add` inlined (one exp lookup for
        the product, and in odd characteristic one Zech lookup for the
        sum); without tables, `mul` and `sub` per entry."""
        if self._exp is None:
            mul, sub = self.mul, self.sub
            return [sub(x, mul(f, y)) for x, y in zip(a, b)]
        exp, log = self._exp, self._log
        if self.p == 2:
            lf = log[f]
            return [x ^ exp[lf + log[y]] if y else x for x, y in zip(a, b)]
        units, zech = self._units, self._zech
        lf = (log[f] + units // 2) % units  # log(-f)
        out = []
        for x, y in zip(a, b):
            if not y:
                out.append(x)
            elif not x:
                out.append(exp[lf + log[y]])
            else:
                # x - f*y = x (1 + (-f*y)/x), and log(1 + g^d) = zech[d]
                lx = log[x]
                z = zech[(lf + log[y] - lx) % units]
                out.append(exp[lx + z] if z >= 0 else 0)
        return out

    def poly_at(self, terms, x: int) -> int:
        """The value at x of the polynomial sum of c x^i over `terms`,
        pairs (i, c) with c a nonzero element of the context.  With tables
        each term is the one exp lookup c x^i = g^(log c + i log x), where
        i log x is reduced mod the units and exp is doubled, and in
        characteristic 2 the sum is an inline xor.  At x = 0 the value is
        the constant term, and without tables `pow` and `mul` per term."""
        if x == 0:
            return dict(terms).get(0, 0)
        add = self.add
        if self._exp is None:
            mul, pw = self.mul, self.pow
            acc = 0
            for i, c in terms:
                acc = add(acc, mul(c, pw(x, i)))
            return acc
        exp, log, units = self._exp, self._log, self._units
        lx = log[x]
        acc = 0
        if self.p == 2:
            for i, c in terms:
                acc ^= exp[log[c] + i * lx % units]
            return acc
        for i, c in terms:
            acc = add(acc, exp[log[c] + i * lx % units])
        return acc

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroElement("negative power of zero")
            return 0
        if self._exp is None:
            if k < 0:
                return self._inv_poly(self._pow_poly(a, -k))
            return self._pow_poly(a, k)
        return self._exp[(self._log[a] * k) % self._units]

    def frobenius(self, a: int) -> int:
        """x -> x^p, the generating field automorphism: one lookup in the
        Frobenius table of a small field, else with tables the one exp
        lookup g^(p log x mod u)."""
        if self._frob_table is not None:
            return self._frob_table[a]
        if self._exp is not None:
            return self._exp[self._log[a] * self.p % self._units] if a else 0
        return self.pow(a, self.p)

    def frobenius_iter(self, a: int, i: int) -> int:
        """x -> x^(p^i)."""
        if self._exp is not None and a != 0:
            return self._exp[(self._log[a] * pow(self.p, i, self._units)) % self._units]
        for _ in range(i):
            a = self.frobenius(a)
        return a

    def in_subfield(self, a: int, d: int) -> bool:
        """Membership in F_{p^d} inside this field (x^(p^d) == x)."""
        return self.frobenius_iter(a, d) == a

    def order(self, a: int) -> int:
        """Multiplicative order, via factorization of p^n - 1."""
        if a == 0:
            raise ZeroElement("order of zero")
        if self._exp is not None:
            return self._units // math.gcd(self._log[a], self._units)
        m = self._units
        for ell, e in factorize(self._units).items():
            for _ in range(e):
                if self.pow(a, m // ell) == 1:
                    m //= ell
                else:
                    break
        return m

    def sqrt(self, a: int):
        """A square root of a, or None if a is not a square."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, self.size // 2)  # Frobenius inverse
        if self._exp is None:
            raise NotImplementedError("sqrt needs log tables")
        la = self._log[a]
        if la % 2:
            return None
        return self._exp[la // 2]

    def quadratic_roots(self, a: int, b: int, c: int):
        """Roots in the field of a*y^2 + b*y + c.

        Returns a list of roots (without multiplicity), or None when the
        polynomial is identically zero (every element is a root).
        """
        if a == 0:
            if b == 0:
                return None if c == 0 else []
            return [self.div(self.neg(c), b)]
        if self.p == 2:
            if b == 0:
                return [self.sqrt(self.div(c, a))]
            if self._as_root is None:
                self._build_as_table()
            w = self.mul(self.mul(c, a), self.pow(self.inv(b), 2))
            u = self._as_root[w]
            if u < 0:
                return []
            t = self.div(b, a)
            return [self.mul(t, u), self.mul(t, u ^ 1)]
        disc = self.sub(self.mul(b, b), self.mul(4 % self.p, self.mul(a, c)))
        s = self.sqrt(disc)
        if s is None:
            return []
        inv2a = self.inv(self.mul(2 % self.p, a))
        r1 = self.mul(self.add(self.neg(b), s), inv2a)
        if s == 0:
            return [r1]
        r2 = self.mul(self.sub(self.neg(b), s), inv2a)
        return [r1, r2]

    def _build_as_table(self):
        # u^2 + u = v has solutions {u, u+1}; store one representative.
        tab = [-1] * self.size
        for u in range(self.size):
            v = self.mul(u, u) ^ u
            if tab[v] < 0:
                tab[v] = u
        self._as_root = tab

    # -- fallback polynomial arithmetic (size > _TABLE_LIMIT) -----------

    def _coeffs(self, a: int) -> list[int]:
        return _decode(a, self.p, self.n)

    def _add_poly(self, a: int, b: int) -> int:
        p = self.p
        ca, cb = self._coeffs(a), self._coeffs(b)
        return _encode([(x + y) % p for x, y in zip(ca, cb)], p)

    def _neg_poly(self, a: int) -> int:
        p = self.p
        return _encode([(-x) % p for x in self._coeffs(a)], p)

    def _mul_poly(self, a: int, b: int) -> int:
        p = self.p
        prod = poly.mul(self._coeffs(a), self._coeffs(b), p)
        return _encode(poly.div_rem(prod, list(self.modulus), p)[1], p)

    def _pow_poly(self, a: int, k: int) -> int:
        return _encode(poly.power(self._coeffs(a), k, self.p, list(self.modulus)), self.p)

    def _inv_poly(self, a: int) -> int:
        # the cofactor s of s a = 1 mod the (irreducible) modulus
        return _encode(poly.gcdex(self._coeffs(a), list(self.modulus), self.p)[1], self.p)

    # -- digits and serialization ----------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(_decode(a, self.p, self.n))

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))


@lru_cache(maxsize=None)
def get_ctx(p: int, n: int) -> FieldCtx:
    """Shared context with the canonical (minimal-encoding) modulus."""
    return FieldCtx(p, n)


class FieldElement(NamedTuple):
    """An element of F_{p^n} as its context and int encoding, passed whole
    where an API takes one element; arithmetic goes through `ctx`."""

    ctx: FieldCtx
    e: int


def frobenius_orbit(ctx: FieldCtx, x: tuple) -> list[tuple]:
    """[x, F(x), F^2(x), ...] up to the first repetition, where x is a
    tuple of encodings and F applies the p-power Frobenius to each entry
    (a scalar is a 1-tuple).  Its length divides ctx.n."""
    frob = ctx.frobenius
    orbit = [x]
    cur = tuple(map(frob, x))
    while cur != x:
        orbit.append(cur)
        cur = tuple(map(frob, cur))
    return orbit


# ----------------------------------------------------------------------
# exact linear algebra over a field context

def _eliminate(rows, ctx):
    """Forward elimination in place; returns the list of pivot columns.
    Row k < len(pivots) then has its first nonzero entry in column
    pivots[k], and the rows below the last pivot row are zero.  Pivots are
    not normalised and nothing above them is cleared.

    Pivot choice is deterministic: for each column in order, the first
    remaining row with a nonzero entry.
    """
    row_sub, div = ctx.row_sub, ctx.div
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if v:
                rows[i] = row_sub(rows[i], div(v, piv), top)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(matrix, ctx: FieldCtx) -> int:
    """The rank of a grid of int encodings over ctx, from forward
    elimination alone (`_eliminate`): the number of pivots of a row
    echelon form, which is not reduced."""
    rows = [[int(v) for v in row] for row in matrix]
    if not rows:
        return 0
    return len(_eliminate(rows, ctx))


def nullspace(matrix, ctx: FieldCtx) -> list[list[int]]:
    """Basis of the right kernel of a grid of int encodings over ctx, as
    int vectors in reduced echelon form.

    The forward pass of `rank` is followed by a backward one, from the
    last pivot row up, that scales each pivot to 1 and clears its column
    above it with the same row operation, `FieldCtx.row_sub`.  Each free
    column gives one basis vector, read off the reduced rows.  Raises
    ValueError on an empty grid: it has no column count, and the kernel
    of no equations is the whole space, of a dimension it does not give.
    """
    rows = [[int(v) for v in row] for row in matrix]
    if not rows:
        raise ValueError("nullspace of an empty grid: no column count")
    ncols = len(rows[0])
    pivots = _eliminate(rows, ctx)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        top = rows[r]
        if top[c] != 1:
            inv = ctx.inv(top[c])
            rows[r] = top = [ctx.mul(inv, v) for v in top]
        for i in range(r):
            v = rows[i][c]
            if v:
                rows[i] = ctx.row_sub(rows[i], v, top)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = ctx.neg(rows[r][fc])
        basis.append(vec)
    return basis
