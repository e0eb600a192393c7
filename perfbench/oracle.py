"""Reference computations for the benchmark's checks, written apart from
the `cremona` package and importing nothing from it.

* `Field`: arithmetic in F_p[t]/(f) for a monic irreducible f.  Elements
  are ints holding the base-p little-endian coefficient vector, the same
  encoding the program uses, so the two can exchange values.  Products
  are plain polynomial products reduced by f; for fields of at most
  2^16 elements the products are tabulated once (log/exp tables built
  from those plain products).
* `rank`: fraction-free row echelon form, no inverses needed.
* `in_general_position`: no 3 of 8 points collinear, no 6 on a conic, no
  cubic through all 8 singular at one of them, by the definitions.
* `nodal_member_count`: the nodal members of the cubic pencil through a
  degree-8 orbit over F_2, level by level, found by evaluating every
  member and its partials at every point of P^2(F_{2^m}).
* `exceptional_curves`: the classical (-1)-curves of the blow-up of the
  plane at up to 4 points in general position.
"""

from __future__ import annotations

import itertools

TABLE_LIMIT = 1 << 16


def _is_prime(m):
    return m >= 2 and all(m % d for d in range(2, int(m ** 0.5) + 1))


def _prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _poly_rem(num, den, p):
    """Remainder of num by the monic den over F_p (coefficient lists)."""
    num = list(num)
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] % p
        if c:
            for i in range(dn + 1):
                num[k - dn + i] -= c * den[i]
    return [c % p for c in num[:dn]]


def smallest_irreducible(p, n):
    """The monic irreducible of degree n over F_p whose low coefficients,
    read as a base-p number, are smallest (found by trial division)."""
    for low in range(p ** n):
        f = [(low // p ** i) % p for i in range(n)] + [1]
        if f[0] == 0 and n > 1:
            continue
        if all(
            any(_poly_rem(f, [(e // p ** i) % p for i in range(d)] + [1], p))
            for d in range(1, n // 2 + 1)
            for e in range(p ** d)
        ):
            return tuple(f)
    raise ValueError(f"no irreducible of degree {n} over F_{p}")


class Field:
    """F_p[t]/(modulus), modulus monic of degree n, given low degree first."""

    def __init__(self, p, modulus):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.modulus = tuple(int(c) % p for c in modulus)
        self.n = len(self.modulus) - 1
        if self.n < 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.size = p ** self.n
        self._exp = self._log = None
        if self.size <= TABLE_LIMIT:
            self._tabulate()

    # -- plain polynomial arithmetic ---------------------------------------

    def digits(self, a):
        p = self.p
        out = []
        for _ in range(self.n):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def encode(self, digits):
        e = 0
        for c in reversed(digits):
            e = e * self.p + c % self.p
        return e

    def plain_mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return self.encode(_poly_rem(prod, self.modulus, self.p))

    def plain_pow(self, a, k):
        out = 1
        while k:
            if k & 1:
                out = self.plain_mul(out, a)
            a = self.plain_mul(a, a)
            k >>= 1
        return out

    def _tabulate(self):
        units = self.size - 1
        if units == 1:
            self._exp, self._log = [1, 1], {1: 0}
            return
        factors = _prime_factors(units)
        g = next(
            c for c in range(2, self.size)
            if all(self.plain_pow(c, units // ell) != 1 for ell in factors)
        )
        exp = [1] * units
        for i in range(1, units):
            exp[i] = self.plain_mul(exp[i - 1], g)
        log = [0] * self.size
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp + exp
        self._log = log

    # -- field operations --------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.encode([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a, b):
        if self._exp is None:
            return self.plain_mul(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def pow(self, a, k):
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def in_subfield(self, a, d):
        """a lies in F_{p^d}, i.e. a^(p^d) = a."""
        b = a
        for _ in range(d):
            b = self.frobenius(b)
        return b == a

    def elements(self):
        return range(self.size)


# ----------------------------------------------------------------------
# linear algebra and plane geometry

def rank(F, rows):
    """Rank by fraction-free forward elimination: row_i <- a.row_i - b.row_pivot."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    mul, sub = F.mul, F.sub
    rk = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        top = rows[rk]
        a = top[c]
        for i in range(rk + 1, len(rows)):
            b = rows[i][c]
            if b:
                rows[i] = [sub(mul(a, x), mul(b, y)) for x, y in zip(rows[i], top)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def exponents(d):
    """Exponent triples of the plane monomials of degree d."""
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


def monomial_value(F, point, expo):
    v = 1
    for c, e in zip(point, expo):
        for _ in range(e):
            v = F.mul(v, c)
    return v


def normalize(F, point):
    """Scale a coordinate triple so its first nonzero entry is 1."""
    lead = next(c for c in point if c)
    if lead == 1:
        return tuple(point)
    inv = F.inv(lead)
    return tuple(F.mul(inv, c) for c in point)


def apply_matrix(F, matrix, point):
    """matrix . point over F (matrix entries in the prime field), normalized."""
    out = []
    for row in matrix:
        acc = 0
        for m, c in zip(row, point):
            acc = F.add(acc, F.mul(m % F.p, c))
        out.append(acc)
    return normalize(F, out)


def random_pgl3(q, rng):
    """A uniformly random invertible 3x3 matrix over F_q, q prime."""
    while True:
        m = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det % q:
            return m


def _det3(F, a, b, c):
    mul, sub = F.mul, F.sub
    return sub(
        F.add(
            mul(a[0], sub(mul(b[1], c[2]), mul(b[2], c[1]))),
            mul(a[2], sub(mul(b[0], c[1]), mul(b[1], c[0]))),
        ),
        mul(a[1], sub(mul(b[0], c[2]), mul(b[2], c[0]))),
    )


def _gradient_rows(F, point, degree):
    """For each variable, the row of d/dx_var of every degree-d monomial at point."""
    rows = []
    for var in range(3):
        row = []
        for expo in exponents(degree):
            e = expo[var] % F.p
            if e == 0:
                row.append(0)
                continue
            lower = list(expo)
            lower[var] -= 1
            row.append(F.mul(e, monomial_value(F, point, lower)))
        rows.append(row)
    return rows


def in_general_position(F, points):
    """True iff the 8 points (homogeneous triples over F) are distinct
    projectively and no 3 are collinear, no 6 lie on a conic, and no
    cubic through all 8 is singular at one of them."""
    if len(points) != 8:
        raise ValueError("eight points required")
    if len({normalize(F, p) for p in points}) != 8:
        return False
    for a, b, c in itertools.combinations(points, 3):
        if _det3(F, a, b, c) == 0:
            return False
    conic = [[monomial_value(F, p, e) for e in exponents(2)] for p in points]
    for six in itertools.combinations(range(8), 6):
        if rank(F, [conic[i] for i in six]) < 6:
            return False
    cubic = [[monomial_value(F, p, e) for e in exponents(3)] for p in points]
    for p in points:
        if rank(F, cubic + _gradient_rows(F, p, 3)) < 10:
            return False
    return True


def nodal_orbit(F, q, c0, a):
    """The Frobenius orbit of a in F_{q^8} mapped onto the nodal cubic
    xyz = c0 x^3 - c0 z^3 by b -> [b^2 : c0 (b^3 - 1) : b]
    (that is, [b : c0 (b^3 - 1)/b : 1] cleared of its denominator)."""
    pts = []
    b = a
    for _ in range(8):
        b3 = F.mul(F.mul(b, b), b)
        pts.append((F.mul(b, b), F.mul(c0 % q, F.sub(b3, 1)), b))
        b = F.frobenius(b)
    if b != a:
        raise ValueError("parameter orbit does not close after 8 steps")
    return pts


# ----------------------------------------------------------------------
# nodal members of the cubic pencil through a degree-8 orbit over F_2

def projective_plane(F):
    """Every point of P^2(F) once, first nonzero coordinate 1."""
    yield (0, 0, 1)
    for z in F.elements():
        yield (0, 1, z)
    for y in F.elements():
        for z in F.elements():
            yield (1, y, z)


def cubic_pencil(F8, points):
    """The nonzero cubics with F_2 coefficients through the points, found
    by trying all 1023 coefficient vectors."""
    monos = exponents(3)
    values = [[monomial_value(F8, p, e) for e in monos] for p in points]
    members = []
    for vec in itertools.product((0, 1), repeat=10):
        if not any(vec):
            continue
        if all(
            _xor_select(row, vec) == 0 for row in values
        ):
            members.append(vec)
    return members


def _xor_select(values, vec):
    acc = 0
    for v, c in zip(values, vec):
        if c:
            acc ^= v
    return acc


def _form_value(F, coeffs, monos, point):
    acc = 0
    for c, e in zip(coeffs, monos):
        if c:
            acc = F.add(acc, F.mul(c, monomial_value(F, point, e)))
    return acc


def _partials(F, coeffs, monos):
    """Coefficient/exponent lists of the three partial derivatives."""
    out = []
    for var in range(3):
        cs, es = [], []
        for c, e in zip(coeffs, monos):
            k = e[var] % F.p
            if c and k:
                lower = list(e)
                lower[var] -= 1
                cs.append(F.mul(k, c))
                es.append(tuple(lower))
        out.append((cs, es))
    return out


def _is_node(F, coeffs, monos, point):
    """The singular point is an ordinary double point: the quadratic part
    of the local expansion in the chart where its leading coordinate is 1
    is a product of two distinct linear forms over the closure."""
    w = next(i for i, c in enumerate(point) if c)
    i, j = [k for k in range(3) if k != w]
    a = b = c = 0  # quadratic part a.u^2 + b.uv + c.v^2 in the shifts of x_i, x_j
    for coef, e in zip(coeffs, monos):
        if not coef:
            continue
        ei, ej = e[i], e[j]
        if ei >= 2:
            rest = list(e)
            rest[i] -= 2
            a = F.add(a, F.mul(coef, F.mul((ei * (ei - 1) // 2) % F.p,
                                            monomial_value(F, point, rest))))
        if ei >= 1 and ej >= 1:
            rest = list(e)
            rest[i] -= 1
            rest[j] -= 1
            b = F.add(b, F.mul(coef, F.mul((ei * ej) % F.p,
                                            monomial_value(F, point, rest))))
        if ej >= 2:
            rest = list(e)
            rest[j] -= 2
            c = F.add(c, F.mul(coef, F.mul((ej * (ej - 1) // 2) % F.p,
                                            monomial_value(F, point, rest))))
    if a == 0 and b == 0 and c == 0:
        return False
    if F.p == 2:
        return b != 0
    return F.sub(F.mul(b, b), F.mul(4 % F.p, F.mul(a, c))) != 0


def nodal_member_count(F8, points, cap):
    """Members of the pencil of cubics through the 8 points (an orbit over
    F_2) that are defined over F_{2^m} for some m <= cap, have exactly one
    singular point in P^2(F_{2^m}) at their level m, and that point is a
    node.  Each member is counted once, at the smallest m it is defined over."""
    if F8.p != 2:
        raise ValueError("the brute-force count is written for q = 2")
    pencil = cubic_pencil(F8, points)
    if len(pencil) != 3:
        raise ValueError(
            f"the cubics through the points form no pencil ({len(pencil)} members over F_2)")
    g1, g2 = pencil[0], pencil[1]
    monos = exponents(3)
    count = 0
    for m in range(1, cap + 1):
        K = Field(2, smallest_irreducible(2, m))
        proper = [d for d in range(1, m) if m % d == 0]
        plane = list(projective_plane(K))
        members = [(1, t) for t in K.elements()] + [(0, 1)]
        for s, t in members:
            if any(K.in_subfield(s, d) and K.in_subfield(t, d) for d in proper):
                continue
            coeffs = [K.add(K.mul(s, x), K.mul(t, y)) for x, y in zip(g1, g2)]
            parts = _partials(K, coeffs, monos)
            sing = [
                pt for pt in plane
                if _form_value(K, coeffs, monos, pt) == 0
                and all(_form_value(K, cs, es, pt) == 0 for cs, es in parts)
            ]
            if len(sing) == 1 and _is_node(K, coeffs, monos, sing[0]):
                count += 1
    return count


# ----------------------------------------------------------------------
# Picard lattices

def exceptional_curves(r):
    """The (-1)-curves on the blow-up of P^2 at r <= 4 points in general
    position: E_i and H - E_i - E_j, as {label: coefficient} maps."""
    if r > 4:
        raise ValueError("conics through five points appear from r = 5 on")
    out = [{f"E{i + 1}": 1} for i in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        out.append({"H": 1, f"E{i + 1}": -1, f"E{j + 1}": -1})
    return out
