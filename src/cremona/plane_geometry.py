"""Exact projective plane over a finite field context.

Points are normalized homogeneous coordinate triples (first nonzero
coordinate equal to 1), curves are degree-d forms with coefficients
listed in a fixed monomial order (lexicographic on exponent triples,
descending), and plane transformations are normalized 3x3 matrices over
the prime subfield, i.e. representatives of PGL_3(F_q).

The incidence predicates that define general position for a degree-8
point are provided here: collinearity of a triple, existence of a conic
through six points (degenerate conics count), and existence of a cubic
singular at one point of an 8-tuple and passing through the rest.  All
three are pure kernel/determinant conditions, hence PGL-invariant.

Forms are evaluated at a point through one path, `veronese_rows`: the
values of all monomials of each degree up to d, each one product of an
entry of the row a degree lower with a coordinate.  `hasse_row` reads
the Hasse derivative D^(s) of every monomial of degree d off the row of
degree d - |s| among the rows the caller built once for the point,
since D^(s) x^e = binom(e, s) x^(e - s) with binom(e, s) the product of
the binomials of the three exponents.  Those binomials are integers,
taken mod p, so no division by s! is made and the rows, the partials
(|s| = 1) and the tangent cone of `node_check` (|s| = 2) stay exact in
characteristics 2 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .field_tower import FieldCtx, rank

__all__ = [
    "DuplicatePoint",
    "PlaneCurve",
    "PointNotOnCurve",
    "ProjPoint",
    "ProjTransform",
    "apply",
    "apply_curve",
    "collinear",
    "monomials",
    "node_check",
    "singular_cubic_through",
    "six_on_conic",
]


class DuplicatePoint(ValueError):
    """Two input points coincide where distinct points are required."""


class PointNotOnCurve(ValueError):
    """The curve does not pass through the given point."""


@lru_cache(maxsize=None)
def monomials(d: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of degree d, lex-descending on (ex, ey, ez)."""
    out = [
        (i, j, d - i - j)
        for i in range(d, -1, -1)
        for j in range(d - i, -1, -1)
    ]
    return tuple(out)


@lru_cache(maxsize=None)
def _mono_index(d: int) -> dict[tuple[int, int, int], int]:
    return {m: i for i, m in enumerate(monomials(d))}


def normalize_coords(coords, ctx: FieldCtx) -> tuple[int, int, int]:
    """Scale so the first nonzero coordinate equals 1."""
    coords = tuple(int(c) for c in coords)
    for c in coords:
        if c:
            if c == 1:
                return coords
            inv = ctx.inv(c)
            return tuple(ctx.mul(inv, x) for x in coords)
    raise ValueError("all coordinates are zero")


class ProjPoint:
    """A point of P^2 over a field context, given by three int encodings
    and stored in normalized form."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldCtx, coords):
        if len(coords) != 3:
            raise ValueError("a projective point needs 3 coordinates")
        self.ctx = ctx
        self.coords = normalize_coords(coords, ctx)

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.ctx == other.ctx
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __repr__(self):
        return "[{}:{}:{}]".format(*self.coords)

    def frobenius(self) -> "ProjPoint":
        f = self.ctx.frobenius
        return ProjPoint(self.ctx, tuple(f(c) for c in self.coords))

    def to_json(self):
        return list(self.coords)


class PlaneCurve:
    """A plane curve of degree d: a nonzero vector of int encodings over
    monomials(d), normalized so the first nonzero coefficient is 1."""

    __slots__ = ("ctx", "degree", "coeffs")

    def __init__(self, ctx: FieldCtx, degree: int, coeffs):
        vals = [int(c) for c in coeffs]
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if len(vals) != len(monomials(degree)):
            raise ValueError("coefficient vector has the wrong length")
        self.ctx = ctx
        self.degree = degree
        self.coeffs = self._normalize(vals, ctx)

    @staticmethod
    def _normalize(vals, ctx):
        for c in vals:
            if c:
                if c == 1:
                    return tuple(vals)
                inv = ctx.inv(c)
                return tuple(ctx.mul(inv, x) for x in vals)
        raise ValueError("curve is identically zero")

    @classmethod
    def from_dict(cls, ctx, degree, coeff_map):
        """Curve from {exponent triple: int encoding}; negative ints are
        taken in the prime subfield (e.g. -1 means p - 1)."""
        idx = _mono_index(degree)
        vals = [0] * len(idx)
        for expo, c in coeff_map.items():
            vals[idx[expo]] = c % ctx.p if c < 0 else c
        return cls(ctx, degree, vals)

    def evaluate(self, point: ProjPoint) -> int:
        return evaluate_form(self.coeffs, self.degree, point.coords, self.ctx)

    def __eq__(self, other):
        return (
            isinstance(other, PlaneCurve)
            and self.ctx == other.ctx
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"PlaneCurve(deg={self.degree}, coeffs={self.coeffs})"

    def to_json(self):
        return {"degree": self.degree, "coeffs": list(self.coeffs)}


@lru_cache(maxsize=None)
def _veronese_steps(d: int) -> tuple[tuple[int, int], ...]:
    """For each monomial m of degree d >= 2, the pair (j, v) with
    m = x_v monomials(d - 1)[j], v the first variable of m."""
    idx = _mono_index(d - 1)
    steps = []
    for m in monomials(d):
        v = next(i for i in range(3) if m[i])
        lower = list(m)
        lower[v] -= 1
        steps.append((idx[tuple(lower)], v))
    return tuple(steps)


def veronese_rows(coords, degree, ctx) -> list:
    """The Veronese rows at coords of the degrees 0..degree, each the
    values of the monomials of its degree d in the order of monomials(d):
    [1] at degree 0, the coordinates at degree 1, and after that one
    product per entry with the row a degree lower."""
    mul = ctx.mul
    rows = [[1], list(coords)]
    for d in range(2, degree + 1):
        lower = rows[-1]
        rows.append([mul(lower[j], coords[v]) for j, v in _veronese_steps(d)])
    return rows[: degree + 1]


def veronese_row(coords, degree, ctx) -> list:
    """The Veronese row at coords of the degree alone (`veronese_rows`)."""
    return veronese_rows(coords, degree, ctx)[-1]


@lru_cache(maxsize=None)
def _hasse_steps(d: int, shift: tuple, p: int) -> tuple[tuple[int, int], ...]:
    """For each monomial x^e of degree d, the pair (binom(e, shift) mod p,
    index of x^(e - shift) in monomials(d - |shift|)), with index 0 where
    the binomial vanishes."""
    idx = _mono_index(d - sum(shift))
    steps = []
    for e in monomials(d):
        c = math.prod(math.comb(a, s) for a, s in zip(e, shift)) % p
        steps.append((c, idx[tuple(a - s for a, s in zip(e, shift))] if c else 0))
    return tuple(steps)


def hasse_row(rows, shift, ctx) -> list:
    """The Hasse derivative D^(shift) of every monomial of degree d at a
    point, in the order of monomials(d), from the point's `veronese_rows`
    of the degrees 0..d: binom(e, shift) times the entry of x^(e - shift)
    in the row of degree d - |shift|, the binomial taken mod p; a zero row
    when d < |shift|.  D^(e_v) is the partial in x_v."""
    degree = len(rows) - 1
    lower = degree - sum(shift)
    if lower < 0:
        return [0] * len(monomials(degree))
    row, mul = rows[lower], ctx.mul
    steps = _hasse_steps(degree, tuple(shift), ctx.p)
    return [row[j] if c == 1 else mul(c, row[j]) for c, j in steps]


def dot(coeffs, values, ctx) -> int:
    """sum_i coeffs[i] values[i] over ctx."""
    add, mul = ctx.add, ctx.mul
    acc = 0
    for c, v in zip(coeffs, values):
        if c and v:
            acc = add(acc, mul(c, v))
    return acc


def evaluate_form(coeffs, degree, coords, ctx) -> int:
    """The value of a form at coords, over its Veronese row."""
    return dot(coeffs, veronese_row(coords, degree, ctx), ctx)


def partial_form(coeffs, degree, var, ctx):
    """d/dx_var of a degree-`degree` form, as a vector over monomials(degree-1)."""
    p = ctx.p
    idx = _mono_index(degree - 1)
    out = [0] * len(idx)
    for c, expo in zip(coeffs, monomials(degree)):
        e = expo[var]
        if c and e % p:
            lower = list(expo)
            lower[var] -= 1
            j = idx[tuple(lower)]
            out[j] = ctx.add(out[j], ctx.mul(e % p, c))
    return out


def _poly_mul_linear(coeffs, degree, linear, ctx):
    """Multiply a degree-`degree` form by a linear form (3 coefficients)."""
    add, mul = ctx.add, ctx.mul
    idx = _mono_index(degree + 1)
    out = [0] * len(idx)
    for c, expo in zip(coeffs, monomials(degree)):
        if not c:
            continue
        for v in range(3):
            lv = linear[v]
            if lv:
                up = list(expo)
                up[v] += 1
                j = idx[tuple(up)]
                out[j] = add(out[j], mul(c, lv))
    return out


def substitute_form(coeffs, degree, matrix, ctx):
    """Coefficients of F(M.v): substitute the linear forms given by the
    rows of `matrix` (entries are encodings) into the form F."""
    add = ctx.add
    rows = [tuple(int(x) for x in r) for r in matrix]
    out = [0] * len(monomials(degree))
    for c, expo in zip(coeffs, monomials(degree)):
        if not c:
            continue
        term = [c]  # degree-0 form
        tdeg = 0
        for v in range(3):
            for _ in range(expo[v]):
                term = _poly_mul_linear(term, tdeg, rows[v], ctx)
                tdeg += 1
        out = [add(a, b) for a, b in zip(out, term)]
    return out


# ----------------------------------------------------------------------
# transformations

def _det3_mod(m, p):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    ) % p


def _adjugate_mod(m, p):
    c = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            a = m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            b = m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            c[i][j] = (a - b) % p
    return c


class ProjTransform:
    """An element of PGL_3(F_p): invertible 3x3 matrix over the prime
    field, normalized so the first nonzero entry (row-major) is 1."""

    __slots__ = ("p", "matrix")

    def __init__(self, p: int, matrix):
        rows = [tuple(int(x) % p for x in r) for r in matrix]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 matrix")
        if _det3_mod(rows, p) == 0:
            raise ValueError("matrix is singular")
        flat = [x for r in rows for x in r]
        lead = next(x for x in flat if x)
        if lead != 1:
            inv = pow(lead, -1, p)
            rows = [tuple((inv * x) % p for x in r) for r in rows]
        self.p = p
        self.matrix = tuple(rows)

    @classmethod
    def identity(cls, p: int) -> "ProjTransform":
        return cls(p, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def inverse(self) -> "ProjTransform":
        return ProjTransform(self.p, _adjugate_mod(self.matrix, self.p))

    def compose(self, other: "ProjTransform") -> "ProjTransform":
        """self after other (matrix product self . other)."""
        a, b, p = self.matrix, other.matrix, self.p
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(3)) % p for j in range(3)]
            for i in range(3)
        ]
        return ProjTransform(p, prod)

    def __mul__(self, other):
        return self.compose(other)

    def __eq__(self, other):
        return (
            isinstance(other, ProjTransform)
            and self.p == other.p
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.p, self.matrix))

    def __repr__(self):
        return f"ProjTransform({self.matrix})"

    def to_json(self):
        return [x for r in self.matrix for x in r]


def apply_raw(matrix, coords, ctx):
    """matrix . coords over ctx, then normalized."""
    add, mul = ctx.add, ctx.mul
    out = []
    for row in matrix:
        acc = 0
        for m, c in zip(row, coords):
            if m and c:
                acc = add(acc, mul(m, c))
        out.append(acc)
    return normalize_coords(out, ctx)


def apply(g: ProjTransform, point: ProjPoint) -> ProjPoint:
    """Image of a point; entries of g lie in the prime subfield."""
    return ProjPoint(point.ctx, apply_raw(g.matrix, point.coords, point.ctx))


def apply_curve(g: ProjTransform, curve: PlaneCurve) -> PlaneCurve:
    """Image curve: p lies on C iff apply(g, p) lies on apply_curve(g, C)."""
    minv = g.inverse().matrix
    coeffs = substitute_form(curve.coeffs, curve.degree, minv, curve.ctx)
    return PlaneCurve(curve.ctx, curve.degree, coeffs)


# ----------------------------------------------------------------------
# incidence predicates

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the shifts of the three partials


def _coords_of(p):
    return p.coords if isinstance(p, ProjPoint) else tuple(int(c) for c in p)


def collinear_raw(c1, c2, c3, ctx) -> bool:
    mul, sub = ctx.mul, ctx.sub
    x1, y1, z1 = c1
    x2, y2, z2 = c2
    x3, y3, z3 = c3
    d = sub(
        mul(x1, sub(mul(y2, z3), mul(y3, z2))),
        sub(
            mul(y1, sub(mul(x2, z3), mul(x3, z2))),
            mul(z1, sub(mul(x2, y3), mul(x3, y2))),
        ),
    )
    return d == 0


def collinear(p1, p2, p3, ctx=None) -> bool:
    """True iff the 3x3 coordinate determinant vanishes."""
    if ctx is None:
        ctx = p1.ctx
    return collinear_raw(_coords_of(p1), _coords_of(p2), _coords_of(p3), ctx)


def six_on_conic(points, ctx=None) -> bool:
    """True iff some nonzero conic (degenerate allowed) contains all six."""
    pts = [_coords_of(p) for p in points]
    if ctx is None:
        ctx = points[0].ctx
    if len(pts) != 6:
        raise ValueError("exactly six points required")
    if len(set(pts)) != 6:
        raise DuplicatePoint("six_on_conic needs pairwise distinct points")
    rows = [veronese_row(c, 2, ctx) for c in pts]
    return rank(rows, ctx) < 6


def singular_cubic_through(points, i: int, ctx=None) -> bool:
    """True iff a nonzero cubic passes through all 8 points and is singular
    at points[i].

    Singularity is imposed as 4 linear conditions: the value (already among
    the 8 vanishing conditions) and all three first partials.  The value
    condition is kept explicitly because Euler's relation degenerates when
    the characteristic divides 3.
    """
    pts = [_coords_of(p) for p in points]
    if ctx is None:
        ctx = points[0].ctx
    if len(pts) != 8:
        raise ValueError("exactly eight points required")
    if len(set(pts)) != 8:
        raise DuplicatePoint("singular_cubic_through needs distinct points")
    if not 0 <= i < 8:
        raise ValueError("index out of range")
    rows = [veronese_rows(c, 3, ctx) for c in pts]
    conditions = [r[3] for r in rows] + [hasse_row(rows[i], s, ctx) for s in _UNIT]
    return rank(conditions, ctx) < 10


def node_check(curve: PlaneCurve, point: ProjPoint) -> bool:
    """True iff the curve has an ordinary node at the point: all three
    partials vanish there and the degree-2 tangent cone is squarefree
    (two distinct tangent directions over the closure).

    The tangent cone is read in the coordinates u, v along the two axes
    e_a, e_b other than the point's leading coordinate: F(P + u e_a +
    v e_b) = A u^2 + B uv + C v^2 + (terms of degree 3 and more), where
    A, B, C are the second Hasse derivatives of F at P, D_a^(2) F,
    D_a D_b F and D_b^(2) F, read off `hasse_row` (exact in
    characteristics 2 and 3, module docstring).

    In characteristic 2 the discriminant is blind, so a binary quadratic
    A u^2 + B uv + C v^2 is squarefree iff B != 0.
    """
    ctx, coeffs, coords = curve.ctx, curve.coeffs, point.coords
    rows = veronese_rows(coords, curve.degree, ctx)
    if dot(coeffs, rows[-1], ctx) != 0:
        raise PointNotOnCurve(f"{point} is not on the curve")

    def at(shift):  # D^(shift) F at the point
        return dot(coeffs, hasse_row(rows, shift, ctx), ctx)

    if any(map(at, _UNIT)):
        return False
    lead = coords.index(1)
    ua, ub = _UNIT[(lead + 1) % 3], _UNIT[(lead + 2) % 3]
    a, b, c = (
        at(tuple(i * x + j * y for x, y in zip(ua, ub))) for i, j in ((2, 0), (1, 1), (0, 2))
    )
    p = ctx.p
    if a == 0 and b == 0 and c == 0:
        return False  # worse than a double point
    if p == 2:
        return b != 0
    disc = ctx.sub(ctx.mul(b, b), ctx.mul(4 % p, ctx.mul(a, c)))
    return disc != 0
