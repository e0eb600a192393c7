"""Degree-8 Galois orbits in the plane and the general-position test.

A degree-8 point is one Frobenius orbit of 8 distinct points of
P^2(F_{q^8}); it is in general position when no 3 of the points are
collinear, no 6 lie on a conic, and no cubic is singular at one of them
while passing through the other seven.  Blowing up such a point gives a
del Pezzo surface of degree 1, so these are exactly the base points of
Bertini involutions.  `GaloisOrbit8` keeps the points in Frobenius
order, points[k + 1] = F(points[k]) with indices mod 8, from the least
point.

`general_position_report` checks every tuple of an arbitrary 8-point
set in tiers (lines, then conics, then singular cubics: 56 triples, 28
sextuples and 8 cubic systems), short-circuiting at the first failing
tier but listing every failure inside it.

`orbit_report` uses that the 8 points are one Frobenius orbit in
Frobenius order, and runs two tiers, lines then conics; it checks that
order first.  `test_general_position`, `lambda_scan` and
`unexplained_lambda_failures` take points that are in that order by
construction (a `GaloisOrbit8`, or one `frobenius_orbit` walk of size
8) and run the tiers on them directly.  F acts on
coordinates as a field automorphism, so it maps the determinant of a
triple, and the Veronese system of a sextuple, to their images under F,
which have the same rank; and it sends the tuple of indices T to T + 1.
So each predicate takes one value on the rotation class
{T + r : r in Z/8} of T, and one representative per class decides it: 7
classes of triples (56 / 8, none of them fixed by a rotation) and 4 of
sextuples (the complements of the pairs {i, i + d}, d = 1..4, with 8, 8,
8 and 4 members).  A failing representative stands for its whole class,
so the failure lists are the same as those of `general_position_report`
on the same points.

- No cubic tier.  Take an orbit with no 3 points collinear and no 6 on
  a conic.  The cubics through its 8 points form a pencil spanned by
  F_q-rational f and g (Galois descent, as in `cubic_pencil_basis`).  If
  a member were singular at points[0], then I_{points[0]}(f, g) >= 2
  (the intersection number of two members of a pencil does not depend
  on which two), and Frobenius carries this to each of the 8 points, so
  f and g would meet in at least 16 > 9 points, which Bezout forbids
  unless they share a component.  A shared component is F_q-rational,
  and a rational line or conic through one point of the orbit holds all
  8, which the first two tiers rule out.  So an orbit that passes lines
  and conics is in general position, and
  `GeneralPositionReport.failed_cubics` is empty on every report of
  `orbit_report`.
- Lines, in an affine chart.  Take a coordinate c with points[0][c]
  nonzero; it is nonzero at every point, since Frobenius fixes 0.  Let
  u and v be the other two coordinates of points[0] divided by its
  coordinate c: at points[k] they are F^k(u) and F^k(v), whatever
  scaling the coordinates carry.  With du_k = F^k(u) - u and
  dv_k = F^k(v) - v, the triple (0, j, k) is collinear iff
  du_j dv_k = du_k dv_j.  When points[0][c] = 1, as for a normalized
  orbit and for the points of a nodal-cubic parameter (z = 1), every
  points[k][c] is 1, and F^k(u) and F^k(v) are entries of points[k]
  itself: the Frobenius walk that listed the points has already taken
  those steps.  Every line representative contains 0 (the least member
  of a class does) and has k <= 6, so the tier costs 14 differences and
  14 products.
- Conics.  Decided by one small system over F_q, read off the base-p
  digits of the conic monomials at points[0]; digit b is the coefficient
  of x^b in the power basis 1, x, ..., x^7 of F_{q^8} over F_q, x the
  root of the modulus.  Let V be the 8x6 Veronese matrix: row k holds
  the conic monomials at points[k], so it is F^k(w) for the row w at
  points[0].  If lambda V = 0, so is sigma(lambda) V = 0 for
  sigma(lambda)_k = F(lambda_{k-1}); sigma is F-semilinear of order 8,
  so by Galois descent the left kernel of V is spanned over F_{q^8} by
  the vectors that sigma fixes, (mu, F mu, ..., F^7 mu) with
  Tr(mu w_j) = 0 for the six j (Tr the trace to F_q).  Write
  mu = sum_a u_a x*_a over the basis dual to the power basis under the
  trace form, Tr(x*_a x^b) = [a = b], built once per field: then
  Tr(mu w_j) = sum_a u_a digit_a(w_j), so the u are the F_q kernel of
  the 6x8 digit matrix of w.  The digits of an F_q-multiple and of a
  difference are the field's own product by an element of F_q and
  difference, so Gauss-Jordan runs on the six values w_j as rows, with
  no decoding into digit lists (`_prime_kernel`).  The kernel has
  dimension at least 2.  If it is larger, V has rank < 6 and all 28
  sextuples lie on conics.  If it is spanned by mu1 and mu2, the 6x6
  minor of V on a sextuple vanishes iff the complementary 2x2 minor of
  the kernel does: the sextuple that misses {i, j}, j = i + d, lies on a
  conic iff F^i(mu1) F^j(mu2) = F^j(mu1) F^i(mu2), that is (applying
  F^-i) iff mu1 F^d(mu2) = F^d(mu1) mu2.
- The conic ratio.  With rho = mu2 / mu1 (mu1 != 0, the dual basis
  being a basis), that condition reads F^d(rho) = rho, that is
  rho in F_{q^gcd(d, 8)}.  As mu1 and mu2 are F_q-independent, rho is
  not in F_q: a sextuple that misses {i, i +- 1} or {i, i +- 3} lies on
  a conic only when the kernel is larger, and then all 28 do.  Nor is
  rho in F_{q^2}.  The kernel would then be mu1 F_{q^2}, so
  Tr_{q^8/q^2}(mu1 w_j) = 0 for the six j: a relation, with the nonzero
  coefficients F^2k(mu1), among the Veronese rows of points[0], [2],
  [4] and [6].  Four distinct points with dependent Veronese rows lie on
  a line L, which F^2 then fixes, and the conic L F(L), defined over
  F_q, holds all 8 points: V has rank < 6 and the kernel is larger after
  all.  So the tier is one subfield test, rho in F_{q^4}, which decides
  the class of 4 sextuples that miss {i, i + 4}, and it fails on 0, 4
  or 28 sextuples (never 12, the d = 2 class with the d = 4 one).

The 8 points must be distinct, which `orbit_report` checks up front.

Orbits on a nodal cubic are produced from a single multiplicative
parameter, in Frobenius order, since the parametrization is defined over
F_q; the lambda-scaling and beta-twist moves that repair non-general
orbits are implemented on the parameter side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .field_tower import FieldCtx, FieldElement, frobenius_orbit
from .nodal_cubic import NodalCubicNF, param_point
from .plane_geometry import (
    ProjPoint, collinear_raw, dot, normalize_coords, singular_cubic_through, six_on_conic,
    veronese_row,
)

__all__ = [
    "Collision",
    "GaloisOrbit8",
    "GeneralPositionReport",
    "ShortOrbit",
    "beta_twist",
    "general_position_report",
    "lambda_scan",
    "orbit_from_point",
    "orbit_from_seed",
    "orbit_report",
    "test_general_position",
    "unexplained_lambda_failures",
]


class ShortOrbit(ValueError):
    """The points are not one Frobenius orbit of size 8."""


class Collision(ValueError):
    """Two orbit points coincide."""


@dataclass(frozen=True)
class GeneralPositionReport:
    """Outcome of the tiered test; ok iff all three failure lists are empty.
    Only `general_position_report` fills failed_cubics: on one Frobenius
    orbit the cubic tier cannot fail (module docstring), so it is empty on
    every report of `orbit_report`.  It stays so that both tests give
    reports of one shape, which compare equal on the same orbit."""

    ok: bool
    failed_lines: tuple = ()
    failed_conics: tuple = ()
    failed_cubics: tuple = ()

    def to_json(self):
        return {
            "ok": self.ok,
            "failed_lines": [list(t) for t in self.failed_lines],
            "failed_conics": [list(t) for t in self.failed_conics],
            "failed_cubics": list(self.failed_cubics),
        }


class GaloisOrbit8:
    """A degree-8 point: one Frobenius orbit of 8 distinct points of
    P^2(F_{q^8}), given in any order by any coordinate triples and stored
    normalized (first nonzero coordinate 1, which Frobenius preserves) in
    Frobenius order from the least triple, points[k + 1] = F(points[k])
    with indices mod 8.  The seed points[0] is min(points), so equal sets
    of projective points give equal orbits.  Raises ValueError over a
    field other than F_{q^8}, Collision when a point repeats, and
    ShortOrbit when the points are not one orbit of size 8 (a union of
    shorter orbits, or a set that Frobenius does not map to itself)."""

    __slots__ = ("ctx", "points")

    def __init__(self, ctx: FieldCtx, points):
        if ctx.n != 8:
            raise ValueError("a degree-8 point lies over F_{q^8}")
        pts = [normalize_coords(p.coords if isinstance(p, ProjPoint) else p, ctx) for p in points]
        if len(set(pts)) != len(pts):
            raise Collision("the points repeat")
        orbit = frobenius_orbit(ctx, min(pts))
        if len(orbit) != 8 or set(orbit) != set(pts):
            raise ShortOrbit("the points are not one Frobenius orbit of size 8")
        self.ctx = ctx
        self.points = tuple(orbit)

    @property
    def seed(self):
        return self.points[0]

    def proj_points(self):
        return [ProjPoint(self.ctx, p) for p in self.points]

    def __eq__(self, other):
        return (
            isinstance(other, GaloisOrbit8)
            and self.ctx == other.ctx
            and self.points == other.points
        )

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"GaloisOrbit8(seed={self.points[0]})"

    def to_json(self):
        return [list(p) for p in self.points]


def orbit_from_point(pt: ProjPoint):
    """The Frobenius orbit of a point of P^2(F_{q^8}) as a degree-8 point
    when it has size exactly 8, else None."""
    orbit = frobenius_orbit(pt.ctx, pt.coords)
    return GaloisOrbit8(pt.ctx, orbit) if len(orbit) == 8 else None


def _coords(points) -> list[tuple]:
    return [p.coords if isinstance(p, ProjPoint) else tuple(p) for p in points]


def general_position_report(points, ctx: FieldCtx) -> GeneralPositionReport:
    """Tiered general-position test on 8 raw coordinate triples.

    Tier order: lines (56 triples), conics (28 sextuples), singular
    cubics (8 systems).  The first failing tier short-circuits, with all
    failures at that tier listed.  Any 8 points will do; for one
    Frobenius orbit, `orbit_report` gives the same report faster.
    """
    pts = _coords(points)
    bad = tuple(
        t for t in itertools.combinations(range(8), 3)
        if collinear_raw(pts[t[0]], pts[t[1]], pts[t[2]], ctx)
    )
    if bad:
        return GeneralPositionReport(False, failed_lines=bad)
    bad = tuple(
        t for t in itertools.combinations(range(8), 6)
        if six_on_conic([pts[i] for i in t], ctx)
    )
    if bad:
        return GeneralPositionReport(False, failed_conics=bad)
    bad = tuple(i for i in range(8) if singular_cubic_through(pts, i, ctx))
    if bad:
        return GeneralPositionReport(False, failed_cubics=bad)
    return GeneralPositionReport(True)


def _rotation_classes(size: int) -> tuple:
    """The classes of the size-subsets of Z/8 under i -> i + 1, each as
    the sorted tuple of its members (sorted tuples); the first member
    represents the class."""
    classes, seen = [], set()
    for t in itertools.combinations(range(8), size):
        if t not in seen:
            members = sorted({tuple(sorted((i + r) % 8 for i in t)) for r in range(8)})
            seen.update(members)
            classes.append(tuple(members))
    return tuple(classes)


_LINE_CLASSES = _rotation_classes(3)  # 7 classes of 8 triples
_CONIC_CLASSES = _rotation_classes(6)  # 4 classes: 8, 8, 8 and 4 sextuples


def _failed(classes, fails) -> tuple:
    """Every member of the classes whose representative fails, sorted."""
    return tuple(sorted(t for members in classes if fails(members[0]) for t in members))


@lru_cache(maxsize=None)
def _dual_basis(ctx: FieldCtx) -> tuple:
    """The basis x*_0, ..., x*_7 of F_{q^8} over F_q dual to the power
    basis under the trace form, Tr(x*_a x^b) = [a = b], where x (encoding
    q) is the root of the modulus f.  By Euler's lemma x*_a = b_a / f'(x)
    for f(X) = (X - x)(b_0 + b_1 X + ... + b_7 X^7)."""
    f, x, n = ctx.modulus, ctx.p, ctx.n
    b = [0] * (n - 1) + [1]
    for k in range(n - 1, 0, -1):
        b[k - 1] = ctx.add(f[k], ctx.mul(x, b[k]))
    deriv = [(k - 1, k * f[k] % ctx.p) for k in range(1, n + 1) if k * f[k] % ctx.p]
    inv = ctx.inv(ctx.poly_at(deriv, x))
    return tuple(ctx.mul(c, inv) for c in b)


def _prime_kernel(values, ctx: FieldCtx) -> list[list[int]]:
    """The F_p-kernel of the base-p digits of `values`: the u in F_p^n
    with sum_a u_a digit_a(w) = 0 for every w in values, as the reduced
    echelon basis that `nullspace` gives on the digit grid
    [ctx.coeffs(w) for w in values] over F_p (the whole of F_p^n, the
    unit vectors, for no values).

    Gauss-Jordan runs on the values themselves: the digits of c w and of
    w - w', for c in F_p, are c times the digits of w and the difference
    of digits, so each row operation is one field product by an element
    of F_p and one sum, and a pivot is the digit w // p^c % p."""
    p, n = ctx.p, ctx.n
    rows, pivots = list(values), []
    for c in range(n):
        unit, r = p ** c, len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i] // unit % p), None)
        if pr is None:
            continue
        top = ctx.mul(pow(rows[pr] // unit % p, -1, p), rows[pr])
        rows[pr], rows[r] = rows[r], top
        for i, w in enumerate(rows):
            e = w // unit % p
            if e and i != r:
                rows[i] = ctx.add(w, ctx.mul(p - e, top))
        pivots.append(c)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            u = [0] * n
            u[fc] = 1
            for w, pc in zip(rows, pivots):
                u[pc] = -(w // p ** fc) % p
            basis.append(u)
    return basis


def _on_conic(conic, ctx: FieldCtx):
    """The predicate t -> whether the sextuple t of the orbit lies on a
    conic, from the conic monomials at points[0]: the F_p kernel, and
    when it is spanned by mu1 and mu2 whether mu2 / mu1 lies in F_{q^4}
    (module docstring)."""
    kernel = _prime_kernel(conic, ctx)
    if len(kernel) > 2:
        return lambda t: True
    dual = _dual_basis(ctx)
    mu1, mu2 = (dot(u, dual, ctx) for u in kernel)
    if not ctx.in_subfield(ctx.div(mu2, mu1), 4):
        return lambda t: False

    def fails(t):
        i, j = (k for k in range(8) if k not in t)
        return j - i == 4

    return fails


def _on_line(pts, ctx: FieldCtx):
    """The predicate t -> whether the triple t = (0, j, k) of the orbit
    `pts`, in Frobenius order, is collinear, for k <= 6 (every line
    representative), from the chart differences (module docstring).  The
    chart values are the points' own entries when some coordinate c of
    pts[0] is 1, as it is at every point then; otherwise the points are
    first normalized, which keeps their order."""
    if 1 not in pts[0]:
        pts = [normalize_coords(q, ctx) for q in pts]
    c = pts[0].index(1)
    sub, mul = ctx.sub, ctx.mul
    du, dv = ([sub(q[i], pts[0][i]) for q in pts[:7]] for i in range(3) if i != c)
    return lambda t: mul(du[t[1]], dv[t[2]]) == mul(du[t[2]], dv[t[1]])


def _report(pts, ctx: FieldCtx) -> GeneralPositionReport:
    """The two tiers of `orbit_report` on 8 distinct points over F_{q^8}
    in Frobenius order, which the caller guarantees."""
    bad = _failed(_LINE_CLASSES, _on_line(pts, ctx))
    if bad:
        return GeneralPositionReport(False, failed_lines=bad)
    bad = _failed(_CONIC_CLASSES, _on_conic(veronese_row(pts[0], 2, ctx), ctx))
    if bad:
        return GeneralPositionReport(False, failed_conics=bad)
    return GeneralPositionReport(True)


def orbit_report(points, ctx: FieldCtx) -> GeneralPositionReport:
    """The report of `general_position_report` for 8 points over F_{q^8}
    in Frobenius order, points[k + 1] = F(points[k]) cyclically, once the
    order is checked: 7 line triples, one per rotation class, each one
    comparison of two products of chart differences, then the conic tier
    from one F_p kernel of the six conic monomials at points[0] and one
    subfield test; no cubic tier is needed (see the module docstring).
    Raises ValueError when the points are not in that order, since a
    sorted orbit would get a wrong verdict, or not over F_{q^8}, and
    Collision when they repeat (a shorter orbit listed more than once).
    """
    pts = _coords(points)
    frob = ctx.frobenius
    if ctx.n != 8:
        raise ValueError("orbit_report works over F_{q^8}")
    if len(pts) != 8 or any(
        tuple(map(frob, pts[k])) != pts[(k + 1) % 8] for k in range(8)
    ):
        raise ValueError("orbit_report needs 8 points in Frobenius order")
    if len(set(pts)) != 8:
        raise Collision("orbit_report needs 8 distinct points")
    return _report(pts, ctx)


def test_general_position(orbit: GaloisOrbit8) -> GeneralPositionReport:
    """The general-position report of a degree-8 point, from its points,
    which `GaloisOrbit8` keeps distinct and in Frobenius order: the report
    of `orbit_report`, and of `general_position_report(orbit.points,
    orbit.ctx)`, with no second walk of the orbit."""
    return _report(orbit.points, orbit.ctx)


def _param_points(nf: NodalCubicNF, a: FieldElement) -> list[tuple]:
    """The coordinates of param_point(nf, a^(q^k)), k = 0..7, in
    Frobenius order: the Frobenius orbit of param_point(nf, a), since the
    parametrization is defined over F_q, so 8 distinct points that
    `_report` takes as they are.  Requires a field F_{q^8} and the
    multiplicative orbit of a to have size 8, which is the size of the
    point's orbit."""
    if a.ctx.n != 8:
        raise ValueError("a degree-8 point lies over F_{q^8}")
    pts = frobenius_orbit(a.ctx, param_point(nf, a).coords)
    if len(pts) != 8:
        raise ShortOrbit(f"parameter orbit has size {len(pts)}")
    return pts


def orbit_from_seed(nf: NodalCubicNF, a: FieldElement) -> GaloisOrbit8:
    """The Galois orbit of param_point(nf, a); defined over F_q because
    the parametrization is.  Requires the multiplicative orbit of a to
    have size 8."""
    return GaloisOrbit8(a.ctx, _param_points(nf, a))


def lambda_scan(nf: NodalCubicNF, a: FieldElement) -> list[int]:
    """All lambda in F_q* for which the orbit of lambda * a fails general
    position.  The points of lambda * a come in Frobenius order (lambda
    is fixed by F), one walk of the orbit, and each lambda costs the two
    tiers of `orbit_report` on them: 14 products of chart differences for
    the lines, then one F_p elimination on six field elements and one
    subfield test for the conics, against 92 predicates over F_{q^8} for
    the all-tuples test.  Callers check each bad lambda with
    `unexplained_lambda_failures`."""
    ctx = a.ctx
    bad = []
    for lam in range(1, ctx.p):
        points = _param_points(nf, FieldElement(ctx, ctx.mul(lam, a.e)))
        if not _report(points, ctx).ok:
            bad.append(lam)
    return bad


def unexplained_lambda_failures(nf: NodalCubicNF, a: FieldElement, lam: int) -> list[str]:
    """The failures of general position of the orbit of lam * a that the
    produit lemma does not explain; empty when it explains every one.

    The points param_point(nf, lam a_i), with a_i = a^(q^i), are taken in
    Frobenius order, so the report's indices name conjugates.  Three of
    them are collinear iff lam^3 times the product of their a_i is 1, and
    six lie on a conic iff lam^6 times that product is 1.  A failed
    triple or sextuple where this product is not 1, and a lam whose
    points pass the test, are returned.
    """
    ctx = a.ctx
    conj = [v for (v,) in frobenius_orbit(ctx, (a.e,))]
    report = _report(_param_points(nf, FieldElement(ctx, ctx.mul(lam, a.e))), ctx)
    if report.ok:
        return ["not bad: the points are in general position"]

    def explained(t):
        prod = ctx.pow(lam, len(t))
        for i in t:
            prod = ctx.mul(prod, conj[i])
        return prod == 1

    return [
        f"{kind} {t}"
        for kind, tuples in (("line", report.failed_lines), ("conic", report.failed_conics))
        for t in tuples
        if not explained(t)
    ]


def beta_twist(a: FieldElement, beta: FieldElement) -> FieldElement:
    """Twist the orbit of a by beta in F_{q^4}*: b_i = beta^(q^(i-1)) a_i.

    Since b_1 = beta a and b_(i+1) = b_i^q, the twisted orbit is just the
    Frobenius orbit of beta * a; this checks the coherence and the size.
    """
    ctx = a.ctx
    if beta.e == 0:
        raise ValueError("beta must be nonzero")
    if not ctx.in_subfield(beta.e, 4):
        raise ValueError("beta must lie in F_{q^4}")
    b = FieldElement(ctx, ctx.mul(beta.e, a.e))
    # coherence: b_(i+1) = b_i^q must equal beta^(q^i) a^(q^i)
    for i, (cur,) in enumerate(frobenius_orbit(ctx, (b.e,))):
        expected = ctx.mul(
            ctx.frobenius_iter(beta.e, i), ctx.frobenius_iter(a.e, i)
        )
        if cur != expected:
            raise AssertionError("twist lost Frobenius coherence")
    if ctx.in_subfield(b.e, 4):
        raise ShortOrbit("twist collapsed the orbit")
    return b
