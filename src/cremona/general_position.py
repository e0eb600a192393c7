"""Degree-8 Galois orbits in the plane and the general-position test.

A degree-8 point is a Frobenius-closed set of 8 distinct points of
P^2(F_{q^8}); it is in general position when no 3 of the points are
collinear, no 6 lie on a conic, and no cubic is singular at one of them
while passing through the other seven.  Blowing up such a point gives a
del Pezzo surface of degree 1, so these are exactly the base points of
Bertini involutions.

The test runs in tiers (lines, then conics, then singular cubics),
short-circuiting at the first failing tier but listing every failure
inside it.  Orbits on a nodal cubic are produced from a single
multiplicative parameter; the lambda-scaling and beta-twist moves that
repair non-general orbits are implemented on the parameter side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .field_tower import FieldCtx, FieldElement, frobenius_orbit, get_ctx
from .nodal_cubic import NodalCubicNF, param_point
from .plane_geometry import (
    ProjPoint,
    collinear_raw,
    singular_cubic_through,
    six_on_conic,
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
    "pair_products",
    "test_general_position",
    "unexplained_lambda_failures",
]


class ShortOrbit(ValueError):
    """The Frobenius orbit has fewer than 8 elements."""


class Collision(ValueError):
    """Two orbit points coincide."""


@dataclass(frozen=True)
class GeneralPositionReport:
    """Outcome of the tiered test; ok iff all three failure lists are empty."""

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
    """A degree-8 point: 8 distinct coordinate triples over F_{q^8},
    closed under coordinatewise Frobenius, stored sorted; the seed is
    the lexicographically minimal point."""

    __slots__ = ("ctx", "points")

    def __init__(self, ctx: FieldCtx, points):
        pts = []
        for p in points:
            pts.append(p.coords if isinstance(p, ProjPoint) else tuple(int(c) for c in p))
        if len(pts) != 8 or len(set(pts)) != 8:
            raise Collision("need 8 distinct points")
        frob = ctx.frobenius
        as_set = set(pts)
        for p in pts:
            if tuple(frob(c) for c in p) not in as_set:
                raise ShortOrbit("point set is not Frobenius-closed")
        self.ctx = ctx
        self.points = tuple(sorted(pts))

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
    """The Frobenius orbit of a point when it has size exactly 8, else None."""
    orbit = frobenius_orbit(pt.ctx, pt.coords)
    return GaloisOrbit8(pt.ctx, orbit) if len(orbit) == 8 else None


def general_position_report(points, ctx: FieldCtx) -> GeneralPositionReport:
    """Tiered general-position test on 8 raw coordinate triples.

    Tier order: lines (56 triples), conics (28 sextuples), singular
    cubics (8 systems).  The first failing tier short-circuits, with all
    failures at that tier listed.
    """
    pts = [p.coords if isinstance(p, ProjPoint) else tuple(p) for p in points]
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


def test_general_position(orbit: GaloisOrbit8) -> GeneralPositionReport:
    return general_position_report(orbit.points, orbit.ctx)


def orbit_from_seed(nf: NodalCubicNF, a: FieldElement) -> GaloisOrbit8:
    """The Galois orbit of param_point(nf, a); defined over F_q because
    the parametrization is.  Requires the multiplicative orbit of a to
    have size 8."""
    ctx = a.ctx
    vals = [v for (v,) in frobenius_orbit(ctx, (a.e,))]
    if len(vals) != 8:
        raise ShortOrbit(f"parameter orbit has size {len(vals)}")
    pts = [param_point(nf, FieldElement(ctx, v)) for v in vals]
    if len({p.coords for p in pts}) != 8:
        raise Collision("parametrized points collide")
    return GaloisOrbit8(ctx, pts)


def lambda_scan(nf: NodalCubicNF, a: FieldElement) -> list[int]:
    """All lambda in F_q* for which the orbit of lambda * a fails general
    position.  Callers check each bad lambda with
    `unexplained_lambda_failures`."""
    ctx = a.ctx
    bad = []
    for lam in range(1, ctx.p):
        orbit = orbit_from_seed(nf, FieldElement(ctx, ctx.mul(lam, a.e)))
        if not test_general_position(orbit).ok:
            bad.append(lam)
    return bad


def unexplained_lambda_failures(nf: NodalCubicNF, a: FieldElement, lam: int) -> list[str]:
    """The failures of general position of the orbit of lam * a that the
    produit lemma does not explain; empty when it explains every one.

    The points param_point(nf, lam a_i), with a_i = a^(q^i), are taken in
    Frobenius order, so the report's indices name conjugates.  Three of
    them are collinear iff lam^3 times the product of their a_i is 1, and
    six lie on a conic iff lam^6 times that product is 1.  A failed
    triple or sextuple where this product is not 1, every singular-cubic
    failure, and a lam whose points pass the test are returned.
    """
    ctx = a.ctx
    conj = [v for (v,) in frobenius_orbit(ctx, (a.e,))]
    pts = [param_point(nf, FieldElement(ctx, ctx.mul(lam, v))) for v in conj]
    report = general_position_report(pts, ctx)
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
    ] + [f"singular cubic at {i}" for i in report.failed_cubics]


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


def pair_products(a: FieldElement) -> list[int]:
    """The four products a_i * tau(a_i) where tau: x -> x^(q^4) is the
    unique order-2 element of the Galois group; the pairing used in the
    conic-failure analysis of nodal orbits."""
    ctx = a.ctx
    vals = [v for (v,) in frobenius_orbit(ctx, (a.e,))]
    if len(vals) != 8:
        raise ShortOrbit("pairing needs a full orbit")
    return [ctx.mul(vals[i], vals[i + 4]) for i in range(4)]
