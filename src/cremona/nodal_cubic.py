"""The nodal cubic normal form xyz = c0.x^3 - c0.z^3 and its uses.

The curve has a node at [0:1:0] with tangent cone xz, and its smooth
locus is parametrized by a -> [a : c0(a^3 - 1)/a : 1] for a != 0.  The
parametrization is multiplicative: three points are collinear iff the
product of their parameters is 1, and six points lie on a common conic
iff the product of the six parameters is 1.  These equivalences, the
reduction of a posed nodal cubic to the normal form, and the count of
nodal members in the pencil of cubics through a degree-8 orbit all live
here.

The count finds singular points before members: the singular points of
all members of the pencil together are the rank-1 locus of a 4x2
matrix of forms, and each point names the one member singular there.
The forms have F_p coefficients, so Frobenius permutes the locus and
the members alike.  Once per pencil, y is eliminated over F_p by a
subresultant sequence from the minor c_1 of lowest degree in y and a
combination of the others, sum T^(j-2) c_j, for T = 0, 1, x, x^2, ...
until the eliminant r(x) is nonzero.  A T fails only when c_1 shares a
factor in y with the combination, and a factor h of c_1 that does not
divide every minor shares one with at most s - 2 of the combinations (s
the number of minors), since modulo h the combination is a nonzero
polynomial in T of degree s - 2.  So (s - 2) deg_y c_1 + 1 tries all
fail only when some h divides every minor, and then the locus holds the
curve h = 0 and the pencil is refused.  A factor in x alone, a line
x = x0 z in the locus, is refused before the tries: it divides every
coefficient in y of every minor.  r lies in the ideal of the
minors, so it vanishes at the x of every point of the locus off the line
z = 0.  At each extension level m, r is evaluated at one x per Frobenius
orbit of F_{q^m}, about q^m/m of them, and only at its roots are the
minors solved for y.  r has F_p coefficients, so it vanishes on the
whole orbit of such an x or on none of it, and the pruning cannot lose a
point.  Over a root x in F_p the minors are F_p polynomials in y, so
that fibre is solved once per pencil and each level reads off its roots
of that level's degree.  One point is kept per Frobenius orbit of points
of exact degree m; the forms are evaluated once at that point to name
its member, and one node test decides the whole orbit of m conjugate
members.  The roots of r are
found by this scan, not by factoring r.  The polynomial arithmetic, the
eliminant and the root scan live in `polynomial`; this module keeps the
geometry: the forms, their minors and the locus they cut out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import polynomial as poly
from .field_tower import FieldCtx, FieldElement, frobenius_orbit, get_ctx, nullspace
from .plane_geometry import (
    PlaneCurve,
    ProjPoint,
    ProjTransform,
    dot,
    monomials,
    node_check,
    partial_form,
    substitute_form,
    veronese_row,
    veronese_rows,
)

__all__ = [
    "BadPose",
    "NodalCubicNF",
    "NotAPencil",
    "ProductNotOne",
    "Reducible",
    "ZeroArgument",
    "count_nodal_members",
    "cubic_pencil_basis",
    "is_cube",
    "line_witness",
    "normalize",
    "param_point",
]


class ZeroArgument(ValueError):
    """A nonzero field element was required."""


class ProductNotOne(ValueError):
    """The parameters do not multiply to 1."""


class BadPose(ValueError):
    """The cubic is not posed with node [0:1:0] and tangent cone xz."""


class Reducible(ValueError):
    """The cubic is reducible (a coefficient that must be nonzero vanishes)."""


class NotAPencil(ValueError):
    """The cubics through the orbit do not form a pencil, or the singular
    points of its members are not finitely many (`count_nodal_members`)."""


# support of a posed nodal cubic xyz = c0 x^3 + c1 x^2 z + c2 x z^2 + c3 z^3
_POSE_MONOS = {(1, 1, 1), (3, 0, 0), (2, 0, 1), (1, 0, 2), (0, 0, 3)}


@dataclass(frozen=True)
class NodalCubicNF:
    """Normal form xyz = c0 x^3 - c0 z^3 over F_q, c0 in F_q*."""

    q: int
    c0: int

    def __post_init__(self):
        if not 0 < self.c0 < self.q:
            raise ZeroArgument("c0 must be a nonzero prime-field element")

    def curve(self, ctx: FieldCtx) -> PlaneCurve:
        """The defining cubic xyz - c0 x^3 + c0 z^3 over any context of
        the same characteristic."""
        if ctx.p != self.q:
            raise ValueError("context has the wrong characteristic")
        neg = ctx.neg(self.c0)
        return PlaneCurve.from_dict(
            ctx, 3, {(1, 1, 1): 1, (3, 0, 0): neg, (0, 0, 3): self.c0}
        )

    def to_json(self):
        return {"q": self.q, "c0": self.c0}


def param_point(nf: NodalCubicNF, a: FieldElement) -> ProjPoint:
    """[a : c0(a^3 - 1)/a : 1], a point of the normal-form curve."""
    ctx = a.ctx
    if ctx.p != nf.q:
        raise ValueError("parameter from the wrong characteristic")
    if a.e == 0:
        raise ZeroArgument("parameter must be nonzero")
    a3 = ctx.pow(a.e, 3)
    y = ctx.div(ctx.mul(nf.c0, ctx.sub(a3, 1)), a.e)
    return ProjPoint(ctx, (a.e, y, 1))


def line_witness(nf: NodalCubicNF, a1, a2, a3) -> PlaneCurve:
    """The line y + Ax + B = 0 through the three parametrized points.

    A and B are read off the factorization
        P(x,1) + Ax^2 + Bx = c0 (x - a1)(x - a2)(x - a3),
    so A = -c0(a1 + a2 + a3) and B = c0(a1 a2 + a1 a3 + a2 a3); the
    factorization forces a1 a2 a3 = 1.
    """
    ctx = a1.ctx
    vals = [a1.e, a2.e, a3.e]
    if 0 in vals:
        raise ZeroArgument("parameters must be nonzero")
    if len(set(vals)) != 3:
        raise ValueError("parameters must be pairwise distinct")
    prod = ctx.mul(ctx.mul(vals[0], vals[1]), vals[2])
    if prod != 1:
        raise ProductNotOne(f"a1 a2 a3 = {prod} != 1")
    e1 = ctx.add(ctx.add(vals[0], vals[1]), vals[2])
    e2 = ctx.add(
        ctx.add(ctx.mul(vals[0], vals[1]), ctx.mul(vals[0], vals[2])),
        ctx.mul(vals[1], vals[2]),
    )
    A = ctx.neg(ctx.mul(nf.c0, e1))
    B = ctx.mul(nf.c0, e2)
    return PlaneCurve.from_dict(ctx, 1, {(1, 0, 0): A, (0, 1, 0): 1, (0, 0, 1): B})


def is_cube(x: FieldElement) -> bool:
    """Whether x is a cube in F_q*: always when 3 does not divide q - 1,
    else iff x^((q-1)/3) = 1."""
    ctx = x.ctx
    if x.e == 0:
        raise ZeroArgument("cube test needs a nonzero element")
    units = ctx.size - 1
    if units % 3:
        return True
    return ctx.pow(x.e, units // 3) == 1


def normalize(curve: PlaneCurve):
    """Reduce a posed nodal cubic to the normal form.

    The input must have its node at [0:1:0] with tangent cone xz, i.e.
    an equation xyz = c0 x^3 + c1 x^2 z + c2 x z^2 + c3 z^3.  Returns
    (g, nf) with g in PGL_3(F_q) such that the equation of the input
    composed with g is the normal form (g = shear then diagonal scale),
    or None when -c0/c3 is not a cube in F_q.
    """
    ctx = curve.ctx
    if curve.degree != 3:
        raise ValueError("normalize expects a cubic")
    idx = {m: i for i, m in enumerate(monomials(3))}
    for m, c in zip(monomials(3), curve.coeffs):
        if c and m not in _POSE_MONOS:
            raise BadPose(f"unexpected monomial {m}")
    xyz = curve.coeffs[idx[(1, 1, 1)]]
    if xyz == 0:
        raise BadPose("no xyz term: tangent cone is not xz")
    # scale so the equation reads xyz - c0 x^3 - c1 x^2 z - c2 x z^2 - c3 z^3
    inv = ctx.inv(xyz)
    c0 = ctx.neg(ctx.mul(inv, curve.coeffs[idx[(3, 0, 0)]]))
    c1 = ctx.neg(ctx.mul(inv, curve.coeffs[idx[(2, 0, 1)]]))
    c2 = ctx.neg(ctx.mul(inv, curve.coeffs[idx[(1, 0, 2)]]))
    c3 = ctx.neg(ctx.mul(inv, curve.coeffs[idx[(0, 0, 3)]]))
    if c0 == 0 or c3 == 0:
        raise Reducible("c0 c3 = 0 makes the cubic reducible")
    ratio = ctx.div(ctx.neg(c0), c3)
    if not is_cube(FieldElement(ctx, ratio)):
        return None
    a = next(v for v in range(1, ctx.size) if ctx.pow(v, 3) == ratio)
    # shear (x, y, z) -> (x, y + c1 x + c2 z, z), then (x, y, z) -> (x, y/a, az)
    shear = ProjTransform(ctx.p, [[1, 0, 0], [c1, 1, c2], [0, 0, 1]])
    ainv = ctx.inv(a)
    scale = ProjTransform(ctx.p, [[1, 0, 0], [0, ainv, 0], [0, 0, a]])
    g = shear.compose(scale)
    nf = NodalCubicNF(ctx.p, c0)
    new = substitute_form(curve.coeffs, 3, g.matrix, ctx)
    if PlaneCurve(ctx, 3, new) != nf.curve(ctx):
        raise AssertionError("normalization did not reach the normal form")
    return g, nf


# ----------------------------------------------------------------------
# pencils of cubics through a degree-8 orbit and their nodal members

def cubic_pencil_basis(orbit_points, ctx: FieldCtx):
    """Basis over F_q of the cubics through a Frobenius-closed 8-point set,
    given as its coordinate triples.

    A cubic with F_q coefficients through one point of the orbit passes
    through all of them, and by Galois descent these cubics span the
    whole system over F_{q^8}; they are the F_q-linear relations among
    the 10 cubic monomials at the point.  A sum of F_p multiples of them
    vanishes iff each of its base-p digits does, so these relations are
    the kernel over F_p of the 8x10 matrix of digits, one row per digit.
    Raises NotAPencil unless the kernel has dimension exactly 2.
    """
    values = veronese_row(orbit_points[0], 3, ctx)
    basis = nullspace(list(zip(*map(ctx.coeffs, values))), get_ctx(ctx.p, 1))
    if len(basis) != 2:
        raise NotAPencil(f"kernel dimension {len(basis)} != 2")
    return basis


def _form_minor(f1, g1, f2, g2, p):
    """f1 g1 - f2 g2 for forms given as {exponent triple: coefficient in
    F_p}, with its zero terms dropped."""
    out = {}
    for f, g, sign in ((f1, g1, 1), (f2, g2, -1)):
        for (a, b, c), u in f.items():
            for (d, e, h), v in g.items():
                k = (a + d, b + e, c + h)
                out[k] = (out.get(k, 0) + sign * u * v) % p
    return {e: c for e, c in out.items() if c}


def _value_rows(g, prime):
    """g and its three partials, each as (coefficient vector, degree)."""
    return [(g, 3)] + [(partial_form(g, 3, v, prime), 2) for v in range(3)]


def _pencil_minors(rows, p):
    """The six 2x2 minors of [v1 v2], v_i = (g_i, d_x g_i, d_y g_i, d_z g_i),
    given as the `_value_rows` of g1 and g2, as forms {exponent triple:
    coefficient in F_p}; zero minors are dropped."""
    rows = [[{e: c for e, c in zip(monomials(d), f) if c} for f, d in v] for v in rows]
    minors = (
        _form_minor(rows[0][j], rows[1][k], rows[0][k], rows[1][j], p)
        for j, k in itertools.combinations(range(4), 2)
    )
    return [minor for minor in minors if minor]


def _chart_sum(charts, shift, p):
    """The sum of x^(j shift) c_j over the sparse charts c_0, c_1, ... (as
    `_SingularLocus` keeps them), as a list over the powers of y of dense
    lists in x."""
    rows = [{} for _ in range(max(map(len, charts), default=0))]
    for j, chart in enumerate(charts):
        for row, terms in zip(rows, chart):
            for i, c in terms:
                row[i + j * shift] = (row.get(i + j * shift, 0) + c) % p
    return poly.trim([poly.trim(poly.to_dense(row.items())) for row in rows])


def _chart_eliminant(charts, p):
    """The first nonzero `polynomial.eliminant` of c_1 and the sum of
    T^(j-2) c_j over the charts c_j, j >= 2, over the (s - 2) deg_y c_1 + 1
    tries T = 0, 1, x, x^2, ... of the module docstring, as sparse terms:
    T = 0 pairs c_1 with c_2 alone.  Raises NotAPencil when every try
    gives 0: then a factor of c_1 of positive degree in y divides every
    chart, and the locus holds a curve."""
    first = _chart_sum(charts[:1], 0, p)
    shifts = range((len(charts) - 2) * (len(first) - 1))
    for rest, shift in [(charts[1:2], 0)] + [(charts[1:], k) for k in shifts]:
        r = poly.eliminant(first, _chart_sum(rest, shift, p), p)
        if r:
            return poly.to_sparse(r)
    raise NotAPencil("the minors share a factor in y: the locus holds a curve")


class _SingularLocus:
    """The singular points of all members of the pencil s g1 + t g2
    together: the points P where rank[v1(P) v2(P)] <= 1, with
    v_i = (g_i, d_x g_i, d_y g_i, d_z g_i).

    The value rows v_i and the six 2x2 minors of [v1 v2] are computed
    once over F_p.  On the chart z = 1 each minor is kept as a list, over
    the powers of y, of sparse rows [(i, c)] of its nonzero coefficients c
    of x^i, which `FieldCtx.poly_at` evaluates at each x0; on the line
    z = 0 the minors at [x:1:0] are univariate in x with F_p
    coefficients, so their gcd is taken once.  The eliminant r, once per
    pencil too, is `_chart_eliminant` of the charts sorted with c_1 of
    lowest degree in y: a polynomial in x alone with F_p coefficients in
    the ideal of the charts, so r(x0) = 0 at every point [x0:y0:1] of the
    locus.  Since the minors have F_p coefficients, Frobenius permutes the
    locus, and `points` visits one x per Frobenius orbit of roots of r,
    the list of orbits of each field being built once, on first use.

    The fibre over a root x0 in F_p is solved once per locus, at the
    first level that visits it: the charts at x0 take values in F_p, so
    their gcd in y is one polynomial over F_p at every level, and
    `fibres` keeps it, {x0: sparse terms [(i, c)]}, a constant for a
    fibre with no point.  Fibres over roots outside F_p are solved at
    each level that visits them.

    Raises NotAPencil when the locus is not finite: here, when it holds
    the line z = 0, a line x = x0 z (the rows of every chart, polynomials
    in x, then share the factor of x0 over F_p, so their gcd is not
    constant) or a curve with a factor of positive degree in y; and in
    `member`, at a point where every member is singular.
    """

    def __init__(self, g1, g2, prime):
        self.prime = prime
        self.rows = [_value_rows(g, prime) for g in (g1, g2)]
        self.charts = []
        line = []
        self.corner = True  # whether [1:0:0] is in the locus
        for minor in _pencil_minors(self.rows, prime.p):
            deg = sum(next(iter(minor)))
            chart = [[] for _ in range(deg + 1)]
            at_line = [0] * (deg + 1)
            for (i, j, k), c in minor.items():
                chart[j].append((i, c))
                if k == 0:
                    at_line[i] = c
            self.charts.append(poly.trim(chart))
            line = poly.gcd(line, poly.trim(at_line), prime)
            self.corner = self.corner and minor.get((deg, 0, 0), 0) == 0
        if not line:
            raise NotAPencil("the minors vanish on the line z = 0")
        self.line = poly.to_sparse(line)
        # lowest degree in y first, then fewest terms: the gcd of the first
        # two charts is nearly always constant, and its cost grows with
        # their degrees in y; the degree in y of c_1 also bounds the tries of r
        self.charts.sort(key=lambda chart: (len(chart), sum(map(len, chart))))
        g = []
        for row in itertools.chain.from_iterable(self.charts):
            g = poly.gcd(g, poly.to_dense(row), prime)
            if len(g) == 1:
                break
        if len(g) != 1:
            raise NotAPencil("the minors share a factor in x: the locus holds a line x = x0 z")
        self.eliminant = _chart_eliminant(self.charts, prime.p)
        self.fibres = {}

    def _fibre(self, x0, ctx):
        """The gcd in y of the charts at x = x0 over ctx, as sparse terms:
        each row of a chart, a sparse polynomial in x, is evaluated at x0
        by `FieldCtx.poly_at`, and the gcd stops as soon as it is a
        constant.  Not every chart vanishes at x0, since the rows of the
        charts have a constant gcd (`__init__`), so the gcd is nonzero."""
        at = ctx.poly_at
        g = []
        for chart in self.charts:
            g = poly.gcd(g, poly.trim([at(row, x0) for row in chart]), ctx)
            if len(g) == 1:
                break
        return poly.to_sparse(g)

    def points(self, ctx):
        """One point from each Frobenius orbit of the points of the locus
        that have exact degree m = ctx.n: those with coordinates in
        F_{q^m} and in no smaller field.  The levels may be visited in any
        order and more than once.

        The chart is visited only over the roots x0 of the eliminant r,
        one per Frobenius orbit of ctx (`polynomial.roots`).  r lies in
        the ideal of the charts, so it vanishes at the x0 of every point
        of the locus with z = 1, and it has F_p coefficients, so it
        vanishes on the whole Frobenius orbit of such an x0 and at its
        least element: the pruning loses no point.  Over x0 in F_p the
        fibre is the F_p polynomial of `fibres`, solved on the first
        visit; over an x0 outside F_p the gcd is taken over ctx, so roots
        are sought only at the x0 of the locus.  Frobenius maps the fibre over x0 onto the fibre over
        F(x0), so one root y0 per F^k-orbit of the fibre (k the orbit size
        of x0), by the same `polynomial.roots`, gives one point per
        Frobenius orbit of points over the orbit of x0.  Its orbit has
        size lcm(k, j), j that of y0, and it is kept when that is m.
        Since j / gcd(k, j) is at most the degree d of the fibre, a level
        m > k d holds no point and is skipped.  On the line z = 0 the
        roots of the gcd come one per Frobenius orbit too, and a point
        [x0:1:0] has the degree of x0."""
        m = ctx.n
        out = []
        for x0, k in poly.roots(self.eliminant, ctx):
            if k > 1:
                fibre = self._fibre(x0, ctx)
            elif x0 in self.fibres:
                fibre = self.fibres[x0]
            else:
                fibre = self.fibres[x0] = self._fibre(x0, self.prime)
            if m <= k * fibre[-1][0]:
                out.extend(
                    (x0, y0, 1) for y0, j in poly.roots(fibre, ctx, k) if math.lcm(k, j) == m
                )
        out.extend((x0, 1, 0) for x0, k in poly.roots(self.line, ctx) if k == m)
        if self.corner and m == 1:
            out.append((1, 0, 0))
        return out

    def member(self, pt, ctx):
        """The member singular at pt, written [1:t] or [0:1], read off the
        first nonzero row (a, b) of [v1 v2] at pt as (b, -a); raises
        NotAPencil when every row vanishes, so every member is singular
        there.  The forms of degrees 3 and 2 are evaluated over the
        Veronese rows of pt, built once."""
        values = veronese_rows(pt, 3, ctx)
        for (f1, d), (f2, _) in zip(*self.rows):
            a, b = dot(f1, values[d], ctx), dot(f2, values[d], ctx)
            if a or b:
                return (1, ctx.div(ctx.neg(a), b)) if b else (0, 1)
        raise NotAPencil(f"every member is singular at {pt}")

    def members(self, ctx):
        """The members of exact degree m = ctx.n singular somewhere in
        P^2(ctx), one Frobenius orbit at a time: {least member of the
        orbit: [(member, point)]}, one pair per orbit of singular points
        whose members form that orbit.

        Every singular point of such a member has exact degree m: a point
        fixed by F^e, e < m, would be singular on both M and F^e(M), so on
        every member, which the level e of that point has already refused.
        The basis has F_p coefficients, so F(P) names F(member(P)), and an
        orbit of points names one orbit of members; each member of an
        orbit of size m then has exactly one singular point in each of
        the point orbits listed under it."""
        m = ctx.n
        out = {}
        for pt in self.points(ctx):
            member = self.member(pt, ctx)
            orbit = frobenius_orbit(ctx, member)
            if len(orbit) == m:
                out.setdefault(min(orbit), []).append((member, pt))
        return out


def count_nodal_members(orbit, extension_cap: int = 8) -> int:
    """Number of nodal members of the pencil of cubics through the orbit,
    a `GaloisOrbit8`, among members defined over F_{q^m} for
    m <= extension_cap.

    The orbit must be in general position, so every member is
    geometrically irreducible (a line or conic component would violate
    general position by Bezout) and has at most one singular point,
    necessarily rational over the member's field of definition.  A
    member is counted at the level m of its field of definition when it
    has exactly one singular point in P^2(F_{q^m}) and that point is an
    ordinary node.  The discriminant of the pencil is a binary form of
    degree 12, so no singular member has degree above 12: cap 12 counts
    every nodal member over the algebraic closure.

    The singular points come first.  With v_i = (g_i, d_x g_i, d_y g_i,
    d_z g_i) for the basis g1, g2, the member s g1 + t g2 is singular at
    P exactly when s v1(P) + t v2(P) = 0 (the value row keeps this exact
    in characteristic 3, where Euler's relation fails).  So one scan of
    the rank-1 locus of [v1 v2] over P^2(F_{q^m}) finds every singular
    point of every member, and each point names its member.  The scan
    solves for y only over the roots of one nonzero eliminant r(x) of the
    minors, computed once per pencil over F_p; r is in the ideal of the
    minors and has F_p coefficients, so it vanishes on the whole
    Frobenius orbit of the x of every point of the locus with z = 1, and
    pruning by it loses no point.  The fibre over a root of r in F_p is
    an F_p polynomial in y, solved once for all the levels.
    At level m only the points of exact degree m are kept, one per
    Frobenius orbit: a point of lower degree names a member of lower
    degree, which its own level has already judged.  The basis has F_p
    coefficients, so the m members of a Frobenius orbit are conjugate:
    one of them is named and node-tested, and the orbit adds m to the
    count.

    Raises NotAPencil when the cubics through the orbit are not a pencil,
    and when the singular locus is not finite (`_SingularLocus`, which
    sees a line or a curve in the locus when it is built, before any
    level is counted).  On a GP orbit every member is irreducible, so its
    locus is finite.
    """
    g1, g2 = cubic_pencil_basis(orbit.points, orbit.ctx)
    p = orbit.ctx.p
    locus = _SingularLocus(g1, g2, get_ctx(p, 1))
    count = 0
    for m in range(1, extension_cap + 1):
        sub = get_ctx(p, m)
        for named in locus.members(sub).values():
            if len(named) != 1:
                continue
            (s, t), pt = named[0]
            coeffs = [sub.add(sub.mul(s, a), sub.mul(t, b)) for a, b in zip(g1, g2)]
            if node_check(PlaneCurve(sub, 3, coeffs), ProjPoint(sub, pt)):
                count += m
    return count
