"""Census of Bertini classes over F_q, q in {2, 3}.

A Bertini involution with a base point of degree 8 corresponds to a
general-position (GP) degree-8 orbit in P^2(F_{q^8}); counting such
orbits up to the action of PGL_3(F_q) gives the number of Bertini
classes the construction produces.

The exact census counts subspaces, not points.  The coordinates of a
point p = [x0:x1:x2] off every F_q-rational line span a 3-dimensional
F_q-subspace V of F_{q^8}, defined up to scaling by F_{q^8}^*.  Changing
the F_q-basis of V is the action of PGL_3(F_q) on p, and Frobenius sends
V to V^q, so the PGL_3(F_q)-classes of Frobenius orbits are the orbits
of G = F_{q^8}^* x| Gal on 3-subspaces.  A G-orbit meets the
[7 choose 2]_q subspaces that contain 1 (2667 at q = 2, 99,463 at q = 3)
in 8(q^2+q+1)/s of them, s the stabilizer order of the class in
PGL_3(F_q), and these reach each other by V -> t^{-1} V (t in V) and
V -> V^q.  A search over these moves gives one point [1:u:v] per class
for the GP test and the class key.  Every run asserts the orbit
identity: the sum of |PGL_3(F_q)|/s over the degree-8 classes, plus the
(q^2+q+1)(q^8 - q^4)/8 orbits on rational lines, is (q^16 - q^4)/8.
Sampled mode draws random points instead.

A class is nodal when the paper's explicit construction reaches it: the
orbit of a point [a : c0(a^3 - 1)/a : 1], a of degree 8, on a nodal cubic
xyz = c0 x^3 - c0 z^3.  The coordinates of that point span
U_a = span(1, a, a^2 - a^{-1}) whatever c0 in F_q^*, and U_a^q = U_{a^q}.
So a class with subspace V is nodal iff t^{-1} V = U_a for some t in V
and some a of degree 8: the q^2 + q + 1 states that the scaling moves
reach from V, V included, are looked up among the states of the U_a,
which are built once per q.  Both modes run this test on every GP class.

The key is a Frobenius-frame key.  Elements of PGL_3(F_q) commute with
Frobenius F, so they carry the cyclic order p, Fp, ..., F^7 p of one
orbit to the cyclic order of its image.  For each of the 8 rotations,
the unique projective map sending four consecutive points to the
standard frame [1:0:0], [0:1:0], [0:0:1], [1:1:1] records the images of
the other four; the key is the least of the 8 records.  Equal keys mean
some g in PGL_3(F_{q^8}) maps one Frobenius-ordered orbit onto the
other; then g and g^F agree on four points in general position, so
g = g^F, and by Hilbert 90 g lies in PGL_3(F_q).  The key therefore
separates classes exactly, at 8 frame maps per orbit instead of one
image per group element.

The lower bound M_q for the class count, and the exact-rational identity
between its closed form (q^6 - 1)/640 and the counting product
N1.N2.N3 / (12 |PGL_3|), are implemented in `mq_bound` / `mq_cross_check`.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .field_tower import euler_phi, frobenius_orbit, get_ctx
from .general_position import GaloisOrbit8, general_position_report
from .plane_geometry import ProjTransform, apply_raw

__all__ = [
    "CensusResult",
    "ClassKey",
    "canonical_class",
    "mq_bound",
    "mq_cross_check",
    "pgl3_elements",
    "pgl3_order",
    "run_census",
    "total_degree8_orbits",
    "verify_orbit_lemma",
]

RESULT_VERSION = 3


def pgl3_order(q: int) -> int:
    """|PGL_3(F_q)| = q^3 (q^3 - 1)(q^2 - 1)."""
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)


def total_degree8_orbits(q: int) -> int:
    """(|P^2(F_{q^8})| - |P^2(F_{q^4})|) / 8 = (q^16 - q^4) / 8."""
    return (q ** 16 - q ** 4) // 8


def pgl3_elements(q: int):
    """Every element of PGL_3(F_q) exactly once, in normalized form
    (first nonzero entry in row-major order equal to 1), deterministic
    lexicographic order."""
    from .plane_geometry import _det3_mod

    for flat in itertools.product(range(q), repeat=9):
        lead = next((x for x in flat if x), None)
        if lead != 1:
            continue
        rows = (flat[0:3], flat[3:6], flat[6:9])
        if _det3_mod(rows, q) == 0:
            continue
        yield ProjTransform(q, rows)


# ----------------------------------------------------------------------
# the point index space of sampled mode

def _point_count(q: int) -> int:
    """|P^2(F_{q^8})|, the size of the linear index space of `_point_at`."""
    return q ** 16 + q ** 8 + 1


def _point_at(q: int, index: int):
    """The normalized point of P^2(F_{q^8}) with the given index, in
    lexicographic order of coordinate triples: [0:0:1], [0:1:z], [1:y:z]."""
    size = q ** 8
    if index == 0:
        return (0, 0, 1)
    index -= 1
    if index < size:
        return (0, 1, index)
    index -= size
    return (1, index // size, index % size)


# ----------------------------------------------------------------------
# canonical class keys

@dataclass(frozen=True, order=True)
class ClassKey:
    """PGL_3(F_q)-canonical form of an orbit: the least frame record
    (see `canonical_class`), four normalized coordinate triples."""

    serialized: tuple


def _cross(u, v, ctx):
    mul, sub = ctx.mul, ctx.sub
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def _dot(u, v, ctx):
    mul, add = ctx.mul, ctx.add
    return add(add(mul(u[0], v[0]), mul(u[1], v[1])), mul(u[2], v[2]))


def _frame_records(points, ctx):
    """One record per rotation i of the Frobenius-ordered points
    p_0, ..., p_7: the normalized images of p_{i+4}, ..., p_{i+7} under
    the map sending p_i, p_{i+1}, p_{i+2} to the coordinate points and
    p_{i+3} to [1:1:1].

    The rows of the adjugate of [p_i p_{i+1} p_{i+2}] are the cross
    products p_{i+1} x p_{i+2}, p_{i+2} x p_i, p_i x p_{i+1}; scaling
    each row by the inverse of its product with p_{i+3} fixes [1:1:1].
    Raises ValueError when four consecutive points are not a frame.
    """
    records = []
    for i in range(8):
        p0, p1, p2, p3 = (points[(i + k) % 8] for k in range(4))
        rows = (_cross(p1, p2, ctx), _cross(p2, p0, ctx), _cross(p0, p1, ctx))
        scales = [_dot(r, p3, ctx) for r in rows]
        if _dot(rows[0], p0, ctx) == 0 or 0 in scales:
            raise ValueError(f"points {i}..{i + 3} of the orbit are not a frame")
        mat = tuple(
            tuple(ctx.mul(inv, x) for x in r)
            for r, inv in zip(rows, map(ctx.inv, scales))
        )
        records.append(
            tuple(apply_raw(mat, points[(i + k) % 8], ctx) for k in range(4, 8))
        )
    return records


def canonical_class(orbit: GaloisOrbit8) -> ClassKey:
    """The Frobenius-frame key: the least of the 8 frame records of the
    orbit walked in Frobenius order p, Fp, ..., F^7 p.

    Two orbits get the same key iff they are PGL_3(F_q)-equivalent.  Any
    g in PGL_3(F_q) commutes with Frobenius, so it carries rotation i of
    one orbit to some rotation of the image, with the same record.
    Conversely, if rotation i of one orbit and rotation j of another give
    the same record, the composite g of the two frame maps lies in
    PGL_3(F_{q^8}) and sends p_{i+k} to p'_{j+k} for every k.  Then g^F
    sends p_{i+k+1} to p'_{j+k+1} as well, so g and g^F agree on the
    frame p_{i+1}, ..., p_{i+4}; hence g = g^F, and by Hilbert 90 g is
    represented by a matrix over F_q.  The number of rotations reaching
    the minimum is the order of the orbit's stabilizer in PGL_3(F_q).

    Raises ValueError when the points are not one Frobenius orbit, or
    when some four consecutive points are not a frame (never for an
    orbit in general position).
    """
    points = frobenius_orbit(orbit.ctx, orbit.points[0])
    if len(points) != 8:
        raise ValueError("the points are not one Frobenius orbit of size 8")
    return ClassKey(min(_frame_records(points, orbit.ctx)))


# ----------------------------------------------------------------------
# the M_q bound

def mq_bound(q: int):
    """The lower bound M_q for the number of Bertini classes over F_q:
    M_2 = 2, M_3 = 12, and (q^6 - 1)/640 for q >= 4."""
    if q == 2:
        return Fraction(2)
    if q == 3:
        return Fraction(12)
    return Fraction(q ** 6 - 1, 640)


def mq_cross_check(q: int) -> dict:
    """Recompute M_q from the counting product N1.N2.N3 / (12 |PGL_3|)
    in exact rational arithmetic and compare with the closed form.

    N1 = (q^2+q+1) q(q+1)/2 counts (node, tangent pair) poses, N2 counts
    posed nodal cubics ((q-1)^2 q^2, divided by 3 only when 3 | q-1),
    and N3 counts general-position orbits on one cubic.  For q = 2 all
    240 elements outside F_16 enter N3, and for q = 3 the exact
    generator count phi(3^8 - 1) = 2560 does; both use the 9/10 twist
    ratio.  With the 1/3 present the product telescopes to exactly
    (q^6-1)/640; without it (3 not dividing q-1) the product is three
    times the closed form, so the closed form stays a valid lower bound.
    """
    n1 = Fraction((q * q + q + 1) * q * (q + 1), 2)
    divide_by_3 = (q - 1) % 3 == 0
    n2 = Fraction((q - 1) ** 2 * q * q, 3 if divide_by_3 else 1)
    if q == 2:
        orbit_pool = Fraction(240)
    elif q == 3:
        orbit_pool = Fraction(euler_phi(3 ** 8 - 1))
    else:
        orbit_pool = Fraction(q ** 6 - 1)
    n3 = Fraction(9, 10) * orbit_pool / 8
    product = n1 * n2 * n3 / (12 * pgl3_order(q))
    closed = Fraction(q ** 6 - 1, 640)
    return {
        "q": q,
        "N1": n1,
        "N2": n2,
        "N3": n3,
        "pgl3_order": pgl3_order(q),
        "product": product,
        "closed_form": closed,
        "divide_by_3": divide_by_3,
        "bound": mq_bound(q),
    }


# ----------------------------------------------------------------------
# the orbit lemma

def verify_orbit_lemma(q: int) -> dict:
    """Check that distinct conjugates x != x^(q^i) never lie in the same
    F_{q^4}*-coset, for all x outside F_{q^4} when q = 2 and for all
    generators of F_{q^8}* otherwise.  Returns a report with the number
    of elements checked and the list of violations (expected empty)."""
    ctx = get_ctx(q, 8)
    units = ctx.size - 1
    if q == 2:
        eligible = [e for e in range(1, ctx.size) if not ctx.in_subfield(e, 4)]
    else:
        eligible = [e for e in range(1, ctx.size) if ctx.order(e) == units]
    violations = []
    for x in eligible:
        # every eligible x lies outside F_{q^4}: its 7 conjugates differ from it
        for i, (xi,) in enumerate(frobenius_orbit(ctx, (x,))[1:], start=1):
            if ctx.in_subfield(ctx.div(xi, x), 4):
                violations.append((x, i))
    return {
        "q": q,
        "checked": len(eligible),
        "conjugations": 7,
        "violations": violations,
    }


# ----------------------------------------------------------------------
# the census driver

@dataclass
class CensusResult:
    q: int
    mode: str
    total_degree8_orbits: int
    general_position_count: int
    pgl3_class_count: int
    mq_bound: str
    bound_satisfied: bool
    elapsed_ms: int
    threads: int = 1
    sample_size: int | None = None
    nodal_class_count: int = 0
    non_nodal_class_count: int = 0
    version: int = RESULT_VERSION
    class_reps: list = field(default_factory=list, repr=False)

    def to_json(self, with_reps: bool = False) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if with_reps or f.name != "class_reps"
        }


def _subspace_states(q: int):
    """Each 3-subspace V of F_{q^8} containing 1 once, as the reduced
    echelon basis (u, v), u > v, of its image in F_{q^8}/F_q: both
    encodings have constant digit 0 (the quotient drops it), u has
    leading digit 1 in place i, v has leading digit 1 in place j < i, and
    u has digit 0 in place j."""
    for i in range(2, 8):
        for j in range(1, i):
            for low_v in range(q ** (j - 1)):
                v = q ** j + low_v * q
                for rest in range(q ** (i - 2)):
                    high, low = divmod(rest, q ** (j - 1))
                    yield q ** i + high * q ** (j + 1) + low * q, v


def _subspace_ops(q: int):
    """The two operations of the subspace model over F_{q^8}:
    `state(a, b)`, the reduced echelon basis (u, v) of the image of
    span(1, a, b) in F_{q^8}/F_q (see `_subspace_states`), and
    `scalings(u, v)`, which yields for each t != 1 of V = span(1, u, v)
    up to F_q^* a pair (a, b) with t^{-1} V = span(1, a, b)."""
    ctx = get_ctx(q, 8)
    mul, add, sub, inv = ctx.mul, ctx.add, ctx.sub, ctx.inv
    powers = [q ** k for k in range(9)]

    def state(a, b):
        # the reduced echelon basis of the image of span(1, a, b)
        a -= a % q
        b -= b % q
        if a < b:
            a, b = b, a
        lead = powers[bisect_right(powers, a) - 1]
        if a >= 2 * lead:
            a = mul(inv(a // lead), a)
        if b >= lead:
            b = sub(b, mul(b // lead, a))
        lead = powers[bisect_right(powers, b) - 1]
        if b >= 2 * lead:
            b = mul(inv(b // lead), b)
        c = a // lead % q
        if c:
            a = sub(a, mul(c, b))
        return a, b

    def scalings(u, v):
        # t = 1 + bu + cv, u + cv or v: t^{-1} times the two other vectors
        # of the basis (1, u, v) spans the image of t^{-1} V
        us = [mul(b, u) for b in range(q)]
        vs = [mul(c, v) for c in range(q)]
        for b in range(q):
            for c in range(1 if b == 0 else 0, q):
                t = inv(add(1, add(us[b], vs[c])))
                yield mul(t, u), mul(t, v)
            t = inv(add(u, vs[b]))
            yield t, mul(t, v)
        t = inv(v)
        yield t, mul(t, u)

    return state, scalings


def _subspace_components(q: int) -> list:
    """The orbits of F_{q^8}^* x| Gal on the 3-subspaces of F_{q^8}, as
    the components of the subspaces containing 1 under the moves
    V -> V^q and V -> t^{-1} V, t in V \\ 0 up to F_q^*.  Returns, for
    each component, the point [1:u:v] of its first state (u, v) in the
    order of `_subspace_states`, and the number of subspaces in it."""
    frob = get_ctx(q, 8).frobenius
    state, scalings = _subspace_ops(q)
    seen = set()
    components = []
    for start in _subspace_states(q):
        if start in seen:
            continue
        seen.add(start)
        todo = [start]
        size = 0
        while todo:
            size += 1
            u, v = todo.pop()
            for a, b in ((frob(u), frob(v)), *scalings(u, v)):
                s = state(a, b)
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        components.append(((1, *start), size))
    return components


@functools.cache
def _nodal_states(q: int) -> frozenset:
    """The states of the subspaces U_a = span(1, a, a^2 - a^{-1}), a of
    degree 8 over F_q, each packed as u q^8 + v: the coordinate spans of
    the points [a : c0(a^3 - 1)/a : 1] of the nodal cubics
    xyz = c0 x^3 - c0 z^3, whatever c0 in F_q^*.  Built once per q and
    process."""
    ctx = get_ctx(q, 8)
    state, _ = _subspace_ops(q)
    states = (state(a, ctx.sub(ctx.mul(a, a), ctx.inv(a)))
              for a in range(1, ctx.size) if not ctx.in_subfield(a, 4))
    return frozenset(u * ctx.size + v for u, v in states)


def _class_of(job):
    """The per-orbit census step: the general-position test on the
    Frobenius orbit of `point` and, when it passes, the class key, the
    sorted orbit as its representative, and whether the class is nodal.
    The class of a point with coordinate span V is nodal iff t^{-1} V is
    some U_a of `_nodal_states` for a t in V (t = 1 included).  The number
    of frame rotations reaching the key is the stabilizer order of the
    orbit in PGL_3(F_q); the exact census passes the order its search
    gives as `stab`, which must match, and the sampled census None."""
    q, point, stab = job
    ctx = get_ctx(q, 8)
    points = frobenius_orbit(ctx, point)
    # the all-tuples test, not orbit_report: a faster census-q3 would
    # outgrow its per-item oracle check (ROADMAP item 7)
    if not general_position_report(points, ctx).ok:
        return None
    records = _frame_records(points, ctx)
    key = min(records)
    if stab and records.count(key) != stab:
        raise AssertionError(f"stabilizer of {point}: frame rotations != {stab}")
    state, scalings = _subspace_ops(q)
    x = ctx.inv(point[0])  # nonzero: a GP point lies off the line x = 0
    u, v = state(ctx.mul(x, point[1]), ctx.mul(x, point[2]))
    states = [(u, v)] + [state(a, b) for a, b in scalings(u, v)]
    nodal = not _nodal_states(q).isdisjoint(a * ctx.size + b for a, b in states)
    return ClassKey(key), tuple(sorted(points)), nodal


def run_census(
    q: int,
    mode: str = "exact",
    threads: int = 1,
    sample_size: int | None = None,
    rng_seed: int = 0,
) -> CensusResult:
    """Count general-position degree-8 orbits and their PGL_3(F_q)
    classes; assert the class count meets the M_q bound.

    Exact mode searches the 3-subspaces of F_{q^8} (see the module
    docstring): each component of degree 8 is a class of |PGL_3(F_q)|/s
    orbits, s = 8(q^2+q+1)/|component|, reported in key order by one
    sorted orbit.  It asserts the orbit identity, that each GP class has
    s minimal frame rotations, and that no two classes share a key; with
    threads > 1 the GP tests and keys run on a worker pool.  Sampled
    mode tests `sample_size` distinct orbits chosen by a seeded RNG, on
    one worker whatever `threads` says, and reports a certified lower
    bound on the class count (distinct canonical keys are distinct
    classes; it can never overcount).  A sample larger than the
    (q^16 - q^4)/8 degree-8 orbits raises ValueError before any work.

    Both modes flag each GP class nodal or not by the subspace lookup of
    the module docstring; the exact census finds 14 nodal classes of 38
    at q = 2 and 351 of 900 at q = 3.
    """
    if q not in (2, 3):
        raise ValueError("exhaustive censuses are supported for q in {2, 3}")
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    t0 = time.monotonic()
    total = total_degree8_orbits(q)
    keys: dict = {}
    orbits = 0
    gp = 0

    if mode == "exact":
        ctx = get_ctx(q, 8)
        group = pgl3_order(q)
        jobs = []
        for point, size in _subspace_components(q):
            if len(frobenius_orbit(ctx, point)) != 8:
                continue
            stab, rest = divmod(8 * (q * q + q + 1), size)
            if rest:
                raise AssertionError(f"stabilizer of {point}: {size} subspaces")
            orbits += group // stab
            jobs.append((q, point, stab))
        # the degree-8 orbits on the q^2 + q + 1 rational lines span no
        # 3-subspace, so the search leaves them out
        on_lines = (q * q + q + 1) * (q ** 8 - q ** 4) // 8
        if orbits + on_lines != total:
            raise AssertionError(
                f"orbit identity: {orbits} + {on_lines} != {total} degree-8 orbits"
            )
        if threads > 1:
            import multiprocessing as mp

            with mp.get_context("spawn").Pool(threads) as pool:
                found = list(pool.imap(_class_of, jobs))
        else:
            found = list(map(_class_of, jobs))
        for (_, point, stab), hit in zip(jobs, found):
            if hit:
                if hit[0] in keys:
                    raise AssertionError(f"two components share the key of {point}")
                keys[hit[0]] = hit[1:]
                gp += group // stab
    else:
        if not sample_size or sample_size < 1:
            raise ValueError("sampled mode needs a positive sample_size")
        if sample_size > total:
            raise ValueError(
                f"a sample of {sample_size} orbits exceeds the {total} "
                f"degree-8 orbits over F_{q}"
            )
        import random

        rng = random.Random(rng_seed)
        ctx = get_ctx(q, 8)
        index_space = _point_count(q)
        tested = set()
        while len(tested) < sample_size:
            points = frobenius_orbit(ctx, _point_at(q, rng.randrange(index_space)))
            if len(points) != 8:
                continue
            canon = tuple(sorted(points))
            if canon in tested:
                continue
            tested.add(canon)
            orbits += 1
            hit = _class_of((q, canon[0], None))
            if hit:
                gp += 1
                if hit[0] not in keys or canon < keys[hit[0]][0]:
                    keys[hit[0]] = hit[1:]

    nodal = sum(flag for _, flag in keys.values())
    bound = mq_bound(q)
    class_count = len(keys)
    return CensusResult(
        q=q,
        mode=mode,
        total_degree8_orbits=total,
        general_position_count=gp,
        pgl3_class_count=class_count,
        mq_bound=str(bound),
        bound_satisfied=class_count >= math.ceil(bound),
        elapsed_ms=int((time.monotonic() - t0) * 1000),
        threads=threads if mode == "exact" else 1,
        sample_size=sample_size,
        nodal_class_count=nodal,
        non_nodal_class_count=class_count - nodal,
        class_reps=[keys[key][0] for key in sorted(keys)],
    )
