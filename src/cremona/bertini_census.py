"""Census of Bertini classes over F_q, q in {2, 3}.

A Bertini involution with a base point of degree 8 corresponds to a
general-position (GP) degree-8 orbit in P^2(F_{q^8}); counting such
orbits up to the action of PGL_3(F_q) gives the number of Bertini
classes the construction produces.

Classes are counted as subspaces, not points.  The coordinates of a
point p = [x0:x1:x2] off every F_q-rational line span a 3-dimensional
F_q-subspace V of F_{q^8}, defined up to scaling by F_{q^8}^*.  Changing
the F_q-basis of V is the action of PGL_3(F_q) on p, and Frobenius sends
V to V^q, so the PGL_3(F_q)-classes of Frobenius orbits are the orbits
of G = F_{q^8}^* x| Gal on 3-subspaces.  A state is a subspace that
contains 1, stored as the reduced echelon basis (u, v) of its image in
F_{q^8}/F_q; the point [1:u:v] spans it.  The component of V is the set
of states of its G-orbit: the t^{-1} V^{q^k}, k = 0..7 and t in V^{q^k}
up to F_q^*.  These are 8(q^2+q+1) states with repeats, and
8(q^2+q+1)/s distinct ones, s the stabilizer order of the class in
PGL_3(F_q).

A class is named by its key, the least state of its component, and
represented by the sorted orbit of the point [1:u:v] of that state:
both are the same for every orbit of the class.  The exact census takes
the components of all [7 choose 2]_q states (2667 at q = 2, 99,463 at
q = 3) and asserts the orbit identity: the sum of |PGL_3(F_q)|/s over
the degree-8 classes, plus the (q^2+q+1)(q^8 - q^4)/8 orbits on
rational lines, is (q^16 - q^4)/8.  Sampled mode draws states uniformly,
which weights each class by 1/s, as drawing points would.

A class is nodal when the paper's explicit construction reaches it: the
orbit of a point [a : c0(a^3 - 1)/a : 1], a of degree 8, on a nodal cubic
xyz = c0 x^3 - c0 z^3.  The coordinates of that point span
U_a = span(1, a, a^2 - a^{-1}) whatever c0 in F_q^*, and U_a^q = U_{a^q}.
So a class is nodal iff its component holds the state of some U_a, a of
degree 8; those states are built once per q.  Both modes run this test
on every GP class.

The lower bound M_q for the class count, and the exact-rational identity
between its closed form (q^6 - 1)/640 and the counting product
N1.N2.N3 / (12 |PGL_3|), are implemented in `mq_bound` / `mq_cross_check`.
"""

from __future__ import annotations

import functools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .field_tower import euler_phi, frobenius_orbit, get_ctx
from .general_position import GaloisOrbit8, general_position_report

__all__ = [
    "CensusResult",
    "ClassKey",
    "canonical_class",
    "mq_bound",
    "mq_cross_check",
    "pgl3_order",
    "run_census",
    "total_degree8_orbits",
    "verify_orbit_lemma",
]

RESULT_VERSION = 4


def pgl3_order(q: int) -> int:
    """|PGL_3(F_q)| = q^3 (q^3 - 1)(q^2 - 1)."""
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)


def total_degree8_orbits(q: int) -> int:
    """(|P^2(F_{q^8})| - |P^2(F_{q^4})|) / 8 = (q^16 - q^4) / 8."""
    return (q ** 16 - q ** 4) // 8


# ----------------------------------------------------------------------
# canonical class keys

@dataclass(frozen=True, order=True)
class ClassKey:
    """The PGL_3(F_q)-canonical name of a class: the least state (u, v)
    of its component (see `canonical_class`)."""

    state: tuple


def canonical_class(orbit: GaloisOrbit8) -> ClassKey:
    """The least state of the component of the orbit's coordinate span.

    Two orbits get the same key iff they are PGL_3(F_q)-equivalent: the
    class is the G-orbit of the span (see the module docstring), and its
    states are the component.

    Raises ValueError when the points lie on an F_q-rational line (never
    for an orbit in general position).
    """
    q = orbit.ctx.p
    return ClassKey(min(_component(q, *_point_state(q, orbit.points[0]))))


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
    span(1, a, b) in F_{q^8}/F_q (see `_subspace_states`), with v = 0
    exactly when 1, a and b are dependent over F_q; and `scalings(u, v)`,
    which yields for each t != 1 of V = span(1, u, v) up to F_q^* a pair
    (a, b) with t^{-1} V = span(1, a, b)."""
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


def _component(q: int, u: int, v: int) -> list:
    """The 8(q^2+q+1) states t^{-1} V^{q^k} of V = span(1, u, v), with
    repeats: for k = 0..7, the state of V^{q^k} and its scalings."""
    frob = get_ctx(q, 8).frobenius
    state, scalings = _subspace_ops(q)
    states = []
    for _ in range(8):
        states.append((u, v))
        states.extend(state(a, b) for a, b in scalings(u, v))
        u, v = state(frob(u), frob(v))
    return states


def _point_state(q: int, point) -> tuple:
    """The state of the coordinate span of a point of P^2(F_{q^8}).
    Raises ValueError when the point lies on an F_q-rational line, whose
    coordinates span no 3-subspace."""
    ctx = get_ctx(q, 8)
    state, _ = _subspace_ops(q)
    if point[0]:
        x = ctx.inv(point[0])
        u, v = state(ctx.mul(x, point[1]), ctx.mul(x, point[2]))
        if v:
            return u, v
    raise ValueError(f"{point} lies on an F_{q}-rational line")


def _subspace_components(q: int) -> list:
    """The orbits of F_{q^8}^* x| Gal on the 3-subspaces of F_{q^8}, as
    the components of the states.  Returns, for each component, the
    point [1:u:v] of its first state (u, v) in the order of
    `_subspace_states`, and its number of distinct states."""
    seen = set()
    components = []
    for start in _subspace_states(q):
        if start not in seen:
            states = set(_component(q, *start))
            seen |= states
            components.append(((1, *start), len(states)))
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
    representative and whether the class is nodal, all read off the
    component of the point's state.  The representative is the sorted
    orbit of [1:u:v] for the key (u, v); the class is nodal iff some state
    of the component is in `_nodal_states`.  The exact census passes the
    stabilizer order its search gives as `stab`, which must equal
    8(q^2+q+1) over the number of distinct states; the sampled census
    passes None."""
    q, point, stab = job
    ctx = get_ctx(q, 8)
    # the all-tuples test, not orbit_report: a faster census-q3 would
    # outgrow its per-item oracle check (ROADMAP item 1, which waits on
    # the bound of that check in item 3)
    if not general_position_report(frobenius_orbit(ctx, point), ctx).ok:
        return None
    states = set(_component(q, *_point_state(q, point)))
    if stab and stab * len(states) != 8 * (q * q + q + 1):
        raise AssertionError(
            f"stabilizer order of {point}: {stab} from the search, "
            f"{len(states)} states in its component"
        )
    key = min(states)
    nodal = not _nodal_states(q).isdisjoint(u * ctx.size + v for u, v in states)
    return ClassKey(key), tuple(sorted(frobenius_orbit(ctx, (1, *key)))), nodal


def run_census(
    q: int,
    mode: str = "exact",
    threads: int = 1,
    sample_size: int | None = None,
    rng_seed: int = 0,
) -> CensusResult:
    """Count general-position degree-8 orbits and their PGL_3(F_q)
    classes; assert the class count meets the M_q bound.

    Both modes name a class by its key, the least state of its
    component, and report one representative per class in key order: the
    sorted orbit of the point of that state (see the module docstring).

    Exact mode takes the components of all states: each component of
    degree 8 is a class of |PGL_3(F_q)|/s orbits,
    s = 8(q^2+q+1)/|component|.  It asserts the orbit identity, that the
    component of each GP class gives the same s, and that no two
    components share a key; with threads > 1 the GP tests and keys run on
    a worker pool.

    Sampled mode makes `sample_size` draws of states of degree 8 by a
    seeded RNG, on one worker whatever `threads` says, and reports a
    certified lower bound on the class count: distinct keys are distinct
    classes, so it can never overcount.  Draws are made with replacement,
    so a sample may be larger than the number of orbits.

    Both modes flag each GP class nodal or not by the lookup of the
    module docstring; the exact census finds 14 nodal classes of 38 at
    q = 2 and 351 of 900 at q = 3.
    """
    if q not in (2, 3):
        raise ValueError("exhaustive censuses are supported for q in {2, 3}")
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    t0 = time.monotonic()
    total = total_degree8_orbits(q)
    ctx = get_ctx(q, 8)
    keys: dict = {}
    gp = 0

    if mode == "exact":
        group = pgl3_order(q)
        orbits = 0
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
        import random

        rng = random.Random(rng_seed)
        state, _ = _subspace_ops(q)
        draws = 0
        while draws < sample_size:
            u, v = state(rng.randrange(ctx.size), rng.randrange(ctx.size))
            # 1, a and b dependent, or the one component of degree < 8
            if not v or len(frobenius_orbit(ctx, (1, u, v))) != 8:
                continue
            draws += 1
            hit = _class_of((q, (1, u, v), None))
            if hit:
                gp += 1
                keys.setdefault(hit[0], hit[1:])

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
