"""Exhaustive census of Bertini classes over F_q, q in {2, 3}.

A Bertini involution with a base point of degree 8 corresponds to a
general-position degree-8 orbit in P^2(F_{q^8}); counting such orbits
up to the action of PGL_3(F_q) gives the number of Bertini classes the
construction produces.  The census enumerates every degree-8 orbit by
minimal seed, filters by the general-position test, and reduces each
survivor to a canonical class key.

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

import contextlib
import functools
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .field_tower import euler_phi, frobenius_orbit, get_ctx
from .general_position import GaloisOrbit8, general_position_report
from .nodal_cubic import NodalCubicNF, param_point
from .plane_geometry import ProjTransform, apply_raw

__all__ = [
    "CensusResult",
    "CheckpointCorrupt",
    "ClassKey",
    "ResourceBudgetExceeded",
    "canonical_class",
    "enumerate_orbits",
    "mq_bound",
    "mq_cross_check",
    "pgl3_elements",
    "pgl3_order",
    "run_census",
    "total_degree8_orbits",
    "verify_orbit_lemma",
]

RESULT_VERSION = 2


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file failed to parse, carries a stale version, or
    holds a range that is not one of the run's chunk ranges."""


class ResourceBudgetExceeded(RuntimeError):
    """Sampled mode ran out of budget before reaching the target."""


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
# orbit enumeration

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


def _orbits_in(q: int, lo: int, hi: int):
    """The degree-8 orbits whose minimal seed has its index in [lo, hi),
    each once, in seed order, as point lists in Frobenius order from the
    seed."""
    ctx = get_ctx(q, 8)
    for index in range(lo, hi):
        coords = _point_at(q, index)
        orbit = frobenius_orbit(ctx, coords)
        if len(orbit) == 8 and min(orbit) == coords:
            yield orbit


def enumerate_orbits(q: int):
    """Each degree-8 orbit of P^2(F_{q^8}) exactly once, as a
    GaloisOrbit8, keyed and ordered by minimal seed."""
    ctx = get_ctx(q, 8)
    for orbit in _orbits_in(q, 0, _point_count(q)):
        yield GaloisOrbit8(ctx, orbit)


# ----------------------------------------------------------------------
# canonical class keys

@dataclass(frozen=True, order=True)
class ClassKey:
    """PGL_3(F_q)-canonical form of an orbit: the least frame record
    (see `canonical_class`), four normalized coordinate triples."""

    serialized: tuple

    def to_json(self):
        return {"images": [list(p) for p in self.serialized]}


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


def _seed_ranges(q: int, chunk: int):
    """Split the linear index space of `_point_at` into ranges."""
    total = _point_count(q)
    lo = 0
    while lo < total:
        yield (lo, min(lo + chunk, total))
        lo += chunk


def _merge_keys(target: dict, part: dict):
    for key, rep in part.items():
        if key not in target or rep < target[key]:
            target[key] = rep


def _add_class(keys: dict, points, ctx) -> bool:
    """The per-orbit census step: run the general-position test on one
    degree-8 orbit and, when it passes, file its class key in `keys` with
    the least sorted representative.  Returns whether the orbit passed."""
    if not general_position_report(points, ctx).ok:
        return False
    orbit = GaloisOrbit8(ctx, points)
    _merge_keys(keys, {canonical_class(orbit): orbit.points})
    return True


def _census_range(args):
    """Process point indices [lo, hi): returns orbit/GP counts and the
    class keys (with minimal representative orbit per key)."""
    q, lo, hi = args
    ctx = get_ctx(q, 8)
    orbits = gp = 0
    keys: dict = {}
    for points in _orbits_in(q, lo, hi):
        orbits += 1
        gp += _add_class(keys, points, ctx)
    return orbits, gp, keys


@functools.cache
def _nodal_class_keys(q: int) -> frozenset:
    """Class keys of the general-position orbits produced by the nodal
    construction (all normal forms, all parameters with full orbit).
    Conjugate parameters give the same orbit, so only the least parameter
    of each Frobenius orbit is taken.  Computed once per q and process."""
    ctx = get_ctx(q, 8)
    keys: dict = {}
    for c0 in range(1, q):
        nf = NodalCubicNF(q, c0)
        for e in range(1, ctx.size):
            params = frobenius_orbit(ctx, (e,))
            if len(params) == 8 and min(params) == params[0]:
                coords = param_point(nf, ctx.element(e)).coords
                _add_class(keys, frobenius_orbit(ctx, coords), ctx)
    return frozenset(keys)


# how every record line begins: "version" is the first key written
_RECORD_HEAD = b'{"version":'


def _checkpoint_record(fh, q, lo, hi, orbits, gp, keys):
    """Append one finished range to the checkpoint and make it durable."""
    record = {
        "version": RESULT_VERSION,
        "q": q,
        "lo": lo,
        "hi": hi,
        "orbits": orbits,
        "gp": gp,
        "keys": [
            [key.to_json(), [list(p) for p in rep]] for key, rep in keys.items()
        ],
    }
    fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def _cut_torn_record(path):
    """Cut an unterminated final line that begins like a record.  A crash
    tore it while it was written, so its range never finished and runs
    again; left in place, it would run into the next record's line."""
    if not path or not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        data = fh.read()
        cut = data.rfind(b"\n") + 1
        torn = data[cut:]
        if torn and (torn.startswith(_RECORD_HEAD) or _RECORD_HEAD.startswith(torn)):
            fh.truncate(cut)


def _read_checkpoint(path, q):
    done = {}
    if not path or not os.path.exists(path):
        return done
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if rec.get("version") != RESULT_VERSION or rec.get("q") != q:
                    raise ValueError("stale checkpoint record")
                keys = {
                    ClassKey(tuple(tuple(p) for p in k["images"])):
                    tuple(tuple(p) for p in rep)
                    for k, rep in rec["keys"]
                }
                done[(rec["lo"], rec["hi"])] = (rec["orbits"], rec["gp"], keys)
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointCorrupt(f"{path}: {exc}") from exc
    return done


def run_census(
    q: int,
    mode: str = "exact",
    threads: int = 1,
    checkpoint_path: str | None = None,
    sample_size: int | None = None,
    rng_seed: int = 0,
    chunk: int = 1 << 14,
) -> CensusResult:
    """Count general-position degree-8 orbits and their PGL_3(F_q)
    classes; assert the class count meets the M_q bound.

    Exact mode streams every orbit (q = 2 takes under a minute; q = 3 is a
    long-running job, resumable through `checkpoint_path`; a checkpoint
    holding a range other than the chunk-`chunk` ranges is refused with
    CheckpointCorrupt before any work, and a torn last record, left by a
    crash during its write, is cut and its range run again).  Sampled
    mode tests `sample_size` distinct orbits chosen by a seeded RNG and
    reports a certified lower bound on the class count (distinct
    canonical keys are distinct classes; it can never overcount).
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
        _cut_torn_record(checkpoint_path)
        done = _read_checkpoint(checkpoint_path, q)
        ranges = list(_seed_ranges(q, chunk))
        stray = sorted(set(done) - set(ranges))
        if stray:
            raise CheckpointCorrupt(
                f"{checkpoint_path}: range {stray[0]} is not one of the "
                f"chunk-{chunk} ranges; it was written with another chunk size"
            )
        for _, (o, g, part) in sorted(done.items()):
            orbits += o
            gp += g
            _merge_keys(keys, part)
        jobs = [(q, lo, hi) for lo, hi in ranges if (lo, hi) not in done]
        with contextlib.ExitStack() as stack:
            ck = None
            if checkpoint_path:
                ck = stack.enter_context(open(checkpoint_path, "a"))
            run = map
            if threads > 1 and jobs:
                import multiprocessing as mp

                run = stack.enter_context(mp.Pool(threads)).imap
            for (_, lo, hi), (o, g, part) in zip(jobs, run(_census_range, jobs)):
                orbits += o
                gp += g
                _merge_keys(keys, part)
                if ck:
                    _checkpoint_record(ck, q, lo, hi, o, g, part)
        if orbits != total:
            raise AssertionError(
                f"orbit stream count {orbits} != formula {total}"
            )
    else:
        if not sample_size or sample_size < 1:
            raise ValueError("sampled mode needs a positive sample_size")
        import random

        rng = random.Random(rng_seed)
        ctx = get_ctx(q, 8)
        index_space = _point_count(q)
        tested = set()
        budget = 200 * sample_size
        while len(tested) < sample_size:
            budget -= 1
            if budget <= 0:
                raise ResourceBudgetExceeded(
                    f"could not reach {sample_size} orbits"
                )
            points = frobenius_orbit(ctx, _point_at(q, rng.randrange(index_space)))
            if len(points) != 8:
                continue
            canon = tuple(sorted(points))
            if canon in tested:
                continue
            tested.add(canon)
            orbits += 1
            gp += _add_class(keys, canon, ctx)

    nodal_keys = _nodal_class_keys(q) if q == 2 else frozenset()
    nodal = len(nodal_keys & keys.keys())
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
        threads=threads,
        sample_size=sample_size,
        nodal_class_count=nodal,
        non_nodal_class_count=class_count - nodal if nodal_keys else 0,
        class_reps=[rep for _, rep in sorted(keys.items())],
    )
