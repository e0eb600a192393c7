"""Integer Neron-Severi models of blow-ups of the plane.

A `Lattice` is a basis with its intersection form, the canonical class
and the orbit degrees of the exceptional classes, for the generic
configuration it models.  Ordinary blow-ups of orbits of degrees
(d_1, ..., d_r) use the orthogonal basis (H, E_1, ..., E_r) with H^2 = 1
and E_i^2 = -d_i; an infinitely-near pair of rational points uses the
strict-transform basis (L', E, E') with -K = 3L' + 2E + 4E' and
H = L' + E + 2E'.

The walls and fibers come in closed form from the plane blown up at the
n = sum d_i geometric points (Manin, *Cubic Forms* sections 23-26;
Dolgachev, *Classical Algebraic Geometry* ch. 8): Frobenius cycles the
points of each orbit, a wall is the sum of a Frobenius orbit of pairwise
orthogonal (-1)-classes, and a fiber is a Frobenius-fixed conic class
that is nef on the curves.  These lists are finite only for n <= 8
(K^2 >= 1); beyond that the explorer raises `OutsideScope`, while
`blowup_lattice` and `Lattice.k_squared` still work.

Contractions are tracked as sets of pairwise-orthogonal walls in the
ambient lattice: the pullbacks of the exceptional orbit classes
contracted along the way.  Iterating over all contraction states yields
the chamber decomposition of the big cone (each chamber is the set of
divisors whose ample model contracts exactly that state) and the
explorer's cached `fibrations` list: every fibration of rank 1 to 3,
decided once.  Its rank-1 entries are the windows on the non-big
boundary, and all of its entries are the vertices of the square
complexes built in `sarkisov_complex`.

The explorer works in integers: walls, fibers and states never leave
Z, projections away from a state are taken as m times the projection
(`_scaled_projection`) in the collapse test of `LatticeExplorer._kept`
and the certificate bounds of `chambers`, and the sign tests on a
rational class D run on D's positive integral multiple.  Fractions
appear only in rational answers: the chamber certificates (with the
scalars t and eps that build them) and the pushforwards of
`_project_away`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

__all__ = [
    "BadNesting",
    "Chamber",
    "Lattice",
    "NotBig",
    "NotNested",
    "OutsideScope",
    "blowup_lattice",
    "chambers",
    "codim_of_shared_face",
    "negative_classes",
    "run_ample_model",
    "windows",
]


class BadNesting(ValueError):
    """The infinitely-near relations are not a supported forest."""


class NotBig(ValueError):
    """The divisor class is not big (its ample model is not birational)."""


class NotNested(ValueError):
    """The two chambers' contracted sets are not nested."""


class OutsideScope(ValueError):
    """The lattice has K^2 <= 0 (more than 8 geometric points), where the
    (-1)-classes are infinite in number and no wall list is modelled."""


Vec = tuple[int, ...]


@dataclass(frozen=True)
class Lattice:
    """Neron-Severi model: labels, Gram matrix, canonical class, the
    orbit degrees (0, d_1, ..., d_r) of the orthogonal model
    (H, e_1, ..., e_r) in which walls and fibers are computed, and the
    curves that are not sums of (-1)-classes (the nested pair's E)."""

    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    K: Vec
    degrees: tuple[int, ...]
    eff_gens: tuple[Vec, ...]
    orth_to_public: tuple[tuple[int, ...], ...]  # columns: H, e_1, ..., e_r

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def _gram_terms(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (i, j, g)
            for i, row in enumerate(self.gram)
            for j, g in enumerate(row)
            if g
        )

    def dot(self, u, v):
        """The intersection form, summed over the nonzero Gram entries
        only (one per basis vector in the diagonal models); exact on ints
        and on Fractions."""
        return sum(u[i] * g * v[j] for i, j, g in self._gram_terms)

    def selfint(self, v) -> int:
        return self.dot(v, v)

    def k_dot(self, v) -> int:
        return self.dot(self.K, v)

    def k_squared(self) -> int:
        return self.dot(self.K, self.K)

    def basis_vector(self, label: str) -> Vec:
        i = self.labels.index(label)
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def vector(self, coeff_map: dict) -> Vec:
        out = [0] * self.rank
        for label, c in coeff_map.items():
            out[self.labels.index(label)] = c
        return tuple(out)

    def describe(self, v) -> str:
        """Human-readable combination of basis labels, e.g. 'H-E1-E2'."""
        parts = []
        for c, label in zip(v, self.labels):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else mag}{label}")
        return "".join(parts) or "0"

    def from_orth(self, v) -> Vec:
        t = self.orth_to_public
        n = self.rank
        return tuple(sum(t[i][j] * v[j] for j in range(n)) for i in range(n))

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "gram": [list(r) for r in self.gram],
            "K": list(self.K),
            "degrees": list(self.degrees),
        }


def blowup_lattice(degrees, nesting=None) -> Lattice:
    """Blow-up of P^2 at orbits of the given degrees.

    Without nesting: basis (H, E1, ..., Er), Gram diag(1, -d_1, ..., -d_r),
    K = -3H + sum E_i.  The only supported nesting is a pair of rational
    points with the second infinitely near the first, which returns the
    strict-transform basis (L', E, E').
    """
    degrees = tuple(int(d) for d in degrees)
    if any(d < 1 for d in degrees):
        raise ValueError("orbit degrees must be >= 1")
    r = len(degrees)
    if nesting is not None and any(p is not None for p in nesting):
        if list(nesting) != [None, 0] or degrees != (1, 1):
            raise BadNesting(
                "only a single infinitely-near pair of rational points is modeled"
            )
        # L' = H-e1-e2, E = e1-e2, E' = e2; the columns of orth_to_public
        # are H = L'+E+2E', e1 = E+E', e2 = E'; the (-2)-curve E is the
        # one curve that is not a sum of (-1)-classes
        return Lattice(
            labels=("L'", "E", "E'"),
            gram=((-1, 0, 1), (0, -2, 1), (1, 1, -1)),
            K=(-3, -2, -4),  # -K = 3L' + 2E + 4E'
            degrees=(0, 1, 1),
            eff_gens=((0, 1, 0),),
            orth_to_public=((1, 0, 0), (1, 1, 0), (2, 1, 1)),
        )
    gram = [[0] * (r + 1) for _ in range(r + 1)]
    gram[0][0] = 1
    for i, d in enumerate(degrees):
        gram[i + 1][i + 1] = -d
    return Lattice(
        labels=("H",) + tuple(f"E{i+1}" for i in range(r)),
        gram=tuple(tuple(row) for row in gram),
        K=(-3,) + (1,) * r,
        degrees=(0,) + degrees,
        eff_gens=(),
        orth_to_public=tuple(
            tuple(int(i == j) for j in range(r + 1)) for i in range(r + 1)
        ),
    )


# ----------------------------------------------------------------------
# walls and fibers in closed form, from the plane's classes

def _plane_classes(degrees: tuple[int, ...], square: int, k_dot: int) -> list[Vec]:
    """Every class aH - sum b_j e_j on the plane blown up at n = sum d_i
    <= 8 geometric points, in orbits of the given degrees d_i, that is
    constant on each orbit (b_j = beta_i for the d_i points of orbit i)
    with C^2 = square and K.C = k_dot, as (a, beta_1..beta_r): a
    ascending, then beta lexicographic.  Degrees (1,) * n give every
    class of the n points.

    The two conditions fix sum d_i beta_i = k_dot + 3a and
    sum d_i beta_i^2 = a^2 - square, and Cauchy-Schwarz,
    (sum d_i beta_i)^2 <= n sum d_i beta_i^2, confines a to the interval
    where (9-n)a^2 + 6 k_dot a + k_dot^2 + n square <= 0.  The
    (-1)-classes (square = k_dot = -1) of n points number 1, 3, 6, 10,
    16, 27, 56, 240 for n = 1..8 and the conic classes (0, -2) 1, 2, 3,
    5, 10, 27, 126, 2160.
    """
    n = sum(degrees)
    if n > 8:
        raise OutsideScope(
            f"{n} geometric points: K^2 = {9 - n} <= 0, where the "
            "(-1)-classes are not a finite list"
        )
    qa, qb, qc = 9 - n, 6 * k_dot, k_dot * k_dot + n * square
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    root = math.isqrt(disc)
    # weight[i]: the points in orbits i, i+1, ...
    weight = [sum(degrees[i:]) for i in range(len(degrees) + 1)]

    def tuples(i, total, sq):
        # the betas of orbits i.. with the given weighted sum and sum of
        # squares
        if i == len(degrees):
            if total == 0 and sq == 0:
                yield ()
            return
        d = degrees[i]
        top = math.isqrt(sq // d)
        for b in range(-top, top + 1):
            t, s = total - d * b, sq - d * b * b
            if t * t <= weight[i + 1] * s:
                for rest in tuples(i + 1, t, s):
                    yield (b,) + rest

    out = []
    for a in range(-((qb + root) // (2 * qa)), (root - qb) // (2 * qa) + 1):
        sq = a * a - square
        if sq >= 0:
            out.extend((a,) + bs for bs in tuples(0, k_dot + 3 * a, sq))
    return out


def _walls_and_fibers(lat: Lattice):
    """The lattice's walls and fibers in closed form.

    Frobenius cycles the d_i geometric points of each orbit.  A wall is
    the sum of a Frobenius orbit of pairwise orthogonal (-1)-classes; a
    fiber is a Frobenius-fixed class with f^2 = 0, K.f = -2 that is nef
    on the curves (the walls and `lat.eff_gens`).  Both are returned in
    the lattice's basis: the walls sorted, the fibers in the order of
    `_plane_classes`.
    """
    degs = lat.degrees[1:]
    n = sum(degs)
    exceptional = _plane_classes((1,) * n, -1, -1)
    starts = [sum(degs[:i]) for i in range(len(degs))]
    succ = [0] * n  # Frobenius on the points, one cycle per orbit
    for s, d in zip(starts, degs):
        for k in range(d):
            succ[s + k] = s + (k + 1) % d

    def frob(c):
        b = [0] * n
        for j in range(n):
            b[succ[j]] = c[1 + j]
        return (c[0],) + tuple(b)

    def dot(u, v):
        return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))

    def to_lattice(a, betas):
        return lat.from_orth((a,) + tuple(-b for b in betas))

    walls, seen = set(), set()
    for c in exceptional:
        if c in seen:
            continue
        orbit = [c]
        while (nxt := frob(orbit[-1])) != c:
            orbit.append(nxt)
        seen.update(orbit)
        if all(dot(u, v) == 0 for u, v in itertools.combinations(orbit, 2)):
            # an F-invariant class is constant on each orbit of points
            total = [sum(col) for col in zip(*orbit)]
            walls.add(to_lattice(total[0], (total[1 + s] for s in starts)))
    walls = sorted(walls)
    curves = walls + list(lat.eff_gens)
    fibers = []
    for c in _plane_classes(degs, 0, -2):
        f = to_lattice(c[0], c[1:])
        if all(lat.dot(f, g) >= 0 for g in curves):
            fibers.append(f)
    return walls, fibers


# ----------------------------------------------------------------------
# contraction states

@dataclass(frozen=True)
class Chamber:
    """A chamber of the big-cone decomposition: the set of divisors whose
    ample model contracts exactly `contracted` (wall classes, pairwise
    orthogonal, iteratively contractible); `certificate` is a rational
    class interior to the chamber, a tuple of Fractions (9/2, -3/2, 1/2
    for the chamber of Bl_2 that contracts E2)."""

    lattice: Lattice
    contracted: tuple[Vec, ...]
    certificate: Vec

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.lattice.describe(v) for v in self.contracted)

    def to_json(self) -> dict:
        return {
            "contracted": list(self.labels),
            "certificate": [str(Fraction(c)) for c in self.certificate],
        }


class LatticeExplorer:
    """Enumerates all iterated-contraction states of a lattice and the
    contractible classes / fibration classes available at each state.

    Raises OutsideScope when K^2 <= 0."""

    def __init__(self, lat: Lattice):
        self.lat = lat
        self.wall_candidates, self.fibers = _walls_and_fibers(lat)
        self.curves = self.wall_candidates + list(lat.eff_gens)
        self._contractible_cache: dict[frozenset, list] = {}
        self._kept_cache: dict[frozenset, list] = {}
        self.states = self._explore()
        self.wall_classes = sorted(
            {c for s in self.states for c in self._contractible(s)}
        )

    def _contractible(self, state: frozenset):
        """The walls c with c.s = 0 for every s in the state and c.g >= 0
        for every other curve g orthogonal to the state.  The last
        condition only bites on the nested pair, where it keeps E+E' out
        of the empty state (it meets E negatively)."""
        if state not in self._contractible_cache:
            lat = self.lat
            # s.s < 0, so no member of the state is orthogonal to it
            perp = [g for g in self.curves if all(lat.dot(g, s) == 0 for s in state)]
            self._contractible_cache[state] = [
                c
                for c in self.wall_candidates
                if c in perp and all(lat.dot(c, g) >= 0 for g in perp if g != c)
            ]
        return self._contractible_cache[state]

    def _explore(self):
        seen = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            state = frontier.pop()
            for c in self._contractible(state):
                nxt = state | {c}
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def fibers_at(self, state: frozenset):
        lat = self.lat
        return [
            f
            for f in self.fibers
            if all(lat.dot(f, s) == 0 for s in state)
        ]

    def k_int(self, state: frozenset) -> Vec:
        v = list(self.lat.K)
        for s in state:
            v = [a - b for a, b in zip(v, s)]
        return tuple(v)

    def k_int_squared(self, state: frozenset) -> int:
        return self.lat.k_squared() + sum(-self.lat.selfint(s) for s in state)

    def _kept(self, state: frozenset):
        """The curves and fibers not collapsed by the contraction: those
        whose projection away from the state, which has an orthogonal
        basis, is nonzero; the test runs on m times the projection, so
        it stays in integers."""
        if state not in self._kept_cache:
            lat = self.lat
            self._kept_cache[state] = [
                g
                for g in self.curves + self.fibers
                if any(_scaled_projection(lat, g, state)[1])
            ]
        return self._kept_cache[state]

    def is_del_pezzo(self, state: frozenset) -> bool:
        """The point-base model at this state has ample -K (lattice-level
        test for the generic configuration): K^2 >= 1 and K negative on
        every curve and fiber not collapsed by the contraction."""
        if self.k_int_squared(state) < 1:
            return False
        kint = self.k_int(state)
        return all(self.lat.dot(kint, g) < 0 for g in self._kept(state))

    def is_conic_bundle(self, state: frozenset, f: Vec) -> bool:
        """-K relatively ample over the base: no curve or fiber outside
        the contraction is vertical (f-degree 0) with nonnegative K."""
        lat = self.lat
        kint = self.k_int(state)
        return not any(
            lat.dot(f, g) == 0 and lat.dot(kint, g) >= 0 for g in self._kept(state)
        )

    @cached_property
    def fibrations(self) -> list[tuple]:
        """Every fibration of rank 1 to 3 carried by a state, as
        (rank, contracted, base, fiber) in state order: at each state,
        the point-base model when it is del Pezzo, then one conic bundle
        over P^1 per fiber class.  `windows` reads its rank-1 entries,
        and `sarkisov_complex.build_local` makes its vertices from all
        of them."""
        out = []
        for state in self.states:
            rank = self.lat.rank - len(state)
            contracted = tuple(sorted(state))
            if 1 <= rank <= 3 and self.is_del_pezzo(state):
                out.append((rank, contracted, "pt", None))
            if 2 <= rank <= 4:
                out.extend(
                    (rank - 1, contracted, "P1", f)
                    for f in self.fibers_at(state)
                    if self.is_conic_bundle(state, f)
                )
        return out


_EXPLORER_CACHE: dict[Lattice, LatticeExplorer] = {}


def explorer(lat: Lattice) -> LatticeExplorer:
    if lat not in _EXPLORER_CACHE:
        _EXPLORER_CACHE[lat] = LatticeExplorer(lat)
    return _EXPLORER_CACHE[lat]


def negative_classes(lat: Lattice) -> list[Vec]:
    """All wall classes: classes arising as pullbacks of contracted
    exceptional orbit classes in some iterated contraction of the
    lattice (e.g. exactly {L', E', E+E'} for the nested pair)."""
    return explorer(lat).wall_classes


def _ample_base(lat: Lattice) -> Vec:
    """An integral class strictly positive on every curve and fiber:
    -K itself, or -K plus a multiple of the fibration classes."""
    ex = explorer(lat)
    for t in range(0, 8):
        cand = tuple(-c for c in lat.K)
        for f in ex.fibers:
            cand = tuple(a + t * b for a, b in zip(cand, f))
        if all(lat.dot(cand, g) > 0 for g in ex.curves + ex.fibers):
            return cand
    raise AssertionError("no ample base class found")


def _scaled_projection(lat: Lattice, v, state):
    """(m, m P v) for the orthogonal projection P v = v - sum (v.s)/(s.s) s
    killing the contracted classes, with m = |prod s.s| > 0.  The
    contracted classes are pairwise orthogonal, so every coefficient
    comes from v itself, and m P v = m v - sum (m / s.s)(v.s) s is
    integral for an integral v."""
    squares = [(s, lat.selfint(s)) for s in state]
    m = abs(math.prod(sq for _, sq in squares))
    scaled = [m * c for c in v]
    for s, sq in squares:
        coef = m // sq * lat.dot(v, s)
        scaled = [a - coef * b for a, b in zip(scaled, s)]
    return m, scaled


def _project_away(lat: Lattice, v, state):
    """The pullback of the pushforward of v, its projection away from
    the contracted classes, as a tuple of Fractions."""
    m, scaled = _scaled_projection(lat, v, state)
    return tuple(Fraction(p, m) for p in scaled)


def chambers(lat: Lattice) -> list[Chamber]:
    """All chambers of the big-cone decomposition of adjoint classes,
    each with an exact rational interior certificate D = K + (ample).

    The certificate for the chamber contracting S is K + t(P + eps A0)
    with A0 ample, P the pullback of the pushforward of A0 to the
    target (so P is perpendicular to S), t large enough to dominate the
    walls kept positive, and eps small enough to stay negative on S.
    """
    ex = explorer(lat)
    base = _ample_base(lat)
    walls = ex.wall_classes
    out = []
    for state in ex.states:
        # proj is m times the projection of base away from the state
        m, proj = _scaled_projection(lat, base, state)
        keep = [c for c in walls if c not in state]
        t = Fraction(1)
        for c in keep:
            pc = lat.dot(proj, c)
            if pc <= 0:
                raise AssertionError(
                    "wall in the span of the contracted set; certificate "
                    "construction does not apply"
                )
            d = -lat.selfint(c)
            t = max(t, Fraction((d + 1) * m, pc))
        eps = Fraction(1)
        for s in state:
            d = -lat.selfint(s)
            eps = min(eps, Fraction(d, 2) / (t * lat.dot(base, s)))
        t_m, t_eps = t / m, t * eps
        cert = tuple(k + t_m * p + t_eps * b for k, p, b in zip(lat.K, proj, base))
        sign = _integral_multiple(cert)
        for s in state:
            if lat.dot(sign, s) >= 0:
                raise AssertionError("certificate not negative on contracted")
        for c in keep:
            if lat.dot(sign, c) <= 0:
                raise AssertionError("certificate not positive on kept wall")
        out.append(Chamber(lat, tuple(sorted(state)), cert))
    return sorted(out, key=lambda ch: (len(ch.contracted), ch.contracted))


def _integral_multiple(D) -> Vec:
    """D scaled by the positive lcm of its denominators: an integral
    class with the same sign against every class, for the sign tests."""
    m = math.lcm(*(Fraction(c).denominator for c in D))
    return tuple(int(c * m) for c in D)


def chamber_of(lat: Lattice, chamber_list, D) -> "Chamber":
    """The unique chamber whose sign conditions D.C <= 0 (contracted)
    and D.C > 0 (other wall classes) the big adjoint class D satisfies."""
    walls = explorer(lat).wall_classes
    sign = _integral_multiple(D)
    matches = []
    for ch in chamber_list:
        inn = set(ch.contracted)
        ok = all(lat.dot(sign, c) <= 0 for c in inn) and all(
            lat.dot(sign, c) > 0 for c in walls if c not in inn
        )
        if ok:
            matches.append(ch)
    if len(matches) != 1:
        raise AssertionError(f"class lands in {len(matches)} chambers")
    return matches[0]


def run_ample_model(lat: Lattice, D, rng: random.Random | None = None):
    """Iteratively contract wall classes nonpositive against a big
    adjoint class D (of the form K + ample) until none remains; returns
    (Chamber, pushforward of D).  Raises NotBig when the class sits on
    or beyond a fibration face.  The result does not depend on the
    contraction order; passing an rng randomizes it to exercise that.
    """
    ex = explorer(lat)
    D = tuple(D)
    sign = _integral_multiple(D)
    state = frozenset()
    while True:
        for f in ex.fibers_at(state):
            if lat.dot(sign, f) <= 0:
                raise NotBig(f"nonpositive on the fibration class {lat.describe(f)}")
        cands = [c for c in ex._contractible(state) if lat.dot(sign, c) <= 0]
        if not cands:
            break
        c = rng.choice(cands) if rng is not None else min(cands)
        state = state | {c}
    kint = ex.k_int(state)
    if lat.dot(sign, kint) >= 0:
        raise NotBig("pushforward is not ample on the target")
    push = _project_away(lat, D, state)
    if all(isinstance(c, int) for c in D):
        if any(p.denominator != 1 for p in push):
            raise AssertionError("pushforward of an integral class is not integral")
        push = tuple(int(p) for p in push)
    chamber = Chamber(lat, tuple(sorted(state)), D)
    return chamber, push


def codim_of_shared_face(c1: Chamber, c2: Chamber) -> int:
    """|I_2^- \\ I_1^-| for nested contracted sets: the relative Picard
    number of the connecting morphism and the codimension of the shared
    face of the chamber closures."""
    s1, s2 = set(c1.contracted), set(c2.contracted)
    if s1 <= s2:
        return len(s2 - s1)
    if s2 <= s1:
        return len(s1 - s2)
    raise NotNested("chambers are not nested")


@dataclass(frozen=True)
class Window:
    """A rank-1 fibration dominated by the lattice: either a contraction
    to a Picard-rank-1 del Pezzo (base = point) or a conic bundle over
    P^1 with the given fiber class."""

    lattice: Lattice
    contracted: tuple[Vec, ...]
    base: str  # "pt" or "P1"
    fiber: Vec | None = None

    @property
    def labels(self):
        return tuple(self.lattice.describe(v) for v in self.contracted)

    def to_json(self):
        return {
            "contracted": list(self.labels),
            "base": self.base,
            "fiber": self.lattice.describe(self.fiber) if self.fiber else None,
        }


def windows(lat: Lattice) -> list[Window]:
    """All rank-1 fibrations dominated by the lattice: the rank-1
    entries of the explorer's `fibrations`."""
    return [
        Window(lat, contracted, base, fiber)
        for rank, contracted, base, fiber in explorer(lat).fibrations
        if rank == 1
    ]
