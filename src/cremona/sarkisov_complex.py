"""Local square complexes of marked fibrations dominated by one lattice.

Vertices are rank 1, 2, 3 fibrations carried by the contractions of an
ambient blow-up lattice Z: a contracted set of wall classes together
with a base (a point, or P^1 with a chosen fiber class; the two rulings
of a quadric are distinct vertices).  They are the entries of the
lattice explorer's `fibrations` list, which `picard_lattice.windows`
reads too.  An edge runs from a higher-rank vertex to a lower-rank one
when the contraction factorizes and the bases are compatible.  Every
edge of type (3,1) lies in exactly two triangles (the two-rays game);
gluing each such pair of triangles and dropping the diagonal yields the
square complex.

The degree-8 check: the edge from the blow-up of a general degree-8
point down to the plane lies in no square, because any dominating
rank-3 point-base fibration would be a del Pezzo surface with
K^2 = 1 - d <= 0, outside the lattices the explorer models.  The
degree-1 analogue does sit in a square, which serves as the positive
control.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .picard_lattice import Lattice, blowup_lattice, explorer

__all__ = [
    "FibrationVertex",
    "NotRank3",
    "SquareComplex",
    "bertini_edge_square_count",
    "build_local",
    "elementary_relation",
    "export",
]


class NotRank3(ValueError):
    """The operation needs a rank-3 vertex."""


@dataclass(frozen=True, order=True)
class FibrationVertex:
    """A rank r fibration dominated by the ambient lattice, encoded by
    the contracted wall classes and the base data."""

    name: str
    rank: int
    contracted: tuple
    base: str  # "pt" or "P1"
    fiber: tuple | None = None

    def to_json(self):
        return {
            "name": self.name,
            "rank": self.rank,
            "contracted": [list(c) for c in self.contracted],
            "base": self.base,
            "fiber": list(self.fiber) if self.fiber else None,
        }


@dataclass(frozen=True)
class SquareComplex:
    lattice: Lattice
    vertices: tuple[FibrationVertex, ...]
    edges: tuple  # (hi_name, lo_name, (rank_hi, rank_lo))
    squares: tuple  # (top, middle_a, bottom, middle_b) vertex names
    diagonals: tuple  # removed (3,1) edges as (top, bottom)

    def vertex(self, name: str) -> FibrationVertex:
        for v in self.vertices:
            if v.name == name:
                return v
        raise KeyError(name)

    def squares_containing(self, name: str):
        return [s for s in self.squares if name in s]

    def squares_containing_edge(self, hi: str, lo: str):
        """Squares having hi -> lo among their four boundary edges."""
        out = []
        for top, ma, bot, mb in self.squares:
            bound = {(top, ma), (top, mb), (ma, bot), (mb, bot)}
            if (hi, lo) in bound:
                out.append((top, ma, bot, mb))
        return out

    def to_json(self) -> dict:
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [[h, l, list(t)] for h, l, t in self.edges],
            "squares": [list(s) for s in self.squares],
            "diagonals": [list(d) for d in self.diagonals],
        }


def _vertex_name(lat: Lattice, state, base, fiber) -> str:
    if state:
        inner = ",".join(sorted(lat.describe(c) for c in state))
        surf = f"Z({inner})"
    else:
        surf = "Z"
    if base == "pt":
        return f"{surf}/pt"
    return f"{surf}/P1[{lat.describe(fiber)}]"


def build_local(lat: Lattice) -> SquareComplex:
    """The square complex of all rank <= 3 fibrations carried by the
    lattice's contraction states: one vertex per entry of the explorer's
    `fibrations`."""
    vertices = sorted(
        (
            FibrationVertex(_vertex_name(lat, c, base, f), rank, c, base, f)
            for rank, c, base, f in explorer(lat).fibrations
        ),
        key=lambda v: (v.rank, v.name),
    )

    def has_edge(hi: FibrationVertex, lo: FibrationVertex) -> bool:
        if hi.rank <= lo.rank:
            return False
        if not set(hi.contracted) <= set(lo.contracted):
            return False
        if hi.base == "P1":
            return lo.base == "P1" and hi.fiber == lo.fiber
        return True

    # an edge contracts more, so hi.contracted is a subset of
    # lo.contracted: look hi up among the subsets of each lo's set, and
    # keep the order of the all-pairs loop, which fixes each square's
    # two middle vertices
    by_contracted: dict[tuple, list] = {}
    for i, v in enumerate(vertices):
        by_contracted.setdefault(v.contracted, []).append(i)
    pairs = sorted(
        (i, j)
        for j, lo in enumerate(vertices)
        for k in range(len(lo.contracted) + 1)
        for sub in itertools.combinations(lo.contracted, k)
        for i in by_contracted.get(sub, ())
        if has_edge(vertices[i], lo)
    )
    edges_all = [(vertices[i], vertices[j]) for i, j in pairs]
    below: dict[str, list] = {}
    for hi, lo in edges_all:
        below.setdefault(hi.name, []).append(lo)
    triangles = []
    for v3, v1 in edges_all:
        if v3.rank != 3 or v1.rank != 1:
            continue
        middles = [
            v2 for v2 in below[v3.name] if v2.rank == 2 and has_edge(v2, v1)
        ]
        if len(middles) != 2:
            raise AssertionError(
                f"(3,1) edge {v3.name} -> {v1.name} lies in "
                f"{len(middles)} triangles, not 2"
            )
        triangles.append((v3, middles, v1))

    triangles.sort(key=lambda t: (t[0].name, t[2].name))
    squares = tuple((v3.name, a.name, v1.name, b.name) for v3, (a, b), v1 in triangles)
    diagonals = tuple((v3.name, v1.name) for v3, _, v1 in triangles)
    kept = tuple(
        (hi.name, lo.name, (hi.rank, lo.rank))
        for hi, lo in sorted(edges_all, key=lambda e: (e[0].name, e[1].name))
        if (hi.rank, lo.rank) in ((3, 2), (2, 1))
    )
    return SquareComplex(lat, tuple(vertices), kept, squares, diagonals)


def elementary_relation(cx: SquareComplex, vertex_name: str):
    """The boundary cycle of the disk of squares around a rank-3 vertex:
    the ordered cyclic list of rank-2 and rank-1 vertex names, with
    consecutive rank-1 entries related by Sarkisov links."""
    v3 = cx.vertex(vertex_name)
    if v3.rank != 3:
        raise NotRank3(f"{vertex_name} has rank {v3.rank}")
    local = [s for s in cx.squares if s[0] == vertex_name]
    if not local:
        return []
    by_middle: dict[str, list] = {}
    for s in local:
        for m in (s[1], s[3]):
            by_middle.setdefault(m, []).append(s)
    for m, ss in by_middle.items():
        if len(ss) != 2:
            raise AssertionError(
                f"disk around {vertex_name} does not close at {m}"
            )
    cycle = []
    start = local[0]
    prev_middle = start[1]
    square = start
    while True:
        # enter `square` through prev_middle, leave through the other one
        out_middle = square[3] if square[1] == prev_middle else square[1]
        cycle.append(prev_middle)
        cycle.append(square[2])
        nxt = [s for s in by_middle[out_middle] if s != square]
        square = nxt[0]
        prev_middle = out_middle
        if square == start and prev_middle == start[1]:
            break
        if len(cycle) > 4 * len(local):
            raise AssertionError("boundary walk failed to close")
    if len(cycle) != 2 * len(local):
        raise AssertionError("boundary cycle misses squares")
    return cycle


def bertini_edge_square_count(degree: int = 8) -> int:
    """Number of squares containing the edge from the blow-up of a
    degree-`degree` point down to the plane.

    For degree 8 the count is 0: a square needs a rank-3 del Pezzo
    dominating the edge, every further blow-up [8, d] has
    K^2 = 1 - d <= 0 (asserted for d = 1..8), and the complex of [8]
    itself has rank 2, so no rank-3 vertex.  For degree 1 the edge
    inside the two-point complex lies in at least one square (the
    positive control).
    """
    def find(cx, lat, rank, labels):
        for v in cx.vertices:
            if v.rank == rank and v.base == "pt":
                if {lat.describe(c) for c in v.contracted} == labels:
                    return v.name
        raise AssertionError(f"vertex with contracted {labels} not found")

    if degree == 8:
        for d in range(1, 9):
            ext = blowup_lattice([8, d])
            if ext.k_squared() > 0:
                raise AssertionError("extended lattice has K^2 > 0")
        lat = blowup_lattice([8])
        cx = build_local(lat)
        hi = find(cx, lat, 2, set())
        lo = find(cx, lat, 1, {"E1"})
        return len(cx.squares_containing_edge(hi, lo))
    if degree == 1:
        lat = blowup_lattice([1, 1])
        cx = build_local(lat)
        hi = find(cx, lat, 2, {"E2"})
        lo = find(cx, lat, 1, {"E1", "E2"})
        return len(cx.squares_containing_edge(hi, lo))
    raise ValueError("degree must be 8 (Bertini) or 1 (control)")


def export(cx: SquareComplex, fmt: str = "dot") -> str:
    """Deterministic DOT or JSON text for a built complex."""
    if fmt == "json":
        return json.dumps(cx.to_json(), indent=2, sort_keys=True)
    if fmt != "dot":
        raise ValueError("format must be 'dot' or 'json'")
    lines = ["digraph sarkisov {"]
    for v in cx.vertices:
        shape = {1: "box", 2: "ellipse", 3: "hexagon"}[v.rank]
        lines.append(f'  "{v.name}" [rank={v.rank}, shape={shape}];')
    for hi, lo, (rh, rl) in cx.edges:
        lines.append(f'  "{hi}" -> "{lo}" [label="{rh},{rl}"];')
    for top, ma, bot, mb in cx.squares:
        lines.append(f'  // square: {top} | {ma},{mb} | {bot}')
    lines.append("}")
    return "\n".join(lines)
