import json

import pytest

from cremona.picard_lattice import blowup_lattice, chambers, explorer, windows
from cremona.sarkisov_complex import (
    FibrationVertex,
    NotRank3,
    _vertex_name,
    bertini_edge_square_count,
    build_local,
    elementary_relation,
    export,
)


@pytest.fixture(scope="module")
def figure1():
    return build_local(blowup_lattice([1, 1]))


@pytest.fixture(scope="module")
def three_points():
    return build_local(blowup_lattice([1, 1, 1]))


def test_single_point_complex_is_a_path():
    cx = build_local(blowup_lattice([1]))
    assert len(cx.vertices) == 3
    assert len(cx.squares) == 0
    names = {v.name: v.rank for v in cx.vertices}
    assert sorted(names.values()) == [1, 1, 2]
    # the rank-2 top connects to both rank-1 structures
    tops = [h for h, _, t in cx.edges]
    assert all(t == (2, 1) for _, _, t in cx.edges)
    assert len(cx.edges) == 2 and len(set(tops)) == 1


def test_two_point_complex_matches_figure(figure1):
    cx = figure1
    assert len(cx.vertices) == 11
    assert len(cx.squares) == 5
    assert len(cx.edges) == 15
    ranks = sorted(v.rank for v in cx.vertices)
    assert ranks == [1] * 5 + [2] * 5 + [3]
    assert all(t in ((3, 2), (2, 1)) for _, _, t in cx.edges)
    # no (3,1) edge survives; the diagonals are recorded separately
    assert len(cx.diagonals) == 5


def test_two_point_elementary_relation_boundary(figure1):
    top = next(v for v in figure1.vertices if v.rank == 3)
    cycle = elementary_relation(figure1, top.name)
    assert len(cycle) == 10
    # alternating rank 2 / rank 1 around the disk
    ranks = [figure1.vertex(n).rank for n in cycle]
    assert ranks == [2, 1] * 5
    # golden boundary (deterministic construction)
    assert cycle == [
        "Z(E1)/pt",
        "Z(E1)/P1[H-E2]",
        "Z/P1[H-E2]",
        "Z(H-E1-E2)/P1[H-E2]",
        "Z(H-E1-E2)/pt",
        "Z(H-E1-E2)/P1[H-E1]",
        "Z/P1[H-E1]",
        "Z(E2)/P1[H-E1]",
        "Z(E2)/pt",
        "Z(E1,E2)/pt",
    ]


def test_rank1_vertices_match_windows(figure1):
    from cremona.picard_lattice import windows

    lat = blowup_lattice([1, 1])
    assert sum(1 for v in figure1.vertices if v.rank == 1) == len(windows(lat))


def test_three_point_squares_around_plane_vertex(three_points):
    cx = three_points
    lat = cx.lattice
    p2 = next(
        v.name
        for v in cx.vertices
        if v.rank == 1 and v.base == "pt"
        and {lat.describe(c) for c in v.contracted} == {"E1", "E2", "E3"}
    )
    assert len(cx.squares_containing(p2)) == 3
    # the second plane marking (the quadratic-map side) also has 3
    p2b = next(
        v.name
        for v in cx.vertices
        if v.rank == 1 and v.base == "pt"
        and {lat.describe(c) for c in v.contracted}
        == {"H-E1-E2", "H-E1-E3", "H-E2-E3"}
    )
    assert len(cx.squares_containing(p2b)) == 3


def test_three_point_curve_base_disks_have_four_squares(three_points):
    cx = three_points
    curve_tops = [v for v in cx.vertices if v.rank == 3 and v.base == "P1"]
    assert curve_tops
    for v in curve_tops:
        local = [s for s in cx.squares if s[0] == v.name]
        assert len(local) == 4
        cycle = elementary_relation(cx, v.name)
        assert len(cycle) == 8


def test_three_point_point_base_disks(three_points):
    # each two-point blow-up inside the three-point complex carries the
    # five-square disk of Figure 1
    cx = three_points
    for v in cx.vertices:
        if v.rank == 3 and v.base == "pt":
            local = [s for s in cx.squares if s[0] == v.name]
            assert len(local) == 5
            assert len(elementary_relation(cx, v.name)) == 10


def test_elementary_relation_cycle_length_matches_square_count(three_points):
    for v in three_points.vertices:
        if v.rank == 3:
            k = len([s for s in three_points.squares if s[0] == v.name])
            assert len(elementary_relation(three_points, v.name)) == 2 * k


def test_elementary_relation_requires_rank3(figure1):
    lo = next(v for v in figure1.vertices if v.rank == 1)
    with pytest.raises(NotRank3):
        elementary_relation(figure1, lo.name)


def test_bertini_edge_in_no_square_with_positive_control():
    assert bertini_edge_square_count(8) == 0
    assert bertini_edge_square_count(1) >= 1


def test_two_orbit_sweep_closes():
    # every lattice with at most two orbits and K^2 >= 1: the chambers'
    # certificates, the windows and the two-triangle assertion of
    # build_local (the two-rays game) hold, and every disk closes
    tuples = [(d,) for d in range(1, 9)] + [
        (a, b) for a in range(1, 9) for b in range(a, 9 - a)
    ]
    assert len(tuples) == 24
    for degrees in tuples:
        lat = blowup_lattice(degrees)
        assert chambers(lat) and windows(lat)
        cx = build_local(lat)
        for v in cx.vertices:
            if v.rank == 3:
                k = len([s for s in cx.squares if s[0] == v.name])
                assert len(elementary_relation(cx, v.name)) == 2 * k > 0


def test_every_pre_edge_has_two_triangles(three_points):
    # construction asserts Lemma-level 2-triangle property; the squares
    # are glued pairs, so each diagonal appears exactly once
    assert len(three_points.diagonals) == len(three_points.squares)
    assert len(set(three_points.diagonals)) == len(three_points.diagonals)


def test_dot_export_golden(figure1):
    dot = export(figure1, "dot")
    lines = dot.splitlines()
    assert lines[0] == "digraph sarkisov {"
    assert sum(1 for l in lines if "shape=" in l) == 11
    assert sum(1 for l in lines if "->" in l) == 15
    assert sum(1 for l in lines if l.strip().startswith("// square")) == 5


def test_json_roundtrip(figure1):
    data = json.loads(export(figure1, "json"))
    assert len(data["vertices"]) == 11
    assert len(data["squares"]) == 5
    again = json.loads(export(figure1, "json"))
    assert data == again


def test_empty_style_export():
    cx = build_local(blowup_lattice([1]))
    dot = export(cx, "dot")
    assert dot.startswith("digraph") and dot.endswith("}")
    with pytest.raises(ValueError):
        export(cx, "svg")


def _all_pairs_complex(lat):
    """(vertices, edges, squares, diagonals) of build_local as first
    written: every ordered pair of vertices is tested for an edge."""
    ex = explorer(lat)
    vertices = []
    for state in ex.states:
        rank_pt = lat.rank - len(state)
        contracted = tuple(sorted(state))
        if 1 <= rank_pt <= 3 and ex.is_del_pezzo(state):
            name = _vertex_name(lat, contracted, "pt", None)
            vertices.append(FibrationVertex(name, rank_pt, contracted, "pt"))
        if 1 <= rank_pt - 1 <= 3:
            for f in ex.fibers_at(state):
                if ex.is_conic_bundle(state, f):
                    name = _vertex_name(lat, contracted, "P1", f)
                    vertices.append(FibrationVertex(name, rank_pt - 1, contracted, "P1", f))
    vertices.sort(key=lambda v: (v.rank, v.name))

    def has_edge(hi, lo):
        if hi.rank <= lo.rank or not set(hi.contracted) <= set(lo.contracted):
            return False
        return hi.base != "P1" or (lo.base == "P1" and hi.fiber == lo.fiber)

    edges_all = [(hi, lo) for hi in vertices for lo in vertices if has_edge(hi, lo)]
    below = {}
    for hi, lo in edges_all:
        below.setdefault(hi.name, []).append(lo)
    triangles = []
    for v3, v1 in edges_all:
        if v3.rank == 3 and v1.rank == 1:
            middles = [v2 for v2 in below[v3.name] if v2.rank == 2 and has_edge(v2, v1)]
            assert len(middles) == 2
            triangles.append((v3, middles, v1))
    triangles.sort(key=lambda t: (t[0].name, t[2].name))
    squares = tuple((v3.name, a.name, v1.name, b.name) for v3, (a, b), v1 in triangles)
    diagonals = tuple((v3.name, v1.name) for v3, _, v1 in triangles)
    edges = tuple(
        (hi.name, lo.name, (hi.rank, lo.rank))
        for hi, lo in sorted(edges_all, key=lambda e: (e[0].name, e[1].name))
        if (hi.rank, lo.rank) in ((3, 2), (2, 1))
    )
    return tuple(vertices), edges, squares, diagonals


@pytest.mark.parametrize(
    "degrees, nesting",
    [([1] * n, None) for n in range(1, 6)] + [([8], None), ([1, 1], [None, 0])],
)
def test_build_local_matches_all_pairs(degrees, nesting):
    # Bl1-Bl5, the degree-8 point and Example 3.8 (an infinitely near pair)
    lat = blowup_lattice(degrees, nesting=nesting)
    cx = build_local(lat)
    assert (cx.vertices, cx.edges, cx.squares, cx.diagonals) == _all_pairs_complex(lat)
