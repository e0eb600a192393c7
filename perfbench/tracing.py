"""Spans and call counts at the module boundaries of the `cremona` package.

`Tracer.install()` replaces the public functions listed in `TIMED` by
timing wrappers, and the scalar field operations in `COUNTED` by counting
wrappers, under every name a loaded `cremona` module binds them to
(`general_position` calls `six_on_conic` through its own import, for
instance).  `uninstall()` puts the originals back.  Only traced runs
install anything; the untraced run calls the program as it is.

A timed call records its inclusive time under (name, caller name) and
its self time (inclusive time minus the time of the wrapped calls made
inside it).  A layer is a module, and its self time is the sum of the
self times of its wrapped functions.  Spans (id, name, start, end,
parent id, item) are kept in memory for the calls not listed in `HOT`
and written out by the caller at the end of the run.  Counted calls are
not timed: their time stays in their caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import time
from collections import defaultdict

LAYERS = (
    "field_tower",
    "plane_geometry",
    "general_position",
    "bertini_census",
    "nodal_cubic",
    "picard_lattice",
    "sarkisov_complex",
)

TIMED = {
    "field_tower": ("get_ctx", "rank", "nullspace", "FieldCtx.quadratic_roots"),
    "plane_geometry": (
        "apply_raw", "collinear_raw", "six_on_conic", "singular_cubic_through",
        "node_check",
    ),
    "general_position": ("general_position_report", "lambda_scan", "orbit_from_seed"),
    "bertini_census": ("run_census", "canonical_class"),
    "nodal_cubic": ("count_nodal_members", "cubic_pencil_basis", "param_point"),
    "picard_lattice": ("blowup_lattice", "explorer", "chambers", "windows", "negative_classes"),
    "sarkisov_complex": ("build_local", "bertini_edge_square_count", "elementary_relation"),
}

COUNTED = {"field_tower": ("FieldCtx.mul", "FieldCtx.add", "FieldCtx.inv")}

# called too often to keep one span per call; their totals are still kept
HOT = {
    "rank", "nullspace", "FieldCtx.quadratic_roots", "apply_raw", "collinear_raw",
    "six_on_conic", "singular_cubic_through", "node_check", "param_point",
}

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, span id or None, child seconds]
        self.spans = []
        self.next_id = 0
        self.item = None
        self.calls = defaultdict(int)  # (name, caller) -> calls
        self.inclusive = defaultdict(float)  # (name, caller) -> seconds
        self.self_s = defaultdict(float)  # name -> seconds
        self.first_s = {}  # name -> duration of its first call
        self.counts = {}  # counted name -> [calls]
        self.layer_of = {}
        self.results = defaultdict(dict)  # name -> {id: distinct return value}
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _enter(self, name, keep_span):
        parent = self.stack[-1] if self.stack else None
        sid = None
        if keep_span:
            sid = self.next_id
            self.next_id += 1
        frame = [name, sid, 0.0]
        self.stack.append(frame)
        return parent, frame

    def _exit(self, name, parent, frame, t0, t1):
        self.stack.pop()
        d = t1 - t0
        caller = parent[0] if parent else None
        self.calls[name, caller] += 1
        self.inclusive[name, caller] += d
        self.self_s[name] += d - frame[2]
        if parent is not None:
            parent[2] += d
        self.first_s.setdefault(name, d)
        if frame[1] is not None and len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], name, t0, t1, self._span_parent(), self.item))

    def _span_parent(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _timed(self, name, fn):
        keep_span = name not in HOT
        keep = self.results[name] if name in ("get_ctx", "explorer") else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent, frame = self._enter(name, keep_span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if keep is not None:
                    keep[id(out)] = out
                return out
            finally:
                self._exit(name, parent, frame, t0, clock())

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name, item=None):
        """A span of the benchmark itself (set-up, one item)."""
        self.layer_of[name] = "bench"
        self.item = item
        parent, frame = self._enter(name, True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, parent, frame, t0, time.perf_counter())
            self.item = None

    # -- installation --------------------------------------------------------

    def install(self):
        import cremona

        modules = [
            importlib.import_module(f"cremona.{info.name}")
            for info in pkgutil.iter_modules(cremona.__path__)
        ]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for layer, names in table.items():
                home = importlib.import_module(f"cremona.{layer}")
                for name in names:
                    self.layer_of[name] = layer
                    if "." in name:
                        cls_name, attr = name.split(".")
                        cls = getattr(home, cls_name)
                        orig = cls.__dict__[attr]
                        setattr(cls, attr, make(name, orig))
                        self._undo.append((cls, attr, orig))
                        continue
                    orig = getattr(home, name)
                    wrapped = make(name, orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapped)
                                self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_s": dict(self.self_s),
            "counts": {k: v[0] for k, v in self.counts.items()},
        }


def delta(after, before):
    """Per-key difference of two snapshots (the item phase alone)."""
    out = {}
    for part in after:
        a, b = after[part], before.get(part, {})
        out[part] = {k: v - b.get(k, 0) for k, v in a.items()}
    return out


_ANY = object()  # any caller, the top level included


def _calls(snap, name, caller=_ANY):
    return sum(
        v for (n, c), v in snap["calls"].items()
        if n == name and (caller is _ANY or c == caller)
    )


def _incl(snap, name, caller=_ANY):
    return sum(
        v for (n, c), v in snap["inclusive"].items()
        if n == name and (caller is _ANY or c == caller)
    )


def table_mb(contexts):
    """Field table memory from the table lengths: 8 bytes per list slot,
    the item size for arrays."""
    total = 0
    for ctx in contexts:
        for attr in ("_exp", "_log", "_zech", "_frob_table", "_as_root"):
            tab = getattr(ctx, attr, None)
            if tab is not None:
                total += len(tab) * getattr(tab, "itemsize", 8)
    return total / 2 ** 20


def layer_metrics(tracer, items_snap, items):
    """The per-layer metrics of BENCHMARK.json from a traced run.

    `items_snap` is the item phase alone (see `delta`); set-up figures
    (get_ctx time, first key, table sizes) come from the whole process.
    """
    s = items_snap
    per_item = max(items, 1)
    counts = s["counts"]
    explorers = tracer.results["explorer"].values()
    candidates = sum(len(getattr(e, "wall_candidates", ())) for e in explorers)
    walls = sum(len(getattr(e, "wall_classes", ())) for e in explorers)
    reports = _calls(s, "general_position_report")
    predicates = sum(
        _calls(s, n, "general_position_report")
        for n in ("collinear_raw", "six_on_conic", "singular_cubic_through")
    )
    keys = _calls(s, "canonical_class")
    key_images = _calls(s, "apply_raw", "canonical_class")
    layer_self = defaultdict(float)
    for name, v in s["self_s"].items():
        layer_self[tracer.layer_of.get(name, "bench")] += v
    m = {
        "field_tower.get_ctx_s": (sum(
            v for (n, _), v in tracer.inclusive.items() if n == "get_ctx"), "s"),
        "field_tower.table_mb": (table_mb(tracer.results["get_ctx"].values()), "MB"),
        "field_tower.mul_calls": (counts.get("FieldCtx.mul", 0) / per_item, "count/item"),
        "field_tower.add_calls": (counts.get("FieldCtx.add", 0) / per_item, "count/item"),
        "field_tower.inv_calls": (counts.get("FieldCtx.inv", 0) / per_item, "count/item"),
        "field_tower.rank_calls": (_calls(s, "rank"), "count"),
        "field_tower.rank_s": (_incl(s, "rank"), "s"),
        "field_tower.nullspace_s": (_incl(s, "nullspace"), "s"),
        "field_tower.quadratic_roots_calls": (_calls(s, "FieldCtx.quadratic_roots"), "count"),
        "field_tower.quadratic_roots_s": (_incl(s, "FieldCtx.quadratic_roots"), "s"),
        "plane_geometry.apply_raw_calls": (_calls(s, "apply_raw"), "count"),
        "plane_geometry.apply_raw_s": (_incl(s, "apply_raw"), "s"),
        "plane_geometry.collinear_raw_calls": (_calls(s, "collinear_raw"), "count"),
        "plane_geometry.collinear_raw_s": (_incl(s, "collinear_raw"), "s"),
        "plane_geometry.six_on_conic_calls": (_calls(s, "six_on_conic"), "count"),
        "plane_geometry.six_on_conic_s": (_incl(s, "six_on_conic"), "s"),
        "plane_geometry.singular_cubic_through_calls": (
            _calls(s, "singular_cubic_through"), "count"),
        "plane_geometry.singular_cubic_through_s": (_incl(s, "singular_cubic_through"), "s"),
        "plane_geometry.node_check_calls": (_calls(s, "node_check"), "count"),
        "plane_geometry.node_check_s": (_incl(s, "node_check"), "s"),
        "general_position.report_calls": (reports, "count"),
        "general_position.report_self_s": (s["self_s"].get("general_position_report", 0.0), "s"),
        "general_position.predicate_calls_per_report": (
            predicates / reports if reports else 0.0, "count"),
        "bertini_census.canonical_class_calls": (keys, "count"),
        "bertini_census.canonical_class_self_s": (s["self_s"].get("canonical_class", 0.0), "s"),
        "bertini_census.group_elements_per_key": (key_images / 8 / keys if keys else 0.0, "count"),
        "bertini_census.first_key_s": (tracer.first_s.get("canonical_class", 0.0), "s"),
        "bertini_census.run_census_self_s": (s["self_s"].get("run_census", 0.0), "s"),
        "nodal_cubic.count_nodal_members_self_s": (
            s["self_s"].get("count_nodal_members", 0.0), "s"),
        "nodal_cubic.cubic_pencil_basis_s": (_incl(s, "cubic_pencil_basis"), "s"),
        "nodal_cubic.prefix_s": (_incl(s, "count_nodal_members", "canonical_class"), "s"),
        "picard_lattice.explorer_s": (_incl(s, "explorer"), "s"),
        "picard_lattice.wall_candidates": (candidates, "count"),
        "picard_lattice.wall_share": (walls / candidates if candidates else 0.0, "ratio"),
        "picard_lattice.chambers_s": (_incl(s, "chambers"), "s"),
        "picard_lattice.windows_s": (_incl(s, "windows"), "s"),
        "sarkisov_complex.build_local_self_s": (s["self_s"].get("build_local", 0.0), "s"),
        "sarkisov_complex.bertini_edge_square_count_s": (
            _incl(s, "bertini_edge_square_count"), "s"),
    }
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    return m
