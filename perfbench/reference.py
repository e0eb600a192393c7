"""Reference figures of the README, measured anew in this process.

    python3 perfbench/reference.py [census-q2 gp-key-q2 gp-key-q3 lambda-q7 bl3 nodal-cap8]

With no names, measures them all (about five minutes, most of it the
exact q = 2 census).  The F_{7^8} table file is kept in
.perfbench-out/reference-cache.  Times are measured seconds; the
calibration loop's duration (speed.py) is printed with each, to tell a
slow phase of the machine from a slow program.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
# the field-table file goes here, never to ~/.cache/cremona
os.environ["CREMONA_CACHE_DIR"] = os.path.join(ROOT, ".perfbench-out", "reference-cache")

import speed  # noqa: E402
from workloads import LambdaScanQ7, NodalPencil  # noqa: E402


def _random_orbits(q, count, seed):
    from cremona import field_tower, general_position

    ctx = field_tower.get_ctx(q, 8)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pt = (1, rng.randrange(ctx.size), rng.randrange(ctx.size))
        orbit = general_position.orbit_from_point(general_position.ProjPoint(ctx, pt))
        if orbit is not None:
            out.append(orbit)
    return out


def census_q2():
    from cremona import bertini_census

    t0 = time.perf_counter()
    r = bertini_census.run_census(2, mode="exact", threads=1)
    return (f"exact q=2 census {time.perf_counter() - t0:.1f} s: "
            f"{r.total_degree8_orbits}/{r.general_position_count}/"
            f"{r.pgl3_class_count}/{r.nodal_class_count}")


def _gp_key(q, orbits, keys):
    from cremona import bertini_census, general_position

    gp_s, gp_orbits = [], []
    for orbit in orbits:
        t0 = time.perf_counter()
        ok = general_position.test_general_position(orbit).ok
        gp_s.append(time.perf_counter() - t0)
        if ok:
            gp_orbits.append(orbit)
    bertini_census.canonical_class(gp_orbits[0])  # builds the element list
    key_s = []
    for orbit in gp_orbits[1:keys + 1]:
        t0 = time.perf_counter()
        bertini_census.canonical_class(orbit)
        key_s.append(time.perf_counter() - t0)
    return (f"q={q}: GP test {1000 * statistics.fmean(gp_s):.1f} ms per orbit "
            f"({len(gp_s)} orbits, {len(gp_orbits)} GP), key "
            f"{1000 * statistics.fmean(key_s):.1f} ms per GP orbit ({len(key_s)} keys)")


def gp_key_q2():
    return _gp_key(2, _random_orbits(2, 400, 2), 100)


def gp_key_q3():
    return _gp_key(3, _random_orbits(3, 100, 3), 6)


def lambda_q7():
    w = LambdaScanQ7()
    w.setup()
    inputs = w.inputs(7)
    times = []
    for _ in range(30):
        inp = next(inputs)
        t0 = time.perf_counter()
        w.run(inp)
        times.append(time.perf_counter() - t0)
    return f"q=7 lambda scan {1000 * statistics.fmean(times):.0f} ms per seed (30 seeds)"


def bl3():
    from cremona import picard_lattice, sarkisov_complex

    t0 = time.perf_counter()
    sarkisov_complex.build_local(picard_lattice.blowup_lattice([1, 1, 1]))
    return f"Bl_3 build_local {time.perf_counter() - t0:.1f} s"


def nodal_cap8():
    w = NodalPencil()
    w.setup()
    inputs = w.inputs(8)
    times = []
    for _ in range(28):
        orbit = next(inputs)
        t0 = time.perf_counter()
        w.run(orbit)
        times.append(time.perf_counter() - t0)
    return (f"count_nodal_members(cap 8) {min(times):.2f}-{max(times):.2f} s, "
            f"median {statistics.median(times):.2f} s (28 orbits)")


FIGURES = {
    "census-q2": census_q2,
    "gp-key-q2": gp_key_q2,
    "gp-key-q3": gp_key_q3,
    "lambda-q7": lambda_q7,
    "bl3": bl3,
    "nodal-cap8": nodal_cap8,
}


def main(names):
    for name in names or FIGURES:
        before = speed.now_calibration_s()
        text = FIGURES[name]()
        after = speed.now_calibration_s()
        print(f"{name}: {text}  [calibration {1000 * before:.2f} / {1000 * after:.2f} ms]",
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
