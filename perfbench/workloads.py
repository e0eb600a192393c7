"""The four workloads: set-up, inputs made from the seed, the timed
operation, and the checks of its outputs.

Every call into the program goes through a module attribute
(`bc.run_census`, not an imported name), so that the wrappers of a
traced run see it.  Checks use `oracle`, which shares no code with the
program, or properties the method must have; none compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import random

import oracle


class Workload:
    name = ""
    round_size = 1  # the timed phase runs whole rounds of this many items
    one_round = False  # True: the inputs are one fixed round, run once

    def setup(self):
        raise NotImplementedError

    def inputs(self, seed):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, records, seed):
        """Problems found in [(input, output)] of the operations that did not fail."""
        raise NotImplementedError


class CensusQ3(Workload):
    """Sampled q = 3 census, one orbit per `run_census` call, so that each
    orbit is timed on its own; the class key is nearly all of the time."""

    name = "census-q3"
    KEY_CHECKS = 2

    def setup(self):
        from cremona import bertini_census, field_tower, general_position, nodal_cubic

        self.bc, self.gp = bertini_census, general_position
        self.ctx = field_tower.get_ctx(3, 8)
        # the first key builds the PGL_3(F_3) element list, once per process
        nf = nodal_cubic.NodalCubicNF(3, 1)
        for e in range(2, self.ctx.size):
            if self.ctx.in_subfield(e, 4):
                continue
            orbit = general_position.orbit_from_seed(nf, field_tower.FieldElement(self.ctx, e))
            if general_position.test_general_position(orbit).ok:
                break
        bertini_census.canonical_class(orbit)

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield rng.getrandbits(62)

    def run(self, rng_seed):
        return self.bc.run_census(
            3, mode="sampled", threads=1, sample_size=1, rng_seed=rng_seed
        )

    def check(self, records, seed):
        F = oracle.Field(3, self.ctx.modulus)
        problems = []
        reps = []
        for rng_seed, res in records:
            if res.total_degree8_orbits != (3 ** 16 - 3 ** 4) // 8:
                problems.append(f"orbit total {res.total_degree8_orbits}")
            if not res.pgl3_class_count <= res.general_position_count <= 1:
                problems.append(
                    f"seed {rng_seed}: {res.pgl3_class_count} classes, "
                    f"{res.general_position_count} GP of 1 orbit"
                )
            for rep in res.class_reps:
                pts = [tuple(p) for p in rep]
                reps.append(pts)
                if {tuple(F.frobenius(c) for c in p) for p in pts} != set(pts):
                    problems.append(f"seed {rng_seed}: representative is no Frobenius orbit")
                elif not oracle.in_general_position(F, pts):
                    problems.append(f"seed {rng_seed}: representative fails the GP test")
        rng = random.Random(seed + 1)
        for pts in reps[: self.KEY_CHECKS]:
            g = oracle.random_pgl3(3, rng)
            moved = [oracle.apply_matrix(F, g, p) for p in pts]
            k1 = self.bc.canonical_class(self.gp.GaloisOrbit8(self.ctx, pts))
            k2 = self.bc.canonical_class(self.gp.GaloisOrbit8(self.ctx, moved))
            if k1 != k2:
                problems.append(f"key changed under {g}")
        return problems


class LambdaScanQ7(Workload):
    """`cremona verify lambda-scan --q 7`: six GP tests per seed over F_{7^8},
    the one field on the large-table path."""

    name = "lambda-scan-q7"
    ORACLE_SEEDS = 2

    def setup(self):
        from cremona import field_tower, general_position, nodal_cubic

        self.ft, self.gp, self.nc = field_tower, general_position, nodal_cubic
        self.ctx = field_tower.get_ctx(7, 8)

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            e = rng.randrange(1, self.ctx.size)
            if self.ctx.in_subfield(e, 4):
                continue
            yield e, rng.randrange(1, 7)

    def run(self, inp):
        e, c0 = inp
        nf = self.nc.NodalCubicNF(7, c0)
        return self.gp.lambda_scan(nf, self.ft.FieldElement(self.ctx, e))

    def check(self, records, seed):
        problems = []
        for (e, c0), bad in records:
            if len(bad) > 6 or len(set(bad)) != len(bad):
                problems.append(f"({e}, {c0}): bad list {bad}")
            for lam in bad:
                if not 1 <= lam <= 6 or pow(lam, 6, 7) != 1:
                    problems.append(f"({e}, {c0}): lambda {lam}")
        F = oracle.Field(7, self.ctx.modulus)
        for (e, c0), bad in records[: self.ORACLE_SEEDS]:
            expect = [
                lam for lam in range(1, 7)
                if not oracle.in_general_position(
                    F, oracle.nodal_orbit(F, 7, c0, F.mul(lam, e)))
            ]
            if expect != list(bad):
                problems.append(f"({e}, {c0}): program {bad}, oracle {expect}")
        return problems


class NodalPencil(Workload):
    """`count_nodal_members(orbit, 8)` on a fixed-seed selection of two of
    the 28 GP nodal orbits at q = 2, the same two in every round.  The
    cap-8 level search is most of the time.  The run's seed draws the
    PGL_3(F_2) element of the invariance check: moving the timed orbits by
    such elements would change their cost by up to a fifth, which would
    show as noise between seeds."""

    name = "nodal-pencil"
    round_size = 2
    SELECTION_SEED = 0
    CAP = 8
    LOW_CAP = 4

    def setup(self):
        from cremona import field_tower, general_position, nodal_cubic

        self.gp, self.nc = general_position, nodal_cubic
        self.ctx = field_tower.get_ctx(2, 8)
        for m in range(1, self.CAP + 1):
            field_tower.get_ctx(2, m)

    def base_orbits(self, F):
        """The GP orbits of [a : (a^3 - 1)/a : 1] over F_{2^8}, by least parameter."""
        seen, out = set(), []
        for a in range(1, F.size):
            if a in seen or F.in_subfield(a, 4):
                continue
            b = a
            for _ in range(8):
                seen.add(b)
                b = F.frobenius(b)
            pts = [oracle.normalize(F, p) for p in oracle.nodal_orbit(F, 2, 1, a)]
            if oracle.in_general_position(F, pts):
                out.append(pts)
        return out

    def inputs(self, seed):
        F = oracle.Field(2, self.ctx.modulus)
        self.F = F
        orbits = self.base_orbits(F)
        if len(orbits) != 28:
            raise AssertionError(f"{len(orbits)} GP nodal orbits at q = 2, expected 28")
        chosen = random.Random(self.SELECTION_SEED).sample(orbits, self.round_size)
        chosen = [self.gp.GaloisOrbit8(self.ctx, pts) for pts in chosen]
        while True:
            yield from chosen

    def run(self, orbit):
        return self.nc.count_nodal_members(orbit, self.CAP)

    def check(self, records, seed):
        problems = []
        counts = {}
        for orbit, count in records:
            counts.setdefault(orbit, set()).add(count)
        records = []
        for orbit, seen in counts.items():
            count = min(seen)
            records.append((orbit, count))
            if len(seen) > 1:
                problems.append(f"{orbit}: counts {sorted(seen)} in one run")
            if not 1 <= count <= 12:
                problems.append(f"{orbit}: {count} nodal members")
            low = self.nc.count_nodal_members(orbit, self.LOW_CAP)
            expect = oracle.nodal_member_count(self.F, orbit.points, self.LOW_CAP)
            if low != expect:
                problems.append(f"{orbit}: cap {self.LOW_CAP} program {low}, oracle {expect}")
        if records:
            orbit, count = records[0]
            g = oracle.random_pgl3(2, random.Random(seed))
            moved = self.gp.GaloisOrbit8(
                self.ctx, [oracle.apply_matrix(self.F, g, p) for p in orbit.points])
            again = self.nc.count_nodal_members(moved, self.CAP)
            if again != count:
                problems.append(f"{orbit}: {count} nodal members, {again} after {g}")
        return problems


class SquareComplex(Workload):
    """`cremona complex` and `cremona chambers` on a fixed list of lattices,
    run once: the explorer cache would make a second pass a lookup.  Bl_3
    is nearly all of the time; `chambers` on [2] fails today."""

    name = "square-complex"
    round_size = 6
    one_round = True

    def setup(self):
        from cremona import picard_lattice, sarkisov_complex

        self.pl, self.sc = picard_lattice, sarkisov_complex

    def _lattice(self, lat):
        return lat, self.sc.build_local(lat), self.pl.chambers(lat), self.pl.windows(lat)

    def _chambers_command(self, lat):
        return lat, self.pl.chambers(lat), self.pl.negative_classes(lat), self.pl.windows(lat)

    def inputs(self, seed):
        return list(self.OPS)

    OPS = {
        "Bl3": lambda self: self._lattice(self.pl.blowup_lattice([1, 1, 1])),
        "Bl2": lambda self: self._lattice(self.pl.blowup_lattice([1, 1])),
        "example-3.8": lambda self: self._lattice(
            self.pl.blowup_lattice([1, 1], nesting=[None, 0])),
        "bertini-8": lambda self: self.sc.bertini_edge_square_count(8),
        "bertini-1": lambda self: self.sc.bertini_edge_square_count(1),
        "chambers-[2]": lambda self: self._chambers_command(self.pl.blowup_lattice([2])),
    }

    def run(self, label):
        return self.OPS[label](self)

    def _classes(self, lat, maps):
        return {lat.vector(m) for m in maps}

    def check(self, records, seed):
        pl, sc = self.pl, self.sc
        out = dict(records)
        problems = []

        def expect(ok, text):
            if not ok:
                problems.append(text)

        rng = random.Random(seed)
        for label, r in (("Bl2", 2), ("Bl3", 3)):
            if label in out:
                lat = out[label][0]
                expect(set(pl.negative_classes(lat)) == self._classes(
                    lat, oracle.exceptional_curves(r)), f"{label}: walls")
        if "example-3.8" in out:
            lat, _, chs, _ = out["example-3.8"]
            walls = {lat.describe(v) for v in pl.negative_classes(lat)}
            expect(walls == {"L'", "E'", "E+E'"}, f"example 3.8 walls {walls}")
            expect(len(chs) == 4, f"example 3.8: {len(chs)} chambers")
        if "Bl2" in out:
            expect(len(out["Bl2"][1].squares) == 5, "Bl2: squares")
        if "Bl3" in out:
            lat, cx, _, _ = out["Bl3"]
            plane = [
                v.name for v in cx.vertices
                if v.rank == 1 and v.base == "pt"
                and {lat.describe(c) for c in v.contracted} == {"E1", "E2", "E3"}
            ]
            expect(len(plane) == 1 and len(cx.squares_containing(plane[0])) == 3,
                   "Bl3: squares around the plane")
            tops = [v for v in cx.vertices if v.rank == 3 and v.base == "P1"]
            expect(tops and all(
                len([s for s in cx.squares if s[0] == v.name]) == 4 for v in tops),
                "Bl3: curve-base disks")
        if "bertini-8" in out:
            expect(out["bertini-8"] == 0, f"bertini-8: {out['bertini-8']} squares")
        if "bertini-1" in out:
            expect(out["bertini-1"] >= 1, f"bertini-1: {out['bertini-1']} squares")
        for label in ("Bl2", "Bl3", "example-3.8"):
            if label not in out:
                continue
            lat, cx, chs, _ = out[label]
            for v in cx.vertices:
                if v.rank != 3:
                    continue
                around = [s for s in cx.squares if s[0] == v.name]
                cycle = sc.elementary_relation(cx, v.name)
                expect(len(cycle) == 2 * len(around), f"{label}: relation at {v.name}")
            # the ample model of a chamber's interior class, contracted in
            # an order drawn from the seed, is that chamber
            for ch in chs:
                got, _ = pl.run_ample_model(lat, ch.certificate, rng=rng)
                expect(set(got.contracted) == set(ch.contracted),
                       f"{label}: ample model of {ch.labels}")
        if "chambers-[2]" in out:
            lat, _, neg, _ = out["chambers-[2]"]
            expect(set(neg) == self._classes(lat, [{"E1": 1}, {"H": 1, "E1": -1}]),
                   "chambers-[2]: walls")
        return problems


WORKLOADS = {w.name: w for w in (CensusQ3, LambdaScanQ7, NodalPencil, SquareComplex)}
