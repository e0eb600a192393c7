import json
import shutil
from pathlib import Path

import pytest

from cremona import bertini_census, cli_app
from cremona.cli_app import main
from cremona.field_tower import FieldCtx, get_ctx

from conftest import (
    Q2_CLASS_COUNT,
    Q2_GENERAL_POSITION,
    Q2_NODAL_CLASSES,
    Q2_TOTAL_ORBITS,
    broken_search,
)

# the cached result of `census --q 2 --sample 25 --seed 3`, whose name
# holds a digest of the package sources
CACHE_FILE = cli_app._census_cache_key(2, "sampled", 25, 3)


def test_verify_mq_identity():
    assert main(["verify", "mq-identity", "--q-max", "101"]) == 0


def test_verify_same_orbit_both_fields():
    assert main(["verify", "same-orbit", "--q", "2"]) == 0
    assert main(["verify", "same-orbit", "--q", "3"]) == 0


def test_verify_produit_small():
    assert main(["verify", "produit", "--q", "2", "--samples", "500"]) == 0
    # 11^8 is above the table limit: polynomial-fallback arithmetic
    assert main(["verify", "produit", "--q", "11", "--samples", "20"]) == 0


@pytest.mark.parametrize("bad, code", [([2], 2), ([], 0)])
def test_verify_lambda_scan_check_can_fail(monkeypatch, capsys, bad, code):
    # a doctored scan: lambda = 2 leaves the seed's orbit in general
    # position, so the rebuilt points explain nothing and it is reported
    monkeypatch.setattr(cli_app, "lambda_scan", lambda nf, a: list(bad))
    assert main(["verify", "lambda-scan", "--q", "5", "--seeds", "1"]) == code
    out, err = capsys.readouterr()
    exceptions = 1 if code else 0
    assert f"{exceptions} failures the produit lemma does not explain" in out
    assert ("lambda=2: not bad: the points are in general position" in err) == bool(code)


def test_verify_beta_twist(capsys):
    # 30 nodal orbits at q = 2, 2 of them not in general position, each
    # twisted by the 14 beta outside the bad set
    assert main(["verify", "beta-twist", "--q", "2"]) == 0
    assert "28 twists of non-general orbits, 0 violations" in capsys.readouterr().out


def test_verify_beta_twist_refuses_other_q(capsys):
    # wired for q = 2 alone: any other q is refused on stderr, exit 2
    assert main(["verify", "beta-twist", "--q", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "beta-twist exhaustive verification is wired for q = 2\n"


def test_census_usage_error_on_bad_q():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--q", "5"])
    assert exc.value.code == 2


def test_census_sampled_round_trip(tmp_path, capsys):
    out = tmp_path / "census.json"
    csv_path = tmp_path / "reps.csv"
    code = main(
        [
            "census", "--q", "2", "--sample", "25", "--seed", "3",
            "--out", str(out), "--csv", str(csv_path),
            "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    assert code == 0
    assert (tmp_path / "cache" / CACHE_FILE).is_file()
    data = json.loads(out.read_text())
    assert data["q"] == 2 and data["mode"] == "sampled"
    assert data["bound_satisfied"] is True
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == data["pgl3_class_count"] + 1  # header + reps
    # a second run hits the cache and agrees modulo elapsed time
    code = main(
        [
            "census", "--q", "2", "--sample", "25", "--seed", "3",
            "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    assert code == 0
    data2 = json.loads(out.read_text())
    for key in data:
        if key != "elapsed_ms":
            assert data[key] == data2[key]


@pytest.mark.parametrize("payload", [[1, 2], {"version": bertini_census.RESULT_VERSION}])
def test_census_malformed_cache_is_recomputed(tmp_path, capsys, payload):
    # valid JSON that is not a whole result of this version is a cache
    # miss: the run recomputes, prints the result and rewrites the file
    cache = tmp_path / CACHE_FILE
    cache.write_text(json.dumps(payload))
    argv = ["census", "--q", "2", "--sample", "25", "--seed", "3"]
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert main(argv + ["--no-cache"]) == 0
    fresh = json.loads(capsys.readouterr().out)
    printed.pop("elapsed_ms"), fresh.pop("elapsed_ms")
    assert printed == fresh and printed["version"] == bertini_census.RESULT_VERSION
    written = json.loads(cache.read_text())
    assert written.pop("class_reps") and written.pop("elapsed_ms") >= 0
    assert written == printed


def test_census_cache_defaults_to_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CREMONA_CACHE_DIR", str(tmp_path / "env"))
    assert main(["census", "--q", "2", "--sample", "25", "--seed", "3"]) == 0
    assert (tmp_path / "env" / CACHE_FILE).is_file()


def test_census_cache_key_follows_the_sources(tmp_path, monkeypatch):
    # the key holds the modulus, the result version and a digest of the
    # package sources: a copy of the package gives the same key, and a
    # one-byte edit of one copied module changes it
    copy = tmp_path / "cremona"
    copy.mkdir()
    for module in Path(cli_app.__file__).parent.glob("*.py"):
        shutil.copy(module, copy / module.name)
    assert CACHE_FILE.startswith("census_q2_sampled_m283_v4_src")
    assert CACHE_FILE.endswith("_n25_s3.json")
    monkeypatch.setattr(cli_app, "_PACKAGE_DIR", str(copy))
    assert cli_app._census_cache_key(2, "sampled", 25, 3) == CACHE_FILE
    source = bytearray((copy / "nodal_cubic.py").read_bytes())
    source[-2] ^= 1
    (copy / "nodal_cubic.py").write_bytes(bytes(source))
    assert cli_app._census_cache_key(2, "sampled", 25, 3) != CACHE_FILE


def test_census_cache_hit_builds_no_field(tmp_path, monkeypatch, capsys):
    # the key reads the modulus from find_modulus, so a census answered
    # from the cache builds no tables of F_{q^8}
    argv = ["census", "--q", "2", "--sample", "25", "--seed", "3", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    get_ctx.cache_clear()

    def fail(self):
        raise AssertionError("a cached census built field tables")

    monkeypatch.setattr(FieldCtx, "_build_tables", fail)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == first


@pytest.mark.parametrize(
    "mode, code", [(["--sample", "5"], 0), (["--exact"], 2)], ids=["sampled", "exact"]
)
def test_census_bound_not_reached(monkeypatch, capsys, mode, code):
    # a bound no census reaches: a sample falls short of it with exit 0
    # and one line on stderr, an exact census violates it with exit 2
    monkeypatch.setattr(bertini_census, "mq_bound", lambda q: 10**6)
    assert main(["census", "--q", "2", "--no-cache", *mode]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["bound_satisfied"] is False
    err = captured.err.strip().splitlines()
    if code:
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith("bound not reached: the sample found")


def test_census_small_sample_exits_0(tmp_path, capsys):
    # five draws at q=3 cannot reach ceil(M_3) = 12 classes
    assert main(["census", "--q", "3", "--sample", "5", "--no-cache"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["pgl3_class_count"] <= 5 and data["bound_satisfied"] is False
    found = data["pgl3_class_count"]
    assert captured.err.strip() == (
        f"bound not reached: the sample found {found} classes, short of M_q = 12"
    )


def test_census_thread_determinism(tmp_path):
    # a sampled census runs on one worker whatever --threads says; the
    # exact census on a pool is compared with one worker in test_census;
    # here the CLI just needs to produce identical JSON for repeat runs
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(
            [
                "census", "--q", "2", "--sample", "20", "--seed", "7",
                "--out", str(out), "--no-cache",
            ]
        ) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2


def test_census_sampled_records_one_worker(tmp_path):
    # a sampled census never starts a pool, whatever --threads says
    out = tmp_path / "census.json"
    argv = ["census", "--q", "2", "--sample", "5", "--threads", "4", "--no-cache"]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["threads"] == 1


def test_census_exact_q2(tmp_path, capsys):
    csv_path = tmp_path / "reps.csv"
    assert main(["census", "--q", "2", "--exact", "--no-cache", "--csv", str(csv_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "exact"
    assert data["total_degree8_orbits"] == Q2_TOTAL_ORBITS
    assert data["general_position_count"] == Q2_GENERAL_POSITION
    assert data["pgl3_class_count"] == Q2_CLASS_COUNT
    assert data["nodal_class_count"] == Q2_NODAL_CLASSES
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 1 + Q2_CLASS_COUNT  # header + one row per class
    assert all(len(row.split(",")) == 24 for row in rows)


def test_census_identity_violation_exits_2(monkeypatch, capsys):
    # a search that loses a class breaks the orbit identity: one line on
    # stderr and exit code 2, not a traceback
    comps = broken_search("drop")
    monkeypatch.setattr(bertini_census, "_subspace_components", lambda q: comps)
    assert main(["census", "--q", "2", "--exact", "--no-cache"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("mathematical violation: orbit identity")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--q", "2", "--sample", "3", "--no-cache", "--out"],
        ["complex", "--points", "2", "--dot"],
    ],
)
def test_unwritable_output_exits_3(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path / "missing" / "out")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("infrastructure failure:")


def test_chambers_example(tmp_path, capsys):
    out = tmp_path / "chambers.json"
    assert main(["chambers", "--example", "3.8", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["chambers"]) == 4
    assert set(data["negative_classes"]) == {"L'", "E'", "E+E'"}
    capsys.readouterr()


def test_chambers_degrees(tmp_path, capsys):
    assert main(["chambers", "--degrees", "1,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["chambers"]) == 5
    assert len(data["windows"]) == 5


def test_chambers_violation_exits_2(capsys):
    # [8, 2] has K^2 = -1, outside the modelled lattices: one line on
    # stderr and exit code 2, not a traceback
    assert main(["chambers", "--degrees", "8,2"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("outside the modelled scope:")


def test_chambers_single_degree2_orbit(capsys):
    # the line through a conjugate pair of points is the second wall
    assert main(["chambers", "--degrees", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["negative_classes"]) == {"E1", "H-E1"}


def test_chambers_bertini_lattice(capsys):
    # one degree-8 point: the Bertini involution swaps E1 and the wall
    # 48H - 17E1, and each contracts to a del Pezzo of rank 1
    assert main(["chambers", "--degrees", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["negative_classes"] == ["E1", "48H-17E1"]
    assert [c["contracted"] for c in data["chambers"]] == [[], ["E1"], ["48H-17E1"]]
    assert data["windows"] == [
        {"base": "pt", "contracted": ["E1"], "fiber": None},
        {"base": "pt", "contracted": ["48H-17E1"], "fiber": None},
    ]


def test_complex_degree_7_point_and_rational_point(capsys):
    assert main(["complex", "--degrees", "1,7"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"degrees": [1, 7], "vertices": 25, "edges": 36, "squares": 12}


@pytest.mark.parametrize(
    "argv",
    [
        ["chambers", "--degrees", "0"],
        ["chambers", "--degrees", "1,-2"],
        ["chambers", "--degrees", ","],
        ["chambers", "--degrees", ""],
        ["complex", "--degrees", "1,x"],
        ["complex", "--degrees", "1,,2"],
        ["complex", "--degrees", "0,1"],
    ],
)
def test_bad_degrees_usage_error(argv, capsys):
    # empty, non-integer and < 1 entries are refused by argparse: exit 2
    # with a usage line, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "argument --degrees" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["census", "--q", "2", "--sample", "0"], "--sample"),
        (["census", "--q", "2", "--sample", "-3"], "--sample"),
        (["census", "--q", "2", "--threads", "-4"], "--threads"),
        (["complex", "--points", "0"], "--points"),
        (["complex", "--points", "-1"], "--points"),
        (["complex", "--points", "two"], "--points"),
        (["verify", "lambda-scan", "--q", "4"], "--q"),
        (["verify", "produit", "--q", "9"], "--q"),
        (["verify", "lambda-scan", "--seeds", "-1"], "--seeds"),
        (["verify", "produit", "--samples", "0"], "--samples"),
        (["amalgam", "ball", "--radius", "-2"], "--radius"),
        (["census", "--q", "2", "--exact", "--sample", "5"], "--sample"),
        (["verify", "mq-identity", "--q-max", "1"], "--q-max"),
    ],
)
def test_bad_count_usage_error(argv, option, capsys):
    # a count below 1, a negative radius, a non-prime field size, a
    # --q-max below 2 or --exact with --sample is refused by argparse:
    # exit 2 with a usage line, before any work and without a traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {option}:" in err


def test_complex_outside_scope_exits_2(capsys):
    assert main(["complex", "--degrees", "8,1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("outside the modelled scope:")


def test_complex_two_points(tmp_path, capsys):
    dot = tmp_path / "fig1.dot"
    js = tmp_path / "fig1.json"
    assert main(["complex", "--points", "2", "--dot", str(dot), "--json", str(js)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["squares"] == 5 and summary["vertices"] == 11
    assert dot.read_text().startswith("digraph sarkisov")
    data = json.loads(js.read_text())
    assert len(data["vertices"]) == 11


def test_complex_mixed_degrees(capsys):
    assert main(["complex", "--degrees", "1,1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["squares"] == 48


def test_amalgam_nf_sig_abel(capsys):
    assert main(["amalgam", "nf", "--word", "b1 b1"]) == 0
    assert capsys.readouterr().out.strip() == "(empty)"
    assert main(["amalgam", "sig", "--word", "b1 e:g b2 e:g b1"]) == 0
    assert capsys.readouterr().out.strip() == "b1 b2 b1"
    assert main(["amalgam", "abel", "--word", "b1 b2 b1"]) == 0
    assert capsys.readouterr().out.strip() == "[0, 1]"


def test_amalgam_ball(tmp_path, capsys):
    dot = tmp_path / "ball.dot"
    assert main(["amalgam", "ball", "--radius", "2", "--dot", str(dot)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["vertices"] == summary["edges"] + 1
    assert dot.read_text().startswith("graph bass_serre")


def test_amalgam_ball_radius_zero(capsys):
    assert main(["amalgam", "ball", "--radius", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"radius": 0, "vertices": 1, "edges": 0}
