"""Command-line entry point.

Subcommands: `census` (exact or sampled Bertini-class counts with
JSON/CSV artifacts), `verify` (the finite-field lemma suites),
`chambers` (chamber decompositions of small lattices), `complex` (local
Sarkisov square complexes with DOT/JSON export), and `amalgam` (word
reductions, signature, parity, Bass-Serre balls).

Exit codes: 0 success, 2 mathematical violation (a bound, lemma or
census identity failed: treat as a regression alarm) or a lattice
outside the modelled scope (K^2 <= 0, refused before any work), 3
infrastructure failure (an output file that cannot be written).  A
sampled census that finds fewer than ceil(M_q) classes exits 0 with one
line on stderr saying the bound was not reached: a sample sees only
some of the classes, so it cannot violate the bound.
Results of census runs are cached under --cache-dir (default
$CREMONA_CACHE_DIR or ~/.cache/cremona), keyed by the field modulus,
the result-format version and a digest of the package sources, so that
a change to any module misses the cache; a file that holds no whole
result of the current version is recomputed and overwritten, never
migrated, and a cache that cannot be read or written is skipped.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import random
import sys

from . import bertini_census as census_mod
from . import amalgam_words as words
from .bertini_census import (
    mq_bound,
    mq_cross_check,
    run_census,
    verify_orbit_lemma,
)
from .field_tower import (
    FieldElement,
    _encode,
    _is_prime,
    cache_dir,
    find_modulus,
    frobenius_orbit,
    get_ctx,
)
from .general_position import (
    beta_twist,
    lambda_scan,
    orbit_from_seed,
    test_general_position,
    unexplained_lambda_failures,
)
from .nodal_cubic import NodalCubicNF, param_point
from .picard_lattice import (
    OutsideScope,
    blowup_lattice,
    chambers,
    negative_classes,
    windows,
)
from .plane_geometry import collinear, six_on_conic
from .sarkisov_complex import build_local, export

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INFRA = 3

_RESULT_FIELDS = {f.name for f in dataclasses.fields(census_mod.CensusResult)}
_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _source_digest() -> str:
    """The first 12 hex digits of the SHA-256 of the names and bytes of
    the package's `*.py` files, in name order."""
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(_PACKAGE_DIR) if n.endswith(".py")):
        with open(os.path.join(_PACKAGE_DIR, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:12]


def _census_cache_key(q, mode, sample_size, seed) -> str:
    enc = _encode(find_modulus(q, 8), q)
    parts = [
        f"census_q{q}", mode, f"m{enc}", f"v{census_mod.RESULT_VERSION}", f"src{_source_digest()}"
    ]
    if mode == "sampled":
        parts.append(f"n{sample_size}_s{seed}")
    return "_".join(parts) + ".json"


def cmd_census(args) -> int:
    mode = "sampled" if args.sample else "exact"
    result_dir = args.cache_dir or cache_dir()
    cache_path = os.path.join(
        result_dir, _census_cache_key(args.q, mode, args.sample, args.seed)
    )
    result = None
    if not args.no_cache and os.path.exists(cache_path):
        try:
            with open(cache_path) as fh:
                data = json.load(fh)
            # anything but a whole result of this version is a miss
            if (isinstance(data, dict) and _RESULT_FIELDS <= data.keys()
                    and data["version"] == census_mod.RESULT_VERSION):
                result = data
        except (OSError, ValueError):
            result = None
    if result is None:
        try:
            res = run_census(
                args.q,
                mode=mode,
                threads=args.threads,
                sample_size=args.sample,
                rng_seed=args.seed,
            )
        except AssertionError as exc:
            return _violation(exc)
        except ValueError as exc:
            print(f"census refused: {exc}", file=sys.stderr)
            return EXIT_VIOLATION
        result = res.to_json(with_reps=True)
        if not args.no_cache:
            try:
                os.makedirs(result_dir, exist_ok=True)
                tmp = cache_path + ".tmp"
                with open(tmp, "w") as fh:
                    json.dump(result, fh, indent=2, sort_keys=True)
                os.replace(tmp, cache_path)
            except OSError:
                pass
    reps = result.pop("class_reps", [])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"p{i}_{c}" for i in range(8) for c in ("x", "y", "z")]
            )
            for rep in reps:
                writer.writerow([c for point in rep for c in point])
    print(json.dumps(result, indent=2, sort_keys=True))
    if mode == "sampled" and not result["bound_satisfied"]:
        # a sample sees only some of the classes, so it cannot violate the bound
        found, bound = result["pgl3_class_count"], result["mq_bound"]
        print(f"bound not reached: the sample found {found} classes, short of M_q = {bound}",
              file=sys.stderr)
        return EXIT_OK
    return EXIT_OK if result["bound_satisfied"] else EXIT_VIOLATION


def _verify_produit(args) -> int:
    ctx = get_ctx(args.q, 8)
    nf = NodalCubicNF(args.q, 1)
    rnd = random.Random(args.seed)
    violations = 0
    for _ in range(args.samples):
        vals = rnd.sample(range(1, ctx.size), 3)
        pts = [param_point(nf, FieldElement(ctx, v)) for v in vals]
        prod = ctx.mul(ctx.mul(vals[0], vals[1]), vals[2])
        if collinear(*pts) != (prod == 1):
            violations += 1
    for _ in range(args.samples):
        vals = rnd.sample(range(1, ctx.size), 6)
        pts = [param_point(nf, FieldElement(ctx, v)) for v in vals]
        prod = 1
        for v in vals:
            prod = ctx.mul(prod, v)
        if six_on_conic(pts) != (prod == 1):
            violations += 1
    print(f"produit q={args.q}: {2 * args.samples} tuples, {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _verify_beta_twist(args) -> int:
    if args.q != 2:
        print("beta-twist exhaustive verification is wired for q = 2")
        return EXIT_VIOLATION
    ctx = get_ctx(2, 8)
    nf = NodalCubicNF(2, 1)
    bad_beta = {
        e
        for e in range(1, ctx.size)
        if ctx.in_subfield(e, 4) and ctx.pow(e, 6) == 1 and ctx.in_subfield(ctx.pow(e, 2), 1)
    }
    violations = []
    checked = 0
    seen = set()
    for e in range(1, ctx.size):
        if ctx.in_subfield(e, 4) or e in seen:
            continue
        orbit = orbit_from_seed(nf, FieldElement(ctx, e))
        seen.update(v for (v,) in frobenius_orbit(ctx, (e,)))
        if test_general_position(orbit).ok:
            continue
        for beta in range(1, ctx.size):
            if not ctx.in_subfield(beta, 4) or beta in bad_beta:
                continue
            twisted = beta_twist(FieldElement(ctx, e), FieldElement(ctx, beta))
            twisted_orbit = orbit_from_seed(nf, twisted)
            checked += 1
            if not test_general_position(twisted_orbit).ok:
                violations.append((e, beta))
    print(
        f"beta-twist q=2: bad set {sorted(bad_beta)}, {checked} twists of "
        f"non-general orbits, {len(violations)} violations"
    )
    return EXIT_OK if not violations else EXIT_VIOLATION


def _verify_same_orbit(args) -> int:
    report = verify_orbit_lemma(args.q)
    print(
        f"same-orbit q={args.q}: {report['checked']} elements x "
        f"{report['conjugations']} conjugations, "
        f"{len(report['violations'])} violations"
    )
    return EXIT_OK if not report["violations"] else EXIT_VIOLATION


def _verify_lambda_scan(args) -> int:
    ctx = get_ctx(args.q, 8)
    rnd = random.Random(args.seed)
    bad_total = 0
    exceptions = []
    done = 0
    while done < args.seeds:
        e = rnd.randrange(1, ctx.size)
        if ctx.in_subfield(e, 4):
            continue
        c0 = rnd.randrange(1, args.q)
        nf = NodalCubicNF(args.q, c0)
        bad = lambda_scan(nf, FieldElement(ctx, e))
        bad_total += len(bad)
        for lam in bad:
            for why in unexplained_lambda_failures(nf, FieldElement(ctx, e), lam):
                exceptions.append((e, c0, lam, why))
        done += 1
    print(
        f"lambda-scan q={args.q}: {args.seeds} seeds, {bad_total} bad values, "
        f"{len(exceptions)} failures the produit lemma does not explain"
    )
    for e, c0, lam, why in exceptions:
        print(f"  a={e} c0={c0} lambda={lam}: {why}", file=sys.stderr)
    return EXIT_OK if not exceptions else EXIT_VIOLATION


def _verify_mq_identity(args) -> int:
    bad = []
    q = 2
    while q <= args.q_max:
        if _is_prime(q):
            rep = mq_cross_check(q)
            if q == 2:
                ok = rep["product"] * 8 == 9 and mq_bound(2) == 2
            elif q == 3:
                ok = rep["product"] == 12 == mq_bound(3)
            elif rep["divide_by_3"]:
                ok = rep["product"] == rep["closed_form"]
            else:
                ok = rep["product"] == 3 * rep["closed_form"]
            if not ok:
                bad.append(q)
        q += 1
    from .bertini_census import pgl3_order

    if pgl3_order(2) != 168:
        bad.append("pgl3(2)")
    print(f"mq-identity: primes up to {args.q_max}, failures: {bad}")
    return EXIT_OK if not bad else EXIT_VIOLATION


VERIFIERS = {
    "produit": _verify_produit,
    "beta-twist": _verify_beta_twist,
    "same-orbit": _verify_same_orbit,
    "lambda-scan": _verify_lambda_scan,
    "mq-identity": _verify_mq_identity,
}


def cmd_verify(args) -> int:
    return VERIFIERS[args.lemma](args)


def _violation(exc: AssertionError | OutsideScope) -> int:
    if isinstance(exc, OutsideScope):
        kind = "outside the modelled scope"
    else:
        kind = "mathematical violation"
    print(f"{kind}: {exc}", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_chambers(args) -> int:
    if args.example == "3.8":
        lat = blowup_lattice([1, 1], nesting=[None, 0])
    else:
        lat = blowup_lattice(args.degrees)
    try:
        chs = chambers(lat)
        payload = {
            "lattice": lat.to_json(),
            "negative_classes": [lat.describe(v) for v in negative_classes(lat)],
            "chambers": [c.to_json() for c in chs],
            "windows": [w.to_json() for w in windows(lat)],
        }
    except (AssertionError, OutsideScope) as exc:
        return _violation(exc)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def cmd_complex(args) -> int:
    if args.points is not None:
        degrees = [1] * args.points
    else:
        degrees = args.degrees
    lat = blowup_lattice(degrees)
    try:
        cx = build_local(lat)
    except (AssertionError, OutsideScope) as exc:
        return _violation(exc)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export(cx, "dot"))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(export(cx, "json"))
    print(
        json.dumps(
            {
                "degrees": degrees,
                "vertices": len(cx.vertices),
                "edges": len(cx.edges),
                "squares": len(cx.squares),
            }
        )
    )
    return EXIT_OK


def cmd_amalgam(args) -> int:
    table = words.FactorTable(
        tuple(args.factors.split(",")), tuple(args.etokens.split(","))
    )
    if args.amalgam_op == "ball":
        verts, edges, dist = words.bass_serre_ball(table, args.radius)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(words.ball_to_dot(verts, edges))
        print(
            json.dumps(
                {"radius": args.radius, "vertices": len(verts), "edges": len(edges)}
            )
        )
        return EXIT_OK
    word = words.parse_word(args.word, table)
    if args.amalgam_op == "nf":
        print(word.as_string() or "(empty)")
    elif args.amalgam_op == "sig":
        print(words.signature(word).as_string() or "(empty)")
    else:
        print(list(words.abelianize(word, table)))
    return EXIT_OK


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _at_least(k: int):
    """The argparse type of an integer >= k: 1 for a count, 2 for --q-max
    (so that some prime is checked), 0 for a ball radius."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {text!r}")
        return value

    return parse


def _prime(text: str) -> int:
    """The argparse type of the field size of `verify`: a prime."""
    value = _integer(text)
    if not _is_prime(value):
        raise argparse.ArgumentTypeError(f"must be a prime, got {text!r}")
    return value


def _degrees(text: str) -> list[int]:
    """The argparse type of --degrees: comma-separated orbit degrees >= 1."""
    try:
        degrees = [int(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if min(degrees) < 1:
        raise argparse.ArgumentTypeError(f"orbit degrees must be >= 1, got {text!r}")
    return degrees


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cremona",
        description="censuses of degree-8 Bertini points, lattice chambers, "
        "square complexes, and amalgam words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="count Bertini classes over F_q")
    p.add_argument("--q", type=int, choices=(2, 3), required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true", help="exhaustive census (default)")
    g.add_argument("--sample", type=_at_least(1), default=None, metavar="N",
                   help="sampled census of N draws")
    p.add_argument("--threads", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", help="write the JSON result")
    p.add_argument("--csv", metavar="FILE", help="write class representatives")
    p.add_argument("--cache-dir")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run a lemma verification suite")
    p.add_argument("lemma", choices=sorted(VERIFIERS))
    p.add_argument("--q", type=_prime, default=2)
    p.add_argument("--samples", type=_at_least(1), default=10000)
    p.add_argument("--seeds", type=_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q-max", type=_at_least(2), default=101)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chambers", help="chamber decomposition of a lattice")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--example", choices=("3.8",))
    g.add_argument("--degrees", type=_degrees, metavar="D1,D2,...")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("complex", help="build a local square complex")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", type=_at_least(1), help="number of degree-1 points")
    g.add_argument("--degrees", type=_degrees, metavar="D1,D2,...")
    p.add_argument("--dot", metavar="FILE")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("amalgam", help="word model operations")
    p.add_argument("amalgam_op", choices=("nf", "sig", "abel", "ball"))
    p.add_argument("--word", default="")
    p.add_argument("--factors", default="b1,b2")
    p.add_argument("--etokens", default="j")
    p.add_argument("--radius", type=_at_least(0), default=2)
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(func=cmd_amalgam)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"infrastructure failure: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
