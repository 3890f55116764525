"""Command-line front end.

Machine-readable results go to stdout (JSON by default, CSV on request);
progress and errors go to stderr.  Exit codes: 0 success, 1 verification
failure, data conflict, a worker process that died (its pool is broken) or
a named file that cannot be read or written (an OSError, such as a missing
directory or a regular file on a --cache path, or a missing cache show file
or cache merge source), 2 usage error (bad flags, bad coordinate syntax, bad
ranges, a --threads below 1, a render canvas too large),
130 interrupted (Ctrl-C).  A failure prints one "error: ..." line and an
interrupt one "interrupted" line on stderr, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict

from . import __version__, analysis, census, coords, render, verify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _open_cache(path: str | None) -> census.CensusCache | None:
    return census.CensusCache(path) if path else None


def _progress_printer(n: int):
    def report(done: int, total: int, interior: tuple[int, ...]) -> None:
        # one write, so an interrupt cannot split the line from its newline
        sys.stderr.write(
            f"progress: n={n} k={sum(interior)} s-vector {done}/{total} {interior}\n"
        )
        sys.stderr.flush()

    return report


def cmd_count(args: argparse.Namespace) -> int:
    cache = _open_cache(args.cache)
    record = census.count_actual(
        args.n, args.k, threads=args.threads, prune=args.prune, cache=cache
    )
    print(json.dumps(record.as_dict()))
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    cache = _open_cache(args.cache)
    records = census.count_table(
        args.n,
        args.kmax,
        threads=args.threads,
        prune=args.prune,
        cache=cache,
        progress=_progress_printer(args.n),
    )
    if args.format == "csv":
        sys.stdout.write(census.table_csv(records))
    else:
        print(json.dumps([r.as_dict() for r in records]))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    result = verify.run_suite(args.suite, kmax=args.kmax, threads=args.threads)
    print(json.dumps(result))
    return EXIT_OK if result["ok"] else EXIT_FAILURE


def cmd_render(args: argparse.Namespace) -> int:
    c = coords.parse_coords(args.coords)
    size = render.write_svg(c, args.out, closed=args.closed)
    print(json.dumps({"out": args.out, "bytes": size, "coords": str(c)}))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    cache = _open_cache(args.cache)
    reports = analysis.bounds_table(
        args.n,
        args.kmax,
        with_census=args.with_census,
        threads=args.threads,
        cache=cache,
    )
    rows = []
    for report in reports:
        row = asdict(report)
        row["upper"] = str(row["upper"])
        row["ok"] = row.pop("verdict")
        rows.append(row)
    print(json.dumps(rows))
    if args.with_census and not all(r.verdict for r in reports):
        return EXIT_FAILURE
    return EXIT_OK


def cmd_ratios(args: argparse.Namespace) -> int:
    cache = _open_cache(args.cache)
    points = analysis.ratio_series(
        args.n,
        args.kmax,
        source=args.source,
        rho=args.rho,
        threads=args.threads,
        cache=cache,
    )
    if args.format == "csv":
        sys.stdout.write(analysis.ratios_csv(points))
    else:
        # pi2_scaled, set for n = 3 only, is the one field that can be None
        rows = [{key: v for key, v in asdict(p).items() if v is not None} for p in points]
        print(json.dumps(rows))
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "show":
        if len(args.path) > 1:
            raise ValueError(f"cache show takes one --path, got {len(args.path)}")
        os.stat(args.path[0])  # raises when missing; CensusCache would read it as empty
        store = census.CensusCache(args.path[0])
        print(json.dumps([r.as_dict() for r in store.records()]))
        return EXIT_OK
    target, *sources = args.path
    total = census.merge_caches(target, sources)
    print(json.dumps({"path": target, "records": total}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcensus",
        description=(
            "Count braids by geometric norm via integer diagram coordinates, "
            "check the closed forms, and render diagrams."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker count (default: CENSUS_THREADS or the CPU count)",
        )

    p = sub.add_parser("count", help="exact g(n, k) for one (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_threads(p)
    p.add_argument("--prune", action="store_true", help="use symmetry pruning")
    p.add_argument("--cache", default=None, help="JSON-lines cache file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="g(n, k) for k = 0 .. kmax")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_threads(p)
    p.add_argument("--prune", action="store_true")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), required=True)
    p.add_argument("--kmax", type=int, default=None, help="suite size bound")
    add_threads(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw one coordinate tuple as SVG")
    p.add_argument("--coords", required=True, help='e.g. "(0,0,2,3,1,0,0)"')
    p.add_argument("--closed", action="store_true", help="close the curve by above")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bounds", help="sandwich bounds, optionally with the census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--with-census", action="store_true")
    add_threads(p)
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ratios", help="growth-ratio diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--source", choices=analysis.RATIO_SOURCES, default="census")
    p.add_argument("--rho", type=int, default=None, help="residue modulus for clusters")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_threads(p)
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_ratios)

    p = sub.add_parser("cache", help="inspect or merge census caches")
    p.add_argument("action", choices=("show", "merge"))
    p.add_argument(
        "--path",
        action="append",
        required=True,
        help="cache file; for show, exactly one; for merge, repeat: first is the target",
    )
    p.set_defaults(func=cmd_cache)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        threads = getattr(args, "threads", None)
        if threads is not None and threads < 1:
            raise ValueError(f"thread count must be >= 1, got {threads}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (census.CacheConflictError, BrokenProcessPool, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def main() -> None:
    sys.exit(run())
