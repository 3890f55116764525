"""Compare the observable output of two braidcensus checkouts.

    python tools/compare_checkouts.py BASE_DIR CHANGED_DIR

Each checkout's src/ is imported in its own subprocess, which prints one
JSON object of probe results; the two objects are compared key by key and
every key that differs is printed with both values.  Probes:

  verify:<suite>:<size>   `braidcensus verify --suite S [--kmax K] --threads 1`
                          stdout, at the default size and at the sizes
                          tests/test_cli.py runs
  cli:<command>           exit code and stdout of each CLI_COMMANDS entry,
                          and the last stderr line of one that exits
                          non-zero, run in order in a temporary directory
                          {tmp} holding the cache file and a regular file
                          {tmp}/file, with {tmp} and every elapsed_ms masked
  fault:<name>            run_suite output with one function patched wrong
  nesting:real|swapped    zone_noninterleaving on fuzzed graphs, open and
                          closed, and on copies with the far ends of two
                          same-zone arcs swapped: a digest and the counts
  graph                   a digest of arcs, puncture_arcs, component_count,
                          node_count, line_of(v) of every node, node(0, 1)
                          and node(n, 1) of build_arc_graph on fuzzed tuples,
                          open and closed
  actual                  a digest of is_actual on the graph probe's fuzzed
                          tuples and on every admissible tuple (each
                          enumerate_a_tuples stream) with n <= 4, k <= 3,
                          with the tuple and connected counts
  svg                     a digest of render_svg bytes on fuzzed tuples
  svectors                a digest of every SVector enumerate_s_vectors yields
                          for n <= 9, k <= 10 and for SVECTOR_WIDE, with their
                          count, and the CoordinateError text for (0, 0) and
                          (3, -1)
  closedforms             a digest of is_cyclic_translation for moduli 1..30,
                          is_cyclic_translated_cut for moduli 1..12, theta_spec
                          and theta_is_cyclic for 1 <= k < l <= 20, b3_actual
                          for k, l <= 8 and every offset, and the series
                          coefficients 0..400 of G2, G3, B2 and B3
  walk:plain              a digest of (n, s, g, tuples examined) per s-vector
                          of WALK_ROWS, each walked once by
                          census._walk(s, memo) on one census._Transitions()
                          that the probe makes, so a checkout that shares
                          zone transitions across s-vectors shares them
                          across the whole grid
  walk:single             a digest of (n, s, g) per s-vector of SINGLE_ROWS,
                          each counted alone by census.count_for_s_vector
  memo                    a digest of every (shape, state, next states) in
                          the memo once the walk probe has filled it, and
                          of every (shape, state, count) of its completion
                          tables, with the entry, completion, right-state and
                          interned-object counts; it differs between a
                          checkout whose entries hold canonical line states
                          (the lesser of each state and its mirror twin) and
                          one that stores both twins, and between one that
                          joins each walk's last two zones and one that
                          steps the closing zone (s, 0)
  table                   a digest of (k, g, mode, tuples examined) per record
                          and of every progress call of count_table over
                          TABLE_GRIDS, plain and pruned, on 1 and 2 workers,
                          and of count_table(4, 6) on 2 workers resuming a
                          cache that holds k = 2 and 4; pool sizes are left out
  calls                   a digest of (n, k, g, mode, tuples examined) over
                          one process's run of CALL_GRID through count_actual
                          on 2 workers, twice, then count_table(4, 6) on 3
                          workers and a pruned count_table(3, 8) on 2, so a
                          checkout that keeps its worker pool across calls
                          reuses and replaces it; pool sizes are left out
  cache                   a digest of the records of a file mixing to_json
                          lines with every line shape TestLoaderParity
                          accepts, as CensusCache(path).records(), lookup,
                          merge_caches into a new target, and a stale
                          handle's add (which reads the file again), with
                          the files' bytes; and the error text or warning
                          of each line shape TestLoaderParity rejects or
                          skips as torn, with {tmp} masked

Exit status: 0 when every probe agrees, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import replace

# the sizes TestVerify.test_every_suite_passes runs (tests/test_cli.py)
SUITE_SIZE = {
    "b2": 10, "b3-closed-form": 8, "cyclicity": 8, "theta-bridge": 6, "bounds": 4,
    "witnesses": 8, "tightness": 8, "symmetry": 8, "prune-consistency": 4,
}
# (probe name, argv): run in this order, so cache show reads what count wrote
CLI_COMMANDS = [
    ("count", "count --n 4 --k 3 --threads 1 --cache {cache}"),
    ("count-prune", "count --n 3 --k 5 --prune --threads 1"),
    ("table-json", "table --n 3 --kmax 6 --threads 1 --cache {cache}"),
    ("table-csv", "table --n 4 --kmax 4 --format csv --threads 1"),
    ("bounds", "bounds --n 4 --kmax 5"),
    ("bounds-census", "bounds --n 3 --kmax 6 --with-census --threads 1"),
    ("ratios-census-json", "ratios --n 4 --kmax 6 --threads 1"),
    ("ratios-census-csv", "ratios --n 3 --kmax 6 --format csv --threads 1"),
    ("ratios-census-kmax0", "ratios --n 4 --kmax 0 --threads 1"),
    ("ratios-g2-json", "ratios --n 2 --kmax 8 --source closedform"),
    ("ratios-g3-json", "ratios --n 3 --kmax 8 --source closedform"),
    ("ratios-g3-csv", "ratios --n 3 --kmax 8 --source closedform --format csv"),
    ("ratios-g3-kmax0", "ratios --n 3 --kmax 0 --source closedform"),
    ("ratios-g3-kmax1000", "ratios --n 3 --kmax 1000 --source closedform"),
    ("cache-show", "cache show --path {cache}"),
    ("count-cache-under-file", "count --n 4 --k 3 --threads 1 --cache {tmp}/file/c.jsonl"),
    ("table-cache-under-file", "table --n 3 --kmax 2 --threads 1 --cache {tmp}/file/c.jsonl"),
    ("render-too-tall", "render --coords (0,0,497,0,0) --out {tmp}/big.svg"),
    ("render-edge-closed", "render --coords (0,0,496,0,0) --closed --out {tmp}/edge.svg"),
]
GRAPHS = 20_000  # tuples for the nesting and graph probes; each built open and closed
SVGS = 1_000  # tuples for the svg probe; each is drawn open and closed
# (n, kmax, kmin) for the walk probe: TestWalker's grid (tests/test_census.py),
# n = 7, 8 at small k, single rows whose lines pass 255 nodes, and the rows
# censusbench's table-n4 and table-n6 workloads compute
WALK_ROWS = [
    (4, 10, 0), (5, 8, 0), (6, 6, 0), (7, 7, 0), (8, 6, 0), (2, 300, 300), (3, 130, 130),
    (4, 28, 0), (6, 11, 0),
]
# (n, kmax) for the single walk probe: TestWalker's grid (tests/test_census.py)
SINGLE_ROWS = [(4, 10), (5, 8), (6, 6)]
# (n, k) for the svectors probe beyond its n <= 9, k <= 10 grid: rows on many strands
SVECTOR_WIDE = [(1000, 0), (1200, 1)]
# (n, kmax) for the table probe, which runs the worker pool as well as the inline path
TABLE_GRIDS = [(3, 8), (4, 10), (5, 6), (6, 5)]
# (n, k) for the calls probe: censusbench's sweep-cache grid
CALL_GRID = [(n, k) for n in range(4, 9) for k in range(7)]


def _line(k, g="5", mode="plain", version="v", ms="0", end="\n"):
    """A cache line in the shape to_json writes, from the raw text of each field."""
    return (
        f'{{"n": 3, "k": {k}, "g": {g}, "mode": "{mode}", '
        f'"engine_version": "{version}", "elapsed_ms": {ms}}}{end}'
    )


# the line shapes TestLoaderParity accepts (tests/test_census.py), one (n, k)
# each; the last, complete but without its newline, is kept
CACHE_ACCEPTED = [
    '{"engine_version": "v", "elapsed_ms": 9, "g": 5, "mode": "pruned", "k": 10, "n": 3}\n',
    '{"n": 3, "k": 11, "g": 5, "stats": {"per_line": [1, 2]}, "note": null}\n',
    '{"n": 3, "k": 12, "g": 5}\n',
    ' \t {"n" : 3 , "k":13,"g" :5}\t  \n',
    '{"n": 3, "k": 14, "g": 5, "mode": "plain", "elapsed_ms": 0}\r\n',
    '{"n": "3", "k": " 15", "g": "5", "elapsed_ms": "12"}\n',
    '{"n": 3.0, "k": 16, "g": 5, "elapsed_ms": 1.9, "mode": "\\u00e9t\u00e9"}\n',
    "\n   \n",
    _line("-0", ms="-0"),
    _line(17, mode='a\\"b'),
    _line(18, mode="\\u00e9t\\u00e9"),
    _line(19, mode="\u00e9t\u00e9"),
    _line(20, version="v\x7f"),
    _line(21, g="9" * sys.get_int_max_str_digits()),
    _line(22, g="5.0"),
    _line(23, g="true"),
    _line(24, end="\r\n"),
    _line(25, end=""),
]
# the line shapes TestLoaderParity rejects, each read as line 2 of 3
CACHE_REJECTED = [
    '{"n": 3, "k": 4, "g": 5} {"n": 3, "k": 5, "g": 6}',
    "[1, 2]",
    '"x"',
    "7",
    '\ufeff{"n": 3, "k": 4, "g": 5}',
    '{"n": 3, "k": 4, "g": 5,}',
    '{"n": 3, "k": "four", "g": 5}',
    _line("04", end=""),
    _line(4, g="1" * 5000, end=""),
]
# the torn final lines TestLoaderParity skips with a warning
CACHE_TORN = ['{"n": 3, "k": 9, "g"', '{"n": 3, "k": 9, "g": 1} {"n"', "[1, "]


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _faults() -> dict:
    from braidcensus import analysis, closedform, diagram, perms, verify

    def run(suite, kmax, patches):
        reals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, fake in patches:
            setattr(module, name, fake)
        try:
            return verify.run_suite(suite, kmax=kmax, threads=1)
        finally:
            for module, name, real in reals:
                setattr(module, name, real)

    g2 = closedform.g2
    never = lambda *args: False  # noqa: E731
    return {
        "fault:g2-odd": run("b2", 20, [(closedform, "g2", lambda k: g2(k) + k % 2)]),
        "fault:translation-cyclic": run(
            "cyclicity", 12, [(perms, "is_cyclic_translation", lambda n, a: True)]
        ),
        "fault:interleaving": run("tightness", None, [(diagram, "zone_noninterleaving", never)]),
        # analysis holds its own reference, which the parent's witness suite calls
        "fault:disconnected": run(
            "witnesses", None, [(diagram, "is_actual", never), (analysis, "is_actual", never)]
        ),
    }


def _swapped(g, rng):
    """g with the v ends of two arcs of one zone exchanged, or None."""
    zone = rng.randint(1, g.n)
    idxs = [i for i, arc in enumerate(g.arcs) if arc.zone == zone]
    if len(idxs) < 2:
        return None
    x, y = rng.sample(idxs, 2)
    arcs = list(g.arcs)
    arcs[x], arcs[y] = arcs[x]._replace(v=g.arcs[y].v), arcs[y]._replace(v=g.arcs[x].v)
    return replace(g, arcs=tuple(arcs))


def _nesting() -> dict:
    from braidcensus import coords, diagram

    rng = random.Random(4711)
    real, swapped = [], []
    for _ in range(GRAPHS):
        c = coords.random_coordinates(rng, rng.randint(1, 8), rng.randint(0, 12))
        for closed in (False, True):
            g = diagram.build_arc_graph(c, closed_by_above=closed)
            real.append(diagram.zone_noninterleaving(g))
            s = _swapped(g, rng)
            if s is not None:
                swapped.append(diagram.zone_noninterleaving(s))
    return {
        f"nesting:{name}": {"graphs": len(got), "false": got.count(False), "digest": _digest(got)}
        for name, got in (("real", real), ("swapped", swapped))
    }


def _graphs() -> dict:
    from braidcensus import coords, diagram

    rng = random.Random(1913)
    built, tuples = [], []
    for _ in range(GRAPHS):
        c = coords.random_coordinates(rng, rng.randint(1, 8), rng.randint(0, 12))
        tuples.append(c)
        for closed in (False, True):
            g = diagram.build_arc_graph(c, closed_by_above=closed)
            places = [g.line_of(v) for v in range(g.node_count)]
            ends = (g.node(0, 1), g.node(c.n, 1))
            count = diagram.component_count(g)
            built.append((g.arcs, g.puncture_arcs, count, g.node_count, places, ends))
    tuples += [
        c
        for n in range(1, 5)
        for k in range(4)
        for sv in coords.enumerate_s_vectors(n, k)
        for c in coords.enumerate_a_tuples(sv)
    ]
    actual = [diagram.is_actual(c) for c in tuples]
    return {
        "graph": {"graphs": len(built), "digest": _digest(built)},
        "actual": {"tuples": len(actual), "connected": sum(actual), "digest": _digest(actual)},
    }


def _svg() -> dict:
    from braidcensus import coords, render

    rng = random.Random(90210)
    docs = []
    for _ in range(SVGS):
        c = coords.random_coordinates(rng, rng.randint(1, 8), rng.randint(0, 12))
        docs += [render.render_svg(c), render.render_svg(c, closed=True)]
    return {"svg": {"documents": len(docs), "digest": _digest(docs)}}


def _svectors() -> dict:
    from braidcensus import coords

    shapes = [(n, k) for n in range(1, 10) for k in range(11)] + SVECTOR_WIDE
    rows = [(n, k, list(coords.enumerate_s_vectors(n, k))) for n, k in shapes]
    errors = []
    for n, k in [(0, 0), (3, -1)]:
        try:
            list(coords.enumerate_s_vectors(n, k))
            errors.append(None)
        except coords.CoordinateError as exc:
            errors.append(str(exc))
    return {
        "svectors": {
            "s_vectors": sum(len(row) for _, _, row in rows),
            "digest": _digest(rows),
            "errors": errors,
        }
    }


def _closedforms() -> dict:
    from braidcensus import closedform, coords, perms

    values = [perms.is_cyclic_translation(n, a) for n in range(1, 31) for a in range(n + 1)]
    values += [
        perms.is_cyclic_translated_cut(n, a, b, c)
        for n in range(1, 13)
        for a in range(n + 1)
        for b in range(n - a + 1)
        for c in range(n - a - b + 1)
    ]
    for k in range(1, 20):
        for ell in range(k + 1, 21):
            for a2 in range(2 * k + 2):
                for a3 in (0, 1):
                    r = perms.B3Regime(k=k, ell=ell, a2=a2, a3=a3)
                    values.append((perms.theta_spec(r), perms.theta_is_cyclic(r)))
    values += [
        perms.b3_actual(k, ell, a1, a2, a3)
        for k in range(9)
        for ell in range(9)
        for a1 in range(coords.a_range_size(0, k))
        for a2 in range(coords.a_range_size(k, ell))
        for a3 in range(coords.a_range_size(ell, 0))
    ]
    values += [closedform.series(label, 400).coefficients for label in ("G2", "G3", "B2", "B3")]
    return {"closedforms": {"values": len(values), "digest": _digest(values)}}


def _walks(memo) -> dict:
    from braidcensus import census, coords

    out = {}
    walks = [
        (n, sv.s, *census._walk(sv.s, memo))
        for n, kmax, kmin in WALK_ROWS
        for k in range(kmin, kmax + 1)
        for sv in coords.enumerate_s_vectors(n, k)
    ]
    out["walk:plain"] = {
        "walks": len(walks),
        "g": sum(w[2] for w in walks),
        "digest": _digest(walks),
    }
    singles = [
        (n, sv.s, census.count_for_s_vector(sv))
        for n, kmax in SINGLE_ROWS
        for k in range(kmax + 1)
        for sv in coords.enumerate_s_vectors(n, k)
    ]
    out["walk:single"] = {
        "walks": len(singles),
        "g": sum(w[2] for w in singles),
        "digest": _digest(singles),
    }
    return out


def _memo(memo) -> dict:
    entries = sorted(
        (shape, repr(line), repr(nexts))
        for shape, zone in memo.items()
        for line, nexts in zone.items()
    )
    # a checkout that steps the closing zone keeps no completion tables
    tables = getattr(memo, "completions", {})
    completions = sorted(
        (shape, repr(line), count)
        for shape, table in tables.items()
        for line, count in table.items()
    )
    return {
        "memo": {
            "entries": len(entries),
            "completions": len(completions),
            "right_states": sum(len(table.right) for table in tables.values()),
            "interned": len(memo.states),
            "digest": _digest([entries, completions]),
        }
    }


def _tables() -> dict:
    from braidcensus import census

    def run(n, kmax, **options):
        calls = []
        records = census.count_table(n, kmax, progress=lambda *p: calls.append(p), **options)
        return [(r.k, r.g, r.mode, r.tuples_examined) for r in records], calls

    tables = [
        run(n, kmax, threads=threads, prune=prune)
        for n, kmax in TABLE_GRIDS
        for prune in (False, True)
        for threads in (1, 2)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        cache = census.CensusCache(os.path.join(tmp, "cache.jsonl"))
        for k in (2, 4):
            cache.add(census.count_actual(4, k, threads=1))
        tables.append(run(4, 6, threads=2, cache=cache))
    return {"table": {"tables": len(tables), "digest": _digest(tables)}}


def _calls() -> dict:
    from braidcensus import census

    records = [census.count_actual(n, k, threads=2) for n, k in CALL_GRID * 2]
    records += census.count_table(4, 6, threads=3)
    records += census.count_table(3, 8, threads=2, prune=True)
    rows = [(r.n, r.k, r.g, r.mode, r.tuples_examined) for r in records]
    return {"calls": {"records": len(rows), "digest": _digest(rows)}}


def _cache() -> dict:
    from braidcensus import census

    def record(k):
        return census.CensusRecord(n=2, k=k, g=k + 1, mode="plain", elapsed_ms=k)

    written = [record(k).to_json() + "\n" for k in range(len(CACHE_ACCEPTED))]
    mixed = "".join(w + line for w, line in zip(written, CACHE_ACCEPTED))
    seen, errors = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path, target = os.path.join(tmp, "c.jsonl"), os.path.join(tmp, "t.jsonl")
        stale = census.CensusCache(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(mixed)
        cache = census.CensusCache(path)
        seen.append(cache.records())
        seen.append([cache.lookup(r.n, r.k) for r in cache.records()])
        seen.append(census.merge_caches(target, [path]))
        seen.append(census.CensusCache(target).records())
        stale.add(record(100))
        seen.append(stale.records())
        for name in (path, target):
            with open(name, "rb") as fh:
                seen.append(fh.read())
        head, tail = record(1).to_json() + "\n", record(2).to_json() + "\n"
        for line in CACHE_REJECTED:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(head + line + "\n" + tail)
            try:
                census.CensusCache(path)
                errors.append(None)
            except census.CacheConflictError as exc:
                errors.append(str(exc).replace(tmp, "{tmp}"))
        for line in CACHE_TORN:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(head + tail + line)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                seen.append(census.CensusCache(path).records())
            errors.append(err.getvalue().replace(tmp, "{tmp}"))
    return {
        "cache": {"records": len(seen[0]), "digest": _digest(seen), "errors": errors}
    }


def _verify_outputs() -> dict:
    out = {}
    for suite in sorted(SUITE_SIZE):
        for size in (None, SUITE_SIZE[suite]):
            argv = ["verify", "--suite", suite, "--threads", "1"]
            if size is not None:
                argv += ["--kmax", str(size)]
            run = subprocess.run(
                [sys.executable, "-m", "braidcensus", *argv], capture_output=True, text=True
            )
            out[f"verify:{suite}:{size or 'default'}"] = [run.returncode, run.stdout]
    return out


def _cli_outputs() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache.jsonl")
        with open(os.path.join(tmp, "file"), "w", encoding="utf-8") as fh:
            fh.write("not a directory\n")
        for name, command in CLI_COMMANDS:
            argv = command.format(cache=cache, tmp=tmp).split()
            run = subprocess.run(
                [sys.executable, "-m", "braidcensus", *argv], capture_output=True, text=True
            )
            stdout = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', run.stdout)
            out[f"cli:{name}"] = [run.returncode, stdout.replace(tmp, "{tmp}")]
            if run.returncode != 0:
                last = run.stderr.splitlines()[-1] if run.stderr else ""
                out[f"cli:{name}"].append(last.replace(tmp, "{tmp}"))
    return out


def probe() -> None:
    from braidcensus import census

    results = _verify_outputs()
    memo = census._Transitions()  # filled by the walk probe, read by the memo probe
    parts = (
        _cli_outputs, _faults, _nesting, _graphs, _svg, _svectors, _closedforms,
        functools.partial(_walks, memo), functools.partial(_memo, memo), _tables, _calls, _cache,
    )
    for part in parts:
        results.update(part())
    print(json.dumps(results))


def collect(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    run = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        probe()
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, changed = (collect(path) for path in argv)
    differ = 0
    for key in sorted(base.keys() | changed.keys()):
        if base.get(key) == changed.get(key):
            print(f"same     {key}  {json.dumps(base[key])[:100]}")
        else:
            differ += 1
            print(f"DIFFERS  {key}\n  base:    {base.get(key)}\n  changed: {changed.get(key)}")
    print(f"{len(base.keys() | changed.keys()) - differ} probes agree, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
