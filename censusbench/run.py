"""Census benchmark for braidcensus.

Run from the repository root:

    python3 censusbench/run.py --workload table-n4 --seed 1 --seconds 20 --trace 0

The package is imported from this checkout's src/ and driven through its
public functions only, from one process, with threads=2 passed explicitly.
Every workload is a closed loop with a single client: the next call starts
only after the previous one returned.

With --trace 0 the workload repeats, each repetition after its own set-up,
until --seconds have passed (at least three repetitions), and the
end-to-end metrics are reported.  With --trace 1 the workload runs once
untraced and once with in-memory spans around every call, then each
layer's public functions are timed on the same inputs, and the per-layer
metrics are reported.  Every count is checked against reference.json.
The last line of stdout is one JSON object; the lines before it are for
people.  The exit code is 1 when any check failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

THREADS = 2
MIN_REPS = 3

TABLES = {"table-n4": (4, 28), "table-n6": (6, 11)}
SWEEP_GRID = [(n, k) for n in range(4, 9) for k in range(7)]
SWEEP_WARM_PASSES = 2
PRESEED_KMAX = 1000
FUZZ_TUPLES = 5000
FUZZ_N = (2, 8)
FUZZ_K = (0, 20)
G3_KMAX = 20
WORKLOADS = ("table-n4", "table-n6", "sweep-cache", "audit-fuzz")
LAYERS = ("bench", "coords", "census", "diagram", "verify", "analysis", "closedform")


def census_rows(workload: str) -> list[tuple[int, int]]:
    """The (n, k) pairs whose g(n, k) the workload computes."""
    if workload in TABLES:
        n, kmax = TABLES[workload]
        return [(n, k) for k in range(kmax + 1)]
    if workload == "sweep-cache":
        return list(SWEEP_GRID)
    return [(3, k) for k in range(G3_KMAX + 1)]


def checksum(rows: dict[tuple[int, int], int]) -> str:
    text = "".join(f"{n},{k},{g}\n" for (n, k), g in sorted(rows.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict[tuple[int, int], int]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return {(n, k): g for n, k, g in json.load(fh)["rows"]}


class Tally:
    """Operations attempted and failed; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {what}", file=sys.stderr)


@dataclass
class Job:
    """One set-up's output: fresh modules and the generated inputs."""

    bc: object
    mods: dict
    expected: dict
    calls: list = field(default_factory=list)
    tuples: list = field(default_factory=list)
    cache_path: Path | None = None
    totients: object = None


@dataclass
class Rep:
    """One repetition: its timings and what it computed."""

    wall: float = 0.0
    cpu: float = 0.0
    ops_ms: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)  # (n, k) -> g as returned
    computed: set = field(default_factory=set)  # (n, k) computed, not cache hits
    compute_wall: float = 0.0  # time inside census calls that computed


def load_package():
    """Import braidcensus afresh, as a new process would."""
    for name in [m for m in sys.modules if m.split(".")[0] == "braidcensus"]:
        del sys.modules[name]
    bc = importlib.import_module("braidcensus")
    mods = {
        name: importlib.import_module(f"braidcensus.{name}")
        for name in ("analysis", "closedform", "coords", "diagram", "verify")
    }
    return bc, mods


def set_up(workload: str, seed: int, cache_path: Path) -> Job:
    bc, mods = load_package()
    reference = load_reference()
    expected = {nk: reference[nk] for nk in census_rows(workload)}
    job = Job(bc=bc, mods=mods, expected=expected)
    rng = random.Random(seed)
    if workload == "sweep-cache":
        table = bc.totient_sieve(PRESEED_KMAX + 2)
        rows = [(2, k, bc.g2(k)) for k in range(PRESEED_KMAX + 1)]
        rows += [(3, k, bc.g3_totient(k, table)) for k in range(PRESEED_KMAX + 1)]
        records = [
            bc.CensusRecord(n=n, k=k, g=g, mode="closedform", elapsed_ms=0)
            for n, k, g in rows
        ]
        cache_path.write_text(
            "".join(r.to_json() + "\n" for r in records), encoding="utf-8"
        )
        job.cache_path = cache_path
        job.calls = rng.sample(SWEEP_GRID, len(SWEEP_GRID))  # cold: all misses
        for _ in range(SWEEP_WARM_PASSES):  # warm: all hits
            job.calls += rng.sample(SWEEP_GRID, len(SWEEP_GRID))
    elif workload == "audit-fuzz":
        coords = mods["coords"]
        for _ in range(FUZZ_TUPLES):
            n, k = rng.randint(*FUZZ_N), rng.randint(*FUZZ_K)
            c = coords.random_coordinates(rng, n, k)
            job.tuples.append((c, coords.SVector(n=c.n, s=c.s[1:-1])))
        job.totients = bc.totient_sieve(G3_KMAX + 2)
    return job


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped worker processes."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


class TimedCache:
    """Delegates to a CensusCache, timing lookup and add as spans."""

    def __init__(self, inner, tr: Tracer):
        self.inner = inner
        self.tr = tr
        self.hit = False
        self.seconds = 0.0

    def lookup(self, n: int, k: int):
        started = time.perf_counter()
        with self.tr.span("census.cache_lookup"):
            record = self.inner.lookup(n, k)
        self.seconds += time.perf_counter() - started
        self.hit = record is not None
        self.tr.add("census.cache_hits" if self.hit else "census.cache_misses", 1)
        return record

    def add(self, record) -> None:
        started = time.perf_counter()
        with self.tr.span("census.cache_add"):
            self.inner.add(record)
        self.seconds += time.perf_counter() - started


def rep_table(workload: str, job: Job, tr, tally: Tally, rep: Rep) -> None:
    n, kmax = TABLES[workload]
    marks: list[float] = []

    def progress(done: int, total: int, _s) -> None:
        if done == total:  # the row for one k is complete
            marks.append(time.perf_counter())

    start = time.perf_counter()
    with tr.span("census.count_table") as sid:
        try:
            records = job.bc.count_table(n, kmax, threads=THREADS, progress=progress)
        except Exception as exc:  # a raising table fails every row
            records = []
            print(f"count_table({n}, {kmax}) raised {exc!r}", file=sys.stderr)
    rep.compute_wall = time.perf_counter() - start
    edges = [start] + marks
    for lo, hi in zip(edges, edges[1:]):
        rep.ops_ms.append((hi - lo) * 1000)
        tr.record("census.row", lo, hi, sid)
    got = {(r.n, r.k): r for r in records}
    for nk, want in job.expected.items():
        record = got.get(nk)
        got_g = record and record.g
        tally.check(got_g == want, f"g{nk} = {got_g}, want {want}")
        if record is not None:
            rep.answers[nk] = record.g
            rep.computed.add(nk)
            tr.add("census.tuples_examined", record.tuples_examined)


def rep_sweep(job: Job, tr, tally: Tally, rep: Rep) -> None:
    bc = job.bc
    for n, k in job.calls:
        started = time.perf_counter()
        try:
            with tr.span("bench.call"):
                with tr.span("census.cache_open"):
                    cache = bc.CensusCache(str(job.cache_path))
                if tr.enabled:
                    cache = TimedCache(cache, tr)
                called = time.perf_counter()
                with tr.span("census.count_actual"):
                    record = bc.count_actual(n, k, threads=THREADS, cache=cache)
                called = time.perf_counter() - called
        except Exception as exc:
            tally.check(False, f"count_actual({n}, {k}) raised {exc!r}")
            continue
        rep.ops_ms.append((time.perf_counter() - started) * 1000)
        want = job.expected[(n, k)]
        tally.check(record.g == want, f"g({n},{k}) = {record.g}, want {want}")
        rep.answers[(n, k)] = record.g
        if tr.enabled and not cache.hit:
            rep.computed.add((n, k))
            rep.compute_wall += called - cache.seconds
            tr.add("census.tuples_examined", record.tuples_examined)


def rep_audit(job: Job, tr, tally: Tally, rep: Rep) -> None:
    bc, verify, analysis, closedform = (
        job.bc, job.mods["verify"], job.mods["analysis"], job.mods["closedform"]
    )
    for c, sv in job.tuples:
        started = time.perf_counter()
        try:
            with tr.span("bench.tuple"):
                with tr.span("verify.check_structure"):
                    structure = verify.check_structure(c)
                with tr.span("verify.check_symmetry"):
                    symmetry = verify.check_symmetry(c)
                with tr.span("analysis.witness"):
                    witness = analysis.witness_a_for_s(sv)
        except Exception as exc:
            tally.check(False, f"{c}: raised {exc!r}")
            continue
        rep.ops_ms.append((time.perf_counter() - started) * 1000)
        tally.check(
            structure is None and symmetry is None and witness.s == c.s,
            f"{c}: structure={structure} symmetry={symmetry} witness={witness}",
        )
    table = job.totients
    for k in range(G3_KMAX + 1):
        try:
            with tr.span("bench.g3_row"):
                with tr.span("closedform.g3"):
                    forms = (
                        closedform.g3_totient(k, table),
                        closedform.g3_via_c(k),
                        closedform.g3_via_gamma(k, table),
                    )
                started = time.perf_counter()
                with tr.span("census.count_actual"):
                    record = bc.count_actual(3, k, threads=THREADS)
                rep.compute_wall += time.perf_counter() - started
        except Exception as exc:
            tally.check(False, f"g(3,{k}): raised {exc!r}")
            continue
        want = job.expected[(3, k)]
        tally.check(
            forms == (want, want, want) and record.g == want,
            f"g(3,{k}): closed forms {forms}, census {record.g}, want {want}",
        )
        rep.answers[(3, k)] = record.g
        rep.computed.add((3, k))
        tr.add("census.tuples_examined", record.tuples_examined)


def run_rep(workload: str, job: Job, tr, tally: Tally) -> Rep:
    rep = Rep()
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    with tr.span("bench.rep"):
        if workload in TABLES:
            rep_table(workload, job, tr, tally, rep)
        elif workload == "sweep-cache":
            rep_sweep(job, tr, tally, rep)
        else:
            rep_audit(job, tr, tally, rep)
    rep.wall = time.perf_counter() - started
    rep.cpu = cpu_seconds() - cpu0
    return rep


def decompose(workload: str, job: Job, tr: Tracer, tally: Tally, computed: set) -> dict:
    """Time each layer's public functions on the inputs the traced rep used."""
    bc, coords, diagram = job.bc, job.mods["coords"], job.mods["diagram"]
    counts = {"coords.s_vectors": 0, "coords.leaf_space": 0, "diagram.arcs": 0}
    with tr.span("bench.decompose"):
        with tr.span("coords.enumerate"):
            groups = {
                nk: list(coords.enumerate_s_vectors(*nk)) for nk in sorted(computed)
            }
            for group in groups.values():
                counts["coords.s_vectors"] += len(group)
                counts["coords.leaf_space"] += sum(map(coords.count_a_tuples, group))
        with tr.span("census.walk"):
            for nk, group in groups.items():
                g = 0
                for sv in group:
                    with tr.span("census.walk_unit"):
                        g += bc.count_for_s_vector(sv)
                tally.check(g == job.expected[nk], f"serial walk g{nk} = {g}")
        if workload == "audit-fuzz":
            for c, _ in job.tuples:
                with tr.span("diagram.build_arc_graph"):
                    graph = diagram.build_arc_graph(c)
                with tr.span("diagram.component_count"):
                    diagram.component_count(graph)
                with tr.span("diagram.tightness_check"):
                    tight = diagram.tightness_check(graph)
                with tr.span("diagram.zone_noninterleaving"):
                    nested = diagram.zone_noninterleaving(graph)
                counts["diagram.arcs"] += len(graph.arcs)
                tally.check(tight and nested, f"{c}: tight={tight} nested={nested}")
    return counts


def measure(
    workload: str, seed: int, seconds: float, workdir: Path, tally: Tally
) -> tuple[dict, dict]:
    """End-to-end metrics; returns (last repetition's answers, metrics)."""
    setups: list[float] = []
    reps: list[Rep] = []
    begun = time.perf_counter()
    while len(reps) < MIN_REPS or (
        time.perf_counter() - begun + statistics.median(r.wall for r in reps) <= seconds
    ):
        cache_path = workdir / f"cache-{len(reps)}.jsonl"
        started = time.perf_counter()
        job = set_up(workload, seed, cache_path)
        setups.append(time.perf_counter() - started)
        reps.append(run_rep(workload, job, NullTracer(), tally))
        cache_path.unlink(missing_ok=True)
    # Percentiles are taken per repetition and then the median over
    # repetitions, so one repetition slowed by a busy host cannot own the tail.
    p50 = statistics.median(statistics.median(r.ops_ms) for r in reps)
    p90 = statistics.median(statistics.quantiles(r.ops_ms, n=10)[-1] for r in reps)
    print(f"  repetitions: {len(reps)}, operations each: {len(reps[0].ops_ms)}")
    print("  wall per repetition: " + ", ".join(f"{r.wall:.3f}" for r in reps) + " s")
    return reps[-1].answers, {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall for r in reps), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "cpu_s": (statistics.median(r.cpu for r in reps), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure_traced(
    workload: str, seed: int, workdir: Path, tally: Tally
) -> tuple[dict, dict]:
    """Per-layer metrics; returns (traced repetition's answers, metrics)."""
    job = set_up(workload, seed, workdir / "untraced.jsonl")
    untraced = run_rep(workload, job, NullTracer(), tally)
    tr = Tracer(run_id=f"{workload}/seed{seed}/pid{os.getpid()}")
    job = set_up(workload, seed, workdir / "traced.jsonl")
    rep = run_rep(workload, job, tr, tally)
    counts = decompose(workload, job, tr, tally, rep.computed)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tr.write(spans_path)
    print(f"  spans: {len(tr.spans)} written to {spans_path.relative_to(HERE.parent)}")

    units = tr.durations("census.walk_unit")
    walk = sum(units)
    examined = tr.counts["census.tuples_examined"]
    selfs = tr.self_time_by_layer()
    size = job.cache_path.stat().st_size if job.cache_path else 0
    connected = sum(rep.answers[nk] for nk in rep.computed)
    metrics = {
        "coords.enumerate_s": (tr.total("coords.enumerate"), "s"),
        "coords.s_vectors": (counts["coords.s_vectors"], "count"),
        "coords.leaf_space": (counts["coords.leaf_space"], "count"),
        "census.walk_s": (walk, "s"),
        "census.walk_rate": (examined / walk, "1/s"),
        "census.tuples_examined": (examined, "count"),
        "census.connected_frac": (connected / examined, "ratio"),
        "census.unit_p50_ms": (statistics.median(units) * 1000, "ms"),
        "census.unit_max_ms": (max(units) * 1000, "ms"),
        "census.dispatch_s": (rep.compute_wall - walk / THREADS, "s"),
        "census.parallel_eff": (walk / (THREADS * rep.compute_wall), "ratio"),
        "census.cache_open_s": (tr.total("census.cache_open"), "s"),
        "census.cache_lookup_s": (tr.total("census.cache_lookup"), "s"),
        "census.cache_add_s": (tr.total("census.cache_add"), "s"),
        "census.cache_hits": (tr.counts["census.cache_hits"], "count"),
        "census.cache_misses": (tr.counts["census.cache_misses"], "count"),
        "census.cache_bytes": (size, "bytes"),
        "diagram.build_arc_graph_s": (tr.total("diagram.build_arc_graph"), "s"),
        "diagram.component_count_s": (tr.total("diagram.component_count"), "s"),
        "diagram.tightness_check_s": (tr.total("diagram.tightness_check"), "s"),
        "diagram.zone_noninterleaving_s": (
            tr.total("diagram.zone_noninterleaving"),
            "s",
        ),
        "diagram.arcs": (counts["diagram.arcs"], "count"),
        "verify.check_structure_s": (tr.total("verify.check_structure"), "s"),
        "verify.check_symmetry_s": (tr.total("verify.check_symmetry"), "s"),
        "analysis.witness_s": (tr.total("analysis.witness"), "s"),
        "closedform.g3_s": (tr.total("closedform.g3"), "s"),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = (selfs.get(layer, 0.0), "s")
    metrics["trace.untraced_wall_s"] = (untraced.wall, "s")
    metrics["trace.traced_wall_s"] = (rep.wall, "s")
    metrics["trace.overhead_s"] = (rep.wall - untraced.wall, "s")
    metrics["trace.spans"] = (len(tr.spans), "count")
    return rep.answers, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidcensus" / "__init__.py").is_file():
        print(f"error: no braidcensus package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bc, _ = load_package()
    if not Path(bc.__file__).resolve().is_relative_to(SRC):
        print(f"error: braidcensus came from {bc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    note = " (fixed exhaustive problem; seed unused)" if args.workload in TABLES else ""
    print(f"workload {args.workload}, seed {args.seed}{note}, trace {args.trace}")
    python = sys.version.split()[0]
    print(f"  nproc {os.cpu_count()}, threads {THREADS}, python {python}")
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        if args.trace:
            answers, metrics = measure_traced(args.workload, args.seed, workdir, tally)
        else:
            answers, metrics = measure(
                args.workload, args.seed, args.seconds, workdir, tally
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = load_reference()
    want = {nk: reference[nk] for nk in census_rows(args.workload)}
    print(
        f"  checksum {checksum(answers)} over {len(answers)} rows"
        f" (reference {checksum(want)})"
    )
    fail_frac = tally.failed / max(tally.attempted, 1)
    print(f"  fail_frac = {fail_frac} ({tally.failed} of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": v, "unit": u} for name, (v, u) in metrics.items()
                },
            }
        )
    )
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
