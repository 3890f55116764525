"""Exhaustive counting of connected coordinate tuples, g(n, k).

The count for fixed (n, k) splits over interior s-vectors; one s-vector is
one work unit, dispatched either inline or over a process pool (CPython
threads would serialise on the interpreter lock, so "threads" here are
worker processes; results are summed, so the outcome is independent of
worker count and scheduling).  A call to count_table or count_actual
creates at most one pool, shared by all of its rows, and shuts it down
before it returns or raises.  No pool is made with one worker, or when
every row is a cache hit or has at most one work unit.

Within one s-vector the offsets are chosen zone by zone, left to right.
Each node gets exactly one arc from each zone beside its line, so every
component is a path or a closed loop, and every tuple has exactly one arc
fewer than nodes: a tuple is connected iff no arc closes a loop.  After
zones 1..i, every node left of line L_i except node 0 has degree 2, so the
path ends are node 0 and the nodes on L_i.  The line state is the mate
(other end of its path) of each node on L_i and of node 0, plus, in pruned
mode, whether the prefix is still its own mirror.  Prefixes that share a
line state have the same futures, so the walk is a forward pass that keeps
{line state: number of prefixes} and applies each offset of the next zone
once per state (the transfer matrix of I. Jensen, "A transfer matrix
approach to the enumeration of plane meanders", J. Phys. A 33 (2000)
5953, taken within one s-vector).  An arc (u, v) closes a loop iff
mate[u] == v; otherwise it joins two paths, and the outer ends become
mates: mate[mate[u]], mate[mate[v]] = mate[v], mate[u].  A closed loop
never opens again, so such a transition is dead.

tuples_examined counts every tuple the pass covers, as a walk over single
prefixes would: a dead transition from a state reached by c prefixes adds
c times the tuples below it, and a transition through the last zone adds
c.  In plain mode that is the whole virtual-tuple space.

Optional pruning halves the work twice, and is off by default:
  * s-vectors are enumerated up to reversal, doubling the count of
    non-palindromic ones (tuple reversal is a connectivity-preserving
    bijection between the two orientations);
  * within an s-vector, offset tuples are paired with their range-mirrored
    images (also connectivity-preserving), one representative per pair is
    evaluated, and non-fixed pairs count twice.
Pruned and plain mode must agree; that equality is enforced by tests, not
assumed.  In pruned mode tuples_examined counts the representatives.

Counts are exact (Python integers are unbounded).  The optional cache is a
UTF-8 JSON-lines file, one object per record with keys n, k, g, mode,
engine_version, elapsed_ms; re-running a cached query returns the stored
count, and two stored records disagreeing on g for one (n, k) are a hard
error.  Opening a cache validates every line: it is parsed once by json's
decoder (json.loads runs only on a line that fails, to raise json's own
message), its fields are converted, and its g is checked against any
earlier record for the same (n, k); merging caches goes through the same
check.  Per (n, k) the cache keeps a plain row, and builds a CensusRecord
only when lookup or records asks for one.  Each append holds an exclusive
lock on the file; worker processes never touch it.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

from .coords import SVector, a_range_size, count_s_vectors, enumerate_s_vectors

ENGINE_VERSION = "braidcensus-1"

MODE_PLAIN = "plain"
MODE_PRUNED = "pruned"

_DECODER = json.JSONDecoder()

# (n, k) -> (g, mode, elapsed_ms, engine_version): a cache record as loaded
_Rows = dict[tuple[int, int], tuple[int, str, int, str]]


class CacheConflictError(RuntimeError):
    """Two cache records disagree on the count for one (n, k)."""


@dataclass(frozen=True)
class CensusRecord:
    n: int
    k: int
    g: int
    mode: str
    elapsed_ms: int
    engine_version: str = ENGINE_VERSION
    tuples_examined: int | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "g": self.g,
                "mode": self.mode,
                "engine_version": self.engine_version,
                "elapsed_ms": self.elapsed_ms,
            }
        )


def _zone_arc_pairs(
    bases: list[int], s: tuple[int, ...], i: int, a: int
) -> list[tuple[int, int]]:
    """(u, v) node pairs of the arcs of zone i at offset a."""
    sl, sr = s[i - 1], s[i]
    bl, br = bases[i - 1] - 1, bases[i] - 1  # pre-shifted for 1-based j
    b = a + abs(sl - sr)
    out = [(bl + j, br + j) for j in range(1, a + 1)]
    if sl > sr:
        out += [(bl + j, bl + 2 * b + 1 - j) for j in range(a + 1, b + 1)]
        shift = 2 * (sl - sr)
        out += [(bl + j + shift, br + j) for j in range(a + 1, 2 * sr + 2)]
    elif sr > sl:
        out += [(br + j, br + 2 * b + 1 - j) for j in range(a + 1, b + 1)]
        shift = 2 * (sr - sl)
        out += [(bl + j, br + j + shift) for j in range(a + 1, 2 * sl + 2)]
    else:
        out += [(bl + j, br + j) for j in range(a + 1, 2 * sl + 2)]
    return out


def _zone_tables(sv: SVector) -> tuple[list[list[list[tuple[int, int]]]], int]:
    s = sv.full()
    n = sv.n
    bases = [0]
    for i in range(n + 1):
        bases.append(bases[-1] + 2 * s[i] + 1)
    tables = [
        [
            _zone_arc_pairs(bases, s, i, a)
            for a in range(a_range_size(s[i - 1], s[i]))
        ]
        for i in range(1, n + 1)
    ]
    return tables, bases[n + 1]


def _walk(sv: SVector, mirror: bool) -> tuple[int, int]:
    """(connected count, tuples examined) for one s-vector.

    A forward pass over line states (see the module docstring): each
    offset of a zone is applied once per state, weighted by the number of
    prefixes that reach the state.  A transition that closes a loop is
    dead, and its subtree's leaves still count as examined.  With mirror,
    one offset tuple per mirror pair is evaluated: a_i maps to
    (range_i - 1) - a_i, and the comparison with the mirror is decided at
    the first position where 2 a_i != range_i - 1.  Smaller means this
    tuple represents a pair (weight 2), larger means its mirror is counted
    instead (skip the subtree).  Fully central tuples are their own mirror
    (weight 1).
    """
    tables, node_count = _zone_tables(sv)
    s = sv.full()
    last = len(tables) - 1
    # leaves[zi]: offset tuples below one prefix that ends at zone zi;
    # central[zi]: the mirror representatives among them when the prefix
    # is still its own mirror (half, plus the all-central suffix if any)
    leaves = [1] * len(tables)
    odd = [True] * len(tables)
    for zi in range(last, 0, -1):
        size = len(tables[zi])
        leaves[zi - 1] = leaves[zi] * size
        odd[zi - 1] = odd[zi] and size % 2 == 1
    central = [(count + o) // 2 for count, o in zip(leaves, odd)]
    pair_weight = 2 if mirror else 1
    identity = list(range(node_count))
    actual = 0
    examined = 0
    # {(mates of the nodes on the line, mate of node 0, undecided): prefixes}
    states = {((0,), 0, mirror): 1}
    lo = 0  # first node on the current line
    for zi, table in enumerate(tables):
        hi = lo + 2 * s[zi] + 1  # the next line's nodes are hi .. end - 1
        end = hi + 2 * s[zi + 1] + 1
        top = len(table) - 1
        following: dict[tuple[tuple[int, ...], int, bool], int] = {}
        for (line, mate0, undecided0), c in states.items():
            for a, pairs in enumerate(table):
                if undecided0:
                    if 2 * a > top:
                        break  # larger than its mirror: counted there
                    undecided = 2 * a == top
                else:
                    undecided = False
                mate = identity.copy()
                mate[lo:hi] = line
                mate[0] = mate0
                for u, v in pairs:
                    mu = mate[u]
                    if mu == v:
                        break  # u and v end one path: this arc closes a loop
                    mv = mate[v]
                    mate[mu] = mv
                    mate[mv] = mu
                else:
                    if zi < last:
                        key = (tuple(mate[hi:end]), mate[0], undecided)
                        following[key] = following.get(key, 0) + c
                        continue
                    actual += c if undecided else c * pair_weight
                examined += c * (central[zi] if undecided else leaves[zi])
        states = following
        lo = hi
    return actual, examined


def count_for_s_vector(sv: SVector) -> int:
    """Connected offset tuples over one s-vector (the parallel work unit)."""
    return _walk(sv, mirror=False)[0]


def _worker(args: tuple[int, tuple[int, ...], str, int]) -> tuple[int, int]:
    n, interior, mode, weight = args
    actual, examined = _walk(SVector(n=n, s=interior), mirror=mode == MODE_PRUNED)
    return actual * weight, examined


def default_threads() -> int:
    """Worker count: CENSUS_THREADS when set, else the CPU count."""
    env = os.environ.get("CENSUS_THREADS")
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"CENSUS_THREADS must be >= 1, got {env!r}")
        return value
    return os.cpu_count() or 1


def _work_units(n: int, k: int, mode: str) -> Iterable[tuple[int, tuple[int, ...], str, int]]:
    if mode == MODE_PRUNED:
        for sv in enumerate_s_vectors(n, k):
            reverse = sv.s[::-1]
            if sv.s > reverse:
                continue  # its reversal is enumerated instead
            weight = 1 if sv.s == reverse else 2
            yield (n, sv.s, mode, weight)
    else:
        for sv in enumerate_s_vectors(n, k):
            yield (n, sv.s, mode, 1)


ProgressFn = Callable[[int, int, tuple[int, ...]], None]


def _count_row(
    n: int,
    k: int,
    mode: str,
    units: list[tuple[int, tuple[int, ...], str, int]],
    pool: ProcessPoolExecutor | None,
    workers: int,
    progress: ProgressFn | None,
) -> CensusRecord:
    started = time.perf_counter()
    if pool is None or len(units) <= 1:
        results = map(_worker, units)
    else:
        chunk = max(1, len(units) // (8 * workers))
        results = pool.map(_worker, units, chunksize=chunk)
    total = 0
    examined = 0
    for done, (unit, (part, part_examined)) in enumerate(zip(units, results), 1):
        total += part
        examined += part_examined
        if progress is not None:
            progress(done, len(units), unit[1])
    return CensusRecord(
        n=n,
        k=k,
        g=total,
        mode=mode,
        elapsed_ms=int((time.perf_counter() - started) * 1000),
        tuples_examined=examined,
    )


def _count_rows(
    n: int,
    ks: Iterable[int],
    threads: int | None,
    prune: bool,
    cache: "CensusCache | None",
    progress: ProgressFn | None,
) -> list[CensusRecord]:
    """Census rows for n and each k, sharing at most one worker pool."""
    mode = MODE_PRUNED if prune else MODE_PLAIN
    workers = threads if threads is not None else default_threads()
    if workers < 1:
        raise ValueError(f"thread count must be >= 1, got {workers}")
    hits = {k: cache.lookup(n, k) if cache is not None else None for k in ks}
    # sized for the widest row to compute (mirror pruning only narrows rows)
    widest = max(
        (count_s_vectors(n, k) for k, hit in hits.items() if hit is None), default=0
    )
    pool = None
    records = []
    try:
        for k, record in hits.items():
            if record is None:
                units = list(_work_units(n, k, mode))
                if pool is None and workers > 1 and len(units) > 1:
                    pool = ProcessPoolExecutor(
                        max_workers=min(workers, widest),
                        # Ctrl-C reaches every process in the group; the caller
                        # handles it and shuts the pool down, so workers ignore it
                        initializer=signal.signal,
                        initargs=(signal.SIGINT, signal.SIG_IGN),
                    )
                record = _count_row(n, k, mode, units, pool, workers, progress)
                if cache is not None:
                    cache.add(record)
            records.append(record)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return records


def count_actual(
    n: int,
    k: int,
    *,
    threads: int | None = None,
    prune: bool = False,
    cache: "CensusCache | None" = None,
    progress: ProgressFn | None = None,
) -> CensusRecord:
    """Exact g(n, k), optionally parallel, pruned, and cached."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    return _count_rows(n, [k], threads, prune, cache, progress)[0]


def count_table(
    n: int,
    kmax: int,
    *,
    threads: int | None = None,
    prune: bool = False,
    cache: "CensusCache | None" = None,
    progress: ProgressFn | None = None,
) -> list[CensusRecord]:
    """Census rows for k = 0 .. kmax, all computed on one worker pool."""
    if n < 1 or kmax < 0:
        raise ValueError(f"need n >= 1 and kmax >= 0, got n={n}, kmax={kmax}")
    return _count_rows(n, range(kmax + 1), threads, prune, cache, progress)


def table_csv(records: list[CensusRecord]) -> str:
    lines = ["n,k,g"]
    lines += [f"{r.n},{r.k},{r.g}" for r in records]
    return "\n".join(lines) + "\n"


def _read_rows(path: str, rows: _Rows) -> tuple[int, int | None, bool]:
    """Add the records of the cache file at path to rows.

    A record whose (n, k) is already in rows must agree on g, and the row
    already there is kept.  Returns the file size, the size without a torn final
    line (None when there is none), and whether the last record lacks its
    newline.  Holds a shared lock while it reads, so a writer's append is
    seen whole or not at all.
    """
    torn = 0  # bytes of the torn final line
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)
        raw = ""
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                try:
                    obj, end = _DECODER.raw_decode(line)
                except json.JSONDecodeError:
                    end = -1
                if end != len(line):
                    obj = json.loads(line)  # raises json's own error and message
                key = (int(obj["n"]), int(obj["k"]))
                row = (
                    int(obj["g"]),
                    str(obj.get("mode", MODE_PLAIN)),
                    int(obj.get("elapsed_ms", 0)),
                    str(obj.get("engine_version", "unknown")),
                )
            except (ValueError, KeyError, TypeError) as exc:
                # only the final line can lack its newline
                if isinstance(exc, json.JSONDecodeError) and not raw.endswith("\n"):
                    print(
                        f"warning: {path}:{lineno}: ignoring incomplete final "
                        f"record ({len(raw)} bytes); the next write removes it",
                        file=sys.stderr,
                    )
                    torn = len(raw.encode("utf-8"))
                    break
                raise CacheConflictError(
                    f"{path}:{lineno}: unreadable record: {exc}"
                ) from exc
            existing = rows.setdefault(key, row)
            if existing[0] != row[0]:
                raise CacheConflictError(
                    f"{path}:{lineno}: g({key[0]},{key[1]}) = {row[0]} "
                    f"conflicts with stored value {existing[0]}"
                )
        size = os.fstat(fh.fileno()).st_size
    if torn:
        return size, size - torn, False
    return size, None, raw != "" and not raw.endswith("\n")


def _as_records(rows: _Rows) -> list[CensusRecord]:
    return [CensusRecord(n, k, *row) for (n, k), row in sorted(rows.items())]


class CensusCache:
    """Append-only JSON-lines store of census records, keyed by (n, k).

    A plain row is kept per (n, k), and lookup and records build the
    CensusRecord objects, so a lookup hit carries tuples_examined None.
    Loading tolerates unknown keys and blank lines; duplicate keys must
    agree on g (the first record is kept).  Partial tables are resumable:
    a lookup hit skips recomputation entirely.  A final line without its
    newline that does not parse is what a process killed mid-append leaves
    behind: it is skipped with a warning on stderr and cut off by the next
    add.  An unreadable line anywhere else is a hard error.

    Several handles, in one process or many, may add to one file: add
    holds an exclusive lock around its append, and mends the file's tail
    (cuts the torn line, or ends the last record's line) only while the
    file is still the size this handle loaded, so it never cuts a record
    that another handle appended since.
    """

    def __init__(self, path: str):
        self.path = path
        self._rows: _Rows = {}
        self._size = 0  # file size at load
        self._torn_at: int | None = None  # file size without the torn tail
        self._unterminated = False  # last record lacks its newline
        if os.path.exists(path):
            self._size, self._torn_at, self._unterminated = _read_rows(path, self._rows)

    def lookup(self, n: int, k: int) -> CensusRecord | None:
        row = self._rows.get((n, k))
        return None if row is None else CensusRecord(n, k, *row)

    def add(self, record: CensusRecord) -> None:
        key = (record.n, record.k)
        existing = self._rows.get(key)
        if existing is not None:
            if existing[0] != record.g:
                raise CacheConflictError(
                    f"new result g({record.n},{record.k}) = {record.g} "
                    f"conflicts with cached value {existing[0]}"
                )
            return
        self._rows[key] = (record.g, record.mode, record.elapsed_ms, record.engine_version)
        line = record.to_json() + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
            if os.fstat(fh.fileno()).st_size == self._size:  # no append since load
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                elif self._unterminated:
                    line = "\n" + line
            fh.write(line)
        self._torn_at = None
        self._unterminated = False

    def records(self) -> list[CensusRecord]:
        return _as_records(self._rows)


def merge_caches(target_path: str, source_paths: list[str]) -> int:
    """Union several cache files into target; conflicts are hard errors.

    Returns the number of records in the merged store.  The merged records
    are written in sorted order to a temporary file next to the target,
    synced, and renamed onto the target, so a failure at any point leaves
    the target as it was.
    """
    rows: _Rows = {}
    for path in [target_path, *source_paths]:
        if os.path.exists(path):
            _read_rows(path, rows)
    records = _as_records(rows)
    directory, name = os.path.split(os.path.abspath(target_path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(record.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(target_path):
            shutil.copymode(target_path, tmp)
        os.replace(tmp, target_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(records)
