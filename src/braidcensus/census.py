"""Exhaustive counting of connected coordinate tuples, g(n, k).

The count for fixed (n, k) splits over interior s-vectors, one work unit
each.  A count_table or count_actual call lists the units of every row to
compute and streams them, in order, through one map: inline, or over a
process pool (worker processes: CPython threads would serialise on the
interpreter lock) used only with more than one worker and a row of more
than one unit, min(workers, widest row) wide, and fed in chunks sized by
that row alone.  The process keeps one such pool: the first call that
needs it forks it, later calls of the same width reuse it, and a call of
another width shuts it down and forks one of its own width.  A call that
raises cancels its pending chunks and shuts the pool down, so the next
call forks a fresh one; at interpreter exit concurrent.futures joins the
workers.  A forked child never uses its parent's pool, and a process that
multiprocessing started shuts its pool down at the end of each call, since
multiprocessing waits for that process's children before it exits.  One
lock guards taking, replacing, submitting to and shutting down the pool,
so threads may share it.  Each row's results are summed, so counts do not
depend on scheduling; its elapsed_ms is the time the caller waited for it
after the previous row.

Within one s-vector the offsets are chosen zone by zone, left to right.
Each zone's arcs at each offset are plain (u, v) pairs from
diagram.zone_arc_pairs, the one implementation of the arc rules.
Each node gets exactly one arc from each zone beside its line, so every
component is a path or a closed loop, and every tuple has exactly one arc
fewer than nodes: a tuple is connected iff no arc closes a loop.  After
zones 1..i, every node left of line L_i except node 0 has degree 2, so the
path ends are node 0 and the nodes on L_i.  The line state records, for
each node on L_i, where the other end of its path (its mate) is: the
mate's position on L_i plus one, or 0 when the mate is node 0.
Prefixes that share a line state have the same futures, so the walk is a
forward pass that keeps {line state: number of prefixes} and applies each
offset of the next zone once per state (the transfer matrix of I. Jensen,
"A transfer matrix approach to the enumeration of plane meanders",
J. Phys. A 33 (2000) 5953).  An arc (u, v) closes a loop iff
mate[u] == v; otherwise it joins two paths, and the outer ends become
mates: mate[mate[u]], mate[mate[v]] = mate[v], mate[u].  A closed loop
never opens again, so such a transition is dead.

Because the state names no node outside its own line, a zone's
transition depends only on (s_{i-1}, s_i) and the state on L_{i-1}, not on
the zone's place in the s-vector nor on the rest of the s-vector: its arcs
at each offset are the arc rules applied to those two lines, and they
touch no other node.  So the transitions are memoised as
{(s_{i-1}, s_i): {state: per offset, the state on L_i, or None where a
loop closes}}: each zone shape's arcs are built once per call and
process, in a local frame, and a state's transitions are made the first
time the walk looks it up, applying the a straight arcs that offsets a
and above share once, not once per offset.  Sharing them between
s-vectors gives each s-vector exactly the counts it gets alone.

The walk runs on line states up to the vertical mirror (coords.sym_v),
which reflects each line and maps offset a of a zone's R offsets to
R - 1 - a.  So a state's mirror twin steps, offset for offset in reverse,
to the twins of the state's next states.  Every next state is stored as
the lesser of itself and its twin, and the walk keeps one count for each
such pair: both twins send their prefixes to the same canonical states,
and the final sum is the plain count.  The quotient roughly halves the
states the walk and the memo hold.  States are bytes while the line has
fewer than 256 nodes and tuples beyond; next states are interned.  In
the calling process the memo shared by work units lives for one
count_table or count_actual call: a fresh one is bound when the call
starts and dropped when it ends.  A pool worker inherits the memo bound
when it forks and keeps filling it for as long as its pool lives, across
calls: every entry is exact for any s-vector, so counts stay exact, and
the cost is the memory an idle worker holds.  count_for_s_vector uses a
fresh memo.

tuples_examined is the size of the tuple space the pass covers, the
product of the walked zones' offset counts (count_a_tuples(sv)), derived
rather than tallied: every tuple is covered exactly once, either reaching
L_n or dying with the first prefix of it whose arcs close a loop.

Optional pruning, off by default, enumerates s-vectors up to reversal
and counts each non-palindromic one twice (tuple reversal is a
connectivity-preserving bijection between the two orientations).
Pruned and plain mode must agree; that equality is enforced by tests, not
assumed.  Both walk the mirror quotient, so tests also check each stored
transition, and its twin's, against a step through every arc.  In pruned mode
tuples_examined counts the offset tuples up to the mirror,
(count_a_tuples(sv) + 1) // 2: a mirror pair counts once, and the central
tuple, present when every offset range is odd, is its own.

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
lock on the file, and a merge holds it from its last read of the target
through the rename; worker processes never touch the file.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import shutil
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import IO, Callable, Iterable

from .coords import SVector, a_range_size, enumerate_s_vectors
from .diagram import zone_arc_pairs

ENGINE_VERSION = "braidcensus-1"

MODE_PLAIN = "plain"
MODE_PRUNED = "pruned"

_DECODER = json.JSONDecoder()

# (n, k) -> (g, mode, elapsed_ms, engine_version): a cache record as loaded
_Rows = dict[tuple[int, int], tuple[int, str, int, str]]
# a line state: per node on the line, its mate's position on the line plus
# one, or 0 for node 0; bytes while the line has fewer than 256 nodes
_State = bytes | tuple[int, ...]
# a scanned file's stat, (line number, bytes) of a torn final line, unterminated
_Scan = tuple[os.stat_result, tuple[int, int] | None, bool]


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

    def as_dict(self) -> dict:
        """The fields in their printed order, as the CLI writes them."""
        return {
            "n": self.n,
            "k": self.k,
            "g": self.g,
            "mode": self.mode,
            "engine_version": self.engine_version,
            "elapsed_ms": self.elapsed_ms,
            "tuples_examined": self.tuples_examined,
        }

    def to_json(self) -> str:
        """One cache line: as_dict without tuples_examined."""
        row = self.as_dict()
        del row["tuples_examined"]
        return json.dumps(row)


def _arc_table(bl: int, br: int, sl: int, sr: int) -> list[list[tuple[int, int]]]:
    """Arc pairs of one zone per offset, with its lines' first nodes at bl, br."""
    return [zone_arc_pairs(bl, br, sl, sr, a) for a in range(a_range_size(sl, sr))]


def _mirror(s: int) -> Callable[[_State], _State]:
    """The vertical mirror of states on a line of 2s+1 nodes.

    Position p goes to 2s - p, so a mate value m > 0 (position m - 1)
    becomes 2s + 2 - m, and node 0's 0 stays.  An involution.
    """
    top = 2 * s + 2
    if top <= 256:
        table = bytes([0, *range(top - 1, 0, -1), *range(top, 256)])
        return lambda state: state[::-1].translate(table)
    return lambda state: tuple(m and top - m for m in reversed(state))


class _Zone(dict):
    """The transitions of one zone shape (s_{i-1}, s_i) on canonical line
    states: {state on L_{i-1}: per offset, the canonical state on L_i, or
    None where an arc closes a loop}.

    The shape's arcs are built once, in a local frame: node 0, then L_i's
    nodes at 1 .. 2sr+1, then L_{i-1}'s.  A node on L_i then has its
    position plus one as its index, so the mates of L_i's nodes are the
    next state as they stand.  Looking up a state not seen yet steps it and
    stores its transitions: offset a's arcs start with the same a straight
    arcs as every larger offset's, so straight arc a is applied once to a
    running base, and each offset copies that base and applies only its
    own remaining arcs.  Each next state is stored as the lesser of itself
    and its vertical mirror twin (coords.sym_v), so a walk that starts on
    a canonical state meets only canonical ones.
    """

    def __init__(self, sl: int, sr: int, states: dict[_State, _State]) -> None:
        super().__init__()
        self.left = 2 * sr + 2
        self.intern = intern = states.setdefault
        self.twin = _mirror(sr)
        # arc pairs are interned with the states, since the shapes share
        # them: count_table(4, 28) holds 103,055 arcs but 1,639 distinct
        # pairs, and a tuple per arc raised its peak memory by 7 MB
        self.pairs = [tuple(map(intern, arcs, arcs)) for arcs in _arc_table(self.left, 1, sl, sr)]

    def __missing__(self, line: _State) -> tuple[_State | None, ...]:
        left, pairs, twin = self.left, self.pairs, self.twin
        pack = bytes if left <= 256 else tuple
        base = list(range(left))
        base += [m and m + left - 1 for m in line]
        base[0] = line.index(0) + left
        out: list[_State | None] = []
        for a, arcs in enumerate(pairs):
            if a:  # straight arc a, the last of the prefix that offsets a and above share
                # it is the first arc at its L_i end v, so v is still its own
                # mate: the arc never closes a loop, and base[v] is v
                u, v = arcs[a - 1]
                mu = base[u]
                base[mu] = v
                base[v] = mu
            mate = base.copy()
            for u, v in arcs[a:]:
                mu = mate[u]
                if mu == v:
                    out.append(None)  # u and v end one path: this arc closes a loop
                    break
                mv = mate[v]
                mate[mu] = mv
                mate[mv] = mu
            else:
                state = pack(mate[1:left])
                state = min(state, twin(state))
                out.append(self.intern(state, state))
        nexts = self[line] = tuple(out)
        return nexts


class _Transitions(dict):
    """Zone transitions on relative line states, valid for every s-vector:
    {(s_{i-1}, s_i): that shape's _Zone}, each made on its first lookup.

    states interns the states the zones hold and their arc pairs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.states: dict[_State, _State] = {}

    def __missing__(self, shape: tuple[int, int]) -> _Zone:
        zone = self[shape] = _Zone(*shape, self.states)
        return zone


# transitions shared by the s-vectors of one census call (see _count_rows);
# every entry is exact for any s-vector, so calls that overlap in one
# process, sharing it or replacing it, still get exact counts
_MEMO = _Transitions()


def _walk(interior: tuple[int, ...], memo: _Transitions) -> tuple[int, int]:
    """(connected count, tuples examined) for the s-vector with this interior.

    A forward pass over canonical line states (see the module docstring):
    each offset of a zone is applied once per state, weighted by the number
    of prefixes that reach the state or its mirror twin, and the
    transitions come from memo.  A transition that closes a loop is dead.
    """
    s = (0, *interior, 0)
    tuples = 1
    # L_0's one node is node 0 itself; its state treats it as a path to a
    # separate node 0, a pendant end that closes no loop, and is its own twin
    states: dict[_State, int] = {b"\0": 1}  # {canonical line state: prefixes}
    for shape in zip(s, s[1:]):
        zone = memo[shape]
        tuples *= len(zone.pairs)
        following: dict[_State, int] = {}
        for line, c in states.items():
            for state in zone[line]:
                if state is not None:
                    following[state] = following.get(state, 0) + c
        states = following
    return sum(states.values()), tuples


def count_for_s_vector(sv: SVector) -> int:
    """Connected offset tuples over one s-vector, walked alone with a fresh memo."""
    return _walk(sv.s, _Transitions())[0]


def _worker(unit: tuple[tuple[int, ...], bool, int]) -> tuple[int, int]:
    """(weighted count, tuples examined) of one work unit.

    A mirror unit, one of a pruned census, reports the offset tuples up to
    the mirror as examined, (count_a_tuples(sv) + 1) // 2.
    """
    interior, mirror, weight = unit
    actual, examined = _walk(interior, _MEMO)
    return actual * weight, (examined + 1) // 2 if mirror else examined


def default_threads() -> int:
    """Worker count: CENSUS_THREADS when set, else the number of CPUs this
    process may run on (its affinity mask where the platform has one, so a
    taskset or cpuset limit is respected, else the CPU count)."""
    env = os.environ.get("CENSUS_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"CENSUS_THREADS must be an integer >= 1, got {env!r}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work_units(n: int, k: int, prune: bool) -> Iterable[tuple[tuple[int, ...], bool, int]]:
    for sv in enumerate_s_vectors(n, k):
        reverse = sv.s[::-1]
        if prune and sv.s > reverse:
            continue  # its reversal is enumerated instead
        yield (sv.s, prune, 2 if prune and sv.s != reverse else 1)


ProgressFn = Callable[[int, int, tuple[int, ...]], None]

# the worker pool this process keeps for _count_rows, and (pid of the
# process that made it, its width); taken, replaced, submitted to and shut
# down only under _POOL_LOCK
_pool: ProcessPoolExecutor | None = None
_pool_key = (0, 0)
_POOL_LOCK = threading.Lock()


def _kept_pool(width: int) -> ProcessPoolExecutor:
    """The kept pool, forked first when there is none or the kept one has
    another width or was made by a parent process.  Hold _POOL_LOCK."""
    global _pool, _pool_key
    key = (os.getpid(), width)
    if _pool is not None and _pool_key != key:
        if _pool_key[0] == key[0]:  # a forked child cannot shut its parent's pool down
            _pool.shutdown()
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(
            max_workers=width,
            # Ctrl-C reaches every process in the group; the caller
            # handles it and shuts the pool down, so workers ignore it
            initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN),
        )
        _pool_key = key
    return _pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut pool down, and stop keeping it if it is kept.  Hold _POOL_LOCK."""
    global _pool
    if pool is _pool:
        _pool = None
    pool.shutdown()


def _count_rows(
    n: int,
    ks: Iterable[int],
    threads: int | None,
    prune: bool,
    cache: "CensusCache | None",
    progress: ProgressFn | None,
) -> list[CensusRecord]:
    """Census rows for n and each k, from one ordered map over their units."""
    global _MEMO
    mode = MODE_PRUNED if prune else MODE_PLAIN
    workers = threads if threads is not None else default_threads()
    if workers < 1:
        raise ValueError(f"thread count must be >= 1, got {workers}")
    hits = {k: cache.lookup(n, k) if cache is not None else None for k in ks}
    rows = {k: list(_work_units(n, k, prune)) for k, hit in hits.items() if hit is None}
    widest = max(map(len, rows.values()), default=0)
    units = [unit for row in rows.values() for unit in row]
    pool = pooled = None
    keep = False
    records = []
    _MEMO = _Transitions()  # workers a pool forks below inherit it as it is then
    try:
        if workers > 1 and widest > 1:
            width = min(workers, widest)
            # sized by the widest row, not by all units: no chunk is coarser
            # than that row's would be alone, so neither Ctrl-C latency nor
            # the gap between progress reports grows with the table
            chunksize = max(1, widest // (8 * workers))
            with _POOL_LOCK:
                pool = _kept_pool(width)
                try:
                    pooled = pool.map(_worker, units, chunksize=chunksize)
                except BrokenProcessPool:  # a worker died while the pool was idle
                    _drop_pool(pool)
                    pool = _kept_pool(width)
                    pooled = pool.map(_worker, units, chunksize=chunksize)
            results = pooled
        else:
            results = map(_worker, units)
        started = time.perf_counter()
        for k, record in hits.items():
            if record is None:
                row = rows[k]
                total = examined = 0
                # row first: zip stops at its end without taking the next row's result
                for done, (unit, (part, part_examined)) in enumerate(zip(row, results), 1):
                    total += part
                    examined += part_examined
                    if progress is not None:
                        progress(done, len(row), unit[0])
                elapsed_ms = int((time.perf_counter() - started) * 1000)
                record = CensusRecord(n, k, total, mode, elapsed_ms, tuples_examined=examined)
                if cache is not None:
                    cache.add(record)
                started = time.perf_counter()
            records.append(record)
        # a process that multiprocessing started waits for its children
        # before it exits, but nothing tells a kept pool's workers to stop
        # there (interpreter exit does that in any other process)
        keep = multiprocessing.parent_process() is None
    finally:
        _MEMO = _Transitions()
        if pool is not None and not keep:  # raised, or must not keep it
            if pooled is not None:
                pooled.close()  # cancels this call's chunks that no worker has taken
            with _POOL_LOCK:
                _drop_pool(pool)
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


def _scan_rows(fh: IO[str], path: str, rows: _Rows) -> _Scan:
    """Add the records of the open, locked cache file fh, named path, to rows.

    A record whose (n, k) is already in rows must agree on g, and the row
    already there is kept.  The caller words the warning about a torn
    final line, since only it knows whether it rewrites the file.
    """
    fh.seek(0)
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
                return os.fstat(fh.fileno()), (lineno, len(raw.encode("utf-8"))), False
            raise CacheConflictError(
                f"{path}:{lineno}: unreadable record: {exc}"
            ) from exc
        existing = rows.setdefault(key, row)
        if existing[0] != row[0]:
            raise CacheConflictError(
                f"{path}:{lineno}: g({key[0]},{key[1]}) = {row[0]} "
                f"conflicts with stored value {existing[0]}"
            )
    return os.fstat(fh.fileno()), None, raw != "" and not raw.endswith("\n")


def _read_rows(path: str, rows: _Rows) -> _Scan:
    """_scan_rows under a shared lock: a writer's append is seen whole or not at all."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)
        return _scan_rows(fh, path, rows)


def _warn_torn(path: str, torn: tuple[int, int], outcome: str) -> None:
    message = f"{path}:{torn[0]}: ignoring incomplete final record ({torn[1]} bytes)"
    print(f"warning: {message}; {outcome}", file=sys.stderr)


def _open_locked(path: str) -> IO[str]:
    """Open path to read and append (made if missing) under LOCK_EX, retrying
    while a merge renames a new file onto path during the wait."""
    while True:
        fh = open(path, "a+", encoding="utf-8", newline="\n")
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
        try:
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(path)):
                return fh
        except FileNotFoundError:
            pass
        fh.close()


def _stamp_of(st: os.stat_result) -> tuple[int, int, int]:
    """(device, inode, size): changes when a file is appended to, cut or replaced."""
    return st.st_dev, st.st_ino, st.st_size


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
    add.  An unreadable line anywhere else is a hard error.  An absent file
    in an existing directory is an empty cache; any other path open refuses
    (a missing directory, a regular file on it) raises open's OSError at once.

    Several handles, in one process or many, may add to one file: add
    holds an exclusive lock around its append.  If the file is not the
    file, at the size, that this handle last read or wrote with a clean
    tail, add first reads it again under that lock: a record another
    writer added since is kept (or conflicts) instead of being written
    twice, and the tail is mended (the torn line cut, or the last
    record's line ended) as that read found it.
    """

    def __init__(self, path: str):
        self.path = path
        self._rows: _Rows = {}
        # the file as this handle last read or wrote it with a clean tail
        self._stamp: tuple[int, int, int] | None = None
        try:
            st, torn, unterminated = _read_rows(path, self._rows)
        except FileNotFoundError:
            if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise  # fail now, not at the first add after a census has run
            return
        if torn is not None:
            _warn_torn(path, torn, "the next write removes it")
        elif not unterminated:
            self._stamp = _stamp_of(st)

    def lookup(self, n: int, k: int) -> CensusRecord | None:
        row = self._rows.get((n, k))
        return None if row is None else CensusRecord(n, k, *row)

    def add(self, record: CensusRecord) -> None:
        key = (record.n, record.k)
        row = (record.g, record.mode, record.elapsed_ms, record.engine_version)
        existing = self._rows.get(key)
        if existing is None:
            with _open_locked(self.path) as fh:
                st, torn, unterminated = os.fstat(fh.fileno()), None, False
                if _stamp_of(st) != self._stamp:  # not as this handle last saw it
                    st, torn, unterminated = _scan_rows(fh, self.path, self._rows)
                    existing = self._rows.get(key)
                if existing is None:
                    line = record.to_json() + "\n"
                    if torn is not None:
                        fh.truncate(st.st_size - torn[1])
                    elif unterminated:
                        line = "\n" + line
                    fh.write(line)
                    fh.flush()
                    self._rows[key] = row
                    self._stamp = _stamp_of(os.fstat(fh.fileno()))
                    return
        if existing[0] != record.g:
            raise CacheConflictError(
                f"new result g({record.n},{record.k}) = {record.g} "
                f"conflicts with cached value {existing[0]}"
            )

    def records(self) -> list[CensusRecord]:
        return _as_records(self._rows)


def merge_caches(target_path: str, source_paths: list[str]) -> int:
    """Union several cache files into target; conflicts are hard errors.

    Returns the number of records in the merged store.  The target, then
    each source, is read (so a conflict names the source line); a missing
    target reads as empty, and a missing source raises FileNotFoundError
    before the target is touched.  Under the
    lock add takes, the target is read again for records appended since,
    and the merged records, sorted, go to a synced temporary file that is
    renamed onto the target.  An add that waits for the lock appends to the
    merged file; a failure leaves the target as it was, or missing.  One
    lock at a time is held, so merges into each other cannot deadlock.
    """
    rows: _Rows = {}
    if os.path.exists(target_path):
        _read_rows(target_path, rows)
    for path in source_paths:
        torn = _read_rows(path, rows)[1]  # a missing source raises FileNotFoundError
        if torn is not None:
            _warn_torn(path, torn, "merge leaves the source as it is")
    directory, name = os.path.split(os.path.abspath(target_path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    existed = os.path.exists(target_path)
    with _open_locked(target_path) as target:
        try:
            torn = _scan_rows(target, target_path, rows)[1]
            if torn is not None:
                _warn_torn(target_path, torn, "the next write removes it")
            records = _as_records(rows)
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(record.to_json() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            shutil.copymode(target_path, tmp)
            os.replace(tmp, target_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            if not existed and os.fstat(target.fileno()).st_size == 0:
                os.unlink(target_path)  # made by _open_locked above
            raise
    return len(records)
