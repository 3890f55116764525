import json
import os
import sys

import pytest

from braidcensus import census, coords
from braidcensus.census import (
    CacheConflictError,
    CensusCache,
    CensusRecord,
    count_actual,
    count_for_s_vector,
    count_table,
    merge_caches,
    table_csv,
)
from braidcensus.closedform import g2, g3_totient
from braidcensus.coords import SVector, enumerate_a_tuples, enumerate_s_vectors, interior_rows
from braidcensus.diagram import is_actual
from braidcensus.perms import c_pair


def brute_count(sv: SVector) -> int:
    return sum(1 for c in enumerate_a_tuples(sv) if is_actual(c))


class TestCountForSVector:
    def test_two_strand_vectors(self):
        for k in range(1, 12):
            assert count_for_s_vector(SVector(n=2, s=(k,))) == 2

    def test_all_zero_vector(self):
        assert count_for_s_vector(SVector(n=5, s=(0, 0, 0, 0))) == 1

    def test_matches_pair_counts(self):
        for k in range(9):
            for ell in range(9):
                assert count_for_s_vector(SVector(n=3, s=(k, ell))) == c_pair(k, ell)

    def test_matches_diagram_brute_force(self, rng):
        # both paths take their arcs from diagram.zone_arc_pairs; what is
        # independent is the connectivity (the census's mate-array pass
        # against the graph's union-find), and they must agree on every
        # s-vector
        for _ in range(60):
            n = rng.randint(1, 6)
            k = rng.randint(0, 7) if n > 1 else 0
            svs = list(enumerate_s_vectors(n, k))
            sv = svs[rng.randrange(len(svs))]
            assert count_for_s_vector(sv) == brute_count(sv), sv

    def test_reversal_symmetry(self, rng):
        for _ in range(80):
            n = rng.randint(2, 6)
            k = rng.randint(0, 9)
            svs = list(enumerate_s_vectors(n, k))
            sv = svs[rng.randrange(len(svs))]
            rev = SVector(n=n, s=sv.s[::-1])
            assert count_for_s_vector(sv) == count_for_s_vector(rev)


class TestCountActual:
    def test_k_zero_is_one_for_any_n(self):
        for n in range(1, 7):
            assert count_actual(n, 0, threads=1).g == 1

    def test_k_zero_on_many_strands(self):
        assert count_actual(1000, 0, threads=1).g == 1

    def test_single_strand(self):
        assert count_actual(1, 0, threads=1).g == 1
        assert count_actual(1, 3, threads=1).g == 0

    def test_two_strand_closed_form(self):
        for k in range(61):
            assert count_actual(2, k, threads=1).g == g2(k)

    def test_three_strand_spot_value(self):
        from braidcensus.coords import count_a_tuples

        record = count_actual(3, 5, threads=1)
        assert record.g == g3_totient(5) == 28
        assert record.mode == "plain"
        virtual = sum(count_a_tuples(sv) for sv in enumerate_s_vectors(3, 5))
        assert record.tuples_examined == virtual == 88

    def test_four_strand_small_values(self):
        # k = 1: one tuple per generator and inverse; k = 2, 3 assembled
        # by hand from the two- and three-strand counts over split
        # s-vectors plus the kernel for the all-positive vector
        assert count_actual(4, 1, threads=1).g == 6
        assert count_actual(4, 2, threads=1).g == 22
        assert count_actual(4, 3, threads=1).g == 56

    def test_pruned_equals_plain_small(self):
        for n in range(1, 5):
            for k in range(9):
                plain = count_actual(n, k, threads=1, prune=False)
                pruned = count_actual(n, k, threads=1, prune=True)
                assert plain.g == pruned.g, (n, k)
                assert pruned.mode == "pruned"
                if n >= 2 and k >= 1:
                    assert pruned.tuples_examined < plain.tuples_examined

    def test_thread_count_does_not_change_result(self):
        want = count_actual(3, 6, threads=1).g
        assert count_actual(3, 6, threads=2).g == want
        assert count_actual(3, 6, threads=3, prune=True).g == want

    def test_progress_callback(self):
        seen = []
        count_actual(3, 4, threads=1, progress=lambda done, total, s: seen.append((done, total, s)))
        assert [s for _, _, s in seen] == [sv.s for sv in enumerate_s_vectors(3, 4)]
        assert seen[-1][0] == seen[-1][1] == 5

    def test_input_validation(self):
        with pytest.raises(ValueError):
            count_actual(0, 1)
        with pytest.raises(ValueError):
            count_actual(2, -1)
        with pytest.raises(ValueError):
            count_actual(2, 1, threads=0)


class TestTable:
    def test_matches_closed_form(self):
        records = count_table(3, 8, threads=1)
        assert [r.g for r in records] == [g3_totient(k) for k in range(9)]

    def test_csv_export(self):
        records = count_table(2, 3, threads=1)
        assert table_csv(records) == "n,k,g\n2,0,1\n2,1,2\n2,2,2\n2,3,2\n"


class TestWorkUnits:
    def test_pruned_units_keep_one_orientation(self, monkeypatch):
        # the inline map calls the module's _worker, so this sees every unit
        received = []
        worker = census._worker

        def recording(interior):
            received.append(interior)
            return worker(interior)

        monkeypatch.setattr(census, "_worker", recording)
        for n in range(1, 7):
            plain = [s for row in interior_rows(n, range(9)).values() for s in row]
            for prune, want in ((False, plain), (True, [s for s in plain if s <= s[::-1]])):
                received.clear()
                count_table(n, 8, threads=1, prune=prune)
                assert received == want, (n, prune)

    def test_census_builds_no_svector(self, monkeypatch):
        def run():
            out = []
            for prune in (False, True):
                calls = []
                records = count_table(
                    5, 6, threads=1, prune=prune, progress=lambda *p: calls.append(p)
                )
                out.append(([r.g for r in records], calls))
            calls = []
            record = count_actual(4, 3, threads=2, progress=lambda *p: calls.append(p))
            out.append(([record.g], calls))
            return out

        want = run()
        assert want[0][0] == want[1][0] and want[2][0] == [56]
        assert [s for _, _, s in want[2][1]] == [sv.s for sv in enumerate_s_vectors(4, 3)]

        def refuse(self):
            raise AssertionError(f"the census built {self!r}")

        monkeypatch.setattr(coords.SVector, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            SVector(n=2, s=(1,))
        assert run() == want

    def test_only_missed_rows_are_built(self, monkeypatch, tmp_path):
        asked = []

        def recording(n, ks):
            asked.append((n, list(ks)))
            return interior_rows(n, ks)

        monkeypatch.setattr(census, "interior_rows", recording)
        path = str(tmp_path / "c.jsonl")
        for k in (2, 4):
            count_actual(4, k, threads=1, cache=CensusCache(path))
        partial = count_table(4, 5, threads=1, cache=CensusCache(path))
        full = count_table(4, 5, threads=1, cache=CensusCache(path))
        assert asked == [(4, [2]), (4, [4]), (4, [0, 1, 3, 5]), (4, [])]
        assert [r.g for r in partial] == [r.g for r in full] == [1, 6, 22, 56, 116, 206]


class TestCache:
    def test_round_trip_and_reuse(self, tmp_path):
        path = str(tmp_path / "census.jsonl")
        cache = CensusCache(path)
        first = count_actual(2, 4, threads=1, cache=cache)
        assert first.g == 2
        # a fresh handle reads the record back and short-circuits the count
        reopened = CensusCache(path)
        hit = count_actual(2, 4, threads=1, cache=reopened)
        assert hit.g == 2
        assert hit.engine_version == first.engine_version
        assert hit.tuples_examined is None  # loaded, not recomputed

    def test_record_json_keys(self):
        record = CensusRecord(n=2, k=1, g=2, mode="plain", elapsed_ms=7)
        obj = json.loads(record.to_json())
        assert set(obj) == {"n", "k", "g", "mode", "engine_version", "elapsed_ms"}

    def test_conflict_is_hard_error(self, tmp_path):
        path = str(tmp_path / "census.jsonl")
        cache = CensusCache(path)
        cache.add(CensusRecord(n=2, k=1, g=2, mode="plain", elapsed_ms=0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"n": 2, "k": 1, "g": 99, "mode": "plain", "elapsed_ms": 0}\n')
        with pytest.raises(CacheConflictError):
            CensusCache(path)

    def test_add_conflict(self, tmp_path):
        cache = CensusCache(str(tmp_path / "c.jsonl"))
        cache.add(CensusRecord(n=2, k=1, g=2, mode="plain", elapsed_ms=0))
        with pytest.raises(CacheConflictError):
            cache.add(CensusRecord(n=2, k=1, g=3, mode="plain", elapsed_ms=0))

    def test_duplicate_agreeing_lines_are_fine(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        line = '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line + line)
        assert len(CensusCache(path).records()) == 1

    def test_merge(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        cache_a = CensusCache(a)
        count_actual(2, 0, threads=1, cache=cache_a)
        count_actual(2, 1, threads=1, cache=cache_a)
        cache_b = CensusCache(b)
        count_actual(2, 1, threads=1, cache=cache_b)
        count_actual(3, 2, threads=1, cache=cache_b)
        total = merge_caches(a, [b])
        assert total == 3
        merged = CensusCache(a)
        assert merged.lookup(3, 2).g == g3_totient(2)

    def test_a_path_open_refuses_raises_its_error(self, tmp_path):
        (tmp_path / "file").write_text("x", encoding="utf-8")
        with pytest.raises(NotADirectoryError):
            CensusCache(str(tmp_path / "file" / "c.jsonl"))
        with pytest.raises(FileNotFoundError):
            CensusCache(str(tmp_path / "missing" / "c.jsonl"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_an_absent_file_is_an_empty_cache_until_the_first_add(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CensusCache(str(path))
        assert cache.records() == [] and not path.exists()
        cache.add(CensusRecord(n=2, k=1, g=2, mode="plain", elapsed_ms=0))
        assert [r.g for r in CensusCache(str(path)).records()] == [2]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_resume_partial_table(self, tmp_path, threads):
        path = str(tmp_path / "c.jsonl")
        cache = CensusCache(path)
        count_actual(3, 2, threads=1, cache=cache)
        # resuming a table reuses the stored row and fills in the rest
        records = count_table(3, 4, threads=threads, cache=CensusCache(path))
        assert [r.g for r in records] == [g3_totient(k) for k in range(5)]
        assert len(CensusCache(path).records()) == 5


def test_default_threads_env(monkeypatch):
    from braidcensus.census import default_threads

    monkeypatch.setenv("CENSUS_THREADS", "7")
    assert default_threads() == 7
    monkeypatch.setenv("CENSUS_THREADS", "0")
    with pytest.raises(ValueError):
        default_threads()
    monkeypatch.delenv("CENSUS_THREADS")
    assert default_threads() >= 1


def test_default_threads_counts_the_cpus_this_process_may_run_on(monkeypatch):
    from braidcensus.census import default_threads

    monkeypatch.delenv("CENSUS_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_threads() == 1


class TestWalker:
    GRID = [(4, 10), (5, 8), (6, 6)]

    def test_every_tuple_has_one_arc_fewer_than_nodes(self):
        # the dead-prefix rule rests on this: a tuple is connected iff no
        # arc joins two nodes that are already joined
        from itertools import product

        from braidcensus.census import _arc_table
        from braidcensus.diagram import line_bases

        for n in range(1, 6):
            for k in range(5):
                for sv in enumerate_s_vectors(n, k):
                    s = sv.full()
                    bases = line_bases(s)
                    tables = [
                        _arc_table(bl, br, sl, sr)
                        for bl, br, sl, sr in zip(bases, bases[1:], s, s[1:])
                    ]
                    node_count = bases[-1]
                    for choice in product(*tables):
                        assert sum(map(len, choice)) == node_count - 1, sv

    def test_each_zone_shape_builds_its_arcs_once(self, monkeypatch):
        # a zone's arcs depend only on its shape (s_{i-1}, s_i), so one
        # census call builds them once per shape, whichever s-vectors and
        # line states meet it
        from braidcensus import census

        built = []
        real = census._arc_table

        def counting_arc_table(bl, br, sl, sr):
            built.append((sl, sr))
            return real(bl, br, sl, sr)

        monkeypatch.setattr(census, "_arc_table", counting_arc_table)
        count_table(4, 10, threads=1)
        shapes = {
            shape
            for k in range(11)
            for sv in enumerate_s_vectors(4, k)
            for shape in zip(sv.full(), sv.full()[1:])
        }
        assert sorted(built) == sorted(shapes)

    def test_plain_examines_whole_space_and_agrees_with_pruned(self):
        from braidcensus.coords import count_a_tuples

        for n, kmax in self.GRID:
            for k in range(kmax + 1):
                plain = count_actual(n, k, threads=1)
                pruned = count_actual(n, k, threads=1, prune=True)
                virtual = sum(map(count_a_tuples, enumerate_s_vectors(n, k)))
                assert plain.tuples_examined == virtual, (n, k)
                assert plain.g == pruned.g, (n, k)
                # one representative per mirror pair, over s-vectors up to reversal
                assert pruned.tuples_examined == sum(
                    (count_a_tuples(sv) + 1) // 2
                    for sv in enumerate_s_vectors(n, k)
                    if sv.s <= sv.s[::-1]
                ), (n, k)


def _drop_kept_pool():
    from braidcensus import census

    with census._POOL_LOCK:
        if census._pool is not None:
            census._drop_pool(census._pool)


@pytest.fixture()
def pool_events(monkeypatch):
    """Every construction and shutdown of a census worker pool, in order.

    The test starts with no kept pool, and the pool it leaves is shut down.
    """
    from concurrent.futures import ProcessPoolExecutor

    from braidcensus import census

    events = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            events.append(("made", kwargs.get("max_workers")))
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            events.append(("shutdown",))
            super().shutdown(*args, **kwargs)

    _drop_kept_pool()
    monkeypatch.setattr(census, "ProcessPoolExecutor", CountingPool)
    yield events
    _drop_kept_pool()


def _dying_worker(unit):
    import multiprocessing

    if multiprocessing.parent_process() is None:
        raise AssertionError("ran in the calling process, not in a pool")
    os._exit(1)  # the worker process dies without a word


def _count_in_child(queue):
    queue.put(count_actual(4, 3, threads=2).g)


class TestTablePool:
    def test_one_pool_for_a_multi_row_table(self, pool_events):
        records = count_table(4, 6, threads=2)
        again = count_table(4, 6, threads=2)
        assert pool_events == [("made", 2)]
        serial = [r.g for r in count_table(4, 6, threads=1)]
        assert [r.g for r in records] == [r.g for r in again] == serial

    def test_no_pool_with_one_worker(self, pool_events):
        count_table(4, 6, threads=1)
        assert pool_events == []

    def test_no_pool_on_an_all_hit_cache(self, pool_events, tmp_path):
        path = str(tmp_path / "c.jsonl")
        want = count_table(4, 5, threads=1, cache=CensusCache(path))
        got = count_table(4, 5, threads=2, cache=CensusCache(path))
        assert pool_events == []
        assert [r.g for r in got] == [r.g for r in want]

    def test_no_pool_when_every_row_is_one_unit(self, pool_events):
        count_table(2, 8, threads=2)
        assert pool_events == []

    def test_table_callers_fork_once_per_table(self, pool_events):
        # the pool is forked once for all of these tables, not once each
        from braidcensus import analysis, verify

        analysis.bounds_table(4, 6, with_census=True, threads=2)
        analysis.ratio_series(4, 6, threads=2)
        # one plain and one pruned table for each n in 3..5; n <= 2 rows
        # are single s-vectors and need no pool
        assert verify.run_suite("prune-consistency", kmax=4, threads=2)["ok"]
        assert pool_events == [("made", 2)]

    def test_a_call_of_another_width_replaces_the_pool(self, pool_events):
        for threads in (2, 3, 2):
            count_table(4, 6, threads=threads)
        assert pool_events == [
            ("made", 2), ("shutdown",), ("made", 3), ("shutdown",), ("made", 2)
        ]

    def test_pool_is_shut_down_when_a_row_raises(self, pool_events):
        def progress(done, total, s):
            if sum(s) == 3:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            count_table(4, 6, threads=2, progress=progress)
        assert pool_events == [("made", 2), ("shutdown",)]
        records = count_table(4, 6, threads=2)
        assert pool_events == [("made", 2), ("shutdown",), ("made", 2)]
        assert [r.g for r in records] == [r.g for r in count_table(4, 6, threads=1)]

    def test_a_dead_worker_leaves_the_next_call_a_working_pool(self, pool_events, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from braidcensus import census
        from braidcensus.coords import count_s_vectors

        with monkeypatch.context() as patch:
            patch.setattr(census, "_worker", _dying_worker)
            with pytest.raises(BrokenProcessPool):
                count_actual(4, 3, threads=2)
        assert count_actual(4, 3, threads=2).g == count_actual(4, 3, threads=1).g
        assert pool_events == [("made", 2), ("shutdown",), ("made", 2)]

    def test_a_pool_broken_while_idle_is_replaced(self, pool_events):
        import signal

        from braidcensus import census

        want = count_actual(4, 3, threads=1).g
        assert count_actual(4, 3, threads=2).g == want
        pool = census._pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        pool._executor_manager_thread.join(timeout=30)  # it marks the pool broken
        assert not pool._executor_manager_thread.is_alive()
        assert count_actual(4, 3, threads=2).g == want
        assert pool_events == [("made", 2), ("shutdown",), ("made", 2)]

    def test_a_forked_multiprocessing_child_counts_and_exits(self, pool_events):
        # the child inherits the parent's kept pool, which it cannot use, and
        # multiprocessing waits for the child's own workers before it exits
        import multiprocessing

        want = count_actual(4, 3, threads=2).g
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_count_in_child, args=(queue,))
        child.start()
        got = queue.get(timeout=60)
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert got == want
        assert pool_events == [("made", 2)]

    def test_threads_share_the_pool_and_keep_their_serial_rows(self, pool_events):
        import sys
        import threading

        grids = [(5, 8), (4, 12)]
        serial = [count_table(n, kmax, threads=1) for n, kmax in grids]
        results = {}

        def run(n, kmax):
            results[n, kmax] = count_table(n, kmax, threads=2)

        threads = [threading.Thread(target=run, args=grid) for grid in grids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the pool code too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for grid, expected in zip(grids, serial):
            rows = [(r.k, r.g, r.tuples_examined) for r in results[grid]]
            assert rows == [(r.k, r.g, r.tuples_examined) for r in expected], grid
        assert pool_events == [("made", 2)]

    @pytest.mark.parametrize("prune", [False, True])
    def test_progress_reports_every_row(self, prune):
        seen = []
        count_table(
            3, 3, threads=2, prune=prune, progress=lambda d, t, s: seen.append((d, t, s))
        )
        want = [
            sv.s
            for k in range(4)
            for sv in enumerate_s_vectors(3, k)
            if not prune or sv.s <= sv.s[::-1]
        ]
        assert [s for _, _, s in seen] == want
        assert [d for d, t, _ in seen if d == t] == ([1, 1, 2, 2] if prune else [1, 2, 3, 4])

    def test_pruned_table_sizes_its_pool_by_its_widest_pruned_row(self, pool_events):
        # up to reversal, k = 2 keeps only (0, 2) and (1, 1) of its three s-vectors
        records = count_table(3, 2, threads=8, prune=True)
        assert pool_events == [("made", 2)]
        assert [r.g for r in records] == [r.g for r in count_table(3, 2, threads=1)]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            count_table(0, 3)
        with pytest.raises(ValueError):
            count_table(3, -1)


class TestTornCache:
    LINE = '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'

    def test_torn_final_line_is_skipped_then_cut(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(self.LINE + '{"n": 2, "k": 2, "g"', encoding="utf-8")
        cache = CensusCache(str(path))
        assert "incomplete final record" in capsys.readouterr().err
        assert [(r.n, r.k) for r in cache.records()] == [(2, 1)]
        count_actual(2, 2, threads=1, cache=cache)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == self.LINE and len(lines) == 2
        assert json.loads(lines[1])["k"] == 2
        assert len(CensusCache(str(path)).records()) == 2
        assert capsys.readouterr().err == ""

    def test_unterminated_complete_final_line_is_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(self.LINE.rstrip("\n"), encoding="utf-8")
        cache = CensusCache(str(path))
        assert cache.lookup(2, 1).g == 2
        count_actual(2, 2, threads=1, cache=cache)
        assert len(CensusCache(str(path)).records()) == 2

    @pytest.mark.parametrize("bad", ['{"n": 2, "k": 2, "g"\n', '{"n": 2, "k": 2}\n'])
    def test_bad_middle_line_is_hard_error(self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        path.write_text(bad + self.LINE, encoding="utf-8")
        with pytest.raises(CacheConflictError, match="c.jsonl:1: unreadable record"):
            CensusCache(str(path))


class TestFrontierWalk:
    """The line-state pass against brute force and the tuple space."""

    SMALL = [sv for n in range(1, 6) for k in range(6) for sv in enumerate_s_vectors(n, k)]

    def test_plain_counts_and_examines_every_tuple(self):
        from braidcensus.census import _Transitions, _walk
        from braidcensus.coords import count_a_tuples

        assert len(self.SMALL) == 210
        for sv in self.SMALL:
            assert _walk(sv.s, _Transitions()) == (brute_count(sv), count_a_tuples(sv)), sv

    def test_mirror_examines_one_tuple_per_mirror_pair(self):
        from braidcensus.coords import count_a_tuples

        for n in range(1, 6):
            for k in range(6):
                row = list(enumerate_s_vectors(n, k))
                record = count_actual(n, k, threads=1, prune=True)
                assert record.g == sum(map(count_for_s_vector, row)), (n, k)
                # the offset mirror is an involution with at most one fixed
                # tuple, and an s-vector greater than its reversal is not walked
                assert record.tuples_examined == sum(
                    (count_a_tuples(sv) + 1) // 2 for sv in row if sv.s <= sv.s[::-1]
                ), (n, k)

    def test_last_two_zones_beside_a_one_node_line(self):
        # sl = 0 joins at a one-node L_{n-2} (for n = 2, L_0's own state),
        # and sr = 0 leaves the closing zone a single offset
        from braidcensus.census import _Transitions, _walk
        from braidcensus.coords import count_a_tuples

        svs = [SVector(n=2, s=(k,)) for k in range(9)]
        svs += [SVector(n=3, s=s) for k in range(1, 9) for s in ((0, k), (k, 0))]
        for sv in svs:
            assert _walk(sv.s, _Transitions()) == (brute_count(sv), count_a_tuples(sv)), sv

    def test_four_strands_at_sixty(self):
        # the join's longest row here: L_2 holds up to 121 nodes
        assert count_actual(4, 60, threads=2).g == 804140

    def test_six_strands_past_the_benchmark_table(self):
        # g(6, 12..14) lie past the benchmark's table; they were confirmed
        # once by enumerating prefixes one at a time, without merging
        records = count_table(6, 14, threads=2)
        assert [r.g for r in records[11:]] == [143116, 242658, 384126, 611772]


class TestAtomicMerge:
    LINE = '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'

    def test_failed_write_leaves_target_intact(self, tmp_path, monkeypatch):
        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        target.write_text(self.LINE, encoding="utf-8")
        cache = CensusCache(str(source))
        for k in range(4):
            count_actual(3, k, threads=1, cache=cache)
        before = target.read_bytes()
        real = CensusRecord.to_json
        written = []

        def failing_to_json(record):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(record)
            return real(record)

        monkeypatch.setattr(CensusRecord, "to_json", failing_to_json)
        with pytest.raises(OSError, match="disk full"):
            merge_caches(str(target), [str(source)])
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl", "t.jsonl"]

    def test_merge_into_missing_target(self, tmp_path):
        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        source.write_text(self.LINE, encoding="utf-8")
        assert merge_caches(str(target), [str(source)]) == 1
        assert target.read_text(encoding="utf-8") == (
            CensusCache(str(source)).lookup(2, 1).to_json() + "\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl", "t.jsonl"]


class TestCacheWriters:
    LINE = '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'

    @pytest.mark.parametrize(
        "text", [LINE + '{"n": 2, "k": 2, "g"', LINE.rstrip("\n")], ids=["torn", "unterminated"]
    )
    def test_two_handles_on_one_tail_keep_both_records(self, tmp_path, text):
        path = tmp_path / "c.jsonl"
        path.write_text(text, encoding="utf-8")
        first, second = CensusCache(str(path)), CensusCache(str(path))
        first.add(CensusRecord(n=2, k=2, g=2, mode="plain", elapsed_ms=0))
        second.add(CensusRecord(n=2, k=3, g=2, mode="plain", elapsed_ms=0))
        reopened = CensusCache(str(path))
        assert [(r.n, r.k) for r in reopened.records()] == [(2, 1), (2, 2), (2, 3)]
        # the tail is mended once: no blank line, no torn bytes
        assert all(json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())

    def test_add_waits_for_another_writer(self, tmp_path):
        import fcntl
        import threading

        path = tmp_path / "c.jsonl"
        path.write_text(self.LINE, encoding="utf-8")
        cache = CensusCache(str(path))
        record = CensusRecord(n=2, k=2, g=2, mode="plain", elapsed_ms=0)
        with open(path, "a", encoding="utf-8") as other:
            fcntl.flock(other, fcntl.LOCK_EX)
            writer = threading.Thread(target=cache.add, args=(record,))
            writer.start()
            writer.join(timeout=0.3)
            assert writer.is_alive()  # blocked on the lock
            assert path.read_text(encoding="utf-8") == self.LINE
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert CensusCache(str(path)).lookup(2, 2) == record

    def test_add_reopens_a_path_unlinked_while_it_waits(self, tmp_path, monkeypatch):
        # a failed merge into a target it made unlinks the path under the lock
        import fcntl
        import threading
        import time

        from braidcensus import census

        opened = []

        def counting_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if mode == "a+":
                opened.append(file)
            return fh

        monkeypatch.setattr(census, "open", counting_open, raising=False)
        path = tmp_path / "c.jsonl"
        path.write_text(self.LINE, encoding="utf-8")
        cache = CensusCache(str(path))
        record = CensusRecord(n=2, k=2, g=2, mode="plain", elapsed_ms=0)
        with open(path, "a", encoding="utf-8") as other:
            fcntl.flock(other, fcntl.LOCK_EX)
            writer = threading.Thread(target=cache.add, args=(record,))
            writer.start()
            deadline = time.monotonic() + 10
            while not opened and time.monotonic() < deadline:
                time.sleep(0.01)
            assert opened == [str(path)] and writer.is_alive()  # holds the old file
            path.unlink()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert opened == [str(path), str(path)]  # the retry opened a new file
        assert path.read_text(encoding="utf-8") == record.to_json() + "\n"

    def test_handle_opened_before_a_merge_does_not_append_a_duplicate(self, tmp_path):
        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        target.write_text("", encoding="utf-8")
        source.write_text(self.LINE, encoding="utf-8")
        stale = CensusCache(str(target))
        merge_caches(str(target), [str(source)])
        stale.add(CensusRecord(n=2, k=1, g=2, mode="plain", elapsed_ms=0))
        assert len(target.read_text(encoding="utf-8").splitlines()) == 1
        assert stale.lookup(2, 1).engine_version == "unknown"  # the merged record

    def test_stale_handle_conflict_writes_nothing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first, second = CensusCache(str(path)), CensusCache(str(path))
        first.add(CensusRecord(n=3, k=1, g=4, mode="plain", elapsed_ms=0))
        before = path.read_bytes()
        with pytest.raises(CacheConflictError, match=r"g\(3,1\) = 5 conflicts with cached value 4"):
            second.add(CensusRecord(n=3, k=1, g=5, mode="plain", elapsed_ms=0))
        assert path.read_bytes() == before
        assert CensusCache(str(path)).lookup(3, 1).g == 4

    def test_merge_conflict_names_the_source_line(self, tmp_path):
        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        target.write_text(self.LINE, encoding="utf-8")
        source.write_text(
            self.LINE.replace('"k": 1', '"k": 0') + self.LINE.replace('"g": 2', '"g": 3'),
            encoding="utf-8",
        )
        with pytest.raises(
            CacheConflictError, match=r"s\.jsonl:2: g\(2,1\) = 3 conflicts with stored value 2$"
        ):
            merge_caches(str(target), [str(source)])
        assert target.read_text(encoding="utf-8") == self.LINE


class TestMergeLock:
    LINE = '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'
    TORN = '{"n": 2, "k": 2, "g"'
    MERGED = CensusRecord(2, 1, 2, "plain", 0, "unknown").to_json() + "\n"

    def test_add_during_merge_lands_in_the_merged_file(self, tmp_path, monkeypatch):
        import os
        import threading

        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        target.write_text(self.LINE, encoding="utf-8")
        source.write_text(
            self.LINE.replace('"k": 1', '"k": 0').replace('"g": 2', '"g": 1'), encoding="utf-8"
        )
        writer = CensusCache(str(target))
        record = CensusRecord(n=2, k=2, g=2, mode="plain", elapsed_ms=0)
        adder = threading.Thread(target=writer.add, args=(record,))
        real_replace = os.replace

        def replace_after_an_add(src, dst):
            # another writer appends to the target between merge's read and
            # rename; without the merge holding the lock it lands in the old file
            adder.start()
            adder.join(timeout=0.5)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_an_add)
        assert merge_caches(str(target), [str(source)]) == 2
        adder.join(timeout=10)
        assert not adder.is_alive()
        merged = CensusCache(str(target))
        assert [(r.n, r.k) for r in merged.records()] == [(2, 0), (2, 1), (2, 2)]

    def test_failed_merge_into_missing_target_leaves_no_file(self, tmp_path, monkeypatch):
        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        source.write_text(self.LINE, encoding="utf-8")

        def failing_to_json(record):
            raise OSError("disk full")

        monkeypatch.setattr(CensusRecord, "to_json", failing_to_json)
        with pytest.raises(OSError, match="disk full"):
            merge_caches(str(target), [str(source)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]

    def test_torn_source_warning_promises_no_write(self, tmp_path, capsys):
        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        source.write_text(self.LINE + self.TORN, encoding="utf-8")
        before = source.read_bytes()
        for _ in range(2):
            assert merge_caches(str(target), [str(source)]) == 1
            err = capsys.readouterr().err
            assert err == (
                f"warning: {source}:2: ignoring incomplete final record "
                f"({len(self.TORN)} bytes); merge leaves the source as it is\n"
            )
        assert source.read_bytes() == before
        assert target.read_text(encoding="utf-8") == self.MERGED

    def test_torn_target_is_mended_by_the_merge(self, tmp_path, capsys):
        target, source = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        target.write_text(self.LINE + self.TORN, encoding="utf-8")
        source.write_text(self.LINE, encoding="utf-8")
        assert merge_caches(str(target), [str(source)]) == 1
        assert capsys.readouterr().err == (
            f"warning: {target}:2: ignoring incomplete final record "
            f"({len(self.TORN)} bytes); the next write removes it\n"
        )
        assert target.read_text(encoding="utf-8") == self.MERGED
        merge_caches(str(target), [str(source)])
        assert capsys.readouterr().err == ""


def reference_load(path):
    """The cache's line rules with one json.loads per line.

    Returns {(n, k): (g, mode, elapsed_ms, engine_version)} or the text of
    the CacheConflictError that loading must raise.
    """
    rows = {}
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                key = (int(obj["n"]), int(obj["k"]))
                row = (
                    int(obj["g"]),
                    str(obj.get("mode", "plain")),
                    int(obj.get("elapsed_ms", 0)),
                    str(obj.get("engine_version", "unknown")),
                )
            except (ValueError, KeyError, TypeError) as exc:
                if isinstance(exc, json.JSONDecodeError) and not raw.endswith("\n"):
                    break  # torn final line
                return f"{path}:{lineno}: unreadable record: {exc}"
            if rows.setdefault(key, row)[0] != row[0]:
                return f"{path}:{lineno}: conflict"
    return rows


def canonical(k="4", g="5", mode="plain", version="v", ms="0", end="\n"):
    """A line in the shape to_json writes, from the raw text of each field."""
    return (
        f'{{"n": 3, "k": {k}, "g": {g}, "mode": "{mode}", '
        f'"engine_version": "{version}", "elapsed_ms": {ms}}}{end}'
    )


class TestLoaderParity:
    """CensusCache loads exactly what a json.loads-per-line loader does."""

    HEAD = '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'
    TAIL = '{"n": 3, "k": 2, "g": 10, "mode": "pruned", "elapsed_ms": 4, "engine_version": "e"}\n'

    @staticmethod
    def loaded(cache):
        return {(r.n, r.k): (r.g, r.mode, r.elapsed_ms, r.engine_version) for r in cache.records()}

    @pytest.mark.parametrize(
        "middle",
        [
            '{"engine_version": "v", "elapsed_ms": 9, "g": 5, "mode": "pruned", "k": 4, "n": 3}\n',
            '{"n": 3, "k": 4, "g": 5, "stats": {"per_line": [1, 2]}, "note": null}\n',
            '{"n": 3, "k": 4, "g": 5}\n',
            ' \t {"n" : 3 , "k":4,"g" :5}\t  \n',
            '{"n": 3, "k": 4, "g": 5, "mode": "plain", "elapsed_ms": 0}\r\n',
            '{"n": "3", "k": " 4", "g": "5", "elapsed_ms": "12"}\n',
            '{"n": 3.0, "k": 4, "g": 5, "elapsed_ms": 1.9, "mode": "\\u00e9t\u00e9"}\n',
            "\n   \n",
            CensusRecord(n=3, k=4, g=5, mode="plain", elapsed_ms=0).to_json() + "\n",
            canonical(k="-0", ms="-0"),
            canonical(mode='a\\"b'),
            canonical(mode="\\u00e9t\\u00e9"),
            canonical(mode="\u00e9t\u00e9"),
            canonical(version="v\x7f"),
            canonical(g="9" * sys.get_int_max_str_digits()),
            canonical(g="5.0"),
            canonical(g="true"),
            canonical(end="\r\n"),
        ],
        ids=["permuted", "extra-keys", "optional-missing", "padding", "crlf",
             "numeric-strings", "float-and-unicode", "blank", "to-json", "minus-zero",
             "escaped-quote", "escaped-e-acute", "raw-e-acute", "raw-del", "g-at-digit-limit",
             "float-g", "true-g", "canonical-crlf"],
    )
    def test_accepted_lines(self, tmp_path, middle):
        path = tmp_path / "c.jsonl"
        path.write_text(self.HEAD + middle + self.TAIL, encoding="utf-8", newline="")
        want = reference_load(str(path))
        assert isinstance(want, dict) and len(want) == (2 if middle.isspace() else 3)
        assert self.loaded(CensusCache(str(path))) == want

    @pytest.mark.parametrize(
        "middle, fragment",
        [
            ('{"n": 3, "k": 4, "g": 5} {"n": 3, "k": 5, "g": 6}', "Extra data"),
            ("[1, 2]", "list indices"),
            ('"x"', "string indices"),
            ("7", "not subscriptable"),
            ('\ufeff{"n": 3, "k": 4, "g": 5}', "Unexpected UTF-8 BOM"),
            ('{"n": 3, "k": 4, "g": 5,}', "Expecting property name"),
            ('{"n": 3, "k": "four", "g": 5}', "invalid literal for int()"),
            (canonical(k="04", end=""), "Expecting ',' delimiter"),
            (canonical(g="1" * 5000, end=""), "Exceeds the limit"),
        ],
        ids=["two-objects", "list", "string", "number", "bom", "trailing-comma", "bad-int",
             "leading-zero", "g-past-digit-limit"],
    )
    def test_rejected_middle_lines(self, tmp_path, middle, fragment):
        path = tmp_path / "c.jsonl"
        path.write_text(self.HEAD + middle + "\n" + self.TAIL, encoding="utf-8")
        want = reference_load(str(path))
        assert isinstance(want, str) and fragment in want
        with pytest.raises(CacheConflictError) as caught:
            CensusCache(str(path))
        assert str(caught.value) == want
        assert str(caught.value).startswith(f"{path}:2: unreadable record: ")

    @pytest.mark.parametrize(
        "torn", ['{"n": 3, "k": 9, "g"', '{"n": 3, "k": 9, "g": 1} {"n"', "[1, "]
    )
    def test_torn_final_line_is_a_warning(self, tmp_path, capsys, torn):
        path = tmp_path / "c.jsonl"
        path.write_text(self.HEAD + self.TAIL + torn, encoding="utf-8")
        cache = CensusCache(str(path))
        assert self.loaded(cache) == reference_load(str(path))
        assert f"c.jsonl:3: ignoring incomplete final record ({len(torn)} bytes)" in (
            capsys.readouterr().err
        )

    def test_canonical_final_line_without_newline_is_kept(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(self.HEAD + canonical(end=""), encoding="utf-8")
        cache = CensusCache(str(path))
        assert self.loaded(cache) == reference_load(str(path))
        assert (3, 4) in self.loaded(cache) and capsys.readouterr().err == ""
        record = CensusRecord(n=3, k=5, g=6, mode="plain", elapsed_ms=0)
        cache.add(record)
        assert path.read_text(encoding="utf-8") == (
            self.HEAD + canonical() + record.to_json() + "\n"
        )

    def test_lines_to_json_writes_never_reach_json(self, tmp_path, monkeypatch):
        """Every route through the loader reads to_json's lines by the pattern alone."""
        from braidcensus import census

        records = [
            CensusRecord(n=n, k=k, g=g, mode=mode, elapsed_ms=ms, engine_version=version)
            for n, k, g, mode, ms, version in [
                (2, 0, 1, "plain", 0, census.ENGINE_VERSION),
                (3, 5, 10 ** (sys.get_int_max_str_digits() - 1), "pruned", 123, "unknown"),
                (4, 3, -7, "closedform", 10**12, census.ENGINE_VERSION),
                (5, 0, 0, "", 1, ""),
                (6, 1, 2, "plain", 0, census.ENGINE_VERSION),
            ]
        ]
        source, target = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        source.write_text("".join(r.to_json() + "\n" for r in records[:2]), encoding="utf-8")
        stale = CensusCache(str(target))
        writer = CensusCache(str(target))
        for record in records[2:4]:
            writer.add(record)
        want_source = self.loaded(CensusCache(str(source)))
        want_target = self.loaded(CensusCache(str(target)))

        def refuse(*args, **kwargs):
            raise AssertionError("a line to_json wrote reached json")

        monkeypatch.setattr(census.json, "loads", refuse)
        assert self.loaded(CensusCache(str(source))) == want_source
        stale.add(records[4])  # rescans the file writer appended to
        assert self.loaded(stale) == {
            **want_target, (6, 1): (2, "plain", 0, census.ENGINE_VERSION)
        }
        assert merge_caches(str(target), [str(source)]) == 5
        merged = self.loaded(CensusCache(str(target)))
        monkeypatch.undo()
        assert merged == self.loaded(CensusCache(str(target))) == {
            (r.n, r.k): (r.g, r.mode, r.elapsed_ms, r.engine_version) for r in records
        }


def test_default_threads_names_the_variable_for_a_non_integer(monkeypatch):
    from braidcensus.census import default_threads

    monkeypatch.setenv("CENSUS_THREADS", "abc")
    with pytest.raises(ValueError) as caught:
        default_threads()
    assert str(caught.value) == "CENSUS_THREADS must be an integer >= 1, got 'abc'"


class TestTransitionMemo:
    """Zone transitions shared across s-vectors give each s-vector's own result."""

    GRID = [(4, 10), (5, 8), (6, 7)]

    @pytest.mark.parametrize("order", ["lexicographic", "shuffled"])
    def test_shared_memo_matches_a_fresh_walk(self, order):
        import random

        from braidcensus.census import _Transitions, _walk

        units = sorted(
            (sv.n, sv.s)
            for n, kmax in self.GRID
            for k in range(kmax + 1)
            for sv in enumerate_s_vectors(n, k)
        )
        if order == "shuffled":
            random.Random(2000).shuffle(units)
        memo = _Transitions()
        for n, s in units:
            assert _walk(s, memo) == _walk(s, _Transitions()), (n, s)
        assert memo and memo.states

    def test_memo_is_dropped_when_the_table_returns(self):
        from braidcensus import census

        sizes = []
        count_table(5, 6, threads=1, progress=lambda d, t, s: sizes.append(len(census._MEMO)))
        assert max(sizes) > 0
        assert not census._MEMO and not census._MEMO.states

    def test_memo_is_dropped_when_progress_raises(self):
        from braidcensus import census

        def progress(done, total, s):
            if sum(s) == 4 and done == 2:
                assert census._MEMO
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            count_table(5, 6, threads=1, progress=progress)
        assert not census._MEMO and not census._MEMO.states

    @pytest.mark.parametrize("prune", [False, True])
    def test_lines_longer_than_a_byte_can_number(self, prune):
        # L_1 or L_2 has up to 261 nodes here, past what a bytes state holds
        from braidcensus.coords import count_a_tuples

        record = count_actual(3, 130, threads=1, prune=prune)
        assert record.g == g3_totient(130)
        svs = [sv for sv in enumerate_s_vectors(3, 130) if not prune or sv.s <= sv.s[::-1]]
        if prune:
            assert record.tuples_examined == sum((count_a_tuples(sv) + 1) // 2 for sv in svs)
        else:
            assert record.tuples_examined == sum(map(count_a_tuples, svs))

    def test_overlapping_calls_in_one_process_stay_exact(self):
        # each call binds its own memo, and a call that overlaps it may
        # replace that memo while it walks: every entry is exact for any
        # s-vector, so both rows keep their serial results
        import threading
        import time

        from braidcensus import census

        grids = [(5, 8), (4, 12)]
        serial = [count_table(n, kmax, threads=1) for n, kmax in grids]
        results = {}

        def run(n, kmax):
            results[n, kmax] = count_table(
                n, kmax, threads=1, progress=lambda *a: time.sleep(0)
            )

        threads = [threading.Thread(target=run, args=grid) for grid in grids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for grid, expected in zip(grids, serial):
            rows = [(r.k, r.g, r.tuples_examined) for r in results[grid]]
            assert rows == [(r.k, r.g, r.tuples_examined) for r in expected], grid
        assert not census._MEMO and not census._MEMO.states


def full_arc_step(zone, line):
    """The state on L_i per offset, applying every arc of each offset in turn."""
    left = zone.left
    pack = bytes if left <= 256 else tuple
    start = list(range(left)) + [m and m + left - 1 for m in line]
    start[0] = line.index(0) + left
    out = []
    for arcs in zone.pairs:
        mate = start.copy()
        for u, v in arcs:
            mu = mate[u]
            if mu == v:
                out.append(None)
                break
            mv = mate[v]
            mate[mu] = mv
            mate[mv] = mu
        else:
            out.append(pack(mate[1:left]))
    return tuple(out)


def reflected(state):
    """A line state seen in the vertical mirror: positions reversed, mates relabelled."""
    top = len(state) + 1
    return type(state)(m and top - m for m in reversed(state))


class TestZoneTransitions:
    """Every stored transition and completion count is exact, up to the
    vertical mirror.

    A zone stores each next state as the lesser of it and its mirror twin,
    and steps a state with the straight arcs the offsets share applied
    once.  A completion table joins each state against the right states
    of the reversed last two zones, and halves the sum over the state and
    its twin.  Plain and pruned mode both walk that quotient and join, so
    their agreement does not check them: these tests check them directly.
    """

    GRID = [(3, 10), (4, 12), (5, 8), (6, 6)]

    @pytest.fixture(scope="class")
    def memo(self):
        from braidcensus.census import _Transitions, _walk

        interiors = [
            sv.s
            for n, kmax in self.GRID
            for k in range(kmax + 1)
            for sv in enumerate_s_vectors(n, k)
        ]
        memo = _Transitions()
        # L_1 has 259 nodes in one and L_2 in the other: tuple states, which
        # (129, 1) joins as both its left and its right states
        for s in [*interiors, (1, 129), (129, 1)]:
            _walk(s, memo)
        return memo

    @staticmethod
    def canonical(nexts):
        return tuple(None if t is None else min(t, reflected(t)) for t in nexts)

    def test_every_stored_line_is_canonical(self, memo):
        for shape, zone in memo.items():
            for line in zone:
                assert line <= reflected(line), (shape, line)
        for shape, completions in memo.completions.items():
            for line in [*completions, *completions.right]:
                assert line <= reflected(line), (shape, line)

    def test_every_completion_count_equals_two_full_arc_steps(self, memo):
        from braidcensus.census import _Zone

        tuples = 0
        for (sl, sr), completions in memo.completions.items():
            first, last = _Zone(sl, sr, {}), _Zone(sr, 0, {})
            assert completions.tuples == len(first.pairs) * len(last.pairs), (sl, sr)
            for line, count in completions.items():
                # the walk keys a state and its twin by one: both have this count
                for x in (line, reflected(line)):
                    pairs = sum(
                        state is not None
                        for middle in full_arc_step(first, x)
                        if middle is not None
                        for state in full_arc_step(last, middle)
                    )
                    assert pairs == count, (sl, sr, x)
                tuples += isinstance(line, tuple)
        assert tuples > 0

    def test_every_entry_equals_a_full_arc_step(self, memo):
        tuples = 0
        for shape, zone in memo.items():
            for line, nexts in zone.items():
                assert nexts == self.canonical(full_arc_step(zone, line)), (shape, line)
                tuples += isinstance(line, tuple)
        assert tuples > 0

    def test_every_twin_entry_is_the_mirrored_reverse(self, memo):
        # the twin of a state steps to the twins of its next states, offset
        # a of R to R - 1 - a, so both send their prefixes to the same
        # canonical states
        twins = 0
        for shape, zone in memo.items():
            for line, nexts in zone.items():
                twin = reflected(line)
                assert self.canonical(full_arc_step(zone, twin)) == nexts[::-1], (shape, line)
                twins += twin != line
        assert twins > 0

    def test_straight_arcs_lead_every_offset(self):
        # the zone applies straight arc a once for offsets a and above,
        # which holds only while the arc rules put the straight arcs first
        from braidcensus.coords import a_range_size
        from braidcensus.diagram import zone_arc_pairs

        for sl in range(7):
            for sr in range(7):
                bl, br = 2 * sr + 2, 1
                top = zone_arc_pairs(bl, br, sl, sr, a_range_size(sl, sr) - 1)
                for a in range(a_range_size(sl, sr)):
                    arcs = zone_arc_pairs(bl, br, sl, sr, a)
                    assert arcs[:a] == top[:a], (sl, sr, a)
                    # and each straight arc is the first arc at its L_i end,
                    # so it never closes a loop
                    for t, (_, v) in enumerate(arcs[:a]):
                        assert all(v not in pair for pair in arcs[:t]), (sl, sr, a, t)
