import json

import pytest

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
from braidcensus.coords import SVector, enumerate_a_tuples, enumerate_s_vectors
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
        # the census kernel and the explicit graph path are independent
        # code; they must agree on every s-vector
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

    def test_resume_partial_table(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cache = CensusCache(path)
        count_actual(3, 2, threads=1, cache=cache)
        # resuming a table reuses the stored row and fills in the rest
        records = count_table(3, 4, threads=1, cache=CensusCache(path))
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


class TestWalker:
    GRID = [(4, 10), (5, 8), (6, 6)]

    def test_every_tuple_has_one_arc_fewer_than_nodes(self):
        # the dead-prefix rule rests on this: a tuple is connected iff no
        # arc joins two nodes that are already joined
        from itertools import product

        from braidcensus.census import _zone_tables

        for n in range(1, 6):
            for k in range(5):
                for sv in enumerate_s_vectors(n, k):
                    tables, node_count = _zone_tables(sv)
                    for choice in product(*tables):
                        assert sum(map(len, choice)) == node_count - 1, sv

    def test_plain_examines_whole_space_and_agrees_with_pruned(self):
        from braidcensus.coords import count_a_tuples

        for n, kmax in self.GRID:
            for k in range(kmax + 1):
                plain = count_actual(n, k, threads=1)
                pruned = count_actual(n, k, threads=1, prune=True)
                virtual = sum(map(count_a_tuples, enumerate_s_vectors(n, k)))
                assert plain.tuples_examined == virtual, (n, k)
                assert plain.g == pruned.g, (n, k)


@pytest.fixture()
def pool_events(monkeypatch):
    """Every construction and shutdown of a census worker pool, in order."""
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

    monkeypatch.setattr(census, "ProcessPoolExecutor", CountingPool)
    return events


class TestTablePool:
    def test_one_pool_for_a_multi_row_table(self, pool_events):
        records = count_table(4, 6, threads=2)
        assert pool_events == [("made", 2), ("shutdown",)]
        assert [r.g for r in records] == [r.g for r in count_table(4, 6, threads=1)]

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
        from braidcensus import analysis, verify

        analysis.bounds_table(4, 6, with_census=True, threads=2)
        analysis.ratio_series(4, 6, threads=2)
        assert pool_events == [("made", 2), ("shutdown",)] * 2
        del pool_events[:]
        # one plain and one pruned table for each n in 3..5; n <= 2 rows
        # are single s-vectors and need no pool
        assert verify.run_suite("prune-consistency", kmax=4, threads=2)["ok"]
        assert pool_events == [("made", 2), ("shutdown",)] * 6

    def test_pool_is_shut_down_when_a_row_raises(self, pool_events):
        def progress(done, total, s):
            if sum(s) == 3:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            count_table(4, 6, threads=2, progress=progress)
        assert pool_events == [("made", 2), ("shutdown",)]

    def test_progress_reports_every_row(self):
        seen = []
        count_table(3, 3, threads=2, progress=lambda d, t, s: seen.append((d, t, s)))
        want = [sv.s for k in range(4) for sv in enumerate_s_vectors(3, k)]
        assert [s for _, _, s in seen] == want
        assert [d for d, t, _ in seen if d == t] == [1, 2, 3, 4]

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
        from braidcensus.census import _walk
        from braidcensus.coords import count_a_tuples

        assert len(self.SMALL) == 210
        for sv in self.SMALL:
            assert _walk(sv, False) == (brute_count(sv), count_a_tuples(sv)), sv

    def test_mirror_examines_one_tuple_per_mirror_pair(self):
        from braidcensus.census import _walk
        from braidcensus.coords import count_a_tuples

        for sv in self.SMALL:
            g, examined = _walk(sv, True)
            assert g == count_for_s_vector(sv), sv
            # the offset mirror is an involution with at most one fixed tuple
            assert examined == (count_a_tuples(sv) + 1) // 2, sv

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
        ],
        ids=["permuted", "extra-keys", "optional-missing", "padding", "crlf",
             "numeric-strings", "float-and-unicode", "blank"],
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
        ],
        ids=["two-objects", "list", "string", "number", "bom", "trailing-comma", "bad-int"],
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
