import json

import pytest

from braidcensus.cli import run
from braidcensus.closedform import g3_totient


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_basic(self, capsys):
        code, out, _ = run_capture(capsys, ["count", "--n", "2", "--k", "3", "--threads", "1"])
        assert code == 0
        obj = json.loads(out)
        assert obj["g"] == 2 and obj["n"] == 2 and obj["k"] == 3
        assert obj["mode"] == "plain"

    def test_prune_flag(self, capsys):
        code, out, _ = run_capture(
            capsys, ["count", "--n", "3", "--k", "4", "--prune", "--threads", "1"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["g"] == g3_totient(4)
        assert obj["mode"] == "pruned"

    def test_cache_flag(self, capsys, tmp_path):
        cache = str(tmp_path / "c.jsonl")
        code, out, _ = run_capture(
            capsys, ["count", "--n", "2", "--k", "5", "--cache", cache, "--threads", "1"]
        )
        assert code == 0
        code, out, _ = run_capture(
            capsys, ["count", "--n", "2", "--k", "5", "--cache", cache, "--threads", "1"]
        )
        assert code == 0
        assert json.loads(out)["g"] == 2


class TestTable:
    def test_csv(self, capsys):
        code, out, err = run_capture(
            capsys, ["table", "--n", "2", "--kmax", "3", "--format", "csv", "--threads", "1"]
        )
        assert code == 0
        assert out.splitlines()[0] == "n,k,g"
        assert out.splitlines()[1:] == ["2,0,1", "2,1,2", "2,2,2", "2,3,2"]
        assert "progress:" in err  # progress stays on stderr

    def test_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "--n", "3", "--kmax", "2", "--threads", "1"]
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["g"] for r in rows] == [1, 4, 10]


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "--suite", "b2", "--kmax", "15", "--threads", "1"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True and obj["checked"] == 16

    SUITE_SIZE = {
        "b2": "10",
        "b3-closed-form": "8",
        "cyclicity": "8",
        "theta-bridge": "6",
        "bounds": "4",
        "witnesses": "8",
        "tightness": "8",
        "symmetry": "8",
        "prune-consistency": "4",
    }

    @pytest.mark.parametrize("suite", sorted(SUITE_SIZE))
    def test_every_suite_passes(self, capsys, suite):
        code, out, _ = run_capture(
            capsys,
            ["verify", "--suite", suite, "--kmax", self.SUITE_SIZE[suite], "--threads", "1"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["suite"] == suite
        assert obj["ok"] is True and obj["failures"] == []

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_capture(capsys, ["verify", "--suite", "nope"])
        assert code == 2

    @pytest.mark.parametrize(
        "suite", ["b2", "b3-closed-form", "bounds", "prune-consistency", "cyclicity"]
    )
    def test_negative_size_bound_is_usage_error(self, capsys, suite):
        code, out, err = run_capture(
            capsys, ["verify", "--suite", suite, "--kmax", "-1", "--threads", "1"]
        )
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestRender:
    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "d.svg"
        code, out, _ = run_capture(
            capsys, ["render", "--coords", "(0,0,2,3,1,0,0)", "--out", str(out_path)]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["out"] == str(out_path)
        assert out_path.stat().st_size == obj["bytes"]

    def test_deterministic_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_capture(capsys, ["render", "--coords", "(0,1,2,0,2,1,0)", "--out", str(a)])
        run_capture(capsys, ["render", "--coords", "(0,1,2,0,2,1,0)", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_closed_flag(self, capsys, tmp_path):
        out_path = tmp_path / "c.svg"
        code, _, _ = run_capture(
            capsys,
            ["render", "--coords", "(0,0,1,1,0)", "--closed", "--out", str(out_path)],
        )
        assert code == 0

    def test_bad_syntax_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_capture(
            capsys, ["render", "--coords", "0,0,1,1,0", "--out", str(tmp_path / "x.svg")]
        )
        assert code == 2
        assert "error:" in err

    def test_invalid_tuple_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_capture(
            capsys, ["render", "--coords", "(0,1,0,0,0)", "--out", str(tmp_path / "x.svg")]
        )
        assert code == 2
        assert "a[1]" in err


class TestBounds:
    def test_with_census(self, capsys):
        code, out, _ = run_capture(
            capsys, ["bounds", "--n", "3", "--kmax", "4", "--with-census", "--threads", "1"]
        )
        assert code == 0
        rows = json.loads(out)
        assert all(r["ok"] for r in rows)
        assert rows[2]["g"] == 10

    def test_without_census(self, capsys):
        code, out, _ = run_capture(capsys, ["bounds", "--n", "4", "--kmax", "3"])
        assert code == 0
        rows = json.loads(out)
        assert all(r["g"] is None and r["ok"] is None for r in rows)


class TestRatios:
    def test_closedform_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["ratios", "--n", "3", "--kmax", "6", "--source", "closedform"]
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["g"] == 4 and "pi2_scaled" in rows[0]

    def test_csv(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["ratios", "--n", "2", "--kmax", "3", "--source", "closedform", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "n,k,g,ratio_k,ratio_shift,residue"

    def test_source_mismatch_is_usage_error(self, capsys):
        code, _, err = run_capture(
            capsys, ["ratios", "--n", "4", "--kmax", "3", "--source", "closedform"]
        )
        assert code == 2
        assert "closed forms" in err


class TestCache:
    def test_show_and_merge(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run_capture(capsys, ["count", "--n", "2", "--k", "1", "--cache", a, "--threads", "1"])
        run_capture(capsys, ["count", "--n", "2", "--k", "2", "--cache", b, "--threads", "1"])
        code, out, _ = run_capture(capsys, ["cache", "show", "--path", a])
        assert code == 0
        assert len(json.loads(out)) == 1
        code, out, _ = run_capture(capsys, ["cache", "merge", "--path", a, "--path", b])
        assert code == 0
        assert json.loads(out)["records"] == 2

    def test_conflict_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'
            '{"n": 2, "k": 1, "g": 5, "mode": "plain", "elapsed_ms": 0}\n'
        )
        code, _, err = run_capture(capsys, ["cache", "show", "--path", str(path)])
        assert code == 1
        assert "conflicts" in err


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_capture(capsys, [])[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_capture(capsys, ["count", "--n", "2", "--k", "1", "--frob"])[0] == 2

    def test_env_thread_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CENSUS_THREADS", "1")
        code, out, _ = run_capture(capsys, ["count", "--n", "2", "--k", "2"])
        assert code == 0
        assert json.loads(out)["g"] == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--n", "4", "--kmax", "-1"],
            ["table", "--n", "0", "--kmax", "-1"],
            ["bounds", "--n", "4", "--kmax", "-1"],
            ["bounds", "--n", "4", "--kmax", "-1", "--with-census"],
            ["ratios", "--n", "4", "--kmax", "-1"],
            ["ratios", "--n", "3", "--kmax", "-1", "--source", "closedform"],
        ],
    )
    def test_negative_kmax_is_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv + ["--threads", "1"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_table_progress_names_each_row(self, capsys):
        code, _, err = run_capture(
            capsys, ["table", "--n", "3", "--kmax", "2", "--threads", "1"]
        )
        assert code == 0
        lines = err.splitlines()
        assert lines[0] == "progress: n=3 k=0 s-vector 1/1 (0, 0)"
        assert lines[-1] == "progress: n=3 k=2 s-vector 3/3 (2, 0)"


class TestTornCacheCli:
    LINE = '{"n": 2, "k": 1, "g": 2, "mode": "plain", "elapsed_ms": 0}\n'

    def test_torn_final_line_is_repaired(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(self.LINE + '{"n": 2, "k": 2, "g": 2, "mo')
        code, out, err = run_capture(
            capsys, ["count", "--n", "2", "--k", "2", "--cache", str(path), "--threads", "1"]
        )
        assert code == 0
        assert json.loads(out)["g"] == 2
        assert "warning:" in err and "incomplete final record" in err
        code, out, err = run_capture(capsys, ["cache", "show", "--path", str(path)])
        assert code == 0 and err == ""
        assert [r["k"] for r in json.loads(out)] == [1, 2]

    def test_bad_middle_line_exits_1(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"n": 2, "k": 2, "g": 2, "mo\n' + self.LINE)
        code, _, err = run_capture(
            capsys, ["count", "--n", "2", "--k", "2", "--cache", str(path), "--threads", "1"]
        )
        assert code == 1
        assert "unreadable record" in err


def _dying_worker(args):
    import multiprocessing
    import os

    if multiprocessing.parent_process() is None:
        raise AssertionError("ran in the calling process, not in a pool")
    os._exit(1)  # the worker process dies without a word


def _worker_ignores_interrupts(args):
    import signal

    return int(signal.getsignal(signal.SIGINT) == signal.SIG_IGN), 0


class TestAbort:
    def test_dead_worker_is_an_error_not_a_traceback(self, capsys, monkeypatch):
        from braidcensus import census

        monkeypatch.setattr(census, "_worker", _dying_worker)
        code, out, err = run_capture(capsys, ["count", "--n", "4", "--k", "3", "--threads", "2"])
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        from braidcensus import census

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(census, "count_actual", interrupted)
        code, out, err = run_capture(capsys, ["count", "--n", "3", "--k", "4"])
        assert (code, out, err) == (130, "", "interrupted\n")

    def test_pool_workers_leave_interrupts_to_the_caller(self, monkeypatch):
        # Ctrl-C signals every process in the group; only the caller acts on it
        from braidcensus import census
        from braidcensus.coords import count_s_vectors

        monkeypatch.setattr(census, "_worker", _worker_ignores_interrupts)
        assert census.count_actual(4, 3, threads=2).g == count_s_vectors(4, 3)
