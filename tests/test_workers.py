"""--workers validation and the pool-size cap, with no process started."""

import concurrent.futures
import json
import os
from dataclasses import replace

import pytest

from griddesigns import oracle
from griddesigns.bigraph import format_graph_text, from_edge_list
from griddesigns.cli import main
from griddesigns.oracle import orbit_verdicts
from griddesigns.scanner import scan_general_3design, scan_square_2design, scan_square_3design
from griddesigns.search import (
    SearchBudgetError,
    SearchSpec,
    _branch_results,
    _searched_branches,
    degree_branches,
    exhaustive_search,
    family_figure,
)
from griddesigns.workers import pool_size


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially
    and lazily, and logs each mapped call and each shutdown in events."""

    sizes: list = []
    events: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        def logged(*args):
            FakePool.events.append(("call", args[1]))
            return fn(*args)
        return map(logged, *iterables)

    def shutdown(self, wait=True, *, cancel_futures=False):
        FakePool.events.append(("shutdown", cancel_futures))


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.sizes = []
    FakePool.events = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return FakePool.sizes


class TestPoolSize:
    def test_caps(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert pool_size(1, 100) == 1
        assert pool_size(3, 100) == 3
        assert pool_size(10_000, 100) == 4
        assert pool_size(10_000, 2) == 2
        assert pool_size(8, 0) == 1

    def test_unknown_cpu_count_runs_serially(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_size(8, 100) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_rejected(self, workers):
        with pytest.raises(ValueError):
            pool_size(workers, 10)


class TestCapAtCallSites:
    # The scans take no worker count and run in the calling process: they
    # start no pool, and `scan` prints exactly the library's lists.
    @staticmethod
    def _assert_serial(scans, capsys, fake_pool):
        for found, argv in scans:
            assert main(["scan", *argv.split(), "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["tuples"] == found, argv
        assert fake_pool == []

    def test_scanner_capped_at_cpu_count(self, monkeypatch, fake_pool, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        self._assert_serial([
            ([[m, m, k] for m, k in scan_square_3design(40)], "--square3 --max-m 40"),
            ([[m, m, k] for m, k in scan_square_2design(12)], "--square2 --max-m 12"),
        ], capsys, fake_pool)

    def test_scanner_capped_at_job_count(self, monkeypatch, fake_pool, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        self._assert_serial([
            (scan_general_3design(14, 14), "--general3 --max-m 14 --max-n 14"),
        ], capsys, fake_pool)

    def test_oracle_capped(self, monkeypatch, fake_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        g = family_figure("fig2")
        assert orbit_verdicts(g, 2, ["K"], workers=10_000) == orbit_verdicts(g, 2, ["K"])
        assert fake_pool == [3]

    def test_oracle_command_pools_its_count(self, monkeypatch, fake_pool, capsys, tmp_path):
        # the command's verdict comes from orbit_verdicts, which counts the
        # blocks in a pool of --workers processes
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        path = tmp_path / "fig2.grid"
        path.write_text(format_graph_text(family_figure("fig2")))
        outputs = []
        for workers in ("1", "4"):
            assert main(["oracle", str(path), "--t", "3", "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "3design = yes" in outputs[0]
        assert fake_pool == [3]

    def test_one_pool_for_both_closures(self, monkeypatch, fake_pool, capsys, tmp_path):
        # not tau-equivalent: the G-orbit is the K-orbit of the block and
        # that of its transpose, 9 blocks each, counted in one pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = tmp_path / "not-tau.grid"
        path.write_text(format_graph_text(from_edge_list(3, 3, [(1, 1), (1, 2)])))
        outputs = []
        for workers in ("1", "2"):
            assert main(["oracle", str(path), "--group", "G", "--t", "2",
                         "--workers", workers]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "blocks = 18" in outputs[0]
        assert fake_pool == [2]

    def test_search_capped_at_branch_count(self, monkeypatch, fake_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 10_000)
        spec = SearchSpec(m=4, n=4, k=5, target="dhat2")
        serial = [g.edges() for g, _ in exhaustive_search(spec)]
        pooled = [g.edges() for g, _ in exhaustive_search(spec, workers=10_000)]
        assert pooled == serial
        # three degree branches; the last is the mirror of the first and is
        # not searched, so the pool is sized for two
        branches = degree_branches(spec)
        assert branches[2] == branches[0][::-1]
        assert fake_pool == [2]

    def test_stop_cancels_queued_branches(self, monkeypatch, fake_pool):
        # the budget passes in the second searched branch; the pool is shut
        # down with its queued branches cancelled before the error leaves
        # the search, and no later branch is decided
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = SearchSpec(m=5, n=5, k=9, target="dhat2")
        branches = degree_branches(spec)
        indices = _searched_branches(spec, branches)
        results, used = _branch_results(spec, indices[0], branches[indices[0]], None)
        with pytest.raises(SearchBudgetError) as exc:
            for _ in exhaustive_search(replace(spec, max_nodes=used + 1), workers=2):
                FakePool.events.append("result")
        FakePool.events.append(("error", exc.value.branch_index))
        assert len(indices) > 2 and fake_pool == [2]
        assert FakePool.events == [("call", indices[0]), *["result"] * len(results),
                                   ("call", indices[1]), ("shutdown", True),
                                   ("error", indices[1])]

    def test_single_worker_starts_no_pool(self, monkeypatch, fake_pool):
        # one worker is never sized: no pool_size, no CPU count
        def refuse(*args):
            raise AssertionError("a single worker was sized")

        scan_square_3design(40)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "pool_size", refuse)
            patch.setattr(os, "cpu_count", refuse)
            orbit_verdicts(from_edge_list(3, 3, [(1, 1), (1, 2)]), 2, ["K", "G"])
            orbit_verdicts(family_figure("fig2"), 2, ["K"], workers=1)
        list(exhaustive_search(SearchSpec(m=4, n=4, k=5, target="dhat2"), workers=1))
        assert fake_pool == []


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["scan", "--square3", "--max-m", "11", "--workers", "0"],
        ["scan", "--square3", "--max-m", "11", "--workers", "-1"],
        ["search", "--m", "4", "--k", "5", "--target", "dhat2", "--workers", "0"],
        ["oracle", "-", "--workers", "0"],
        ["scan", "--square3", "--max-m", "11", "--workers", "two"],
    ])
    def test_bad_workers_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_scan_takes_no_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--square3", "--max-m", "11", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
