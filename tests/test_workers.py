"""--workers validation and the search's pool-size cap, with no process
started."""

import concurrent.futures
import json
import os
from dataclasses import replace

import pytest

from griddesigns.bigraph import from_edge_list
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


# six searched branches of ten: the mirrors of four are skipped
SIX_BRANCHES = SearchSpec(m=5, n=5, k=9, target="dhat2")


class TestPoolSize:
    # the search's pool is capped at the CPU count and at the number of
    # searched branches; a cap of 1 starts no pool
    @staticmethod
    def _sizes(spec, workers, fake_pool):
        serial = [g.edges() for g, _ in exhaustive_search(spec)]
        fake_pool.clear()
        assert [g.edges() for g, _ in exhaustive_search(spec, workers)] == serial
        return list(fake_pool)

    def test_caps(self, monkeypatch, fake_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert len(_searched_branches(SIX_BRANCHES, degree_branches(SIX_BRANCHES))) == 6
        assert self._sizes(SIX_BRANCHES, 1, fake_pool) == []
        assert self._sizes(SIX_BRANCHES, 3, fake_pool) == [3]
        assert self._sizes(SIX_BRANCHES, 10_000, fake_pool) == [4]
        # a start branch at the end searches nothing
        assert self._sizes(replace(SIX_BRANCHES, start_branch=10), 8, fake_pool) == []

    def test_unknown_cpu_count_runs_serially(self, monkeypatch, fake_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert self._sizes(SIX_BRANCHES, 8, fake_pool) == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            list(exhaustive_search(SIX_BRANCHES, workers))


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
        # the oracle never reads the CPU count, and neither the oracle nor a
        # search on one worker starts a pool
        def refuse(*args):
            raise AssertionError("the oracle read the CPU count")

        scan_square_3design(40)
        with monkeypatch.context() as patch:
            patch.setattr(os, "cpu_count", refuse)
            orbit_verdicts(from_edge_list(3, 3, [(1, 1), (1, 2)]), 2, ["K", "G"])
            orbit_verdicts(family_figure("fig2"), 2, ["K"])
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

    def test_oracle_takes_no_workers(self, capsys):
        # the oracle counts in one process and takes no --workers
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "-", "--t", "4", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
