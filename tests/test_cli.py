import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import griddesigns
from griddesigns import oracle, permgroup, scanner
from griddesigns.bigraph import format_graph_text, parse_graph_text
from griddesigns.cli import main
from griddesigns.scanner import scan_square_2design
from griddesigns.search import (
    SearchSpec,
    degree_branches,
    exhaustive_search,
    family_cycle,
    family_figure,
    family_path,
)


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.grid"
    path.write_text(format_graph_text(family_figure("fig2")))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.grid"
    path.write_text(format_graph_text(family_path(4, 3, 3)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_fig2_positive_exit(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, ["verify", fig2_file, "--t", "3", "--group", "K"])
        assert code == 0
        assert "D_3design = yes" in out
        assert "lambda_D_3 = 80" in out

    def test_p4_negative_exit(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, ["verify", p4_file, "--t", "2", "--group", "K"])
        assert code == 1
        assert "D_2design = no" in out

    def test_fig1_lambda(self, capsys, tmp_path):
        path = tmp_path / "fig1.grid"
        path.write_text(format_graph_text(family_figure("fig1")))
        code, out, _ = run_cli(
            capsys, ["verify", str(path), "--t", "3", "--group", "G"]
        )
        assert code == 0
        assert "lambda_Dhat_3 = 137168640000" in out

    def test_json_big_ints_are_strings(self, capsys, fig2_file):
        code, out, _ = run_cli(
            capsys, ["verify", fig2_file, "--t", "3", "--group", "K", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d"]["lambda_3"] == "80"
        assert payload["d"]["blocks"] == "2240"

    def test_with_oracle(self, capsys, fig2_file):
        code, out, _ = run_cli(
            capsys,
            ["verify", fig2_file, "--t", "3", "--group", "K", "--with-oracle"],
        )
        assert code == 0
        assert "oracle_K_blocks = 2240" in out
        assert "oracle_K_coverage_80 = 560" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.grid"
        bad.write_text("grid 2 2\nedge 9 9\n")
        code, _, err = run_cli(capsys, ["verify", str(bad), "--t", "2"])
        assert code == 2
        assert "line 2" in err

    def test_budget_exit_3(self, capsys, tmp_path):
        path = tmp_path / "p5.grid"
        path.write_text(format_graph_text(family_path(5, 4, 4)))
        code, _, err = run_cli(
            capsys,
            ["verify", str(path), "--t", "2", "--group", "G", "--with-oracle",
             "--max-blocks", "10"],
        )
        assert code == 3
        assert "budget" in err

    def test_stdin_dash(self, capsys, monkeypatch, fig2_file):
        import io

        text = open(fig2_file).read()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, ["verify", "-", "--t", "3", "--group", "K"])
        assert code == 0

    def test_fig3_oracle_refuses_at_once(self, capsys, tmp_path):
        # the oracle adds under 0.1 s to the criteria's report before it
        # refuses; each side is the best of three runs
        path = tmp_path / "fig3.grid"
        path.write_text(format_graph_text(family_figure("fig3")))
        argv = ["verify", str(path), "--t", "3"]
        best = {}
        for extra, want in (((), 0), (("--with-oracle",), 3)):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                code, _, err = run_cli(capsys, argv + list(extra))
                times.append(time.perf_counter() - start)
                assert code == want
            best[want] = min(times)
        assert "block orbit exceeds budget of 500000 blocks" in err
        assert best[3] - best[0] < 0.1

    def test_env_budget_override(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "p5.grid"
        path.write_text(format_graph_text(family_path(5, 4, 4)))
        monkeypatch.setenv("GRIDDESIGNS_BUDGET_BLOCKS", "10")
        code, _, err = run_cli(
            capsys, ["verify", str(path), "--t", "2", "--group", "G", "--with-oracle"]
        )
        assert code == 3
        assert "budget" in err

    def test_generators_in_report(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, ["verify", p4_file, "--t", "2", "--group", "G"])
        assert "generator = " in out


class TestVerifyOracleGroups:
    """verify --with-oracle builds and counts the K-orbit once; G adds the
    transposed block's K-orbit only when it is a different one."""

    @pytest.fixture
    def not_tau_file(self, tmp_path):
        path = tmp_path / "not_tau.grid"
        path.write_text("grid 3 3\nedge 1 1\nedge 1 2\n")
        return str(path)

    def test_not_tau_equivalent(self, capsys, not_tau_file):
        code, out, _ = run_cli(
            capsys, ["verify", not_tau_file, "--t", "2", "--group", "both", "--with-oracle"])
        assert code == 1
        assert "tau_equivalent = no" in out
        assert [line for line in out.splitlines() if line.startswith("oracle_")] == [
            "oracle_K_blocks = 9",
            "oracle_K_coverage_0 = 27",
            "oracle_K_coverage_1 = 9",
            "oracle_K_is_2design = no",
            "oracle_G_blocks = 18",
            "oracle_G_coverage_0 = 18",
            "oracle_G_coverage_1 = 18",
            "oracle_G_is_2design = no",
        ]

    def test_tau_equivalent(self, capsys, tmp_path):
        path = tmp_path / "p5.grid"
        path.write_text(format_graph_text(family_path(5, 4, 4)))
        code, out, _ = run_cli(
            capsys, ["verify", str(path), "--t", "2", "--group", "both", "--with-oracle"])
        assert code == 0
        assert "tau_equivalent = yes" in out
        for group in ("K", "G"):
            assert f"oracle_{group}_blocks = 576" in out
            assert f"oracle_{group}_coverage_48 = 120" in out
            assert f"oracle_{group}_is_2design = yes" in out

    @pytest.mark.parametrize("group, limits, message", [
        # the 9-block K-orbit fits, the 18-block G-orbit does not
        ("G", ["--max-blocks", "17"], "block orbit exceeds budget of 17 blocks"),
        ("both", ["--max-blocks", "17"], "block orbit exceeds budget of 17 blocks"),
        # with both groups, K's t-subsets are refused before G's blocks
        ("both", ["--max-blocks", "9", "--max-subsets", "35"],
         "36 t-subsets exceed budget of 35"),
        ("G", ["--max-blocks", "9", "--max-subsets", "35"],
         "block orbit exceeds budget of 9 blocks"),
    ])
    def test_refusals(self, capsys, not_tau_file, group, limits, message):
        code, out, err = run_cli(
            capsys, ["verify", not_tau_file, "--t", "2", "--group", group,
                     "--with-oracle", *limits])
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    def test_no_explicit_design(self, capsys, monkeypatch, not_tau_file):
        # the verify path neither sorts blocks into a design nor counts one
        # design per group
        def refuse(*args, **kwargs):
            raise AssertionError("verify built an explicit design")

        monkeypatch.setattr(oracle, "materialize", refuse)
        monkeypatch.setattr(oracle, "lambda_table", refuse)
        code, out, _ = run_cli(
            capsys, ["verify", not_tau_file, "--t", "2", "--group", "both", "--with-oracle"])
        assert code == 1
        assert "oracle_G_blocks = 18" in out


class TestPrintedGenerators:
    """The exact verify reports of the three figures, generator lines
    included, so any change to the stabilizer search order shows here."""

    @pytest.mark.parametrize("fig, group, code, sha256", [
        ("fig1", "both", 0,
         "f4da280be579d8dd14efc746c7c29d8d65e063f9b19cfc99d1dc0d71711101ea"),
        ("fig2", "K", 0,
         "799810cb94ba1ced96b227aed7fd3b5b687b429321c6c54cec497816e638bba5"),
        ("fig3", "both", 0,
         "0170c11ca8328b149ac22086dcee058eba711c99c55b4449ae19d1df13a79b59"),
    ])
    def test_report_bytes(self, capsys, tmp_path, fig, group, code, sha256):
        path = tmp_path / f"{fig}.grid"
        path.write_text(format_graph_text(family_figure(fig)))
        got_code, out, _ = run_cli(
            capsys, ["verify", str(path), "--t", "3", "--group", group]
        )
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_fig1_generator_lines(self, capsys, tmp_path):
        path = tmp_path / "fig1.grid"
        path.write_text(format_graph_text(family_figure("fig1")))
        _, out, _ = run_cli(capsys, ["verify", str(path), "--t", "3", "--group", "both"])
        assert [line for line in out.splitlines() if line.startswith("generator")] == [
            "generator = rowcyc (4 5)",
            "generator = rowcyc (6 7)",
            "generator = rowcyc (1 2)",
            "generator = rowcyc (1 3 2)",
            "generator = rowcyc (2 3)",
            "generator = colcyc (1 2)",
            "generator = colcyc (1 3 2)",
            "generator = colcyc (2 3)",
            "generator = colcyc (6 7)",
            "generator = colcyc (4 5)",
        ]


class TestScan:
    def test_square3_golden_exact(self, capsys):
        code, out, _ = run_cli(capsys, ["scan", "--square3", "--max-m", "100"])
        assert code == 0
        expected = "".join(
            f"feasible m={m} n={m} k={k} target=square3\n"
            for m, k in [(11, 36), (25, 91), (38, 105), (41, 805),
                         (54, 1365), (74, 2025), (87, 2256)]
        )
        assert out == expected

    def test_empty_scan_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, ["scan", "--square3", "--max-m", "10"])
        assert code == 1
        assert out == ""

    def test_general3(self, capsys):
        code, out, _ = run_cli(
            capsys, ["scan", "--general3", "--max-m", "11", "--max-n", "7"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "feasible m=8 n=2 k=6 target=general3"
        assert lines[1] == "feasible m=11 n=7 k=20 target=general3"

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, ["scan", "--square3", "--max-m", "40", "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["tuples"] == [[11, 11, 36], [25, 25, 91], [38, 38, 105]]

    def test_needs_exactly_one_mode(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--max-m", "10"])
        assert code == 2

    @pytest.mark.parametrize("mode", ["--square3", "--square2"])
    def test_max_n_only_with_general3(self, capsys, mode):
        code, out, err = run_cli(capsys, ["scan", mode, "--max-m", "10", "--max-n", "4"])
        assert (code, out) == (2, "")
        assert "--max-n" in err

    def test_output_of_many_grids(self, capsys):
        # 5867 lines from 78 grids, one write per grid
        code, out, _ = run_cli(capsys, ["scan", "--square2", "--max-m", "80"])
        assert code == 0
        assert out == "".join(f"feasible m={m} n={m} k={k} target=square2\n"
                              for m, k in scan_square_2design(80))


def _flat_triples(mode, bounds):
    """What a scan prints, from the list functions: [m, n, k] per tuple."""
    if mode == "general3":
        return scanner.scan_general_3design(*bounds)
    scan = scanner.scan_square_3design if mode == "square3" else scanner.scan_square_2design
    return [[m, m, k] for m, k in scan(*bounds)]


def _scan_argv(mode, bounds, fmt):
    argv = ["scan", f"--{mode}", "--max-m", str(bounds[0])]
    if len(bounds) == 2:
        argv += ["--max-n", str(bounds[1])]
    return argv + ["--format", fmt]


class _Sink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def flush(self):
        pass


class TestScanStreams:
    """scan writes grid by grid from scanner.feasible_grids, with the same
    bytes as formatting the flat tuple lists."""

    SCANS = [("square2", (80,)), ("square2", (300,)), ("square3", (200,)),
             ("square3", (1000,)), ("general3", (60, 60)), ("general3", (40, 25))]

    @pytest.mark.parametrize("mode, bounds", SCANS)
    def test_text_is_flat(self, capsys, mode, bounds):
        code, out, _ = run_cli(capsys, _scan_argv(mode, bounds, "text"))
        assert code == 0
        assert out == "".join(f"feasible m={m} n={n} k={k} target={mode}\n"
                              for m, n, k in _flat_triples(mode, bounds))

    @pytest.mark.parametrize("mode, bounds", SCANS)
    def test_json_is_flat(self, capsys, mode, bounds):
        code, out, _ = run_cli(capsys, _scan_argv(mode, bounds, "json"))
        assert code == 0
        assert out == json.dumps({"mode": mode, "tuples": _flat_triples(mode, bounds)}) + "\n"

    @pytest.mark.parametrize("fmt, want", [
        ("text", ""), ("json", '{"mode": "square3", "tuples": []}\n'),
    ])
    def test_no_tuples(self, capsys, fmt, want):
        code, out, _ = run_cli(capsys, _scan_argv("square3", (10,), fmt))
        assert (code, out) == (1, want)

    @pytest.mark.parametrize("mode, bounds, message", [
        ("square3", (1,), "max_m must be at least 2"),
        ("square2", (1,), "max_m must be at least 2"),
        ("general3", (1, 5), "bounds must be at least 2"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bad_bound(self, capsys, mode, bounds, message, fmt):
        code, out, err = run_cli(capsys, _scan_argv(mode, bounds, fmt))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_no_flat_lists(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scan built a flat tuple list")

        for name in ("scan_square_3design", "scan_square_2design", "scan_general_3design"):
            monkeypatch.setattr(scanner, name, refuse)
        for mode, bounds in self.SCANS[::2]:
            for fmt in ("text", "json"):
                assert run_cli(capsys, _scan_argv(mode, bounds, fmt))[0] == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_memory_stays_small(self, monkeypatch, fmt):
        # about 100k tuples; held whole they peaked at about 12 MB (text)
        # and 25 MB (JSON) under tracemalloc
        argv = _scan_argv("square2", (300,), fmt)
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0  # builds the parser and the residue caches
        chars = sink.chars
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars == 2 * chars > 2_000_000
        assert peak < 2_000_000


class TestFamilyAndPipe:
    def test_family_cycle_pipes_into_verify(self, capsys, monkeypatch):
        code = main(["family", "cycle", "--k", "6", "--m", "4"])
        out = capsys.readouterr().out
        assert code == 0
        g = parse_graph_text(out)
        assert g.k == 6

        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code2 = main(["verify", "-", "--t", "2", "--group", "G"])
        out2 = capsys.readouterr().out
        assert code2 == 0
        assert "lambda_Dhat_2 = 12" in out2

    def test_family_figure(self, capsys):
        code = main(["family", "figure", "--which", "fig3"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_graph_text(out).k == 105

    def test_family_path_bad_fit_exit_2(self, capsys):
        code = main(["family", "path", "--k", "9", "--m", "4"])
        assert code == 2


class TestOracleCommand:
    def test_p5_single_coverage_48(self, capsys, tmp_path):
        path = tmp_path / "p5.grid"
        path.write_text(format_graph_text(family_path(5, 4, 4)))
        code, out, _ = run_cli(
            capsys, ["oracle", str(path), "--group", "G", "--t", "2"]
        )
        assert code == 0
        assert "coverage 48 subsets 120" in out
        assert "2design = yes" in out

    def test_flags_and_ratio(self, capsys, tmp_path):
        path = tmp_path / "c6.grid"
        path.write_text(format_graph_text(family_cycle(6, 4)))
        code, out, _ = run_cli(
            capsys,
            ["oracle", str(path), "--group", "G", "--t", "2", "--flags", "--ratio"],
        )
        assert code == 0
        assert "flag_transitive = yes" in out
        assert "orbit_ratio_design = yes" in out

    def test_flags_budget_names_limit(self, capsys, tmp_path):
        # 120 pairs fit the budget of 200; the 576 flags do not
        path = tmp_path / "c6.grid"
        path.write_text(format_graph_text(family_cycle(6, 4)))
        code, out, err = run_cli(
            capsys,
            ["oracle", str(path), "--group", "G", "--t", "2", "--flags",
             "--max-subsets", "200"],
        )
        assert code == 3
        assert out == ""
        assert "576 flags exceed budget of 200" in err

    def test_export_blocks(self, capsys, tmp_path):
        path = tmp_path / "e.grid"
        path.write_text("grid 2 2\nedge 1 1\n")
        out_path = tmp_path / "blocks.txt"
        code, _, _ = run_cli(
            capsys,
            ["oracle", str(path), "--group", "K", "--t", "2",
             "--export-blocks", str(out_path)],
        )
        assert out_path.read_text().count("block ") == 4

    @pytest.mark.parametrize("extra", [[], ["--flags"], ["--ratio", "--format", "json"]])
    def test_no_explicit_design(self, capsys, monkeypatch, tmp_path, extra):
        # without --export-blocks the command decides through orbit_verdicts:
        # no sorted design, no histogram of one
        def refuse(*args, **kwargs):
            raise AssertionError("oracle built an explicit design")

        monkeypatch.setattr(oracle, "materialize", refuse)
        monkeypatch.setattr(oracle, "lambda_table", refuse)
        path = tmp_path / "c6.grid"
        path.write_text(format_graph_text(family_cycle(6, 4)))
        code, out, _ = run_cli(
            capsys, ["oracle", str(path), "--group", "G", "--t", "2", *extra])
        assert code == 0
        assert "blocks = 96" in out or json.loads(out)["blocks"] == 96

    def test_flags_close_two_multisets(self, capsys, monkeypatch, tmp_path):
        # a tau-equivalent graph under G: one closure for the blocks (the
        # transposed block's multiset is in it), one for the flags
        closures = []
        real = oracle._multisets

        def spy(starts, n, limit):
            closures.append(list(starts))
            return real(starts, n, limit)

        monkeypatch.setattr(oracle, "_multisets", spy)
        path = tmp_path / "p5.grid"
        path.write_text(format_graph_text(family_path(5, 4, 4)))
        code, out, _ = run_cli(
            capsys, ["oracle", str(path), "--group", "G", "--t", "2", "--flags"])
        assert code == 0
        assert "blocks = 576" in out and "flag_transitive = no" in out
        assert len(closures) == 2



def exit_code(capsys, argv):
    """Exit code of a CLI call, whether argparse exits or main returns."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.fixture
def empty_file(tmp_path):
    path = tmp_path / "empty.grid"
    path.write_text("grid 3 3\n")
    return str(path)


class TestBudgetValidation:
    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("flag", ["--max-blocks", "--max-subsets"])
    def test_oracle_flag_below_one(self, capsys, empty_file, fig2_file, flag, value):
        for path in (empty_file, fig2_file):
            code, err = exit_code(capsys, ["oracle", path, "--t", "2", flag, value])
            assert code == 2
            assert flag in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("flag", ["--max-blocks", "--max-subsets"])
    def test_verify_flag_below_one(self, capsys, fig2_file, flag, value):
        code, err = exit_code(
            capsys, ["verify", fig2_file, "--t", "3", "--with-oracle", flag, value])
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize("value", ["0", "-5", "ten"])
    @pytest.mark.parametrize("var", ["GRIDDESIGNS_BUDGET_BLOCKS",
                                     "GRIDDESIGNS_BUDGET_SUBSETS"])
    def test_env_below_one(self, capsys, monkeypatch, empty_file, fig2_file, var, value):
        monkeypatch.setenv(var, value)
        for argv in (["oracle", empty_file, "--t", "2"],
                     ["oracle", fig2_file, "--t", "3"],
                     ["verify", fig2_file, "--t", "3", "--with-oracle"]):
            code, err = exit_code(capsys, argv)
            assert code == 2
            assert var in err

    def test_flag_overrides_env(self, capsys, monkeypatch, fig2_file):
        monkeypatch.setenv("GRIDDESIGNS_BUDGET_BLOCKS", "0")
        code, _ = exit_code(capsys, ["oracle", fig2_file, "--t", "3", "--max-blocks", "2240"])
        assert code == 0

    @pytest.mark.parametrize("flag", ["--max-blocks", "--max-subsets"])
    def test_verify_flag_needs_with_oracle(self, capsys, fig2_file, flag):
        code, out, err = run_cli(capsys, ["verify", fig2_file, "--t", "3", flag, "5"])
        assert code == 2
        assert out == ""
        assert f"{flag} applies only with --with-oracle" in err

    @pytest.mark.parametrize("var", ["GRIDDESIGNS_BUDGET_BLOCKS",
                                     "GRIDDESIGNS_BUDGET_SUBSETS"])
    def test_verify_env_without_oracle_is_not_read(self, capsys, monkeypatch,
                                                   fig2_file, var):
        monkeypatch.setenv(var, "1")
        code, out, _ = run_cli(capsys, ["verify", fig2_file, "--t", "3"])
        assert code == 0
        assert "D_3design = yes" in out

    def test_positive_budget_still_refuses(self, capsys, fig2_file):
        code, err = exit_code(capsys, ["oracle", fig2_file, "--t", "3", "--max-blocks", "1"])
        assert code == 3
        assert "block orbit exceeds budget of 1 blocks" in err


class TestRatioNeedsT2or3:
    def test_t4_fails_before_materializing(self, capsys, fig2_file):
        code, err = exit_code(
            capsys,
            ["oracle", fig2_file, "--group", "K", "--t", "4", "--ratio", "--max-blocks", "1"])
        assert code == 2
        assert "--ratio" in err

    def test_t4_without_ratio_runs(self, capsys, fig2_file):
        code, _ = exit_code(capsys, ["oracle", fig2_file, "--group", "K", "--t", "4"])
        assert code == 1

class TestSearchCommand:
    def test_search_writes_results(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys,
            ["search", "--m", "5", "--k", "4", "--target", "flag-dhat2",
             "--out-dir", str(out_dir)],
        )
        assert code == 0
        assert "found = 2" in out
        files = sorted(f.name for f in out_dir.iterdir())
        assert files == ["index.txt", "result_0000.grid", "result_0001.grid"]
        index = (out_dir / "index.txt").read_text()
        assert '"lambda_2": "12"' in index or '"lambda_2": "18"' in index

    def test_search_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["search", "--m", "5", "--k", "4", "--target", "flag-dhat2",
             "--format", "json"],
        )
        payload = json.loads(out)
        lams = sorted(r["dhat"]["lambda_2"] for r in payload["results"])
        assert lams == ["12", "18"]

    def test_no_results_exit_1(self, capsys):
        code, _, _ = run_cli(
            capsys, ["search", "--m", "3", "--k", "3", "--target", "dhat2"]
        )
        assert code == 1

    @pytest.mark.parametrize("m, n, k, target", [
        (1, 2, 1, "d3"),    # fewer points than t: no targets, no branches
        (256, 2, 1, "d2"),  # a side above 255
        (2, 2, 5, "d2"),    # more edges than cells
    ])
    def test_degenerate_grids_find_nothing(self, capsys, m, n, k, target):
        code, out, _ = run_cli(
            capsys,
            ["search", "--m", str(m), "--n", str(n), "--k", str(k),
             "--target", target, "--dedup", "side-preserving"],
        )
        assert (code, out) == (1, "found = 0\n")

    @pytest.mark.parametrize("argv, field", [
        ("--m 0 --k 1 --target d2 --dedup side-preserving", "m"),
        ("--m -2 --k 3 --target dhat2", "m"),
        ("--m 3 --k -1 --target dhat2", "k"),
    ])
    def test_bad_grid_exit_2(self, capsys, argv, field):
        code, out, err = run_cli(capsys, ["search", *argv.split()])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field} must be at least")

    def test_dedup_default_follows_the_grid(self, capsys):
        # fig2's parameters: a non-square grid gets side-preserving dedup
        fig2 = ["search", "--m", "8", "--n", "2", "--k", "6", "--target", "d3"]
        default = run_cli(capsys, fig2)
        assert default == run_cli(capsys, [*fig2, "--dedup", "side-preserving"])
        assert default[0] == 0
        assert default[1].endswith("\nfound = 1\n")
        code, out, err = run_cli(capsys, [*fig2, "--dedup", "allow-tau"])
        assert (code, out) == (2, "")
        assert err == "error: allow-tau dedup requires a square grid\n"
        # and a square one allow-tau
        square = ["search", "--m", "4", "--k", "5", "--target", "d2", "--format", "json"]
        for argv in (square, [*square, "--n", "4"]):
            code, out, _ = run_cli(capsys, argv)
            assert json.loads(out)["spec"]["dedup"] == "allow-tau"

    def test_library_dedup_default_is_the_cli_default(self, capsys):
        # fig2's parameters: SearchSpec resolves its default as the CLI does
        spec = SearchSpec(m=8, n=2, k=6, target="d3")
        assert spec.dedup == "side-preserving"
        assert SearchSpec(m=4, n=4, k=5, target="d2").dedup == "allow-tau"
        edges = [" ".join(f"({i},{j})" for i, j in g.edges())
                 for g, _ in exhaustive_search(spec)]
        code, out, _ = run_cli(capsys, ["search", "--m", "8", "--n", "2", "--k", "6",
                                        "--target", "d3"])
        assert code == 0
        assert [line.partition(" edges ")[2] for line in out.splitlines()[:-1]] == edges
        assert out.endswith(f"\nfound = {len(edges)}\n")
        with pytest.raises(ValueError, match="^allow-tau dedup requires a square grid$"):
            SearchSpec(m=8, n=2, k=6, target="d3", dedup="allow-tau")

    @pytest.mark.parametrize("argv, code, lines, stop", [
        # the node budget bounds the whole run, with or without a pool
        ("--m 10 --k 12 --target dhat2 --max-nodes 200", 3, 3,
         "error: node budget of 200 exhausted (resume at degree branch 1)\n"),
        ("--m 10 --k 11 --target dhat2 --max-nodes 3000", 3, 234,
         "error: node budget of 3000 exhausted (resume at degree branch 17)\n"),
        ("--m 8 --k 9 --target dhat2", 0, 73, ""),
    ])
    def test_workers_do_not_change_what_search_prints(self, capsys, monkeypatch,
                                                      argv, code, lines, stop):
        # two CPUs even on a one-CPU machine, so the branches run in a pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = run_cli(capsys, ["search", *argv.split()])
        assert (serial[0], len(serial[1].splitlines()), serial[2]) == (code, lines, stop)
        assert run_cli(capsys, ["search", *argv.split(), "--workers", "2"]) == serial

    def test_pooled_node_budget_exit_3(self, capsys, monkeypatch):
        # two CPUs even on a one-CPU machine, so the branches run in a pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run_cli(capsys, ["search", "--m", "6", "--k", "7", "--target",
                                          "dhat2", "--max-nodes", "5", "--workers", "2"])
        assert (code, out) == (3, "")
        assert re.fullmatch(
            r"error: node budget of 5 exhausted \(resume at degree branch \d+\)\n", err)


class TestSearchPins:
    """The exact stdout and exit code of searches, recorded before the
    degree-oriented canonical form, so a change to which representative is
    printed, or to the result order, shows here."""

    @pytest.mark.parametrize("argv, code, sha256", [
        ("--m 7 --k 8 --target dhat2", 0,
         "7fc52051c19580c19530292a7b84c30728113c43987d4d9368a8cdab0c2696df"),
        ("--m 7 --k 8 --target dhat2 --dedup side-preserving", 0,
         "4f5f560e4046e4e2d2f20f4330e8490c868e1f6580bfe45dd9151a6952377e96"),
        ("--m 6 --k 7 --target flag-dhat2", 1,
         "74a92bb6dd6c65be4303b960037995845167213414658ed4f122a7585aac2f9b"),
        ("--m 5 --k 10 --target dhat2", 0,
         "a10a4ac6d9dc84c79ecf893806c15bf4c16e7ff5def3b29da29353423c6d40e7"),
        ("--m 5 --k 4 --target flag-dhat2", 0,
         "eb1c82fe69b1e0cebd80d29ebf6431311b19b8b8680a6468c5c119600994cd8d"),
    ])
    def test_search_bytes(self, capsys, argv, code, sha256):
        got_code, out, _ = run_cli(capsys, ["search", *argv.split()])
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestStartBranch:
    ARGV = ["search", "--m", "5", "--k", "4", "--target", "flag-dhat2"]

    @pytest.mark.parametrize("extra", [
        ["--start-branch", "-1"],
        ["--max-nodes", "0"],
        ["--max-seconds", "0"],
    ])
    def test_bad_values_exit_2(self, capsys, extra):
        code, out, err = run_cli(capsys, self.ARGV + extra)
        assert code == 2
        assert out == ""
        assert "must be at least" in err

    def test_zero_is_the_default(self, capsys):
        _, default, _ = run_cli(capsys, self.ARGV)
        code, out, _ = run_cli(capsys, self.ARGV + ["--start-branch", "0"])
        assert code == 0
        assert out == default
        assert "result 0: k=4 lambda=12 edges (1,3) (1,4) (2,1) (2,2)" in out

    def test_resume_prints_the_rest_of_the_full_run(self, capsys):
        # branch 0 holds result 0; the transpose of result 0 lies in the
        # mirror branch, which is skipped also in a resumed run
        code, out, _ = run_cli(capsys, self.ARGV + ["--start-branch", "1"])
        assert code == 0
        assert out == ("result 0: k=4 lambda=18 edges (1,2) (1,3) (2,1) (3,1)\n"
                       "found = 1\n")

    def test_node_budget_exit_3(self, capsys):
        # branch 0 is finished within the budget, so its result is printed
        code, out, err = run_cli(capsys, self.ARGV + ["--max-nodes", "5"])
        assert code == 3
        assert out == "result 0: k=4 lambda=12 edges (1,3) (1,4) (2,1) (2,2)\n"
        assert "node budget of 5 exhausted (resume at degree branch 1)" in err

    def test_stopped_run_writes_index(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, self.ARGV + ["--max-nodes", "5",
                                                      "--out-dir", str(tmp_path)])
        assert code == 3
        assert out == "result 0: k=4 lambda=12 edges (1,3) (1,4) (2,1) (2,2)\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["index.txt",
                                                              "result_0000.grid"]
        lines = (tmp_path / "index.txt").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("result_0000.grid {")
        assert lines[1] == ("stopped: node budget of 5 exhausted "
                            "(resume at degree branch 1)")

    @pytest.mark.parametrize("budget", ["1", "5", "10"])
    def test_stopped_run_then_resume_is_the_full_run(self, capsys, budget):
        def edge_lists(out):
            return [line.partition(" edges ")[2] for line in out.splitlines()
                    if line.startswith("result ")]

        _, full, _ = run_cli(capsys, self.ARGV)
        code, stopped, err = run_cli(capsys, self.ARGV + ["--max-nodes", budget])
        assert code == 3
        assert "found =" not in stopped
        hint = re.search(r"resume at degree branch (\d+)", err).group(1)
        _, resumed, _ = run_cli(capsys, self.ARGV + ["--start-branch", hint])
        assert edge_lists(stopped) + edge_lists(resumed) == edge_lists(full)

    def test_one_group_per_flag_result(self, capsys, monkeypatch):
        # new_class returns a stabilizer report for a new class only
        reports = []
        original = permgroup.new_class

        def counting(g, kept, allow_tau=False):
            report = original(g, kept, allow_tau)
            if report is not None:
                reports.append(report)
            return report

        monkeypatch.setattr(permgroup, "new_class", counting)
        code, out, _ = run_cli(capsys, self.ARGV)
        assert code == 0
        assert out.endswith("found = 2\n")
        assert len(reports) == 2

    def test_past_the_last_branch_finds_nothing(self, capsys):
        spec = SearchSpec(m=5, n=5, k=4, target="flag-dhat2")
        last = str(len(degree_branches(spec)))
        code, out, _ = run_cli(capsys, self.ARGV + ["--start-branch", last])
        assert code == 1
        assert out == "found = 0\n"

    @pytest.mark.parametrize("extra", [1, 4])
    def test_beyond_the_branch_count_exit_2(self, capsys, extra):
        count = len(degree_branches(SearchSpec(m=5, n=5, k=4, target="flag-dhat2")))
        assert count == 3
        start = str(count + extra)
        code, out, err = run_cli(capsys, self.ARGV + ["--start-branch", start])
        assert code == 2
        assert out == ""
        assert f"start_branch {start} is past the end: there are 3 degree branches" in err


def run_module(argv, module="griddesigns.cli"):
    """Run the CLI as `python -m griddesigns.cli` (or another module),
    importing the same package as the tests (also from an uninstalled
    checkout)."""
    src = str(Path(griddesigns.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env,
    )


class TestMainCalledAgain:
    """main reuses one parser per process; options of one call must not
    leak into the next."""

    def test_consecutive_calls_match_fresh_processes(self, capsys, p4_file):
        calls = [
            ["verify", p4_file, "--group", "G"],
            ["verify", p4_file, "--group", "X"],
            ["verify", p4_file],
            ["search", "--m", "5", "--n", "3", "--k", "4", "--target", "d2",
             "--dedup", "side-preserving", "--format", "json"],
            ["search", "--m", "5", "--k", "4", "--target", "flag-dhat2",
             "--format", "json"],
            ["search", "--m", "5", "--k", "4", "--target", "flag-dhat2",
             "--start-branch", "9"],
            ["search", "--m", "5", "--k", "4", "--target", "flag-dhat2"],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, capsys.readouterr().out))
        fresh = [(proc.returncode, proc.stdout) for proc in map(run_module, calls)]
        assert in_process == fresh
        # the group only moves the verdict: G is positive for p4, K is not
        assert [code for code, _ in in_process] == [0, 2, 1, 1, 0, 2, 0]
        assert '"n": 3' in in_process[3][1] and '"n": 5' in in_process[4][1]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = run_module(["scan", "--square3", "--max-m", "11"])
        assert proc.returncode == 0
        assert proc.stdout == "feasible m=11 n=11 k=36 target=square3\n"

    def test_usage_error_exit_2(self):
        proc = run_module(["scan"])
        assert proc.returncode == 2

    def test_package_runs_as_module(self):
        proc = run_module(["scan", "--square3", "--max-m", "11"], module="griddesigns")
        assert proc.returncode == 0
        assert proc.stdout == "feasible m=11 n=11 k=36 target=square3\n"
        assert run_module(["scan"], module="griddesigns").returncode == 2
