"""The public surface of the package: the names `griddesigns` exports, the
fields of its report records, and the README's library and CLI examples run
as written."""

import io
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import griddesigns
from griddesigns.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Removing or adding a public name is a deliberate change to this list.
PUBLIC = [
    "BiGraph",
    "GraphFormatError",
    "SubgraphStats",
    "complement",
    "degrees",
    "format_graph_text",
    "from_edge_list",
    "parse_graph_text",
    "stats",
    "transpose",
    "CaseReport",
    "CriteriaReport",
    "DesignReport",
    "count_targets",
    "evaluate",
    "Budget",
    "BudgetExceededError",
    "ExplicitDesign",
    "flag_transitive_direct",
    "materialize",
    "orbit_ratio_check",
    "orbit_verdicts",
    "AutReport",
    "GridPerm",
    "apply",
    "automorphisms",
    "group_order",
    "is_edge_transitive",
    "tau_equivalent",
    "SearchBudgetError",
    "SearchSpec",
    "exhaustive_search",
    "family_cycle",
    "family_figure",
    "family_path",
]


def test_public_names_are_pinned():
    assert griddesigns.__all__ == PUBLIC
    # a star import fails on any listed name the package does not define
    namespace = {}
    exec("from griddesigns import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def test_report_fields_are_pinned():
    # every verdict is read from these records; a field is a public name
    assert [f.name for f in fields(griddesigns.CriteriaReport)] == [
        "m", "n", "k", "d", "dhat", "case_2", "case_3", "tau_equivalent",
        "outside_standard_range"]
    assert [f.name for f in fields(griddesigns.DesignReport)] == [
        "is_2design", "is_3design", "lambda_2", "lambda_3", "blocks",
        "stabilizer_order"]
    assert [f.name for f in fields(griddesigns.CaseReport)] == [
        "t", "label", "row_2paths_match", "row_claws_match"]


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    exec(compile(block, str(README), "exec"), {})


def _cli_examples():
    """The README's CLI examples: (command line, shown output lines)."""
    section = README.read_text().split("## CLI")[1].split("\n## ")[0]
    for block in re.findall(r"```\n(\$ .*?)```", section, re.S):
        command, *shown = block.splitlines()
        yield command[2:], shown


@pytest.mark.parametrize("command, shown", [
    pytest.param(command, shown, id=command) for command, shown in _cli_examples()])
def test_readme_cli_example_prints_what_it_shows(command, shown, capsys, monkeypatch):
    # each stage of the pipeline reads the previous stage's output; a "..."
    # line stands for omitted lines, so the shown lines appear in order,
    # and an example without one shows the whole output
    out = ""
    for stage in command.split(" | "):
        program, *argv = stage.split()
        assert program == "griddesigns"
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert main(argv) == 0, stage
        out = capsys.readouterr().out
    lines = out.splitlines()
    if "..." not in shown:
        assert lines == shown
        return
    rest = iter(lines)
    assert all(line in rest for line in shown if line != "...")
