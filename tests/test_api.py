"""The public surface of the package: the names `griddesigns` exports, and the
README's library example run as written."""

import re
from pathlib import Path

import griddesigns

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
    "check_D",
    "check_Dhat",
    "classify_case",
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


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    exec(compile(block, str(README), "exec"), {})
