"""griddesigns: exact tools for block-transitive designs on m x n grids.

Blocks are encoded as subgraphs of the complete bipartite graph K_{m,n};
their orbits under row/column permutations (and, on square grids, under the
full automorphism group of K_{m,m}) form 1-designs whose 2- and 3-design
properties this package verifies, classifies and searches for, entirely in
exact integer arithmetic.
"""

from .bigraph import (
    BiGraph,
    GraphFormatError,
    SubgraphStats,
    complement,
    degrees,
    format_graph_text,
    from_edge_list,
    parse_graph_text,
    stats,
    transpose,
)
from .criteria import (
    CaseReport,
    CriteriaReport,
    DesignReport,
    count_targets,
    evaluate,
)
from .oracle import (
    Budget,
    BudgetExceededError,
    ExplicitDesign,
    flag_transitive_direct,
    materialize,
    orbit_ratio_check,
    orbit_verdicts,
)
from .permgroup import (
    AutReport,
    GridPerm,
    apply,
    automorphisms,
    group_order,
    is_edge_transitive,
    tau_equivalent,
)
from .search import (
    SearchBudgetError,
    SearchSpec,
    exhaustive_search,
    family_cycle,
    family_figure,
    family_path,
)

__all__ = [
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

__version__ = "0.1.0"
