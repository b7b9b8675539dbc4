"""Independent reference paths for the subgraph counts and the D verdict,
kept for the tests only.

`stats_by_enumeration` counts 2-paths, 3-claws and 3-paths by listing the
2- and 3-edge subsets of a block graph, without the degree formulas of
`griddesigns.bigraph.stats`.  `check_D_tau_reduced` is the reduced 2-design
test for tau-equivalent square graphs, written out apart from the target
table in `griddesigns.criteria`.  `paper_lambda` gives the paper's closed
forms of the four lambdas.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

from griddesigns.bigraph import BiGraph, SubgraphStats, stats
from griddesigns.criteria import CriteriaReport


def stats_by_enumeration(g: BiGraph) -> SubgraphStats:
    """Subgraph counts by explicit enumeration of 2- and 3-edge subsets.

    Independent of the degree formulas; used as the debug/oracle path.  Cost
    is C(k, 3), fine for the sizes it is meant for.
    """
    cells = g.edges()
    p2_r = p2_c = 0
    for (a, b), (c, d) in combinations(cells, 2):
        if a == c and b != d:
            p2_r += 1
        elif b == d and a != c:
            p2_c += 1
    p3 = claw3_r = claw3_c = 0
    for triple in combinations(cells, 3):
        rows = {e[0] for e in triple}
        cols = {e[1] for e in triple}
        if len(rows) == 1 and len(cols) == 3:
            claw3_r += 1
        elif len(cols) == 1 and len(rows) == 3:
            claw3_c += 1
        elif len(rows) == 2 and len(cols) == 2:
            # three distinct cells in a 2x2 window form an L, i.e. a 3-path
            p3 += 1
    return SubgraphStats(p2_r, p2_c, p3, claw3_r, claw3_c)


def check_D_tau_reduced(g: BiGraph) -> bool | None:
    """Redundant verdict path for tau-equivalent square graphs: then D is a
    2-design iff the total 2-path count is k(k-1)/(m+1).  Returns None when
    the reduction does not apply (callers must check tau-equivalence)."""
    if g.m != g.n or g.k < 2:
        return None
    st = stats(g)
    if st.p2_r != st.p2_c:
        # tau-equivalence forces equal type counts; reduction not applicable
        return None
    return st.p2_total == Fraction(g.k * (g.k - 1), g.m + 1)


def paper_lambda(report: CriteriaReport, design: str, t: int) -> Fraction:
    """The paper's closed form of lambda_t of one design of a report, named
    by its CriteriaReport field ("d" or "dhat"), from the grid, k and that
    design's stabilizer order; the caller asks only where the report has
    that lambda."""
    m, n, k = report.m, report.n, report.k
    v = m * n
    stab = getattr(report, design).stabilizer_order
    if (design, t) == ("d", 2):
        return Fraction(k * (k - 1) * factorial(m - 1) * factorial(n - 1),
                        (v - 1) * stab)
    if (design, t) == ("d", 3):
        return Fraction(k * (k - 1) * (k - 2) * factorial(m - 1) * factorial(n - 1),
                        (v - 1) * (v - 2) * stab)
    if (design, t) == ("dhat", 2):
        return Fraction(2 * k * (k - 1) * factorial(m - 1) * factorial(m - 2),
                        (m + 1) * stab)
    if (design, t) == ("dhat", 3):
        return Fraction(2 * k * (k - 1) * (k - 2) * factorial(m - 1) * factorial(m - 2),
                        (m + 1) * (m * m - 2) * stab)
    raise ValueError(f"unknown lambda {design!r}, t = {t}")
