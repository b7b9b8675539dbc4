"""Exact t-design criteria for grid incidence structures, t in {2, 3}.

Two structures are attached to a block graph: D, whose blocks form the orbit
of the block under independent row/column permutations, and (on square grids)
Dhat, the orbit under the full automorphism group of K_{m,m}.  Both are
always 1-designs; whether they are 2- or 3-designs is decided purely by the
subgraph statistics of the block graph, and every test below is an exact
integer equality.  Neither structure is ever a 4-design.

Lambda values need the stabilizer orders and are therefore only computed when
an AutReport is supplied; verdicts alone never pay the automorphism cost.
They follow from the counting identity of a block-transitive t-design,
lambda_t (v)_t = b (k)_t with b = |group| / |stabilizer| (K for D, G for Dhat).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .bigraph import BiGraph, SubgraphStats, stats
from .permgroup import AutReport, group_order


@dataclass(frozen=True)
class CaseReport:
    """Trichotomy of a t-design on a square grid, by the verdicts of the
    report's d and dhat records, with the discriminators.

    case1: D = Dhat (tau-equivalent) and D is a t-design.
    case2: D != Dhat and D is a t-design (then Dhat is too).
    case3: Dhat is a t-design but D is not.
    none:  Dhat is not a t-design.

    row_2paths_match / row_claws_match report whether the row-side counts hit
    the half-share values that separate case 3 from the others.
    """

    t: int
    label: str
    row_2paths_match: bool
    row_claws_match: bool | None  # only meaningful for t = 3


@dataclass(frozen=True)
class DesignReport:
    """Verdicts of one design, D or Dhat.  With an AutReport it also holds
    the lambdas of the positive verdicts, the block count b and the order
    of the block's stabilizer in the design's group (K for D, G for Dhat)."""

    is_2design: bool
    is_3design: bool
    lambda_2: int | None
    lambda_3: int | None
    blocks: int | None
    stabilizer_order: int | None


@dataclass(frozen=True)
class CriteriaReport:
    """Full criteria evaluation for one block graph: a DesignReport for D,
    and on square grids one for Dhat (None otherwise)."""

    m: int
    n: int
    k: int
    d: DesignReport
    dhat: DesignReport | None
    case_2: CaseReport | None
    case_3: CaseReport | None
    tau_equivalent: bool | None
    outside_standard_range: bool  # k outside 3 <= k <= mn/2


def outside_standard_range(g: BiGraph) -> bool:
    """The criteria are stated under 3 <= k <= mn/2; callers get a warning
    flag outside that range rather than a refusal."""
    return not (3 <= g.k and 2 * g.k <= g.m * g.n)


def count_targets(design: str, m: int, n: int, t: int) -> dict[str, tuple[int, int]]:
    """Exact count targets that level t adds, for design "D" or "Dhat".

    Maps each count, named as its SubgraphStats field, to an integer pair
    (c, d): the count must equal c * k(k-1)...(k-t+1) / d.  Level 3 lists
    only what it adds to level 2; a t-design must hit the targets of every
    level up to t.  Defined for v = mn >= t, where every d is positive.
    """
    if t not in (2, 3):
        raise ValueError("t must be 2 or 3")
    if m * n < t:
        raise ValueError(f"count targets need at least t = {t} points")
    v = m * n
    if design == "D":
        if t == 2:
            return {"p2_r": (n - 1, 2 * (v - 1)), "p2_c": (m - 1, 2 * (v - 1))}
        d3 = (v - 1) * (v - 2)
        return {
            "claw3_r": ((n - 1) * (n - 2), 6 * d3),
            "claw3_c": ((m - 1) * (m - 2), 6 * d3),
            "p3": ((m - 1) * (n - 1), d3),
        }
    if design != "Dhat":
        raise ValueError(f"unknown design {design!r}")
    if m != n:
        raise ValueError("Dhat criteria require a square grid")
    if t == 2:
        return {"p2_total": (1, m + 1)}
    d3 = (m + 1) * (m * m - 2)
    return {"claw3_total": (m - 2, 3 * d3), "p3": (m - 1, d3)}


def _hits(st: SubgraphStats, design: str, m: int, n: int, k: int, t: int,
          names=None) -> bool:
    """Whether the level-t counts (only `names`, when given) hit their
    targets, compared as integers: count * d == c * k(k-1)...(k-t+1)."""
    f = perm(k, t)
    return all(getattr(st, name) * d == c * f
               for name, (c, d) in count_targets(design, m, n, t).items()
               if names is None or name in names)


def _check(g: BiGraph, design: str, st: SubgraphStats,
           aut: AutReport | None = None) -> DesignReport:
    """The report of design "D" (the orbit under K) or "Dhat" (the orbit
    under G, square grids only), from st = stats(g).  A 2-design hits the
    level-2 targets of count_targets: for D the 2-paths of each type, e.g.
    k(k-1)(n-1) / (2(mn-1)) for type R, for Dhat the total k(k-1)/(m+1); a
    3-design also hits level 3.  Non-integral right-hand sides simply fail."""
    m, n, k = g.m, g.n, g.k
    is2 = is3 = False
    if m * n >= 2 and k >= 2:
        is2 = _hits(st, design, m, n, k, 2)
        is3 = is2 and k >= 3 and _hits(st, design, m, n, k, 3)
    if aut is None:
        return DesignReport(is2, is3, None, None, None, None)
    group, stab = ("K", aut.k_order) if design == "D" else ("G", aut.g_order)
    if stab is None:
        raise ValueError("AutReport has no G data")
    lams = [None, None]
    for t, hit in ((2, is2), (3, is3)):
        if hit:
            lam, rem = divmod(group_order(m, n, group) * perm(k, t),
                              stab * perm(m * n, t))
            if rem:
                raise ArithmeticError(f"lambda_{t} of {design} is not an integer")
            lams[t - 2] = lam
    return DesignReport(is2, is3, *lams, group_order(m, n, group) // stab, stab)


def _case(g: BiGraph, st: SubgraphStats, aut: AutReport, t: int,
          d: DesignReport, dhat: DesignReport) -> CaseReport:
    """Place a square-grid block graph in the t-design trichotomy, given
    stats(g) and the reports of D and Dhat.  The case-3 side condition
    (row-side 2-path count, and for t = 3 also the row-side 3-claw count,
    off their half-share values) must agree with the verdicts."""
    if aut.tau_equivalent is None:
        raise ValueError("AutReport has no G data")
    d_design, dhat_design = (getattr(rep, f"is_{t}design") for rep in (d, dhat))
    m, k = g.m, g.k

    # the half shares are D's row-side targets on the square grid; on a
    # 1x1 grid every count is zero and k < t, so they hold vacuously
    row_2paths_match = m == 1 or _hits(st, "D", m, m, k, 2, ("p2_r",))
    row_claws_match = None
    if t == 3:
        row_claws_match = m == 1 or _hits(st, "D", m, m, k, 3, ("claw3_r",))

    if aut.tau_equivalent and d_design:
        label = "case1"
    elif not aut.tau_equivalent and d_design:
        label = "case2"
    elif dhat_design and not d_design:
        label = "case3"
    else:
        label = "none"

    if label == "case3":
        # discriminator route must agree with the verdict route
        if t == 2:
            assert dhat_design and not row_2paths_match
        else:
            assert dhat_design and (not row_2paths_match or not row_claws_match)

    return CaseReport(t, label, row_2paths_match, row_claws_match)


def evaluate(g: BiGraph, aut: AutReport | None = None) -> CriteriaReport:
    """The one criteria entry point: the report of both designs, with block
    counts and lambdas only given an AutReport (lambdas only for positive
    verdicts), and then on square grids the cases.  The subgraph counts are
    computed once, and so is each design's check."""
    st = stats(g)
    d = _check(g, "D", st, aut)
    dhat = case_2 = case_3 = None
    if g.m == g.n:
        dhat = _check(g, "Dhat", st, aut)
        if aut is not None:
            case_2, case_3 = (_case(g, st, aut, t, d, dhat) for t in (2, 3))
    return CriteriaReport(
        m=g.m,
        n=g.n,
        k=g.k,
        d=d,
        dhat=dhat,
        case_2=case_2,
        case_3=case_3,
        tau_equivalent=aut.tau_equivalent if aut else None,
        outside_standard_range=outside_standard_range(g),
    )
