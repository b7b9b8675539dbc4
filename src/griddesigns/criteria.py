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
    """Trichotomy of a t-design on a square grid, with the discriminators.

    case1: D = Dhat (tau-equivalent) and D is a t-design.
    case2: D != Dhat and D is a t-design (then Dhat is too).
    case3: Dhat is a t-design but D is not.
    none:  Dhat is not a t-design.

    row_2paths_match / row_claws_match report whether the row-side counts hit
    the half-share values that separate case 3 from the others.
    """

    t: int
    label: str
    d_is_design: bool
    dhat_is_design: bool
    row_2paths_match: bool
    row_claws_match: bool | None  # only meaningful for t = 3


@dataclass(frozen=True)
class CriteriaReport:
    """Full criteria evaluation for one block graph."""

    m: int
    n: int
    k: int
    d_is_2design: bool
    d_is_3design: bool
    dhat_is_2design: bool | None
    dhat_is_3design: bool | None
    case_2: CaseReport | None
    case_3: CaseReport | None
    lambda_d_2: int | None
    lambda_d_3: int | None
    lambda_dhat_2: int | None
    lambda_dhat_3: int | None
    b_d: int | None
    b_dhat: int | None
    k_order: int | None
    g_order: int | None
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


def _check(g: BiGraph, design: str, st: SubgraphStats | None = None,
           aut: AutReport | None = None):
    """check_D (design "D", the orbit under K) or check_Dhat ("Dhat", the
    orbit under G), from st = stats(g) when the caller has it."""
    m, n, k = g.m, g.n, g.k
    if design == "Dhat" and m != n:
        raise ValueError("Dhat criteria require a square grid")
    if m * n < 2 or k < 2:
        return False, False, None, None
    if st is None:
        st = stats(g)
    is2 = _hits(st, design, m, n, k, 2)
    is3 = is2 and k >= 3 and _hits(st, design, m, n, k, 3)
    lams = [None, None]
    if aut is not None:
        group, stab = ("K", aut.k_order) if design == "D" else ("G", aut.g_order)
        if stab is None:
            raise ValueError("AutReport has no G data")
        for t, hit in ((2, is2), (3, is3)):
            if hit:
                lam, rem = divmod(group_order(m, n, group) * perm(k, t),
                                  stab * perm(m * n, t))
                if rem:
                    raise ArithmeticError(f"lambda_{t} of {design} is not an integer")
                lams[t - 2] = lam
    return is2, is3, *lams


def check_D(g: BiGraph, aut: AutReport | None = None):
    """Verdicts (and lambdas, when aut is given) for the row/column-orbit
    design D.

    2-design: the counts of 2-paths of each type hit their targets in
    count_targets("D", m, n, 2), e.g. k(k-1)(n-1) / (2(mn-1)) for type R.
    3-design: additionally the two 3-claw counts and the 3-path count hit
    the level-3 targets.  Non-integral right-hand sides simply fail.
    Returns (is_2design, is_3design, lambda_2, lambda_3).
    """
    return _check(g, "D", aut=aut)


def check_Dhat(g: BiGraph, aut: AutReport | None = None):
    """Verdicts (and lambdas) for the full-group design Dhat; m = n required.

    2-design: total 2-paths = k(k-1)/(m+1).
    3-design: additionally the total 3-claws and the 3-paths hit the
    level-3 targets of count_targets("Dhat", m, m, 3).
    Returns (is_2design, is_3design, lambda_2, lambda_3).
    """
    return _check(g, "Dhat", aut=aut)


def classify_case(g: BiGraph, aut: AutReport, t: int) -> CaseReport:
    """Place a square-grid block graph in the t-design trichotomy.

    The case-3 side condition (row-side 2-path count, and for t = 3 also the
    row-side 3-claw count, off their half-share values) is evaluated and
    reported; it must agree with the direct comparison of the two verdicts.
    """
    if g.m != g.n:
        raise ValueError("case classification requires a square grid")
    if t not in (2, 3):
        raise ValueError("t must be 2 or 3")
    st = stats(g)
    return _case(g, st, aut, t, _check(g, "D", st)[t - 2], _check(g, "Dhat", st)[t - 2])


def _case(g: BiGraph, st: SubgraphStats, aut: AutReport, t: int,
          d_design: bool, dhat_design: bool) -> CaseReport:
    """classify_case, given stats(g) and the level-t verdicts of D and Dhat."""
    if aut.tau_equivalent is None:
        raise ValueError("AutReport has no G data")
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

    return CaseReport(t, label, d_design, dhat_design, row_2paths_match, row_claws_match)


def evaluate(g: BiGraph, aut: AutReport | None = None) -> CriteriaReport:
    """Assemble the full report; block counts and lambdas appear only with an
    AutReport, lambdas only for positive verdicts.  The subgraph counts are
    computed once, and so is each design's check."""
    st = stats(g)
    d2, d3, lam_d2, lam_d3 = _check(g, "D", st, aut)
    h2 = h3 = lam_h2 = lam_h3 = None
    case_2 = case_3 = b_dhat = None
    if g.m == g.n:
        h2, h3, lam_h2, lam_h3 = _check(g, "Dhat", st, aut)
        if aut is not None:
            case_2 = _case(g, st, aut, 2, d2, h2)
            case_3 = _case(g, st, aut, 3, d3, h3)
            b_dhat = group_order(g.m, g.n, "G") // aut.g_order
    return CriteriaReport(
        m=g.m,
        n=g.n,
        k=g.k,
        d_is_2design=d2,
        d_is_3design=d3,
        dhat_is_2design=h2,
        dhat_is_3design=h3,
        case_2=case_2,
        case_3=case_3,
        lambda_d_2=lam_d2,
        lambda_d_3=lam_d3,
        lambda_dhat_2=lam_h2,
        lambda_dhat_3=lam_h3,
        b_d=group_order(g.m, g.n, "K") // aut.k_order if aut else None,
        b_dhat=b_dhat,
        k_order=aut.k_order if aut else None,
        g_order=aut.g_order if aut else None,
        tau_equivalent=aut.tau_equivalent if aut else None,
        outside_standard_range=outside_standard_range(g),
    )
