"""Acceptance suite: one test per acceptance criterion.

Each test prints `criterion NN PASS/FAIL <summary>` (visible with `pytest -s`)
and enforces the stated runtime bound.  Criteria 8-10 share one sweep over
all row/column-isomorphism classes of subgraphs of K_{m,n} with m, n <= 4.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

import pytest

from griddesigns.bigraph import complement, stats
from griddesigns.criteria import evaluate
from griddesigns.oracle import (
    ExplicitDesign,
    flag_transitive_direct,
    materialize,
    orbit_verdicts,
)
from griddesigns.permgroup import automorphisms, is_edge_transitive
from griddesigns.search import (
    SearchSpec,
    exhaustive_search,
    family_cycle,
    family_figure,
    family_path,
)

from conftest import iso_class_reps
from oracle_reference import is_complete, lambda_table
from scan_reference import flat_scan
from test_criteria import cycle_lambda_closed_form, path_lambda_closed_form


@contextmanager
def criterion(num: int, summary: str, limit_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if limit_seconds is not None and elapsed >= limit_seconds:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds}s"
            )
    except BaseException:
        print(f"criterion {num:2d} FAIL  {summary}")
        raise
    print(f"criterion {num:2d} PASS  {summary}  ({elapsed:.2f}s)")


def test_criterion_1_square3_golden():
    with criterion(1, "square-grid 3-design feasibility list to m=100", 10):
        out = flat_scan("square3", 100)
        assert out == [
            [11, 36], [25, 91], [38, 105], [41, 805],
            [54, 1365], [74, 2025], [87, 2256],
        ]


def test_criterion_2_general3_firsts():
    with criterion(2, "general-grid 3-design scan firsts", 60):
        out = flat_scan("general3", 11, 7)
        assert out[0] == [8, 2, 6]
        assert out[1] == [11, 7, 20]


def test_criterion_3_fig2_end_to_end():
    with criterion(3, "8x2 witness verifies as 3-(16,6,80), criteria and oracle", 30):
        g = family_figure("fig2")
        d = evaluate(g, automorphisms(g)).d
        assert d.is_2design and d.is_3design and d.lambda_3 == 80
        assert orbit_verdicts(g, 3, ["K"]) == {"K": (2240, True, {80: 560})}


def test_criterion_4_fig1_criteria():
    with criterion(4, "11x11 witness: counts, stabilizer 576, Dhat 3-design", 60):
        g = family_figure("fig1")
        assert g.k == 36
        st = stats(g)
        assert st.p2_total == 105
        assert st.p3 == 300
        assert st.claw3_total == 90
        aut = automorphisms(g)
        assert aut.g_order == 576
        assert aut.tau_equivalent is False
        rep = evaluate(g, aut)
        assert rep.dhat.is_2design and rep.dhat.is_3design
        assert rep.dhat.lambda_3 == 137_168_640_000
        # the row/column-orbit design fails already at t = 2
        assert rep.d.is_2design is False
        assert st.p2_r != st.p2_c


def test_criterion_5_path_family():
    with criterion(5, "diagonal paths, m <= 100: Dhat 2-designs, lambdas, cases, oracle", 60):
        for m in range(3, 101):
            k = m + 1
            g = family_path(k, m, m)
            aut = automorphisms(g)
            rep = evaluate(g, aut)
            assert rep.dhat.is_2design, m
            lam2 = rep.dhat.lambda_2
            assert lam2 == path_lambda_closed_form(k), m
            assert rep.case_2.label == ("case1" if m % 2 == 0 else "case3"), m
            if m <= 5:
                _, verdict, hist = orbit_verdicts(g, 2, ["G"])["G"]
                assert verdict is True
                assert set(hist) == {lam2}
        assert path_lambda_closed_form(5) == 48


def test_criterion_6_cycle_family():
    with criterion(6, "cycles, even m <= 100: flag-transitive 2-designs, lambdas", 60):
        assert [cycle_lambda_closed_form(k) for k in (6, 8)] == [12, 720]
        for m in range(4, 101, 2):
            k = m + 2
            g = family_cycle(k, m)
            aut = automorphisms(g)
            dhat = evaluate(g, aut).dhat
            assert dhat.is_2design and dhat.lambda_2 == cycle_lambda_closed_form(k), m
            assert is_edge_transitive(g, aut, "G") is True, m
            if m == 4:
                b, verdict, hist = orbit_verdicts(g, 2, ["G"])["G"]
                assert flag_transitive_direct(g, "G", b) is True
                assert verdict and set(hist) == {12}


def test_criterion_7_block_size_four_search():
    with criterion(7, "5x5 block-size-4 flag-transitive search: two classes", 300):
        spec = SearchSpec(m=5, n=5, k=4, target="flag-dhat2", dedup="allow-tau")
        results = [g for g, _ in exhaustive_search(spec)]
        assert len(results) == 2
        lams = []
        for g in results:
            rep = evaluate(g, automorphisms(g))
            lams.append(rep.dhat.lambda_2)
        assert sorted(lams) == [12, 18]


# ---------------------------------------------------------------------------
# Shared sweep for criteria 8-10
# ---------------------------------------------------------------------------

_SWEEP: list[dict] | None = None


def _complement_design(d: ExplicitDesign) -> ExplicitDesign:
    everything = frozenset(range(d.v))
    return ExplicitDesign(
        d.m, d.n, tuple(tuple(sorted(everything.difference(blk))) for blk in d.blocks),
        d.group_tag,
    )


def _is_design(d: ExplicitDesign, t: int) -> bool:
    """The t-design verdict on an explicit design: one coverage value, and
    blocks of at least t points."""
    return len(lambda_table(d, t)) == 1 and d.k >= t


def get_sweep() -> list[dict]:
    """Every iso class with 1 <= k <= mn/2 on grids with m, n <= 4, with its
    materialized K-design (and G-design on square grids)."""
    global _SWEEP
    if _SWEEP is None:
        entries = []
        for m in range(1, 5):
            for n in range(1, 5):
                for g in iso_class_reps(m, n):
                    if g.k < 1 or 2 * g.k > m * n:
                        continue
                    entry = {
                        "g": g,
                        "k_design": materialize(g, "K"),
                        "g_design": materialize(g, "G") if m == n else None,
                    }
                    entries.append(entry)
        _SWEEP = entries
    return _SWEEP


def test_criterion_8_criteria_oracle_equivalence():
    with criterion(8, "criteria == oracle on every class with m,n <= 4", 600):
        disagreements = []
        for entry in get_sweep():
            g = entry["g"]
            rep = evaluate(g)
            expected = {("K", 2): rep.d.is_2design, ("K", 3): rep.d.is_3design}
            if entry["g_design"] is not None:
                expected.update({("G", 2): rep.dhat.is_2design,
                                 ("G", 3): rep.dhat.is_3design})
            groups = ["K", "G"] if entry["g_design"] is not None else ["K"]
            for t in (2, 3):
                for group, (_, got, _) in orbit_verdicts(g, t, groups).items():
                    if got != expected[group, t]:
                        disagreements.append((g, group, t))
        assert disagreements == []


def test_criterion_9_no_4designs():
    with criterion(9, "no 4-designs among k >= 3 classes unless complete", 600):
        offenders = []
        for entry in get_sweep():
            if entry["g"].k < 3:
                continue
            for d in (entry["k_design"], entry["g_design"]):
                if d is None:
                    continue
                if _is_design(d, 4) and not is_complete(d):
                    offenders.append((entry["g"], d.group_tag))
        assert offenders == []


def test_criterion_10_complement_duality():
    with criterion(10, "oracle verdicts agree for each class and its complement", 600):
        disagreements = []
        for entry in get_sweep():
            g = entry["g"]
            if 2 * g.k >= g.m * g.n:  # complements need k < mn/2
                continue
            for d in (entry["k_design"], entry["g_design"]):
                if d is None:
                    continue
                comp = _complement_design(d)
                for t in (2, 3):
                    if g.k < t:
                        # blocks smaller than t are never t-designs while the
                        # complement may be one; the complement statement only
                        # applies for t <= k <= v - t
                        continue
                    if _is_design(d, t) != _is_design(comp, t):
                        disagreements.append((g, d.group_tag, t))
        assert disagreements == []


def test_criterion_11_fig3_criteria():
    with criterion(11, "38x38 witness: 3-design criteria, stabilizer, lambdas", 120):
        g = family_figure("fig3")
        assert g.k == 105
        aut = automorphisms(g)
        assert aut.k_order == 2**9 * factorial(3) * factorial(4) * factorial(5) ** 2
        assert aut.tau_equivalent is False
        rep = evaluate(g, aut)
        assert rep.d.is_2design and rep.d.is_3design
        assert rep.dhat.is_2design and rep.dhat.is_3design
        lam_d3 = rep.d.lambda_3
        assert rep.dhat.lambda_3 == 2 * lam_d3
        m, k = 38, 105
        closed_form = Fraction(
            k * (k - 1) * (k - 2) * factorial(m - 1) * factorial(m - 2),
            (m + 1) * (m * m - 2) * aut.k_order,
        )
        assert closed_form.denominator == 1
        assert lam_d3 == int(closed_form)
        # the reported magnitude: ~9.6 * 10^76
        digits = str(lam_d3)
        assert len(digits) == 77
        assert digits[:2] == "96"
        # counting identity at full scale
        assert rep.d.lambda_3 * comb(38 * 38, 3) == rep.d.blocks * comb(105, 3)
