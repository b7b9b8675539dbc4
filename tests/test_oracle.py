import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from griddesigns.bigraph import BiGraph, from_edge_list
from griddesigns.criteria import check_D, check_Dhat, evaluate
from griddesigns.oracle import (
    Budget,
    BudgetExceededError,
    design_verdict,
    export_block_list,
    flag_transitive_direct,
    lambda_table,
    materialize,
    orbit_ratio_check,
)
from griddesigns.permgroup import automorphisms, group_order, is_edge_transitive
from griddesigns.search import family_cycle, family_figure, family_path

import oracle_reference
from oracle_reference import is_complete
from conftest import iso_class_reps


class TestMaterialize:
    def test_path5_under_g(self):
        d = materialize(family_path(5, 4, 4), "G")
        assert d.b == 576
        assert all(len(blk) == 5 for blk in d.blocks)

    def test_single_edge_all_cells(self):
        d = materialize(from_edge_list(2, 2, [(1, 1)]), "K")
        assert d.b == 4
        assert all(len(blk) == 1 for blk in d.blocks)

    def test_fig2_block_count(self):
        d = materialize(family_figure("fig2"), "K")
        assert d.b == 2240

    def test_orbit_stabilizer(self):
        rng = random.Random(3)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            g = BiGraph(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
            d = materialize(g, "K")
            aut = automorphisms(g)
            assert d.b * aut.k_order == group_order(m, n, "K")
            # replication count: b k = r v for the 1-design
            if g.k:
                assert (d.b * d.k) % d.v == 0

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            materialize(family_path(5, 4, 4), "G", Budget(max_blocks=100))


class TestLambdaTable:
    def test_fig2_single_key_80(self):
        d = materialize(family_figure("fig2"), "K")
        table = lambda_table(d, 3)
        assert table == {80: 560}
        assert design_verdict(d, 3)[0] is True

    def test_cycle6_t2(self):
        d = materialize(family_cycle(6, 4), "G")
        assert lambda_table(d, 2) == {12: comb(16, 2)}

    def test_cycle6_not_4design(self):
        d = materialize(family_cycle(6, 4), "G")
        table = lambda_table(d, 4)
        assert len(table) > 1
        assert design_verdict(d, 4)[0] is False

    def test_histogram_total(self):
        d = materialize(family_path(4, 3, 3), "G")
        for t in (2, 3):
            table = lambda_table(d, t)
            assert sum(table.values()) == comb(9, t)

    def test_small_block_never_t_design(self):
        # k < t gives constant zero coverage, which must not count
        d = materialize(from_edge_list(3, 3, [(1, 1)]), "K")
        verdict, table = design_verdict(d, 2)
        assert verdict is False
        assert table == {0: comb(9, 2)}

    def test_budget_refusal(self):
        d = materialize(family_path(4, 3, 3), "G")
        with pytest.raises(BudgetExceededError):
            lambda_table(d, 3, Budget(max_subsets=10))

    def test_workers_do_not_change_output(self):
        d = materialize(family_path(5, 4, 4), "G")
        assert lambda_table(d, 2, workers=3) == lambda_table(d, 2)


class TestOrbitRatio:
    def test_fig1_counts(self):
        g = family_figure("fig1")
        ok, records = orbit_ratio_check(g, "G", 3)
        assert ok is True
        by_name = {r.name: r for r in records}
        assert by_name["line-triple"].count_in_block == 90
        assert by_name["corner"].count_in_block == 300
        for r in records:
            assert r.ratio == Fraction(comb(36, 3), comb(121, 3))

    def test_orbit_sizes_partition_all_subsets(self):
        for m, n in [(2, 2), (3, 4), (4, 4), (11, 11)]:
            g = BiGraph(m, n, tuple(0 for _ in range(m)))
            for t in (2, 3):
                _, records = orbit_ratio_check(g, "K", t)
                assert sum(r.orbit_size for r in records) == comb(m * n, t)
                if m == n:
                    _, grecords = orbit_ratio_check(g, "G", t)
                    assert sum(r.orbit_size for r in grecords) == comb(m * n, t)

    def test_matching_has_no_2paths(self):
        g = from_edge_list(3, 3, [(1, 1), (2, 2), (3, 3)])
        ok, records = orbit_ratio_check(g, "G", 2)
        assert ok is False
        by_name = {r.name: r for r in records}
        assert by_name["line-pair"].count_in_block == 0

    def test_agrees_with_lambda_table_2x2(self):
        for g in iso_class_reps(2, 2):
            if g.k == 0:
                continue
            d = materialize(g, "K")
            assert orbit_ratio_check(g, "K", 2)[0] == design_verdict(d, 2)[0]

    def test_agrees_with_lambda_table_3x3_both_groups(self):
        for g in iso_class_reps(3, 3):
            if g.k == 0:
                continue
            for group in ("K", "G"):
                d = materialize(g, group)
                for t in (2, 3):
                    assert (
                        orbit_ratio_check(g, group, t)[0]
                        == design_verdict(d, t)[0]
                    )


class TestFlagTransitivity:
    def test_cycle6(self):
        d = materialize(family_cycle(6, 4), "G")
        assert flag_transitive_direct(d) is True

    def test_path5(self):
        d = materialize(family_path(5, 4, 4), "G")
        assert flag_transitive_direct(d) is False

    def test_single_edge(self):
        d = materialize(from_edge_list(2, 2, [(1, 1)]), "K")
        assert flag_transitive_direct(d) is True

    def test_budget_names_limit(self):
        d = materialize(family_cycle(6, 4), "G")  # 96 blocks of 6 cells
        assert flag_transitive_direct(d, Budget(max_subsets=576)) is True
        with pytest.raises(BudgetExceededError) as exc:
            flag_transitive_direct(d, Budget(max_subsets=575))
        assert str(exc.value) == "576 flags exceed budget of 575"

    def test_agrees_with_edge_orbits(self):
        for m in range(1, 5):
            for n in range(1, 5):
                groups = ("K", "G") if m == n else ("K",)
                for g in iso_class_reps(m, n):
                    if g.k == 0:
                        continue
                    aut = automorphisms(g)
                    for group in groups:
                        direct = flag_transitive_direct(materialize(g, group))
                        assert direct == is_edge_transitive(g, aut, group)

    def test_cycle12_6x6_cost(self):
        # 43,200 blocks of 12 cells: 518,400 flags, counted without listing them
        d = materialize(family_cycle(12, 6), "G")
        start = time.perf_counter()
        assert flag_transitive_direct(d) is True
        assert time.perf_counter() - start < 0.25


class TestExport:
    def test_block_list_format(self):
        d = materialize(from_edge_list(2, 2, [(1, 1)]), "K")
        text = export_block_list(d)
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("block ") for line in lines)
        assert "block 1,1" in lines

    def test_completeness_detector(self):
        d = materialize(from_edge_list(2, 2, [(1, 1)]), "K")
        assert is_complete(d)  # all four 1-subsets appear
        d2 = materialize(family_cycle(4, 2), "G")
        assert is_complete(d2)  # the 4-cycle fills the 2x2 grid entirely


def _assert_same_design(g, group, budget=None):
    """The library and the frozenset reference agree on the blocks (order
    included), the export text, the histograms for t = 2, 3, 4 and the flag
    verdict; or both refuse the budget with the same message."""
    try:
        want = oracle_reference.materialize(g, group, budget)
    except BudgetExceededError as exc:
        with pytest.raises(BudgetExceededError) as got:
            materialize(g, group, budget)
        assert str(got.value) == str(exc)
        return
    d = materialize(g, group, budget)
    assert d == want
    assert export_block_list(d) == export_block_list(want)
    for t in (2, 3, 4):
        assert lambda_table(d, t) == oracle_reference.lambda_table(want, t)
    if d.k:
        assert flag_transitive_direct(d) == oracle_reference.flag_transitive_direct(want)


@st.composite
def small_graphs(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(m))
    return BiGraph(m, n, rows)


class TestMatchesReference:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_every_class(self, m, n):
        for g in iso_class_reps(m, n):
            _assert_same_design(g, "K")
            if m == n:
                _assert_same_design(g, "G")

    def test_figures(self):
        _assert_same_design(family_figure("fig2"), "K")
        # the 11x11 and 38x38 orbits exceed any budget; both engines refuse
        for which in ("fig1", "fig3"):
            for group in ("K", "G"):
                _assert_same_design(family_figure(which), group, Budget(max_blocks=200))

    def test_families(self):
        for m in (3, 4, 5):
            for k in range(2, m + 2):
                _assert_same_design(family_path(k, m, m), "K")
                _assert_same_design(family_path(k, m, m), "G")
        for m in (2, 3, 4, 5):
            for k in range(4, 2 * m + 1, 2):
                _assert_same_design(family_cycle(k, m), "G")

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_random_graphs(self, g):
        budget = Budget(max_blocks=3000)
        _assert_same_design(g, "K", budget)
        if g.m == g.n:
            _assert_same_design(g, "G", budget)

    def test_workers_path(self, monkeypatch):
        # one chunk per worker, merged, equals the reference coverage
        monkeypatch.setattr("griddesigns.workers.os.cpu_count", lambda: 2)
        d = materialize(family_cycle(6, 4), "G")
        assert lambda_table(d, 3, workers=2) == oracle_reference.lambda_table(d, 3)


class TestBudgetBoundary:
    def test_exact_orbit_size_fits(self):
        cases = [(family_figure("fig2"), "K"), (family_path(5, 4, 4), "G"),
                 (family_path(4, 3, 3), "G"), (from_edge_list(2, 2, [(1, 1)]), "K"),
                 (from_edge_list(3, 3, [(1, 1), (1, 2)]), "G")]
        for g, group in cases:
            b = materialize(g, group).b
            assert materialize(g, group, Budget(max_blocks=b)).b == b
            if b > 1:
                with pytest.raises(BudgetExceededError,
                                   match=f"block orbit exceeds budget of {b - 1} blocks"):
                    materialize(g, group, Budget(max_blocks=b - 1))

    def test_single_block_orbit(self):
        g = BiGraph(3, 3, (0, 0, 0))
        assert materialize(g, "G", Budget(max_blocks=1)).blocks == ((),)

    @pytest.mark.parametrize("field", ["max_blocks", "max_subsets"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_budget_below_one_rejected(self, field, value):
        with pytest.raises(ValueError):
            Budget(**{field: value})


class TestLargeGrids:
    """One edge on a long or large grid: the orbit is every cell, and the
    cost follows the orbit, not 2^n or 2^v."""

    def test_one_edge_1x64(self):
        start = time.perf_counter()
        d = materialize(from_edge_list(1, 64, [(1, 7)]), "K")
        assert d.b == 64
        assert d.blocks == tuple((c,) for c in range(64))
        assert flag_transitive_direct(d) is True
        assert time.perf_counter() - start < 2.0

    def test_one_edge_40x40(self):
        start = time.perf_counter()
        d = materialize(from_edge_list(40, 40, [(3, 5)]), "G")
        assert d.b == 1600
        assert d.blocks == tuple((c,) for c in range(1600))
        assert flag_transitive_direct(d) is True
        assert time.perf_counter() - start < 2.0


class TestImmediateRefusal:
    """An orbit over budget is refused from the count of its row orders,
    before any block is built."""

    @pytest.mark.parametrize("group", ["K", "G"])
    @pytest.mark.parametrize("which", ["fig1", "fig3"])
    def test_default_budget(self, which, group):
        g = family_figure(which)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            materialize(g, group)
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == "block orbit exceeds budget of 500000 blocks"


class TestEqualRows:
    """Many equal rows: a multiset's distinct row orders are listed one by
    one, never by filtering the r! permutations of r equal rows."""

    @pytest.mark.parametrize("g, b_k, b_g", [
        (BiGraph(12, 12, (1,) * 12), 12, 24),                 # 12 equal rows
        (BiGraph(10, 10, (1,) * 5 + (2,) * 5), 11340, 22680),  # two rows, 5 each
    ], ids=["12x12", "10x10"])
    def test_orbit_size(self, g, b_k, b_g):
        aut = automorphisms(g)
        for group, stab, b in (("K", aut.k_order, b_k), ("G", aut.g_order, b_g)):
            start = time.perf_counter()
            d = materialize(g, group)
            assert time.perf_counter() - start < 0.5
            assert d.b == b == group_order(g.m, g.n, group) // stab
            assert all(len(blk) == g.k for blk in d.blocks)
            assert all(x < y for x, y in zip(d.blocks, d.blocks[1:]))

    @pytest.mark.parametrize("g", [
        BiGraph(12, 12, (1,) * 12),            # the point's row equals 11 others
        BiGraph(10, 10, (1,) * 5 + (2,) * 5),  # the point's row equals 4 others
    ], ids=["12x12", "10x10"])
    def test_flag_orbit(self, g):
        aut = automorphisms(g)
        for group in ("K", "G"):
            d = materialize(g, group)
            start = time.perf_counter()
            direct = flag_transitive_direct(d)
            assert time.perf_counter() - start < 0.5
            assert direct is True
            assert is_edge_transitive(g, aut, group) is True


def _random_graph(rng, m, n, k):
    cells = rng.sample(range(m * n), k)
    rows = [0] * m
    for c in cells:
        rows[c // n] |= 1 << (c % n)
    return BiGraph(m, n, tuple(rows))


AGREE_BUDGET = Budget(max_blocks=50_000)


class TestCriteriaAgreeBeyond4x4:
    """criteria == oracle on random graphs past the m, n <= 4 sweep.  Five
    graphs for each k = 3..7; a design is either checked or refused under
    AGREE_BUDGET, and a refused one must have more blocks than the budget
    by the criteria's count."""

    @pytest.mark.parametrize("m,n,groups", [(5, 5, ("K", "G")), (6, 4, ("K",)),
                                            (6, 5, ("K",)), (6, 6, ("K", "G"))])
    def test_random_graphs(self, m, n, groups):
        rng = random.Random(20 * m + n)
        checked = refused = 0
        for k in range(3, 8):
            for _ in range(5):
                g = _random_graph(rng, m, n, k)
                aut = automorphisms(g)
                rep = evaluate(g, aut)
                for group in groups:
                    b = rep.b_d if group == "K" else rep.b_dhat
                    try:
                        d = materialize(g, group, AGREE_BUDGET)
                    except BudgetExceededError:
                        assert b > AGREE_BUDGET.max_blocks
                        refused += 1
                        continue
                    stab = aut.k_order if group == "K" else aut.g_order
                    assert d.b * stab == group_order(m, n, group)
                    check = check_D if group == "K" else check_Dhat
                    is2, is3, _, _ = check(g, aut)
                    assert design_verdict(d, 2)[0] == is2
                    assert design_verdict(d, 3)[0] == is3
                    checked += 1
        assert checked + refused == 25 * len(groups)
        assert checked > refused
