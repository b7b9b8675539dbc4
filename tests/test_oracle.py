import json
import random
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from griddesigns import oracle
from griddesigns.bigraph import BiGraph, format_graph_text, from_edge_list
from griddesigns.cli import main
from griddesigns.criteria import evaluate
from griddesigns.oracle import (
    Budget,
    BudgetExceededError,
    ExplicitDesign,
    export_block_list,
    flag_transitive_direct,
    materialize,
    orbit_ratio_check,
    orbit_verdicts,
)
from griddesigns.permgroup import automorphisms, group_order, is_edge_transitive
from griddesigns.search import family_cycle, family_figure, family_path

import oracle_reference
from oracle_reference import is_complete, lambda_table
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
        assert orbit_verdicts(family_figure("fig2"), 3, ["K"]) == {"K": (2240, True, table)}

    def test_cycle6_t2(self):
        d = materialize(family_cycle(6, 4), "G")
        assert lambda_table(d, 2) == {12: comb(16, 2)}

    def test_cycle6_not_4design(self):
        d = materialize(family_cycle(6, 4), "G")
        table = lambda_table(d, 4)
        assert len(table) > 1
        assert orbit_verdicts(family_cycle(6, 4), 4, ["G"]) == {"G": (96, False, table)}

    def test_histogram_total(self):
        d = materialize(family_path(4, 3, 3), "G")
        for t in (2, 3):
            table = lambda_table(d, t)
            assert sum(table.values()) == comb(9, t)

    def test_small_block_never_t_design(self):
        # k < t gives constant zero coverage, which must not count
        g = from_edge_list(3, 3, [(1, 1)])
        assert lambda_table(materialize(g, "K"), 2) == {0: comb(9, 2)}
        assert orbit_verdicts(g, 2, ["K"]) == {"K": (9, False, {0: comb(9, 2)})}

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError, match="84 t-subsets exceed budget of 10"):
            orbit_verdicts(family_path(4, 3, 3), 3, ["G"], Budget(max_subsets=10))


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

    def test_records_match_enumeration(self):
        # every record against a direct count, by the rows and columns each
        # t-subset meets, of the grid's t-subsets and of the block's
        names = {  # (t, rows met, columns met) -> (K-orbit, G-orbit)
            (2, 1, 2): ("row-pair", "line-pair"),
            (2, 2, 1): ("col-pair", "line-pair"),
            (2, 2, 2): ("free-pair", "free-pair"),
            (3, 1, 3): ("row-triple", "line-triple"),
            (3, 3, 1): ("col-triple", "line-triple"),
            (3, 2, 2): ("corner", "corner"),
            (3, 2, 3): ("row-pair-plus", "pair-plus"),
            (3, 3, 2): ("col-pair-plus", "pair-plus"),
            (3, 3, 3): ("free-triple", "free-triple"),
        }
        rng = random.Random(27)
        for m in range(1, 6):
            for n in range(1, 6):
                cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
                for k in (rng.randint(1, m * n), m * n):
                    g = from_edge_list(m, n, rng.sample(cells, k))
                    for t in (2, 3):
                        for pick, group in enumerate(("K", "G") if m == n else ("K",)):
                            sizes, counts = Counter(), Counter()
                            for subsets, tally in ((combinations(cells, t), sizes),
                                                   (combinations(g.edges(), t), counts)):
                                for sub in subsets:
                                    rows, cols = map(len, map(set, zip(*sub)))
                                    tally[names[t, rows, cols][pick]] += 1
                            _, records = orbit_ratio_check(g, group, t)
                            assert [(r.name, r.orbit_size, r.count_in_block) for r in records] == [
                                (name, size, counts[name]) for name, size in sorted(sizes.items())
                            ], (g, group, t)

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
            assert orbit_ratio_check(g, "K", 2)[0] == orbit_verdicts(g, 2, ["K"])["K"][1]

    def test_agrees_with_lambda_table_3x3_both_groups(self):
        for g in iso_class_reps(3, 3):
            if g.k == 0:
                continue
            for group in ("K", "G"):
                for t in (2, 3):
                    assert (
                        orbit_ratio_check(g, group, t)[0]
                        == orbit_verdicts(g, t, [group])[group][1]
                    )


class TestFlagTransitivity:
    def test_cycle6(self):
        assert flag_transitive_direct(family_cycle(6, 4), "G", 96) is True

    def test_path5(self):
        assert flag_transitive_direct(family_path(5, 4, 4), "G", 576) is False

    def test_single_edge(self):
        assert flag_transitive_direct(from_edge_list(2, 2, [(1, 1)]), "K", 4) is True

    def test_budget_names_limit(self):
        g = family_cycle(6, 4)  # 96 blocks of 6 cells
        assert flag_transitive_direct(g, "G", 96, Budget(max_subsets=576)) is True
        with pytest.raises(BudgetExceededError) as exc:
            flag_transitive_direct(g, "G", 96, Budget(max_subsets=575))
        assert str(exc.value) == "576 flags exceed budget of 575"

    def test_no_flags(self):
        with pytest.raises(ValueError, match="undefined without flags"):
            flag_transitive_direct(BiGraph(2, 2, (0, 0)), "K", 1)

    def test_agrees_with_edge_orbits(self):
        for m in range(1, 5):
            for n in range(1, 5):
                groups = ("K", "G") if m == n else ("K",)
                for g in iso_class_reps(m, n):
                    if g.k == 0:
                        continue
                    aut = automorphisms(g)
                    for group in groups:
                        b = orbit_verdicts(g, 2, [group])[group][0]
                        direct = flag_transitive_direct(g, group, b)
                        assert direct == is_edge_transitive(g, aut, group)

    def test_cycle12_6x6_cost(self):
        # 43,200 blocks of 12 cells: 518,400 flags, counted without listing them
        g = family_cycle(12, 6)
        start = time.perf_counter()
        assert flag_transitive_direct(g, "G", 43_200) is True
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
    included), the export text, the histograms for t = 1..4, counted on all
    blocks by the reference and on window cuts by orbit_verdicts, and the
    flag verdict; or all three routes refuse the budget with the same
    message."""
    try:
        want = oracle_reference.materialize(g, group, budget)
    except BudgetExceededError as exc:
        for route in (partial(materialize, g, group), partial(orbit_verdicts, g, 2, [group])):
            with pytest.raises(BudgetExceededError) as got:
                route(budget=budget)
            assert str(got.value) == str(exc)
        return
    d = materialize(g, group, budget)
    assert d == want
    assert export_block_list(d) == export_block_list(want)
    for t in (1, 2, 3, 4):
        hist = lambda_table(want, t)
        verdict = len(hist) == 1 and want.k >= t
        assert orbit_verdicts(g, t, [group], budget) == {group: (want.b, verdict, hist)}
    if d.k:
        assert (flag_transitive_direct(g, group, d.b)
                == oracle_reference.flag_transitive_direct(want))


def _reference_output(g, group, t, fmt, flags):
    """What the oracle command prints, rendered from the frozenset
    reference's blocks, histogram and flag verdict; and its block list."""
    d = oracle_reference.materialize(g, group)
    hist = lambda_table(d, t)
    payload = {"group": group, "t": t, "blocks": d.b,
               "histogram": {str(c): num for c, num in hist.items()},
               "is_design": len(hist) == 1 and d.k >= t}
    if flags:
        payload["flag_transitive"] = oracle_reference.flag_transitive_direct(d)
    yn = {True: "yes", False: "no"}
    if fmt == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = "".join([
            f"group = {group}\nt = {t}\nblocks = {d.b}\n",
            *(f"coverage {c} subsets {num}\n" for c, num in hist.items()),
            f"{t}design = {yn[payload['is_design']]}\n",
            f"flag_transitive = {yn[payload['flag_transitive']]}\n" if flags else "",
        ])
    blocks = "".join(
        "block " + " ".join(f"{c // g.n + 1},{c % g.n + 1}" for c in blk) + "\n"
        for blk in d.blocks)
    return (0 if payload["is_design"] else 1), out, blocks


class TestCommandMatchesReference:
    """The oracle command, which decides through orbit_verdicts and sorts
    blocks only for --export-blocks, prints what the reference engine
    gives, on every class with m, n <= 3."""

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
    def test_every_class(self, capsys, tmp_path, m, n):
        graph, export = tmp_path / "g.grid", tmp_path / "blocks.txt"
        for g in iso_class_reps(m, n):
            graph.write_text(format_graph_text(g))
            flags = ["--flags"] if g.k else []
            for group in ("K", "G") if m == n else ("K",):
                for t in (2, 3, 4):
                    for fmt in ("text", "json"):
                        code = main(["oracle", str(graph), "--group", group,
                                     "--t", str(t), "--format", fmt, *flags,
                                     "--export-blocks", str(export)])
                        got = code, capsys.readouterr().out, export.read_text()
                        assert got == _reference_output(g, group, t, fmt, flags), (
                            g, group, t, fmt)


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
        assert flag_transitive_direct(from_edge_list(1, 64, [(1, 7)]), "K", d.b) is True
        assert time.perf_counter() - start < 2.0

    def test_one_edge_40x40(self):
        start = time.perf_counter()
        d = materialize(from_edge_list(40, 40, [(3, 5)]), "G")
        assert d.b == 1600
        assert d.blocks == tuple((c,) for c in range(1600))
        assert flag_transitive_direct(from_edge_list(40, 40, [(3, 5)]), "G", d.b) is True
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
            direct = flag_transitive_direct(g, group, d.b)
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
                    record = rep.d if group == "K" else rep.dhat
                    try:
                        got = [orbit_verdicts(g, t, [group], AGREE_BUDGET)[group]
                               for t in (2, 3)]
                    except BudgetExceededError:
                        assert record.blocks > AGREE_BUDGET.max_blocks
                        refused += 1
                        continue
                    stab = aut.k_order if group == "K" else aut.g_order
                    assert got[0][0] * stab == group_order(m, n, group)
                    verdicts = [verdict for _, verdict, _ in got]
                    assert verdicts == [record.is_2design, record.is_3design]
                    checked += 1
        assert checked + refused == 25 * len(groups)
        assert checked > refused


def _verdicts_by_materialize(g, t, groups, budget=None):
    """The route through one explicit design per group: materialize, then
    the reference histogram of its whole blocks."""
    out = {}
    for group in groups:
        d = materialize(g, group, budget)
        hist = lambda_table(d, t, budget)
        out[group] = (d.b, len(hist) == 1 and d.k >= t, hist)
    return out


def _assert_same_verdicts(g, ts, budget=None):
    """For each t in ts, orbit_verdicts equals materialize + the reference
    lambda_table for K, and on a square grid for K, G and both, in the order
    asked; or both routes refuse the budget with the same message."""
    designs = {}
    for group in ("K", "G") if g.m == g.n else ("K",):
        try:
            designs[group] = materialize(g, group, budget)
        except BudgetExceededError as exc:
            designs[group] = exc
    for t in ts:
        literal = dict(designs)
        for group, d in designs.items():
            if isinstance(d, ExplicitDesign):
                try:
                    hist = lambda_table(d, t, budget)
                    literal[group] = (d.b, len(hist) == 1 and d.k >= t, hist)
                except BudgetExceededError as exc:
                    literal[group] = exc
        for groups in [("K",), ("G",), ("K", "G")] if g.m == g.n else [("K",)]:
            refused = [literal[group] for group in groups
                       if isinstance(literal[group], BudgetExceededError)]
            if refused:
                with pytest.raises(BudgetExceededError) as got:
                    orbit_verdicts(g, t, groups, budget)
                assert str(got.value) == str(refused[0])
                continue
            got = orbit_verdicts(g, t, groups, budget)
            assert got == {group: literal[group] for group in groups}, (g, t, groups)
            assert list(got) == list(groups)
            # double counting: each of b blocks covers C(k, t) t-subsets
            for b, _, hist in got.values():
                assert sum(c * num for c, num in hist.items()) == b * comb(g.k, t)


def _cut(g, t, block):
    """The block cut to its first min(t, m) rows and min(t, n) columns."""
    depth, width = min(t, g.m), min(t, g.n)
    return tuple(c for c in block if c < depth * g.n and c % g.n < width)


def _transposed(g, counts):
    """`counts` ({cells: count}) with every cell i·n + j of every key moved
    to j·n + i."""
    n = g.n
    return Counter({tuple(sorted(c % n * n + c // n for c in key)): count
                    for key, count in counts.items()})


def _weighted(grouped):
    """{entry: weight} from `_window`'s {weight: entries}."""
    return Counter({entry: weight for weight, entries in grouped.items() for entry in entries})


# K-orbit of 9 blocks and G-orbit of 18: the transpose puts the two edges in
# one column, and no element of K does
NOT_TAU = from_edge_list(3, 3, [(1, 1), (1, 2)])


class TestOrbitVerdicts:
    """The K-orbit is built and counted once, and G transposes it; the
    counts on the window of min(t, m) rows and min(t, n) columns, scaled by
    row and column symmetry, equal the count over all blocks."""

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_every_class(self, m, n):
        for g in iso_class_reps(m, n):
            _assert_same_verdicts(g, (1, 2, 3, 4))

    def test_seeded_graphs_to_6x6(self):
        # every grid up to 6x6, so m < t, n = 1, k = 0 and k < t all occur;
        # an orbit over the budget must be refused by both routes alike
        rng = random.Random(24)
        budget = Budget(max_blocks=1500)
        for m in range(1, 7):
            for n in range(1, 7):
                for k in (0, 1, rng.randint(1, min(m * n, 8))):
                    _assert_same_verdicts(_random_graph(rng, m, n, k), (1, 2, 3, 4), budget)

    def test_asymmetric_coverage_raises(self):
        # the histogram extends window counts by row and column symmetry,
        # and refuses counts that do not split evenly over the row and
        # column sets
        g = family_path(5, 4, 4)
        seen, _ = oracle._multisets(tuple(sorted(g.rows)), g.n, 10 ** 6)
        coverage = oracle._cover(oracle._window(seen, g.m, g.n, 2, 2), 2)
        assert oracle._histogram(coverage, 4, 4, 2) == orbit_verdicts(g, 2, ["K"])["K"][2]
        key = next(key for key in coverage if key[-1] < g.n)  # both cells in row 0
        for change in (-1, 1):
            broken = coverage.copy()
            broken[key] += change
            with pytest.raises(AssertionError, match="row and column permutations"):
                oracle._histogram(broken, 4, 4, 2)
        # one covered pair in row 0 of a 3x2 grid, and none in row 1
        with pytest.raises(AssertionError, match="row and column permutations"):
            oracle._histogram(Counter({(0, 1): 1}), 3, 2, 2)
        # symmetric in rows but not in columns: on a 2x3 grid the pair in
        # column 0 is covered and the pair in column 1 is not
        with pytest.raises(AssertionError, match="row and column permutations"):
            oracle._histogram(Counter({(0, 3): 1}), 2, 3, 2)
        assert oracle._histogram(Counter({(0, 3): 1, (1, 4): 1}), 2, 3, 2) == {0: 12, 1: 3}
        # a side the window spans whole is not scaled: at t = 3 the window is
        # all of a 3x2 or 2x3 grid, so any coverage is counted as it is,
        # asymmetric in rows or in columns
        assert oracle._histogram(Counter({(0, 1, 2): 1}), 3, 2, 3) == {0: 19, 1: 1}
        assert oracle._histogram(Counter({(0, 3, 4): 1}), 2, 3, 3) == {0: 19, 1: 1}

    def test_large_table_matches_whole_count(self):
        # 43,200 blocks at t = 4 on 6x5, counted whole by the reference lambda_table
        g = from_edge_list(6, 5, [(2, 1), (2, 2), (3, 5), (4, 2), (4, 3),
                                  (4, 4), (5, 5), (6, 1), (6, 3), (6, 5)])
        d = materialize(g, "K")
        assert orbit_verdicts(g, 4, ["K"]) == {"K": (43_200, False, lambda_table(d, 4))}

    @pytest.mark.parametrize("m,n", [(5, 5), (6, 4)])
    def test_random_graphs(self, m, n):
        rng = random.Random(10 * m + n)
        for k in range(3, 8):
            for _ in range(3):
                _assert_same_verdicts(_random_graph(rng, m, n, k), (2, 3))

    @pytest.mark.parametrize("groups, budget, message", [
        # the K-orbit fits, the G-orbit does not
        (("G",), Budget(max_blocks=17), "block orbit exceeds budget of 17 blocks"),
        (("K", "G"), Budget(max_blocks=17), "block orbit exceeds budget of 17 blocks"),
        # K's t-subsets are refused before G's blocks
        (("K", "G"), Budget(max_blocks=9, max_subsets=35), "36 t-subsets exceed budget of 35"),
        (("G",), Budget(max_blocks=9, max_subsets=35), "block orbit exceeds budget of 9 blocks"),
        (("K",), Budget(max_subsets=35), "36 t-subsets exceed budget of 35"),
        (("K", "G"), Budget(max_blocks=8), "block orbit exceeds budget of 8 blocks"),
    ])
    def test_refusals_in_order(self, groups, budget, message):
        for route in (orbit_verdicts, _verdicts_by_materialize):
            with pytest.raises(BudgetExceededError) as exc:
                route(NOT_TAU, 2, groups, budget)
            assert str(exc.value) == message

    def test_g_orbit_fits_exactly(self):
        assert orbit_verdicts(NOT_TAU, 2, ("G",), Budget(max_blocks=18)) == {
            "G": (18, False, {0: 18, 1: 18})}

    def test_g_design_budget_boundary(self):
        # B is not tau-equivalent and D is not a 2-design, but Dhat is: the
        # G count is the K count and its transpose, and b = 2·18 must fit
        g = from_edge_list(3, 3, [(1, 1), (1, 3), (2, 1), (2, 2)])
        assert orbit_verdicts(g, 2, ("K",))["K"][:2] == (18, False)
        for route in (orbit_verdicts, _verdicts_by_materialize):
            with pytest.raises(BudgetExceededError) as exc:
                route(g, 2, ("G",), Budget(max_blocks=35))
            assert str(exc.value) == "block orbit exceeds budget of 35 blocks"
            assert route(g, 2, ("G",), Budget(max_blocks=36)) == {"G": (36, True, {6: 36})}

    @pytest.mark.parametrize("g, groups, flipped", [
        (family_path(5, 4, 4), ("K", "G"), False),  # tau-equivalent: G reuses the K-orbit
        (NOT_TAU, ("K", "G"), True),
        (NOT_TAU, ("G",), True),  # G alone counts the K closure and transposes it
    ], ids=["path5-4x4", "not-tau", "not-tau-G-alone"])
    def test_each_closure_counted_once(self, monkeypatch, g, groups, flipped):
        # the one closure's window entries are built in one call; weighted,
        # and with their transposes when B^T is outside the closure, they
        # are the G-orbit's blocks cut to their first min(t, m) rows and
        # min(t, n) columns, so the weights add up to b
        t = 2
        want = materialize(g, "G").blocks
        built = []
        real = oracle._window

        def spy(closure, m, n, depth, width):
            built.append(real(closure, m, n, depth, width))
            return built[-1]

        monkeypatch.setattr(oracle, "_window", spy)
        got = orbit_verdicts(g, t, groups)
        assert len(built) == 1
        (grouped,) = built
        entries = _weighted(grouped)
        assert len(entries) == sum(map(len, grouped.values()))  # distinct within the closure
        if flipped:
            entries += _transposed(g, entries)
        assert entries == Counter(map(partial(_cut, g, t), want))
        assert sum(entries.values()) == got["G"][0] == len(want)

    def test_g_alone_closes_one_start(self, monkeypatch):
        # B^T's closure is not built: tau maps K-orbit(B) onto it
        closures = []
        real = oracle._multisets

        def spy(start, n, limit):
            closures.append(start)
            return real(start, n, limit)

        monkeypatch.setattr(oracle, "_multisets", spy)
        assert orbit_verdicts(NOT_TAU, 2, ("G",))["G"][0] == 18
        assert closures == [tuple(sorted(NOT_TAU.rows))]

    @pytest.mark.parametrize("group", ["K", "G"])
    def test_window_entries_are_cut_blocks(self, group):
        # one entry per distinct window cut of B's closure, listed under the
        # number of blocks cut to it, on seeded graphs up to 6x6 and t =
        # 1..4; under G, with their transposes when B^T is outside it
        rng = random.Random(26)
        for m in range(1, 7):
            for n in range(1, 7) if group == "K" else (m,):
                total = limit = 20_000
                while total >= limit:  # orbits small enough to list
                    g = _random_graph(rng, m, n, rng.randint(1, min(m * n, 9)))
                    seen, total = oracle._multisets(tuple(sorted(g.rows)), n, limit)
                    flipped = group == "G" and tuple(sorted(g.columns())) not in seen
                    total *= 2 if flipped else 1
                blocks = materialize(g, group).blocks
                assert len(blocks) == total
                for t in (1, 2, 3, 4):
                    depth, width = min(t, m), min(t, n)
                    grouped = oracle._window(seen, m, n, depth, width)
                    entries = _weighted(grouped)
                    assert len(entries) == sum(map(len, grouped.values())) <= (2 ** width) ** depth
                    if flipped:
                        entries += _transposed(g, entries)
                    assert entries == Counter(map(partial(_cut, g, t), blocks)), (g, t)
                    assert sum(entries.values()) == total

    def test_transposed_coverage_is_the_transposed_closure(self):
        # the G count transposes the K coverage instead of counting the
        # closure of B^T: tau K tau = K, so the two agree on every square
        # class with m <= 4 and on seeded square graphs up to 6x6
        rng = random.Random(28)
        graphs = [g for m in range(1, 5) for g in iso_class_reps(m, m)]
        for m in range(1, 7):
            for _ in range(4):
                total = limit = 20_000
                while total >= limit:  # orbits small enough to count twice
                    g = _random_graph(rng, m, m, rng.randint(1, min(m * m, 9)))
                    total = oracle._multisets(tuple(sorted(g.rows)), m, limit)[1]
                graphs.append(g)
        for g in graphs:
            m = g.m
            seen, _ = oracle._multisets(tuple(sorted(g.rows)), m, 10 ** 6)
            flipped, _ = oracle._multisets(tuple(sorted(g.columns())), m, 10 ** 6)
            for t in (1, 2, 3, 4):
                L = min(t, m)
                coverage = oracle._cover(oracle._window(seen, m, m, L, L), t)
                direct = oracle._cover(oracle._window(flipped, m, m, L, L), t)
                assert direct == _transposed(g, coverage), (g, t)

    def test_window_weight_remainder_raises(self, monkeypatch):
        # with each multiset counted as one row order, the summed window
        # weights no longer divide by fall(m, L)
        g = from_edge_list(3, 3, [(1, 1), (2, 1), (2, 2)])
        monkeypatch.setattr(oracle, "_arrangements", lambda rows: 1)
        with pytest.raises(AssertionError, match="whole number of row orders"):
            orbit_verdicts(g, 2, ["K"])


CASE3 = from_edge_list(3, 3, [(1, 1), (1, 3), (2, 1), (2, 2)])


class TestGFromOneClosure:
    """materialize and the flag test close one start under K, as
    orbit_verdicts does; B^T is outside B's closure for both graphs, so the
    G-orbit is the K-orbit and its transpose."""

    @pytest.mark.parametrize("g", [NOT_TAU, CASE3], ids=["not-tau", "case3"])
    def test_one_start_each(self, monkeypatch, g):
        b_k = materialize(g, "K").b
        want = oracle_reference.materialize(g, "G")
        starts = []
        real = oracle._multisets

        def spy(start, n, limit):
            starts.append(start)
            return real(start, n, limit)

        monkeypatch.setattr(oracle, "_multisets", spy)
        d = materialize(g, "G")
        assert starts == [tuple(sorted(g.rows))]
        assert d.blocks == want.blocks and d.b == 2 * b_k
        starts.clear()
        i, j = g.edges()[0]
        assert flag_transitive_direct(g, "G", d.b) == oracle_reference.flag_transitive_direct(want)
        assert starts == [oracle._pointed(g.rows, i - 1, j - 1, g.n)]

    @pytest.mark.parametrize("g", [NOT_TAU, CASE3], ids=["not-tau", "case3"])
    def test_g_budget_boundary(self, g):
        # 2b is refused before any block is built, with the K-orbit's message
        b = 2 * materialize(g, "K").b
        with pytest.raises(BudgetExceededError) as exc:
            materialize(g, "G", Budget(max_blocks=b - 1))
        assert str(exc.value) == f"block orbit exceeds budget of {b - 1} blocks"
        assert materialize(g, "G", Budget(max_blocks=b)).blocks == \
            oracle_reference.materialize(g, "G").blocks
