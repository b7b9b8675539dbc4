import concurrent.futures
import hashlib
import os
import pickle
import random
import time
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from itertools import accumulate
from math import comb

import pytest

from griddesigns.bigraph import BiGraph, degrees, stats, three_paths
from griddesigns.cli import main
from griddesigns.criteria import count_targets, evaluate
from griddesigns.oracle import materialize, orbit_verdicts
from griddesigns import bigraph, criteria, permgroup, search
from griddesigns.permgroup import apply, automorphisms, is_edge_transitive
from griddesigns.search import (
    TARGETS,
    SearchBudgetError,
    SearchSpec,
    _bounded_partitions,
    _realize,
    _RealizeState,
    _branch_results,
    _searched_branches,
    _uniform_edge_degrees,
    degree_branches,
    exhaustive_search,
    family_cycle,
    family_figure,
    family_path,
)

import search_reference
from canonical_reference import assert_same_partition, canonical_form
from conftest import iso_class_reps, random_gridperm


class TestFamilyPath:
    def test_odd_degrees(self):
        x, y = degrees(family_path(5, 4, 4))
        assert x == (1, 2, 2, 0) and y == (2, 2, 1, 0)

    def test_even_degrees(self):
        x, y = degrees(family_path(4, 3, 3))
        assert x == (1, 2, 1) and y == (2, 2, 0)

    def test_smallest_complete_case(self):
        g = family_path(3, 2, 2)
        # all 3-subsets of the 4 cells
        assert orbit_verdicts(g, 2, ["G"]) == {"G": (4, True, {2: 6})}

    def test_does_not_fit(self):
        with pytest.raises(ValueError):
            family_path(9, 4, 4)
        with pytest.raises(ValueError):
            family_path(4, 2, 3)  # even k needs k/2 + 1 rows

    def test_is_a_path(self):
        for k in range(1, 9):
            g = family_path(k, 6, 6)
            st = stats(g)
            assert g.k == k
            assert st.p2_total == k - 1
            assert st.claw3_total == 0


class TestFamilyCycle:
    def test_degrees(self):
        x, y = degrees(family_cycle(6, 4))
        assert x == (2, 2, 2, 0) and y == (2, 2, 2, 0)

    def test_smallest_complete_case(self):
        g = family_cycle(4, 2)
        d = materialize(g, "G")
        assert d.b == 1  # the whole grid is one block

    def test_cycle8_lambda_720(self):
        g = family_cycle(8, 6)
        rep = evaluate(g, automorphisms(g))
        assert rep.dhat.is_2design and rep.dhat.lambda_2 == 720
        assert rep.dhat.stabilizer_order == 64

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            family_cycle(5, 4)
        with pytest.raises(ValueError):
            family_cycle(2, 4)
        with pytest.raises(ValueError):
            family_cycle(8, 3)


class TestFamilyFigure:
    def test_fig2_is_3design(self):
        g = family_figure("fig2")
        assert evaluate(g).d.is_3design is True

    def test_fig1_dhat_3design(self):
        g = family_figure("fig1")
        assert evaluate(g).dhat.is_3design is True
        assert stats(g).p3 == 300

    def test_fig3_shape(self):
        g = family_figure("fig3")
        assert (g.m, g.n, g.k) == (38, 38, 105)

    def test_data_files_pinned(self):
        # the 38x38 witness is a hand transcription; pin the bytes
        expected = {
            "fig1": "ccb6287b92711c9835283b922eb5611d29725f1b4db43ab8fcccee14e318ad4a",
            "fig2": "2e1e99245a9ac235aae4fb59e5649c4b6dc5df8b146dcbf91514f9f4002c472e",
            "fig3": "3904a6cb23e284009b83e1f54ad77ef824cc4e21ed6943a4dbab93e921b05fc5",
        }
        for name, digest in expected.items():
            data = resources.files("griddesigns.data").joinpath(f"{name}.grid").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            family_figure("fig9")


class TestExhaustiveSearch:
    def test_block_size_four_flag_transitive(self):
        spec = SearchSpec(m=5, n=5, k=4, target="flag-dhat2")
        results = [g for g, _ in exhaustive_search(spec)]
        assert len(results) == 2
        lams = set()
        for g in results:
            rep = evaluate(g, automorphisms(g))
            lams.add(rep.dhat.lambda_2)
        assert lams == {12, 18}

    def test_3x3_k4_dhat2_is_the_path(self):
        spec = SearchSpec(m=3, n=3, k=4, target="dhat2")
        results = [g for g, _ in exhaustive_search(spec)]
        assert len(results) == 1
        want = canonical_form(family_path(4, 3, 3), allow_transpose=True)
        assert canonical_form(results[0], allow_transpose=True) == want

    def test_infeasible_parameters_empty(self):
        # k(k-1)/(m+1) = 6/4 is not an integer
        spec = SearchSpec(m=3, n=3, k=3, target="dhat2")
        assert list(exhaustive_search(spec)) == []
        assert degree_branches(spec) == []

    def test_results_verify(self):
        spec = SearchSpec(m=4, n=4, k=5, target="dhat2")
        results = [g for g, _ in exhaustive_search(spec)]
        assert results, "the diagonal path qualifies, so results exist"
        for g in results:
            assert evaluate(g).dhat.is_2design
            assert orbit_verdicts(g, 2, ["G"])["G"][1]

    def test_dedup_soundness(self):
        spec = SearchSpec(m=4, n=4, k=5, target="dhat2")
        results = [g for g, _ in exhaustive_search(spec)]
        rng = random.Random(19)
        for i, g in enumerate(results):
            for h in results[i + 1:]:
                for _ in range(100):
                    p = random_gridperm(4, 4, rng, allow_swap=True)
                    assert apply(p, g) != h

    def test_degree_partitions(self):
        from griddesigns.search import _bounded_partitions

        assert list(_bounded_partitions(4, 3, 5)) == [
            (4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)
        ]
        assert list(_bounded_partitions(4, 3, 2)) == [(2, 2, 0), (2, 1, 1)]
        assert list(_bounded_partitions(0, 2, 3)) == [(0, 0)]
        for x in _bounded_partitions(9, 5, 4):
            assert sum(x) == 9 and all(a >= b for a, b in zip(x, x[1:]))

    def test_dedup_completeness_small(self):
        # pruned search finds exactly the classes that a naive sweep finds
        for m, n, k, target in [
            (3, 3, 4, "dhat2"),
            (3, 3, 4, "d2"),
            (2, 3, 3, "d2"),
            (4, 4, 5, "dhat2"),
            (4, 4, 6, "d2"),
        ]:
            spec = SearchSpec(m=m, n=n, k=k, target=target)
            got = {canonical_form(g, allow_transpose=(m == n))
                   for g, _ in exhaustive_search(spec)}
            naive = set()
            for g in iso_class_reps(m, n):
                if g.k != k:
                    continue
                rep = evaluate(g)
                if (rep.d if target == "d2" else rep.dhat).is_2design:
                    naive.add(canonical_form(g, allow_transpose=(m == n)))
            assert got == naive

    def test_budget_refusal(self):
        spec = SearchSpec(m=5, n=5, k=4, target="dhat2", max_nodes=5)
        with pytest.raises(SearchBudgetError) as exc:
            list(exhaustive_search(spec))
        assert exc.value.branch_index >= 0
        assert str(exc.value) == (
            f"node budget of 5 exhausted (resume at degree branch {exc.value.branch_index})")

    def test_budget_error_survives_pickling(self):
        exc = SearchBudgetError("node budget of 5 exhausted", 2)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is SearchBudgetError
        assert back.branch_index == 2
        assert str(back) == str(exc) == (
            "node budget of 5 exhausted (resume at degree branch 2)")

    def test_time_budget_states_use(self):
        spec = SearchSpec(m=5, n=5, k=4, target="dhat2", max_seconds=2)
        # a deadline already past, reached on the third node
        state = _RealizeState(spec=spec, deadline_ns=0, branch=3, nodes=2)
        with pytest.raises(SearchBudgetError) as exc:
            state.tick()
        assert exc.value.branch_index == 3
        assert str(exc.value) == (
            "time budget of 2 s exhausted after 3 nodes (resume at degree branch 3)")

    def test_deterministic_order(self):
        spec = SearchSpec(m=5, n=5, k=4, target="flag-dhat2")
        a = [g.edges() for g, _ in exhaustive_search(spec)]
        b = [g.edges() for g, _ in exhaustive_search(spec)]
        assert a == b

    # mirror branches skipped, one of them before the start branch
    POOLED_SPECS = [
        SearchSpec(m=5, n=5, k=4, target="dhat2"),
        SearchSpec(m=5, n=5, k=4, target="flag-dhat2"),
        SearchSpec(m=5, n=5, k=4, target="dhat2", dedup="side-preserving"),
        SearchSpec(m=5, n=5, k=9, target="dhat2"),
        SearchSpec(m=6, n=6, k=8, target="dhat2", start_branch=2),
    ]

    @staticmethod
    def _real_pool(monkeypatch):
        """Two CPUs even on a one-CPU machine, so the pool path runs; the
        sizes of the pools started."""
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @staticmethod
    def _outcome(spec, workers_):
        """The results, with their reports pickled back from the workers,
        and the stop: its message and branch, or None."""
        out = []
        try:
            out.extend((g.edges(), report) for g, report in exhaustive_search(spec, workers_))
        except SearchBudgetError as exc:
            return out, (str(exc), exc.branch_index)
        return out, None

    def test_workers_do_not_change_output(self, monkeypatch):
        sizes = self._real_pool(monkeypatch)
        for spec in self.POOLED_SPECS:
            assert self._outcome(spec, 1) == self._outcome(spec, 2), spec
        assert sizes == [2] * len(self.POOLED_SPECS)

    def test_workers_do_not_change_a_node_budget_stop(self, monkeypatch):
        # half of each run's nodes: the run stops, serially and pooled, at
        # the first branch where the nodes so far pass the budget
        sizes = self._real_pool(monkeypatch)
        for spec in self.POOLED_SPECS:
            branches = degree_branches(spec)
            indices = _searched_branches(spec, branches)
            used = [_branch_results(spec, i, branches[i], None)[1] for i in indices]
            budget = sum(used) // 2
            stop = next(i for i, total in zip(indices, accumulate(used)) if total > budget)
            assert stop != indices[0], spec
            stopped = replace(spec, max_nodes=budget)
            serial = self._outcome(stopped, 1)
            assert serial[1] == (f"node budget of {budget} exhausted "
                                 f"(resume at degree branch {stop})", stop)
            assert serial[0] == self._outcome(spec, 1)[0][:len(serial[0])]
            assert self._outcome(stopped, 2) == serial, spec
        assert sizes == [2] * len(self.POOLED_SPECS)

    def test_pooled_time_budget_stops_at_first_branch(self, monkeypatch):
        # the run's deadline is already past when the pool starts: the
        # parent reads a clock two seconds behind, the workers (forked or
        # spawned) read the real one
        self._real_pool(monkeypatch)
        parent, real = os.getpid(), time.monotonic_ns
        monkeypatch.setattr(search.time, "monotonic_ns",
                            lambda: real() - (2 * 10**9 if os.getpid() == parent else 0))
        spec = SearchSpec(m=6, n=6, k=8, target="dhat2", max_seconds=1, start_branch=2)
        first = _searched_branches(spec, degree_branches(spec))[0]
        with pytest.raises(SearchBudgetError) as exc:
            list(exhaustive_search(spec, workers=2))
        assert exc.value.branch_index == first
        assert str(exc.value) == (f"time budget of 1 s exhausted after 1 nodes "
                                  f"(resume at degree branch {first})")

    def test_target_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(m=3, n=3, k=4, target="bogus")
        with pytest.raises(ValueError):
            SearchSpec(m=3, n=4, k=4, target="dhat2")
        for field, value in [("start_branch", -1), ("max_nodes", 0), ("max_seconds", 0),
                             ("m", 0), ("n", 0), ("k", -1)]:
            with pytest.raises(ValueError, match=f"^{field} must be at least"):
                SearchSpec(**{"m": 5, "n": 5, "k": 4, "target": "flag-dhat2", field: value})

    def test_start_branch_skips_earlier_branches(self):
        spec = SearchSpec(m=5, n=5, k=4, target="flag-dhat2")
        full = [g.edges() for g, _ in exhaustive_search(spec)]
        assert full[0] == [(1, 3), (1, 4), (2, 1), (2, 2)]
        # branch 0 holds only the first result; the mirror of an earlier
        # branch is skipped, so the transpose of that result does not come
        # out again
        resumed = SearchSpec(m=5, n=5, k=4, target="flag-dhat2", start_branch=1)
        assert [g.edges() for g, _ in exhaustive_search(resumed)] == full[1:]

    @pytest.mark.parametrize("spec", [
        SearchSpec(m=5, n=5, k=9, target="dhat2"),
        SearchSpec(m=6, n=6, k=8, target="dhat2"),
        SearchSpec(m=5, n=5, k=9, target="dhat2", dedup="side-preserving"),
        SearchSpec(m=3, n=5, k=7, target="d2", dedup="side-preserving"),
    ])
    def test_resume_at_every_branch_matches_full_run(self, spec):
        branches = degree_branches(spec)
        position = {branch: i for i, branch in enumerate(branches)}

        def branch_of(g):
            x, y = (tuple(sorted(d, reverse=True)) for d in degrees(g))
            pairs = ((x, y), (y, x)) if spec.dedup == "allow-tau" else ((x, y),)
            return min(position.get(pair, len(branches)) for pair in pairs)

        full = [g for g, _ in exhaustive_search(spec)]
        assert len({branch_of(g) for g in full}) > 1
        for start in range(len(branches) + 1):
            resumed = SearchSpec(m=spec.m, n=spec.n, k=spec.k, target=spec.target,
                                 dedup=spec.dedup, start_branch=start)
            assert [g for g, _ in exhaustive_search(resumed)] == [
                g for g in full if branch_of(g) >= start], start


def _cross_product_branches(spec):
    """degree_branches as it was before the hash join: the filtered cross
    product of row and column sequences."""
    m, n, k = spec.m, spec.n, spec.k
    if m * n < 2:
        return []
    xs = list(_bounded_partitions(k, m, n))
    ys = list(_bounded_partitions(k, n, m))

    def c2(seq):
        return sum(comb(d, 2) for d in seq)

    def c3(seq):
        return sum(comb(d, 3) for d in seq)

    out = []
    if spec.target in ("d2", "d3"):
        t_p2r = Fraction(k * (k - 1) * (n - 1), 2 * (m * n - 1))
        t_p2c = Fraction(k * (k - 1) * (m - 1), 2 * (m * n - 1))
        xs = [x for x in xs if c2(x) == t_p2r]
        ys = [y for y in ys if c2(y) == t_p2c]
        if spec.target == "d3":
            t_clr = Fraction(k * (k - 1) * (k - 2) * (n - 1) * (n - 2),
                             6 * (m * n - 1) * (m * n - 2))
            t_clc = Fraction(k * (k - 1) * (k - 2) * (m - 1) * (m - 2),
                             6 * (m * n - 1) * (m * n - 2))
            xs = [x for x in xs if c3(x) == t_clr]
            ys = [y for y in ys if c3(y) == t_clc]
        out = [(x, y) for x in xs for y in ys]
    else:
        t_p2 = Fraction(k * (k - 1), m + 1)
        t_claw = Fraction(k * (k - 1) * (k - 2) * (m - 2), 3 * (m + 1) * (m * m - 2))
        for x in xs:
            for y in ys:
                if c2(x) + c2(y) != t_p2:
                    continue
                if spec.target in ("dhat3", "flag-dhat3") and c3(x) + c3(y) != t_claw:
                    continue
                out.append((x, y))
    return out


class TestDegreeBranches:
    def test_equals_cross_product(self):
        nonempty = 0
        for m in range(1, 7):
            for n in range(1, 7):
                if m * n < 3:
                    continue  # d3 targets divide by mn - 2
                for k in range(m * n + 1):
                    targets = TARGETS if m == n else ("d2", "d3")
                    for target in targets:
                        spec = SearchSpec(m=m, n=n, k=k, target=target)
                        got = degree_branches(spec)
                        assert got == _cross_product_branches(spec), spec
                        nonempty += bool(got)
        assert nonempty > 100

    @pytest.mark.parametrize("m, k, target", [
        (8, 20, "dhat3"), (8, 9, "dhat2"), (7, 21, "flag-dhat3"), (9, 10, "dhat2"),
    ])
    def test_equals_cross_product_larger(self, m, k, target):
        spec = SearchSpec(m=m, n=m, k=k, target=target)
        assert degree_branches(spec) == _cross_product_branches(spec)


class TestMirrorSkipping:
    def test_same_indices_as_position_dict(self):
        # every allow-tau spec with m <= 6, each target, each k, each start
        mirrored = 0
        for m in range(1, 7):
            for k in range(m * m + 1):
                for target in TARGETS:
                    branches = degree_branches(SearchSpec(m=m, n=m, k=k, target=target))
                    assert {(y, x) for x, y in branches} == set(branches), (m, k, target)
                    mirrored += any(x != y for x, y in branches)
                    for start in range(len(branches) + 1):
                        spec = SearchSpec(m=m, n=m, k=k, target=target, start_branch=start)
                        assert (_searched_branches(spec, branches)
                                == search_reference.searched_branches(spec, branches)), spec
        assert mirrored > 50


class TestCanonicalOnSearch:
    def test_realized_matrices_7x7_k8(self):
        # every matrix the unpruned reference realizer yields for
        # `search --m 7 --k 8 --target dhat2`
        spec = SearchSpec(m=7, n=7, k=8, target="dhat2")
        state = _RealizeState(spec, 0)
        graphs = [BiGraph(7, 7, rows)
                  for x, y in degree_branches(spec)
                  for rows in search_reference._realize(x, y, state)]
        assert len(graphs) > 500
        assert_same_partition(graphs, allow_transpose=True)
        assert_same_partition(graphs)


def _small_specs(side):
    """Every search spec with m, n <= side: each k, each target the grid
    allows, and both dedup modes on square grids."""
    for m in range(1, side + 1):
        for n in range(1, side + 1):
            targets = TARGETS if m == n else ("d2", "d3")
            dedups = ("allow-tau", "side-preserving") if m == n else ("side-preserving",)
            for k in range(m * n + 1):
                for target in targets:
                    for dedup in dedups:
                        yield SearchSpec(m=m, n=n, k=k, target=target, dedup=dedup)


def _meets_target(g, target):
    """The target test from the criteria and, for flag targets, the edge
    orbit of the full stabilizer."""
    design, t, flag = TARGETS[target]
    if not getattr(getattr(evaluate(g), design.lower()), f"is_{t}design"):
        return False
    return not flag or is_edge_transitive(g, automorphisms(g), "K" if design == "D" else "G")


def _assert_branch_matches_reference(spec, x, y, full):
    """The reference keys every matrix, and every branch under the transpose
    if allow-tau; _branch_results deduplicates only the matrices that meet
    the target, and under the transpose only in a branch that is its own
    mirror.  Returns the number of results."""
    results, _ = _branch_results(spec, 0, (x, y), None)
    got = [g.rows for g, _ in results]
    want = [rows for rows in search_reference.branch_stream(spec, full)
            if _meets_target(BiGraph(spec.m, spec.n, rows), spec.target)]
    assert got == want, (spec, x, y)
    return len(got)


class TestLexLeaderRealization:
    """The pruned realizer against the unpruned reference on every distinct
    degree branch with m, n <= 6."""

    @pytest.fixture(scope="class")
    def branches(self):
        out = {}
        for spec in _small_specs(6):
            for x, y in degree_branches(spec):
                out.setdefault((spec.m, spec.n, x, y, spec.dedup), spec)
        return out

    def test_branch_count(self, branches):
        # k = 0 included
        assert len(branches) == 822

    def test_same_representatives_as_reference(self, branches):
        pruned_total = full_total = 0
        for (_, _, x, y, _), spec in branches.items():
            pruned = list(_realize(x, y, _RealizeState(spec, 0)))
            full = list(search_reference._realize(x, y, _RealizeState(spec, 0)))
            rest = iter(full)
            assert all(rows in rest for rows in pruned), spec
            pruned_total += len(pruned)
            full_total += len(full)
            _assert_branch_matches_reference(spec, x, y, full)
        assert pruned_total < full_total

    def test_every_target_up_to_5x5(self):
        # the set above keeps one spec per branch, always a d2 or dhat2 one;
        # keyed with the target as well, the 926 branches with m, n <= 5
        # run every target (about 2 s)
        branches = {}
        for spec in _small_specs(5):
            for x, y in degree_branches(spec):
                branches.setdefault((spec.m, spec.n, x, y, spec.dedup, spec.target), spec)
        assert len(branches) == 926
        results = dict.fromkeys(TARGETS, 0)
        for (_, _, x, y, _, target), spec in branches.items():
            full = list(search_reference._realize(x, y, _RealizeState(spec, 0)))
            results[target] += _assert_branch_matches_reference(spec, x, y, full)
        assert all(results.values()), results

    @pytest.mark.parametrize("m, k, target, nodes, realized", [
        (8, 9, "dhat2", 578, 90),
        (9, 10, "dhat2", 1_255, 192),
        (7, 8, "flag-dhat2", 189, 34),
    ])
    def test_node_and_matrix_counts(self, m, k, target, nodes, realized):
        # the counts behind --max-nodes stops and --start-branch resumes
        spec = SearchSpec(m=m, n=m, k=k, target=target)
        branches = degree_branches(spec)
        state = _RealizeState(spec, 0)
        got = sum(1 for i in _searched_branches(spec, branches)
                  for _ in _realize(*branches[i], state))
        assert (state.nodes, got) == (nodes, realized)


class TestWhatTheBranchLeavesOpen:
    def test_residual_test_equals_criteria_up_to_5x5(self):
        # on a degree branch, k >= t and for t = 3 the 3-path count decide
        # the design's verdict in evaluate, on every matrix the unpruned
        # reference realizes; dedup and the flag leave the criteria alone
        seen = set()
        verdicts = set()
        for spec in _small_specs(5):
            design, t, _ = TARGETS[spec.target]
            if (spec.m, spec.n, spec.k, design, t) in seen:
                continue
            seen.add((spec.m, spec.n, spec.k, design, t))
            branches = degree_branches(spec)
            p3 = None
            if t == 3 and branches:
                c, d = count_targets(design, spec.m, spec.n, 3)["p3"]
                p3 = c * spec.k * (spec.k - 1) * (spec.k - 2) // d
            for x, y in branches:
                for rows in search_reference._realize(x, y, _RealizeState(spec, 0)):
                    residual = spec.k >= t and (p3 is None or three_paths(rows, x, y) == p3)
                    record = getattr(evaluate(BiGraph(spec.m, spec.n, rows)), design.lower())
                    assert residual == getattr(record, f"is_{t}design"), (spec, rows)
                    verdicts.add((design, t, residual))
        assert len(verdicts) == 8  # both verdicts for D and Dhat, t = 2 and 3

    def test_k_below_t_still_spends_nodes(self, capsys):
        # k = 1 < t keeps nothing, but the branch still realizes its nodes
        code = main(["search", "--m", "3", "--k", "1", "--target", "dhat2",
                     "--max-nodes", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "node budget of 1 exhausted (resume at degree branch 0)" in captured.err


class TestCriteriaBeforeKeys:
    """Only a realized matrix that meets the target's criteria (and, for a
    flag target, the edge-degree test) goes to permgroup.new_class."""

    @pytest.fixture
    def keyed(self, monkeypatch):
        graphs = []
        new_class = permgroup.new_class

        def spy(g, kept, allow_tau=False):
            graphs.append(g)
            return new_class(g, kept, allow_tau)

        monkeypatch.setattr(permgroup, "new_class", spy)
        return graphs

    @pytest.fixture
    def recounted(self, monkeypatch):
        """Calls of what a branch no longer needs: the full criteria, the
        subgraph counts, the degrees, and a graph for a failing matrix."""
        calls = []

        def spying(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        for module, name in [(criteria, "evaluate"), (criteria, "_check"),
                             (criteria, "stats"), (bigraph, "stats"),
                             (bigraph, "degrees"), (search, "BiGraph")]:
            monkeypatch.setattr(module, name, spying(name, getattr(module, name)))
        return calls

    def test_t3_budget_run_keys_nothing(self, keyed, recounted):
        # the first 11x11 k=36 branch realizes thousands of matrices within
        # the budget, and none meets the 3-design criteria
        spec = SearchSpec(m=11, n=11, k=36, target="dhat3", max_nodes=20_000)
        with pytest.raises(SearchBudgetError) as exc:
            list(exhaustive_search(spec))
        assert str(exc.value) == (
            "node budget of 20000 exhausted (resume at degree branch 0)")
        assert keyed == [] and recounted == []

    def test_flag_run_keys_nothing(self, keyed, recounted):
        # every realized matrix has edges of at least two degree pairs
        assert list(exhaustive_search(SearchSpec(m=7, n=7, k=8, target="flag-dhat2"))) == []
        assert keyed == [] and recounted == []


class TestFlagPrecheck:
    def test_edge_orbit_test_still_needed(self):
        # two row stars and one column star of three edges each: every edge
        # joins a degree-3 vertex to a degree-1 one and Dhat is a 2-design,
        # but the graph is not tau-equivalent, so no element of its G
        # stabilizer maps a row star onto the column star
        g = BiGraph(7, 7, (0b1110000, 0b0001110, 1, 1, 1, 0, 0))
        assert _uniform_edge_degrees(g.rows, *degrees(g)) and evaluate(g).dhat.is_2design
        assert not is_edge_transitive(g, automorphisms(g), "G")
        assert list(exhaustive_search(SearchSpec(m=7, n=7, k=9, target="flag-dhat2"))) == []

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_never_rejects_edge_transitive(self, m):
        rejected = 0
        for g in iso_class_reps(m, m):
            if _uniform_edge_degrees(g.rows, *degrees(g)):
                continue
            rejected += 1
            assert not is_edge_transitive(g, automorphisms(g), "G"), g
        assert rejected > 0 or m == 1
