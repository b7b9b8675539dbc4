"""Incremental refinement: a child partition refined from its equitable parent
against the same partition refined from scratch.

``test_refinement`` holds the from-scratch refine and replay of
``refine_reference`` to the lockstep reference.  Here every inner node that
``automorphisms`` searches is checked the other way: the seeded a-side child
has the same cells as a from-scratch refinement, and the seeded b-side replay
fails on exactly the candidates where replaying the from-scratch trace fails.
The chain shortcuts leave few passing replays in the figures' and the
families' chains (none in the figures'), so those are checked on the
from-scratch chain of ``chain_reference``, which still descends at every
level and for every twin candidate.
"""

from collections import defaultdict
from functools import partial
from itertools import permutations

import pytest

from griddesigns import permgroup
from griddesigns.bigraph import BiGraph
from griddesigns.permgroup import (
    _bits,
    _child,
    _neighbours,
    _node,
    _replay_part,
    _search_iso,
    _side_cells,
    _start,
    automorphisms,
)
from griddesigns.search import family_cycle, family_figure, family_path

import chain_reference
from conftest import cycle_union, iso_class_reps
from refine_reference import refine_from_scratch, replay_from_scratch


def search_nodes(run, monkeypatch):
    """(nbrs_a, nbrs_b, a-side node, b-side partition) at every node that the
    searches of run() descend through."""
    seen = []
    original = permgroup._descend

    def spy(nbrs_a, nbrs_b, path, depth, part_b):
        seen.append((nbrs_a, nbrs_b, path[depth], (part_b[0][:], part_b[1][:])))
        return original(nbrs_a, nbrs_b, path, depth, part_b)

    with monkeypatch.context() as patch:
        patch.setattr(permgroup, "_descend", spy)
        run()
    return seen


def cells(part):
    return [cell for cell in part[0] if cell]


def first_smallest(part):
    """Start of the first smallest non-singleton cell, or None."""
    sizes = [(cell.bit_count(), start) for start, cell in enumerate(part[0])
             if cell & (cell - 1)]
    return min(sizes)[1] if sizes else None


def check_children(run, monkeypatch):
    """Every child of every node that run() searches, seeded against from
    scratch; returns the numbers of failed and passed b-side replays.  A twin
    node is a leaf of the search (its branch is None), but the children it
    would have are checked all the same."""
    failed = passed = 0
    scratch = {}
    for nbrs_a, nbrs_b, node_a, part_b in search_nodes(run, monkeypatch):
        part_a, _, node_branch = node_a
        branch = first_smallest(part_a)
        assert node_branch in (None, branch)
        if branch is None:
            continue
        cell_a = part_a[0][branch]
        a = (cell_a & -cell_a).bit_length() - 1
        if id(node_a) not in scratch:
            child = _child(part_a, branch, a)
            expect_cells, expect_trace = refine_from_scratch(cells(child), nbrs_a)
            seeded, trace, _ = _node(child, nbrs_a, nbrs_a[1][a])
            assert cells(seeded) == expect_cells
            scratch[id(node_a)] = (node_a, expect_trace, trace)
        _, expect_trace, trace = scratch[id(node_a)]
        for b in _bits(part_b[0][branch]):
            child = _child(part_b, branch, b)
            expect = replay_from_scratch(cells(child), nbrs_b, expect_trace)
            ok = _replay_part(child, nbrs_b, nbrs_b[1][b], trace)
            assert ok == (expect is not None)
            if ok:
                assert cells(child) == expect
                passed += 1
            else:
                failed += 1
    return failed, passed


def degree_twins():
    """Pairs of distinct classes with m, n <= 4 and equal row and column
    degree multisets."""
    groups = defaultdict(list)
    for m in range(1, 5):
        for n in range(1, 5):
            for g in iso_class_reps(m, n):
                cols = [sum(row >> j & 1 for row in g.rows) for j in range(n)]
                key = (m, n, tuple(sorted(row.bit_count() for row in g.rows)),
                       tuple(sorted(cols)))
                groups[key].append(g)
    return [pair for gs in groups.values() for pair in permutations(gs, 2)]


class TestSeededChildren:
    """The chain and the transpose test search g against g and transpose(g);
    the two-cycle and degree-twin cases search g against a graph it is not
    isomorphic to, where replays below the root fail."""

    def test_every_class(self, monkeypatch):
        for m in range(1, 5):
            for n in range(1, 5):
                for g in iso_class_reps(m, n):
                    check_children(partial(automorphisms, g), monkeypatch)
                    check_children(partial(chain_reference.automorphisms, g), monkeypatch)

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3"])
    def test_figures(self, monkeypatch, fig):
        failed, passed = check_children(
            partial(chain_reference.automorphisms, family_figure(fig)), monkeypatch)
        assert passed

    @pytest.mark.parametrize("g", [
        family_path(5, 4, 4), family_path(6, 8, 8), family_path(9, 10, 10),
        family_path(7, 4, 5), family_cycle(6, 4), family_cycle(8, 8),
        family_cycle(10, 6),
    ], ids=["path5-4x4", "path6-8x8", "path9-10x10", "path7-4x5", "cycle6-4", "cycle8-8", "cycle10-6"])
    def test_path_and_cycle_families(self, monkeypatch, g):
        check_children(partial(chain_reference.automorphisms, g), monkeypatch)

    def test_non_isomorphic_candidates(self, monkeypatch):
        pairs = degree_twins()
        for n, splits in [(5, [[5], [2, 3]]),
                          (6, [[6], [3, 3], [2, 4], [2, 2, 2]]),
                          (7, [[7], [2, 5], [3, 4], [2, 2, 3]])]:
            pairs += permutations([cycle_union(n, lengths) for lengths in splits], 2)
        failed = passed = 0
        for g, h in pairs:
            nbrs_g, cells = _neighbours(g), _side_cells(g.m, g.n, ())
            f, p = check_children(
                partial(_search_iso, nbrs_g, _start(cells, nbrs_g), _neighbours(h), cells),
                monkeypatch)
            failed += f
            passed += p
        assert failed and passed


def work(g, monkeypatch) -> tuple[int, int]:
    """The vertex signatures and refinement rounds of automorphisms(g).  A
    round signs every vertex of each cell that meets its dirty mask, so the
    signatures are counted from the arguments, before the round runs."""
    signatures = rounds = 0
    original = permgroup._split_round

    def counting(part, nbrs, dirty):
        nonlocal signatures, rounds
        signatures += sum(cell.bit_count() for cell in part[0] if cell & dirty)
        rounds += 1
        return original(part, nbrs, dirty)

    with monkeypatch.context() as patch:
        patch.setattr(permgroup, "_split_round", counting)
        automorphisms(g)
    return signatures, rounds


class TestSignatureBudget:
    """The work automorphisms does, as vertex signatures and refinement
    rounds.  Signing only the cells next to a split took 14,102, 5,583 and
    8,736 signatures, against 73,492, 28,584 and 153,856 when every round
    signed every cell.  Twin nodes as leaves and twin roots without a replay
    took the rounds on empty 16x16, path k=6 on 14x14 and fig3 from 4,808,
    1,743 and 967 down to 33, 235 and 120.  Chain levels built by moving the
    pinned vertex, without refining again, took the signatures on fig3, path
    k=6 on 14x14, empty 16x16 and empty 40x40 from 4,780, 1,231, 1,024 and
    6,400, and the rounds from 114, 232 and 32, down to 2,929, 519, 64 and
    160, and 70, 175 and 2.  Twin swaps without a search at every level took
    path k=6 on 14x14 from 519 signatures and 175 rounds, and cycle k=62 on
    60x60 from 280,933 and 45,913, down to the bounds below."""

    @pytest.mark.parametrize("g, bound", [
        (family_figure("fig3"), 2_929),
        (BiGraph(12, 12, tuple(1 << i for i in range(12))), 5_559),
        (family_path(6, 14, 14), 141),
        (BiGraph(16, 16, (0,) * 16), 64),
        (BiGraph(40, 40, (0,) * 40), 160),
        (family_cycle(62, 60), 4_909),
    ], ids=["fig3", "matching-12x12", "path6-14x14", "empty-16x16", "empty-40x40",
            "cycle62-60x60"])
    def test_upper_bound(self, monkeypatch, g, bound):
        assert 0 < work(g, monkeypatch)[0] <= bound

    @pytest.mark.parametrize("g, bound", [
        (BiGraph(16, 16, (0,) * 16), 2),
        (family_path(6, 14, 14), 10),
        (family_figure("fig3"), 70),
        (family_cycle(62, 60), 469),
    ], ids=["empty-16x16", "path6-14x14", "fig3", "cycle62-60x60"])
    def test_split_rounds(self, monkeypatch, g, bound):
        assert 0 < work(g, monkeypatch)[1] <= bound
