"""Refine once, replay the trace: the same cells, failures and generators as
the lockstep reference in ``lockstep_reference``.  The refinement side is
``refine_reference``'s from-scratch refine and replay, built on the rounds
the search uses."""

import random

from hypothesis import given, settings, strategies as st

import lockstep_reference as ref
from griddesigns.bigraph import BiGraph, transpose
from griddesigns.permgroup import (
    GridPerm,
    _descend,
    _layout,
    _neighbours,
    _search_iso,
    _side_cells,
    _start,
    apply,
    automorphisms,
)
from griddesigns.search import family_cycle, family_figure, family_path

from conftest import iso_class_reps, random_gridperm
from refine_reference import refine_from_scratch, replay_from_scratch

SIDES = [(m, n) for m in range(1, 5) for n in range(1, 5)]


def refine_pair(g, h, cells_a, cells_b):
    """Refine cells_a on g once, replay the trace with cells_b on h; shaped
    like the reference's lockstep result."""
    refined_a, trace = refine_from_scratch(cells_a, _neighbours(g))
    refined_b = replay_from_scratch(cells_b, _neighbours(h), trace)
    if refined_b is None:
        return None
    return refined_a, refined_b


def search_pair(g, h, cells_a, cells_b):
    nbrs_g = _neighbours(g)
    return _search_iso(nbrs_g, _start(cells_a, nbrs_g), _neighbours(h), cells_b)


def assert_same(g, h, cells_a, cells_b):
    adj_g, adj_h = ref.adjacency(g), ref.adjacency(h)
    assert refine_pair(g, h, cells_a, cells_b) == ref.refine(cells_a, cells_b, adj_g, adj_h)
    assert search_pair(g, h, cells_a, cells_b) == ref.search_iso(
        adj_g, adj_h, cells_a, cells_b, g.m + g.n
    )


def chain_levels(g):
    """(pins, u, target) for every level of the reference stabilizer chain."""
    levels = []
    ref.k_stabilizer(g, lambda pins, u, target: levels.append((pins, u, target)))
    return levels


def assert_chain_prefixes(g, h):
    """Every pin prefix the chain of g visits, as the level partition and as
    the root of each coset search, with h on the candidate side."""
    m, n = g.m, g.n
    for pins, u, target in chain_levels(g):
        assert_same(g, h, _side_cells(m, n, pins), _side_cells(m, n, pins))
        for w in ref.bits(target):
            assert_same(g, h, _side_cells(m, n, pins + (u,)), _side_cells(m, n, pins + (w,)))


class TestAgainstLockstep:
    def test_every_class_every_chain_prefix(self):
        for m, n in SIDES:
            for g in iso_class_reps(m, n):
                assert_chain_prefixes(g, g)

    def test_transpose_candidate_side(self):
        # adjacency differs between the two sides, so replays can fail
        failed = passed = 0
        for m in range(1, 5):
            for g in iso_class_reps(m, m):
                h = transpose(g)
                assert_chain_prefixes(g, h)
                if refine_pair(g, h, _side_cells(m, m, ()), _side_cells(m, m, ())) is None:
                    failed += 1
                else:
                    passed += 1
        assert failed and passed

    def test_relabelled_candidate_side(self):
        rng = random.Random(41)
        for m, n in [(3, 4), (4, 3), (4, 4)]:
            for g in iso_class_reps(m, n):
                h = apply(random_gridperm(m, n, rng), g)
                assert_same(g, h, _side_cells(m, n, ()), _side_cells(m, n, ()))


@st.composite
def graphs(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    return BiGraph(m, n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(m)))


@st.composite
def graph_pairs(draw):
    g = draw(graphs())
    m, n = g.m, g.n
    kind = draw(st.sampled_from(["self", "relabel", "transpose", "other"]))
    if kind == "self":
        h = g
    elif kind == "relabel":
        rows_p = draw(st.permutations(range(m)))
        cols_p = draw(st.permutations(range(n)))
        h = apply(GridPerm(tuple(rows_p), tuple(cols_p), False), g)
    elif kind == "transpose" and m == n:
        h = transpose(g)
    else:
        h = BiGraph(m, n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(m)))
    npins = draw(st.integers(0, min(3, m + n)))
    pins_a = tuple(draw(st.permutations(range(m + n)))[:npins])
    pins_b = tuple(draw(st.permutations(range(m + n)))[:npins])
    return g, h, pins_a, pins_b


class TestHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(graph_pairs())
    def test_refine_and_search_match(self, case):
        g, h, pins_a, pins_b = case
        assert_same(g, h, _side_cells(g.m, g.n, pins_a), _side_cells(h.m, h.n, pins_b))

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_generators_match(self, g):
        rep = automorphisms(g)
        k_gens, k_order, g_gens = ref.generators(g)
        assert (rep.k_gens, rep.k_order, rep.g_gens) == (k_gens, k_order, g_gens)


def twin_heavy_graphs():
    """Graphs made mostly of twins (equal neighbourhoods): relabelled sparse
    patches on large grids, empty grids, repeated rows or columns, and the
    diagonal paths with k = m + 1."""
    rng = random.Random(14)
    out = []
    patch = [(i, j) for i in range(4) for j in range(4)]
    for m in (12, 13, 14):
        for _ in range(3):
            rows = [0] * m
            for i, j in rng.sample(patch, 6):
                rows[i] |= 1 << j
            g = BiGraph(m, m, tuple(rows))
            out.append(apply(random_gridperm(m, m, rng, allow_swap=True), g))
    out += [BiGraph(m, n, (0,) * m) for m in range(1, 10) for n in range(1, 10)]
    for m, n in [(6, 7), (7, 5), (8, 8), (9, 6), (5, 9)]:
        for _ in range(2):
            base = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))]
            g = BiGraph(m, n, tuple(rng.choice(base + [0]) for _ in range(m)))
            out.append(apply(random_gridperm(m, n, rng), g))
            # the same masks as repeated columns of an n x m grid
            flipped = tuple(sum((row >> j & 1) << i for i, row in enumerate(g.rows))
                            for j in range(n))
            out.append(apply(random_gridperm(n, m, rng), BiGraph(n, m, flipped)))
    out += [family_path(m + 1, m, m) for m in range(2, 21)]
    return out


class TestGenerators:
    def test_every_class(self):
        for m, n in SIDES:
            for g in iso_class_reps(m, n):
                rep = automorphisms(g)
                k_gens, k_order, g_gens = ref.generators(g)
                assert (rep.k_gens, rep.k_order, rep.g_gens) == (k_gens, k_order, g_gens)

    def test_figures_and_families(self):
        cases = [family_figure(fig) for fig in ("fig1", "fig2", "fig3")]
        cases += [family_path(6, 8, 8), family_cycle(8, 8), family_path(9, 10, 10)]
        cases += twin_heavy_graphs()
        for g in cases:
            rep = automorphisms(g)
            k_gens, k_order, g_gens = ref.generators(g)
            assert (rep.k_gens, rep.k_order, rep.g_gens) == (k_gens, k_order, g_gens)


class TestTwinNodes:
    """A node whose non-singleton cells all hold twins is a leaf: each cell
    maps in ascending order, and the map is checked like a leaf's."""

    def test_twin_node_without_isomorphism(self):
        # two K_{2,2} against an 8-cycle: the a-side path reaches a twin node,
        # every b-side replay below the root fails
        g = BiGraph(6, 6, (0b0011, 0b0011, 0b1100, 0b1100, 0, 0))
        h = BiGraph(6, 6, (0b0011, 0b0110, 0b1100, 0b1001, 0, 0))
        cells = _side_cells(6, 6, ())
        path = _start(cells, _neighbours(g))
        assert _search_iso(_neighbours(g), path, _neighbours(h), cells) is None
        assert path[-1][2] is None
        assert_same(g, h, cells, cells)

    def test_unmatched_twin_node_gives_none(self):
        # a matched replay fixes the cell-to-cell counts, and at a twin node
        # those fix the graph, so the ascending map only fails on a b-side
        # partition that no replay produced
        g = BiGraph(3, 3, (0b011, 0b011, 0))
        h = BiGraph(3, 3, (0b011, 0b110, 0))
        nbrs_g = _neighbours(g)
        path = _start(_side_cells(3, 3, ()), nbrs_g)
        part_a, _, branch = path[0]
        assert branch is None and any(c & (c - 1) for c in part_a[0])
        refined = [c for c in part_a[0] if c]
        part_b = _layout(refined, 6)
        assert _descend(nbrs_g, _neighbours(h), path, 0, part_b) is None
        assert ref.search_iso(ref.adjacency(g), ref.adjacency(h), refined, refined, 6) is None
        assert _descend(nbrs_g, nbrs_g, path, 0, _layout(refined, 6)) == list(range(6))
