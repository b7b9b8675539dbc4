"""The chain shortcuts against the from-scratch chain of ``chain_reference``.

``automorphisms`` builds a chain level's root by moving the pinned vertex,
without refining again, when the pin is isolated or the current root is a
twin node with a single non-singleton cell, and gives every twin candidate
its generator without a search (``_twin_swap``).  The reports must match the
chain that refines every level from scratch and searches every twin
candidate, field by field.  The lemma behind ``_twin_swap`` is checked at
each of its calls: the candidate's cell holds only twins of the pin, and the
search from the root with the twins exchanged returns the same map.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from griddesigns import permgroup
from griddesigns.bigraph import BiGraph
from griddesigns.permgroup import _bits, _branch, _descend, _neighbours, automorphisms
from griddesigns.search import family_cycle, family_figure, family_path

import chain_reference
from conftest import iso_class_reps


def assert_same_report(g):
    assert automorphisms(g) == chain_reference.automorphisms(g), g


def path_family(top: int):
    """Paths of several lengths on every m x m grid with 2 <= m <= top, and on
    (m + 1) x m."""
    for m in range(2, top + 1):
        for k in {1, 2, m - 1, m, m + 1, 2 * m - 1}:
            yield family_path(k, m, m)
        yield family_path(m + 1, m + 1, m)


def cycle_family(top: int):
    """Cycles of several lengths on every m x m grid with 2 <= m <= top."""
    for m in range(2, top + 1):
        for k in {4, m + m % 2, m + 2 - m % 2, 2 * m}:
            if 4 <= k <= 2 * m:
                yield family_cycle(k, m)


def random_graphs(rng: random.Random, count: int):
    """count graphs up to 9x9, a quarter each: density 1/2, dense (7/8),
    rows drawn from a few distinct rows, and sparse (1/8) with some rows
    emptied, so most have isolated vertices.  Moving the pin at twin nodes
    with several non-singleton cells as well changes the reports of fig1
    and of 5 of these graphs, all with equal rows."""
    out = []
    for i in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        full = (1 << n) - 1
        kind = i % 4
        if kind == 0:
            rows = [rng.getrandbits(n) for _ in range(m)]
        elif kind == 1:
            rows = [full & ~(rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n))
                    for _ in range(m)]
        elif kind == 2:
            pool = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
            rows = [rng.choice(pool) for _ in range(m)]
        else:
            rows = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                    if rng.random() < 0.7 else 0 for _ in range(m)]
        out.append(BiGraph(m, n, tuple(rows)))
    return out


class TestAgainstFromScratchChain:
    def test_every_class(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for g in iso_class_reps(m, n):
                    assert_same_report(g)

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3"])
    def test_figures(self, fig):
        assert_same_report(family_figure(fig))

    def test_path_family(self):
        for g in path_family(20):
            assert_same_report(g)

    def test_cycle_family(self):
        for g in cycle_family(20):
            assert_same_report(g)

    def test_random_graphs(self):
        graphs = random_graphs(random.Random(2214), 2400)
        assert sum(g.m == 9 and g.n == 9 for g in graphs) >= 10
        for g in graphs:
            assert_same_report(g)


def check_twin_swaps(g) -> int:
    """Check every _twin_swap call of automorphisms(g) against the lemma in
    the permgroup docstring; returns the number of calls."""
    calls = []
    original = permgroup._twin_swap

    def spy(part, u, w):
        found = original(part, u, w)
        calls.append((part, u, w, found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permgroup, "_twin_swap", spy)
        automorphisms(g)
    nbrs = _neighbours(g)
    masks = nbrs[1]
    for part, u, w, found in calls:
        ptn, cell_of = part
        assert ptn[-cell_of[u]] == 1 << u, g
        assert all(masks[x] == masks[u] for x in _bits(ptn[-cell_of[w]])), g
        path = [(part, None, _branch(ptn, masks))]
        assert _descend(nbrs, nbrs, path, 0, chain_reference.swapped(part, u, w)) == found, g
    return len(calls)


@st.composite
def twin_graphs(draw):
    """Graphs up to 8x8 whose rows come from a small pool or are empty, so
    most have twins on both sides."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    return BiGraph(m, n, tuple(draw(st.sampled_from(pool + [0])) for _ in range(m)))


class TestTwinSwapLemma:
    def test_every_class(self):
        assert sum(check_twin_swaps(g) for m in range(1, 5) for n in range(1, 5)
                   for g in iso_class_reps(m, n))

    def test_path_and_cycle_families(self):
        assert sum(map(check_twin_swaps, [*path_family(12), *cycle_family(12)]))

    @settings(max_examples=200, deadline=None)
    @given(twin_graphs())
    def test_random_graphs(self, g):
        check_twin_swaps(g)
