"""The chain shortcuts against the from-scratch chain of ``chain_reference``.

``automorphisms`` builds a chain level's root by moving the pinned vertex,
without refining again, when the pin is isolated or the current root is a
twin node with a single non-singleton cell, and builds a twin candidate's
generator at a twin root without a search.  The reports must match the
chain that refines every level from scratch, field by field.
"""

import random

import pytest

from griddesigns.bigraph import BiGraph
from griddesigns.permgroup import automorphisms
from griddesigns.search import family_cycle, family_figure, family_path

import chain_reference
from conftest import iso_class_reps


def assert_same_report(g):
    assert automorphisms(g) == chain_reference.automorphisms(g), g


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
        for m in range(2, 21):
            for k in {1, 2, m - 1, m, m + 1, 2 * m - 1}:
                assert_same_report(family_path(k, m, m))
            assert_same_report(family_path(m + 1, m + 1, m))

    def test_cycle_family(self):
        for m in range(2, 21):
            for k in {4, m + m % 2, m + 2 - m % 2, 2 * m}:
                if 4 <= k <= 2 * m:
                    assert_same_report(family_cycle(k, m))

    def test_random_graphs(self):
        graphs = random_graphs(random.Random(2214), 2400)
        assert sum(g.m == 9 and g.n == 9 for g in graphs) >= 10
        for g in graphs:
            assert_same_report(g)
