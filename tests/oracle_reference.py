"""Reference block orbits on frozensets.

This is the original engine behind ``oracle.materialize`` and
``oracle.flag_transitive_direct``: every block is a frozenset of cells and
every generator a cell permutation, the transpose included, closed block by
block.  The library instead closes only the row multisets under adjacent
column swaps and lists each multiset's row orders as ascending cell tuples.
This engine keeps its frozensets inside and returns its blocks as ascending
cell tuples in lexicographic order, so the tests hold the two engines to
the same blocks in the same order, the same histograms and the same flag
verdicts.  `lambda_table` counts the histogram
of an explicit design on its whole blocks, with no symmetry assumed, against
which the tests hold `oracle.orbit_verdicts`.  `is_complete` tells a design
whose blocks are all k-subsets of the points.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb

from griddesigns.bigraph import BiGraph
from griddesigns.oracle import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    ExplicitDesign,
)


def block_of(g: BiGraph) -> frozenset[int]:
    """The block (cell set) encoded by a graph."""
    return frozenset((i - 1) * g.n + (j - 1) for i, j in g.edges())


def is_complete(d: ExplicitDesign) -> bool:
    """Whether the blocks are all k-subsets of the points."""
    return d.b == comb(d.v, d.k)


def cell_generators(m: int, n: int, group: str) -> list[list[int]]:
    """Cell permutations for adjacent row/column transpositions, plus the
    transpose map for G; these generate the acting group."""
    if group not in ("K", "G"):
        raise ValueError(f"unknown group {group!r}")
    if group == "G" and m != n:
        raise ValueError("G requires a square grid")
    gens = []
    for r in range(m - 1):
        perm = list(range(m * n))
        for j in range(n):
            perm[r * n + j], perm[(r + 1) * n + j] = perm[(r + 1) * n + j], perm[r * n + j]
        gens.append(perm)
    for c in range(n - 1):
        perm = list(range(m * n))
        for i in range(m):
            perm[i * n + c], perm[i * n + c + 1] = perm[i * n + c + 1], perm[i * n + c]
        gens.append(perm)
    if group == "G":
        gens.append([(idx % n) * n + idx // n for idx in range(m * n)])
    return gens


def materialize(g: BiGraph, group: str = "K", budget: Budget | None = None) -> ExplicitDesign:
    budget = budget or DEFAULT_BUDGET
    gens = cell_generators(g.m, g.n, group)
    start = block_of(g)
    seen = {start}
    frontier = [start]
    while frontier:
        blk = frontier.pop()
        for perm in gens:
            image = frozenset(perm[c] for c in blk)
            if image not in seen:
                if len(seen) >= budget.max_blocks:
                    raise BudgetExceededError(
                        f"block orbit exceeds budget of {budget.max_blocks} blocks"
                    )
                seen.add(image)
                frontier.append(image)
    blocks = tuple(sorted(tuple(sorted(blk)) for blk in seen))
    return ExplicitDesign(g.m, g.n, blocks, group)


def coverage_of_blocks(args) -> Counter:
    """One count for every t-subset of every block: one Counter.update per
    block, over its combinations."""
    blocks, t = args
    coverage: Counter = Counter()
    for blk in blocks:
        coverage.update(combinations(blk, t))
    return coverage


def lambda_table(d: ExplicitDesign, t: int, budget: Budget | None = None) -> dict[int, int]:
    """{coverage count: number of t-subsets} over all C(v, t) t-subsets of
    the points; more t-subsets than the budget allows are refused."""
    budget = budget or DEFAULT_BUDGET
    if comb(d.v, t) > budget.max_subsets:
        raise BudgetExceededError(
            f"{comb(d.v, t)} t-subsets exceed budget of {budget.max_subsets}"
        )
    coverage = coverage_of_blocks((d.blocks, t))
    hist = Counter(coverage.values())
    uncovered = comb(d.v, t) - len(coverage)
    if uncovered:
        hist[0] = uncovered
    return dict(sorted(hist.items()))


def flag_transitive_direct(d: ExplicitDesign, budget: Budget | None = None) -> bool:
    budget = budget or DEFAULT_BUDGET
    if not d.blocks or d.k == 0:
        raise ValueError("flag transitivity is undefined without flags")
    nflags = d.b * d.k
    if nflags > budget.max_subsets:
        raise BudgetExceededError(
            f"{nflags} flags exceed budget of {budget.max_subsets}"
        )
    gens = cell_generators(d.m, d.n, d.group_tag)
    blocks = [frozenset(blk) for blk in d.blocks]
    index = {blk: i for i, blk in enumerate(blocks)}
    block_maps = []
    for perm in gens:
        block_maps.append(
            [index[frozenset(perm[c] for c in blk)] for blk in blocks]
        )
    start = (min(d.blocks[0]), 0)
    seen = {start}
    frontier = [start]
    while frontier:
        cell, bi = frontier.pop()
        for perm, bmap in zip(gens, block_maps):
            flag = (perm[cell], bmap[bi])
            if flag not in seen:
                seen.add(flag)
                frontier.append(flag)
    return len(seen) == nflags
