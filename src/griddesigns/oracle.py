"""Brute-force ground truth for the design criteria.

Materializes the block orbit explicitly (breadth-first closure under a small
generating set of the acting group, never a loop over all group elements) and
decides the t-design property by direct counting: either a full coverage
histogram over all t-subsets of points, or the orbit-ratio test on the t-set
orbits of the acting group.  Everything here is independent of the degree
formulas in the criteria module; agreement between the two routes is the
package's central correctness check.

Budgets are explicit and refusal is deterministic; nothing is silently
truncated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .bigraph import BiGraph
from .workers import pool_size


class BudgetExceededError(RuntimeError):
    """A requested computation does not fit the configured budget."""


@dataclass(frozen=True)
class Budget:
    """Hard limits for explicit materialization and subset enumeration."""

    max_blocks: int = 500_000
    max_subsets: int = 5_000_000


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class ExplicitDesign:
    """A materialized block orbit.

    Points are the mn grid cells, indexed i * n + j (0-based row i, column
    j); blocks are frozensets of cell indices, all of size k.
    """

    m: int
    n: int
    blocks: tuple[frozenset[int], ...]
    group_tag: str  # "K" or "G"

    @property
    def v(self) -> int:
        return self.m * self.n

    @property
    def k(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    @property
    def b(self) -> int:
        return len(self.blocks)


def _cell_generators(m: int, n: int, group: str) -> list[list[int]]:
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


def block_of(g: BiGraph) -> frozenset[int]:
    """The block (cell set) encoded by a graph."""
    return frozenset((i - 1) * g.n + (j - 1) for i, j in g.edges())


def materialize(g: BiGraph, group: str = "K", budget: Budget | None = None) -> ExplicitDesign:
    """The exact orbit of the block under the chosen group.

    Breadth-first closure under the generator set; the orbit size times the
    block stabilizer order equals the group order.  Raises
    BudgetExceededError rather than returning a partial orbit.
    """
    budget = budget or DEFAULT_BUDGET
    gens = _cell_generators(g.m, g.n, group)
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
    blocks = tuple(sorted(seen, key=sorted))
    return ExplicitDesign(g.m, g.n, blocks, group)


def _coverage_of_blocks(args) -> Counter:
    blocks, t = args
    coverage: Counter = Counter()
    for blk in blocks:
        for sub in combinations(sorted(blk), t):
            coverage[sub] += 1
    return coverage


def lambda_table(
    d: ExplicitDesign, t: int, budget: Budget | None = None, workers: int = 1
) -> dict[int, int]:
    """Histogram {coverage count: number of t-subsets} over all C(v, t)
    t-subsets of the points.

    The structure is a t-design exactly when the histogram has a single key
    (and k >= t, so the single coverage value is positive).  With workers > 1
    the blocks are counted in parallel chunks; the merged histogram is
    independent of the chunking.
    """
    budget = budget or DEFAULT_BUDGET
    total = comb(d.v, t)
    if total > budget.max_subsets:
        raise BudgetExceededError(
            f"{total} t-subsets exceed budget of {budget.max_subsets}"
        )
    size = pool_size(workers, d.b)
    if size > 1:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-d.b // size)
        chunks = [(d.blocks[i:i + step], t) for i in range(0, d.b, step)]
        coverage: Counter = Counter()
        with ProcessPoolExecutor(max_workers=size) as pool:
            for part in pool.map(_coverage_of_blocks, chunks):
                coverage.update(part)
    else:
        coverage = _coverage_of_blocks((d.blocks, t))
    hist = Counter(coverage.values())
    uncovered = total - len(coverage)
    if uncovered:
        hist[0] = uncovered
    return dict(sorted(hist.items()))


def design_verdict(d: ExplicitDesign, t: int, budget: Budget | None = None):
    """(is_t_design, histogram).  k >= t is required so that the constant
    coverage is a positive lambda; blocks smaller than t cover every t-subset
    zero times, which does not count as a design."""
    hist = lambda_table(d, t, budget)
    return len(hist) == 1 and d.k >= t, hist


def is_complete(d: ExplicitDesign) -> bool:
    """Whether the blocks are all k-subsets of the points."""
    return d.b == comb(d.v, d.k)


# ---------------------------------------------------------------------------
# Orbit-ratio test: t-design iff the block meets every group orbit on
# t-subsets of cells proportionally to the orbit size.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitRatio:
    name: str
    orbit_size: int
    count_in_block: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.count_in_block, self.orbit_size)


def _classify(cells: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    rows = len({c[0] for c in cells})
    cols = len({c[1] for c in cells})
    return rows, cols


_K_ORBITS = {
    2: {
        (1, 2): "row-pair",
        (2, 1): "col-pair",
        (2, 2): "free-pair",
    },
    3: {
        (1, 3): "row-triple",
        (3, 1): "col-triple",
        (2, 2): "corner",
        (2, 3): "row-pair-plus",
        (3, 2): "col-pair-plus",
        (3, 3): "free-triple",
    },
}

# On square grids the transpose map fuses the row/column-symmetric K-orbits.
_G_FUSION = {
    2: {"row-pair": "line-pair", "col-pair": "line-pair", "free-pair": "free-pair"},
    3: {
        "row-triple": "line-triple",
        "col-triple": "line-triple",
        "corner": "corner",
        "row-pair-plus": "pair-plus",
        "col-pair-plus": "pair-plus",
        "free-triple": "free-triple",
    },
}


def _orbit_sizes(m: int, n: int, t: int) -> dict[str, int]:
    if t == 2:
        return {
            "row-pair": m * comb(n, 2),
            "col-pair": n * comb(m, 2),
            "free-pair": m * n * (m - 1) * (n - 1) // 2,
        }
    if t == 3:
        return {
            "row-triple": m * comb(n, 3),
            "col-triple": n * comb(m, 3),
            "corner": m * n * (m - 1) * (n - 1),
            "row-pair-plus": m * (m - 1) * n * (n - 1) * (n - 2) // 2,
            "col-pair-plus": n * (n - 1) * m * (m - 1) * (m - 2) // 2,
            "free-triple": m * (m - 1) * (m - 2) * n * (n - 1) * (n - 2) // 6,
        }
    raise ValueError("orbit ratios are implemented for t in {2, 3}")


def orbit_ratio_check(g: BiGraph, group: str, t: int):
    """(is_t_design, per-orbit records) by the ratio criterion.

    T-subsets of the grid are classified by their row/column coincidence
    pattern, which determines the orbit of the acting group; the counts are
    taken on the single block of g by direct enumeration, independently of
    the degree formulas.  The structure is a t-design iff count/size is the
    same fraction for every non-empty orbit (and k >= t).
    """
    if t not in (2, 3):
        raise ValueError("t must be 2 or 3")
    if group not in ("K", "G"):
        raise ValueError(f"unknown group {group!r}")
    if group == "G" and g.m != g.n:
        raise ValueError("G requires a square grid")

    sizes = _orbit_sizes(g.m, g.n, t)
    counts = {name: 0 for name in sizes}
    for triple in combinations(g.edges(), t):
        counts[_K_ORBITS[t][_classify(triple)]] += 1

    if group == "G":
        fused_sizes: dict[str, int] = {}
        fused_counts: dict[str, int] = {}
        for name, size in sizes.items():
            target = _G_FUSION[t][name]
            fused_sizes[target] = fused_sizes.get(target, 0) + size
            fused_counts[target] = fused_counts.get(target, 0) + counts[name]
        sizes, counts = fused_sizes, fused_counts

    assert sum(sizes.values()) == comb(g.m * g.n, t)
    records = [
        OrbitRatio(name, size, counts[name])
        for name, size in sorted(sizes.items())
        if size > 0
    ]
    ratios = {r.ratio for r in records}
    verdict = len(ratios) == 1 and g.k >= t
    return verdict, records


def flag_transitive_direct(d: ExplicitDesign, budget: Budget | None = None) -> bool:
    """Whether the acting group has a single orbit on incident (point, block)
    pairs, checked by closure on the explicit flags."""
    budget = budget or DEFAULT_BUDGET
    if not d.blocks or d.k == 0:
        raise ValueError("flag transitivity is undefined without flags")
    nflags = d.b * d.k
    if nflags > budget.max_subsets:
        raise BudgetExceededError(f"{nflags} flags exceed budget")
    gens = _cell_generators(d.m, d.n, d.group_tag)
    index = {blk: i for i, blk in enumerate(d.blocks)}
    block_maps = []
    for perm in gens:
        block_maps.append(
            [index[frozenset(perm[c] for c in blk)] for blk in d.blocks]
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


def export_block_list(d: ExplicitDesign) -> str:
    """Block-list text: one `block` line per block, points as `i,j` (1-based)."""
    lines = []
    for blk in d.blocks:
        pts = " ".join(f"{c // d.n + 1},{c % d.n + 1}" for c in sorted(blk))
        lines.append(f"block {pts}")
    return "\n".join(lines) + "\n"
