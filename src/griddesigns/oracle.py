"""Brute-force ground truth for the design criteria.

Materializes the block orbit explicitly and decides the t-design property by
direct counting: either a full coverage histogram over all t-subsets of
points, or the orbit-ratio test on the t-set orbits of the acting group.  The
orbit is listed without a loop over the group elements and without a
closure over blocks: the multisets of a block's rows are closed under
adjacent column swaps, and each block is built once, as an ascending cell
tuple, from one distinct row order of one multiset.  Flag-transitivity is
counted the same way, without listing flags: the same closure runs on the
block's row multiset with the point's row marked.  Everything here is
independent of the degree formulas in the criteria module; agreement between
the two routes is the package's central correctness check.

Budgets are explicit and refusal is deterministic; nothing is silently
truncated.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, repeat, starmap
from math import comb, factorial
from operator import add, itemgetter

from .bigraph import BiGraph
from .workers import pool_size


class BudgetExceededError(RuntimeError):
    """A requested computation does not fit the configured budget."""


@dataclass(frozen=True)
class Budget:
    """Hard limits for explicit materialization and subset enumeration."""

    max_blocks: int = 500_000
    max_subsets: int = 5_000_000

    def __post_init__(self):
        for name in ("max_blocks", "max_subsets"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class ExplicitDesign:
    """A materialized block orbit.

    Points are the mn grid cells, indexed i * n + j (0-based row i, column
    j); each block is the ascending tuple of its cell indices, all of size
    k, and the blocks come in lexicographic order.
    """

    m: int
    n: int
    blocks: tuple[tuple[int, ...], ...]
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


def _check_group(m: int, n: int, group: str) -> None:
    if group not in ("K", "G"):
        raise ValueError(f"unknown group {group!r}")
    if group == "G" and m != n:
        raise ValueError("G requires a square grid")


def _pickers(counts: tuple[int, ...], sizes: tuple[int, ...]) -> list[itemgetter]:
    """One picker per distinct row order of a multiset whose distinct rows
    occur counts[i] times and hold sizes[i] cells each.  Applied to the
    cells of every distinct row in every row position, position major, a
    picker returns the ascending cells of its block.

    Each level fills one more row position: the partial orders, grouped by
    the rows they have left, are extended by each distinct row still left.
    So the work follows the output (m equal rows give one order, never m!
    permutations), and the Python work is per group, not per order."""
    width = sum(sizes)
    bounds = list(accumulate(sizes, initial=0))
    groups = {counts: [()]}  # rows left -> index tuples of the partial orders
    for p in range(sum(counts)):
        grown = defaultdict(list)
        for left, partial in groups.items():
            for i, c in enumerate(left):
                if c:
                    base = p * width
                    span = tuple(range(base + bounds[i], base + bounds[i + 1]))
                    after = left[:i] + (c - 1,) + left[i + 1:]
                    grown[after] += map(add, partial, repeat(span))
        groups = grown
    (picks,) = groups.values()
    if len(picks[0]) > 1:
        return list(starmap(itemgetter, picks))
    # itemgetter of one index returns a bare item, not a tuple, so a block
    # of at most one cell is a slice
    return [itemgetter(slice(at[0], at[0] + 1) if at else slice(0)) for at in picks]


def _arrangements(counts: tuple[int, ...]) -> int:
    """The number of distinct orders of a multiset whose distinct items
    occur counts[i] times each: (sum counts)! / prod counts[i]!."""
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def _shape(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(distinct rows, their multiplicities, their sizes) of a row multiset,
    ordered by (multiplicity, size, mask).  Column permutations keep
    multiplicities and sizes, so every multiset of one K-orbit has the same
    multiplicities and sizes in this order."""
    distinct = dict.fromkeys(rows)
    ranked = zip(map(rows.count, distinct), map(int.bit_count, distinct), distinct)
    counts, sizes, values = zip(*sorted(ranked))
    return values, counts, sizes


def _multisets(starts, n: int, limit: int) -> tuple[dict, int]:
    """(multiset -> shape, total row orders) over the closure of the start
    row multisets under adjacent column swaps.

    A row is the mask of its cells' columns in bits 0..n-1; bits n..2n-1
    may mark one column, and a swap of columns c, c+1 moves both bit pairs.
    The closure stops once the total passes `limit`; a total above `limit`
    is then only a lower bound on the orbit's."""
    swaps = [(1 | 1 << n) << c for c in range(n - 1)]
    total = 0
    seen = {}
    frontier = list(starts)
    while frontier and total <= limit:
        rows = frontier.pop()
        if rows in seen:
            continue
        seen[rows] = shape = _shape(rows)
        total += _arrangements(shape[1])
        for pairs in swaps:
            image = tuple(sorted([r ^ ((r ^ r >> 1) & pairs) * 3 for r in rows]))
            if image not in seen:
                frontier.append(image)
    return seen, total


def materialize(g: BiGraph, group: str = "K", budget: Budget | None = None) -> ExplicitDesign:
    """The exact orbit of the block under the chosen group.

    A column permutation maps the multiset of a block's rows to another
    multiset, and a row permutation reorders the rows; two different
    multisets share no row order.  So the K-orbit is the disjoint union,
    over the closure of the row multiset under adjacent column swaps, of
    each multiset's distinct row orders.  For G the closure also starts from
    the transposed block's multiset, since K has index 2 in G and the
    G-orbit of B is K-orbit(B) united with K-orbit(B^T).  The orbit size
    times the block stabilizer order equals the group order.

    A multiset whose distinct rows occur c_1..c_s times has m!/prod c_i!
    row orders.  The closure keeps a running total of them and raises
    BudgetExceededError as soon as it passes the budget, before any block is
    built, rather than returning a partial orbit.  Each block is built once,
    as an ascending cell tuple, and the blocks are returned sorted.
    """
    budget = budget or DEFAULT_BUDGET
    _check_group(g.m, g.n, group)
    m, n = g.m, g.n
    starts = [tuple(sorted(g.rows))]
    if group == "G":
        starts.append(tuple(sorted(g.columns())))
    seen, total = _multisets(starts, n, budget.max_blocks)
    if total > budget.max_blocks:
        raise BudgetExceededError(
            f"block orbit exceeds budget of {budget.max_blocks} blocks"
        )

    # Per multiset, `cells` holds the cells of every distinct row in every
    # row position, position major; one picker per distinct row order takes
    # its block out of it in a single C call.  The pickers depend only on
    # the shape's multiplicities and sizes, shared across a K-orbit.
    columns: dict[int, list[int]] = {}
    pickers: dict[tuple, list[itemgetter]] = {}
    blocks: list[tuple[int, ...]] = []
    for values, counts, sizes in seen.values():
        for r in values:
            if r not in columns:
                columns[r] = [j for j in range(n) if r >> j & 1]
        line = [j for r in values for j in columns[r]]
        cells = tuple(p * n + j for p in range(m) for j in line)
        if (counts, sizes) not in pickers:
            pickers[counts, sizes] = _pickers(counts, sizes)
        blocks += [pick(cells) for pick in pickers[counts, sizes]]
    blocks.sort()
    return ExplicitDesign(m, n, tuple(blocks), group)


def _coverage_of_blocks(args) -> Counter:
    blocks, t = args
    return Counter(chain.from_iterable(map(combinations, blocks, repeat(t))))


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
    _check_group(g.m, g.n, group)

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


def _pointed(cells, m: int, n: int) -> tuple[int, ...]:
    """The flag (first cell, block) of a block given as (row, column) pairs:
    the block's row multiset, with the first cell's column also marked in
    bits n..2n-1 of its row."""
    rows = [0] * m
    for i, j in cells:
        rows[i] |= 1 << j
    i, j = cells[0]
    rows[i] |= 1 << n + j
    return tuple(sorted(rows))


def flag_transitive_direct(d: ExplicitDesign, budget: Budget | None = None) -> bool:
    """Whether the acting group has a single orbit on incident (point, block)
    pairs, counted on pointed row multisets.

    A flag (c, B) is B's row multiset with c's row marked.  The marked row
    differs from every other row, so, as for blocks in `materialize`, the
    K-orbit of the flag is the disjoint union, over the closure of its
    pointed multiset under adjacent column swaps, of each multiset's
    distinct row orders; for G the closure also starts from (c^T, B^T).
    The design is flag-transitive iff that orbit holds all b·k flags."""
    budget = budget or DEFAULT_BUDGET
    if not d.blocks or d.k == 0:
        raise ValueError("flag transitivity is undefined without flags")
    nflags = d.b * d.k
    if nflags > budget.max_subsets:
        raise BudgetExceededError(
            f"{nflags} flags exceed budget of {budget.max_subsets}"
        )
    _check_group(d.m, d.n, d.group_tag)
    m, n = d.m, d.n
    cells = [divmod(c, n) for c in d.blocks[0]]
    starts = [_pointed(cells, m, n)]
    if d.group_tag == "G":
        starts.append(_pointed([(j, i) for i, j in cells], m, n))
    return _multisets(starts, n, nflags)[1] == nflags


def export_block_list(d: ExplicitDesign) -> str:
    """Block-list text: one `block` line per block, points as `i,j` (1-based)."""
    lines = []
    for blk in d.blocks:
        pts = " ".join(f"{c // d.n + 1},{c % d.n + 1}" for c in blk)
        lines.append(f"block {pts}")
    return "\n".join(lines) + "\n"
