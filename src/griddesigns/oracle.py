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

The verdicts close the block's row multiset once and count its coverage in
one serial pass on the window of the first L = min(t, m) rows and M =
min(t, n) columns, and scale it to the grid by row and column symmetry, as
the block list is closed under K.  Each distinct window cut of the blocks
counts once, weighted by the blocks cut to it: a sub-multiset U of L cut
rows of a row multiset S weighs arr(S)·prod fall(c_u, d_u), where arr(S),
S's number of row orders, is the same for every S of one closure, and the
weight summed over the closure must divide by fall(m, L), or
AssertionError is raised.  The G coverage is the K coverage plus its
transpose, unless the closure holds the transposed block's multiset (see
`orbit_verdicts`).

Budgets are explicit and refusal is deterministic; nothing is silently
truncated.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, permutations, repeat, starmap
from math import comb, factorial
from operator import add, itemgetter, or_

from .bigraph import BiGraph


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
    cells of every distinct row in each row position, position major, a
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
    # itemgetter of one index returns a bare item, not a tuple, so a block
    # of at most one cell is a slice
    if len(picks[0]) > 1:
        return list(starmap(itemgetter, picks))
    return [itemgetter(slice(at[0], at[0] + 1) if at else slice(0)) for at in picks]


def _arrangements(items: tuple[int, ...]) -> int:
    """The number of distinct orders of the multiset `items`: len(items)!
    / prod c! over the multiplicities c of its distinct items."""
    out = factorial(len(items))
    for c in Counter(items).values():
        out //= factorial(c)
    return out


def _shape(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(distinct rows, their multiplicities, their sizes) of a row multiset,
    ordered by (multiplicity, size, mask).  Column permutations keep
    multiplicities and sizes, so every multiset of one K-orbit has the same
    multiplicities and sizes in this order, and `_blocks` builds its
    pickers once per K-orbit."""
    distinct = dict.fromkeys(rows)
    ranked = zip(map(rows.count, distinct), map(int.bit_count, distinct), distinct)
    counts, sizes, values = zip(*sorted(ranked))
    return values, counts, sizes


def _multisets(starts, n: int, limit: int) -> tuple[set, int]:
    """(multisets, total row orders) of the closure of the start row
    multisets under adjacent column swaps, closed one start at a time.

    A row is the mask of its cells' columns in bits 0..n-1; bits n..2n-1
    may mark one column, and a swap of columns c, c+1 moves both bit pairs.
    A swap keeps the multiplicities of a multiset's rows, so every multiset
    reached from one start has that start's number of row orders, taken
    once per start.  The closure stops once the total passes `limit`; a
    total above `limit` is then only a lower bound on the orbit's."""
    swaps = [(1 | 1 << n) << c for c in range(n - 1)]
    total = 0
    seen = set()
    for start in starts:
        arr = _arrangements(start)
        frontier = [start]
        while frontier and total <= limit:
            rows = frontier.pop()
            if rows in seen:
                continue
            seen.add(rows)
            total += arr
            for pairs in swaps:
                image = tuple(sorted([r ^ ((r ^ r >> 1) & pairs) * 3 for r in rows]))
                if image not in seen:
                    frontier.append(image)
    return seen, total


def _check_blocks(total: int, budget: Budget) -> None:
    if total > budget.max_blocks:
        raise BudgetExceededError(
            f"block orbit exceeds budget of {budget.max_blocks} blocks"
        )


def _check_subsets(v: int, t: int, budget: Budget) -> None:
    total = comb(v, t)
    if total > budget.max_subsets:
        raise BudgetExceededError(
            f"{total} t-subsets exceed budget of {budget.max_subsets}"
        )


def _blocks(shapes, n: int) -> list[tuple[int, ...]]:
    """Every block of every distinct row order of the multisets with these
    shapes (see _shape), each built once as an ascending cell tuple, grouped
    by multiset and not sorted.

    Per multiset, `cells` holds the cells of every distinct row in each row
    position, position major; one picker per row order takes its block out
    of `cells` in a single C call.  The pickers depend only on the
    multiplicities and the sizes, so multisets with equal ones share them."""
    pickers: dict[tuple, list[itemgetter]] = {}
    blocks: list[tuple[int, ...]] = []
    for values, counts, sizes in shapes:
        cells = tuple(p * n + j for p in range(sum(counts)) for r in values
                      for j in range(n) if r >> j & 1)
        if (counts, sizes) not in pickers:
            pickers[counts, sizes] = _pickers(counts, sizes)
        blocks += [pick(cells) for pick in pickers[counts, sizes]]
    return blocks


def _window(closure, m: int, n: int, depth: int,
            width: int) -> dict[int, list[tuple[int, ...]]]:
    """{weight: entries}: each distinct cut of a block of the closure (its
    row multisets) to its first L = `depth` rows and first `width` columns,
    as an ascending cell tuple, listed under the number of blocks cut to
    it.  The closure must be one start's closure, as in `orbit_verdicts`:
    it is then K-closed, so that every weight is a whole number, and every
    multiset in it has the same number arr of row orders, taken once.

    A multiset S holds its distinct rows c_i times and cut value u c_u
    times, and a sub-multiset U of L cut rows holds u d_u times.  Of the m!
    orders of S's rows taken as distinct, prod fall(c_u, d_u)·(m - L)! begin
    with one order of U, and each of S's arr row orders stands for prod c_i!
    of them.  Counting L-subsets of cut rows gives prod C(c_u, d_u) = prod
    fall(c_u, d_u)/prod d_u!, and fall(m, L)/prod d_u! is C(m, L) times U's
    number of orders."""
    arr = _arrangements(next(iter(closure)))
    mask = (1 << width) - 1
    cuts = Counter(tuple(sorted([r & mask for r in rows])) for rows in closure)
    totals: dict = defaultdict(int)  # U -> summed prod C(c_u, d_u)
    for cut, many in cuts.items():
        for sub, ways in Counter(combinations(cut, depth)).items():
            totals[sub] += many * ways
    values = set(chain.from_iterable(totals))
    cells = [{u: tuple(p * n + j for j in range(width) if u >> j & 1) for u in values}
             for p in range(depth)]  # position -> cut value -> cells
    out = defaultdict(list)
    for sub, total in totals.items():
        orders = set(permutations(sub))
        weight, rest = divmod(arr * total, comb(m, depth) * len(orders))
        if rest:
            raise AssertionError("window weight is not a whole number of row orders")
        out[weight] += [sum(map(dict.__getitem__, cells, order), ()) for order in orders]
    return out


def _cover(groups: dict, t: int) -> Counter:
    """`weight` counts for every t-subset of every entry of `groups`
    ({weight: entries}), one pass per weight."""
    coverage = Counter()
    for weight, entries in groups.items():
        counts = Counter(chain.from_iterable(map(combinations, entries, repeat(t))))
        coverage.update({key: weight * count for key, count in counts.items()})
    return coverage


def _histogram(coverage: Counter, m: int, n: int, t: int, depth: int,
               width: int) -> dict[int, int]:
    """{coverage count: number of t-subsets} over all C(mn, t) t-subsets of
    the m x n grid, from the counts of the covered ones inside the window of
    the first `depth` rows and first `width` columns: min(t, m) x min(t, n)
    for `orbit_verdicts`, all of the grid for `lambda_table`.

    The counts must not change under row and column permutations, as for
    the K-closed block lists of `orbit_verdicts`.  Then the keys of one count
    meeting exactly s of the window's rows and r of its columns split evenly
    over the C(depth, s)·C(width, r) such row and column sets, and stand for
    C(m, s)·C(n, r) sets on the grid; keys that do not split evenly prove
    the coverage not symmetric and raise AssertionError.  A side the window
    spans whole is neither counted nor scaled (s or r is 0), so on the whole
    grid every divisor is 1, nothing is assumed, and `lambda_table` takes
    any design.  A key's span is the OR of its cells' row and column bits,
    and s and r are read off once per distinct (count, span)."""
    rows = (1 << depth) - 1 if depth < m else 0
    cols = ((1 << width) - 1) << depth if width < n else 0
    bits = {i * n + j: 1 << i | 1 << (depth + j) for i in range(depth) for j in range(width)}
    key_bits = map(map, repeat(bits.__getitem__), coverage)
    # no span is needed where the window spans both sides
    spans = map(reduce, repeat(or_), key_bits, repeat(0)) if rows | cols else repeat(0)
    tally = Counter()
    for (count, span), keys in Counter(zip(coverage.values(), spans)).items():
        tally[count, (span & rows).bit_count(), (span & cols).bit_count()] += keys
    hist = Counter()
    for (count, s, r), keys in tally.items():
        per_sets, rest = divmod(keys, comb(depth, s) * comb(width, r))
        if rest:
            raise AssertionError(
                "coverage is not invariant under row and column permutations")
        hist[count] += per_sets * comb(m, s) * comb(n, r)
    uncovered = comb(m * n, t) - hist.total()
    if uncovered:
        hist[0] = uncovered
    return dict(sorted(hist.items()))


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
    as an ascending cell tuple, and the blocks are returned sorted, for
    `export_block_list`; the verdicts come from `orbit_verdicts`, which sorts
    nothing.
    """
    budget = budget or DEFAULT_BUDGET
    _check_group(g.m, g.n, group)
    m, n = g.m, g.n
    starts = [tuple(sorted(g.rows))]
    if group == "G":
        starts.append(tuple(sorted(g.columns())))
    seen, total = _multisets(starts, n, budget.max_blocks)
    _check_blocks(total, budget)
    blocks = _blocks(map(_shape, seen), n)
    blocks.sort()
    return ExplicitDesign(m, n, tuple(blocks), group)


def orbit_verdicts(g: BiGraph, t: int, groups, budget: Budget | None = None) -> dict:
    """{group: (blocks, is_t_design, histogram)} for each of `groups` ("K",
    "G" or both, in that order): the block count of `materialize` and the
    coverage histogram of `lambda_table`, from one closure of B's row
    multiset, built and counted once.  k >= t is required so that the
    constant coverage is a positive lambda; blocks smaller than t cover
    every t-subset zero times, which does not count as a design.

    Two K-orbits are equal or disjoint, the G-orbit of B is K-orbit(B)
    united with K-orbit(B^T), and tau K tau = K, so tau maps K-orbit(B)
    block by block onto K-orbit(B^T).  So when the closure of B's row
    multiset holds B^T's, the G result is the K result; otherwise G has 2b
    blocks, and its coverage is the K coverage plus its transpose, each key
    mapped cell by cell by i·n + j -> j·n + i.  The G count rests on tau K
    tau = K as the window scaling rests on K-invariance; `materialize(g,
    "G")`, which closes both starts, does not.  Nothing is sorted: a
    histogram does not depend on the order of the blocks.  Refusals come in
    the order of materialize, then lambda_table, per group.

    Only the t-subsets inside the window of the first L = min(t, m) rows
    and the first M = min(t, n) columns are counted, serially, and the
    histogram scales the keys meeting s rows and r columns by C(m, s)·C(n,
    r)/(C(L, s)·C(M, r)).  This is exact because the block list is closed
    under K: under row permutations since it holds every row order of every
    multiset, and under column permutations since the closure takes every
    adjacent column swap, and those generate them all; on a square grid L =
    M, so the transpose keeps the window.  `_histogram` checks that the
    keys split evenly.  Each distinct window cut counts once, weighted by
    the blocks cut to it: U of L cut rows of a multiset S weighs
    arr(S)·prod fall(c_u, d_u), summed over the closure and divided by
    fall(m, L); a remainder raises AssertionError (see `_window`).  The
    weights count row orders, as b does, so no degree formula enters.
    """
    budget = budget or DEFAULT_BUDGET
    for group in groups:
        _check_group(g.m, g.n, group)
    m, n = g.m, g.n
    seen, b = _multisets([tuple(sorted(g.rows))], n, budget.max_blocks)
    _check_blocks(b, budget)
    if "K" in groups:
        _check_subsets(m * n, t, budget)
    flipped = "G" in groups and tuple(sorted(g.columns())) not in seen
    if "G" in groups:
        if flipped:
            _check_blocks(2 * b, budget)
        _check_subsets(m * n, t, budget)

    depth, width = min(t, m), min(t, n)
    coverage = _cover(_window(seen, m, n, depth, width), t)
    out, hist = {}, None
    for group in ("K", "G"):
        if group == "G" and flipped:
            b *= 2
            coverage.update({tuple(sorted([c % n * n + c // n for c in key])): count
                             for key, count in coverage.items()})
            hist = None
        if group in groups:
            if hist is None:
                hist = _histogram(coverage, m, n, t, depth, width)
            out[group] = (b, len(hist) == 1 and g.k >= t, hist)
    return out


def lambda_table(d: ExplicitDesign, t: int, budget: Budget | None = None) -> dict[int, int]:
    """Histogram {coverage count: number of t-subsets} over all C(v, t)
    t-subsets of the points of an explicit design, counted serially.  The
    design is a t-design exactly when the histogram has a single key and
    k >= t."""
    _check_subsets(d.v, t, budget or DEFAULT_BUDGET)
    return _histogram(_cover({1: d.blocks}, t), d.m, d.n, t, d.m, d.n)


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


# (rows met, columns met) of a t-subset of cells -> (K-orbit, G-orbit); on
# square grids the transpose map fuses the row/column-symmetric K-orbits
_ORBITS = {
    2: {
        (1, 2): ("row-pair", "line-pair"),
        (2, 1): ("col-pair", "line-pair"),
        (2, 2): ("free-pair", "free-pair"),
    },
    3: {
        (1, 3): ("row-triple", "line-triple"),
        (3, 1): ("col-triple", "line-triple"),
        (2, 2): ("corner", "corner"),
        (2, 3): ("row-pair-plus", "pair-plus"),
        (3, 2): ("col-pair-plus", "pair-plus"),
        (3, 3): ("free-triple", "free-triple"),
    },
}


def orbit_ratio_check(g: BiGraph, group: str, t: int):
    """(is_t_design, per-orbit records) by the ratio criterion.

    T-subsets of the grid are classified by the numbers (a, c) of rows and
    columns they meet, which determine the orbit of K; G fuses (a, c) with
    (c, a).  Pattern (a, c) holds C(m, a)·C(n, c) times the number of
    t-subsets of an a x c grid that meet every row and every column, which
    inclusion-exclusion over the rows and columns left out gives as the sum
    over i <= a, j <= c of (-1)^(a-i+c-j)·C(a, i)·C(c, j)·C(ij, t).  The
    counts are taken on the single block of g by direct enumeration,
    independently of the degree formulas.  The structure is a t-design iff
    count/size is the same fraction for every non-empty orbit (and k >= t).
    """
    if t not in (2, 3):
        raise ValueError("t must be 2 or 3")
    _check_group(g.m, g.n, group)

    orbits, pick = _ORBITS[t], 1 if group == "G" else 0
    sizes, counts = Counter(), Counter()
    for (a, c), names in orbits.items():
        spanning = sum((-1) ** (a - i + c - j) * comb(a, i) * comb(c, j) * comb(i * j, t)
                       for i in range(a + 1) for j in range(c + 1))
        sizes[names[pick]] += comb(g.m, a) * comb(g.n, c) * spanning
    for cells in combinations(g.edges(), t):
        rows, cols = zip(*cells)
        counts[orbits[len(set(rows)), len(set(cols))][pick]] += 1

    assert sizes.total() == comb(g.m * g.n, t)
    records = [
        OrbitRatio(name, size, counts[name])
        for name, size in sorted(sizes.items())
        if size > 0
    ]
    ratios = {r.ratio for r in records}
    verdict = len(ratios) == 1 and g.k >= t
    return verdict, records


def _pointed(rows, i: int, j: int, n: int) -> tuple[int, ...]:
    """The flag (cell (i, j), block) of a block given by its row masks: the
    block's row multiset, with column j also marked in bits n..2n-1 of row
    i."""
    rows = list(rows)
    rows[i] |= 1 << n + j
    return tuple(sorted(rows))


def flag_transitive_direct(g: BiGraph, group: str, b: int,
                           budget: Budget | None = None) -> bool:
    """Whether the group has a single orbit on the incident (point, block)
    pairs of the design of g, whose b blocks `orbit_verdicts` has counted;
    counted on pointed row multisets.

    A flag (c, B) is B's row multiset with c's row marked.  The marked row
    differs from every other row, so, as for blocks in `materialize`, the
    K-orbit of the flag is the disjoint union, over the closure of its
    pointed multiset under adjacent column swaps, of each multiset's
    distinct row orders; for G the closure also starts from (c^T, B^T).
    Every block is an image of g's block, so the design is flag-transitive
    iff the orbit of one flag of g's block holds all b·k flags."""
    budget = budget or DEFAULT_BUDGET
    if g.k == 0:
        raise ValueError("flag transitivity is undefined without flags")
    nflags = b * g.k
    if nflags > budget.max_subsets:
        raise BudgetExceededError(
            f"{nflags} flags exceed budget of {budget.max_subsets}"
        )
    _check_group(g.m, g.n, group)
    i, j = g.edges()[0]
    starts = [_pointed(g.rows, i - 1, j - 1, g.n)]
    if group == "G":
        starts.append(_pointed(g.columns(), j - 1, i - 1, g.n))
    return _multisets(starts, g.n, nflags)[1] == nflags


def export_block_list(d: ExplicitDesign) -> str:
    """Block-list text: one `block` line per block, points as `i,j` (1-based)."""
    lines = []
    for blk in d.blocks:
        pts = " ".join(f"{c // d.n + 1},{c % d.n + 1}" for c in blk)
        lines.append(f"block {pts}")
    return "\n".join(lines) + "\n"
