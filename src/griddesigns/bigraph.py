"""Bipartite block graphs on an m x n grid and their local edge statistics.

A block of the incidence structures built by this package is a set of grid
cells, encoded as the edge set of a subgraph of the complete bipartite graph
K_{m,n}: cell (i, j) belongs to the block exactly when {R_i, C_j} is an edge.
Everything downstream (design criteria, automorphism groups, search) consumes
the representation defined here.

All arithmetic is exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class BiGraph:
    """A spanning subgraph of K_{m,n}, stored as one column bitmask per row.

    Isolated vertices are kept: the graph always has all m row vertices and
    all n column vertices, because stabilizer orders (and hence every lambda
    value) count the free permutations of isolated vertices.
    """

    m: int
    n: int
    rows: tuple[int, ...]  # rows[i] bit j set <=> edge {R_{i+1}, C_{j+1}}

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("grid sides must be positive")
        if len(self.rows) != self.m:
            raise ValueError("row mask count does not match m")
        full = (1 << self.n) - 1
        for mask in self.rows:
            if mask & ~full:
                raise ValueError("row mask has bits outside the column range")

    @property
    def k(self) -> int:
        """Number of edges (= block size)."""
        return sum(mask.bit_count() for mask in self.rows)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as 1-based (row, column) pairs, sorted."""
        out = []
        for i, mask in enumerate(self.rows):
            while mask:
                low = mask & -mask
                out.append((i + 1, low.bit_length()))
                mask ^= low
        return out

    def columns(self) -> tuple[int, ...]:
        """Row bitmask per column (the transposed adjacency)."""
        cols = [0] * self.n
        for i, mask in enumerate(self.rows):
            while mask:
                low = mask & -mask
                cols[low.bit_length() - 1] |= 1 << i
                mask ^= low
        return tuple(cols)


@dataclass(frozen=True)
class SubgraphStats:
    """Counts of the small subgraphs the design criteria are phrased in.

    A 2-path has type R when its middle vertex is a row vertex; a 3-claw
    (K_{1,3}) has type R when its center is a row vertex.  p3 counts 3-paths.
    """

    p2_r: int
    p2_c: int
    p3: int
    claw3_r: int
    claw3_c: int

    @property
    def p2_total(self) -> int:
        return self.p2_r + self.p2_c

    @property
    def claw3_total(self) -> int:
        return self.claw3_r + self.claw3_c


def from_edge_list(m: int, n: int, edges) -> BiGraph:
    """Build a BiGraph from 1-based (row, column) pairs.

    Rejects out-of-range indices and duplicate pairs.
    """
    if m < 1 or n < 1:
        raise ValueError("grid sides must be positive")
    rows = [0] * m
    for i, j in edges:
        if not (1 <= i <= m) or not (1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range for a {m}x{n} grid")
        bit = 1 << (j - 1)
        if rows[i - 1] & bit:
            raise ValueError(f"duplicate edge ({i},{j})")
        rows[i - 1] |= bit
    return BiGraph(m, n, tuple(rows))


def degrees(g: BiGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row degrees x_i and column degrees y_j; both sum to the edge count."""
    x = tuple(mask.bit_count() for mask in g.rows)
    y = tuple(mask.bit_count() for mask in g.columns())
    return x, y


def stats(g: BiGraph) -> SubgraphStats:
    """Subgraph counts from the degree formulas.

    2-paths of type R: sum of C(x_i, 2); 3-claws of type R: sum of C(x_i, 3)
    (column types analogously); 3-paths as in three_paths.  Binomials with
    small tops are zero.
    """
    x, y = degrees(g)
    p2_r = sum(comb(d, 2) for d in x)
    p2_c = sum(comb(d, 2) for d in y)
    claw3_r = sum(comb(d, 3) for d in x)
    claw3_c = sum(comb(d, 3) for d in y)
    return SubgraphStats(p2_r, p2_c, three_paths(g.rows, x, y), claw3_r, claw3_c)


def three_paths(rows, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """3-paths of the graph with row masks `rows` and degrees x, y: the sum
    of (x_i - 1)(y_j - 1) over the edges, since an edge is the middle of a
    3-path once for each choice of a second edge at either endpoint."""
    p3 = 0
    for xi, mask in zip(x, rows):
        if xi <= 1:
            continue
        while mask:
            low = mask & -mask
            p3 += (xi - 1) * (y[low.bit_length() - 1] - 1)
            mask ^= low
    return p3


def transpose(g: BiGraph) -> BiGraph:
    """The image of g under the row/column exchange map; requires m = n."""
    if g.m != g.n:
        raise ValueError("transpose is only defined on square grids")
    return BiGraph(g.n, g.m, g.columns())


def complement(g: BiGraph) -> BiGraph:
    """Bitwise complement within K_{m,n}; edge count becomes mn - k."""
    full = (1 << g.n) - 1
    return BiGraph(g.m, g.n, tuple(mask ^ full for mask in g.rows))


# ---------------------------------------------------------------------------
# Canonical form under row/column permutations
# ---------------------------------------------------------------------------
#
# Two graphs get the same key exactly when one is the image of the other under
# some pair of independent row and column permutations.  The key is the
# lexicographically least column-major reading of the bit matrix over the
# labellings that respect the degree partition: rows start grouped by degree,
# highest degree first, and columns are placed one degree class at a time,
# highest degree first.  Within that, the columns of a class may come in any
# order, and rows are sorted ascending under the chosen column order.  An
# isomorphism preserves degrees, so it maps these labellings of one graph onto
# those of the other, and the least reading is the same.
#
# The search extends the column order one position at a time, keeping every
# partial order that still achieves the minimal prefix.  States that induce
# the same ordered row partition and leave the same multiset of columns of
# the current class are interchangeable and deduplicated.  Adequate at search
# scales (small grids, highly structured larger graphs); not a general-purpose
# canonical labeller.
#
# Keys are compared, never printed or stored, and their bytes may change
# between versions of this package.

def canonical_form(g: BiGraph, allow_transpose: bool = False) -> bytes:
    """Canonical byte string; equal strings <=> isomorphic under row/column
    permutations.  With allow_transpose (square grids only) the key is also
    invariant under the transpose map, i.e. it canonicalizes under the full
    automorphism group of K_{m,m}: the lesser key of both orientations.
    Compare keys within one version of the package; do not store them.
    """
    cols = g.columns()
    x = [mask.bit_count() for mask in g.rows]
    y = [mask.bit_count() for mask in cols]
    if not allow_transpose:
        return _canonical_key(cols, x, y)
    if g.m != g.n:
        raise ValueError("transpose is only defined on square grids")
    # the transposed graph has the columns of g as rows and the rows as columns
    return min(_canonical_key(cols, x, y), _canonical_key(g.rows, y, x))


def _canonical_key(cols, x, y) -> bytes:
    """Key of the graph with column masks `cols` (bit i = row i), row degrees
    x and column degrees y."""
    m, n = len(x), len(y)
    row_classes: dict[int, int] = {}
    for i, d in enumerate(x):
        row_classes[d] = row_classes.get(d, 0) | 1 << i
    col_classes: dict[int, list[int]] = {}
    for col, d in zip(cols, y):
        col_classes.setdefault(d, []).append(col)

    # state: (ordered row groups as bitmasks, sorted tuple of the unused
    # column masks of the current degree class)
    frontier = {tuple(row_classes[d] for d in sorted(row_classes, reverse=True))}
    packed = 0
    for d in sorted(col_classes, reverse=True):
        count = len(col_classes[d])
        if d == 0:
            packed <<= m * count  # empty columns read as zero blocks
            continue
        states = {(groups, tuple(sorted(col_classes[d]))) for groups in frontier}
        for _ in range(count):
            best: int | None = None
            best_states: set = set()
            for groups, remaining in states:
                for i, col in enumerate(remaining):
                    if i and remaining[i - 1] == col:
                        continue  # equal columns lead to equal states
                    block, new_groups = _extend(groups, col, m)
                    if best is None or block < best:
                        best = block
                        best_states = set()
                    if block == best:
                        best_states.add((new_groups, remaining[:i] + remaining[i + 1:]))
            packed = (packed << m) | best
            states = best_states
        frontier = {groups for groups, _ in states}

    # the sides in decimal, so any size fits and equal sides give equal headers
    width = (m * n + 7) // 8
    return b"%d,%d:" % (m, n) + packed.to_bytes(width, "big")


def _extend(groups: tuple[int, ...], col: int, m: int):
    """Column block under the partial row order, plus the refined order.

    Within each tied row group the 0-rows precede the 1-rows (ascending sort),
    so only the per-group 1-counts shape the block.  Bit 0 of the block is the
    last row position, making integer comparison lexicographic on the reading.
    """
    block = 0
    pos = m
    new_groups = []
    for grp in groups:
        pos -= grp.bit_count()
        ones = grp & col
        if ones:
            block |= ((1 << ones.bit_count()) - 1) << pos
            if ones != grp:
                new_groups.append(grp ^ ones)
            new_groups.append(ones)
        else:
            new_groups.append(grp)
    return block, tuple(new_groups)


# ---------------------------------------------------------------------------
# Text format: `grid m n` then `edge i j` lines, 1-based, # comments allowed
# ---------------------------------------------------------------------------

def parse_graph_text(text: str) -> BiGraph:
    """Parse the grid/edge text format; raises GraphFormatError with the
    offending line number."""
    m = n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "grid":
            if m is not None:
                raise GraphFormatError("repeated grid line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("grid line needs two integers", lineno)
            try:
                m, n = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("grid sizes must be integers", lineno) from None
            if m < 1 or n < 1:
                raise GraphFormatError("grid sides must be positive", lineno)
        elif parts[0] == "edge":
            if m is None:
                raise GraphFormatError("edge before grid line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge line needs two integers", lineno)
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("edge indices must be integers", lineno) from None
            if not (1 <= i <= m) or not (1 <= j <= n):
                raise GraphFormatError(f"edge ({i},{j}) out of range", lineno)
            if (i, j) in seen:
                raise GraphFormatError(f"duplicate edge ({i},{j})", lineno)
            edges.append((i, j))
            seen.add((i, j))
        else:
            raise GraphFormatError(f"unknown record {parts[0]!r}", lineno)
    if m is None:
        raise GraphFormatError("missing grid line")
    return from_edge_list(m, n, edges)


def format_graph_text(g: BiGraph) -> str:
    """Serialize to the grid/edge text format (the CLI and search output)."""
    lines = [f"grid {g.m} {g.n}"]
    lines.extend(f"edge {i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"
