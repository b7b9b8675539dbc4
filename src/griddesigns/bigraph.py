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
