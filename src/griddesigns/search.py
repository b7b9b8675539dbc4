"""Constructors for the known design families and exhaustive graph search.

The families: the k-edge path and the (even) k-edge cycle laid out along the
diagonal of the grid, plus three bundled witness graphs that realize
3-designs.  The exhaustive search enumerates block graphs at fixed (m, n, k)
that meet a design target, one representative per isomorphism class, by
degree-multiset branching followed by row-by-row realization.  Realization
keeps equal-degree rows and equal-degree columns in lex-leader order, so it
yields few matrices besides the largest of each class.  One function
decides a degree branch: its degrees already hit the 2-path and 3-claw
targets, so each realized matrix is tested only for what they leave open
(k >= t, the 3-path count for t = 3, the edge degrees for flag targets),
and a passing one is kept with its stabilizer report when
permgroup.new_class finds it isomorphic to no class kept in the branch.
Under allow-tau a branch (x, y) is skipped when its mirror (y, x) comes
earlier, so no class lies in two searched branches and only a branch that
is its own mirror deduplicates under the transpose.  One loop
maps that function over the searched branches, with the builtin map or a
process pool's, adds up the branches' nodes against the run's node budget
and yields the results in branch order, so the worker count changes neither
what a search yields nor where its node budget stops it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from importlib import resources
from itertools import combinations, repeat
from math import comb, perm

from . import criteria, permgroup
from .bigraph import BiGraph, from_edge_list, parse_graph_text, three_paths

# target -> (design, t, flag-transitive)
TARGETS = {
    "d2": ("D", 2, False),
    "d3": ("D", 3, False),
    "dhat2": ("Dhat", 2, False),
    "dhat3": ("Dhat", 3, False),
    "flag-dhat2": ("Dhat", 2, True),
    "flag-dhat3": ("Dhat", 3, True),
}
FIGURES = ("fig1", "fig2", "fig3")


class SearchBudgetError(RuntimeError):
    """Search budget exhausted; carries the frontier for resumption.  Both
    arguments stay in args, so the error pickles out of a worker process."""

    def __init__(self, message: str, branch_index: int):
        super().__init__(message, branch_index)
        self.branch_index = branch_index

    def __str__(self):
        return f"{self.args[0]} (resume at degree branch {self.branch_index})"


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one exhaustive search run.

    dedup 'side-preserving' keeps one graph per row/column-permutation class;
    'allow-tau' (square grids) additionally identifies a graph with its
    transpose, matching the block sets of the full-group design.
    start_branch is the index into degree_branches(spec) to begin at, as
    named by SearchBudgetError; the resumed run prints what the full run
    prints from that branch on.  max_nodes counts the realization-tree nodes
    of the whole run.  dedup defaults to allow-tau on square grids and to
    side-preserving otherwise.  m, n, max_nodes and max_seconds (when set)
    are at least 1, and k at least 0; k above mn finds nothing.
    """

    m: int
    n: int
    k: int
    target: str
    dedup: str | None = None
    max_nodes: int = 10_000_000
    max_seconds: int | None = None
    start_branch: int = 0

    def __post_init__(self):
        if self.dedup is None:
            object.__setattr__(
                self, "dedup", "allow-tau" if self.m == self.n else "side-preserving")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.dedup not in ("side-preserving", "allow-tau"):
            raise ValueError(f"unknown dedup mode {self.dedup!r}")
        lows = (("m", 1), ("n", 1), ("k", 0), ("start_branch", 0), ("max_nodes", 1))
        for field, low in lows:
            value = getattr(self, field)
            if value < low:
                raise ValueError(f"{field} must be at least {low}, got {value}")
        if TARGETS[self.target][0] == "Dhat" and self.m != self.n:
            raise ValueError("Dhat targets require a square grid")
        if self.dedup == "allow-tau" and self.m != self.n:
            raise ValueError("allow-tau dedup requires a square grid")
        if self.max_seconds is not None and self.max_seconds < 1:
            raise ValueError(f"max_seconds must be at least 1, got {self.max_seconds}")


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def family_path(k: int, m: int, n: int) -> BiGraph:
    """The k-edge path along the grid diagonal: edges (i, i) for
    i <= ceil(k/2) and (i+1, i) for i <= floor(k/2).

    Needs floor(k/2) + 1 rows and ceil(k/2) columns.  For odd k = 2a+1 the
    degrees are x = (1, 2^a, 0...), y = (2^a, 1, 0...); for even k = 2a they
    are x = (1, 2^(a-1), 1, 0...), y = (2^a, 0...).
    """
    if k < 1:
        raise ValueError("k must be positive")
    rows_needed = k // 2 + 1
    cols_needed = (k + 1) // 2
    if rows_needed > m or cols_needed > n:
        raise ValueError(f"a {k}-edge path does not fit in a {m}x{n} grid")
    edges = [(i, i) for i in range(1, (k + 1) // 2 + 1)]
    edges += [(i + 1, i) for i in range(1, k // 2 + 1)]
    return from_edge_list(m, n, edges)


def family_cycle(k: int, m: int) -> BiGraph:
    """The k-edge cycle (k even, k >= 4) on an m x m grid: the path edges
    (i, i), (i+1, i) closed up by (1, k/2).  All used vertices have degree 2."""
    if k < 4 or k % 2 != 0:
        raise ValueError("cycles need an even k >= 4")
    a = k // 2
    if a > m:
        raise ValueError(f"a {k}-edge cycle does not fit in a {m}x{m} grid")
    edges = [(i, i) for i in range(1, a + 1)]
    edges += [(i + 1, i) for i in range(1, a)]
    edges.append((1, a))
    return from_edge_list(m, m, edges)


def family_figure(which: str) -> BiGraph:
    """One of the bundled witness graphs: fig1 (11x11, 36 edges), fig2
    (8x2, 6 edges), fig3 (38x38, 105 edges)."""
    if which not in FIGURES:
        raise ValueError(f"unknown figure {which!r}; choose from {FIGURES}")
    text = resources.files("griddesigns.data").joinpath(f"{which}.grid").read_text()
    return parse_graph_text(text)


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

def _bounded_partitions(total: int, parts: int, bound: int):
    """Non-increasing sequences of `parts` values in [0, bound] summing to
    total, in lexicographically decreasing order."""
    def rec(remaining: int, parts_left: int, cap: int, prefix: tuple):
        if parts_left == 0:
            if remaining == 0:
                yield prefix
            return
        # largest feasible next part first
        for value in range(min(cap, remaining), -1, -1):
            if remaining - value > value * (parts_left - 1):
                break  # smaller values cannot absorb the remainder either
            yield from rec(remaining - value, parts_left - 1, value, prefix + (value,))

    yield from rec(total, parts, bound, ())


def degree_branches(spec: SearchSpec) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (row degrees, column degrees) pairs compatible with the target's
    exact 2-path/3-claw counts from criteria.count_targets; the p3 condition
    is checked after realization since it depends on more than the degrees.
    Empty below t points, and when any target up to level t, p3 included,
    is not an integer, since then no graph can meet it.

    Column sequences are bucketed by their (2-path, 3-claw) counts, and each
    row sequence, in order, looks up the one bucket it needs, so the list
    comes out in the order of the full cross product without forming it.
    """
    m, n, k = spec.m, spec.n, spec.k
    design, t, _ = TARGETS[spec.target]
    if m * n < t:
        return []
    want: dict[str, int] = {}
    for level in range(2, t + 1):
        for name, (c, d) in criteria.count_targets(design, m, n, level).items():
            q, r = divmod(c * perm(k, level), d)
            if r:
                return []
            want[name] = q
    kinds = ("p2", "claw3")[:t - 1]

    def counts(seq):
        return tuple(sum(comb(d, level) for d in seq) for level in range(2, t + 1))

    ys_by_counts: dict[tuple, list] = {}
    for y in _bounded_partitions(k, n, m):
        ys_by_counts.setdefault(counts(y), []).append(y)

    if design == "D":
        want_x = tuple(want[f"{kind}_r"] for kind in kinds)
        ys = ys_by_counts.get(tuple(want[f"{kind}_c"] for kind in kinds), [])
        return [(x, y) for x in _bounded_partitions(k, m, n)
                if counts(x) == want_x for y in ys]
    totals = tuple(want[f"{kind}_total"] for kind in kinds)
    out = []
    for x in _bounded_partitions(k, m, n):
        need = tuple(w - c for w, c in zip(totals, counts(x)))
        out.extend((x, y) for y in ys_by_counts.get(need, ()))
    return out


@dataclass
class _RealizeState:
    """One degree branch's node count against the run's node budget and its
    time.monotonic_ns() deadline."""

    spec: SearchSpec
    branch: int
    deadline_ns: int | None = None
    nodes: int = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.spec.max_nodes:
            raise SearchBudgetError(
                f"node budget of {self.spec.max_nodes} exhausted", self.branch)
        if self.deadline_ns is not None and time.monotonic_ns() > self.deadline_ns:
            raise SearchBudgetError(
                f"time budget of {self.spec.max_seconds} s exhausted after "
                f"{self.nodes} nodes", self.branch)


def _realize(x: tuple[int, ...], y: tuple[int, ...], state: _RealizeState):
    """Bit matrices with the given row/column degree sequences, at least the
    largest of each row/column-permutation class, in decreasing row-major
    order.

    Rows are filled top-down (x is non-increasing) with masks in decreasing
    order; rows of equal degree are forced into non-increasing mask order.
    Columns of equal degree are forced into lex-leader order: bit j of
    `tied` stays set while columns j and j + 1 have equal degree and agree
    on every row placed so far, and a row that puts a 1 in column j and a 0
    in column j + 1 of a tied pair is rejected.  The largest matrix of each
    class meets both constraints (swapping a violating pair would make it
    larger), so it is realized, and first among its class.  Bit j of `full`
    is set once column j has all its y_j ones.
    """
    m, n = len(x), len(y)
    everything = (1 << n) - 1
    tied0 = sum(1 << j for j in range(n - 1) if y[j] == y[j + 1])
    full0 = sum(1 << j for j in range(n) if y[j] == 0)
    after = [sum(x[i + 1:]) for i in range(m)]
    # (mask, its columns) per row degree; combinations of the columns taken
    # from the highest down come out in decreasing mask order
    candidates: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    rows: list[int] = []
    caps = list(y)

    def rec(i: int, tied: int, full: int):
        state.tick()
        if i == m or x[i] == 0:
            # the rows left are empty, so every column must be saturated
            if full == everything:
                yield tuple(rows) + (0,) * (m - i)
            return
        if x[i] not in candidates:
            candidates[x[i]] = [(sum(1 << j for j in cols), cols)
                                for cols in combinations(range(n - 1, -1, -1), x[i])]
        ceiling = rows[-1] if i > 0 and x[i] == x[i - 1] else everything
        for mask, cols in candidates[x[i]]:
            if mask > ceiling or mask & full or tied & mask & ~(mask >> 1):
                continue
            saturated = full
            for j in cols:
                caps[j] -= 1
                if caps[j] == 0:
                    saturated |= 1 << j
            # remaining row edges must fit the remaining column capacity
            if sum(min(c, m - i - 1) for c in caps) >= after[i]:
                rows.append(mask)
                yield from rec(i + 1, tied & ~(mask ^ (mask >> 1)), saturated)
                rows.pop()
            for j in cols:
                caps[j] += 1

    yield from rec(0, tied0, full0)


def _uniform_edge_degrees(rows, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Whether every edge {R_i, C_j} of the matrix with row masks `rows` and
    degrees x, y has the same unordered degree pair {x_i, y_j}.  An element
    of the full group that fixes the graph maps each edge to an edge with
    the same pair, so edge-transitive graphs pass."""
    pairs = {(xi, y[j]) if xi <= y[j] else (y[j], xi)
             for xi, mask in zip(x, rows) for j in range(len(y)) if mask >> j & 1}
    return len(pairs) <= 1


def _branch_results(spec: SearchSpec, index: int, branch, deadline_ns: int | None):
    """The (graph, AutReport) pairs of degree branch `index`, one per class
    that meets the target, in realization order, and the branch's node
    count; SearchBudgetError when the branch alone passes spec.max_nodes or
    realizes a node after deadline_ns.

    The branch's degrees hit the 2-path and 3-claw targets, so a realized
    matrix is tested only for what they leave open, which with them is the
    design's verdict in its evaluate record: k >= t, and for t = 3 its
    3-path count; for flag targets, also one unordered degree pair on every
    edge.  These tests are invariant under K and the transpose, so only a
    passing matrix becomes a graph and goes to the branch's table of kept
    classes, and the first realized matrix of each passing class is kept.
    The transpose of a graph in branch (x, y) lies in branch (y, x), so only
    a branch that is its own mirror deduplicates under the transpose as
    well.  A graph new to the table comes with its stabilizer report, and
    for flag targets it gets the edge-orbit test.
    """
    state = _RealizeState(spec, index, deadline_ns)
    x, y = branch
    design, t, flag = TARGETS[spec.target]
    p3 = None
    if t == 3:  # an integer, or degree_branches would be empty
        c, d = criteria.count_targets(design, spec.m, spec.n, 3)["p3"]
        p3 = c * perm(spec.k, 3) // d
    allow_tau = spec.dedup == "allow-tau" and x == y
    kept: dict = {}
    out = []
    for rows in _realize(x, y, state):
        # a k < t branch keeps nothing, but its nodes still count
        if (spec.k < t or p3 is not None and three_paths(rows, x, y) != p3
                or flag and not _uniform_edge_degrees(rows, x, y)):
            continue
        g = BiGraph(spec.m, spec.n, rows)
        report = permgroup.new_class(g, kept, allow_tau)
        if report is None:
            continue
        if not flag or permgroup.is_edge_transitive(g, report, "K" if design == "D" else "G"):
            out.append((g, report))
    return out, state.nodes


def _searched_branches(spec: SearchSpec, branches) -> list[int]:
    """Indices of the branches to search, from spec.start_branch on.  Under
    allow-tau the transpose of every class in branch (x, y) lies in branch
    (y, x), so a branch whose mirror comes earlier in the list is skipped.
    There m = n and every count target is symmetric in rows and columns, so
    the list is closed under the mirror; it runs x-major in decreasing
    lexicographic order, so (y, x) comes earlier exactly when y > x."""
    indices = range(spec.start_branch, len(branches))
    if spec.dedup != "allow-tau":
        return list(indices)
    return [i for i in indices if branches[i][1] <= branches[i][0]]


def exhaustive_search(spec: SearchSpec, workers: int = 1):
    """Yield (graph, AutReport) for every block graph meeting the target, one
    per dedup class.

    Deterministic: degree branches in lexicographically decreasing order from
    spec.start_branch on, matrices by the realization order, duplicates
    within a branch dropped by permgroup.new_class among the matrices that
    meet the target's criteria.  No class lies in two searched branches (a
    class's degree sequences are invariants, and under allow-tau the mirror
    branch is skipped), so the output of a resumed run is the full run's
    output from that branch on.

    Each branch is decided whole, in a process pool of `workers` processes
    capped at the CPU count and the number of searched branches (serially
    when that is 1 or less), and its results are yielded in branch order.  The run
    stops at the first branch whose nodes take the run's total past
    spec.max_nodes, or that realizes a node after spec.max_seconds
    (one monotonic deadline for every process).  SearchBudgetError names
    that branch for resumption after every earlier branch's results, and a
    pool drops its queued branches; so the worker count changes neither the
    results nor a node-budget stop.  A start_branch equal to the branch
    count searches nothing; a larger one raises ValueError.
    """
    branches = degree_branches(spec)
    if spec.start_branch > len(branches):
        raise ValueError(f"start_branch {spec.start_branch} is past the end: "
                         f"there are {len(branches)} degree branches")
    indices = _searched_branches(spec, branches)
    deadline_ns = None
    if spec.max_seconds is not None:
        deadline_ns = time.monotonic_ns() + spec.max_seconds * 10**9
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    size = min(workers, os.cpu_count() or 1, len(indices))
    pool = None
    if size > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=size)
    try:
        decided = (pool.map if pool else map)(
            _branch_results, repeat(spec), indices, [branches[i] for i in indices],
            repeat(deadline_ns))
        nodes = 0
        for index, (results, used) in zip(indices, decided):
            nodes += used
            if nodes > spec.max_nodes:
                raise SearchBudgetError(f"node budget of {spec.max_nodes} exhausted", index)
            yield from results
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
