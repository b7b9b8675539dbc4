"""Constructors for the known design families and exhaustive graph search.

The families: the k-edge path and the (even) k-edge cycle laid out along the
diagonal of the grid, plus three bundled witness graphs that realize
3-designs.  The exhaustive search enumerates block graphs at fixed (m, n, k)
that meet a design target, one representative per isomorphism class, by
degree-multiset branching followed by row-by-row realization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import comb

from . import criteria, permgroup
from .bigraph import BiGraph, canonical_form, from_edge_list, parse_graph_text
from .workers import pool_size

TARGETS = ("d2", "d3", "dhat2", "dhat3", "flag-dhat2", "flag-dhat3")
FIGURES = ("fig1", "fig2", "fig3")


class SearchBudgetError(RuntimeError):
    """Search budget exhausted; carries the frontier for resumption."""

    def __init__(self, message: str, branch_index: int):
        super().__init__(f"{message} (resume at degree branch {branch_index})")
        self.branch_index = branch_index


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one exhaustive search run.

    dedup 'side-preserving' keeps one graph per row/column-permutation class;
    'allow-tau' (square grids) additionally identifies a graph with its
    transpose, matching the block sets of the full-group design.
    """

    m: int
    n: int
    k: int
    target: str
    dedup: str = "allow-tau"
    max_nodes: int = 10_000_000
    max_seconds: int | None = None
    start_branch: int = 0

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.dedup not in ("side-preserving", "allow-tau"):
            raise ValueError(f"unknown dedup mode {self.dedup!r}")
        if self.target.startswith(("dhat", "flag-dhat")) and self.m != self.n:
            raise ValueError("Dhat targets require a square grid")
        if self.dedup == "allow-tau" and self.m != self.n:
            raise ValueError("allow-tau dedup requires a square grid")


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
        hi = min(cap, remaining)
        lo_needed = 0  # smallest value that still lets the rest sum up
        for value in range(hi, lo_needed - 1, -1):
            if remaining - value > value * (parts_left - 1):
                break  # smaller values cannot absorb the remainder either
            yield from rec(remaining - value, parts_left - 1, value, prefix + (value,))

    yield from rec(total, parts, bound, ())


def degree_branches(spec: SearchSpec) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (row degrees, column degrees) pairs compatible with the target's
    exact 2-path/3-claw counts; the p3 condition is checked after realization
    since it depends on more than the degrees."""
    m, n, k = spec.m, spec.n, spec.k
    if m * n < 2:
        return []
    xs = list(_bounded_partitions(k, m, n))
    ys = list(_bounded_partitions(k, n, m))

    def c2(seq):
        return sum(comb(d, 2) for d in seq)

    def c3(seq):
        return sum(comb(d, 3) for d in seq)

    out = []
    if spec.target in ("d2", "d3"):
        t_p2r = Fraction(k * (k - 1) * (n - 1), 2 * (m * n - 1))
        t_p2c = Fraction(k * (k - 1) * (m - 1), 2 * (m * n - 1))
        xs = [x for x in xs if c2(x) == t_p2r]
        ys = [y for y in ys if c2(y) == t_p2c]
        if spec.target == "d3":
            t_clr = Fraction(k * (k - 1) * (k - 2) * (n - 1) * (n - 2),
                             6 * (m * n - 1) * (m * n - 2))
            t_clc = Fraction(k * (k - 1) * (k - 2) * (m - 1) * (m - 2),
                             6 * (m * n - 1) * (m * n - 2))
            xs = [x for x in xs if c3(x) == t_clr]
            ys = [y for y in ys if c3(y) == t_clc]
        out = [(x, y) for x in xs for y in ys]
    else:
        t_p2 = Fraction(k * (k - 1), m + 1)
        t_claw = Fraction(k * (k - 1) * (k - 2) * (m - 2), 3 * (m + 1) * (m * m - 2))
        for x in xs:
            for y in ys:
                if c2(x) + c2(y) != t_p2:
                    continue
                if spec.target in ("dhat3", "flag-dhat3") and c3(x) + c3(y) != t_claw:
                    continue
                out.append((x, y))
    return out


@dataclass
class _RealizeState:
    nodes: int = 0
    deadline_ns: int | None = None
    branch: int = 0
    spec: SearchSpec = None  # type: ignore[assignment]

    def tick(self):
        self.nodes += 1
        if self.nodes > self.spec.max_nodes:
            raise SearchBudgetError("node budget exhausted", self.branch)
        if self.deadline_ns is not None and time.monotonic_ns() > self.deadline_ns:
            raise SearchBudgetError("time budget exhausted", self.branch)


def _realize(x: tuple[int, ...], y: tuple[int, ...], state: _RealizeState):
    """All bit matrices with the given row/column degree sequences.

    Rows are filled top-down (x is non-increasing); rows of equal degree are
    forced into non-increasing mask order, which removes permutations of
    interchangeable rows without losing any isomorphism class.
    """
    m, n = len(x), len(y)
    col_masks_by_count: dict[int, list[int]] = {}

    def masks_of_weight(weight: int):
        if weight not in col_masks_by_count:
            col_masks_by_count[weight] = _combinations_masks(n, weight)
        return col_masks_by_count[weight]

    rows: list[int] = []
    caps = list(y)

    def rec(i: int):
        state.tick()
        if i == m:
            if all(c == 0 for c in caps):
                yield tuple(rows)
            return
        need = x[i]
        if need == 0:
            # remaining rows are empty; succeed only if columns are saturated
            if all(c == 0 for c in caps):
                yield tuple(rows + [0] * (m - i))
            return
        remaining_after = sum(x[i + 1:])
        ceiling = rows[-1] if i > 0 and x[i] == x[i - 1] else None
        for mask in masks_of_weight(need):
            if ceiling is not None and mask > ceiling:
                continue
            ok = True
            mm = mask
            while mm:
                low = mm & -mm
                j = low.bit_length() - 1
                if caps[j] == 0:
                    ok = False
                    break
                mm ^= low
            if not ok:
                continue
            mm = mask
            while mm:
                low = mm & -mm
                caps[low.bit_length() - 1] -= 1
                mm ^= low
            # remaining row edges must fit the remaining column capacity
            if sum(min(c, m - i - 1) for c in caps) >= remaining_after:
                rows.append(mask)
                yield from rec(i + 1)
                rows.pop()
            mm = mask
            while mm:
                low = mm & -mm
                caps[low.bit_length() - 1] += 1
                mm ^= low

    yield from rec(0)


def _combinations_masks(n: int, weight: int):
    """All n-bit masks of the given popcount, in decreasing numeric order."""
    out = []
    for combo in combinations(range(n), weight):
        mask = 0
        for j in combo:
            mask |= 1 << j
        out.append(mask)
    out.sort(reverse=True)
    return out


def _meets_target(g: BiGraph, target: str) -> bool:
    if target == "d2":
        return criteria.check_D(g)[0]
    if target == "d3":
        return criteria.check_D(g)[1]
    if target in ("dhat2", "flag-dhat2"):
        flag = criteria.check_Dhat(g)[0]
    else:
        flag = criteria.check_Dhat(g)[1]
    if not flag:
        return False
    if target.startswith("flag-"):
        report = permgroup.automorphisms(g)
        return permgroup.is_edge_transitive(g, report, "G")
    return True


def _branch_candidates(args):
    """One degree branch: realized matrices with canonical key and target
    verdict, in generation order (process-pool work unit)."""
    spec, index = args
    x, y = degree_branches(spec)[index]
    state = _RealizeState(spec=spec, branch=index)
    allow_tau = spec.dedup == "allow-tau"
    out = []
    for rows in _realize(x, y, state):
        g = BiGraph(spec.m, spec.n, rows)
        key = canonical_form(g, allow_transpose=allow_tau)
        out.append((rows, key, _meets_target(g, spec.target)))
    return out


def exhaustive_search(spec: SearchSpec, workers: int = 1):
    """Yield every block graph meeting the target, one per dedup class.

    Deterministic: degree branches in lexicographically decreasing order,
    matrices by the realization order, duplicates dropped via canonical
    forms.  Budget exhaustion raises SearchBudgetError with the branch index
    for resumption.  When workers.pool_size allows more than one process,
    the branches run in a process pool and are merged in branch order, so the
    output stream is identical; the node budget then applies per branch.  A
    wall-clock limit is not supported with workers > 1.
    """
    seen: set[bytes] = set()
    allow_tau = spec.dedup == "allow-tau"
    branches = degree_branches(spec)
    size = pool_size(workers, len(branches) - spec.start_branch)
    if workers > 1 and spec.max_seconds is not None:
        raise ValueError("max_seconds is not supported with workers > 1")
    if size > 1:
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(spec, i) for i in range(spec.start_branch, len(branches))]
        with ProcessPoolExecutor(max_workers=size) as pool:
            for candidates in pool.map(_branch_candidates, jobs):
                for rows, key, meets in candidates:
                    if key in seen:
                        continue
                    seen.add(key)
                    if meets:
                        yield BiGraph(spec.m, spec.n, rows)
        return
    state = _RealizeState(spec=spec)
    if spec.max_seconds is not None:
        state.deadline_ns = time.monotonic_ns() + spec.max_seconds * 10**9
    for index in range(spec.start_branch, len(branches)):
        x, y = branches[index]
        state.branch = index
        for rows in _realize(x, y, state):
            g = BiGraph(spec.m, spec.n, rows)
            key = canonical_form(g, allow_transpose=allow_tau)
            if key in seen:
                continue
            seen.add(key)
            if _meets_target(g, spec.target):
                yield g
