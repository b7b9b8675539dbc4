"""Divisibility feasibility scans over design parameters.

Before any graph search, the candidate parameters must make the exact count
formulas of the criteria module integral; these scans enumerate the tuples
that survive.  All checks are integer divisibility, the output is sorted and
deterministic, and the per-m work units are independent (safe to distribute).
"""

from __future__ import annotations

from dataclasses import dataclass

from .workers import pool_size


@dataclass(frozen=True)
class ParamTuple:
    m: int
    n: int
    k: int
    target: str


def _square3_feasible(m: int, k: int) -> bool:
    # integrality of the three Dhat 3-design counts on an m x m grid
    a = k * (k - 1)
    b = a * (k - 2)
    return (
        a % (m + 1) == 0
        and b * (m - 2) % (3 * (m + 1) * (m * m - 2)) == 0
        and b * (m - 1) % ((m + 1) * (m * m - 2)) == 0
    )


def _scan_square3_one(m: int) -> list[list[int]]:
    return [[m, k] for k in range(3, m * m // 2 + 1) if _square3_feasible(m, k)]


def scan_square_3design(max_m: int, workers: int = 1) -> list[list[int]]:
    """All [m, k] with 2 <= m <= max_m and 3 <= k <= m^2/2 for which a Dhat
    3-design on an m x m grid is arithmetically possible."""
    if max_m < 2:
        raise ValueError("max_m must be at least 2")
    chunks = _map_over(_scan_square3_one, range(2, max_m + 1), workers)
    return [pair for chunk in chunks for pair in chunk]


def _scan_square2_one(m: int) -> list[list[int]]:
    return [
        [m, k]
        for k in range(3, m * m // 2 + 1)
        if k * (k - 1) % (m + 1) == 0
    ]


def scan_square_2design(max_m: int, workers: int = 1) -> list[list[int]]:
    """All [m, k] passing the Dhat 2-design divisibility (m+1 | k(k-1))."""
    if max_m < 2:
        raise ValueError("max_m must be at least 2")
    chunks = _map_over(_scan_square2_one, range(2, max_m + 1), workers)
    return [pair for chunk in chunks for pair in chunk]


def _general3_feasible(m: int, n: int, k: int) -> bool:
    # integrality of the five D 3-design counts on an m x n grid
    v = m * n
    a = k * (k - 1)
    b = a * (k - 2)
    d2 = 2 * (v - 1)
    d3 = 6 * (v - 1) * (v - 2)
    return (
        a * (n - 1) % d2 == 0
        and a * (m - 1) % d2 == 0
        and b * (n - 1) * (n - 2) % d3 == 0
        and b * (m - 1) * (m - 2) % d3 == 0
        and b * (m - 1) * (n - 1) % ((v - 1) * (v - 2)) == 0
    )


def _scan_general3_one(args) -> list[tuple[int, int, int]]:
    m, max_n = args
    out = []
    for n in range(2, min(m, max_n) + 1):
        for k in range(3, m * n // 2 + 1):
            if _general3_feasible(m, n, k):
                out.append((m, n, k))
    return out


def scan_general_3design(max_m: int, max_n: int, workers: int = 1) -> list[list[int]]:
    """All [m, n, k] (convention m >= n >= 2, 3 <= k <= mn/2) for which a D
    3-design is arithmetically possible, ordered by (m, n, k).

    The ordering is lexicographic on the side pair: the smallest feasible
    tuple is [8, 2, 6] and the next side pair is (11, 7), with e.g. [17, 2,
    12] coming later even though its grid is smaller.
    """
    if max_m < 2 or max_n < 2:
        raise ValueError("bounds must be at least 2")
    chunks = _map_over(
        _scan_general3_one, [(m, max_n) for m in range(2, max_m + 1)], workers
    )
    triples = [t for chunk in chunks for t in chunk]
    triples.sort()
    return [list(t) for t in triples]


def _map_over(fn, items, workers: int):
    """Ordered map, optionally across processes; results are merged in input
    order so the worker count never changes the output."""
    items = list(items)
    size = pool_size(workers, len(items))
    if size == 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, items))
