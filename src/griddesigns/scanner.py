"""Divisibility feasibility scans over design parameters.

Before any graph search, the candidate parameters must make the exact count
targets of the criteria module integral; these scans enumerate the tuples
that survive.  Each level t of the target table folds into one modulus q_t,
and k survives when q_t | k(k-1)...(k-t+1) for every level.  All checks are
integer divisibility, the output is sorted and deterministic, and the per-m
work units are independent (safe to distribute).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd, lcm

from .criteria import count_targets
from .workers import pool_size


@dataclass(frozen=True)
class ParamTuple:
    m: int
    n: int
    k: int
    target: str


def _modulus(design: str, m: int, n: int, t: int) -> int:
    """The q for which every level-t target of the design is integral
    exactly when q | k(k-1)...(k-t+1): c*F/d is an integer exactly when
    d/gcd(c, d) divides F, and the level needs the lcm of these."""
    return lcm(*(d // gcd(c, d) for c, d in count_targets(design, m, n, t).values()))


def _feasible_ks(design: str, m: int, n: int, t: int) -> list[int]:
    """The k in 3..mn/2 for which every target up to level t is integral."""
    q2 = _modulus(design, m, n, 2)
    ks = [k for k in range(3, m * n // 2 + 1) if k * (k - 1) % q2 == 0]
    if t == 3:
        q3 = _modulus(design, m, n, 3)
        ks = [k for k in ks if k * (k - 1) * (k - 2) % q3 == 0]
    return ks


def _scan_square_one(t: int, m: int) -> list[list[int]]:
    return [[m, k] for k in _feasible_ks("Dhat", m, m, t)]


def scan_square_3design(max_m: int, workers: int = 1) -> list[list[int]]:
    """All [m, k] with 2 <= m <= max_m and 3 <= k <= m^2/2 for which a Dhat
    3-design on an m x m grid is arithmetically possible."""
    if max_m < 2:
        raise ValueError("max_m must be at least 2")
    chunks = _map_over(partial(_scan_square_one, 3), range(2, max_m + 1), workers)
    return [pair for chunk in chunks for pair in chunk]


def scan_square_2design(max_m: int, workers: int = 1) -> list[list[int]]:
    """All [m, k] passing the Dhat 2-design divisibility (m+1 | k(k-1))."""
    if max_m < 2:
        raise ValueError("max_m must be at least 2")
    chunks = _map_over(partial(_scan_square_one, 2), range(2, max_m + 1), workers)
    return [pair for chunk in chunks for pair in chunk]


def _scan_general3_one(args) -> list[tuple[int, int, int]]:
    m, max_n = args
    return [(m, n, k) for n in range(2, min(m, max_n) + 1)
            for k in _feasible_ks("D", m, n, 3)]


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
