"""Divisibility feasibility scans over design parameters.

Before any graph search, the candidate parameters must make the exact count
targets of the criteria module integral; these scans enumerate the tuples
that survive.  Each level t of the target table folds into one modulus q_t,
and k survives when q_t | k(k-1)...(k-t+1) for every level.  A grid is
decided level by level, and dropped at the first level with a prime power
no k in 3..mn/2 meets: p^a of q_2 above mn/2 (p^a divides k or k-1, both
at most mn/2), an odd p^b of q_3 above mn/2 (p divides at most one of k,
k-1, k-2), or 2^b of q_3 above mn (the 2-part of k(k-1)(k-2) is at most
2k).  q_3 is factored as its exponents of q_2's primes, by division, and
trial division of what is left.  The survivors are residue classes: for
each prime power p^e of q_2 q_3 the admissible residues mod p^e are few,
and the Chinese remainder theorem combines them.  `feasible_grids` yields
one ascending k list per grid, so a caller can write a scan grid by grid;
the three list functions flatten it.  All arithmetic is exact and the
output is sorted and deterministic.  A scan runs in the calling process and
takes no worker count: a process pool only added start-up cost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from functools import cache
from math import gcd, lcm

from .criteria import count_targets


def _modulus(design: str, m: int, n: int, t: int) -> int:
    """The q for which every level-t target of the design is integral
    exactly when q | k(k-1)...(k-t+1): c*F/d is an integer exactly when
    d/gcd(c, d) divides F, and the level needs the lcm of these."""
    return lcm(*(d // gcd(c, d) for c, d in count_targets(design, m, n, t).values()))


def _factor(q: int, primes: Iterable[int] = ()) -> dict[int, int]:
    """Prime -> exponent in q: the given primes by division, the rest by trial."""
    out = {}
    for p in primes:
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
    p = 2
    while p * p <= q:
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
        p += 1 if p == 2 else 2
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def _residues(p: int, a: int, b: int) -> tuple[int, ...]:
    """The r mod p^max(a, b) with p^a | r(r-1) and p^b | r(r-1)(r-2), for a
    prime p of q_2 q_3, so max(a, b) >= 1.

    For odd p at most one of r, r-1, r-2 is divisible by p, so p^a and p^b
    must divide that one: r = 0, 1, or also 2 when a = 0.  For p = 2 see
    `_lift2`.
    """
    if p > 2:
        return (0, 1) if a else (0, 1, 2)
    return _lift2(a, b)


@cache
def _lift2(a: int, b: int) -> tuple[int, ...]:
    """`_residues` for p = 2.  r and r-2 are even together, so the classes
    are lifted one bit at a time; a class mod 2^j is kept when it meets both
    conditions truncated to 2^j, which depend only on r mod 2^j.  A scan
    meets only a few hundred (a, b), so each lifting is done once."""
    rs = [0]
    for j in range(1, max(a, b) + 1):
        qa, qb = 1 << min(a, j), 1 << min(b, j)
        rs = [r for s in rs for r in (s, s + (1 << (j - 1)))
              if r * (r - 1) % qa == 0 and r * (r - 1) * (r - 2) % qb == 0]
    return tuple(rs)


def _feasible_ks(design: str, m: int, n: int, t: int) -> list[int]:
    """The k in 3..mn/2 for which every target up to level t is integral,
    in increasing order.

    Level 2 is decided first, so a grid it drops never computes q_3.  No k
    meets p^a of q_2 above mn/2 (p^a divides k or k-1, both at most mn/2),
    odd p^b of q_3 above mn/2 (p divides at most one of k, k-1, k-2), or
    2^b of q_3 above mn (for even k one of k, k-2 is twice an odd number,
    so the 2-part of k(k-1)(k-2) is at most 2k).
    """
    bound = m * n // 2
    f2 = _factor(_modulus(design, m, n, 2))
    if any(p ** a > bound for p, a in f2.items()):
        return []
    f3 = _factor(_modulus(design, m, n, 3), f2) if t == 3 else {}
    if any(p ** b > (m * n if p == 2 else bound) for p, b in f3.items()):
        return []
    classes = sorted([(p ** max(a := f2.get(p, 0), b := f3.get(p, 0)), _residues(p, a, b))
                      for p in f2 | f3], reverse=True)
    # combine by CRT, largest prime power first, until the modulus passes
    # the bound; each root is then one candidate, and the prime powers not
    # combined only filter
    mod, roots = 1, [0]
    while classes and mod <= bound:
        pe, rs = classes.pop(0)
        inv = pow(mod, -1, pe)
        roots = [s + mod * ((r - s) * inv % pe) for s in roots for r in rs]
        mod *= pe
    roots.sort()
    # whole periods are ascending, so 3..bound is one slice
    ks = [base + r for base in range(0, bound + 1, mod) for r in roots]
    ks = ks[bisect_left(ks, 3):bisect_right(ks, bound)]
    for pe, rs in classes:
        ks = [k for k in ks if k % pe in rs]
    return ks


# scan mode -> (design, t); square modes scan m x m grids, general3 the
# m x n grids with m >= n
MODES = {"square3": ("Dhat", 3), "square2": ("Dhat", 2), "general3": ("D", 3)}


def feasible_grids(mode: str, max_m: int, max_n: int | None = None
                   ) -> Iterator[tuple[int, int, list[int]]]:
    """(m, n, ks) for each grid of the scan with at least one feasible k,
    in (m, n) order, ks ascending.  max_n bounds n for general3 only.

    The bounds are checked on the call, not on the first step, so a bad
    bound raises before a caller writes anything.
    """
    design, t = MODES[mode]
    if mode == "general3":
        if max_m < 2 or max_n < 2:
            raise ValueError("bounds must be at least 2")
        grids = ((m, n) for m in range(2, max_m + 1) for n in range(2, min(m, max_n) + 1))
    else:
        if max_m < 2:
            raise ValueError("max_m must be at least 2")
        grids = ((m, m) for m in range(2, max_m + 1))
    return ((m, n, ks) for m, n in grids if (ks := _feasible_ks(design, m, n, t)))


def scan_square_3design(max_m: int) -> list[list[int]]:
    """All [m, k] with 2 <= m <= max_m and 3 <= k <= m^2/2 for which a Dhat
    3-design on an m x m grid is arithmetically possible."""
    return [[m, k] for m, _, ks in feasible_grids("square3", max_m) for k in ks]


def scan_square_2design(max_m: int) -> list[list[int]]:
    """All [m, k] passing the Dhat 2-design divisibility (m+1 | k(k-1))."""
    return [[m, k] for m, _, ks in feasible_grids("square2", max_m) for k in ks]


def scan_general_3design(max_m: int, max_n: int) -> list[list[int]]:
    """All [m, n, k] (convention m >= n >= 2, 3 <= k <= mn/2) for which a D
    3-design is arithmetically possible, ordered by (m, n, k).

    The ordering is lexicographic on the side pair: the smallest feasible
    tuple is [8, 2, 6] and the next side pair is (11, 7), with e.g. [17, 2,
    12] coming later even though its grid is smaller.
    """
    return [[m, n, k] for m, n, ks in feasible_grids("general3", max_m, max_n) for k in ks]
