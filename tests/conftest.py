"""Shared helpers: brute-force group loops and isomorphism-class sweeps."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations

from griddesigns.bigraph import BiGraph
from griddesigns.permgroup import GridPerm, apply


def all_k_elements(m: int, n: int) -> list[GridPerm]:
    """Every element of the row/column permutation group (small grids only)."""
    return [
        GridPerm(rows, cols, False)
        for rows in permutations(range(m))
        for cols in permutations(range(n))
    ]


def all_g_elements(m: int) -> list[GridPerm]:
    """Every element of the full square-grid group, swap elements included."""
    out = []
    for rows in permutations(range(m)):
        for cols in permutations(range(m)):
            out.append(GridPerm(rows, cols, False))
            out.append(GridPerm(rows, cols, True))
    return out


def brute_stabilizer(g: BiGraph, elements) -> list[GridPerm]:
    return [p for p in elements if apply(p, g) == g]


def mask_to_graph(m: int, n: int, mask: int) -> BiGraph:
    rows = tuple((mask >> (i * n)) & ((1 << n) - 1) for i in range(m))
    return BiGraph(m, n, rows)


@lru_cache(maxsize=None)
def iso_class_reps(m: int, n: int) -> tuple[BiGraph, ...]:
    """One representative per orbit of subgraphs of K_{m,n} under row/column
    permutations, every edge count, by explicit orbit closure over bitmasks."""
    cells = m * n

    def perm_table(row_map, col_map):
        return [row_map[c // n] * n + col_map[c % n] for c in range(cells)]

    gens = []
    for r in range(m - 1):
        row_map = list(range(m))
        row_map[r], row_map[r + 1] = row_map[r + 1], row_map[r]
        gens.append(perm_table(row_map, list(range(n))))
    for c in range(n - 1):
        col_map = list(range(n))
        col_map[c], col_map[c + 1] = col_map[c + 1], col_map[c]
        gens.append(perm_table(list(range(m)), col_map))

    def image(mask: int, table) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << table[low.bit_length() - 1]
            mask ^= low
        return out

    seen = bytearray(1 << cells)
    reps = []
    for mask in range(1 << cells):
        if seen[mask]:
            continue
        orbit = {mask}
        frontier = [mask]
        while frontier:
            cur = frontier.pop()
            for table in gens:
                img = image(cur, table)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        for q in orbit:
            seen[q] = 1
        reps.append(min(orbit))
    return tuple(mask_to_graph(m, n, mask) for mask in reps)


def random_gridperm(m: int, n: int, rng: random.Random, allow_swap: bool = False) -> GridPerm:
    swap = allow_swap and m == n and rng.random() < 0.5
    rows = list(range(m if not swap else n))
    cols = list(range(n if not swap else m))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return GridPerm(tuple(rows), tuple(cols), swap)


def random_bigraph(rng: random.Random, max_cells: int = 64) -> BiGraph:
    while True:
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        if m * n <= max_cells:
            break
    rows = tuple(rng.getrandbits(n) for _ in range(m))
    return BiGraph(m, n, rows)


def cycle_union(n: int, lengths) -> BiGraph:
    """Disjoint cycles of 2L edges, one per L in lengths, on an n x n grid."""
    rows = [0] * n
    first = 0
    for length in lengths:
        for i in range(length):
            rows[first + i] |= (1 << (first + i)) | (1 << (first + (i + 1) % length))
        first += length
    return BiGraph(n, n, tuple(rows))
