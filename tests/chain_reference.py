"""The stabilizer chain with every level refined from scratch, kept for the
tests only.

`griddesigns.permgroup._k_stabilizer` builds a level's root by moving the
pinned vertex when that provably gives the from-scratch cells, and gives
every twin candidate its generator without a search (`_twin_swap`).  This
chain refines every level's root from scratch (`_start`) and searches every
twin candidate through `_descend`, from the root with the twins exchanged,
on the same search helpers, so the tests can hold the shortcuts to the same
reports.  It looks `_descend` up on the module, so a test that wraps it
sees every descent of this chain.
"""

from __future__ import annotations

from griddesigns import permgroup
from griddesigns.bigraph import BiGraph, transpose
from griddesigns.permgroup import (
    AutReport,
    GridPerm,
    _bits,
    _neighbours,
    _schreier,
    _search_iso,
    _side_cells,
    _start,
    _vertex_map_to_gridperm,
)


def swapped(part, u: int, w: int):
    """A copy of part with vertices u and w exchanged."""
    ptn, cell_of = part[0][:], part[1][:]
    both = 1 << u | 1 << w
    for start in {-cell_of[u], -cell_of[w]}:
        if ptn[start] & both != both:
            ptn[start] ^= both
    cell_of[u], cell_of[w] = cell_of[w], cell_of[u]
    return ptn, cell_of


def k_stabilizer(g: BiGraph, nbrs):
    """Generators (as vertex perms) and chain order of the stabilizer in K,
    and the search path from the unpinned root."""
    gens: list[list[int]] = []
    pins: list[int] = []
    order = 1
    root = level = _start(_side_cells(g.m, g.n, ()), nbrs)
    while True:
        (ptn, _), _, _ = level[0]
        target = next((c for c in ptn if c & (c - 1)), None)
        if target is None:
            break
        u = (target & -target).bit_length() - 1
        level_gens: list[list[int]] = []
        orbit = _schreier(u, level_gens)
        level = _start(_side_cells(g.m, g.n, tuple(pins) + (u,)), nbrs)
        for w in _bits(target):
            if w in orbit:
                continue
            if nbrs[1][w] == nbrs[1][u]:
                # the twin swap (u w) takes the a-root to the b-root
                found = permgroup._descend(
                    nbrs, nbrs, level, 0, swapped(level[0][0], u, w))
            else:
                found = _search_iso(
                    nbrs, level, nbrs, _side_cells(g.m, g.n, tuple(pins) + (w,)))
            if found is not None:
                gens.append(found)
                level_gens.append(found)
                _schreier(u, level_gens, orbit)
        order *= len(orbit)
        pins.append(u)
    return gens, order, root


def automorphisms(g: BiGraph) -> AutReport:
    """`permgroup.automorphisms` on the from-scratch chain."""
    nbrs = _neighbours(g)
    vgens, k_order, root = k_stabilizer(g, nbrs)
    k_gens = tuple(_vertex_map_to_gridperm(p, g.m, g.n) for p in vgens)
    if g.m != g.n:
        return AutReport(k_gens, k_order)
    mapping = _search_iso(nbrs, root, _neighbours(transpose(g)), _side_cells(g.m, g.n, ()))
    if mapping is None:
        return AutReport(k_gens, k_order, k_gens, k_order, False)
    rows = tuple(mapping[g.m + j] - g.m for j in range(g.n))
    cols = tuple(mapping[i] for i in range(g.m))
    g_gens = k_gens + (GridPerm(rows, cols, True),)
    return AutReport(k_gens, k_order, g_gens, 2 * k_order, True)
