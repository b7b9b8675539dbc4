"""Reference stabilizer search on dense signatures with lockstep refinement.

This is the original engine behind ``permgroup.automorphisms``: both sides of
a correspondence are refined together, and a vertex's signature is the dense
vector of its neighbour counts in every cell.  The library now refines one
side once and replays the recorded trace on the other side, with sparse
signatures that sort like the dense vectors.  The tests hold the two engines
to the same cells, the same failures and the same generators.
"""

from __future__ import annotations

from griddesigns.bigraph import BiGraph, transpose
from griddesigns.permgroup import GridPerm


def adjacency(g: BiGraph) -> list[int]:
    """Neighbor bitmask per vertex; row i is vertex i, column j is m + j."""
    adj = [0] * (g.m + g.n)
    for i, mask in enumerate(g.rows):
        adj[i] = mask << g.m
        while mask:
            low = mask & -mask
            adj[g.m + low.bit_length() - 1] |= 1 << i
            mask ^= low
    return adj


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def refine(cells_a, cells_b, adj_a, adj_b):
    """Lockstep equitable refinement of two ordered partitions.

    Cells are bitmasks; positions in the two lists correspond.  Returns the
    refined pair, or None when the split signatures diverge (no isomorphism
    can respect the current correspondence).
    """
    while True:
        new_a: list[int] = []
        new_b: list[int] = []
        split = False
        for cell_a, cell_b in zip(cells_a, cells_b):
            if cell_a.bit_count() != cell_b.bit_count():
                return None
            if cell_a.bit_count() == 1:
                va = cell_a.bit_length() - 1
                vb = cell_b.bit_length() - 1
                if sig(va, cells_a, adj_a) != sig(vb, cells_b, adj_b):
                    return None
                new_a.append(cell_a)
                new_b.append(cell_b)
                continue
            buckets_a: dict[tuple, int] = {}
            for v in bits(cell_a):
                key = sig(v, cells_a, adj_a)
                buckets_a[key] = buckets_a.get(key, 0) | (1 << v)
            buckets_b: dict[tuple, int] = {}
            for v in bits(cell_b):
                key = sig(v, cells_b, adj_b)
                buckets_b[key] = buckets_b.get(key, 0) | (1 << v)
            keys = sorted(buckets_a)
            if keys != sorted(buckets_b):
                return None
            for key in keys:
                if buckets_a[key].bit_count() != buckets_b[key].bit_count():
                    return None
                new_a.append(buckets_a[key])
                new_b.append(buckets_b[key])
            if len(buckets_a) > 1:
                split = True
        if not split:
            return new_a, new_b
        cells_a, cells_b = new_a, new_b


def sig(v: int, cells, adj) -> tuple:
    return tuple((adj[v] & cell).bit_count() for cell in cells)


def search_iso(adj_a, adj_b, cells_a, cells_b, nverts: int):
    """First color/partition-respecting isomorphism as a vertex map, or None."""
    refined = refine(cells_a, cells_b, adj_a, adj_b)
    if refined is None:
        return None
    cells_a, cells_b = refined

    branch = None
    for idx, cell in enumerate(cells_a):
        size = cell.bit_count()
        if size > 1 and (branch is None or size < cells_a[branch].bit_count()):
            branch = idx
    if branch is None:
        mapping = [0] * nverts
        for cell_a, cell_b in zip(cells_a, cells_b):
            mapping[cell_a.bit_length() - 1] = cell_b.bit_length() - 1
        for v in range(nverts):
            image = 0
            for u in bits(adj_a[v]):
                image |= 1 << mapping[u]
            if image != adj_b[mapping[v]]:
                return None
        return mapping

    cell_a = cells_a[branch]
    cell_b = cells_b[branch]
    a = cell_a & -cell_a
    for b in bits(cell_b):
        next_a = cells_a[:branch] + [a, cell_a ^ a] + cells_a[branch + 1:]
        next_b = cells_b[:branch] + [1 << b, cell_b ^ (1 << b)] + cells_b[branch + 1:]
        found = search_iso(adj_a, adj_b, next_a, next_b, nverts)
        if found is not None:
            return found
    return None


def side_cells(m: int, n: int, pins: tuple[int, ...]) -> list[int]:
    """Pinned vertices as leading singleton cells, then the two side cells."""
    cells = [1 << p for p in pins]
    pinned = 0
    for p in pins:
        pinned |= 1 << p
    rows_mask = ((1 << m) - 1) & ~pinned
    cols_mask = (((1 << n) - 1) << m) & ~pinned
    if rows_mask:
        cells.append(rows_mask)
    if cols_mask:
        cells.append(cols_mask)
    return cells


def orbit(start: int, perms) -> set[int]:
    out = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for p in perms:
            w = p[v]
            if w not in out:
                out.add(w)
                frontier.append(w)
    return out


def k_stabilizer(g: BiGraph, visit=None):
    """Generators and chain order of the stabilizer in K.

    ``visit(pins, u, target)`` is called once per chain level with the pinned
    prefix, the branch vertex and the cell it is taken from.
    """
    adj = adjacency(g)
    nverts = g.m + g.n
    gens: list[list[int]] = []
    pins: list[int] = []
    order = 1
    while True:
        cells = refine(
            side_cells(g.m, g.n, tuple(pins)),
            side_cells(g.m, g.n, tuple(pins)),
            adj, adj,
        )[0]
        target = next((c for c in cells if c.bit_count() > 1), None)
        if target is None:
            break
        u = (target & -target).bit_length() - 1
        if visit is not None:
            visit(tuple(pins), u, target)
        level_gens = [p for p in gens if all(p[q] == q for q in pins)]
        orb = orbit(u, level_gens)
        for w in bits(target):
            if w in orb:
                continue
            found = search_iso(
                adj, adj,
                side_cells(g.m, g.n, tuple(pins) + (u,)),
                side_cells(g.m, g.n, tuple(pins) + (w,)),
                nverts,
            )
            if found is not None:
                gens.append(found)
                level_gens.append(found)
                orb = orbit(u, level_gens)
        order *= len(orb)
        pins.append(u)
    return gens, order


def find_side_iso(g: BiGraph, h: BiGraph):
    if g.m != h.m or g.n != h.n or g.k != h.k:
        return None
    return search_iso(
        adjacency(g), adjacency(h),
        side_cells(g.m, g.n, ()), side_cells(h.m, h.n, ()),
        g.m + g.n,
    )


def generators(g: BiGraph):
    """(k_gens, k_order, g_gens) exactly as the original automorphisms built
    them; g_gens is None on non-square grids."""
    vgens, order = k_stabilizer(g)
    k_gens = tuple(
        GridPerm(tuple(p[i] for i in range(g.m)),
                 tuple(p[g.m + j] - g.m for j in range(g.n)), False)
        for p in vgens
    )
    g_gens = None
    if g.m == g.n:
        mapping = find_side_iso(g, transpose(g))
        g_gens = k_gens
        if mapping is not None:
            rows = tuple(mapping[g.m + j] - g.m for j in range(g.n))
            cols = tuple(mapping[i] for i in range(g.m))
            g_gens = k_gens + (GridPerm(rows, cols, True),)
    return k_gens, order, g_gens
