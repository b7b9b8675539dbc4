"""Row/column permutation groups acting on grid block graphs.

The acting groups are K (independent row and column permutations) and, on a
square grid, G = <K, transpose>, which is the full automorphism group of
K_{m,m}.  This module computes the setwise stabilizers of a block graph in
both groups: generators, exact orders, equivalence of a graph with its
transpose, and edge-orbit transitivity (the flag-transitivity test).

The stabilizer search is a vertex-colored individualization/refinement
backtrack over the m + n vertices; orders come from its stabilizer chain,
never from enumerating group elements.  The tests check every chain order
against an independent Schreier-Sims count, `tests/schreier_reference.py`.

Refinement runs once per partition of the searched graph and records its
trace; the candidate side only replays that trace and fails at the first
round that differs (nauty's trace comparison).  Refinement is incremental,
as in nauty: cells are named by their start positions, a round signs only
the cells next to a cell that split in the round before, and a child
partition in the search starts from its equitable parent.  A trace round
holds an entry for each cell it signs; the cells it leaves out cannot split
(see _split_round), so the refined cells, the failing round and the first
isomorphism found are those of signing every cell in every round.  A
vertex's signature is built from its neighbour list, inline in the round
that takes it: the cell starts of its neighbours, sparse, in a form that
sorts exactly like the dense vector of neighbour counts per cell.  Cells
therefore split in the same order as with dense vectors, and the search
finds the same first isomorphism.

Twins, vertices with equal neighbourhoods (every isolated vertex of a side,
for one), let the search skip what they already decide, and it still returns
the first isomorphism of the full search.  Swapping two twins is an
automorphism.  At an a-side node whose non-singleton cells all hold twins,
refinement splits nothing more, and any isomorphism that extends the node
can be composed with twin swaps on the b-side.  So the lowest b-candidate
always succeeds when some isomorphism exists, and no candidate succeeds when
none does.  The full search would therefore map each cell in ascending order
onto its b-cell, and _descend takes that map at once and checks it like a
leaf.  At any node, a b-candidate that is a twin of a candidate that failed
fails too: swapping the two fixes every other vertex, so it maps the node's
partition onto itself and the one candidate's subtree onto the other's.
_descend skips it, so a failing search does not try every order of a
side's isolated vertices.

In the chain, a candidate w that is a twin of u (masks[w] == masks[u]) gets
the generator tau = _twin_swap(A0, u, w) at every level, A0 the level root,
and tau is the first isomorphism the coset search of w would find.  (1) u is
a singleton of the equitable partition A0: a refined root is equitable, an
isolated u moves out of an equitable root, and the twin-node case is below.
(2) So every vertex of a cell has the same count into {u}, and N(u) is a
union of cells; a vertex x of w's cell has w's count into every cell, all
of it or none of it, so N(x) = N(u), and w's cell holds only twins of u.
(3) tau sends u to w and w's cell in ascending order onto that cell with w
replaced by u.  It permutes twins, so it is an automorphism, and refinement
commutes with it: tau(A0), A0 with u and w exchanged, is the b-root.  (4)
Every branch cell on the a-path lies in a cell of A0 and misses the
singleton u; tau is increasing on w's cell and fixes the other cells.  So
the first b-candidate _descend tries at each depth is tau(a), and its
replay passes.  (5) The leaf maps each cell in ascending order onto its
tau-image: it is tau.

A chain level's root, the partition with its pins individualized, is the
current root with the new pin u moved to the front of the non-pinned cells,
without refining again, in two cases.  First, when u has no neighbours: u is
nobody's neighbour, so moving u shifts the starts of the cells that appear
in signatures by a strictly increasing map.  Every signature comparison,
every bucket order and every split of the from-scratch refinement is then
the same (u's empty signature puts it in the first bucket of its cell), and
it ends in the moved partition, cells and order alike.  Second, when the
current root is a twin node with a single non-singleton cell: that cell's
vertices are twins, so a vertex is next to all of them or to none, and the
vertices of one equitable cell have the same count into it.  So they agree
on u, and the partition with u split off is still equitable.  It is also
the coarsest equitable one with u split off, so the from-scratch
refinement has the same cells, perhaps in another order.  No
later step reads that order: each later level is again such a node, its
pin is the lowest vertex of the one non-singleton cell, and its generators
are twin swaps, which are built cell by cell.  In both cases every
candidate of the level is a twin of u, so the moved root needs no trace.

The same search deduplicates the exhaustive search (new_class).  The trace
of the unpinned root is an isomorphism invariant: an element of K fixes the
side cells, and round by round a vertex and its image have one signature,
with the same cells signed.  So only a graph with a kept graph's trace can
be isomorphic to it, and its refined root is then what a replay of the kept
trace gives: _descend from the two roots decides, and checks every map it
returns, so a trace that two classes share never merges them.  Every
element of G is k or tau k, k in K, so a graph is in a kept graph's G-orbit
exactly when it is K-isomorphic to it or to its transpose; a kept graph
that is not tau-equivalent is also filed under its transpose's trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .bigraph import BiGraph


@dataclass(frozen=True)
class GridPerm:
    """An element of K or G: row permutation, column permutation, and an
    optional leading transpose (swap), all 0-based images.

    Action on a cell (i, j): (rows[i], cols[j]) without swap, and
    (rows[j], cols[i]) with swap (transpose first, then permute).  Swap
    elements only exist on square grids.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    swap: bool = False

    def __post_init__(self):
        if self.swap and len(self.rows) != len(self.cols):
            raise ValueError("swap elements require m = n")

    def is_identity(self) -> bool:
        return (
            not self.swap
            and all(i == v for i, v in enumerate(self.rows))
            and all(j == v for j, v in enumerate(self.cols))
        )


def identity(m: int, n: int) -> GridPerm:
    return GridPerm(tuple(range(m)), tuple(range(n)), False)


def compose(a: GridPerm, b: GridPerm) -> GridPerm:
    """The element 'apply a, then b'."""
    if b.swap:
        rows = tuple(b.rows[v] for v in a.cols)
        cols = tuple(b.cols[v] for v in a.rows)
    else:
        rows = tuple(b.rows[v] for v in a.rows)
        cols = tuple(b.cols[v] for v in a.cols)
    return GridPerm(rows, cols, a.swap != b.swap)


def inverse(p: GridPerm) -> GridPerm:
    r_inv = _inv(p.rows)
    c_inv = _inv(p.cols)
    if p.swap:
        return GridPerm(c_inv, r_inv, True)
    return GridPerm(r_inv, c_inv, False)


def _inv(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def apply(p: GridPerm, g: BiGraph) -> BiGraph:
    """Image graph of g under p; preserves edge count and degree multisets
    (swapping the two sides when p.swap)."""
    if p.swap and g.m != g.n:
        raise ValueError("swap elements act only on square grids")
    if len(p.rows) != (g.n if p.swap else g.m) or len(p.cols) != (g.m if p.swap else g.n):
        raise ValueError("permutation sizes do not match the grid")
    rows = [0] * g.m
    for i, mask in enumerate(g.rows):
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            ii, jj = apply_cell(p, (i, j))
            rows[ii] |= 1 << jj
            mask ^= low
    return BiGraph(g.m, g.n, tuple(rows))


def apply_cell(p: GridPerm, cell: tuple[int, int]) -> tuple[int, int]:
    """Image of a 0-based cell (i, j)."""
    i, j = cell
    if p.swap:
        return (p.rows[j], p.cols[i])
    return (p.rows[i], p.cols[j])


def group_order(m: int, n: int, group: str) -> int:
    """|K| = m! n!, |G| = 2 (m!)^2 (G only on square grids)."""
    if group == "K":
        return factorial(m) * factorial(n)
    if group == "G":
        if m != n:
            raise ValueError("G is only defined for m = n")
        return 2 * factorial(m) ** 2
    raise ValueError(f"unknown group {group!r}")


@dataclass(frozen=True)
class AutReport:
    """Stabilizer data for a block graph.

    k_gens generate the stabilizer in K; g_gens (square grids only) generate
    the stabilizer in G and contain at most one swap element.  Orders are
    exact; g_order = 2 * k_order exactly when the graph is equivalent to its
    transpose under K.
    """

    k_gens: tuple[GridPerm, ...]
    k_order: int
    g_gens: tuple[GridPerm, ...] | None = None
    g_order: int | None = None
    tau_equivalent: bool | None = None


# ---------------------------------------------------------------------------
# Colored-graph machinery on the vertex set R ∪ C (rows first, then columns)
# ---------------------------------------------------------------------------

def _neighbours(g: BiGraph):
    """Per vertex, row i as vertex i and column j as m + j: the ascending
    neighbour lists, and the neighbours as bitmasks."""
    lists: list[list[int]] = [[] for _ in range(g.m + g.n)]
    masks = [0] * (g.m + g.n)
    for i, mask in enumerate(g.rows):
        masks[i] = mask << g.m
        for j in _bits(mask):
            lists[i].append(g.m + j)
            lists[g.m + j].append(i)
            masks[g.m + j] |= 1 << i
    return [tuple(vs) for vs in lists], masks


def _transposed(nbrs):
    """The neighbour lists and masks of transpose(g) from g's (m = n): row
    i of the transpose is column i of g and column j is row j, so the two
    halves change places, shifted by m."""
    lists, masks = nbrs
    m = len(lists) // 2
    up, down = m.__add__, (-m).__add__
    return ([tuple(map(up, vs)) for vs in lists[m:]] + [tuple(map(down, vs)) for vs in lists[:m]],
            [mask << m for mask in masks[m:]] + [mask >> m for mask in masks[:m]])


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layout(cells, nv: int):
    """The ordered partition `cells` (vertex bitmasks) as (ptn, cell_of).

    A cell is named by its start, the total size of the cells before it.
    ptn[s] is the cell that starts at s, else 0; cell_of[v] is minus the
    start of v's cell.  Starts sort cells as their indices do, and a split
    keeps every other cell's start.
    """
    ptn = [0] * nv
    cell_of = [0] * nv
    start = 0
    for cell in cells:
        ptn[start] = cell
        rest = cell
        while rest:
            low = rest & -rest
            cell_of[low.bit_length() - 1] = -start
            rest ^= low
        start += cell.bit_count()
    return ptn, cell_of


def _split_round(part, nbrs, dirty: int):
    """One refinement round, in place: each cell that meets the vertex mask
    dirty splits by signature into its buckets in key order.  Returns the
    round's trace entries and the next round's mask.

    A vertex's signature is the negated cell starts of its neighbours,
    ascending by start (cell_of holds -(cell start) per vertex).  These keys
    sort exactly like the dense vectors of neighbour counts over all cells:
    where two vectors first differ, the larger count puts an entry where the
    other key has a later cell (a smaller entry) or has ended.  So cells
    split in the same order.

    The entries are (cell start, entry) for the cells that meet dirty, in
    order: a singleton's signature, or the split keys in order with their
    bucket sizes (pairs, so never equal to a signature).

    The next mask holds the neighbours of every bucket of a split cell but
    its first largest one (nauty's "all but the largest"; any one bucket may
    be left out).  A cell that misses it had equal signatures when last
    signed, and no vertex of it is next to a bucket left in: its count into
    the largest bucket is its count into the cell that split, and 0 into the
    others.  So it cannot split, and its entry follows from those recorded
    before, on either side of a trace comparison.  An empty mask means no
    cell can split any more.
    """
    ptn, cell_of = part
    lists, masks = nbrs
    get = cell_of.__getitem__
    starts = []
    while dirty:
        start = -cell_of[(dirty & -dirty).bit_length() - 1]
        starts.append(start)
        dirty &= ~ptn[start]
    starts.sort()
    entries: list[tuple] = []
    splits = []
    for start in starts:
        cell = ptn[start]
        if cell & (cell - 1) == 0:
            key = tuple(sorted(map(get, lists[cell.bit_length() - 1]), reverse=True))
            entries.append((start, key))
            continue
        buckets: dict[tuple, int] = {}
        rest = cell
        while rest:
            low = rest & -rest
            key = tuple(sorted(map(get, lists[low.bit_length() - 1]), reverse=True))
            buckets[key] = buckets.get(key, 0) | low
            rest ^= low
        if len(buckets) == 1:
            entries.append((start, ((key, cell.bit_count()),)))
            continue
        keys = sorted(buckets)
        entries.append((start, tuple([(key, buckets[key].bit_count()) for key in keys])))
        splits.append((start, [buckets[key] for key in keys]))
    # every signature of the round is taken before any cell moves
    touched = 0
    for start, buckets in splits:
        largest = max(buckets, key=int.bit_count)
        pos = start
        for bucket in buckets:
            ptn[pos] = bucket
            rest = bucket
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                cell_of[v] = -pos
                if bucket != largest:
                    touched |= masks[v]
                rest ^= low
            pos += bucket.bit_count()
    return tuple(entries), touched


def _refine_part(part, nbrs, dirty: int) -> tuple:
    """Refine part in place until no cell can split; the trace holds the
    entries of each round, in tuples, so it can key a dict.  dirty must meet
    every cell whose vertices may differ in signature."""
    trace = []
    while True:
        entries, dirty = _split_round(part, nbrs, dirty)
        trace.append(entries)
        if not dirty:
            return tuple(trace)


def _replay_part(part, nbrs, dirty: int, trace) -> bool:
    """Refine part in place against trace; False at the first round whose
    entries differ.

    Each side picks the cells to sign from its own graph.  While the rounds
    agree, a cell that only one side signs has a vertex next to a bucket
    where the other side has none, so its full signatures differ too: a
    difference shows in the round where signing every cell would show it.
    """
    for entries in trace:
        got, dirty = _split_round(part, nbrs, dirty)
        if got != entries:
            return False
    return True


def _node(part, nbrs, dirty: int):
    """Refine part in place; the search node (part, trace, branch)."""
    return part, _refine_part(part, nbrs, dirty), _branch(part[0], nbrs[1])


def _branch(ptn, masks):
    """The start of the first smallest non-singleton cell, or None when every
    non-singleton cell holds twins (a leaf, see _descend)."""
    sizes = [(cell.bit_count(), start) for start, cell in enumerate(ptn)
             if cell & (cell - 1)]
    for _, start in sizes:
        rest = ptn[start]
        first = masks[(rest & -rest).bit_length() - 1]
        while rest:
            low = rest & -rest
            if masks[low.bit_length() - 1] != first:
                return min(sizes)[1]
            rest ^= low
    return None


def _start(cells, nbrs) -> list:
    """The a-side search path of the searches from the partition cells: the
    refined root node.  The a-side branches on one vertex per node, so its
    nodes form one path, which _descend extends as the searches reach
    deeper; the searches from one root share it."""
    nv = len(nbrs[0])
    return [_node(_layout(cells, nv), nbrs, (1 << nv) - 1)]


def _child(part, start: int, v: int):
    """A copy of part with vertex v split off the front of the cell at
    start."""
    ptn, cell_of = part[0][:], part[1][:]
    rest = ptn[start] ^ (1 << v)
    ptn[start] = 1 << v
    ptn[start + 1] = rest
    while rest:
        low = rest & -rest
        cell_of[low.bit_length() - 1] = -(start + 1)
        rest ^= low
    return ptn, cell_of


def _pinned(part, p: int, u: int):
    """A copy of part, whose first p cells are the pinned singletons, with
    vertex u taken out of its cell and put in a singleton cell at start p.
    The cells from start p to u's cell move up one place."""
    cells = [cell for cell in part[0] if cell]
    rest = [cell & ~(1 << u) for cell in cells[p:]]
    return _layout(cells[:p] + [1 << u] + [cell for cell in rest if cell], len(part[0]))


def _twin_swap(part, u: int, w: int) -> list[int]:
    """The first isomorphism _descend finds from the chain level root part,
    where u is a singleton, onto part with the twins u and w exchanged: u
    goes to w, and w's cell, which holds only twins of u, maps in ascending
    order onto the same cell with w replaced by u; every other vertex is
    fixed (the lemma is in the module docstring)."""
    cell = part[0][-part[1][w]]
    mapping = list(range(len(part[0])))
    mapping[u] = w
    for a, b in zip(_bits(cell), _bits(cell ^ (1 << w | 1 << u))):
        mapping[a] = b
    return mapping


def _search_iso(nbrs_a, path, nbrs_b, cells_b):
    """First color/partition-respecting isomorphism as a vertex map, or None.

    path is the a-side search path (see _start): the a-side refinements do
    not depend on the candidate images, so the b-side replays their traces.
    """
    nv = len(nbrs_b[0])
    part_b = _layout(cells_b, nv)
    if not _replay_part(part_b, nbrs_b, (1 << nv) - 1, path[0][1]):
        return None
    return _descend(nbrs_a, nbrs_b, path, 0, part_b)


def _descend(nbrs_a, nbrs_b, path, depth: int, part_b):
    """The search below the a-side node path[depth], matched by part_b.

    A child splits one vertex off the front of the branch cell of its
    equitable parent; the rest of the cell is the bucket left out, so its
    first round signs the cells next to that vertex, on each side.
    """
    part_a, _, branch = path[depth]
    if branch is None:
        # the search below a twin node maps each cell in ascending order
        # onto the b-cell at the same start
        mapping = [0] * len(part_a[0])
        for cell_a, cell_b in zip(part_a[0], part_b[0]):
            while cell_a:
                a = cell_a & -cell_a
                b = cell_b & -cell_b
                mapping[a.bit_length() - 1] = b.bit_length() - 1
                cell_a ^= a
                cell_b ^= b
        masks_b = nbrs_b[1]
        for v, vs in enumerate(nbrs_a[0]):
            if sum([1 << mapping[u] for u in vs]) != masks_b[mapping[v]]:
                return None
        return mapping

    if depth + 1 == len(path):
        cell_a = part_a[0][branch]
        a = (cell_a & -cell_a).bit_length() - 1
        path.append(_node(_child(part_a, branch, a), nbrs_a, nbrs_a[1][a]))
    trace = path[depth + 1][1]
    masks_b = nbrs_b[1]
    failed = set()
    for b in _bits(part_b[0][branch]):
        if masks_b[b] in failed:
            continue  # a twin of a failed candidate (module docstring)
        child = _child(part_b, branch, b)
        if _replay_part(child, nbrs_b, masks_b[b], trace):
            found = _descend(nbrs_a, nbrs_b, path, depth + 1, child)
            if found is not None:
                return found
        failed.add(masks_b[b])
    return None


def _side_cells(m: int, n: int, pins: tuple[int, ...]) -> list[int]:
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


def _schreier(start: int, perms, tree: dict | None = None) -> dict:
    """The orbit of start under perms (sequences indexed by point), as a
    Schreier vector: each reached point maps to the point it was first
    reached from and the perm that took it there; start maps to (None, None).
    A point is inserted only after the point it was reached from.

    Given `tree`, the orbit of start under all of perms but the last, the
    closure resumes from it in place: its points go through the last perm
    only, and each new point through all of perms."""
    if tree is None:
        tree = {start: (None, None)}
        frontier = [start]
    else:
        p = perms[-1]
        frontier = []
        for v in list(tree):
            w = p[v]
            if w not in tree:
                tree[w] = (v, p)
                frontier.append(w)
    while frontier:
        v = frontier.pop()
        for p in perms:
            w = p[v]
            if w not in tree:
                tree[w] = (v, p)
                frontier.append(w)
    return tree


def _k_stabilizer(g: BiGraph, nbrs, root):
    """Generators (as vertex perms) and exact order of the stabilizer in K,
    from root, the search path from the unpinned root (see _start).

    Builds a stabilizer chain: repeatedly refine with the pinned prefix
    individualized, branch on the first non-singleton cell, and find one
    stabilizer element per coset by a constrained isomorphism search, or,
    for a twin of the pin, by _twin_swap, the map that search would return.
    The order is the product of the orbit sizes along the chain.

    The searches of one level share one a-side path, from the partition
    with the level's candidate pinned as well; that path's root is the next
    level's partition.  It is the current root with the candidate moved to
    the front of the non-pinned cells, unrefined, when the candidate is
    isolated or the current root is a twin node with a single non-singleton
    cell (see the module docstring); else it is refined from scratch.
    """
    gens: list[list[int]] = []
    pins: list[int] = []
    order = 1
    masks = nbrs[1]
    level = root
    while True:
        part, _, branch = level[0]
        cells = [c for c in part[0] if c & (c - 1)]
        if not cells:
            break
        target = cells[0]
        u = (target & -target).bit_length() - 1
        # a generator found at an earlier level moves that level's pin, so
        # only this level's own generators fix every pin
        level_gens: list[list[int]] = []
        orbit = _schreier(u, level_gens)
        if masks[u] == 0 or (branch is None and len(cells) == 1):
            # every candidate is a twin of u: no search replays the root trace
            moved = _pinned(part, len(pins), u)
            level = [(moved, None, _branch(moved[0], masks))]
        else:
            level = _start(_side_cells(g.m, g.n, tuple(pins) + (u,)), nbrs)
        for w in _bits(target):
            if w in orbit:
                continue
            if masks[w] == masks[u]:
                # the first isomorphism of the coset search (module docstring)
                found = _twin_swap(level[0][0], u, w)
            else:
                found = _search_iso(
                    nbrs, level, nbrs, _side_cells(g.m, g.n, tuple(pins) + (w,)))
            if found is not None:
                gens.append(found)
                level_gens.append(found)
                _schreier(u, level_gens, orbit)
        order *= len(orbit)
        pins.append(u)
    return gens, order


def _vertex_map_to_gridperm(mapping, m: int, n: int) -> GridPerm:
    return GridPerm(tuple(mapping[:m]), tuple([v - m for v in mapping[m:]]), False)


def _fixes(p: GridPerm, edges: set) -> bool:
    """Whether p maps the edge set (0-based cells) onto itself; for a
    bijection of cells that is apply(p, g) == g, g the graph of the edges."""
    rows, cols = p.rows, p.cols
    if p.swap:
        return {(rows[j], cols[i]) for i, j in edges} == edges
    return {(rows[i], cols[j]) for i, j in edges} == edges


def automorphisms(g: BiGraph) -> AutReport:
    """Stabilizer of the block graph in K, and in G on square grids: its
    report as a graph new to an empty table (new_class)."""
    return new_class(g, {})


def new_class(g: BiGraph, kept: dict, allow_tau: bool = False) -> AutReport | None:
    """The stabilizer report of g, which the table kept then holds, or None
    when g is isomorphic to a graph kept before: under K, and under G with
    allow_tau (square grids only).  kept is a dict, empty at first, for the
    graphs of one grid; it maps root traces to the neighbours and search
    paths of kept graphs, and of their transposes (module docstring).

    The G part reuses the K chain: the stabilizer in G either equals the one
    in K or extends it by a single swap element, which exists exactly when g
    is isomorphic to its transpose under K.
    """
    if allow_tau and g.m != g.n:
        raise ValueError("transpose is only defined on square grids")
    nbrs = _neighbours(g)
    cells = _side_cells(g.m, g.n, ())
    root = _start(cells, nbrs)
    for kept_nbrs, kept_root in kept.get(root[0][1], ()):
        # equal traces: g's refined root is the replay of the kept one's
        if _descend(kept_nbrs, nbrs, kept_root, 0, root[0][0]) is not None:
            return None
    vgens, k_order = _k_stabilizer(g, nbrs, root)
    k_gens = tuple(_vertex_map_to_gridperm(p, g.m, g.n) for p in vgens)

    g_gens = None
    g_order = None
    tau_eq = None
    if g.m == g.n:
        tnbrs = _transposed(nbrs)
        mapping = _search_iso(nbrs, root, tnbrs, cells)
        tau_eq = mapping is not None
        if tau_eq:
            p = _vertex_map_to_gridperm(mapping, g.m, g.n)
            g_gens = k_gens + (GridPerm(p.cols, p.rows, True),)
            g_order = 2 * k_order
        else:
            g_gens = k_gens
            g_order = k_order

    report = AutReport(k_gens, k_order, g_gens, g_order, tau_eq)
    edges = {(i, v - g.m) for i in range(g.m) for v in nbrs[0][i]}
    # on square grids g_gens holds every K generator
    for p in report.g_gens or report.k_gens:
        if not _fixes(p, edges):
            raise AssertionError("stabilizer search returned a non-automorphism")
    kept.setdefault(root[0][1], []).append((nbrs, root))
    if allow_tau and not tau_eq:
        troot = _start(cells, tnbrs)
        kept.setdefault(troot[0][1], []).append((tnbrs, troot))
    return report


def tau_equivalent(g: BiGraph) -> bool:
    """Whether the transposed graph is the image of g under some element of K
    (square grids only).  Exactly then do the K-orbit and G-orbit of the block
    coincide."""
    if g.m != g.n:
        raise ValueError("tau equivalence is only defined on square grids")
    nbrs, cells = _neighbours(g), _side_cells(g.m, g.n, ())
    return _search_iso(nbrs, _start(cells, nbrs), _transposed(nbrs), cells) is not None


def is_edge_transitive(g: BiGraph, report: AutReport, group: str = "K") -> bool:
    """Whether the chosen stabilizer has a single orbit on the edges of g.

    Equivalent to flag-transitivity of the corresponding design.
    """
    if g.k == 0:
        raise ValueError("edge transitivity is undefined for an empty graph")
    if group == "K":
        gens = report.k_gens
    elif group == "G":
        if report.g_gens is None:
            raise ValueError("no G data in this report (grid is not square)")
        gens = report.g_gens
    else:
        raise ValueError(f"unknown group {group!r}")
    # the stabilizer permutes the edges, so close over edge indices
    cells = [(i - 1, j - 1) for i, j in g.edges()]
    index = {cell: e for e, cell in enumerate(cells)}
    perms = [[index[apply_cell(p, cell)] for cell in cells] for p in gens]
    return len(_schreier(0, perms)) == g.k


# ---------------------------------------------------------------------------
# Cycle-notation serialization for reports
# ---------------------------------------------------------------------------

def cycles_text(perm: tuple[int, ...]) -> str:
    """Cycle notation with 1-based points, fixed points omitted; '()' when
    the permutation is the identity."""
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            continue
        cycle = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        parts.append("(" + " ".join(str(v + 1) for v in cycle) + ")")
    return "".join(parts) if parts else "()"


def gridperm_text(p: GridPerm) -> str:
    """One-line serialization: optional 'swap', then rowcyc/colcyc parts."""
    parts = []
    if p.swap:
        parts.append("swap")
    row_txt = cycles_text(p.rows)
    col_txt = cycles_text(p.cols)
    if row_txt != "()":
        parts.append(f"rowcyc {row_txt}")
    if col_txt != "()":
        parts.append(f"colcyc {col_txt}")
    if not parts:
        parts.append("identity")
    return " ".join(parts)
