"""From-scratch refinement and replay, kept for the tests only.

The stabilizer search in `griddesigns.permgroup` keeps its partitions laid
out and refines each child from its parent (`_start`, `_node`).  These two
helpers refine a plain list of cells (vertex bitmasks) from the whole vertex
set instead, with the same `_refine_part`/`_replay_part` rounds, so the tests
can hold the incremental search against them.
"""

from griddesigns.permgroup import _layout, _refine_part, _replay_part


def refine_from_scratch(cells, nbrs):
    """Equitable refinement of a list of cells from scratch, with its split
    trace."""
    nv = len(nbrs[0])
    part = _layout(cells, nv)
    trace = _refine_part(part, nbrs, (1 << nv) - 1)
    return [cell for cell in part[0] if cell], trace


def replay_from_scratch(cells, nbrs, trace):
    """Refine a list of cells from scratch that must split exactly as the
    trace records: the refined cells, in positions matching the traced side,
    or None when a round differs (no isomorphism respects the
    correspondence)."""
    nv = len(nbrs[0])
    part = _layout(cells, nv)
    if not _replay_part(part, nbrs, (1 << nv) - 1, trace):
        return None
    return [cell for cell in part[0] if cell]
