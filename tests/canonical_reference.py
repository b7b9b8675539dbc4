"""A frontier canonical form under row/column permutations, kept as the
tests' reference classifier of block graphs.

Two graphs get equal keys exactly when one is the image of the other under
independent row and column permutations, and with allow_transpose also
under the transpose.  `griddesigns.permgroup.new_class` must split graphs
into the same classes.  Keys pack the grid sides in one byte each, so they
need sides up to 255.
"""

from collections import Counter

from griddesigns.bigraph import BiGraph, transpose
from griddesigns.permgroup import new_class


def canonical_form(g: BiGraph, allow_transpose: bool = False) -> bytes:
    key = _canonical_key(g)
    if allow_transpose:
        key = min(key, _canonical_key(transpose(g)))
    return key


def _canonical_key(g: BiGraph) -> bytes:
    m, n = g.m, g.n
    col_masks = g.columns()
    all_rows = (1 << m) - 1

    start = ((all_rows,), tuple(sorted(Counter(col_masks).items())))
    frontier = {start}
    blocks: list[int] = []

    for _ in range(n):
        best: int | None = None
        best_states: dict = {}
        for groups, remaining in frontier:
            for col, cnt in remaining:
                block, new_groups = _extend(groups, col, m)
                if best is None or block < best:
                    best = block
                    best_states = {}
                if block == best:
                    left = tuple(
                        (c, q - 1 if c == col else q)
                        for c, q in remaining
                        if not (c == col and q == 1)
                    )
                    best_states[(new_groups, left)] = None
        assert best is not None
        blocks.append(best)
        frontier = set(best_states)

    packed = 0
    for block in blocks:
        packed = (packed << m) | block
    width = (m * n + 7) // 8
    return bytes([g.m, g.n]) + packed.to_bytes(width, "big")


def _extend(groups: tuple[int, ...], col: int, m: int):
    block = 0
    pos = m
    new_groups = []
    for grp in groups:
        ones = grp & col
        zeros = grp & ~col
        size = grp.bit_count()
        t = ones.bit_count()
        pos -= size
        block |= ((1 << t) - 1) << pos
        if zeros:
            new_groups.append(zeros)
        if ones:
            new_groups.append(ones)
    return block, tuple(new_groups)


def assert_same_partition(graphs, allow_transpose: bool = False):
    """new_class splits `graphs` into the classes of the reference keys:
    each graph is new to a table of the graphs before it exactly when its
    key is new, and a later graph of a class is a duplicate in a table of
    its class's first graph alone."""
    kept: dict = {}
    firsts: dict = {}
    for g in graphs:
        key = canonical_form(g, allow_transpose)
        new = new_class(g, kept, allow_transpose) is not None
        assert new == (key not in firsts), g
        if new:
            firsts[key] = {}
            new_class(g, firsts[key], allow_transpose)
        else:
            assert new_class(g, firsts[key], allow_transpose) is None, g
