"""The frontier canonical form as it was before the degree-partition start
and the degree-oriented transpose key, kept as a reference for the tests.

Keys from here and from `griddesigns.bigraph.canonical_form` are different
bytes; what must agree is which graphs get equal keys.
"""

from collections import Counter

from griddesigns import bigraph
from griddesigns.bigraph import BiGraph, transpose


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
    """New keys are equal exactly when reference keys are equal, over all
    pairs of `graphs`."""
    pairs = {(bigraph.canonical_form(g, allow_transpose), canonical_form(g, allow_transpose))
             for g in graphs}
    new_keys = {new for new, _ in pairs}
    ref_keys = {ref for _, ref in pairs}
    assert len(new_keys) == len(pairs) == len(ref_keys)
