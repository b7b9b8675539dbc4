"""The row-by-row realizer as it was before lex-leader column pruning, kept as
a reference for the tests.

It breaks only the row symmetry, so each isomorphism class is realized once
per ordering of its equal-degree columns.  It yields matrices in the same
decreasing row-major order as `griddesigns.search._realize`, which realizes
a subset of them; the first matrix of each class must be the same in both.
`searched_branches` is the mirror-branch skip as first written, with a
position dict over every degree branch.
"""

from itertools import combinations

from griddesigns.bigraph import BiGraph

from canonical_reference import canonical_form


def _combinations_masks(n: int, weight: int):
    """All n-bit masks of the given popcount, in decreasing numeric order."""
    out = []
    for combo in combinations(range(n), weight):
        mask = 0
        for j in combo:
            mask |= 1 << j
        out.append(mask)
    out.sort(reverse=True)
    return out


def _realize(x, y, state):
    m, n = len(x), len(y)
    col_masks_by_count: dict[int, list[int]] = {}

    def masks_of_weight(weight: int):
        if weight not in col_masks_by_count:
            col_masks_by_count[weight] = _combinations_masks(n, weight)
        return col_masks_by_count[weight]

    rows: list[int] = []
    caps = list(y)

    def rec(i: int):
        state.tick()
        if i == m:
            if all(c == 0 for c in caps):
                yield tuple(rows)
            return
        need = x[i]
        if need == 0:
            # remaining rows are empty; succeed only if columns are saturated
            if all(c == 0 for c in caps):
                yield tuple(rows + [0] * (m - i))
            return
        remaining_after = sum(x[i + 1:])
        ceiling = rows[-1] if i > 0 and x[i] == x[i - 1] else None
        for mask in masks_of_weight(need):
            if ceiling is not None and mask > ceiling:
                continue
            ok = True
            mm = mask
            while mm:
                low = mm & -mm
                j = low.bit_length() - 1
                if caps[j] == 0:
                    ok = False
                    break
                mm ^= low
            if not ok:
                continue
            mm = mask
            while mm:
                low = mm & -mm
                caps[low.bit_length() - 1] -= 1
                mm ^= low
            # remaining row edges must fit the remaining column capacity
            if sum(min(c, m - i - 1) for c in caps) >= remaining_after:
                rows.append(mask)
                yield from rec(i + 1)
                rows.pop()
            mm = mask
            while mm:
                low = mm & -mm
                caps[low.bit_length() - 1] += 1
                mm ^= low

    yield from rec(0)


def branch_stream(spec, matrices):
    """The matrices of one branch, in the given order, whose key is new to
    the branch; every branch is keyed under the transpose if allow-tau."""
    allow_tau = spec.dedup == "allow-tau"
    seen: set[bytes] = set()
    for rows in matrices:
        key = canonical_form(BiGraph(spec.m, spec.n, rows), allow_transpose=allow_tau)
        if key not in seen:
            seen.add(key)
            yield rows


def searched_branches(spec, branches) -> list[int]:
    """Indices of the branches to search, from spec.start_branch on: under
    allow-tau a branch is skipped when its mirror has a smaller index."""
    indices = range(spec.start_branch, len(branches))
    if spec.dedup != "allow-tau":
        return list(indices)
    position = {branch: i for i, branch in enumerate(branches)}
    return [i for i in indices if position.get(branches[i][::-1], i) >= i]
