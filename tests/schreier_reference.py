"""The order of a permutation group from its generators by deterministic
Schreier-Sims, kept for the tests only.

`griddesigns.permgroup.automorphisms` reads its orders off the stabilizer
chain of its refinement search and never counts them again.  The tests hold
every chain order to this count, which takes only the returned generators
and shares with the library nothing but its orbit closure (`_schreier`) and
permutation inverse (`_inv`).
"""

from griddesigns.permgroup import _inv, _schreier


def order_from_generators(perms, npoints: int) -> int:
    """Exact order of the group generated by vertex permutations.

    Deterministic Schreier-Sims over the chain of point stabilizers: bases
    and transversals are rebuilt and every Schreier generator re-sifted until
    a full pass finds nothing new, at which point the product of the
    transversal sizes is the group order.  No randomness, no element
    enumeration; adequate for the small orbits of block-graph stabilizers.
    """
    ident = tuple(range(npoints))
    bases: list[int] = []
    placed: list[list[tuple[int, ...]]] = []  # gens first entering H_d at level d
    transversals: list[dict[int, tuple[int, ...]]] = []
    inverses: list[dict[int, tuple[int, ...]]] = []  # of reps, filled on use

    def level_gens(d: int):
        return [g for lst in placed[d:] for g in lst]

    def rebuild(d: int):
        trans = {}
        for w, (u, q) in _schreier(bases[d], level_gens(d)).items():
            trans[w] = ident if q is None else tuple([q[x] for x in trans[u]])
        transversals[d] = trans
        inverses[d] = {}

    def rep_inverse(d: int, image: int) -> tuple[int, ...]:
        """Inverse of the level-d transversal element mapping the base to
        image, computed once per rebuild of that level."""
        inv = inverses[d].get(image)
        if inv is None:
            inv = inverses[d][image] = _inv(transversals[d][image])
        return inv

    def sift(p):
        """Strip p through the chain; (residue, level) if it does not sift."""
        for d in range(len(bases)):
            image = p[bases[d]]
            if p[bases[d]] == bases[d]:
                continue
            if image not in transversals[d]:
                return p, d
            rep_inv = rep_inverse(d, image)
            p = tuple([rep_inv[x] for x in p])
        if p == ident:
            return None
        return p, len(bases)

    def add(p, d: int):
        if d == len(bases):
            bases.append(next(i for i in range(npoints) if p[i] != i))
            placed.append([])
            transversals.append({})
            inverses.append({})
        placed[d].append(p)
        for e in range(d + 1):
            rebuild(e)

    for p in perms:
        p = tuple(p)
        if len(p) != npoints or sorted(p) != list(range(npoints)):
            raise ValueError("not a permutation of the point set")
        res = sift(p)
        if res is not None:
            add(*res)

    # close under Schreier generators until a full pass is clean
    dirty = True
    while dirty:
        dirty = False
        for d in range(len(bases)):
            base = bases[d]
            gens = level_gens(d)
            for u in sorted(transversals[d]):
                tu = transversals[d][u]
                for q in gens:
                    s = tuple([q[x] for x in tu])
                    rep_inv = rep_inverse(d, s[base])
                    schreier = tuple([rep_inv[x] for x in s])
                    res = sift(schreier)
                    if res is not None:
                        add(*res)
                        dirty = True
            if dirty:
                break

    order = 1
    for trans in transversals:
        order *= len(trans)
    return order
