import random
import time
from math import factorial

import pytest

from griddesigns import permgroup
from griddesigns.bigraph import BiGraph, from_edge_list, transpose
from griddesigns.permgroup import (
    GridPerm,
    apply,
    automorphisms,
    compose,
    cycles_text,
    gridperm_text,
    group_order,
    identity,
    inverse,
    is_edge_transitive,
    new_class,
    tau_equivalent,
)
from griddesigns.search import family_cycle, family_figure, family_path

from canonical_reference import canonical_form
from schreier_reference import order_from_generators
from conftest import (
    all_g_elements,
    all_k_elements,
    brute_stabilizer,
    cycle_union,
    iso_class_reps,
    random_bigraph,
    random_gridperm,
)


def vertex_map(p: GridPerm, m: int, n: int) -> tuple[int, ...]:
    """p as a permutation of the m + n vertices, rows first, then columns."""
    rows = tuple(p.rows)
    cols = tuple(m + c for c in p.cols)
    return cols + rows if p.swap else rows + cols


def recount_graphs() -> list[BiGraph]:
    """Every class with m, n <= 4, the three figures, and the path and cycle
    families on their smallest grids and on a few larger square ones."""
    graphs = [g for m in range(1, 5) for n in range(1, 5) for g in iso_class_reps(m, n)]
    graphs += [family_figure(which) for which in ("fig1", "fig2", "fig3")]
    for k in range(1, 13):
        graphs.append(family_path(k, k // 2 + 1, (k + 1) // 2))
        graphs += [family_path(k, m, m) for m in range(k // 2 + 1, k // 2 + 4)]
    for k in range(4, 15, 2):
        graphs += [family_cycle(k, m) for m in range(k // 2, k // 2 + 3)]
    return graphs


class TestGridPermAlgebra:
    def test_identity_application(self):
        g = family_figure("fig2")
        assert apply(identity(8, 2), g) == g

    def test_three_cycle_order(self):
        g = from_edge_list(3, 3, [(1, 1), (2, 2), (3, 3)])
        p = GridPerm((1, 2, 0), (0, 1, 2), False)
        once = apply(p, g)
        assert apply(p, apply(p, once)) == g

    def test_tau_fixes_symmetric_matrix(self):
        g = from_edge_list(2, 2, [(1, 2), (2, 1)])
        tau = GridPerm((0, 1), (0, 1), True)
        assert apply(tau, g) == g

    def test_swap_requires_square(self):
        g = BiGraph(2, 3, (0, 0))
        with pytest.raises(ValueError):
            apply(GridPerm((0, 1), (0, 1), True), g)

    def test_compose_matches_sequential_application(self):
        rng = random.Random(5)
        for _ in range(300):
            m = rng.randint(1, 4)
            n = m if rng.random() < 0.5 else rng.randint(1, 4)
            rows = tuple(rng.getrandbits(n) for _ in range(m))
            g = BiGraph(m, n, rows)
            a = random_gridperm(m, n, rng, allow_swap=True)
            b_sizes = (m, n) if not a.swap else (m, n)
            b = random_gridperm(*b_sizes, rng, allow_swap=(m == n))
            try:
                seq = apply(b, apply(a, g))
            except ValueError:
                continue
            assert apply(compose(a, b), g) == seq

    def test_inverse(self):
        rng = random.Random(6)
        for _ in range(200):
            m = rng.randint(1, 5)
            p = random_gridperm(m, m, rng, allow_swap=True)
            assert compose(p, inverse(p)).is_identity()
            assert compose(inverse(p), p).is_identity()


class TestGroupOrder:
    def test_examples(self):
        assert group_order(4, 4, "K") == 576
        assert group_order(4, 4, "G") == 1152
        assert group_order(8, 2, "K") == 80640

    def test_g_needs_square(self):
        with pytest.raises(ValueError):
            group_order(3, 2, "G")


class TestAutomorphisms:
    def test_path5_in_4x4(self):
        rep = automorphisms(family_path(5, 4, 4))
        assert rep.k_order == 1
        assert rep.g_order == 2
        assert rep.tau_equivalent is True

    def test_cycle6_in_4x4(self):
        rep = automorphisms(family_cycle(6, 4))
        assert rep.g_order == 12
        assert rep.tau_equivalent is True

    def test_fig1(self):
        rep = automorphisms(family_figure("fig1"))
        assert rep.g_order == 576
        assert rep.k_order == 576
        assert rep.tau_equivalent is False

    def test_generators_fix_graph(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_bigraph(rng, max_cells=20)
            rep = automorphisms(g)
            for p in rep.k_gens + (rep.g_gens or ()):
                assert apply(p, g) == g

    def test_matches_brute_force_small(self):
        # every graph on 2x2, 2x3 and 3x3 grids, plus 4x4 class reps
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            elements = all_k_elements(m, n)
            for mask in range(1 << (m * n)):
                rows = tuple((mask >> (i * n)) & ((1 << n) - 1) for i in range(m))
                g = BiGraph(m, n, rows)
                rep = automorphisms(g)
                assert rep.k_order == len(brute_stabilizer(g, elements))

    def test_matches_brute_force_4x4_classes(self):
        elements = all_k_elements(4, 4)
        gelems = all_g_elements(4)
        for g in iso_class_reps(4, 4):
            if g.k > 8:
                continue
            rep = automorphisms(g)
            assert rep.k_order == len(brute_stabilizer(g, elements))
            assert rep.g_order == len(brute_stabilizer(g, gelems))

    def test_orbit_stabilizer_consistency(self):
        rng = random.Random(13)
        for m, n in [(2, 3), (3, 3), (3, 4)]:
            elements = all_k_elements(m, n)
            for _ in range(10):
                rows = tuple(rng.getrandbits(n) for _ in range(m))
                g = BiGraph(m, n, rows)
                images = {apply(p, g) for p in elements}
                rep = automorphisms(g)
                assert len(images) * rep.k_order == factorial(m) * factorial(n)

    def test_g_order_relation(self):
        rng = random.Random(17)
        for _ in range(60):
            m = rng.randint(1, 4)
            g = BiGraph(m, m, tuple(rng.getrandbits(m) for _ in range(m)))
            rep = automorphisms(g)
            expected = 2 * rep.k_order if rep.tau_equivalent else rep.k_order
            assert rep.g_order == expected

    def test_order_from_generators_agrees(self):
        # the chain order against an independent Schreier-Sims count
        rng = random.Random(23)
        graphs = [random_bigraph(rng, max_cells=16) for _ in range(30)]
        for g in graphs + recount_graphs():
            rep = automorphisms(g)
            perms = [vertex_map(p, g.m, g.n) for p in rep.k_gens]
            assert order_from_generators(perms, g.m + g.n) == rep.k_order, g

    def test_order_from_generators_agrees_in_g(self):
        for g in recount_graphs():
            if g.m != g.n:
                continue
            rep = automorphisms(g)
            perms = [vertex_map(p, g.m, g.n) for p in rep.g_gens]
            assert order_from_generators(perms, g.m + g.n) == rep.g_order, g

    def test_order_from_generators_by_enumeration(self):
        # the reference count itself, against the group listed by closing
        # the identity under the generators, on up to 6 points
        rng = random.Random(29)
        for _ in range(40):
            npoints = rng.randint(1, 6)
            perms = [tuple(rng.sample(range(npoints), npoints))
                     for _ in range(rng.randint(0, 3))]
            group = {tuple(range(npoints))}
            frontier = list(group)
            while frontier:
                p = frontier.pop()
                for q in perms:
                    image = tuple(q[x] for x in p)
                    if image not in group:
                        group.add(image)
                        frontier.append(image)
            assert order_from_generators(perms, npoints) == len(group), perms

    def test_complement_has_same_stabilizer_order(self):
        # an element fixes an edge set iff it fixes the complementary one
        from griddesigns.bigraph import complement

        rng = random.Random(37)
        for _ in range(25):
            g = random_bigraph(rng, max_cells=24)
            assert automorphisms(g).k_order == automorphisms(complement(g)).k_order

    def test_scales_to_search_sizes(self):
        # blob-structured 12x12 graphs with rich symmetry stay fast
        import time
        from math import factorial

        start = time.monotonic()
        edges = []
        # three complete 2x2 blocks on disjoint supports, rest isolated
        for blob in range(3):
            for i in range(2 * blob + 1, 2 * blob + 3):
                for j in range(2 * blob + 1, 2 * blob + 3):
                    edges.append((i, j))
        g = from_edge_list(12, 12, edges)
        rep = automorphisms(g)
        # per side: blob swaps (S_3 on blobs) x S_2 within each blob x S_6 on
        # isolated vertices, and row/column choices are tied within a blob
        expected_k = (factorial(3) * 2**3 * 2**3) * factorial(6) ** 2
        assert rep.k_order == expected_k
        assert rep.tau_equivalent is True
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("which, calls", [("fig3", 38), ("fig1", 10), ("fig2", 6)])
    def test_each_generator_checked_once(self, monkeypatch, which, calls):
        # g_gens extends k_gens on square grids, so each K generator gets
        # one check, not two
        g = family_figure(which)
        checked = []
        fixes = permgroup._fixes
        monkeypatch.setattr(permgroup, "_fixes", lambda p, edges: checked.append(p) or fixes(p, edges))
        rep = automorphisms(g)
        assert len(checked) == calls
        assert checked == list(rep.g_gens or rep.k_gens)

    def test_tau_equivalent_checks_the_swap_once(self, monkeypatch):
        g = family_cycle(6, 5)
        checked = []
        fixes = permgroup._fixes
        monkeypatch.setattr(permgroup, "_fixes", lambda p, edges: checked.append(p) or fixes(p, edges))
        rep = automorphisms(g)
        assert rep.tau_equivalent is True
        assert len(checked) == len(rep.k_gens) + 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_edge_set_check_is_apply(self, m):
        # the generator check compares edge sets instead of applying p
        elements = all_g_elements(m)
        for g in iso_class_reps(m, m):
            edges = {(i - 1, j - 1) for i, j in g.edges()}
            for p in elements:
                assert permgroup._fixes(p, edges) == (apply(p, g) == g)

    def test_non_automorphism_raises(self, monkeypatch):
        # rows 0 and i are not twins, so swapping them moves g
        g = family_figure("fig1")
        i = next(i for i, mask in enumerate(g.rows) if mask != g.rows[0])
        chain = permgroup._k_stabilizer

        def bad_chain(h, nbrs, root):
            gens, order = chain(h, nbrs, root)
            swap = list(range(h.m + h.n))
            swap[0], swap[i] = i, 0
            return gens + [swap], order

        with monkeypatch.context() as patch:
            patch.setattr(permgroup, "_k_stabilizer", bad_chain)
            with pytest.raises(AssertionError, match="non-automorphism"):
                automorphisms(g)

    def test_non_automorphism_swap_raises(self, monkeypatch):
        # fig1 is not tau-equivalent, so g differs from its transpose and the
        # identity vertex map, taken as a swap element, moves g
        g = family_figure("fig1")
        assert transpose(g) != g
        search = permgroup._search_iso

        def bad_transpose(nbrs_a, path, nbrs_b, cells_b):
            if nbrs_b is nbrs_a:
                return search(nbrs_a, path, nbrs_b, cells_b)
            return list(range(g.m + g.n))

        with monkeypatch.context() as patch:
            patch.setattr(permgroup, "_search_iso", bad_transpose)
            with pytest.raises(AssertionError, match="non-automorphism"):
                automorphisms(g)


class TestTauEquivalence:
    def test_path5(self):
        assert tau_equivalent(family_path(5, 4, 4)) is True

    def test_fig1(self):
        assert tau_equivalent(family_figure("fig1")) is False

    def test_fig3(self):
        assert tau_equivalent(family_figure("fig3")) is False

    def test_symmetric_matrix(self):
        g = from_edge_list(3, 3, [(1, 2), (2, 1), (3, 3)])
        assert tau_equivalent(g) is True

    def test_requires_square(self):
        with pytest.raises(ValueError):
            tau_equivalent(BiGraph(2, 3, (1, 2)))

    def test_transposed_neighbours(self):
        # the transpose test searches against lists and masks derived from
        # g's own; they are those of the transposed graph
        rng = random.Random(31)
        graphs = [g for m in range(1, 5) for g in iso_class_reps(m, m)]
        for _ in range(200):
            m = rng.randint(1, 12)
            graphs.append(BiGraph(m, m, tuple(rng.getrandbits(m) for _ in range(m))))
        graphs += [family_figure(which) for which in ("fig1", "fig3")]
        for g in graphs:
            want = permgroup._neighbours(transpose(g))
            assert permgroup._transposed(permgroup._neighbours(g)) == want, g

    def test_agrees_with_canonical_forms(self):
        rng = random.Random(29)
        for _ in range(80):
            m = rng.randint(1, 4)
            g = BiGraph(m, m, tuple(rng.getrandbits(m) for _ in range(m)))
            via_canon = canonical_form(g) == canonical_form(transpose(g))
            assert tau_equivalent(g) == via_canon


class TestNewClass:
    def test_trace_collisions_stay_apart(self):
        # C4+C4+C4, C12 and C8+C4 on a 6x6 grid: every vertex has degree
        # 2, so refinement splits nothing and all share one root trace;
        # only the descents, which all fail, tell them apart
        graphs = [cycle_union(6, lengths) for lengths in ([2, 2, 2], [6], [4, 2])]
        cells = permgroup._side_cells(6, 6, ())
        traces = {permgroup._start(cells, permgroup._neighbours(g))[0][1] for g in graphs}
        assert len(traces) == 1
        rng = random.Random(41)
        for allow_tau in (False, True):
            kept: dict = {}
            assert all(new_class(g, kept, allow_tau) is not None for g in graphs)
            relabelled = apply(random_gridperm(6, 6, rng, allow_swap=allow_tau), graphs[1])
            assert new_class(relabelled, kept, allow_tau) is None

    def test_failing_descent_skips_twins(self, monkeypatch):
        # C4 + C6 + K2 against C10 + K2 on 10x10 share one root trace; the
        # smallest root cells hold the 4 isolated rows and columns, and
        # trying every order of those twins took 3,880 replays to fail
        h = BiGraph(10, 10, (24, 24, 6, 5, 3, 32, 0, 0, 0, 0))
        g = BiGraph(10, 10, (24, 20, 10, 5, 3, 32, 0, 0, 0, 0))
        cells = permgroup._side_cells(10, 10, ())
        nbrs_h, nbrs_g = permgroup._neighbours(h), permgroup._neighbours(g)
        root_h, root_g = permgroup._start(cells, nbrs_h), permgroup._start(cells, nbrs_g)
        assert root_h[0][1] == root_g[0][1]
        replays = []
        replay = permgroup._replay_part

        def counting(*args):
            replays.append(args)
            return replay(*args)

        monkeypatch.setattr(permgroup, "_replay_part", counting)
        assert permgroup._descend(nbrs_h, nbrs_g, root_h, 0, root_g[0][0]) is None
        assert len(replays) <= 11

    @pytest.mark.parametrize("m, limit", [(12, 0.1), (20, 1.0)])
    def test_perfect_matching_in_time(self, m, limit):
        # its stabilizer is Sym(m), on which an exhaustive labelling search
        # is factorial
        rng = random.Random(m)
        g = BiGraph(m, m, tuple(1 << i for i in range(m)))
        h = apply(random_gridperm(m, m, rng, allow_swap=True), g)
        start = time.process_time()
        kept: dict = {}
        report = new_class(g, kept, allow_tau=True)
        assert new_class(h, kept, allow_tau=True) is None
        assert time.process_time() - start < limit
        assert report.g_order == 2 * factorial(m)


class TestEdgeTransitivity:
    def test_cycle6_under_g(self):
        g = family_cycle(6, 4)
        assert is_edge_transitive(g, automorphisms(g), "G") is True

    def test_path5_under_g(self):
        g = family_path(5, 4, 4)
        assert is_edge_transitive(g, automorphisms(g), "G") is False

    def test_single_edge_under_k(self):
        g = from_edge_list(2, 2, [(1, 1)])
        assert is_edge_transitive(g, automorphisms(g), "K") is True

    def test_empty_graph_rejected(self):
        g = BiGraph(2, 2, (0, 0))
        with pytest.raises(ValueError):
            is_edge_transitive(g, automorphisms(g), "K")

    def test_brute_force_agreement(self):
        # single K-orbit on edges iff the brute-force stabilizer acts with one
        # orbit, for all 3x3 graphs with at least one edge
        elements = all_k_elements(3, 3)
        from griddesigns.permgroup import apply_cell

        for g in iso_class_reps(3, 3):
            if g.k == 0:
                continue
            stab = brute_stabilizer(g, elements)
            cells = [(i - 1, j - 1) for i, j in g.edges()]
            orbit = {cells[0]}
            changed = True
            while changed:
                changed = False
                for p in stab:
                    for c in list(orbit):
                        img = apply_cell(p, c)
                        if img not in orbit:
                            orbit.add(img)
                            changed = True
            expected = len(orbit) == g.k
            assert is_edge_transitive(g, automorphisms(g), "K") == expected


class TestSerialization:
    def test_cycles_text(self):
        assert cycles_text((1, 2, 0)) == "(1 2 3)"
        assert cycles_text((0, 1)) == "()"
        assert cycles_text((1, 0, 3, 2)) == "(1 2)(3 4)"

    def test_gridperm_text(self):
        p = GridPerm((1, 0, 2), (0, 2, 1), False)
        assert gridperm_text(p) == "rowcyc (1 2) colcyc (2 3)"
        q = GridPerm((0, 1), (0, 1), True)
        assert gridperm_text(q) == "swap"
