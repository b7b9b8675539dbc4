import random

import pytest
from hypothesis import given, settings, strategies as st

from griddesigns.bigraph import (
    BiGraph,
    GraphFormatError,
    complement,
    degrees,
    format_graph_text,
    from_edge_list,
    parse_graph_text,
    stats,
    transpose,
)
from griddesigns.search import family_figure, family_path

from canonical_reference import assert_same_partition, canonical_form
from count_reference import stats_by_enumeration
from conftest import iso_class_reps, mask_to_graph, random_bigraph, random_gridperm
from griddesigns.permgroup import GridPerm, apply, new_class


def bigraphs(max_side=5):
    def build(draw):
        m = draw(st.integers(1, max_side))
        n = draw(st.integers(1, max_side))
        rows = draw(st.tuples(*[st.integers(0, (1 << n) - 1)] * m))
        return BiGraph(m, n, rows)

    return st.composite(build)()


class TestConstruction:
    def test_p3_on_2x2(self):
        g = from_edge_list(2, 2, [(1, 1), (1, 2), (2, 1)])
        assert g.k == 3
        assert g.edges() == [(1, 1), (1, 2), (2, 1)]

    def test_fig2_shape(self):
        g = family_figure("fig2")
        assert (g.m, g.n, g.k) == (8, 2, 6)
        x, y = degrees(g)
        assert sorted(x, reverse=True) == [2, 1, 1, 1, 1, 0, 0, 0]
        assert y == (4, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(1, 1, [(1, 2)])
        with pytest.raises(ValueError):
            from_edge_list(2, 2, [(0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(2, 2, [(1, 1), (1, 1)])

    def test_zero_side_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(0, 2, [])


class TestDegrees:
    def test_path5_in_4x4(self):
        x, y = degrees(family_path(5, 4, 4))
        assert x == (1, 2, 2, 0)
        assert y == (2, 2, 1, 0)

    def test_empty_graph(self):
        x, y = degrees(BiGraph(3, 3, (0, 0, 0)))
        assert x == (0, 0, 0) and y == (0, 0, 0)

    def test_degree_sums_equal_k(self):
        rng = random.Random(1)
        for _ in range(200):
            g = random_bigraph(rng)
            x, y = degrees(g)
            assert sum(x) == sum(y) == g.k


class TestStats:
    def test_fig2_counts(self):
        st_ = stats(family_figure("fig2"))
        assert (st_.p2_r, st_.p2_c, st_.claw3_r, st_.claw3_c, st_.p3) == (1, 7, 0, 4, 4)

    def test_fig1_three_paths(self):
        assert stats(family_figure("fig1")).p3 == 300

    def test_single_edge_all_zero(self):
        g = from_edge_list(2, 2, [(1, 1)])
        st_ = stats(g)
        assert st_ == stats_by_enumeration(g)
        assert (st_.p2_r, st_.p2_c, st_.p3, st_.claw3_r, st_.claw3_c) == (0, 0, 0, 0, 0)

    def test_formula_equals_enumeration_exhaustive(self):
        # every graph on grids with at most 12 cells
        for m, n in [(1, 1), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (2, 6)]:
            for mask in range(1 << (m * n)):
                g = mask_to_graph(m, n, mask)
                assert stats(g) == stats_by_enumeration(g)

    def test_formula_equals_enumeration_random(self):
        rng = random.Random(42)
        for _ in range(1000):
            g = random_bigraph(rng, max_cells=64)
            assert stats(g) == stats_by_enumeration(g)

    def test_transpose_swaps_types(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_bigraph(rng)
            if g.m != g.n:
                continue
            a, b = stats(g), stats(transpose(g))
            assert (a.p2_r, a.p2_c) == (b.p2_c, b.p2_r)
            assert (a.claw3_r, a.claw3_c) == (b.claw3_c, b.claw3_r)
            assert a.p3 == b.p3


class TestTranspose:
    def test_symmetric_fixed_point(self):
        g = from_edge_list(3, 3, [(1, 1), (1, 2), (2, 1), (3, 3)])
        assert transpose(g) == g

    def test_p4_image(self):
        g = from_edge_list(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2)])
        assert transpose(g).edges() == [(1, 1), (1, 2), (2, 2), (2, 3)]

    def test_requires_square(self):
        with pytest.raises(ValueError):
            transpose(BiGraph(2, 3, (0, 0)))

    @settings(max_examples=100)
    @given(bigraphs())
    def test_involution(self, g):
        if g.m == g.n:
            assert transpose(transpose(g)) == g


class TestComplement:
    def test_empty_to_complete(self):
        g = complement(BiGraph(2, 3, (0, 0)))
        assert g.k == 6

    def test_fig2_count(self):
        assert complement(family_figure("fig2")).k == 16 - 6

    @settings(max_examples=100)
    @given(bigraphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g
        assert complement(g).k == g.m * g.n - g.k


def is_duplicate(h, g, allow_tau=False):
    """Whether new_class finds h isomorphic to g, in a table of g alone."""
    kept: dict = {}
    assert new_class(g, kept, allow_tau) is not None
    return new_class(h, kept, allow_tau) is None


class TestCanonicalForm:
    """permgroup.new_class, the search's dedup, which replaced the canonical
    form: a graph is new to a table of the classes kept before it exactly
    when it is isomorphic to none of them."""

    def test_row_swap_invariant(self):
        g = from_edge_list(3, 3, [(1, 1), (2, 2), (2, 3)])
        h = from_edge_list(3, 3, [(2, 1), (1, 2), (1, 3)])
        assert is_duplicate(h, g)

    def test_transpose_variant(self):
        g = from_edge_list(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2)])
        assert is_duplicate(transpose(g), g, allow_tau=True)
        assert not is_duplicate(transpose(g), g)

    def test_path_vs_claw_distinct(self):
        p3 = from_edge_list(3, 3, [(1, 1), (1, 2), (2, 2)])
        claw = from_edge_list(3, 3, [(1, 1), (1, 2), (1, 3)])
        assert not is_duplicate(claw, p3)

    def test_invariant_under_group(self):
        rng = random.Random(11)
        for trial in range(25):
            g = random_bigraph(rng, max_cells=25)
            reps = 100 if trial < 5 else 10
            kept: dict = {}
            assert new_class(g, kept) is not None
            for _ in range(reps):
                p = random_gridperm(g.m, g.n, rng)
                assert new_class(apply(p, g), kept) is None
            if g.m == g.n:
                kept = {}
                assert new_class(g, kept, allow_tau=True) is not None
                for _ in range(reps):
                    p = random_gridperm(g.m, g.n, rng, allow_swap=True)
                    assert new_class(apply(p, g), kept, allow_tau=True) is None

    def test_separates_classes(self):
        # every orbit-enumeration class representative is new to a table of
        # the ones before it: soundness and completeness in one count
        for m, n in [(3, 3), (2, 4), (4, 4)]:
            kept: dict = {}
            for g in iso_class_reps(m, n):
                assert new_class(g, kept) is not None, g

    def test_sides_above_255(self):
        # every row a different subset of the 8 columns, so no large twin
        # class makes the stabilizer chain long
        rng = random.Random(7)
        g = BiGraph(256, 8, tuple(range(256)))
        assert is_duplicate(apply(random_gridperm(256, 8, rng), g), g)
        assert not is_duplicate(BiGraph(256, 8, (1,) + tuple(range(1, 256))), g)
        h = BiGraph(300, 300, tuple(rng.getrandbits(300) & rng.getrandbits(300)
                                    for _ in range(300)))
        assert is_duplicate(transpose(h), h, allow_tau=True)
        assert not is_duplicate(transpose(h), h)

    def test_transpose_variant_counts_g_orbits(self):
        # the 3x3 graphs new to one allow-tau table are as many as the
        # orbits under the full group (row/col perms and transpose)
        kept: dict = {}
        new = 0
        orbits = set()
        seen = set()
        for mask in range(1 << 9):
            g = mask_to_graph(3, 3, mask)
            new += new_class(g, kept, allow_tau=True) is not None
            if mask in seen:
                continue
            orbit = {mask}
            frontier = [g]
            while frontier:
                cur = frontier.pop()
                images = [transpose(cur)]
                for p in (
                    # adjacent row and column transpositions
                    [(1, 0, 2), None], [(0, 2, 1), None],
                    [None, (1, 0, 2)], [None, (0, 2, 1)],
                ):
                    rows = p[0] or (0, 1, 2)
                    cols = p[1] or (0, 1, 2)
                    images.append(apply(GridPerm(tuple(rows), tuple(cols)), cur))
                for img in images:
                    code = sum(
                        1 << (3 * i + j)
                        for i, j in ((a - 1, b - 1) for a, b in img.edges())
                    )
                    if code not in orbit:
                        orbit.add(code)
                        frontier.append(img)
            seen |= orbit
            orbits.add(min(orbit))
        assert new == len(orbits)


@st.composite
def graph_batches(draw):
    """A few graphs on one grid of up to 7x7, each with a relabelled copy,
    and its transpose on a square grid."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        g = BiGraph(m, n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(m)))
        rows = tuple(draw(st.permutations(range(m))))
        cols = tuple(draw(st.permutations(range(n))))
        out += [g, apply(GridPerm(rows, cols), g)]
        if m == n:
            out.append(transpose(g))
    return out


class TestCanonicalMatchesReference:
    """new_class, with the transpose allowed as well, splits graphs into the
    classes of the reference keys (tests/canonical_reference.py)."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_class(self, m):
        rng = random.Random(m)
        for n in range(1, 5):
            graphs = []
            for g in iso_class_reps(m, n):
                graphs += [g, apply(random_gridperm(m, n, rng), g)]
                if m == n:
                    graphs.append(transpose(g))
            assert_same_partition(graphs)
            if m == n:
                assert_same_partition(graphs, allow_transpose=True)

    @settings(max_examples=150, deadline=None)
    @given(graph_batches())
    def test_random_graphs(self, graphs):
        assert_same_partition(graphs)
        if graphs[0].m == graphs[0].n:
            assert_same_partition(graphs, allow_transpose=True)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_transpose_key_is_the_lesser_orientation(self, m):
        # the allow-tau reference key is the lesser of both orientations'
        # keys; new_class finds a graph under the transpose exactly when
        # it finds the graph or its transpose without it
        rng = random.Random(m)
        reps = iso_class_reps(m, m)
        for g, other in zip(reps, reps[1:] + reps[:1]):
            for h in (apply(random_gridperm(m, m, rng, allow_swap=True), g), other):
                either = is_duplicate(h, g) or is_duplicate(transpose(h), g)
                assert is_duplicate(h, g, allow_tau=True) == either
                assert either == (canonical_form(h, True) == canonical_form(g, True))

    def test_transpose_needs_square_grid(self):
        with pytest.raises(ValueError):
            new_class(BiGraph(2, 3, (1, 2)), {}, allow_tau=True)


class TestTextFormat:
    def test_roundtrip(self):
        g = family_figure("fig2")
        assert parse_graph_text(format_graph_text(g)) == g

    def test_comments_and_blanks(self):
        text = "# witness\n\ngrid 2 2\nedge 1 1  # diagonal\n\nedge 2 2\n"
        g = parse_graph_text(text)
        assert g.edges() == [(1, 1), (2, 2)]

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_text("grid 2 2\nedge 5 1\n")
        assert exc.value.line == 2

    def test_edge_before_grid(self):
        with pytest.raises(GraphFormatError):
            parse_graph_text("edge 1 1\n")

    def test_missing_grid(self):
        with pytest.raises(GraphFormatError):
            parse_graph_text("# nothing\n")
