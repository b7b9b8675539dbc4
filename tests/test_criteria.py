import random
from fractions import Fraction
from math import comb, factorial

import pytest

from griddesigns import criteria
from griddesigns.bigraph import BiGraph, from_edge_list, stats
from griddesigns.criteria import (
    check_D,
    check_Dhat,
    classify_case,
    count_targets,
    evaluate,
    outside_standard_range,
)
from griddesigns.permgroup import AutReport, automorphisms
from griddesigns.search import family_cycle, family_figure, family_path

from conftest import iso_class_reps
from count_reference import check_D_tau_reduced, paper_lambda


def path_lambda_closed_form(k: int) -> int:
    """Lambda of the diagonal-path 2-design on the (k-1) x (k-1) grid."""
    if k % 2 == 1:
        return factorial(k - 1) * factorial(k - 3) // factorial((k - 3) // 2) ** 2
    return (
        factorial(k - 1) * factorial(k - 3)
        // (factorial(k // 2 - 2) * factorial(k // 2 - 1))
    )


def cycle_lambda_closed_form(k: int) -> int:
    """Lambda of the even-cycle 2-design on the (k-2) x (k-2) grid."""
    return factorial(k - 3) * factorial(k - 4) // factorial(k // 2 - 2) ** 2


def _written_out(design, m, n, k, t):
    """The level-t targets, as in the paper, by SubgraphStats field."""
    v = m * n
    a, b = k * (k - 1), k * (k - 1) * (k - 2)
    if design == "D" and t == 2:
        return {"p2_r": Fraction(a * (n - 1), 2 * (v - 1)),
                "p2_c": Fraction(a * (m - 1), 2 * (v - 1))}
    if design == "D":
        return {"claw3_r": Fraction(b * (n - 1) * (n - 2), 6 * (v - 1) * (v - 2)),
                "claw3_c": Fraction(b * (m - 1) * (m - 2), 6 * (v - 1) * (v - 2)),
                "p3": Fraction(b * (m - 1) * (n - 1), (v - 1) * (v - 2))}
    if t == 2:
        return {"p2_total": Fraction(a, m + 1)}
    return {"claw3_total": Fraction(b * (m - 2), 3 * (m + 1) * (m * m - 2)),
            "p3": Fraction(b * (m - 1), (m + 1) * (m * m - 2))}


class TestCountTargets:
    def test_equals_written_out(self):
        for m in range(1, 7):
            for n in range(1, 7):
                for design in ("D", "Dhat") if m == n else ("D",):
                    for t in (2, 3):
                        if m * n < t:
                            continue
                        table = count_targets(design, m, n, t)
                        for k in range(m * n + 1):
                            falling = factorial(k) // factorial(k - t) if k >= t else 0
                            got = {name: Fraction(c * falling, d)
                                   for name, (c, d) in table.items()}
                            assert got == _written_out(design, m, n, k, t)

    @pytest.mark.parametrize("args", [
        ("D", 1, 1, 2), ("D", 1, 2, 3), ("Dhat", 1, 1, 2), ("Dhat", 2, 3, 2),
        ("D", 3, 3, 4), ("E", 3, 3, 2),
    ])
    def test_rejects(self, args):
        with pytest.raises(ValueError):
            count_targets(*args)


class TestCheckD:
    def test_fig2_is_3design_lambda_80(self):
        g = family_figure("fig2")
        aut = automorphisms(g)
        is2, is3, lam2, lam3 = check_D(g, aut)
        assert is2 and is3
        assert lam3 == 80

    def test_path5_2design_lambda_48(self):
        g = family_path(5, 4, 4)
        aut = automorphisms(g)
        is2, is3, lam2, lam3 = check_D(g, aut)
        assert is2 and not is3
        assert lam2 == 48 == path_lambda_closed_form(5)

    def test_path4_in_3x3_not_2design(self):
        g = family_path(4, 3, 3)
        assert check_D(g)[0] is False

    def test_verdict_without_aut_has_no_lambda(self):
        g = family_figure("fig2")
        is2, is3, lam2, lam3 = check_D(g)
        assert is2 and is3 and lam2 is None and lam3 is None


class TestCheckDhat:
    def test_fig1_3design_lambda(self):
        g = family_figure("fig1")
        aut = automorphisms(g)
        is2, is3, lam2, lam3 = check_Dhat(g, aut)
        assert is2 and is3
        assert lam3 == 137168640000

    def test_path_2design_iff_m_is_k_minus_1(self):
        # the diagonal path has k-1 two-paths, so the count condition
        # k(k-1)/(m+1) holds exactly when m = k-1
        for m in range(2, 9):
            for k in range(3, m + 2):
                if k // 2 + 1 > m or (k + 1) // 2 > m:
                    continue
                g = family_path(k, m, m)
                assert check_Dhat(g)[0] == (m == k - 1)

    def test_cycle6_lambda_12(self):
        g = family_cycle(6, 4)
        aut = automorphisms(g)
        is2, _, lam2, _ = check_Dhat(g, aut)
        assert is2 and lam2 == 12 == cycle_lambda_closed_form(6)
        assert aut.g_order == 12

    def test_requires_square(self):
        with pytest.raises(ValueError):
            check_Dhat(BiGraph(2, 3, (1, 2)))


class TestClassify:
    def test_path5_case1(self):
        g = family_path(5, 4, 4)
        case = classify_case(g, automorphisms(g), 2)
        assert case.label == "case1"

    def test_path4_case3(self):
        g = family_path(4, 3, 3)
        case = classify_case(g, automorphisms(g), 2)
        assert case.label == "case3"
        assert not case.row_2paths_match

    def test_fig1_case3_at_t3(self):
        g = family_figure("fig1")
        aut = automorphisms(g)
        assert classify_case(g, aut, 3).label == "case3"
        assert classify_case(g, aut, 2).d_is_design is False

    def test_fig3_case2_at_t3(self):
        # both designs exist but the graph is not transpose-equivalent
        g = family_figure("fig3")
        aut = automorphisms(g)
        case = classify_case(g, aut, 3)
        assert case.label == "case2"
        assert case.d_is_design and case.dhat_is_design


class TestInvariants:
    def test_warning_flag(self):
        assert outside_standard_range(from_edge_list(2, 2, [(1, 1)]))
        assert not outside_standard_range(family_figure("fig2"))

    def test_non_integral_rhs_is_false(self):
        # k(k-1)/(m+1) = 6/4 is not an integer: nothing qualifies
        for g in iso_class_reps(3, 3):
            if g.k == 3:
                assert check_Dhat(g)[0] is False

    def test_monotone_implication_square_sweep(self):
        for g in iso_class_reps(3, 3) + iso_class_reps(2, 2):
            d2, d3, _, _ = check_D(g)
            h2, h3, _, _ = check_Dhat(g)
            if d2:
                assert h2
            if d3:
                assert h3

    def test_tau_reduced_path_agrees(self):
        for g in iso_class_reps(3, 3):
            if g.k < 2:
                continue
            aut = automorphisms(g)
            reduced = check_D_tau_reduced(g)
            if aut.tau_equivalent and reduced is not None:
                assert check_D(g)[0] == reduced

    def test_block_counts(self):
        rep = evaluate(family_figure("fig2"), automorphisms(family_figure("fig2")))
        assert rep.b_d == 2240

    def test_case3_discriminator_consistency(self):
        # the direct verdict comparison and the count discriminators agree
        rng = random.Random(31)
        for _ in range(120):
            m = rng.randint(2, 4)
            g = BiGraph(m, m, tuple(rng.getrandbits(m) for _ in range(m)))
            aut = automorphisms(g)
            for t in (2, 3):
                case = classify_case(g, aut, t)
                if case.label == "case3":
                    assert case.dhat_is_design and not case.d_is_design


LAMBDA_VERDICTS = {
    "lambda_d_2": "d_is_2design",
    "lambda_d_3": "d_is_3design",
    "lambda_dhat_2": "dhat_is_2design",
    "lambda_dhat_3": "dhat_is_3design",
}


def paper_lambda_count(g) -> int:
    """Check every lambda of evaluate(g) against the paper's closed form;
    a lambda is reported exactly for the positive verdicts.  Returns the
    number of lambdas checked."""
    rep = evaluate(g, automorphisms(g))
    checked = 0
    for field, verdict in LAMBDA_VERDICTS.items():
        lam = getattr(rep, field)
        assert (lam is not None) == bool(getattr(rep, verdict)), (g, field)
        if lam is not None:
            assert lam == paper_lambda(rep, field), (g, field)
            checked += 1
    return checked


class TestPaperLambdas:
    def test_every_class_up_to_4x4(self):
        checked = sum(paper_lambda_count(g)
                      for m in range(1, 5) for n in range(1, 5)
                      for g in iso_class_reps(m, n))
        assert checked >= 100

    @pytest.mark.parametrize("which, lambdas", [("fig1", 2), ("fig2", 2), ("fig3", 4)])
    def test_figures(self, which, lambdas):
        assert paper_lambda_count(family_figure(which)) == lambdas

    def test_path_family(self):
        # the graphs of acceptance criterion 5
        for m in range(3, 31):
            assert paper_lambda_count(family_path(m + 1, m, m)) >= 1, m

    def test_cycle_family(self):
        # the graphs of acceptance criterion 6
        for m in range(4, 31, 2):
            assert paper_lambda_count(family_cycle(m + 2, m)) >= 1, m


class TestOneCountPerReport:
    @pytest.mark.parametrize("which", ["fig1", "fig2"])
    def test_evaluate_takes_stats_once(self, which, monkeypatch):
        g = family_figure(which)
        aut = automorphisms(g)
        calls = []

        def spy(graph):
            calls.append(graph)
            return stats(graph)

        monkeypatch.setattr(criteria, "stats", spy)
        evaluate(g, aut)
        assert calls == [g]


class TestExactLambda:
    @pytest.mark.parametrize("check, which, aut", [
        (check_D, "fig2", AutReport(k_gens=(), k_order=11)),
        (check_Dhat, "fig1", AutReport(k_gens=(), k_order=11, g_gens=(), g_order=11,
                                       tau_equivalent=False)),
    ])
    def test_non_integral_lambda_raises(self, check, which, aut):
        g = family_figure(which)
        assert check(g)[:2] == (True, True)
        with pytest.raises(ArithmeticError):
            check(g, aut)
