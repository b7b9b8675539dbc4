import random
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest

from griddesigns import cli, criteria
from griddesigns.bigraph import BiGraph, from_edge_list, stats
from griddesigns.criteria import count_targets, evaluate, outside_standard_range
from griddesigns.permgroup import AutReport, automorphisms, group_order
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
        d = evaluate(g, automorphisms(g)).d
        assert d.is_2design and d.is_3design
        assert d.lambda_3 == 80

    def test_path5_2design_lambda_48(self):
        g = family_path(5, 4, 4)
        d = evaluate(g, automorphisms(g)).d
        assert d.is_2design and not d.is_3design
        assert d.lambda_2 == 48 == path_lambda_closed_form(5)

    def test_path4_in_3x3_not_2design(self):
        g = family_path(4, 3, 3)
        assert evaluate(g).d.is_2design is False

    def test_verdict_without_aut_has_no_lambda(self):
        d = evaluate(family_figure("fig2")).d
        assert d.is_2design and d.is_3design
        assert d.lambda_2 is None and d.lambda_3 is None


class TestCheckDhat:
    def test_fig1_3design_lambda(self):
        g = family_figure("fig1")
        dhat = evaluate(g, automorphisms(g)).dhat
        assert dhat.is_2design and dhat.is_3design
        assert dhat.lambda_3 == 137168640000

    def test_path_2design_iff_m_is_k_minus_1(self):
        # the diagonal path has k-1 two-paths, so the count condition
        # k(k-1)/(m+1) holds exactly when m = k-1
        for m in range(2, 9):
            for k in range(3, m + 2):
                if k // 2 + 1 > m or (k + 1) // 2 > m:
                    continue
                g = family_path(k, m, m)
                assert evaluate(g).dhat.is_2design == (m == k - 1)

    def test_cycle6_lambda_12(self):
        g = family_cycle(6, 4)
        aut = automorphisms(g)
        dhat = evaluate(g, aut).dhat
        assert dhat.is_2design and dhat.lambda_2 == 12 == cycle_lambda_closed_form(6)
        assert aut.g_order == 12

    def test_requires_square(self):
        # off square grids there is no Dhat, and so no case
        g = BiGraph(2, 3, (1, 2))
        for rep in (evaluate(g), evaluate(g, automorphisms(g))):
            assert rep.dhat is rep.case_2 is rep.case_3 is None


class TestNoGData:
    # a square-grid report that lacks the G stabilizer, or only tau
    # equivalence, cannot give Dhat's lambda or the case
    @pytest.mark.parametrize("missing", [
        {"g_gens": None, "g_order": None, "tau_equivalent": None},
        {"tau_equivalent": None},
    ])
    def test_rejected(self, missing):
        g = family_path(4, 3, 3)
        aut = replace(automorphisms(g), **missing)
        with pytest.raises(ValueError) as exc:
            evaluate(g, aut)
        assert str(exc.value) == "AutReport has no G data"


class TestClassify:
    def test_path5_case1(self):
        g = family_path(5, 4, 4)
        assert evaluate(g, automorphisms(g)).case_2.label == "case1"

    def test_path4_case3(self):
        g = family_path(4, 3, 3)
        case = evaluate(g, automorphisms(g)).case_2
        assert case.label == "case3"
        assert not case.row_2paths_match

    def test_fig1_case3_at_t3(self):
        g = family_figure("fig1")
        rep = evaluate(g, automorphisms(g))
        assert rep.case_3.label == "case3"
        assert rep.d.is_2design is False

    def test_fig3_case2_at_t3(self):
        # both designs exist but the graph is not transpose-equivalent
        g = family_figure("fig3")
        rep = evaluate(g, automorphisms(g))
        assert rep.case_3.label == "case2"
        assert rep.d.is_3design and rep.dhat.is_3design


class TestInvariants:
    def test_warning_flag(self):
        assert outside_standard_range(from_edge_list(2, 2, [(1, 1)]))
        assert not outside_standard_range(family_figure("fig2"))

    def test_non_integral_rhs_is_false(self):
        # k(k-1)/(m+1) = 6/4 is not an integer: nothing qualifies
        for g in iso_class_reps(3, 3):
            if g.k == 3:
                assert evaluate(g).dhat.is_2design is False

    def test_monotone_implication_square_sweep(self):
        for g in iso_class_reps(3, 3) + iso_class_reps(2, 2):
            rep = evaluate(g)
            if rep.d.is_2design:
                assert rep.dhat.is_2design
            if rep.d.is_3design:
                assert rep.dhat.is_3design

    def test_tau_reduced_path_agrees(self):
        for g in iso_class_reps(3, 3):
            if g.k < 2:
                continue
            aut = automorphisms(g)
            reduced = check_D_tau_reduced(g)
            if aut.tau_equivalent and reduced is not None:
                assert evaluate(g).d.is_2design == reduced

    def test_block_counts(self):
        rep = evaluate(family_figure("fig2"), automorphisms(family_figure("fig2")))
        assert rep.d.blocks == 2240

    def test_case3_discriminator_consistency(self):
        # the direct verdict comparison and the count discriminators agree
        rng = random.Random(31)
        for _ in range(120):
            m = rng.randint(2, 4)
            g = BiGraph(m, m, tuple(rng.getrandbits(m) for _ in range(m)))
            rep = evaluate(g, automorphisms(g))
            for t in (2, 3):
                if getattr(rep, f"case_{t}").label == "case3":
                    assert getattr(rep.dhat, f"is_{t}design")
                    assert not getattr(rep.d, f"is_{t}design")


# (design field of the report, t) -> (its lambda field, its verdict field)
LAMBDA_VERDICTS = {
    (design, t): (f"lambda_{t}", f"is_{t}design")
    for design in ("d", "dhat") for t in (2, 3)
}


def trichotomy(rep, t) -> str:
    """The case of t on a square grid, from the two verdicts and the
    transpose test: none unless Dhat is a t-design, case 3 when D is not,
    then case 1 or 2 as D = Dhat or not."""
    d, dhat = (getattr(record, f"is_{t}design") for record in (rep.d, rep.dhat))
    if not dhat:
        return "none"
    if not d:
        return "case3"
    return "case1" if rep.tau_equivalent else "case2"


def paper_lambda_count(g, labels=None) -> int:
    """Check every lambda of evaluate(g) against the paper's closed form;
    a lambda is reported exactly for the positive verdicts.  On square
    grids, also check each case label against `trichotomy`, and add it to
    `labels` when given.  Returns the number of lambdas checked."""
    rep = evaluate(g, automorphisms(g))
    if rep.m == rep.n:
        for t in (2, 3):
            label = getattr(rep, f"case_{t}").label
            assert label == trichotomy(rep, t), (g, t)
            if labels is not None:
                labels.add(label)
    checked = 0
    for (design, t), (field, verdict) in LAMBDA_VERDICTS.items():
        record = getattr(rep, design)
        if record is None:  # Dhat exists on square grids only
            assert design == "dhat" and rep.m != rep.n, g
            continue
        lam = getattr(record, field)
        assert (lam is not None) == getattr(record, verdict), (g, design, t)
        if lam is not None:
            assert lam == paper_lambda(rep, design, t), (g, design, t)
            checked += 1
    return checked


class TestPaperLambdas:
    def test_every_class_up_to_4x4(self):
        labels = set()
        checked = sum(paper_lambda_count(g, labels)
                      for m in range(1, 5) for n in range(1, 5)
                      for g in iso_class_reps(m, n))
        assert checked >= 100
        assert labels == {"case1", "case2", "case3", "none"}

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
    # D is no design on fig1, so there the error comes from Dhat
    @pytest.mark.parametrize("design, which, aut", [
        ("D", "fig2", AutReport(k_gens=(), k_order=11)),
        ("Dhat", "fig1", AutReport(k_gens=(), k_order=11, g_gens=(), g_order=11,
                                   tau_equivalent=False)),
    ])
    def test_non_integral_lambda_raises(self, design, which, aut):
        g = family_figure(which)
        record = getattr(evaluate(g), design.lower())
        assert (record.is_2design, record.is_3design) == (True, True)
        with pytest.raises(ArithmeticError, match=f"of {design} is not an integer"):
            evaluate(g, aut)


class TestDesignReport:
    def test_every_class_up_to_3x3(self):
        # one record per design: without an AutReport it holds the verdicts
        # alone, its block count is |group| / stabilizer order, and the
        # CLI's verdict for K, G and both reads the same fields
        for m in range(1, 4):
            for n in range(1, 4):
                for g in iso_class_reps(m, n):
                    aut = automorphisms(g)
                    rep = evaluate(g, aut)
                    bare = evaluate(g)
                    records = [("K", rep.d, bare.d, aut.k_order)]
                    if m == n:
                        records.append(("G", rep.dhat, bare.dhat, aut.g_order))
                    else:
                        assert rep.dhat is None and bare.dhat is None
                    for group, record, unsized, stab in records:
                        assert unsized == criteria.DesignReport(
                            record.is_2design, record.is_3design, *[None] * 4)
                        assert record.stabilizer_order == stab
                        assert record.blocks * stab == group_order(m, n, group)
                    for t in (2, 3):
                        verdicts = {group: getattr(record, f"is_{t}design")
                                    for group, record, *_ in records}
                        assert cli._verdict(rep, t, "K") == verdicts["K"]
                        assert cli._verdict(rep, t, "G") == verdicts.get("G", False)
                        assert cli._verdict(rep, t, "both") == any(verdicts.values())
