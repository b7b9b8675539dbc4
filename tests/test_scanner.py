from fractions import Fraction
from itertools import groupby

import pytest

from griddesigns import scanner
from griddesigns.scanner import (
    _factor,
    _feasible_ks,
    _modulus,
    _residues,
    feasible_grids,
    scan_general_3design,
    scan_square_2design,
    scan_square_3design,
)
from scan_reference import factor, feasible_ks

GOLDEN_SQUARE3 = [
    [11, 36], [25, 91], [38, 105], [41, 805], [54, 1365], [74, 2025], [87, 2256],
]

# recorded with the exhaustive scan over every k, which took about 18 s
GOLDEN_SQUARE3_1000 = GOLDEN_SQUARE3 + [
    [153, 11572], [159, 2976], [164, 10285], [246, 4979], [251, 24165],
    [311, 21568], [318, 6293], [331, 7388], [340, 37697], [506, 97344],
    [509, 88111], [524, 125350], [580, 82503], [666, 13892], [683, 158517],
    [716, 65487], [716, 130972], [816, 287756], [844, 123370], [864, 193760],
]


class TestSquare3:
    def test_golden_to_100(self):
        assert scan_square_3design(100) == GOLDEN_SQUARE3

    def test_empty_below_11(self):
        assert scan_square_3design(10) == []

    def test_smallest_case(self):
        assert scan_square_3design(11) == [[11, 36]]

    def test_golden_to_1000(self):
        assert scan_square_3design(1000) == GOLDEN_SQUARE3_1000

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            scan_square_3design(1)


class TestGeneral3:
    def test_firsts(self):
        out = scan_general_3design(20, 20)
        assert out[0] == [8, 2, 6]
        assert out[1] == [11, 7, 20]

    def test_ordering_is_lexicographic(self):
        out = scan_general_3design(20, 20)
        assert out == sorted(out)

    def test_convention_m_ge_n(self):
        assert all(m >= n >= 2 for m, n, _ in scan_general_3design(18, 18))

    def test_targets_integral(self):
        for m, n, k in scan_general_3design(15, 15):
            v = m * n
            assert Fraction(k * (k - 1) * (n - 1), 2 * (v - 1)).denominator == 1
            assert Fraction(k * (k - 1) * (m - 1), 2 * (v - 1)).denominator == 1
            assert Fraction(
                k * (k - 1) * (k - 2) * (n - 1) * (n - 2), 6 * (v - 1) * (v - 2)
            ).denominator == 1
            assert Fraction(
                k * (k - 1) * (k - 2) * (m - 1) * (m - 2), 6 * (v - 1) * (v - 2)
            ).denominator == 1
            assert Fraction(
                k * (k - 1) * (k - 2) * (m - 1) * (n - 1), (v - 1) * (v - 2)
            ).denominator == 1


class TestSquare2:
    def test_path_parameters_present(self):
        out = scan_square_2design(30)
        for m in range(3, 31):
            assert [m, m + 1] in out

    def test_cycle_parameters_present(self):
        out = scan_square_2design(30)
        for m in range(4, 31, 2):
            assert [m, m + 2] in out

    def test_4_7_absent(self):
        assert [4, 7] not in scan_square_2design(10)

    def test_square3_subset_of_square2(self):
        sq3 = scan_square_3design(60)
        sq2 = scan_square_2design(60)
        for pair in sq3:
            assert pair in sq2

    def test_targets_integral(self):
        for m, k in scan_square_2design(12):
            assert (k * (k - 1)) % (m + 1) == 0


def _dhat_targets(m, k, t):
    """The Dhat counts a t-design on the m x m grid must hit."""
    out = [Fraction(k * (k - 1), m + 1)]
    if t == 3:
        out += [
            Fraction(k * (k - 1) * (k - 2) * (m - 2), 3 * (m + 1) * (m * m - 2)),
            Fraction(k * (k - 1) * (k - 2) * (m - 1), (m + 1) * (m * m - 2)),
        ]
    return out


def _d3_targets(m, n, k):
    """The D counts a 3-design on the m x n grid must hit."""
    v = m * n
    return [
        Fraction(k * (k - 1) * (n - 1), 2 * (v - 1)),
        Fraction(k * (k - 1) * (m - 1), 2 * (v - 1)),
        Fraction(k * (k - 1) * (k - 2) * (n - 1) * (n - 2), 6 * (v - 1) * (v - 2)),
        Fraction(k * (k - 1) * (k - 2) * (m - 1) * (m - 2), 6 * (v - 1) * (v - 2)),
        Fraction(k * (k - 1) * (k - 2) * (m - 1) * (n - 1), (v - 1) * (v - 2)),
    ]


def _integral(targets):
    return all(x.denominator == 1 for x in targets)


class TestCompleteness:
    """Every tuple in range whose targets are all integral, and no other,
    is what a scan prints."""

    @pytest.mark.parametrize("t, scan", [
        (2, scan_square_2design), (3, scan_square_3design),
    ])
    def test_square(self, t, scan):
        want = [[m, k] for m in range(2, 41) for k in range(3, m * m // 2 + 1)
                if _integral(_dhat_targets(m, k, t))]
        assert want
        assert scan(40) == want

    def test_general3(self):
        want = [[m, n, k] for m in range(2, 17) for n in range(2, m + 1)
                for k in range(3, m * n // 2 + 1) if _integral(_d3_targets(m, n, k))]
        assert want
        assert scan_general_3design(16, 16) == want


class TestResidueClasses:
    """The residue-class scan gives the same k lists as trying every k."""

    @pytest.mark.parametrize("t", [2, 3])
    def test_dhat(self, t):
        for m in range(2, 151):
            assert _feasible_ks("Dhat", m, m, t) == feasible_ks("Dhat", m, m, t), m

    # the range of the benchmark's general3 scan, with its 549 grids that
    # stop at level 2
    def test_d3(self):
        for m in range(2, 61):
            for n in range(2, 61):
                assert _feasible_ks("D", m, n, 3) == feasible_ks("D", m, n, 3), (m, n)

    # the level the first exit decides, which no scan mode runs alone
    def test_d2(self):
        for m in range(2, 61):
            for n in range(2, 61):
                assert _feasible_ks("D", m, n, 2) == feasible_ks("D", m, n, 2), (m, n)

    # m + 1 a high power of 2 or 3, so q_2 and q_3 hold that prime power
    @pytest.mark.parametrize("m", [63, 80, 127, 242, 255])
    @pytest.mark.parametrize("design, t", [("Dhat", 2), ("Dhat", 3), ("D", 2), ("D", 3)])
    def test_high_prime_powers(self, m, design, t):
        assert _feasible_ks(design, m, m, t) == feasible_ks(design, m, m, t)


class TestExits:
    """A grid is dropped at the first level with a prime power that no k in
    3..mn/2 can meet, and the drop agrees with trying every k."""

    def _spy(self, monkeypatch):
        asked, residues = [], []
        monkeypatch.setattr(scanner, "_modulus",
                            lambda *args: asked.append(args[3]) or _modulus(*args))
        monkeypatch.setattr(scanner, "_residues",
                            lambda *args: residues.append(args) or _residues(*args))
        return asked, residues

    def test_level2(self, monkeypatch):
        # q_2 = 22 and 11 > 4 * 3 / 2: level 3 is never computed
        assert _modulus("D", 4, 3, 2) == 22
        asked, residues = self._spy(monkeypatch)
        assert _feasible_ks("D", 4, 3, 3) == feasible_ks("D", 4, 3, 3) == []
        assert asked == [2] and residues == []

    def test_level3(self, monkeypatch):
        # q_2 = 14 passes (7 <= 15 // 2); q_3 = 546 = 2 * 3 * 7 * 13, 13 > 7
        assert _modulus("D", 5, 3, 2) == 14
        assert _modulus("D", 5, 3, 3) == 546
        asked, residues = self._spy(monkeypatch)
        assert _feasible_ks("D", 5, 3, 3) == feasible_ks("D", 5, 3, 3) == []
        assert asked == [2, 3] and residues == []

    # every q_2 <= 40 and q_3 <= 300, so each exit is met at its edge: on
    # 4x4 k = 8 has 2^4 = mn | 8 * 7 * 6, and 2^5 > mn has no k
    @pytest.mark.parametrize("m, n", [(4, 4), (5, 3), (7, 5)])
    def test_every_small_modulus(self, monkeypatch, m, n):
        for q2 in range(1, 41):
            for q3 in range(1, 301):
                monkeypatch.setattr(scanner, "_modulus", lambda d, m, n, t: (q2, q3)[t - 2])
                want = [k for k in range(3, m * n // 2 + 1)
                        if k * (k - 1) % q2 == 0 and k * (k - 1) * (k - 2) % q3 == 0]
                assert _feasible_ks("D", m, n, 3) == want, (q2, q3)


class TestFactor:
    """_factor against dividing by every d, with and without primes given
    first: q_3 is factored after q_2's primes are divided out."""

    def test_every_small_q(self):
        for q in range(1, 10001):
            want = factor(q)
            for primes in ((), want, factor(q + 1), (2, 3, 5, 7)):
                assert _factor(q, primes) == want, (q, primes)

    def test_primes_and_prime_powers(self):
        for q in [1, 2, 3, 9973, 65537, 2 ** 31 - 1, 2 ** 40, 3 ** 25, 7919 ** 3,
                  9973 * 9967, 2 ** 10 * 9973 ** 2]:
            assert _factor(q) == factor(q) == _factor(q, factor(q)), q

    def test_general3_pairs(self):
        for m in range(2, 61):
            for n in range(2, m + 1):
                q2, q3 = _modulus("D", m, n, 2), _modulus("D", m, n, 3)
                f2 = _factor(q2)
                assert f2 == factor(q2), (m, n)
                assert _factor(q3, f2) == factor(q3), (m, n)


class TestFeasibleGrids:
    """The grouped generator is the flat lists, one ascending k list per
    grid, grids in (m, n) order."""

    @pytest.mark.parametrize("mode, bounds, flat", [
        ("square3", (1000,), lambda: [[m, m, k] for m, k in scan_square_3design(1000)]),
        ("square2", (120,), lambda: [[m, m, k] for m, k in scan_square_2design(120)]),
        ("general3", (60, 60), lambda: scan_general_3design(60, 60)),
        ("general3", (40, 25), lambda: scan_general_3design(40, 25)),
    ])
    def test_regrouped_is_flat(self, mode, bounds, flat):
        grids = list(feasible_grids(mode, *bounds))
        regrouped = [(m, n, [k for _, _, k in tuples])
                     for (m, n), tuples in groupby(flat(), key=lambda t: (t[0], t[1]))]
        assert grids == regrouped
        assert all(ks and all(a < b for a, b in zip(ks, ks[1:])) for _, _, ks in grids)
        sides = [(m, n) for m, n, _ in grids]
        assert all(a < b for a, b in zip(sides, sides[1:]))

    @pytest.mark.parametrize("mode, bounds, message", [
        ("square3", (1,), "max_m must be at least 2"),
        ("square2", (0,), "max_m must be at least 2"),
        ("general3", (1, 5), "bounds must be at least 2"),
        ("general3", (5, 1), "bounds must be at least 2"),
    ])
    def test_bad_bound_raises_on_the_call(self, mode, bounds, message):
        # before the first grid is asked for, so a caller writes nothing
        with pytest.raises(ValueError, match=message):
            feasible_grids(mode, *bounds)


class TestResidues:
    """_residues against a filter of every r mod p^max(a, b), for each
    max(a, b) >= 1 (a prime of q_2 q_3).  For p = 5 the exponents stop at 8:
    5^9 and more residues are too many to filter one by one."""

    @pytest.mark.parametrize("p, top", [(2, 10), (3, 10), (5, 8)])
    def test_brute_force(self, p, top):
        for a in range(top + 1):
            for b in range(1 if a == 0 else 0, top + 1):
                qa, qb = p ** a, p ** b
                want = [r for r in range(p ** max(a, b))
                        if r * (r - 1) % qa == 0 and r * (r - 1) * (r - 2) % qb == 0]
                assert sorted(_residues(p, a, b)) == want, (p, a, b)
