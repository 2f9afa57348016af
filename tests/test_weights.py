from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waterweights.consensus import LoadCase, PoolTotals, classify_load_case
from waterweights.errors import InfeasibleWeightsError, UnsupportedLoadCaseError
from waterweights.weights import (
    PositionWeights,
    WeightMode,
    check_balance,
    compute_weights,
)


def random_case3a_totals(rng):
    """Totals guaranteed to classify as 3aE=SG>M."""
    while True:
        m = int(rng.integers(1, 50_000))
        g = m + int(rng.integers(1, 50_000))
        cap = (g + m) // 2  # E+D < T/3 means 2(E+D) < G+M
        if cap < 2:
            continue
        e = int(rng.integers(0, cap))
        d = int(rng.integers(0, cap - e))
        totals = PoolTotals(G=g, M=m, E=e, D=d)
        if 3 * (e + d) < totals.T:
            return totals


class TestCase3a:
    def test_standard_wgg(self):
        totals = PoolTotals(G=6000, M=4000, E=1000, D=200)
        w = compute_weights(totals, LoadCase.CASE_3A)
        assert w.Wgg == Fraction(10000, 12000) == Fraction(5, 6)
        assert w.Wmg == Fraction(1, 6)
        assert (w.Wee, w.Wed) == (1, 1)
        assert (w.Wmd, w.Wgd, w.Wme) == (0, 0, 0)

    def test_guard_exit_equalized_wgg(self):
        totals = PoolTotals(G=6000, M=4000, E=2500, D=500)
        w = compute_weights(totals, LoadCase.CASE_3A, WeightMode.GUARD_EXIT_EQUALIZED)
        assert w.Wgg == Fraction(3000, 6000) == Fraction(1, 2)
        assert w.mode is WeightMode.GUARD_EXIT_EQUALIZED

    def test_standard_balances_entry_with_middle(self, rng):
        for _ in range(200):
            totals = random_case3a_totals(rng)
            w = compute_weights(totals, LoadCase.CASE_3A)
            report = check_balance(totals, w)
            assert report.entry_middle_residual == 0
            assert report.entry_exit_residual > 0  # guard side exceeds exit side

    def test_equalized_balances_entry_with_exit(self, rng):
        for _ in range(200):
            totals = random_case3a_totals(rng)
            w = compute_weights(totals, LoadCase.CASE_3A, WeightMode.GUARD_EXIT_EQUALIZED)
            report = check_balance(totals, w)
            assert report.entry_exit_residual == 0
            assert report.entry_middle_residual < 0

    def test_wgg_strictly_decreasing_in_g(self, rng):
        # d/dG of (G+M)/(2G) is negative whenever M > 0
        for _ in range(100):
            totals = random_case3a_totals(rng)
            bigger = PoolTotals(
                G=totals.G + int(rng.integers(1, 10_000)),
                M=totals.M, E=totals.E, D=totals.D,
            )
            w1 = compute_weights(totals, LoadCase.CASE_3A)
            w2 = compute_weights(bigger, LoadCase.CASE_3A)
            assert w2.Wgg < w1.Wgg

    def test_infeasible_equalization_degrades_to_standard(self):
        totals = PoolTotals(G=100, M=50, E=90, D=20)  # E+D > G
        w = compute_weights(totals, LoadCase.CASE_3A, WeightMode.GUARD_EXIT_EQUALIZED)
        assert w.mode is WeightMode.STANDARD
        assert any("infeasible" in note for note in w.notes)
        assert w.Wgg == Fraction(150, 200)


class TestCase3b:
    def test_three_way_balance(self):
        totals = PoolTotals(G=400, M=300, E=100, D=250)
        w = compute_weights(totals, LoadCase.CASE_3B)
        report = check_balance(totals, w)
        assert report.entry == report.middle == report.exit == Fraction(totals.T, 3)
        assert w.Wee == 1 and w.Wme == 0
        assert w.Wgd == w.Wmd  # documented even-split convention
        assert any("split evenly" in note for note in w.notes)

    def test_wed_fills_exit_gap_exactly(self):
        totals = PoolTotals(G=300, M=300, E=100, D=400)
        w = compute_weights(totals, LoadCase.CASE_3B)
        assert w.Wee * totals.E + w.Wed * totals.D == Fraction(totals.T, 3)

    def test_random_3b_balances(self, rng):
        count = 0
        while count < 100:
            e = int(rng.integers(0, 2000))
            d = int(rng.integers(1, 6000))
            g = int(rng.integers(1, 6000))
            m = int(rng.integers(0, 6000))
            totals = PoolTotals(G=g, M=m, E=e, D=d)
            t = totals.T
            if not (3 * e < t <= 3 * (e + d)):
                continue
            try:
                w = compute_weights(totals, LoadCase.CASE_3B)
            except InfeasibleWeightsError:
                continue  # data-dependent: tiny G cannot absorb the entry share
            report = check_balance(totals, w)
            assert report.entry_middle_residual == 0
            assert report.entry_exit_residual == 0
            count += 1


class TestBalanced:
    def test_symmetric_network(self):
        totals = PoolTotals(G=500, M=500, E=500, D=0)
        w = compute_weights(totals, LoadCase.BALANCED)
        assert w.Wgg == 1 and w.Wmg == 0
        assert w.Wee == 1 and w.Wme == 0

    def test_thirds_convention_and_balance(self):
        totals = PoolTotals(G=900, M=600, E=800, D=300)
        w = compute_weights(totals, LoadCase.BALANCED)
        assert w.Wgd == w.Wmd == w.Wed == Fraction(1, 3)
        report = check_balance(totals, w)
        assert report.entry == report.middle == report.exit


class TestContract:
    def test_consistency_identities_hold_exactly(self, rng):
        for _ in range(150):
            totals = random_case3a_totals(rng)
            for mode in WeightMode:
                w = compute_weights(totals, LoadCase.CASE_3A, mode)
                assert w.Wmg == 1 - w.Wgg
                assert w.Wme == 1 - w.Wee
                assert w.Wgd + w.Wmd + w.Wed == 1
                for value in w.as_dict().values():
                    assert 0 <= value <= 1

    def test_unsupported_case_raises_with_name(self):
        with pytest.raises(UnsupportedLoadCaseError, match="unsupported"):
            compute_weights(PoolTotals(G=1, M=1, E=1, D=1), LoadCase.UNSUPPORTED)

    def test_infeasible_weight_detected(self):
        # balanced formula needs G >= (T-D)/3; this G is far too small
        with pytest.raises(InfeasibleWeightsError):
            compute_weights(PoolTotals(G=100, M=250, E=350, D=200), LoadCase.BALANCED)

    def test_scaled_uses_round_half_even(self):
        w = PositionWeights(
            Wgg=Fraction(1, 20000), Wmg=Fraction(19999, 20000),
            Wee=Fraction(3, 20000), Wme=Fraction(19997, 20000),
            Wgd=Fraction(1, 2), Wmd=Fraction(1, 2), Wed=Fraction(0),
        )
        scaled = w.scaled()
        assert scaled["Wgg"] == 0  # 0.5 rounds to even 0
        assert scaled["Wee"] == 2  # 1.5 rounds to even 2
        assert scaled["Wmg"] == 10000  # 9999.5 rounds to even 10000

    def test_balance_report_on_idle_weights(self):
        # every end-position weight zero: both residuals negative, no error
        totals = PoolTotals(G=100, M=100, E=100, D=100)
        w = PositionWeights(
            Wgg=Fraction(0), Wmg=Fraction(1), Wee=Fraction(0), Wme=Fraction(1),
            Wgd=Fraction(0), Wmd=Fraction(1), Wed=Fraction(0),
        )
        report = check_balance(totals, w)
        assert report.entry == report.exit == 0
        assert report.middle == totals.T
        assert report.entry_middle_residual == -totals.T
        assert report.entry_exit_residual == 0


class TestBalanceIdentitiesProperty:
    """The identities ``check_balance`` reports, over arbitrary pool totals.

    Every supported case keeps the consistency identities exactly.  The
    balanced case and 3bE=S balance all three positions at T/3; 3aE=SG>M
    balances entry with middle in the standard mode and entry with exit in
    the guard-exit-equalized mode, which falls back to standard (with a
    note) when E+D > G.
    """

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 10**12), st.integers(0, 10**12),
        st.integers(0, 10**12), st.integers(0, 10**12),
        st.sampled_from(list(WeightMode)),
    )
    def test_identities_of_each_supported_case(self, g, m, e, d, mode):
        totals = PoolTotals(G=g, M=m, E=e, D=d)
        assume(totals.T > 0)
        case, _ = classify_load_case(totals)
        assume(case is not LoadCase.UNSUPPORTED)
        try:
            w = compute_weights(totals, case, mode)
        except InfeasibleWeightsError:
            assume(False)
        assert w.Wmg == 1 - w.Wgg
        assert w.Wme == 1 - w.Wee
        assert w.Wgd + w.Wmd + w.Wed == 1
        assert all(isinstance(v, Fraction) and 0 <= v <= 1 for v in w.as_dict().values())
        report = check_balance(totals, w)
        assert report.entry == w.Wgg * g + w.Wgd * d
        assert report.middle == m + w.Wmg * g + w.Wme * e + w.Wmd * d
        assert report.exit == w.Wee * e + w.Wed * d
        # the three positions share out the whole network
        assert report.entry + report.middle + report.exit == totals.T
        third = Fraction(totals.T, 3)
        if case in (LoadCase.BALANCED, LoadCase.CASE_3B):
            assert report.entry == report.middle == report.exit == third
        elif w.mode is WeightMode.GUARD_EXIT_EQUALIZED:
            assert e + d <= g
            assert report.entry_exit_residual == 0
            assert report.entry == e + d
        else:
            assert (mode is WeightMode.STANDARD) == (not w.notes)
            assert mode is WeightMode.STANDARD or e + d > g
            assert report.entry_middle_residual == 0
            assert report.entry == Fraction(g + m, 2)
