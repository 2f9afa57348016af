import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterweights.consensus import INT64_MAX
from waterweights.errors import WaterweightsError
from waterweights.pathsim import CompromiseRecord
from waterweights.stats import (
    _logrank,
    _wilson_interval,
    compare_runs,
    compromise_curve,
    report_adversary_cost,
)

HORIZON = 10


def record(cid, t):
    return CompromiseRecord(cid, t, 10, 0 if t is None else 1)


def textbook_logrank(times_a: list[int], times_b: list[int], n: int):
    """The log-rank sums as a loop over the distinct event times: per time,
    each arm's clients at risk, the deaths and the hypergeometric variance
    d * (nA/N) * (nB/N) * (N - d) / (N - 1)."""
    expected = variance = 0.0
    for t in sorted(set(times_a) | set(times_b)):
        at_risk_a = n - sum(1 for s in times_a if s < t)
        at_risk_b = n - sum(1 for s in times_b if s < t)
        at_risk = at_risk_a + at_risk_b
        deaths = times_a.count(t) + times_b.count(t)
        expected += deaths * at_risk_a / at_risk
        if at_risk > 1:
            variance += (
                deaths * (at_risk_a / at_risk) * (at_risk_b / at_risk)
                * (at_risk - deaths) / (at_risk - 1)
            )
    z = (len(times_a) - expected) / math.sqrt(variance) if variance > 0 else 0.0
    return expected, variance, z


# first-compromise times on a small range, so that ties are common; None is
# a client never compromised, and a time past HORIZON one censored there
arms = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        *[st.lists(st.none() | st.integers(0, HORIZON + 2), min_size=n, max_size=n)] * 2
    )
)


class TestLogrankOracle:
    @settings(max_examples=300, deadline=None)
    @given(arms)
    def test_logrank_matches_the_textbook_loop(self, arms):
        raw_a, raw_b = arms
        n = len(raw_a)
        times_a = sorted(t for t in raw_a if t is not None and t <= HORIZON)
        times_b = sorted(t for t in raw_b if t is not None and t <= HORIZON)
        want = textbook_logrank(times_a, times_b, n)
        got = _logrank(np.array(times_a, dtype=np.int64), np.array(times_b, dtype=np.int64), n)
        result = compare_runs(
            [record(i, t) for i, t in enumerate(raw_a)],
            [record(i, t) for i, t in enumerate(raw_b)],
            horizon=HORIZON,
        )
        assert (result.expected_a, result.variance, result.z) == got
        assert (result.events_a, result.events_b) == (len(times_a), len(times_b))
        expected, variance, z = got
        assert math.isclose(expected, want[0], rel_tol=1e-12)
        assert math.isclose(variance, want[1], rel_tol=1e-12)
        # where A's events equal their expectation, z is a difference of
        # nearly equal sums, so it gets an absolute floor too
        assert math.isclose(z, want[2], rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(arms, st.integers(1, 4))
    def test_each_arm_is_its_compromise_curve(self, arms, resolution):
        records_a, records_b = ([record(i, t) for i, t in enumerate(raw)] for raw in arms)
        result = compare_runs(records_a, records_b, HORIZON, resolution)
        for records, values in ((records_a, result.curve_a), (records_b, result.curve_b)):
            curve = compromise_curve(records, HORIZON, resolution)
            assert np.array_equal(curve.times, result.times)
            assert np.array_equal(curve.values, values)


class TestPublishedIntervals:
    """The worked examples of Newcombe (Statistics in Medicine 17, 1998):
    the Wilson score interval, "Two-sided confidence intervals for the
    single proportion", Table I, method 3; and the hybrid score interval on
    a difference, "Interval estimation for the difference between
    independent proportions", Table II, method 10, where both arms have the
    same size.  Each bound is published to four decimals."""

    @pytest.mark.parametrize("hits,n,low,high", [
        (81, 263, 0.2553, 0.3662),
        (15, 148, 0.0624, 0.1605),
        (0, 20, 0.0, 0.1611),
        (1, 29, 0.0061, 0.1718),
    ])
    def test_wilson_interval(self, hits, n, low, high):
        assert [round(bound, 4) for bound in _wilson_interval(hits, n)] == [low, high]

    @pytest.mark.parametrize("hits_a,hits_b,n,low,high", [
        (9, 3, 10, 0.1705, 0.8090),
        (6, 2, 7, 0.0582, 0.8062),
        (0, 0, 10, -0.2775, 0.2775),
        (10, 0, 10, 0.6075, 1.0),
    ])
    def test_newcombe_interval(self, hits_a, hits_b, n, low, high):
        a = [record(i, 1 if i < hits_a else None) for i in range(n)]
        b = [record(i, 1 if i < hits_b else None) for i in range(n)]
        result = compare_runs(a, b, horizon=HORIZON)
        assert result.terminal_delta == pytest.approx((hits_a - hits_b) / n)
        assert [round(bound, 4) for bound in result.delta_ci95] == [low, high]


class TestCurveArguments:
    @pytest.mark.parametrize("horizon,resolution", [(-1, 10), (100, 0), (100, -3)])
    def test_bad_range_rejected(self, horizon, resolution):
        with pytest.raises(WaterweightsError, match="must be at least") as err:
            compromise_curve([record(0, None), record(1, 50)], horizon, resolution)
        assert err.value.exit_code == 2

    def test_no_records_rejected(self):
        with pytest.raises(WaterweightsError, match="no records"):
            compromise_curve([], 100, 10)


class TestSixtyFourBitBounds:
    @pytest.mark.parametrize("target", [INT64_MAX + 1, 10**400], ids=["2**63", "10**400"])
    def test_target_past_int64_rejected(self, target):
        with pytest.raises(WaterweightsError, match=r"at most 2\*\*63 - 1") as err:
            report_adversary_cost(8710, target, 0.5)
        assert err.value.exit_code == 2

    def test_target_of_int64_max_is_priced(self):
        cost = report_adversary_cost(8710, INT64_MAX, 0.5)
        assert cost.node_equivalents == -(-INT64_MAX // (2 * 8710))

    @pytest.mark.parametrize("horizon", [INT64_MAX + 1, 10**20], ids=["2**63", "10**20"])
    def test_horizon_past_int64_rejected(self, horizon):
        records = [record(0, None), record(1, 600)]
        with pytest.raises(WaterweightsError, match=r"horizon must be at most 2\*\*63 - 1") as err:
            compromise_curve(records, horizon, horizon // 100)
        assert err.value.exit_code == 2
        with pytest.raises(WaterweightsError, match=r"horizon must be at most 2\*\*63 - 1"):
            compare_runs(records, records, horizon)

    def test_horizon_of_int64_max_gives_a_rising_grid(self):
        curve = compromise_curve([record(0, None), record(1, 600)], INT64_MAX, INT64_MAX // 100)
        assert len(curve.times) == 101 and curve.times[-1] == INT64_MAX
        assert (np.diff(curve.times) > 0).all()
        assert curve.values.tolist() == [0.0] + [0.5] * 100

    def test_compromise_past_int64_is_censored(self):
        a = [record(0, 10**19), record(1, 600)]
        b = [record(0, None), record(1, None)]
        result = compare_runs(a, b, horizon=1000)
        assert (result.events_a, result.events_b) == (1, 0)
        assert result.curve_a[-1] == 0.5
        assert compromise_curve(a, 1000, 100).values[-1] == 0.5
