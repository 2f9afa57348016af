"""The paper's comparison statistics: compromise curves, their paired
comparison, and what a guard-position target costs an adversary.

``compromise_curve`` is the cumulative fraction of clients first
compromised by each time of a grid, the measure TorPS reports.
``compare_runs`` pairs two runs' curves and judges their ordering with a
log-rank test on each client's time to first compromise, and a Newcombe
interval on the difference at the horizon.  ``report_adversary_cost``
prices one big relay in relays at the water level.  Times and weights are
64-bit quantities: a horizon or a target weight above 2**63 - 1 is an
input error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .consensus import INT64_MAX, _sorted_unique
from .errors import ConfigMismatchError, NotApplicableError, WaterweightsError
from .pathsim import CompromiseRecord

Z_95 = 1.959963984540054  # the standard normal's 97.5% quantile
LOGRANK_ALPHA = 0.01  # significance level of compare's verdict


# ---------------------------------------------------------------------------
# Adversary cost
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """What a guard-position bandwidth target costs an adversary here."""

    water_level: float
    target_guard_weight: int
    entry_weight: float  # scalar share of the target devoted to guarding
    effective_guard_weight: float  # target * entry_weight
    node_equivalents: int  # relays at the water level matching that effect
    waterfill_bandwidth: float  # node_equivalents * water_level
    bandwidth_ratio: float  # effective / target: relays at the level guard full-time


def report_adversary_cost(
    water_level: Fraction | float,
    target_guard_weight: int,
    entry_weight,
) -> CostReport:
    """How many water-level relays equal one big relay's guard traffic.

    The target's effective guard weight is target * entry_weight (under
    scalar weights only that share of the relay serves the entry position),
    and the node count is the ceiling of effective weight over the water
    level.  The target weight must lie in [0, 2**63 - 1], the bound of a
    consensus weight, the entry weight in [0, 1] and both numbers finite.
    """
    if target_guard_weight < 0:
        raise WaterweightsError(f"target weight must be at least 0, not {target_guard_weight}")
    if target_guard_weight > INT64_MAX:
        raise WaterweightsError("target weight must be at most 2**63 - 1 (64 bits)")
    for name, value in (("water level", water_level), ("entry weight", entry_weight)):
        if isinstance(value, float) and not math.isfinite(value):
            raise WaterweightsError(f"{name} must be finite, not {value}")
    entry_fraction = Fraction(entry_weight)
    if not 0 <= entry_fraction <= 1:
        raise WaterweightsError(f"entry weight must lie in [0, 1], not {float(entry_fraction)}")
    level = Fraction(water_level)
    if level <= 0:
        raise NotApplicableError("water level must be positive to price an adversary")
    effective = target_guard_weight * entry_fraction
    nodes = math.ceil(effective / level)
    return CostReport(
        water_level=float(level),
        target_guard_weight=target_guard_weight,
        entry_weight=float(entry_fraction),
        effective_guard_weight=float(effective),
        node_equivalents=nodes,
        waterfill_bandwidth=float(nodes * level),
        bandwidth_ratio=float(entry_fraction),
    )


# ---------------------------------------------------------------------------
# Compromise curves and their comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeSeries:
    times: np.ndarray
    values: np.ndarray


def _arm(
    records: Sequence[CompromiseRecord], horizon: int, resolution: int
) -> tuple[np.ndarray, TimeSeries]:
    """One arm's sorted first-compromise times up to the horizon, and its
    compromise curve read from them."""
    if horizon < 0:
        raise WaterweightsError(f"horizon must be at least 0, not {horizon}")
    if horizon > INT64_MAX:  # the int64 grid would wrap
        raise WaterweightsError("horizon must be at most 2**63 - 1 (64 bits)")
    if resolution < 1:
        raise WaterweightsError(f"resolution must be at least 1, not {resolution}")
    if not records:
        raise WaterweightsError("no records to summarize")
    times = [r.first_compromise_time for r in records]
    hits = np.sort(np.array([t for t in times if t is not None and t <= horizon], dtype=np.int64))
    grid = np.arange(0, horizon + 1, resolution, dtype=np.int64)
    if grid[-1] != horizon:
        grid = np.append(grid, horizon)
    counts = np.searchsorted(hits, grid, side="right")
    return hits, TimeSeries(grid, counts / len(records))


def compromise_curve(
    records: Sequence[CompromiseRecord], horizon: int, resolution: int
) -> TimeSeries:
    """Cumulative fraction of clients first compromised by each grid time.

    The grid runs from 0 to the horizon in resolution steps; the horizon
    itself is always the final point.  The horizon must lie in
    [0, 2**63 - 1], since the grid is int64, and the resolution be at
    least 1; ``WaterweightsError`` otherwise, and for empty records.
    """
    return _arm(records, horizon, resolution)[1]


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion hits / n."""
    z2 = Z_95 * Z_95
    center = (hits + z2 / 2) / (n + z2)
    half = Z_95 * math.sqrt(hits * (n - hits) / n + z2 / 4) / (n + z2)
    return center - half, center + half


def _logrank(times_a: np.ndarray, times_b: np.ndarray, n: int):
    """Log-rank statistic for two arms of n clients each, given each arm's
    sorted event times; every other client is censored after the last.

    Returns (expected events in A, hypergeometric variance, z), with z the
    standardized excess of A's observed events over that expectation.
    """
    # not np.unique: its plain form imports numpy.ma (see _sorted_unique)
    event_times = _sorted_unique(np.concatenate([times_a, times_b]))
    if not event_times.size:
        return 0.0, 0.0, 0.0
    earlier_a = np.searchsorted(times_a, event_times, side="left")
    earlier_b = np.searchsorted(times_b, event_times, side="left")
    deaths = (
        np.searchsorted(times_a, event_times, side="right") - earlier_a
        + np.searchsorted(times_b, event_times, side="right") - earlier_b
    )
    # each arm's clients still uncompromised just before each event time
    risk_a, risk_b = n - earlier_a, n - earlier_b
    at_risk = risk_a + risk_b
    share_a, share_b = risk_a / at_risk, risk_b / at_risk
    expected = float((deaths * share_a).sum())
    variance = float((deaths * share_a * share_b * (at_risk - deaths) / np.maximum(at_risk - 1, 1)).sum())
    z = (len(times_a) - expected) / math.sqrt(variance) if variance > 0 else 0.0
    return expected, variance, z


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    times: np.ndarray
    curve_a: np.ndarray
    curve_b: np.ndarray
    terminal_delta: float  # a minus b at the horizon
    delta_ci95: tuple[float, float]  # Newcombe hybrid score interval on terminal_delta
    events_a: int  # clients first compromised by the horizon
    events_b: int
    expected_a: float  # A's expected events under equal hazards
    variance: float  # hypergeometric variance of A's events
    z: float  # (events_a - expected_a) / sqrt(variance); 0 when the variance is 0
    p_value: float  # two-sided log-rank p-value
    verdict: str  # "a_above", "b_above", or "indistinguishable"


def compare_runs(
    records_a: Sequence[CompromiseRecord],
    records_b: Sequence[CompromiseRecord],
    horizon: int,
    resolution: int | None = None,
) -> ComparisonReport:
    """Pair two simulations' compromise curves and judge their ordering.

    The verdict is a log-rank test on each client's time to first
    compromise, right-censored at the horizon (ties take the hypergeometric
    variance), at level ``LOGRANK_ALPHA``.  The terminal difference gets a
    95% Newcombe hybrid score interval, which stays wide when an arm has no
    compromised client.  Each arm's times are sorted once, and both its
    curve and its log-rank input are read from them.
    Both record sets must cover the same client ids, each once.
    ``horizon`` and ``resolution`` are checked as ``compromise_curve``
    checks them; the default resolution is a hundredth of the horizon.
    """
    if len(records_a) != len(records_b):
        raise ConfigMismatchError(
            f"record sets cover {len(records_a)} vs {len(records_b)} clients"
        )
    ids_a, ids_b = {r.client_id for r in records_a}, {r.client_id for r in records_b}
    for arm, records, ids in (("A", records_a, ids_a), ("B", records_b, ids_b)):
        if len(ids) < len(records):
            repeated = min(k for k, n in Counter(r.client_id for r in records).items() if n > 1)
            raise ConfigMismatchError(f"record set {arm} repeats client {repeated}")
    if ids_a != ids_b:
        only_a, only_b = sorted(ids_a - ids_b), sorted(ids_b - ids_a)
        raise ConfigMismatchError(
            f"record sets cover different clients: {len(only_a)} only in A "
            f"(first {only_a[0]}), {len(only_b)} only in B (first {only_b[0]})"
        )
    if resolution is None:
        resolution = max(1, horizon // 100)
    times_a, curve_a = _arm(records_a, horizon, resolution)
    times_b, curve_b = _arm(records_b, horizon, resolution)
    n = len(records_a)
    expected_a, variance, z = _logrank(times_a, times_b, n)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    if p_value < LOGRANK_ALPHA:
        verdict = "a_above" if z > 0 else "b_above"
    else:
        verdict = "indistinguishable"
    share_a, share_b = len(times_a) / n, len(times_b) / n
    low_a, high_a = _wilson_interval(len(times_a), n)
    low_b, high_b = _wilson_interval(len(times_b), n)
    delta = share_a - share_b
    ci = (  # clipped, so rounding cannot push a bound past +-1
        max(-1.0, delta - math.hypot(share_a - low_a, high_b - share_b)),
        min(1.0, delta + math.hypot(high_a - share_a, share_b - low_b)),
    )
    return ComparisonReport(
        times=curve_a.times,
        curve_a=curve_a.values,
        curve_b=curve_b.values,
        terminal_delta=delta,
        delta_ci95=ci,
        events_a=len(times_a),
        events_b=len(times_b),
        expected_a=expected_a,
        variance=variance,
        z=z,
        p_value=p_value,
        verdict=verdict,
    )
