"""Positional bandwidth-weight computation.

The seven scalar weights split each relay pool's capacity across the three
circuit positions so that effective bandwidths balance:

    entry  = Wgg*G + Wgd*D
    middle = M + Wmg*G + Wme*E + Wmd*D
    exit   = Wee*E + Wed*D

subject to Wmg = 1 - Wgg, Wme = 1 - Wee, and Wgd + Wmd + Wed = 1.  All
arithmetic is exact rational (Fraction), so the consistency identities and
balance equalities hold with zero residual and results survive round-trips
through the 0..10000 integer scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .consensus import LoadCase, PoolTotals
from .errors import InfeasibleWeightsError, InvariantError, UnsupportedLoadCaseError

WEIGHT_NAMES = ("Wgg", "Wmg", "Wee", "Wme", "Wgd", "Wmd", "Wed")

SCALE = 10000  # integer weight scale used in consensus documents


class WeightMode(enum.Enum):
    STANDARD = "standard"
    GUARD_EXIT_EQUALIZED = "ge-equalized"


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class PositionWeights:
    """The seven positional weights as exact fractions in [0, 1]."""

    Wgg: Fraction
    Wmg: Fraction
    Wee: Fraction
    Wme: Fraction
    Wgd: Fraction
    Wmd: Fraction
    Wed: Fraction
    mode: WeightMode = WeightMode.STANDARD
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        for name in WEIGHT_NAMES:
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
        for name in WEIGHT_NAMES:
            w = getattr(self, name)
            if not 0 <= w <= 1:
                raise InvariantError(f"{name} = {float(w):.6g} outside [0, 1]")
        if self.Wmg != 1 - self.Wgg:
            raise InvariantError("Wmg != 1 - Wgg")
        if self.Wme != 1 - self.Wee:
            raise InvariantError("Wme != 1 - Wee")
        if self.Wgd + self.Wmd + self.Wed != 1:
            raise InvariantError("Wgd + Wmd + Wed != 1")

    def as_dict(self) -> dict[str, Fraction]:
        return {name: getattr(self, name) for name in WEIGHT_NAMES}

    def scaled(self, scale: int = SCALE) -> dict[str, int]:
        """Integer weights on the consensus 0..scale grid, round-half-even."""
        return {name: round(getattr(self, name) * scale) for name in WEIGHT_NAMES}


@dataclass(frozen=True)
class BalanceReport:
    """Effective per-position bandwidths and the two balance residuals."""

    entry: Fraction
    middle: Fraction
    exit: Fraction
    entry_middle_residual: Fraction  # entry - middle
    entry_exit_residual: Fraction  # entry - exit


def check_balance(totals: PoolTotals, w: PositionWeights) -> BalanceReport:
    """Report how the weighted pools compare across the three positions."""
    entry = w.Wgg * totals.G + w.Wgd * totals.D
    middle = totals.M + w.Wmg * totals.G + w.Wme * totals.E + w.Wmd * totals.D
    exit_ = w.Wee * totals.E + w.Wed * totals.D
    return BalanceReport(entry, middle, exit_, entry - middle, entry - exit_)


def compute_weights(
    totals: PoolTotals,
    case: LoadCase,
    mode: WeightMode = WeightMode.STANDARD,
) -> PositionWeights:
    """Solve the weight system for one of the supported load cases.

    Case 3aE=SG>M cannot balance all three positions; the standard solution
    equalizes entry with middle (Wgg = (G+M)/(2G)) while the
    guard-exit-equalized variant equalizes entry with exit
    (Wgg = (E+D)/G), pushing the surplus to the middle position.  When the
    variant is infeasible for the given totals (E+D > G) it degrades to the
    standard solution and records a note instead of failing.

    Case 3bE=S and the balanced case admit full three-way balance, so both
    modes produce the same weights there.
    """
    G, M, E, D = (Fraction(v) for v in (totals.G, totals.M, totals.E, totals.D))
    T = G + M + E + D
    notes: list[str] = []

    if case is LoadCase.CASE_3A:
        if G == 0:
            raise InfeasibleWeightsError("case 3aE=SG>M with an empty guard pool")
        if mode is WeightMode.GUARD_EXIT_EQUALIZED and E + D > G:
            notes.append(
                "guard-exit equalization infeasible (E+D > G); using standard weights"
            )
            mode = WeightMode.STANDARD
        if mode is WeightMode.GUARD_EXIT_EQUALIZED:
            Wgg = (E + D) / G
        else:
            Wgg = (G + M) / (2 * G)
        _require_unit_interval("Wgg", Wgg)
        return PositionWeights(
            Wgg=Wgg, Wmg=1 - Wgg, Wee=Fraction(1), Wme=Fraction(0),
            Wgd=Fraction(0), Wmd=Fraction(0), Wed=Fraction(1),
            mode=mode, notes=tuple(notes),
        )

    if case is LoadCase.CASE_3B:
        # D bridges the exit shortfall: Wed makes the exit position reach T/3,
        # the D remainder is split evenly between the other two positions.
        if D == 0 or G == 0:
            raise InfeasibleWeightsError("case 3bE=S needs non-empty G and D pools")
        Wed = (T / 3 - E) / D
        _require_unit_interval("Wed", Wed)
        Wgd = Wmd = (1 - Wed) / 2
        Wgg = (T / 3 - Wgd * D) / G
        _require_unit_interval("Wgg", Wgg)
        notes.append("dual-pool remainder split evenly between Wgd and Wmd")
        return PositionWeights(
            Wgg=Wgg, Wmg=1 - Wgg, Wee=Fraction(1), Wme=Fraction(0),
            Wgd=Wgd, Wmd=Wmd, Wed=Wed,
            mode=mode, notes=tuple(notes),
        )

    if case is LoadCase.BALANCED:
        if G == 0 or E == 0:
            raise InfeasibleWeightsError("balanced case needs non-empty G and E pools")
        third = Fraction(1, 3)
        Wgg = (T - D) / (3 * G)
        Wee = (T - D) / (3 * E)
        _require_unit_interval("Wgg", Wgg)
        _require_unit_interval("Wee", Wee)
        return PositionWeights(
            Wgg=Wgg, Wmg=1 - Wgg, Wee=Wee, Wme=1 - Wee,
            Wgd=third, Wmd=third, Wed=third,
            mode=mode, notes=tuple(notes),
        )

    raise UnsupportedLoadCaseError(f"no weight formulas for load case {case.value!r}")


def _require_unit_interval(name: str, value: Fraction):
    if not 0 <= value <= 1:
        raise InfeasibleWeightsError(
            f"{name} = {float(value):.6g} falls outside [0, 1] for these totals"
        )
