"""Bandwidth-weight and waterfilling toolkit for Tor-style relay networks.

Submodules:
    consensus  relay lists, pool totals, load-case classification, parsers
    weights    scalar positional weights and balance reports
    waterfill  per-relay water-level solutions and selection distributions
    pathsim    seeded Monte Carlo circuit simulation with relay adversaries
    metrics    uniformity degree, guessing entropy, grouped diversity
    stats      compromise curves, their log-rank comparison, adversary cost;
               imported on use (``import waterweights.stats``), not here
    cli        the ``waterweights`` command-line front end
"""

__version__ = "0.1.0"

from . import consensus, metrics, pathsim, waterfill, weights  # noqa: F401
from .consensus import (
    ConsensusSnapshot,
    LoadCase,
    PoolTotals,
    RelayEntry,
    classify_load_case,
    parse_native,
    parse_v3_subset,
    serialize_native,
)
from .weights import PositionWeights, WeightMode, check_balance, compute_weights
from .waterfill import (
    Position,
    ProbabilityVector,
    TargetPool,
    WaterfillSolution,
    selection_distribution,
    solve_dset_waterfill,
    solve_guard_waterfill,
)
from .pathsim import (
    AdversaryRelay,
    AdversarySpec,
    Algorithm,
    CompromiseRecord,
    RoleHint,
    StreamSchedule,
    inject_adversary,
    run_simulation,
)
from .metrics import (
    JointDistribution,
    estimate_joint_analytic,
    group_diversity,
    guessing_entropy,
    shannon_entropy,
    uniformity_degree,
)

__all__ = [
    "AdversaryRelay",
    "AdversarySpec",
    "Algorithm",
    "CompromiseRecord",
    "ConsensusSnapshot",
    "JointDistribution",
    "LoadCase",
    "PoolTotals",
    "Position",
    "PositionWeights",
    "ProbabilityVector",
    "RelayEntry",
    "RoleHint",
    "StreamSchedule",
    "TargetPool",
    "WaterfillSolution",
    "WeightMode",
    "__version__",
    "check_balance",
    "classify_load_case",
    "compute_weights",
    "estimate_joint_analytic",
    "group_diversity",
    "guessing_entropy",
    "inject_adversary",
    "parse_native",
    "parse_v3_subset",
    "run_simulation",
    "selection_distribution",
    "serialize_native",
    "shannon_entropy",
    "solve_dset_waterfill",
    "solve_guard_waterfill",
    "uniformity_degree",
]
