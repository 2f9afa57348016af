"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the CLI:
2 = bad input, 3 = infeasible or not applicable for the given data,
4 = internal invariant breach.
"""


class WaterweightsError(Exception):
    exit_code = 2


class ParseError(WaterweightsError):
    """Malformed input document. Carries a line number when known."""

    exit_code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateRelayError(ParseError):
    exit_code = 2


class DegenerateNetworkError(WaterweightsError):
    """Network with zero total weight; no classification possible."""

    exit_code = 2


class ConfigMismatchError(WaterweightsError):
    """Two runs being compared were produced with incompatible settings."""

    exit_code = 2


class UnsupportedLoadCaseError(WaterweightsError):
    """Network-load case outside the implemented set."""

    exit_code = 3


class InfeasibleWeightsError(WaterweightsError):
    """Weight formulas produced a value outside [0, 1] for these totals."""

    exit_code = 3


class NotApplicableError(WaterweightsError):
    """Waterfilling (or a derived report) is undefined for these inputs."""

    exit_code = 3


class EmptyPoolError(WaterweightsError):
    """No relay is eligible for the requested position."""

    exit_code = 3


class UndefinedMetricError(WaterweightsError):
    exit_code = 3


class InvariantError(WaterweightsError):
    """A computed result violated one of its own postconditions."""

    exit_code = 4
