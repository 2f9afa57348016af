"""Bandwidth-weight and waterfilling toolkit for Tor-style relay networks.

The package imports none of its submodules: each is imported on use
(``from waterweights.waterfill import solve_guard_waterfill``), so a
command loads only the modules it calls.

Submodules:
    consensus  relay lists, pool totals, load-case classification, parsers
    weights    scalar positional weights and balance reports
    waterfill  per-relay water-level solutions and selection distributions
    pathsim    seeded Monte Carlo circuit simulation with relay adversaries
    metrics    uniformity degree, guessing entropy, grouped diversity
    stats      compromise curves, their log-rank comparison, adversary cost
    cli        the ``waterweights`` command-line front end
"""

__version__ = "0.1.0"
