"""Deviation bounds for K-steps-ahead forecasts, inverted and verified.

Upper bound, lower-bound constructions, an exact finite-tree enumeration
engine, reproducible Monte Carlo, and a decision-making corollary, with a
CLI (`kstep-lln`) and an acceptance suite (`kstep-lln verify-all`).
"""

__version__ = "0.1.0"

#: Master seed used by the CLI and the verification suite when none is given.
DEFAULT_SEED = 1729
