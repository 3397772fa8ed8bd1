"""Gambler's-ruin absorption probabilities through lattice-path counting.

The walk starts at position k >= 1, steps right with probability p and left
otherwise, and stops on first reaching 0.  This package computes the
absorption probability exactly and numerically, enumerates the underlying
first-passage paths, realizes the counting bijections as executable maps,
and cross-validates everything against a seeded Monte Carlo simulator.
"""

from .combinatorics import (
    BallotCount,
    ballot_count,
    ballot_via_recurrence,
    catalan,
    catalan_via_convolution,
)
from .paths import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    LatticePath,
    Step,
    enumerate_first_passage,
    first_return_compose,
    first_return_decompose,
    is_first_passage,
    partition_by_first_step,
    path_from_string,
    path_to_string,
    serialize_all,
    shift_bijection_k2,
)
from .probability import (
    DEFAULT_MAX_TERMS,
    SeriesEvaluation,
    StepProbability,
    absorption_exact,
    absorption_series,
    absorption_via_gf,
    generating_function,
    tail_start,
    verify_three_term,
)
from .simulator import (
    Absorbed,
    AbsorptionEstimate,
    Censored,
    WalkConfig,
    estimate_absorption,
    run_walk,
)

__version__ = "0.1.0"

__all__ = [
    "BallotCount",
    "ballot_count",
    "ballot_via_recurrence",
    "catalan",
    "catalan_via_convolution",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "LatticePath",
    "Step",
    "enumerate_first_passage",
    "first_return_compose",
    "first_return_decompose",
    "is_first_passage",
    "partition_by_first_step",
    "path_from_string",
    "path_to_string",
    "serialize_all",
    "shift_bijection_k2",
    "DEFAULT_MAX_TERMS",
    "SeriesEvaluation",
    "StepProbability",
    "absorption_exact",
    "absorption_series",
    "absorption_via_gf",
    "generating_function",
    "tail_start",
    "verify_three_term",
    "Absorbed",
    "AbsorptionEstimate",
    "Censored",
    "WalkConfig",
    "estimate_absorption",
    "run_walk",
    "__version__",
]
