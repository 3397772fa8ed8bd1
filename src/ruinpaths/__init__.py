"""Gambler's-ruin absorption probabilities through lattice-path counting.

The walk starts at position k >= 1, steps right with probability p and left
otherwise, and stops on first reaching 0.  This package computes the
absorption probability exactly and numerically, enumerates the underlying
first-passage paths, realizes the counting bijections as executable maps,
and cross-validates everything against a seeded Monte Carlo simulator.

Each module declares its own public names in its __all__; this package
exports all four lists, in module order, and __version__.
"""

from . import combinatorics, paths, probability, simulator
from .combinatorics import *
from .paths import *
from .probability import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [*combinatorics.__all__, *paths.__all__, *probability.__all__, *simulator.__all__,
           "__version__"]
