"""Every public entry point checks its integer arguments the same way:
TypeError for a non-int (bool included), ValueError below the minimum, and
a message that starts with the argument's name.  The simulator checks its
probability p as the probability routes do."""

from fractions import Fraction

import numpy as np
import pytest

from ruinpaths import (
    LatticePath,
    WalkConfig,
    absorption_exact,
    absorption_series,
    ballot_count,
    ballot_via_recurrence,
    catalan,
    catalan_via_convolution,
    enumerate_first_passage,
    partition_by_first_step,
    run_walk,
    tail_start,
    verify_three_term,
)


def _walk(k):
    return run_walk(k, 0.5, 100, np.random.Generator(np.random.Philox(key=[0, 0])))


# (entry point called with the value under test, argument name, least valid value)
CASES = [
    (catalan, "n", 0),
    (lambda k: ballot_count(k, 1), "k", 1),
    (lambda n: ballot_count(1, n), "n", 0),
    (lambda k: ballot_via_recurrence(k, 1), "k", 1),
    (lambda n: ballot_via_recurrence(3, n), "n", 0),
    (lambda k: absorption_exact(k, Fraction(3, 4)), "k", 1),
    (lambda k: absorption_series(k, Fraction(3, 4), 1e-6), "k", 1),
    (lambda m: absorption_series(1, Fraction(3, 4), 1e-6, max_terms=m), "max_terms", 1),
    (tail_start, "k", 1),
    (lambda k: verify_three_term(k, Fraction(3, 4)), "k", 1),
    (lambda start: LatticePath(start, ()), "start", 1),
    (lambda k: enumerate_first_passage(k, 1), "k", 1),
    (lambda n: enumerate_first_passage(1, n), "n", 0),
    (lambda cap: enumerate_first_passage(1, 1, cap=cap), "cap", 0),
    (lambda k: partition_by_first_step(k, 1), "k", 3),
    (lambda n: partition_by_first_step(3, n), "n", 0),
    (lambda cap: partition_by_first_step(3, 1, cap=cap), "cap", 0),
    (lambda k: WalkConfig(k=k, p=0.5, max_steps=10, trials=1, seed=0), "k", 1),
    (lambda t: WalkConfig(k=1, p=0.5, max_steps=10, trials=t, seed=0), "trials", 1),
    (_walk, "k", 1),
    (catalan_via_convolution, "n", 1),
]
IDS = [f"{i}-{name}" for i, (_, name, _) in enumerate(CASES)]


@pytest.mark.parametrize("call, name, least", CASES, ids=IDS)
def test_non_int_is_type_error(call, name, least):
    for value in (1.5, True):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            call(value)


@pytest.mark.parametrize("call, name, least", CASES, ids=IDS)
def test_below_minimum_is_value_error(call, name, least):
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("value", [True, "0.5"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: WalkConfig(k=1, p=p, max_steps=10, trials=1, seed=0),
        lambda p: run_walk(1, p, 100, np.random.Generator(np.random.Philox(key=[0, 0]))),
    ],
    ids=["WalkConfig", "run_walk"],
)
def test_simulator_rejects_non_numeric_p(call, value):
    with pytest.raises(TypeError, match="^p must be a Fraction or float, got "):
        call(value)
