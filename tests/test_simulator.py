import warnings
from fractions import Fraction

import numpy as np
import pytest

from ruinpaths import (
    Absorbed,
    AbsorptionEstimate,
    Censored,
    WalkConfig,
    absorption_exact,
    estimate_absorption,
    run_walk,
)


def substream(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
    )


# ---------------------------------------------------------------------------
# configuration

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0, p=0.5, max_steps=10, trials=1, seed=0),
        dict(k=1, p=1.5, max_steps=10, trials=1, seed=0),
        dict(k=5, p=0.5, max_steps=4, trials=1, seed=0),  # horizon below k
        dict(k=1, p=0.5, max_steps=10, trials=0, seed=0),
        dict(k=1, p=0.5, max_steps=10, trials=1, seed=-1),
        dict(k=1, p=0.5, max_steps=10, trials=1, seed=2**64),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        WalkConfig(**kwargs)


# ---------------------------------------------------------------------------
# single walks

def test_walk_deterministic_endpoints():
    assert run_walk(1, 0.0, 100, substream(0, 0)) == Absorbed(1)
    assert run_walk(3, 0.0, 100, substream(0, 0)) == Absorbed(3)
    assert run_walk(3, 1.0, 100, substream(0, 0)) == Censored()


def test_walk_rejects_bad_input():
    with pytest.raises(ValueError):
        run_walk(0, 0.5, 100, substream(0, 0))
    with pytest.raises(ValueError):
        run_walk(2, 0.5, 1, substream(0, 0))
    with pytest.raises(ValueError):
        run_walk(2, -0.1, 100, substream(0, 0))


def test_walk_accepts_fraction_probability():
    assert run_walk(1, Fraction(0), 10, substream(0, 0)) == Absorbed(1)


def test_absorbed_step_counts_have_walk_parity():
    for k in (1, 2, 3):
        for trial in range(400):
            outcome = run_walk(k, 0.5, 64, substream(11, trial))
            if isinstance(outcome, Absorbed):
                assert outcome.step_count >= k
                assert (outcome.step_count - k) % 2 == 0


def test_longer_horizon_only_adds_absorptions():
    # Same substream, growing horizon: an absorbed walk stays absorbed at
    # the same step, so the block/chunk drawing discipline cannot depend on
    # the horizon.
    for trial in range(2000):
        outcomes = [
            run_walk(2, 0.45, horizon, substream(123, trial))
            for horizon in (10, 50, 400)
        ]
        for earlier, later in zip(outcomes, outcomes[1:]):
            if isinstance(earlier, Absorbed):
                assert later == earlier


def test_block_acceleration_matches_closed_form():
    # A start above the block threshold exercises the binomial jumps on
    # every trial; any bias in the block endpoint distribution would move
    # this hit rate exponentially in the start position.
    hits = 0
    trials = 3000
    for trial in range(trials):
        if isinstance(run_walk(66, 0.51, 50_000, substream(5, trial)), Absorbed):
            hits += 1
    expected = float(absorption_exact(66, 0.51))  # about 0.0714
    assert abs(hits / trials - expected) < 0.02


# ---------------------------------------------------------------------------
# estimation

def test_estimate_is_bit_reproducible():
    config = WalkConfig(k=1, p=0.6, max_steps=2000, trials=5000, seed=42)
    first = estimate_absorption(config)
    second = estimate_absorption(config)
    assert first == second
    assert isinstance(first, AbsorptionEstimate)


def test_estimate_matches_per_trial_substreams():
    # The estimator must consume exactly the keyed substream (seed, trial)
    # for trial i, the same stream a fresh generator would produce.
    config = WalkConfig(k=2, p=0.55, max_steps=500, trials=300, seed=77)
    estimate = estimate_absorption(config)
    manual = sum(
        isinstance(run_walk(2, 0.55, 500, substream(77, trial)), Absorbed)
        for trial in range(300)
    )
    assert estimate.absorbed == manual


def test_estimate_at_largest_seed_warns_nothing_and_matches_substreams():
    seed = 2**64 - 1
    config = WalkConfig(k=1, p=0.6, max_steps=200, trials=20, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = estimate_absorption(config)
    manual = sum(
        isinstance(run_walk(1, 0.6, 200, substream(seed, trial)), Absorbed)
        for trial in range(20)
    )
    assert estimate.absorbed == manual


def test_estimate_counts_and_flags():
    config = WalkConfig(k=1, p=0.5, max_steps=101, trials=400, seed=3)
    estimate = estimate_absorption(config)
    assert estimate.absorbed + estimate.censored == 400
    assert estimate.trials == 400
    assert estimate.point == estimate.absorbed / 400
    assert estimate.is_lower_bound is (estimate.censored > 0)
    assert estimate.censored > 0  # p = 1/2 with a short horizon censors


def test_estimate_certain_outcomes_hit_interval_edges():
    sure = estimate_absorption(WalkConfig(k=1, p=0.0, max_steps=10, trials=200, seed=0))
    assert sure.point == 1.0
    assert sure.ci_high == 1.0
    assert not sure.is_lower_bound
    never = estimate_absorption(WalkConfig(k=1, p=1.0, max_steps=10, trials=200, seed=0))
    assert never.point == 0.0
    assert never.ci_low == 0.0
    assert never.is_lower_bound


def test_interval_orders_correctly():
    for seed in range(5):
        estimate = estimate_absorption(
            WalkConfig(k=1, p=0.7, max_steps=1000, trials=500, seed=seed)
        )
        assert 0.0 <= estimate.ci_low <= estimate.point <= estimate.ci_high <= 1.0


def test_estimate_agrees_with_closed_form():
    estimate = estimate_absorption(
        WalkConfig(k=1, p=0.6, max_steps=10_000, trials=20_000, seed=42)
    )
    assert abs(estimate.point - 2 / 3) < 0.01


def test_interval_coverage_is_near_nominal():
    # 95% intervals over 100 fixed seeds; the tolerance of 10 misses is
    # loose against the binomial(100, 0.05) miss distribution.
    exact = 1 / 3  # absorption from 1 at p = 3/4
    misses = 0
    for seed in range(100):
        estimate = estimate_absorption(
            WalkConfig(k=1, p=0.75, max_steps=2000, trials=2000, seed=seed)
        )
        if not estimate.ci_low <= exact <= estimate.ci_high:
            misses += 1
    assert misses <= 10
