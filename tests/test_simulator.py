import hashlib
import math
import signal
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinpaths import (
    Absorbed,
    AbsorptionEstimate,
    Censored,
    WalkConfig,
    absorption_exact,
    absorption_series,
    estimate_absorption,
    run_walk,
    simulator,
)
from ruinpaths.probability import series_terms


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
        dict(k=1, p=0.5, max_steps=10, trials=1, seed=True),
        dict(k=1, p=0.5, max_steps=True, trials=1, seed=0),
        dict(k=1, p=0.5, max_steps=2**63 + 1, trials=1, seed=0),  # horizon above 2**63
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        WalkConfig(**kwargs)


# A block jump draws numpy's Binomial(pos - 1, p), whose count is a signed
# 64-bit integer, and pos - 1 < max_steps; so 2**63 is the largest horizon.

def test_horizon_of_two_to_the_63_is_accepted():
    config = WalkConfig(k=1, p=0.6, max_steps=2**63, trials=50, seed=1)
    shorter = WalkConfig(k=1, p=0.6, max_steps=10_000, trials=50, seed=1)
    estimate = estimate_absorption(config)
    assert estimate.trials == 50
    assert estimate.absorbed >= estimate_absorption(shorter).absorbed
    # The largest block this horizon allows: b = 2**63 - 1 at the first jump.
    assert run_walk(2**63, 0.6, 2**63, substream(0, 0)) == Censored()


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
    with pytest.raises(ValueError, match=r"max_steps must be at most 2\*\*63"):
        run_walk(1, 0.6, 2**63 + 1, substream(0, 0))


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


def absorption_time_chi_square(k, p, max_steps, trials, seed):
    """Pearson statistic and degrees of freedom of walk absorption times
    against the series, which reads only k and p: t_n is P(T = 2n + k).

    One bin per n while trials t_n >= 5, one pooled bin for the rest of
    n <= N = (max_steps - k) // 2, and a censored bin at trials (1 - S_N).
    """
    last = (max_steps - k) // 2
    rows = list(islice(series_terms(k, p), last + 1))
    observed = [0] * (last + 1)
    for trial in range(trials):
        outcome = run_walk(k, p, max_steps, substream(seed, trial))
        if isinstance(outcome, Absorbed):
            observed[(outcome.step_count - k) // 2] += 1
    n = 0
    bins = []
    while n <= last and trials * rows[n][0] >= 5:
        bins.append((observed[n], trials * rows[n][0]))
        n += 1
    if n <= last:
        below = rows[n - 1][1] if n else 0.0
        bins.append((sum(observed[n:]), trials * (rows[last][1] - below)))
    bins.append((trials - sum(observed), trials * (1 - rows[last][1])))
    statistic = sum((seen - expected) ** 2 / expected for seen, expected in bins)
    return statistic, len(bins) - 1


@pytest.mark.parametrize(
    "k, p, max_steps, seed",
    [
        (1, 0.4, 1000, 1),
        (2, 0.6, 2000, 2),  # most walks escape to the horizon
        (1, 0.5, 4000, 2**64 - 1),  # about 1 walk in 65 makes block jumps
    ],
)
def test_absorption_times_follow_the_series(k, p, max_steps, seed):
    # The walk's whole absorption-time law, not only its mass below the
    # horizon: a step-count shift or a biased step moves the statistic far
    # past the bound (p = 0.42 walks give 315 in the first cell).
    statistic, df = absorption_time_chi_square(k, p, max_steps, 20_000, seed)
    assert statistic <= df + 6 * math.sqrt(2 * df)


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
    # for trial i, the same stream a fresh generator would produce.  From
    # k = 70 every trial starts with binomial block jumps, so trials stop
    # partway through a Philox buffer before the next one is reset.
    for k, p, max_steps in ((2, 0.55, 500), (70, 0.5, 5000)):
        config = WalkConfig(k=k, p=p, max_steps=max_steps, trials=300, seed=77)
        manual = sum(
            isinstance(run_walk(k, p, max_steps, substream(77, trial)), Absorbed)
            for trial in range(300)
        )
        assert estimate_absorption(config).absorbed == manual


def test_estimate_checks_its_request_once(monkeypatch):
    # WalkConfig checks k, p and max_steps; the trials must not repeat it.
    config = WalkConfig(k=2, p=Fraction(11, 20), max_steps=300, trials=200, seed=5)
    expected = estimate_absorption(config)

    def refuse(*args):
        raise AssertionError("argument check repeated after WalkConfig")

    monkeypatch.setattr(simulator, "_check_walk", refuse)
    assert estimate_absorption(config) == expected


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


# ---------------------------------------------------------------------------
# workers

@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_split_does_not_change_counts(seed):
    # 1, 2 and 3 contiguous ranges of the range kernel, the estimate however
    # it ran (with workers from 2 * _SHARD_MIN_TRIALS trials on a host that
    # forks), and the per-trial substreams all count alike.
    k, p, max_steps, trials = 2, 0.55, 1000, 150
    assert trials >= 3 * simulator._SHARD_MIN_TRIALS
    manual = sum(
        isinstance(run_walk(k, p, max_steps, substream(seed, trial)), Absorbed)
        for trial in range(trials)
    )
    estimate = estimate_absorption(WalkConfig(k=k, p=p, max_steps=max_steps, trials=trials,
                                              seed=seed))
    assert estimate.absorbed == manual
    for parts in (1, 2, 3):
        bounds = [trials * i // parts for i in range(parts + 1)]
        assert sum(
            simulator._absorbed_in_range(k, p, max_steps, seed, start, stop)
            for start, stop in zip(bounds, bounds[1:])
        ) == manual


def test_interrupted_estimate_leaves_no_count_behind(monkeypatch):
    # An interrupt in the caller's own range must not leave the worker's
    # count in its pipe, where the next estimate would read it as its own.
    config = WalkConfig(k=1, p=0.6, max_steps=2000, trials=400, seed=9)
    following = WalkConfig(k=1, p=0.6, max_steps=2000, trials=400, seed=10)
    estimate_absorption(config)  # any workers are forked here, before the patch

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(simulator, "_walk", interrupted)
    with pytest.raises(KeyboardInterrupt):
        estimate_absorption(config)
    monkeypatch.undo()
    serial = simulator._absorbed_in_range(1, 0.6, 2000, 10, 0, 400)
    assert estimate_absorption(following).absorbed == serial


def running(pid: int) -> bool:
    """Whether process pid exists and has not exited.  An exited orphan is a
    zombie (state Z) until PID 1 reaps it, which a container's init may
    never do, so it counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_exit_with_a_killed_caller():
    code = (
        "import os, signal\n"
        "from ruinpaths import WalkConfig, estimate_absorption, simulator\n"
        "estimate_absorption(WalkConfig(k=1, p=0.6, max_steps=2000, trials=400, seed=1))\n"
        "print(*[process.pid for process, _ in simulator._workers], flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    # Not subprocess.run: it would wait for EOF on stdout, which the workers
    # share.
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert proc.wait(timeout=60) == -signal.SIGKILL
    if not pids:
        pytest.skip("this host runs estimates serially")
    deadline = time.monotonic() + 5
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, pids))


# Outcomes held fixed across versions: any change to which draws a walk
# consumes, or where it stops, moves them.
# Each row: (k, p, max_steps, seed), (absorbed, censored) of 200 trials, and
# the SHA-256 of the 200 run_walk step counts joined by commas (-1 for a
# censored walk).
PINNED_OUTCOMES = [
    # absorbed in the first chunk
    ((1, 0.6, 2000, 0), (132, 68),
     "93844aa6babbadaa5086a1c4b37e9b5b9728b951c8a6135da437235b01a41212"),
    # absorbed in a later chunk
    ((2, 0.5, 2000, 2**63), (194, 6),
     "a3e99caa206c54bb0538c4267da09c319a0b886bd5776855e09e2d3ac4f5f384"),
    # horizon at and just past the first chunk's end
    ((1, 0.5, 127, 2**64 - 1), (181, 19),
     "9fcdf7cb1ff2bfc296c631961eb159d39ddeed6e75323d34ab59d2e9ca483daa"),
    ((1, 0.5, 128, 0), (186, 14),
     "085236a4ee989abd6368709dfa5120659423916bc2de4f95c3f8d26ac5c4fe4d"),
    ((1, 0.5, 129, 2**63), (185, 15),
     "ef0b45244ca4d321227aec7daf971b1832163d97d8f7d5b4548f166b14c55244"),
    # a zero at step 128, inside the first chunk, lands past the horizon
    ((2, 0.5, 127, 0), (169, 31),
     "0e0c435a50833f4c7e823cfffbcfda225c34b96b2951f28f0b1059ee49f23f24"),
    # binomial block jumps, then back to chunks
    ((70, 0.5, 5000, 2**64 - 1), (56, 144),
     "3a86d636e6d0ffacdc8f00b214167c997b8f1a869a9272b299804b0068f5c25c"),
    # every walk absorbed exactly at the horizon
    ((3, 0, 3, 0), (200, 0),
     "2cf40316522ff5aba48f5c876315c7197e3d8a2d86dfabf6c2f09677116b5a37"),
    ((1, 1, 300, 2**63), (0, 200),
     "8fb36327ca8a00c42dc17a8646d5810db723326899d05a8f53565aff0ccf6cdb"),
    ((2, Fraction(11, 20), 600, 2**64 - 1), (129, 71),
     "df5fb9bbaeee039e0c16fa85019d41455c978c186aa42e2dcfb509db163354e0"),
]


@pytest.mark.parametrize("cell, counts, digest", PINNED_OUTCOMES)
def test_outcomes_are_pinned(cell, counts, digest):
    k, p, max_steps, seed = cell
    estimate = estimate_absorption(
        WalkConfig(k=k, p=p, max_steps=max_steps, trials=200, seed=seed)
    )
    assert (estimate.absorbed, estimate.censored) == counts
    step_counts = []
    for trial in range(200):
        outcome = run_walk(k, p, max_steps, substream(seed, trial))
        step_counts.append(outcome.step_count if isinstance(outcome, Absorbed) else -1)
    text = ",".join(map(str, step_counts))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


@st.composite
def walk_requests(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    p = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=64).flatmap(
            lambda den: st.integers(min_value=0, max_value=den).map(lambda num: Fraction(num, den))
        ),
    ))
    max_steps = draw(st.integers(min_value=k, max_value=2000))
    trials = draw(st.integers(min_value=1, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return WalkConfig(k=k, p=p, max_steps=max_steps, trials=trials, seed=seed)


@settings(deadline=None)
@given(walk_requests())
def test_estimate_matches_finite_horizon_target(config):
    # A censored walk estimates P(T <= max_steps) without bias, and series
    # term t_n is P(T = 2n + k): so the target is the partial sum S_N,
    # N = (max_steps - k) // 2, read from the series, which sees only k and p.
    # A tail bound of 5e-324 stops the sum before N only where the rest is nil.
    n = (config.max_steps - config.k) // 2
    series = absorption_series(config.k, config.p, 5e-324, max_terms=n + 1)
    # The float series can round past 1 (ROADMAP item 3).
    target = min(float(series.partial_sum), 1.0)
    sigma = math.sqrt(config.trials * target * (1 - target))
    absorbed = estimate_absorption(config).absorbed
    assert abs(absorbed - config.trials * target) <= 5 * sigma + 1
