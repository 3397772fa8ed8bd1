"""Seeded Monte Carlo estimation of the absorption probability.

Randomness discipline: trial i draws from its own Philox substream keyed by
(seed, i).  Philox is counter-based with period 2^256 and passes the
standard statistical batteries; keyed substreams make every trial's outcome
a pure function of (seed, i), independent of execution order or worker
count, and make censoring monotone in the horizon (same substream, longer
horizon).  The chunk and block constants below are part of the
reproducibility contract: changing them changes which draws a walk consumes.

The walk is simulated exactly.  While the position is small, steps are
drawn in fixed-size chunks of uniforms and scanned for the first zero hit.
Once the position exceeds the block threshold, the next b = pos - 1 steps
cannot reach 0 (absorption from pos needs at least pos steps), so by the
Markov property the position after those b steps is exactly
pos + 2*Binomial(b, p) - b and no zero test is needed inside the block.
A walk is censored as soon as pos > max_steps - t, which is exactly when
absorption within the remaining budget becomes impossible.  The horizon
never influences which draws are consumed before an outcome is decided,
only when the walk is declared censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._validate import check_int, check_probability
from .probability import StepProbability

_CHUNK = 128
_BLOCK_THRESHOLD = 64
_STEP_NUMBERS = np.arange(1, _CHUNK + 1)
_Z95 = 1.959963984540054


def _check_walk(k: int, p: StepProbability, max_steps: int) -> None:
    check_int(k, "k", 1)
    check_probability(p)
    if not isinstance(max_steps, int) or max_steps < k:
        # Absorption takes at least k steps; a smaller horizon is vacuous.
        raise ValueError(f"max_steps must be an integer >= k = {k}, got {max_steps!r}")


@dataclass(frozen=True)
class WalkConfig:
    """One estimation request: start k, right-step probability p, censoring
    horizon max_steps, trial count, and the 64-bit seed."""

    k: int
    p: StepProbability
    max_steps: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        _check_walk(self.k, self.p, self.max_steps)
        check_int(self.trials, "trials", 1)
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class Absorbed:
    """Walk reached 0 at this step (step_count - k is even and >= 0)."""

    step_count: int


@dataclass(frozen=True)
class Censored:
    """Walk was still positive when the step budget ran out."""


def run_walk(
    k: int,
    p: StepProbability,
    max_steps: int,
    random_stream: np.random.Generator,
) -> Absorbed | Censored:
    """Simulate one walk from k; Absorbed(t) if it reaches 0 at step
    t <= max_steps, else Censored().

    Equivalent to drawing unit steps one at a time from random_stream; the
    chunked and blocked drawing is an exact acceleration (see the module
    docstring for the argument).
    """
    _check_walk(k, p, max_steps)
    p = float(p)

    pos = k
    t = 0
    rnd = random_stream.random
    binom = random_stream.binomial
    while True:
        if pos > max_steps - t:
            return Censored()
        if pos > _BLOCK_THRESHOLD:
            b = pos - 1
            pos += 2 * int(binom(b, p)) - b
            t += b
        else:
            rights = np.cumsum(rnd(_CHUNK) < p)
            walk = 2 * rights - _STEP_NUMBERS
            if pos + walk.min() <= 0:
                # Unit steps cannot skip a level, so the first zero exists.
                first_zero = int(np.argmax(walk == -pos))
                t_absorbed = t + first_zero + 1
                if t_absorbed <= max_steps:
                    return Absorbed(t_absorbed)
                return Censored()
            pos += int(walk[-1])
            t += _CHUNK


@dataclass(frozen=True)
class AbsorptionEstimate:
    """Monte Carlo estimate with a 95% Wilson score interval.

    Censored walks count as non-absorbed, so point is a downward-biased
    estimate of the true absorption probability whenever censored > 0;
    is_lower_bound flags exactly that case.
    """

    absorbed: int
    censored: int
    point: float
    ci_low: float
    ci_high: float
    is_lower_bound: bool

    @property
    def trials(self) -> int:
        return self.absorbed + self.censored


def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    # Wilson score: well-behaved at phat = 0 and 1, unlike the normal
    # approximation.
    z = _Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)
    )
    return max(0.0, center - half), min(1.0, center + half)


def estimate_absorption(config: WalkConfig) -> AbsorptionEstimate:
    """Run config.trials independent walks and tally absorptions.

    Deterministic: trial i consumes only its own substream keyed by
    (config.seed, i), so the result is bit-identical across runs and
    independent of how trials would be partitioned across workers.
    """
    p = float(config.p) if isinstance(config.p, Fraction) else config.p
    # A uint64 key array: numpy would cast a list holding a seed >= 2**63
    # through float64.
    bit_generator = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    stream = np.random.Generator(bit_generator)
    state = bit_generator.state
    counter = state["state"]["counter"]
    key = state["state"]["key"]

    absorbed = 0
    for trial in range(config.trials):
        # Reset to the exact state of a fresh Philox(key=[seed, trial]).
        counter[:] = 0
        key[1] = trial
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bit_generator.state = state
        if isinstance(run_walk(config.k, p, config.max_steps, stream), Absorbed):
            absorbed += 1

    censored = config.trials - absorbed
    low, high = _wilson_interval(absorbed, config.trials)
    return AbsorptionEstimate(
        absorbed=absorbed,
        censored=censored,
        point=absorbed / config.trials,
        ci_low=low,
        ci_high=high,
        is_lower_bound=censored > 0,
    )
