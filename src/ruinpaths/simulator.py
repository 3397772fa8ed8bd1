"""Seeded Monte Carlo estimation of the absorption probability.

Randomness discipline: trial i draws from its own Philox substream keyed by
(seed, i).  Philox is counter-based with period 2^256 and passes the
standard statistical batteries; keyed substreams make every trial's outcome
a pure function of (seed, i), independent of execution order or worker
count, and make censoring monotone in the horizon (same substream, longer
horizon).  The chunk and block constants below are part of the
reproducibility contract: changing them changes which draws a walk consumes.

The walk is simulated exactly.  While the position is small, the chunk is
the unit of drawing: 128 uniforms drawn at once, scanned one per step (right
when u < p) up to the first zero, and consumed whole if the walk ends inside.
Once the position exceeds the block threshold, the next b = pos - 1 steps
cannot reach 0 (absorption from pos needs at least pos steps), so by the
Markov property the position after those b steps is exactly
pos + 2*Binomial(b, p) - b and no zero test is needed inside the block.
A walk is censored as soon as pos > max_steps - t, which is exactly when
absorption within the remaining budget becomes impossible.  The horizon
never influences which draws are consumed before an outcome is decided,
only when the walk is declared censored.

Workers: an estimate splits its trial indices into contiguous ranges, one
per usable CPU and each of at least _SHARD_MIN_TRIALS trials.  The calling
process walks the first range; worker processes walk the others and send
back their absorbed counts, which the caller adds up.  Since a trial's
outcome depends only on (seed, i), every count is the same for any split.
Each worker is forked (os.fork) once, at the first estimate that splits,
and serves every later estimate of the process over two pipes: a request is
one text line, "k p.hex() max_steps seed start stop", and a reply one line
holding the absorbed count.  A worker ignores SIGINT, serves until its
request pipe reaches EOF and always ends in os._exit, so that no atexit hook
or inherited stdio buffer of the caller runs in it.  An at-fork hook closes
the caller's ends of the pipes in every forked child, a user's or a new
worker's, so each worker sees EOF as soon as its caller exits, however it
exits (if the caller dies mid-estimate, the worker first finishes the range
it is walking).  If the split section raises for any reason, an interrupt
included, the caller kills, reaps and forgets its workers before
re-raising, so that no count left unread in a pipe is taken by a later
estimate; the next estimate forks new ones.

An estimate runs serially, in the calling process alone, when it is too
small to split, when fewer than two CPUs are usable (or the platform cannot
tell: os.sched_getaffinity, Linux only), when another thread of the process
is already running a split estimate, and on Python 3.12 and later: there
forking a process that has a second OS thread warns, and once numpy is
imported this process has one (OpenBLAS's).
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

from ._validate import check_int, check_probability
from .probability import StepProbability

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Absorbed", "AbsorptionEstimate", "Censored", "WalkConfig", "estimate_absorption",
           "run_walk"]

_CHUNK = 128
_BLOCK_THRESHOLD = 64
_Z95 = 1.959963984540054
# The fewest trials a range may hold.  On 2 CPUs a two-way split of 40-60
# trials first beat the serial walk, depending on the walk regime, so an
# estimate splits from 60 trials on: below that, a worker's round trip
# costs more than the walks it takes over.
_SHARD_MIN_TRIALS = 30

# This process's workers: (pid, the fd its requests are written to, the fd
# its replies are read from).
_workers: list[tuple[int, int, int]] = []


def _forget_workers() -> None:
    """Close the caller's ends of every worker's pipes and drop the workers:
    in the caller once it has killed them, and in every forked child, which
    this keeps off its parent's pipes."""
    for _, request, reply in _workers:
        os.close(request)
        os.close(reply)
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
# Held by the one thread whose estimate uses the workers.
_workers_lock = threading.Lock()


def _check_walk(k: int, p: StepProbability, max_steps: int) -> None:
    check_int(k, "k", 1)
    check_probability(p)
    if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < k:
        # Absorption takes at least k steps; a smaller horizon is vacuous.
        raise ValueError(f"max_steps must be an integer >= k = {k}, got {max_steps!r}")
    if max_steps > 2**63:
        # A block jump draws Binomial(pos - 1, p) with pos - 1 < max_steps,
        # and numpy's binomial takes a signed 64-bit count.
        raise ValueError(f"max_steps must be at most 2**63, got {max_steps!r}")


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
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


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

    Near 0 the chunk is the unit of drawing (128 uniforms, scanned one per
    step); far from 0 a binomial block jump over pos - 1 unit steps is the
    exact acceleration (see the module docstring for the argument).
    """
    _check_walk(k, p, max_steps)
    return _walk(k, float(p), max_steps, random_stream)


def _walk(
    k: int, p: float, max_steps: int, random_stream: np.random.Generator
) -> Absorbed | Censored:
    # run_walk without the argument checks, for arguments already checked.
    pos = k
    t = 0
    rnd = random_stream.random
    binom = random_stream.binomial
    while pos <= max_steps - t:
        if pos > _BLOCK_THRESHOLD:
            b = pos - 1
            pos += 2 * int(binom(b, p)) - b
            t += b
        else:
            for u in rnd(_CHUNK).tolist():
                t += 1
                pos += 1 if u < p else -1
                if pos == 0:
                    return Absorbed(t) if t <= max_steps else Censored()
    return Censored()


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
    (config.seed, i), so the result is bit-identical across runs and for
    any partition of the trials.  Where the module docstring's conditions
    allow, the trials are split into contiguous ranges, one per usable CPU:
    this process walks the first and its persistent workers, forked with
    os.fork at the first split, the others.  Otherwise, and for fewer than
    2 * _SHARD_MIN_TRIALS trials, every trial runs here.
    """
    walk = (config.k, float(config.p), config.max_steps, config.seed)
    trials = config.trials
    shards = _shard_count(trials)
    if shards > 1 and _workers_lock.acquire(blocking=False):
        try:
            absorbed = _absorbed_in_shards(walk, trials, shards)
        finally:
            _workers_lock.release()
    else:
        absorbed = _absorbed_in_range(*walk, 0, trials)

    censored = trials - absorbed
    low, high = _wilson_interval(absorbed, trials)
    return AbsorptionEstimate(
        absorbed=absorbed,
        censored=censored,
        point=absorbed / trials,
        ci_low=low,
        ci_high=high,
        is_lower_bound=censored > 0,
    )


def _absorbed_in_range(k: int, p: float, max_steps: int, seed: int, start: int, stop: int) -> int:
    """The number of trials in [start, stop) whose walks are absorbed."""
    import numpy as np  # numpy loads here, at the first estimate; no other route needs it

    # A uint64 key array: numpy would cast a list holding a seed >= 2**63
    # through float64.
    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    stream = np.random.Generator(bit_generator)
    # The fresh state: zero counter, empty buffer.  The setter copies the dict
    # and drawing never writes to it, so setting it with key [seed, trial]
    # gives the exact state of a fresh Philox(key=[seed, trial]).
    state = bit_generator.state
    key = state["state"]["key"]

    absorbed = 0
    for trial in range(start, stop):
        key[1] = trial
        bit_generator.state = state
        if isinstance(_walk(k, p, max_steps, stream), Absorbed):
            absorbed += 1
    return absorbed


def _shard_count(trials: int) -> int:
    """How many ranges to split the trials into; 1 runs them serially."""
    if sys.version_info >= (3, 12) or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials // _SHARD_MIN_TRIALS))


def _absorbed_in_shards(walk: tuple[int, float, int, int], trials: int, shards: int) -> int:
    """_absorbed_in_range over all the trials, with the ranges after the
    first walked by workers."""
    # Loaded before the fork, so that a new worker does not import it again
    # while the caller does: that made a fresh `simulate` slower than serial.
    import numpy

    k, p, max_steps, seed = walk
    bounds = [trials * i // shards for i in range(shards + 1)]
    try:
        while len(_workers) < shards - 1:
            _workers.append(_fork_worker())
        workers = _workers[: shards - 1]
        for (_, request, _), start, stop in zip(workers, bounds[1:], bounds[2:]):
            os.write(request, f"{k} {p.hex()} {max_steps} {seed} {start} {stop}\n".encode())
        absorbed = _absorbed_in_range(*walk, 0, bounds[1])
        for pid, _, reply in workers:
            # One os.write of fewer than PIPE_BUF bytes, which a pipe delivers
            # whole.
            line = os.read(reply, 64)
            if not line:
                raise EOFError(f"simulator worker {pid} exited before replying")
            absorbed += int(line)
    except BaseException:
        import signal

        for pid, *_ in _workers:
            # Either call fails if something else has reaped the worker.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        _forget_workers()
        raise
    return absorbed


def _fork_worker() -> tuple[int, int, int]:
    """Fork one worker; its entry for _workers."""
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (request_r, request_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:
        # The at-fork hook has closed the caller's ends of the other
        # workers' pipes; the worker closes those of its own.
        _serve(request_r, reply_w, (request_w, reply_r))
    os.close(request_r)
    os.close(reply_w)
    return pid, request_w, reply_r


def _serve(requests: int, replies: int, caller_ends: tuple[int, int]) -> NoReturn:
    """A worker's life: walk each range the caller requests and write back
    its absorbed count, until the request pipe reaches EOF."""
    try:
        import signal

        # An interrupt is the caller's to handle; it kills its workers.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for fd in caller_ends:
            os.close(fd)
        for line in os.fdopen(requests):
            k, p, max_steps, seed, start, stop = line.split()
            absorbed = _absorbed_in_range(int(k), float.fromhex(p), int(max_steps), int(seed),
                                          int(start), int(stop))
            os.write(replies, b"%d\n" % absorbed)
    finally:
        os._exit(0)
