"""Absorption probability of the walk by three independent routes.

P(absorbed | start k) is computed in closed form (1 for p <= 1/2, else
((1-p)/p)^k), as a truncated counting series with a certified geometric
tail bound, and through the generating function F(z) = (1 - sqrt(1-4z))/2.
The routes share no code, which is what makes their agreement a real check.

Probabilities are either exact `fractions.Fraction` values or floats, and
the representation is preserved end to end: exact in, exact out.  The one
float fallback is generating_function at a Fraction z whose 1 - 4z is not a
perfect rational square; on the absorption route z = p - p^2, where
1 - 4z = (1-2p)^2 always is one, so absorption values stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Protocol, Union

from ._validate import check_int, check_probability

StepProbability = Union[Fraction, float]

DEFAULT_MAX_TERMS = 100_000
NEAR_CRITICAL_DELTA = 0.005
THREE_TERM_TOLERANCE = 1e-12


class CancelToken(Protocol):
    """Anything with is_set(), e.g. threading.Event."""

    def is_set(self) -> bool: ...


class SeriesCancelled(RuntimeError):
    """Raised when a series evaluation is cancelled between terms."""


def absorption_exact(k: int, p: StepProbability) -> StepProbability:
    """Closed-form absorption probability: 1 for p <= 1/2, else ((1-p)/p)^k.

    Exact when p is a Fraction; the start position only enters as the
    exponent (the k = 1 probability raised to the k-th power).
    """
    check_int(k, "k", 1)
    p = check_probability(p)
    if 2 * p <= 1:
        return Fraction(1) if isinstance(p, Fraction) else 1.0
    return ((1 - p) / p) ** k


def tail_start(k: int) -> int:
    """First series index from which the geometric tail bound is valid.

    The term ratio stays below 4p(1-p) only once 2n + 2 + k - k^2 >= 0,
    i.e. from n0 = max(0, ceil((k^2 - k - 2)/2)).
    """
    check_int(k, "k", 1)
    return max(0, -(-(k * k - k - 2) // 2))


def generating_function(z: Union[Fraction, float]) -> Union[Fraction, float]:
    """Minus branch (1 - sqrt(1-4z))/2 of F^2 - F + z = 0.

    The minus sign is forced by F(0) = 0 (the series has no constant
    term).  Defined on [0, 1/4]; outside, 1-4z goes negative.  A Fraction
    argument yields an exact Fraction whenever 1-4z is a perfect rational
    square (always the case for z = p - p^2, where 1-4z = (1-2p)^2),
    and falls back to float otherwise.
    """
    if isinstance(z, bool):
        raise TypeError("z must be a Fraction or float, got bool")
    if isinstance(z, int):
        z = Fraction(z)
    if not isinstance(z, (Fraction, float)):
        raise TypeError(f"z must be a Fraction or float, got {type(z).__name__}")
    if not 0 <= 4 * z <= 1:
        raise ValueError(f"z must lie in [0, 1/4], got {z}")
    radicand = 1 - 4 * z
    if isinstance(z, Fraction):
        num, den = radicand.numerator, radicand.denominator
        root_num, root_den = math.isqrt(num), math.isqrt(den)
        if root_num * root_num == num and root_den * root_den == den:
            return (1 - Fraction(root_num, root_den)) / 2
        z = float(z)
        radicand = 1.0 - 4.0 * z
    return (1.0 - math.sqrt(radicand)) / 2.0


def absorption_via_gf(p: StepProbability) -> StepProbability:
    """Absorption probability from start 1 via the generating function:
    F(p - p^2) / p.

    The minus branch turns sqrt((1-2p)^2) into |1-2p|, so the p <= 1/2
    and p > 1/2 cases emerge from the algebra, not from a runtime branch.
    Rejects p = 0 (division by p); the closed form covers that case.
    """
    p = check_probability(p)
    if p == 0:
        raise ValueError("p = 0 is excluded (division by p); absorption is 1 there")
    return generating_function(p - p * p) / p


@dataclass(frozen=True)
class SeriesEvaluation:
    """Truncated series result with its certificate.

    partial_sum is always a lower bound on the true probability (every
    term is nonnegative); when converged is true, partial_sum + tail_bound
    is an upper bound.  tail_bound is math.inf exactly when the geometric
    certificate was unavailable, and then converged is false.
    """

    partial_sum: StepProbability
    terms_used: int
    tail_bound: Union[Fraction, float]
    converged: bool


def series_terms(
    k: int, p: StepProbability, delta: float = NEAR_CRITICAL_DELTA
) -> Iterator[tuple[StepProbability, StepProbability | None]]:
    """The terms t_0, t_1, ... of sum_n C_k(n) p^n (1-p)^(n+k), without end,
    each paired with its certified bound on the tail after it, or None.

    Terms are built incrementally from the exact ratio
    t_{n+1}/t_n = p(1-p) (2n+k)(2n+k+1) / ((n+1)(n+k+1)), in the same
    arithmetic as p.  The bound t_n r/(1-r), r = 4p(1-p), holds only from
    tail_start(k) on, so it is None before that; it is None throughout when
    r >= 1 - delta, since there is no useful geometric bound there (terms
    decay like n^(-3/2) near p = 1/2).
    """
    check_int(k, "k", 1)
    p = check_probability(p)
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    q = 1 - p
    pq = p * q
    ratio = 4 * pq
    certifiable = ratio < 1 - delta
    n0 = tail_start(k)

    def terms() -> Iterator[tuple[StepProbability, StepProbability | None]]:
        term = q**k
        n = 0
        while True:
            yield term, term * ratio / (1 - ratio) if certifiable and n >= n0 else None
            term = term * pq * ((2 * n + k) * (2 * n + k + 1)) / ((n + 1) * (n + k + 1))
            n += 1

    return terms()


def absorption_series(
    k: int,
    p: StepProbability,
    target_tail: float,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
    delta: float = NEAR_CRITICAL_DELTA,
    cancel: CancelToken | None = None,
) -> SeriesEvaluation:
    """Sum the counting series sum_n C_k(n) p^n (1-p)^(n+k) with a
    certified stopping rule.

    The terms and their tail bounds come from series_terms.  The run stops
    at the first n whose bound is at most target_tail.  Where no bound is
    available (4p(1-p) >= 1 - delta) the sum runs to max_terms and is
    reported as a certified lower bound with converged = False and an
    infinite tail_bound.  Cancellation is checked between terms.
    """
    if not target_tail > 0:
        raise ValueError(f"target_tail must be > 0, got {target_tail}")
    check_int(max_terms, "max_terms", 1)
    terms = series_terms(k, p, delta)
    total = 0 * p
    for n, (term, bound) in enumerate(terms):
        if cancel is not None and cancel.is_set():
            raise SeriesCancelled(f"cancelled after {n} terms")
        total += term
        if bound is not None and bound <= target_tail:
            return SeriesEvaluation(total, n + 1, bound, True)
        if n + 1 >= max_terms:
            return SeriesEvaluation(total, n + 1, math.inf, False)


def verify_three_term(k: int, p: StepProbability) -> bool:
    """Check P(k+2) = (1/p) P(k+1) - ((1-p)/p) P(k) on the closed form.

    Exact equality for Fraction p; residual at most 1e-12 for float p.
    p = 0 and p = 1 are rejected (division by p; both ends are degenerate
    and covered by the closed form directly).
    """
    check_int(k, "k", 1)
    p = check_probability(p)
    if p == 0 or p == 1:
        raise ValueError("the recurrence needs 0 < p < 1")
    lhs = absorption_exact(k + 2, p)
    rhs = absorption_exact(k + 1, p) / p - absorption_exact(k, p) * (1 - p) / p
    if isinstance(p, Fraction):
        return lhs == rhs
    return abs(lhs - rhs) <= THREE_TERM_TOLERANCE
