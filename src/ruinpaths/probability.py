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
from itertools import count
from typing import Iterator, Union

from ._validate import check_float_k, check_int, check_probability

__all__ = ["DEFAULT_MAX_TERMS", "SeriesEvaluation", "StepProbability", "absorption_exact",
           "absorption_series", "absorption_via_gf", "generating_function", "tail_start",
           "verify_three_term"]

StepProbability = Union[Fraction, float]

DEFAULT_MAX_TERMS = 100_000
THREE_TERM_TOLERANCE = 1e-12


def absorption_exact(k: int, p: StepProbability) -> StepProbability:
    """Closed-form absorption probability: 1 for p <= 1/2, else ((1-p)/p)^k.

    Exact when p is a Fraction; the start position only enters as the
    exponent (the k = 1 probability raised to the k-th power).  A float p
    takes k < 2**511, as every float route does.
    """
    check_int(k, "k", 1)
    p = check_probability(p)
    check_float_k(k, p)
    if 2 * p <= 1:
        return Fraction(1) if isinstance(p, Fraction) else 1.0
    return ((1 - p) / p) ** k


def tail_start(k: int) -> int:
    """First series index from which the geometric tail bound is used,
    n0 = max(0, ceil((k^2 - k - 2)/2)).

    A safe but late start: the term ratio t_{n+1}/t_n stays at or below
    4p(1-p) exactly when 6n >= k^2 - 3k - 4 (from n = 1 at k = 5 and n = 18
    at k = 12, where n0 is 9 and 65).  Acceptance criterion 8 pins n0 as it
    is.
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
    z = check_probability(z, "z", Fraction(1, 4))
    radicand = 1 - 4 * z
    if isinstance(z, Fraction):
        num, den = radicand.numerator, radicand.denominator
        root_num, root_den = math.isqrt(num), math.isqrt(den)
        if root_num * root_num == num and root_den * root_den == den:
            return (1 - Fraction(root_num, root_den)) / 2
        z = float(z)
        radicand = 1.0 - 4.0 * z
    # (1 - sqrt(1-4z))/2 rationalised: no cancellation when z is small.
    return 2.0 * z / (1.0 + math.sqrt(radicand))


def absorption_via_gf(p: StepProbability) -> StepProbability:
    """Absorption probability from start 1 via the generating function:
    F(p - p^2) / p.

    The minus branch turns sqrt((1-2p)^2) into |1-2p|, so the p <= 1/2
    and p > 1/2 cases emerge from the algebra, not from a runtime branch.
    Rejects p = 0 (division by p); the closed form covers that case.
    A float value has relative error at most u/|1-2p| + 4u (u = 2^-53):
    near p = 1/2, z = p(1-p) sits by the branch point 1/4, and rounding
    1 - 4z costs about 1e-13 within 1e-3 of p = 1/2, 1e-10 within 1e-6.
    A float value is capped at 1: rounding lifts it to 1 + 2^-52 at p = 0.1,
    for one.
    """
    p = check_probability(p)
    if p == 0:
        raise ValueError("p = 0 is excluded (division by p); absorption is 1 there")
    value = generating_function(p * (1 - p)) / p
    return min(value, 1.0) if isinstance(p, float) else value


@dataclass(frozen=True)
class SeriesEvaluation:
    """Truncated series result with its certificate.

    For a Fraction p, partial_sum is a lower bound on the true probability
    (every term is nonnegative), and when converged is true, partial_sum +
    tail_bound is an upper bound.  For a float p both hold only up to
    rounding, about (5n + k + 4) u partial_sum after n terms (u = 2^-53):
    absorption_series(8, 0.071, 1e-12).partial_sum is 1 + 2^-52, above the
    exact 1 (ROADMAP item 3).  tail_bound is math.inf exactly when converged
    is false.
    """

    partial_sum: StepProbability
    terms_used: int
    tail_bound: Union[Fraction, float]
    converged: bool


# Terms per multi-digit division in absorption_series.
_BATCH = 16


def _advance(k: int, a: int, b: int, n: int, m: int, num: int, total: int,
             scale: int) -> tuple[int, int, int]:
    """The series for p = a/b in integers, taken m terms on: from term n's
    (num_n, S_n, b^(2n+k)) to term n+m's, where t_n = num_n / b^(2n+k),
    num_n = C_k(n) a^n (b-a)^(n+k), and the partial sum t_0 + ... + t_n is
    S_n / b^(2n+k), S_n = S_{n-1} b^2 + num_n.

    Each step is num_{j+1} = num_j f_j / g_j, f_j = a(b-a)(2j+k)(2j+k+1),
    g_j = (j+1)(j+k+1).  Over j = n .. n+m-1 the small factors compound into
    F = prod f_j, G = prod g_j and P, built by P <- P b^2 g_j + F_j (F_j the
    product of f_n .. f_j), so that num_{n+m} = num_n F / G and
    S_{n+m} = S_n b^(2m) + num_n P / G.  One divmod, num_n = q G + r, splits
    them into q F + r F / G and q P + r P / G.  Both divisions are exact and
    act on small numbers only: num_{n+m} and num_n P / G, the sum of
    num_{n+i} b^(2(m-i)) over i = 1 .. m, are integers, so are q F and q P,
    and r < G.

    From tail_start(k) on the term ratio is at most 4p(1-p) < 1, so the
    tail bound, t_n times a constant, never increases there.  A stopping
    rule that fails at term n+m (n+m >= tail_start(k)) has therefore failed
    at every term from tail_start(k) to n+m, which is why absorption_series
    tests it at the ends of its jumps only.
    """
    ab, bb = a * (b - a), b * b
    big_f, big_g, big_p = 1, 1, 0
    for j in range(n, n + m):
        g = (j + 1) * (j + k + 1)
        big_f *= ab * ((2 * j + k) * (2 * j + k + 1))
        big_p = big_p * (bb * g) + big_f
        big_g *= g
    q, r = divmod(num, big_g)
    bbm = bb**m
    return (q * big_f + r * big_f // big_g,
            total * bbm + q * big_p + r * big_p // big_g,
            scale * bbm)


def series_terms(
    k: int, p: StepProbability
) -> Iterator[tuple[StepProbability, StepProbability, StepProbability | None]]:
    """The rows (t_n, t_0 + ... + t_n, bound on the tail after t_n or None)
    of sum_n C_k(n) p^n (1-p)^(n+k), without end, as `converge` prints them.

    Terms follow the exact ratio
    t_{n+1}/t_n = p(1-p) (2n+k)(2n+k+1) / ((n+1)(n+k+1)), in the same
    arithmetic as p: a Fraction p = a/b steps the integers over b^(2n+k)
    that absorption_series jumps through, partial sum included, one term at
    a time, and each row is a Fraction view of them; a float p runs the
    ratio in floats.  The bound t_n r/(1-r), r = 4p(1-p), holds only from
    tail_start(k) on, so it is None before that; at r = 1 (p = 1/2, where
    terms decay like n^(-3/2)) there is none, so it is None throughout.  A
    float p takes k < 2**511, so that the integer factor (2n+k)(2n+k+1)
    converts to a float.
    """
    check_int(k, "k", 1)
    p = check_probability(p)
    check_float_k(k, p)
    if isinstance(p, Fraction):
        a, b = p.numerator, p.denominator
        # r/(1-r) = 4a(b-a) / (b-2a)^2
        lead, gap = 4 * a * (b - a), (b - 2 * a) ** 2
        n0 = tail_start(k) if gap else math.inf

        def rows() -> Iterator[tuple[Fraction, Fraction, Fraction | None]]:
            num = (b - a) ** k
            total, scale = num, b**k
            for n in count():
                yield (Fraction(num, scale), Fraction(total, scale),
                       Fraction(num * lead, scale * gap) if n >= n0 else None)
                num, total, scale = _advance(k, a, b, n, 1, num, total, scale)

        return rows()
    q = 1 - p
    pq = p * q
    ratio = 4 * pq
    n0 = tail_start(k) if ratio < 1 else math.inf

    def terms() -> Iterator[tuple[float, float, float | None]]:
        term, total = q**k, 0.0
        for n in count():
            total += term
            yield term, total, term * ratio / (1 - ratio) if n >= n0 else None
            term = term * pq * ((2 * n + k) * (2 * n + k + 1)) / ((n + 1) * (n + k + 1))

    return terms()


def absorption_series(
    k: int,
    p: StepProbability,
    target_tail: float,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesEvaluation:
    """Sum the counting series sum_n C_k(n) p^n (1-p)^(n+k) with a
    certified stopping rule.

    The terms, partial sums and tail bounds are those of series_terms.  The
    run stops at the first n whose bound is at most target_tail.  A run that
    ends at max_terms first (always so at p = 1/2, where no bound exists) is
    reported as a certified lower bound with converged = False and an
    infinite tail_bound.

    A Fraction p = a/b runs the integers that series_terms views as
    Fractions, 16 terms per multi-digit division (see _advance): the
    partial sum stays an integer over b^(2n+k), and the stopping rule
    compares integers too, so the one normalisation of the call builds
    partial_sum and tail_bound at the end.  That rule compares bit lengths
    first and multiplies only near the crossing, so its outcome is that of
    the exact comparison alone.  It is tested at the end of each 16-term
    jump; since the bound never increases from tail_start(k) on, the first
    jump end that certifies holds the first term that does, and that jump
    is replayed one term at a time to find it.  The last jump is cut short
    to end at term max_terms - 1.  A float p reads the float rows
    of series_terms, so it takes k < 2**511, and its certificate holds only
    up to rounding (see SeriesEvaluation).
    """
    if not target_tail > 0:
        raise ValueError(f"target_tail must be > 0, got {target_tail}")
    check_int(max_terms, "max_terms", 1)
    check_int(k, "k", 1)
    p = check_probability(p)
    if isinstance(p, float):
        for n, (_, total, bound) in zip(range(max_terms), series_terms(k, p)):
            if bound is not None and bound <= target_tail:
                return SeriesEvaluation(total, n + 1, bound, True)
        return SeriesEvaluation(total, max_terms, math.inf, False)

    a, b = p.numerator, p.denominator
    lead, gap = 4 * a * (b - a), (b - 2 * a) ** 2
    n0 = tail_start(k) if gap else math.inf
    # The bound num lead / (b^(2n+k) gap) is at most tn/td exactly when
    # num lead td <= tn b^(2n+k) gap; an infinite target, which no Fraction
    # holds, takes td = 0 and so accepts every bound.
    tn, td = (1, 0) if target_tail == math.inf else Fraction(target_tail).as_integer_ratio()
    lhs, rhs = lead * td, tn * gap
    # bl(xy) >= bl(x) + bl(y) - 1 for x, y > 0, so more bits prove num lhs > rhs scale
    # unmultiplied; num = 0 only where lhs = 0, and there t_n <= 1 (num <= scale) skips none.
    lhs_bits, rhs_bits = lhs.bit_length() - 1, rhs.bit_length()

    def certifies(n: int, num: int, scale: int) -> bool:
        return (n >= n0 and num.bit_length() + lhs_bits <= scale.bit_length() + rhs_bits
                and num * lhs <= rhs * scale)

    n, num = 0, (b - a) ** k
    total, scale = num, b**k
    converged, batch = certifies(0, num, scale), _BATCH
    while not converged and n < max_terms - 1:
        m = min(batch, max_terms - 1 - n)
        after = _advance(k, a, b, n, m, num, total, scale)
        converged = certifies(n + m, after[0], after[2])
        if converged and m > 1:
            # The first term that certifies lies in n+1 .. n+m: replay them.
            converged, batch = False, 1
        else:
            n, (num, total, scale) = n + m, after
    if converged:
        return SeriesEvaluation(
            Fraction(total, scale), n + 1, Fraction(num * lead, scale * gap), True
        )
    return SeriesEvaluation(Fraction(total, scale), max_terms, math.inf, False)


def verify_three_term(k: int, p: StepProbability) -> bool:
    """Check the first-step equation P(k+1) = p P(k+2) + (1-p) P(k) on the
    closed form.

    Exact equality for Fraction p; residual at most 1e-12 for float p, on
    all of [0, 1].  A float p takes k + 2 < 2**511, the closed form's limit
    at the largest start evaluated.
    """
    check_int(k, "k", 1)
    p = check_probability(p)
    lhs = absorption_exact(k + 1, p)
    rhs = p * absorption_exact(k + 2, p) + (1 - p) * absorption_exact(k, p)
    if isinstance(p, Fraction):
        return lhs == rhs
    return abs(lhs - rhs) <= THREE_TERM_TOLERANCE
