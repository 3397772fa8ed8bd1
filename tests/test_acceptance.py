"""Acceptance suite: eleven numbered criteria, one printed verdict each.

Every test prints a single "criterion N: PASS/FAIL" line before asserting,
so a full run (pytest tests/test_acceptance.py -v -s) always shows the
complete scorecard.  Runtime budgets are asserted where a criterion carries
one; the Monte Carlo criterion times only its two million-trial runs and
performs the reproducibility checks outside the timed window.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from ruinpaths import cli, combinatorics, paths, probability
from ruinpaths.simulator import WalkConfig, estimate_absorption

RATIONAL_GRID = (
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
)

FLOAT_GRID = (0.1, 0.3, 0.5, 0.6, 0.9)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def run_cli(*args: str):
    env = {k: v for k, v in os.environ.items() if k != "RUINPATHS_SEED"}
    return subprocess.run(
        [sys.executable, "-m", "ruinpaths", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_01_enumeration_matches_ballot_counts():
    start = time.perf_counter()
    total = 0
    mismatches = []
    for k in range(1, 7):
        for n in range((22 - k) // 2 + 1):
            found = len(paths.enumerate_first_passage(k, n))
            expected = combinatorics.ballot_count(k, n)
            total += found
            if found != expected:
                mismatches.append((k, n, found, expected))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    report(1, ok, f"oracle equivalence k<=6, 2n+k<=22, {total} paths, {elapsed:.1f}s")


def test_criterion_02_convolution_identity():
    start = time.perf_counter()
    bad = [
        n
        for n in range(1, 201)
        if combinatorics.catalan_via_convolution(n) != combinatorics.catalan(n)
    ]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    report(2, ok, f"convolution equals catalan for n=1..200, {elapsed:.2f}s")


def test_criterion_03_start_two_shift():
    start = time.perf_counter()
    count_ok = all(
        combinatorics.ballot_count(2, n) == combinatorics.catalan(n + 1)
        for n in range(501)
    )
    bijection_ok = True
    for n in range(9):
        source = paths.enumerate_first_passage(1, n + 1)
        image = [paths.shift_bijection_k2(p) for p in source]
        target = paths.enumerate_first_passage(2, n)
        inverse_ok = all(
            paths.LatticePath(1, (paths.Step.RIGHT,) + q.steps) == p
            for p, q in zip(source, image)
        )
        if not (
            inverse_ok
            and len(set(image)) == len(source)
            and set(image) == set(target)
        ):
            bijection_ok = False
            break
    elapsed = time.perf_counter() - start
    ok = count_ok and bijection_ok and elapsed < 10.0
    report(3, ok, f"start-2 counts n<=500 and shift bijection n<=8, {elapsed:.2f}s")


def test_criterion_04_three_start_recurrence():
    start = time.perf_counter()
    recurrence_ok = all(
        combinatorics.ballot_count(k, n)
        == combinatorics.ballot_count(k - 1, n + 1)
        - combinatorics.ballot_count(k - 2, n + 1)
        for k in range(3, 51)
        for n in range(201)
    )
    memo_ok = all(
        combinatorics.ballot_via_recurrence(k, n) == combinatorics.ballot_count(k, n)
        for k in range(3, 51)
        for n in range(201)
    )
    partition_ok = True
    cells = 0
    for k in range(3, 6):
        max_n = (20 - (k - 1)) // 2 - 1
        for n in range(max_n + 1):
            to_k, to_k_minus_2 = paths.partition_by_first_step(k, n)
            expected_k = paths.enumerate_first_passage(k, n)
            expected_lower = paths.enumerate_first_passage(k - 2, n + 1)
            cells += 1
            if not (
                sorted(paths.serialize_all(to_k))
                == paths.serialize_all(expected_k)
                and sorted(paths.serialize_all(to_k_minus_2))
                == paths.serialize_all(expected_lower)
            ):
                partition_ok = False
                break
        if not partition_ok:
            break
    elapsed = time.perf_counter() - start
    ok = recurrence_ok and memo_ok and partition_ok and elapsed < 30.0
    report(
        4,
        ok,
        f"recurrence k=3..50, n<=200 and first-step partition on {cells} cells, "
        f"{elapsed:.1f}s",
    )


def test_criterion_05_first_return_decomposition():
    ok = True
    detail = ""
    for n in range(1, 9):
        source = paths.enumerate_first_passage(1, n)
        round_trip = all(
            paths.first_return_compose(*paths.first_return_decompose(p)) == p
            for p in source
        )
        alpha_counts = Counter(paths.first_return_decompose(p)[0] for p in source)
        counts_ok = all(
            alpha_counts[a]
            == combinatorics.catalan(a - 1) * combinatorics.catalan(n - a)
            for a in range(1, n + 1)
        )
        rebuilt = sorted(
            paths.path_to_string(paths.first_return_compose(a, left, right))
            for a in range(1, n + 1)
            for left in paths.enumerate_first_passage(1, a - 1)
            for right in paths.enumerate_first_passage(1, n - a)
        )
        full_image_ok = rebuilt == paths.serialize_all(source)
        if not (round_trip and counts_ok and full_image_ok):
            ok = False
            detail = f"failed at n={n}"
            break
    if ok:
        fig_count = len(paths.enumerate_first_passage(1, 4))
        ok = fig_count == 14
        detail = f"round-trip and full image for n<=8, n=4 case has {fig_count} paths"
    report(5, ok, detail)


def test_criterion_06_closed_form_and_power_law():
    closed_ok = True
    for p in RATIONAL_GRID:
        value = probability.absorption_exact(1, p)
        expected = Fraction(1) if p <= Fraction(1, 2) else (1 - p) / p
        if not (isinstance(value, Fraction) and value == expected):
            closed_ok = False
            break
    power_ok = all(
        probability.absorption_exact(k, p) == probability.absorption_exact(1, p) ** k
        for p in RATIONAL_GRID
        for k in range(1, 65)
    )
    ok = closed_ok and power_ok
    report(6, ok, "closed form on the rational grid, power law exact for k<=64")


def test_criterion_07_route_agreement():
    route_ok = all(
        abs(probability.absorption_via_gf(p) - probability.absorption_exact(1, p))
        <= 1e-12
        for p in FLOAT_GRID
    )
    quadratic_ok = True
    for p in FLOAT_GRID:
        z = p * (1.0 - p)
        f = probability.generating_function(z)
        if abs(f * f - f + z) > 1e-14:
            quadratic_ok = False
            break
    ok = route_ok and quadratic_ok
    report(
        7,
        ok,
        "generating-function route within 1e-12, quadratic residual within 1e-14",
    )


def test_criterion_08_series_certification():
    start = time.perf_counter()
    target = Fraction(1, 10**12)
    band = (
        Fraction(1, 10),
        Fraction(1, 4),
        Fraction(2, 5),
        Fraction(9, 20),
        Fraction(11, 20),
        Fraction(3, 5),
        Fraction(3, 4),
        Fraction(9, 10),
    )
    assert all(abs(p - Fraction(1, 2)) >= Fraction(1, 20) for p in band)
    ok = True
    detail = ""
    cells = 0
    for k in range(1, 11):
        expected_start = max(0, math.ceil((k * k - k - 2) / 2))
        if probability.tail_start(k) != expected_start:
            ok = False
            detail = f"tail start mismatch at k={k}"
            break
        for p in band:
            result = probability.absorption_series(k, p, target)
            exact = probability.absorption_exact(k, p)
            cells += 1
            if not (
                result.converged
                and result.tail_bound <= target
                and result.partial_sum <= exact <= result.partial_sum + result.tail_bound
                and result.terms_used >= expected_start + 1
            ):
                ok = False
                detail = f"certification failed at k={k}, p={p}"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    if ok:
        detail = f"{cells} rational cells bracketed with tail <= 1e-12, {elapsed:.1f}s"
    report(8, ok, detail)


def test_criterion_09_three_term_recurrence():
    grid = [p for p in RATIONAL_GRID if 0 < p < 1]
    ok = all(
        probability.verify_three_term(k, p) for k in range(1, 33) for p in grid
    )
    report(9, ok, "three-term recurrence exact in rationals for k<=32")


def test_criterion_10_monte_carlo_agreement():
    config_1 = WalkConfig(k=1, p=0.6, max_steps=10**5, trials=10**6, seed=2026)
    config_2 = WalkConfig(k=2, p=0.6, max_steps=10**5, trials=10**6, seed=2026)
    start = time.perf_counter()
    estimate_1 = estimate_absorption(config_1)
    estimate_2 = estimate_absorption(config_2)
    elapsed = time.perf_counter() - start

    close_1 = abs(estimate_1.point - 2 / 3) <= 0.002
    close_2 = abs(estimate_2.point - 4 / 9) <= 0.002

    # Reproducibility checks run outside the timed window.  A smaller
    # configuration keeps the repeat cheap; bit-identity of the estimate
    # and independence from how trials are sharded across workers both
    # follow from the per-trial substream design and are witnessed here.
    small = WalkConfig(k=1, p=0.6, max_steps=10**5, trials=50_000, seed=2026)
    repeat_ok = estimate_absorption(small) == estimate_absorption(small)

    shard_total = 0
    for bounds in ((0, 1000), (1000, 2200), (2200, 3000)):
        shard = _absorbed_in_trial_range(config_1, *bounds)
        shard_total += shard
    sharded = WalkConfig(k=1, p=0.6, max_steps=10**5, trials=3000, seed=2026)
    shard_ok = shard_total == estimate_absorption(sharded).absorbed

    ok = close_1 and close_2 and repeat_ok and shard_ok and elapsed < 120.0
    report(
        10,
        ok,
        f"k=1 off by {abs(estimate_1.point - 2 / 3):.6f}, "
        f"k=2 off by {abs(estimate_2.point - 4 / 9):.6f}, "
        f"bit-identical repeat, shard-independent, {elapsed:.1f}s",
    )


def _absorbed_in_trial_range(config: WalkConfig, lo: int, hi: int) -> int:
    import numpy as np

    from ruinpaths.simulator import Absorbed, run_walk

    absorbed = 0
    for trial in range(lo, hi):
        # A uint64 key array: numpy casts a list holding a seed >= 2**63
        # through float64, so [2**64 - 1, 5] would become [0, 5].
        key = np.array([config.seed, trial], dtype=np.uint64)
        stream = np.random.Generator(np.random.Philox(key=key))
        outcome = run_walk(config.k, config.p, config.max_steps, stream)
        if isinstance(outcome, Absorbed):
            absorbed += 1
    return absorbed


def test_criterion_11_cli_contract(monkeypatch, capsys):
    count = run_cli("count", "--k", "1", "--n", "0..4", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(count.stdout)))
    counts_ok = count.returncode == 0 and [r["count"] for r in rows] == [
        "1",
        "1",
        "2",
        "5",
        "14",
    ]

    # ((1-p)/p)^3 equals 1/27 at p = 3/4 and 1/8 at p = 2/3; both exact
    # strings are pinned.
    at_three_quarters = run_cli("prob", "--k", "3", "--p", "3/4", "--format", "csv")
    at_two_thirds = run_cli("prob", "--k", "3", "--p", "2/3", "--format", "csv")
    rational_ok = (
        ",1/27" in at_three_quarters.stdout and ",1/8" in at_two_thirds.stdout
    )

    usage = run_cli("prob", "--k", "1", "--p", "2")
    diverged = run_cli(
        "prob", "--k", "1", "--p", "1/2", "--method", "series", "--max-terms", "10"
    )

    def broken(k: int, n: int) -> int:
        return combinatorics.ballot_count(k, n) + (k == 2 and n == 3)

    monkeypatch.setattr(combinatorics, "ballot_via_recurrence", broken)
    verify_code = cli.main(["verify", "recurrences", "--max-k", "3", "--max-n", "5"])
    capsys.readouterr()

    codes_ok = (
        count.returncode == 0
        and usage.returncode == 2
        and diverged.returncode == 3
        and verify_code == 1
    )
    ok = counts_ok and rational_ok and codes_ok
    report(
        11,
        ok,
        "count row 1,1,2,5,14; exact rational output; exit codes 0/1/2/3 witnessed",
    )
