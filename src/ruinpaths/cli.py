"""Command-line surface: counting tables, probability queries, convergence
traces, the verification suites, simulation, and path dumps.

Exit codes: 0 success, 1 a verification identity failed, 2 bad input or
usage, 3 a series evaluation did not converge (its lower bound is still
printed).  Stdout carries data, stderr carries diagnostics.  The default
simulation seed comes from the RUINPATHS_SEED environment variable when the
--seed flag is absent.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import combinatorics, paths, probability, simulator
from ._validate import check_float_k, check_int

ENV_SEED = "RUINPATHS_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

FORMATS = ("table", "csv", "json")


# ---------------------------------------------------------------------------
# input parsing

def parse_probability(text: str) -> probability.StepProbability:
    """Decimal literal or "num/den"; the slash form selects exact
    arithmetic end to end."""
    text = text.strip()
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        try:
            value: probability.StepProbability = Fraction(int(num_text), int(den_text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational probability {text!r}: {exc}") from None
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"bad probability {text!r}") from None
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"probability must be finite, got {text!r}")
    if not 0 <= value <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {text!r}")
    return abs(value)


def parse_range(text: str, name: str) -> range:
    """Inclusive "A..B" or a single integer "N"."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise ValueError(f"bad {name} range {text!r}; expected N or A..B") from None
    if lo > hi:
        raise ValueError(f"empty {name} range {text!r} (start exceeds end)")
    return range(lo, hi + 1)


def resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_SEED)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# output rendering

def format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit(rows: Sequence[dict[str, Any]], fmt: str, stream: Any = None) -> None:
    """Write rows in fmt.  An exact value can run past Python's limit on
    int-to-str digits (4,300 by default), so the limit is lifted while the
    rows render and restored afterwards."""
    stream = stream if stream is not None else sys.stdout
    columns = list(rows[0])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            # A Fraction is written as its "num/den" string.
            stream.write(json.dumps(rows[0] if len(rows) == 1 else rows,
                                    allow_nan=False, default=str) + "\n")
        elif fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([format_value(row[c]) for c in columns])
        else:
            cells = [columns] + [[format_value(row[c]) for c in columns] for row in rows]
            widths = [max(len(line[i]) for line in cells) for i in range(len(columns))]
            for line in cells:
                stream.write(
                    "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                    + "\n"
                )
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_count(args: argparse.Namespace) -> int:
    # ballot_count checks each k and n; the first cell holds the least.
    k_range = parse_range(args.k, "k")
    n_range = parse_range(args.n, "n")
    rows = [
        {"k": k, "n": n, "count": combinatorics.ballot_count(k, n)}
        for k in k_range
        for n in n_range
    ]
    emit(rows, args.format)
    return EXIT_OK


def cmd_prob(args: argparse.Namespace) -> int:
    check_int(args.k, "k", 1)
    p = parse_probability(args.p)
    method = args.method
    row: dict[str, Any] = {"k": args.k, "p": p, "method": method}
    code = EXIT_OK

    if method == "exact":
        row["value"] = probability.absorption_exact(args.k, p)
    elif method == "gf":
        # Start-1 value from the generating function, lifted to k by the
        # power law.
        check_float_k(args.k, p)
        row["value"] = probability.absorption_via_gf(p) ** args.k
    elif method == "series":
        if not args.tail > 0:
            raise ValueError(f"--tail must be > 0, got {args.tail}")
        check_int(args.max_terms, "--max-terms", 1)
        # No tail bound exists before n0, so a budget ending there cannot converge.
        n0 = probability.tail_start(args.k)
        if n0 >= args.max_terms:
            raise ValueError(f"the series for k={args.k} cannot certify within --max-terms "
                             f"{args.max_terms}: its tail bound starts at n={n0}")
        result = probability.absorption_series(
            args.k, p, args.tail, max_terms=args.max_terms
        )
        row["value"] = result.partial_sum
        row["terms_used"] = result.terms_used
        # JSON has no infinity, so an unbounded tail is the text every format prints.
        row["tail_bound"] = result.tail_bound if result.converged else "inf"
        row["converged"] = result.converged
        if not result.converged:
            code = EXIT_NOT_CONVERGED
    else:  # simulate
        check_int(args.trials, "--trials", 1)
        seed = resolve_seed(args.seed)
        config = simulator.WalkConfig(
            k=args.k, p=p, max_steps=args.max_steps, trials=args.trials, seed=seed
        )
        estimate = simulator.estimate_absorption(config)
        row["value"] = estimate.point
        row["ci_low"] = estimate.ci_low
        row["ci_high"] = estimate.ci_high
        row["absorbed"] = estimate.absorbed
        row["censored"] = estimate.censored
        row["trials"] = config.trials
        row["max_steps"] = config.max_steps
        row["seed"] = seed
        row["is_lower_bound"] = estimate.is_lower_bound

    emit([row], args.format)
    return code


def cmd_converge(args: argparse.Namespace) -> int:
    check_int(args.max_terms, "--max-terms", 0)
    p = parse_probability(args.p)
    rows = [{"n": n, "term": term, "partial_sum": total,
             "tail_bound": "n/a" if bound is None else bound}
            for n, (term, total, bound) in zip(range(args.max_terms + 1),
                                               probability.series_terms(args.k, p))]
    emit(rows, args.format)
    return EXIT_OK


def cmd_dump(args: argparse.Namespace) -> int:
    found = paths.enumerate_first_passage(args.k, args.n, cap=args.cap)
    rows = [{"path": text} for text in paths.serialize_all(found)]
    emit(rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
#
# Each identity is a table entry (suite, identity, range label, cells):
# cells(bounds) lazily yields (failure label, ok) pairs and the row reports
# the first failure; the range label is a str.format template over the
# bounds.  Cells look library functions up when they run, so a patched
# module attribute is what gets checked.

Bounds = dict[str, int]
Cells = Callable[[Bounds], Iterable[tuple[str, bool]]]

# suite -> (bound defaults when the flag is absent, least bounds that still
# test anything, the error when a bound is below them).  The start-2
# identity reads --max-n too but defaults further out.
SUITES: dict[str, tuple[Bounds, Bounds, str]] = {
    "recurrences": (
        {"max_k": 50, "max_n": 200, "t2_max_n": 500},
        {"max_k": 1, "max_n": 1},
        "recurrence bounds must be >= 1",
    ),
    "bijections": (
        {"max_n": 8, "max_len": 20},
        {"max_n": 1, "max_len": 4},
        "bijection bounds too small to test anything",
    ),
    "oracle": (
        {"max_k": 6, "max_len": 18},
        {"max_k": 1, "max_len": 1},
        "oracle bounds must be >= 1",
    ),
    "probability": ({}, {}, ""),
}

_RATIONAL_GRID = (
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
)
_FLOAT_GRID = (0.1, 0.3, 0.5, 0.6, 0.9)


def _grid(
    b: Bounds, n_from: int, check: Callable[[int, int], bool]
) -> Iterable[tuple[str, bool]]:
    return (
        (f"k={k}, n={n}", check(k, n))
        for k in range(1, b["max_k"] + 1)
        for n in range(n_from, b["max_n"] + 1)
    )


def _recurrence_cells(b: Bounds) -> Iterable[tuple[str, bool]]:
    for k in range(1, b["max_k"] + 1):
        for n in range(b["max_n"] + 1):
            got = combinatorics.ballot_via_recurrence(k, n)
            want = combinatorics.ballot_count(k, n)
            yield f"k={k}, n={n}: {got} != {want}", got == want


def _oracle_cells(b: Bounds) -> Iterable[tuple[str, bool]]:
    for k in range(1, b["max_k"] + 1):
        for n in range((b["max_len"] - k) // 2 + 1):
            found = paths.enumerate_first_passage(k, n, cap=b["cap"])
            expected = combinatorics.ballot_count(k, n)
            serialized = paths.serialize_all(found)
            cell = f"k={k}, n={n}"
            yield f"{cell}: {len(found)} paths != C_k(n)={expected}", len(found) == expected
            yield f"{cell}: duplicate paths emitted", len(set(serialized)) == len(found)
            yield f"{cell}: canonical order violated", serialized == sorted(serialized)


def _shift_cells(b: Bounds) -> Iterable[tuple[str, bool]]:
    for n in range(b["max_n"] + 1):
        source = paths.enumerate_first_passage(1, n + 1, cap=b["cap"])
        image = [paths.shift_bijection_k2(p) for p in source]
        target = paths.enumerate_first_passage(2, n, cap=b["cap"])
        round_trip = all(
            paths.LatticePath(1, (paths.Step.RIGHT,) + q.steps) == p
            for p, q in zip(source, image)
        )
        yield f"n={n}", round_trip and image == target


def _first_return_ok(n: int, cap: int) -> bool:
    for p in paths.enumerate_first_passage(1, n, cap=cap):
        alpha, left, right = paths.first_return_decompose(p)
        if not 1 <= alpha <= n:
            return False
        if left.right_steps() + right.right_steps() + 1 != n:
            return False
        if paths.first_return_compose(alpha, left, right) != p:
            return False
    return True


def _partition_cells(b: Bounds) -> Iterable[tuple[str, bool]]:
    cap = b["cap"]
    for k in range(3, 6):
        for n in range((b["max_len"] - (k - 1)) // 2):
            to_k, to_k_minus_2 = paths.partition_by_first_step(k, n, cap=cap)
            yield f"k={k}, n={n}", (
                to_k == paths.enumerate_first_passage(k, n, cap=cap)
                and to_k_minus_2 == paths.enumerate_first_passage(k - 2, n + 1, cap=cap)
            )


def _series_ok(k: int, p: Fraction) -> bool:
    result = probability.absorption_series(k, p, 1e-12)
    exact = probability.absorption_exact(k, p)
    return (
        result.converged
        and result.terms_used >= probability.tail_start(k) + 1
        and result.tail_bound <= 1e-12
        and result.partial_sum <= exact <= result.partial_sum + result.tail_bound
    )


def _critical_cells(b: Bounds) -> Iterable[tuple[str, bool]]:
    half = probability.absorption_series(2, Fraction(1, 2), 1e-12, max_terms=2000)
    yield "expected converged=false with partial_sum < 1", (
        not half.converged and half.partial_sum < 1 and math.isinf(half.tail_bound)
    )


def _route_ok(p: probability.StepProbability) -> bool:
    via_gf = probability.absorption_via_gf(p)
    exact = probability.absorption_exact(1, p)
    return abs(via_gf - exact) <= 1e-12 if isinstance(p, float) else via_gf == exact


def _quadratic_ok(z: float) -> bool:
    f = probability.generating_function(z)
    return abs(f**2 - f + z) <= 1e-14


IDENTITIES: tuple[tuple[str, str, str, Cells], ...] = (
    ("recurrences", "recurrence equals closed form", "k=1..{max_k}, n=0..{max_n}",
     _recurrence_cells),
    ("recurrences", "first-return convolution equals catalan", "n=1..{max_n}",
     lambda b: (
         (f"n={n}", combinatorics.catalan_via_convolution(n) == combinatorics.catalan(n))
         for n in range(1, b["max_n"] + 1)
     )),
    ("recurrences", "start-2 counts equal shifted catalan", "n=0..{t2_max_n}",
     lambda b: (
         (f"n={n}", combinatorics.ballot_count(2, n) == combinatorics.catalan(n + 1))
         for n in range(b["t2_max_n"] + 1)
     )),
    ("recurrences", "prefactor division is exact", "k=1..{max_k}, n=0..{max_n}",
     lambda b: _grid(b, 0, lambda k, n: combinatorics.ballot_count(k, n) * (2 * n + k)
                     == k * math.comb(2 * n + k, n))),
    ("recurrences", "counts strictly increase in n", "k=1..{max_k}, n=1..{max_n}",
     lambda b: _grid(b, 1, lambda k, n: combinatorics.ballot_count(k, n + 1)
                     > combinatorics.ballot_count(k, n))),
    ("bijections", "strip-first-step maps start 1 onto start 2", "n=0..{max_n}",
     _shift_cells),
    ("bijections", "first-return decompose/compose round-trip", "n=1..{max_n}",
     lambda b: ((f"n={n}", _first_return_ok(n, b["cap"])) for n in range(1, b["max_n"] + 1))),
    ("bijections", "partition by first step splits the level-(k-1) paths",
     "k=3..5, 2(n+1)+(k-1)<={max_len}", _partition_cells),
    ("oracle", "enumeration count equals ballot count", "k=1..{max_k}, 2n+k<={max_len}",
     _oracle_cells),
    ("probability", "closed form: 1 below 1/2, power law above", "k<=64, rational grid",
     lambda b: (
         (f"k={k}, p={p}",
          probability.absorption_exact(k, p) == probability.absorption_exact(1, p) ** k)
         for p in _RATIONAL_GRID
         for k in range(1, 65)
     )),
    ("probability", "generating function solves its quadratic",
     "z in {{0, 0.01, 0.1, 0.2, 0.25}}",
     lambda b: ((f"z={z}", _quadratic_ok(z)) for z in (0.0, 0.01, 0.1, 0.2, 0.25))),
    ("probability", "generating-function route matches closed form",
     "float grid within 1e-12; rational grid exactly",
     lambda b: ((f"p={p}", _route_ok(p)) for p in _FLOAT_GRID + _RATIONAL_GRID)),
    ("probability", "three-term recurrence", "k<=32, rational and float grids",
     lambda b: (
         (f"k={k}, p={p}", probability.verify_three_term(k, p))
         for p in _RATIONAL_GRID + _FLOAT_GRID
         for k in range(1, 33)
     )),
    ("probability", "series brackets the closed form",
     "k<=5, rational p away from 1/2, tail 1e-12",
     lambda b: (
         (f"k={k}, p={p}", _series_ok(k, p))
         for p in _RATIONAL_GRID
         if abs(p - Fraction(1, 2)) >= Fraction(1, 20)
         for k in range(1, 6)
     )),
    ("probability", "near-critical series reports an honest lower bound",
     "k=2, p=1/2, 2000 terms", _critical_cells),
)


def _suite_bounds(suite: str, args: argparse.Namespace) -> Bounds:
    """The suite's bounds: flags where given, else its defaults, checked."""
    defaults, least, too_small = SUITES[suite]
    flags = {"max_k": args.max_k, "max_n": args.max_n, "t2_max_n": args.max_n,
             "max_len": args.max_len}
    bounds = {name: default if flags[name] is None else flags[name]
              for name, default in defaults.items()}
    if any(bounds[name] < value for name, value in least.items()):
        raise ValueError(too_small)
    if "max_len" in bounds and bounds["max_len"] > args.cap:
        raise ValueError(f"--max-len {bounds['max_len']} exceeds enumeration cap {args.cap}")
    if suite == "bijections" and 2 * bounds["max_n"] + 3 > args.cap:
        # The shift identity's start-1 paths, 2n+3 long, pass the cap first.
        length = args.cap + 1 + args.cap % 2
        raise ValueError(f"path length 2n+k = {length} exceeds enumeration cap {args.cap}")
    return {**bounds, "cap": args.cap}


def cmd_verify(args: argparse.Namespace) -> int:
    # Every selected suite's bounds are checked before the first cell runs.
    suite_bounds = {suite: _suite_bounds(suite, args)
                    for suite in (SUITES if args.suite == "all" else (args.suite,))}
    rows: list[dict[str, Any]] = []
    for suite, bounds in suite_bounds.items():
        for entry_suite, identity, tested, cells in IDENTITIES:
            if entry_suite == suite:
                failure = next((label for label, ok in cells(bounds) if not ok), "")
                rows.append({
                    "suite": suite,
                    "identity": identity,
                    "range": tested.format(**bounds),
                    "status": "FAIL" if failure else "PASS",
                    "detail": failure,
                })
    emit(rows, args.format)
    failed = [r for r in rows if r["status"] == "FAIL"]
    if failed:
        print(
            f"{len(failed)} of {len(rows)} identities failed", file=sys.stderr
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

# Flags that several subcommands take, each defined once; simulate takes
# prob's simulation flags.
ARGS: dict[str, dict[str, Any]] = {
    "--k": dict(type=int, required=True, help="start position"),
    "--p": dict(required=True, help='right-step probability, decimal or "num/den"'),
    "--trials": dict(type=int, default=10_000, help="simulation trials"),
    "--max-steps": dict(type=int, default=100_000, help="simulation censoring horizon"),
    "--seed": dict(type=int, default=None, help="simulation seed"),
    "--cap": dict(
        type=int, default=paths.DEFAULT_ENUMERATION_CAP, help="enumeration cap override"
    ),
    "--format": dict(choices=FORMATS, default="table", help="output format"),
}


def _add(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **ARGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinpaths",
        description=(
            "Absorption probabilities of the left-absorbed random walk, "
            "computed exactly, by series, by generating function, and by "
            "simulation, with lattice-path counting behind all of it."
        ),
        epilog=f"Default simulation seed: --seed, else ${ENV_SEED}, else 0.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact path-count table C_k(n)")
    p_count.add_argument("--k", required=True, help="start positions, N or A..B")
    p_count.add_argument("--n", required=True, help="right-step counts, N or A..B")
    _add(p_count, "--format")
    p_count.set_defaults(handler=cmd_count)

    p_prob = sub.add_parser("prob", help="absorption probability from start k")
    _add(p_prob, "--k", "--p")
    p_prob.add_argument(
        "--method",
        choices=("exact", "series", "gf", "simulate"),
        default="exact",
        help="computation route (gf evaluates start 1 and raises to the k-th power)",
    )
    p_prob.add_argument("--tail", type=float, default=1e-12, help="series tail target")
    p_prob.add_argument(
        "--max-terms",
        type=int,
        default=probability.DEFAULT_MAX_TERMS,
        help="series term budget",
    )
    _add(p_prob, "--trials", "--max-steps", "--seed", "--format")
    p_prob.set_defaults(handler=cmd_prob)

    p_sim = sub.add_parser("simulate", help="shorthand for prob --method simulate")
    _add(p_sim, "--k", "--p", "--trials", "--max-steps", "--seed", "--format")
    p_sim.set_defaults(handler=cmd_prob, method="simulate")

    p_conv = sub.add_parser("converge", help="per-term series trace")
    _add(p_conv, "--k", "--p")
    p_conv.add_argument(
        "--max-terms", type=int, default=20, help="last term index n to print"
    )
    _add(p_conv, "--format")
    p_conv.set_defaults(handler=cmd_converge)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument(
        "suite",
        nargs="?",
        choices=("all", *SUITES),
        default="all",
        help="which suite to run",
    )
    defaults = {suite: bounds for suite, (bounds, _, _) in SUITES.items()}
    for flag, text in (
        ("--max-k", "k bound (default {recurrences[max_k]} for recurrences, "
         "{oracle[max_k]} for oracle)"),
        ("--max-n", "n bound (default {recurrences[max_n]} for the recurrence grid, "
         "{recurrences[t2_max_n]} for the start-2 identity, {bijections[max_n]} "
         "for bijections)"),
        ("--max-len", "path-length bound 2n+k (default {oracle[max_len]} for oracle, "
         "{bijections[max_len]} for the partition bijection)"),
    ):
        p_verify.add_argument(flag, type=int, default=None, help=text.format(**defaults))
    _add(p_verify, "--cap", "--format")
    p_verify.set_defaults(handler=cmd_verify)

    p_dump = sub.add_parser(
        "dump", help="canonical serializations of the enumerated paths"
    )
    _add(p_dump, "--k")
    p_dump.add_argument("--n", type=int, required=True, help="right-step count")
    _add(p_dump, "--cap", "--format")
    p_dump.set_defaults(handler=cmd_dump)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except ValueError as exc:  # EnumerationCapError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
