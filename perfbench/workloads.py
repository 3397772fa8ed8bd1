"""The four workloads: seeded request streams, the calls each request makes
into ruinpaths, and the checks that decide whether its answer is right.

A request is a plain dict made from (workload, seed, repetition, block)
alone, so the program only ever receives generated inputs.  Streams are cut
into blocks, and every block holds the same number of requests of each cost
class in a seeded order; a seed changes parameters inside a class, never the
mix, which keeps throughput and latency percentiles steady across seeds.

Every call into the package goes through `call(name, fn, *args)`, where the
name is "<module>.<what>"; a traced run records a span there.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from ruinpaths import cli
from ruinpaths.combinatorics import (
    ballot_count,
    ballot_via_recurrence,
    catalan_via_convolution,
)
from ruinpaths.paths import (
    enumerate_first_passage,
    first_return_compose,
    first_return_decompose,
    partition_by_first_step,
    serialize_all,
    shift_bijection_k2,
)
from ruinpaths.probability import (
    absorption_exact,
    absorption_series,
    absorption_via_gf,
)
from ruinpaths.simulator import Absorbed, WalkConfig, estimate_absorption, run_walk

Call = Callable[..., Any]
Counters = dict[str, float]
Samples = dict[str, list[float]]

ROOT = Path(__file__).resolve().parent.parent
HALF = Fraction(1, 2)


@dataclass
class Outcome:
    """What one request produced, as far as the benchmark needs it.

    `work` counts the units behind work_per_s; `known_defect` marks a wrong
    answer that is the documented float-certificate rounding miss; `record`
    is what the reproducibility digest covers; `latency_s` overrides the
    measured request time (the CLI counts only the subprocess)."""

    ok: bool
    work: int = 1
    counts: Counters = field(default_factory=dict)
    known_defect: bool = False
    detail: str = ""
    record: Any = None
    latency_s: float | None = None


def _fail(detail: str) -> Outcome:
    return Outcome(ok=False, detail=detail)


class Workload:
    name = ""
    # Requests every repetition completes, however short its window; the
    # exact counts and digests that must repeat are taken over these.
    prefix = 1
    why = ""
    exclusions: tuple[str, ...] = ()

    def block(self, rng: random.Random) -> list[dict[str, Any]]:
        raise NotImplementedError

    def run(self, req: dict[str, Any], call: Call) -> Outcome:
        raise NotImplementedError

    def extras(self, req: dict[str, Any], outcome: Outcome, call: Call,
               counters: Counters, samples: Samples) -> None:
        """Traced runs only: extra per-request measurements, outside the
        request's span and latency."""

    def after_window(self, seed: int, rep: int, records: list[Any], traced: bool,
                     counters: Counters, samples: Samples) -> list[tuple[int, str]]:
        """Checks and layer probes that run after the timed window; returns
        (request index, detail) for every request found wrong."""
        return []

    def plant(self, seed: int, rep: int) -> tuple[int, str, Callable[[Any], Any]]:
        """(request index, call name, corruption) for the planted-fault check."""
        raise NotImplementedError

    def stream(self, seed: int, rep: int) -> Iterator[dict[str, Any]]:
        block = 0
        while True:
            yield from self.block(random.Random(f"{self.name}/{seed}/{rep}/{block}"))
            block += 1


def add(counters: Counters, name: str, value: float) -> None:
    counters[name] = counters.get(name, 0) + value


# ---------------------------------------------------------------------------
# mc: estimate_absorption over a mix of walk regimes

MC_MAX_STEPS = 100_000
MC_SIGMAS = 5


class MonteCarlo(Workload):
    name = "mc"
    prefix = 12
    why = (
        "simulator does nearly all the work: first-chunk absorptions, "
        "block-jump escapes to censoring and long near-critical walks, "
        "in fixed shares"
    )

    def block(self, rng):
        def req(regime, k, p, trials, spread=True):
            # A trial count drawn from half to twice its base spreads request
            # costs continuously over about 4x around the median, so that
            # the median moves smoothly, not in a jump, when a shared host
            # switches speed for part of a run.
            if spread:
                trials = round(trials * 2 ** rng.uniform(-1, 1))
            return {"regime": regime, "k": k, "p": p, "max_steps": MC_MAX_STEPS,
                    "trials": trials, "seed": rng.getrandbits(64)}

        # Base trial counts keep a request between about 10 and 25 ms at the
        # parent commit; drift requests are the slowest and hold the tail.
        # Drift cells keep k = 1, p <= 0.85 and a fixed trial count so that
        # at least ~140 absorptions are expected and the 5-sigma bound is a
        # sound test, not a coin flip on a rare event.
        reqs = [
            req("criterion10", 1, 0.6, 250),
            req("criterion10", 2, 0.6, 200),
            req("subcritical", rng.randint(1, 4), rng.uniform(0.3, 0.45), 500),
            req("subcritical", rng.randint(1, 4), rng.uniform(0.3, 0.45), 500),
            req("critical", rng.randint(1, 2), 0.5, 300),
            req("drift", 1, rng.uniform(0.8, 0.85), 800, spread=False),
        ]
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def config(req):
        return WalkConfig(k=req["k"], p=req["p"], max_steps=req["max_steps"],
                          trials=req["trials"], seed=req["seed"])

    def run(self, req, call):
        estimate = call("simulator.estimate_absorption", estimate_absorption, self.config(req))
        exact = call("probability.absorption_exact", absorption_exact, req["k"], req["p"])
        trials = req["trials"]
        sigma = math.sqrt(exact * (1 - exact) / trials)
        ok = estimate.absorbed + estimate.censored == trials
        if estimate.censored == 0:
            ok = ok and abs(estimate.point - exact) <= MC_SIGMAS * sigma
        else:
            ok = ok and estimate.point <= exact + MC_SIGMAS * sigma
        return Outcome(
            ok=ok,
            work=trials,
            counts={"trials": trials},
            detail="" if ok else f"estimate {estimate.point} vs exact {exact}",
            record=(estimate.absorbed, estimate.censored),
        )

    def replayed(self, seed, rep):
        """One seeded request of each regime among the first `prefix`, so the
        replay sees first-chunk absorptions, later ones and censoring."""
        stream = self.stream(seed, rep)
        by_regime: dict[str, list[int]] = {}
        for index in range(self.prefix):
            by_regime.setdefault(next(stream)["regime"], []).append(index)
        rng = random.Random(f"mc-replay/{seed}/{rep}")
        return sorted(rng.choice(indices) for _, indices in sorted(by_regime.items()))

    def after_window(self, seed, rep, records, traced, counters, samples):
        """Replay a seeded sample of the first requests one trial at a time
        through run_walk on a fresh Philox keyed by (seed, i); the absorbed count
        must match the timed estimate exactly.  The replay also times
        estimate_absorption and run_walk on the same trials."""
        stream = self.stream(seed, rep)
        reqs = [next(stream) for _ in range(self.prefix)]
        failures = []
        for index in self.replayed(seed, rep):
            if index >= len(records) or records[index] is None:
                continue
            req = reqs[index]
            start = time.perf_counter()
            again = estimate_absorption(self.config(req))
            add(counters, "replay.estimate_s", time.perf_counter() - start)
            absorbed = 0
            for trial in range(req["trials"]):
                # An explicit uint64 key: numpy turns the list [seed, trial]
                # into float64 when seed >= 2**63, which loses low seed bits.
                key = np.array([req["seed"], trial], dtype=np.uint64)
                generator = np.random.Generator(np.random.Philox(key=key))
                start = time.perf_counter()
                outcome = run_walk(req["k"], req["p"], req["max_steps"], generator)
                elapsed = time.perf_counter() - start
                if isinstance(outcome, Absorbed):
                    absorbed += 1
                    phase = "first_chunk" if outcome.step_count <= 128 else "later"
                else:
                    phase = "censored"
                add(counters, f"run_walk.s.{phase}", elapsed)
                add(counters, f"run_walk.n.{phase}", 1)
            add(counters, "replay.trials", req["trials"])
            if not records[index][0] == again.absorbed == absorbed:
                failures.append((index, f"replay absorbed {absorbed}, rerun {again.absorbed}, "
                                        f"timed {records[index][0]}"))
        return failures

    def plant(self, seed, rep):
        def corrupt(estimate):
            return dataclasses.replace(estimate, absorbed=estimate.absorbed + 1,
                                       censored=estimate.censored - 1)
        return self.replayed(seed, rep)[0], "simulator.estimate_absorption", corrupt


# ---------------------------------------------------------------------------
# series: certified exact series by denominator bit size, plus float cells

SERIES_TAIL = 1e-12
SERIES_MIN_DISTANCE = Fraction(1, 20)
UNIT_ROUNDOFF = 2.0**-53


class Slot(NamedTuple):
    """One cell of every series block: its class, the ranges its denominator
    bits, |p - 1/2| and k are drawn from, which sides of 1/2 p may take, and
    whether the float series runs too."""

    cls: str
    bits: tuple[int, int]
    distance: tuple[float, float]
    k: tuple[int, int] = (1, 16)
    sides: tuple[int, ...] = (-1, 1)
    with_float: bool = False


# Sorted by cost at the parent commit: three cheap cells; six of 10-35 ms
# that hold the median in their middle, so that the few cells a seed draws
# move it little; one mid-class cell near the certification edge
# (150-300 ms); and two near-critical small-class cells that hold the tail
# (600-850 ms).  The costly cells decide req_per_s and the tail, so their
# ranges are narrow: p < 1/2 and k in 5..8 keep the tail cells within 9/20
# and 13/29 and within 15% of one another.  Float cells keep the full
# ranges of their slots, so the float certificate sees every k.
_MEDIAN_SLOTS = (
    Slot("small", (8, 8), (0.125, 0.13), with_float=True),
    Slot("mid", (13, 13), (0.145, 0.15)),
)
SERIES_SLOTS = (
    Slot("small", (3, 8), (0.2, 0.45), with_float=True),
    Slot("mid", (10, 20), (0.2, 0.45), with_float=True),
    Slot("small", (3, 8), (0.2, 0.45)),
    *_MEDIAN_SLOTS * 3,
    Slot("mid", (11, 12), (0.085, 0.09)),
    Slot("small", (5, 5), (0.05, 0.052), k=(5, 8), sides=(-1,)),
    Slot("small", (5, 5), (0.05, 0.052), k=(5, 8), sides=(-1,)),
)


def float_rounding_bound(terms: int, k: int, partial_sum: float) -> float:
    """Worst-case rounding error of the float series: each term carries
    about 4n + k + 2 roundings from the ratio recurrence and the running sum
    about n more (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3)."""
    return (5 * terms + k + 4) * UNIT_ROUNDOFF * partial_sum


class Series(Workload):
    name = "series"
    prefix = len(SERIES_SLOTS)
    why = (
        "exact big-rational probability arithmetic dominates, its cost rising "
        "with denominator bits; float and GF cells use the same layer cheaply"
    )
    exclusions = (
        "dyadic 53-bit rationals such as Fraction(0.55): one cell costs about 53 s "
        "at the parent commit",
        "k >= 448: tail_start(k) exceeds the default max_terms, so the series "
        "never converges (it does not finish 20 000 terms in 60 s)",
        "mid-class cells (10-20 bit denominators) keep |p - 1/2| >= 0.075, where "
        "one cell stays under about 1 s at the parent commit; a 12-bit cell at "
        "|p - 1/2| = 0.05 takes 3 s",
    )

    def block(self, rng):
        reqs = []
        for index, slot in enumerate(SERIES_SLOTS):
            d_lo, d_hi = slot.distance
            while True:
                bits = rng.randint(*slot.bits)
                den = rng.randint(1 << (bits - 1), (1 << bits) - 1)
                num = round(den * (0.5 + rng.choice(slot.sides) * rng.uniform(d_lo, d_hi)))
                distance = abs(Fraction(num, den) - HALF)
                # Rounding to the denominator can leave the band; draw again.
                if 0 < num < den and math.gcd(num, den) == 1 and \
                        distance >= SERIES_MIN_DISTANCE and d_lo <= float(distance) <= d_hi:
                    break
            reqs.append({"slot": index, "class": slot.cls, "k": rng.randint(*slot.k),
                         "p": f"{num}/{den}", "float": slot.with_float})
        rng.shuffle(reqs)
        return reqs

    def run(self, req, call):
        k, p, cls = req["k"], Fraction(req["p"]), req["class"]
        series = call(f"probability.absorption_series.exact.{cls}",
                      absorption_series, k, p, SERIES_TAIL)
        exact = call("probability.absorption_exact", absorption_exact, k, p)
        gf = call("probability.absorption_via_gf", absorption_via_gf, p)
        ok = (
            series.converged
            and series.tail_bound <= SERIES_TAIL
            and series.partial_sum <= exact <= series.partial_sum + series.tail_bound
        )
        detail = "" if ok else f"exact series does not bracket k={k} p={p}"
        if gf**k != exact:
            ok, detail = False, f"gf route differs k={k} p={p}"
        counts = {f"terms.exact.{cls}": series.terms_used}
        work = series.terms_used
        known_defect = False
        if req["float"]:
            pf = float(p)
            fseries = call("probability.absorption_series.float",
                           absorption_series, k, pf, SERIES_TAIL)
            fexact = call("probability.absorption_exact", absorption_exact, k, Fraction(pf))
            counts["terms.float"] = fseries.terms_used
            work += fseries.terms_used
            low = Fraction(fseries.partial_sum)
            high = low + Fraction(fseries.tail_bound) if fseries.converged else None
            if high is None or not low <= fexact <= high:
                miss = float(max(low - fexact, fexact - high)) if high is not None else math.inf
                known_defect = ok and miss <= float_rounding_bound(
                    fseries.terms_used, k, fseries.partial_sum)
                ok = False
                detail = f"float certificate misses k={k} p={pf!r} by {miss:.3g}"
        return Outcome(ok=ok, work=work, counts=counts, known_defect=known_defect,
                       detail=detail)

    def plant(self, seed, rep):
        return 0, "probability.absorption_exact", lambda value: value + Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# oracle: enumeration against counts, order, and the bijections

ORACLE_MAX_K = 6
# Cells grouped by cost at the parent commit, with the number of cells each
# block draws from the group (None: all of them).  The six "median" cells
# (20-75 ms) all run in every block and sit between three cheaper and three
# dearer cells, so the median lands in their middle and no seed moves it.
# They are six cells of spread cost, not one: a shared host can switch
# between speeds about 1.8x apart for seconds to minutes at a time, and the
# median of a single cell jumps between the two speeds as their shares of a
# run cross one half, where the median of a spread of costs moves smoothly.
# The tail lands inside "xheavy", whose two cells also run in every block.
# Larger cells are excluded (see Oracle.exclusions).
ORACLE_GROUPS = (
    ("tiny", [(k, n) for k in (1, 2) for n in range(1, 6) if 2 * n + k <= 12], 1),
    ("tiny", [(k, n) for k in range(3, ORACLE_MAX_K + 1) for n in range(5)
              if 2 * n + k <= 12], 1),
    ("light", [(3, 5), (5, 4), (2, 6)], 1),
    ("median", [(1, 7), (4, 5), (6, 4), (3, 6), (2, 7), (5, 5)], None),
    ("heavy", [(4, 6), (6, 5), (3, 7), (5, 6), (2, 8), (1, 9)], 1),
    ("xheavy", [(4, 7), (6, 6)], None),
)
# Largest cell of the stream; its enumeration is measured under tracemalloc.
ORACLE_ALLOC_CELL = (4, 7)


def _first_return_round_trip(found):
    for path in found:
        alpha, left, right = first_return_decompose(path)
        if first_return_compose(alpha, left, right) != path:
            return False
        if left.right_steps() + right.right_steps() + 1 != path.right_steps():
            return False
    return True


class Oracle(Workload):
    name = "oracle"
    prefix = sum(len(cells) if draws is None else draws for _, cells, draws in ORACLE_GROUPS)
    why = (
        "paths does nearly all the work: materialised LatticePath lists drive "
        "peak memory, and probability and simulator sit idle"
    )
    exclusions = (
        "cells with 2n+k >= 20 and the cells k=5, n=7 and k=3, n=8: 0.9-2.2 s each "
        "at the parent commit (2n+k = 21..22 cost 4-10 s), so one would decide a "
        "6 s window alone",
    )

    def block(self, rng):
        reqs = [{"group": group, "k": k, "n": n}
                for group, cells, draws in ORACLE_GROUPS
                for k, n in (cells if draws is None else
                             [rng.choice(cells) for _ in range(draws)])]
        rng.shuffle(reqs)
        return reqs

    def run(self, req, call):
        k, n = req["k"], req["n"]
        found = call("paths.enumerate_first_passage", enumerate_first_passage, k, n)
        expected = call("combinatorics.ballot_count", ballot_count, k, n)
        counts = {"paths.enumerated": len(found), "paths.serialized": len(found)}
        if len(found) != expected:
            return _fail(f"k={k} n={n}: {len(found)} paths != C_k(n) = {expected}")
        if call("combinatorics.ballot_via_recurrence", ballot_via_recurrence, k, n) != expected:
            return _fail(f"k={k} n={n}: recurrence differs from closed form")
        # C_1(n) = C(n) and C_2(n) = C(n+1), rebuilt by first-return convolution.
        if k <= 2 and call("combinatorics.catalan_via_convolution",
                           catalan_via_convolution, n + k - 1) != expected:
            return _fail(f"k={k} n={n}: convolution differs from the catalan count")
        serialized = call("paths.serialize_all", serialize_all, found)
        if len(set(serialized)) != len(serialized):
            return _fail(f"k={k} n={n}: duplicate paths")
        if serialized != sorted(serialized):
            return _fail(f"k={k} n={n}: canonical order violated")

        if k == 1:
            ok = n == 0 or call("paths.bijection.first_return", _first_return_round_trip, found)
            mapped = len(found) if n else 0
        elif k == 2:
            # Start-1 paths with n+1 rights map onto this cell; prepending
            # the stripped right step must give each source path back.
            source = call("paths.enumerate_first_passage", enumerate_first_passage, 1, n + 1)
            image = call("paths.bijection.shift",
                         lambda: [shift_bijection_k2(path) for path in source])
            image_text = call("paths.serialize_all", serialize_all, image)
            source_text = call("paths.serialize_all", serialize_all, source)
            ok = sorted(image_text) == serialized and \
                [f"1:R{text[2:]}" for text in image_text] == source_text
            add(counts, "paths.enumerated", len(source))
            add(counts, "paths.serialized", 2 * len(source))
            mapped = len(source)
        else:
            to_k, to_k_minus_2 = call("paths.bijection.partition", partition_by_first_step, k, n)
            target = call("paths.enumerate_first_passage", enumerate_first_passage, k - 2, n + 1)
            ok = sorted(call("paths.serialize_all", serialize_all, to_k)) == serialized and \
                sorted(call("paths.serialize_all", serialize_all, to_k_minus_2)) == \
                call("paths.serialize_all", serialize_all, target)
            add(counts, "paths.enumerated", len(target))
            add(counts, "paths.serialized", len(to_k) + len(to_k_minus_2) + len(target))
            mapped = len(to_k) + len(to_k_minus_2)
        counts["paths.bijected"] = mapped
        return Outcome(ok=ok, work=len(found), counts=counts,
                       detail="" if ok else f"k={k} n={n}: bijection round trip fails")

    def after_window(self, seed, rep, records, traced, counters, samples):
        if traced:
            tracemalloc.start()
            enumerate_first_passage(*ORACLE_ALLOC_CELL)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            samples.setdefault("paths.peak_alloc_mb", []).append(peak / 2**20)
        return []

    def plant(self, seed, rep):
        return 0, "combinatorics.ballot_count", lambda count: count + 1


# ---------------------------------------------------------------------------
# cli: one `python -m ruinpaths` subprocess per request

CLI_TIMEOUT_S = 60
CLI_ENV = {
    **{name: value for name, value in os.environ.items() if name != cli.ENV_SEED},
    "PYTHONPATH": str(ROOT / "src"),
}
CLI_STARTUP_SAMPLES = 3


def spawn_python(args: list[str]) -> tuple[int, str, str, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, env=CLI_ENV, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def _text(value: Any) -> str:
    """A value as the CLI prints it in table and csv form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


def parse_rows(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "json":
        payload = json.loads(text)
        rows = payload if isinstance(payload, list) else [payload]
        return [{key: _text(value) for key, value in row.items()} for row in rows]
    lines = text.splitlines()
    if fmt == "csv":
        header, *body = list(csv.reader(lines))
        return [dict(zip(header, line, strict=True)) for line in body]
    # Table: left-justified columns whose headers hold no spaces.
    starts = [match.start() for match in re.finditer(r"\S+", lines[0])]
    names = lines[0].split()
    bounds = list(zip(starts, starts[1:] + [None]))
    return [dict(zip(names, (line[a:b].strip() for a, b in bounds))) for line in lines[1:]]


def _probability_text(rng: random.Random, max_den: int, min_distance: float) -> str:
    while True:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        if abs(num / den - 0.5) >= min_distance:
            break
    return f"{num}/{den}" if rng.random() < 0.5 else f"{num / den:.3f}"


def _parse_p(text: str):
    return Fraction(text) if "/" in text else float(text)


USAGE_ERRORS = (
    ["prob", "--k", "0", "--p", "1/2"],
    ["count", "--k", "3..1", "--n", "0"],
    ["prob", "--k", "2", "--p", "3/2"],
    ["dump", "--k", "1", "--n", "20"],
)


class Cli(Workload):
    name = "cli"
    prefix = 11
    why = (
        "only workload that measures cli and interpreter start-up, a fresh "
        "`python -m ruinpaths` per request, in all three formats"
    )

    def block(self, rng):
        randint = rng.randint
        k_lo, n_lo, dump_k = randint(1, 6), randint(0, 10), randint(1, 4)
        reqs = [
            {"kind": "prob-exact", "argv": ["prob", "--k", str(randint(1, 20)), "--p",
                                            _probability_text(rng, 40, 0.0)]},
            {"kind": "prob-gf", "argv": ["prob", "--k", str(randint(1, 20)), "--p",
                                         _probability_text(rng, 40, 0.0), "--method", "gf"]},
            {"kind": "prob-series", "argv": ["prob", "--k", str(randint(1, 8)), "--p",
                                             _probability_text(rng, 40, 0.15),
                                             "--method", "series"]},
            {"kind": "count", "argv": ["count", "--k", f"{k_lo}..{k_lo + randint(0, 2)}",
                                       "--n", f"{n_lo}..{n_lo + randint(0, 5)}"]},
            {"kind": "converge", "argv": ["converge", "--k", str(randint(1, 6)), "--p",
                                          _probability_text(rng, 40, 0.1),
                                          "--max-terms", str(randint(10, 40))]},
            {"kind": "dump", "argv": ["dump", "--k", str(dump_k), "--n",
                                      str(randint(0, (12 - dump_k) // 2))]},
            {"kind": "simulate", "argv": ["simulate", "--k", str(randint(1, 2)), "--p",
                                          f"{rng.uniform(0.3, 0.9):.2f}",
                                          "--trials", str(randint(2000, 4000)),
                                          "--seed", str(rng.getrandbits(32))]},
            # The slowest request; two per block put the tail percentile
            # inside this class rather than on its lower edge.
            {"kind": "verify", "argv": ["verify", "probability"]},
            {"kind": "verify", "argv": ["verify", "probability"]},
            {"kind": "usage", "argv": list(rng.choice(USAGE_ERRORS))},
            {"kind": "nonconv", "argv": ["prob", "--k", str(randint(1, 3)), "--p", "1/2",
                                         "--method", "series",
                                         "--max-terms", str(randint(100, 300))]},
        ]
        for req in reqs:
            req["format"] = rng.choice(cli.FORMATS)
            req["argv"] += ["--format", req["format"]]
        rng.shuffle(reqs)
        return reqs

    def run(self, req, call):
        code, out, err, wall = call("cli.subprocess", spawn_python, ["-m", "ruinpaths", *req["argv"]])
        counts: Counters = {}
        ok, detail = self.check(req, code, out, err, call, counts)
        return Outcome(ok=ok, counts=counts, detail=detail, latency_s=wall)

    def check(self, req, code, out, err, call, counts) -> tuple[bool, str]:
        kind, argv, fmt = req["kind"], req["argv"], req["format"]
        if kind == "usage":
            ok = code == cli.EXIT_USAGE and out == "" and err.startswith("error:")
            return ok, "" if ok else f"{argv}: exit {code}, expected a usage error"
        expected_code = cli.EXIT_NOT_CONVERGED if kind == "nonconv" else cli.EXIT_OK
        if code != expected_code:
            return False, f"{argv}: exit {code} != {expected_code}: {err.strip()[-200:]}"
        try:
            rows = parse_rows(out, fmt)
        except (ValueError, IndexError) as exc:
            return False, f"{argv}: unparseable output ({exc})"
        expected = self.expected_rows(req, call, counts)
        if kind == "verify":
            ok = len(rows) == expected and all(row["status"] == "PASS" for row in rows)
        elif kind == "converge":
            first, last = expected
            ok = len(rows) == int(argv[6]) + 1 and [row["n"] for row in rows] == \
                [str(n) for n in range(len(rows))] and rows[0]["term"] == first \
                and rows[-1]["partial_sum"] == last
        else:
            ok = rows == expected
        return ok, "" if ok else f"{argv}: output differs from the library"

    @staticmethod
    def expected_rows(req, call, counts):
        kind, argv = req["kind"], req["argv"]
        if kind in ("prob-exact", "prob-gf", "prob-series", "nonconv"):
            k, p = int(argv[2]), _parse_p(argv[4])
            row = {"k": str(k), "p": _text(p), "method": argv[6] if len(argv) > 6 and
                   argv[5] == "--method" else "exact"}
            if kind == "prob-exact":
                row["value"] = _text(call("probability.absorption_exact", absorption_exact, k, p))
            elif kind == "prob-gf":
                row["value"] = _text(call("probability.absorption_via_gf", absorption_via_gf, p) ** k)
            else:
                max_terms = int(argv[8]) if kind == "nonconv" else 100_000
                series = call("probability.absorption_series.cli", absorption_series,
                              k, p, 1e-12, max_terms=max_terms)
                row.update(value=_text(series.partial_sum), terms_used=str(series.terms_used),
                           tail_bound=_text(series.tail_bound),
                           converged=_text(series.converged))
            return [row]
        if kind == "count":
            k_lo, k_hi = map(int, argv[2].split(".."))
            n_lo, n_hi = map(int, argv[4].split(".."))
            return [{"k": str(k), "n": str(n),
                     "count": str(call("combinatorics.ballot_count", ballot_count, k, n))}
                    for k in range(k_lo, k_hi + 1) for n in range(n_lo, n_hi + 1)]
        if kind == "dump":
            found = call("paths.enumerate_first_passage", enumerate_first_passage,
                         int(argv[2]), int(argv[4]))
            counts["paths.enumerated"] = counts["paths.serialized"] = len(found)
            return [{"path": text} for text in call("paths.serialize_all", serialize_all, found)]
        if kind == "simulate":
            k, p = int(argv[2]), float(argv[4])
            trials, seed = int(argv[6]), int(argv[8])
            config = WalkConfig(k=k, p=p, max_steps=MC_MAX_STEPS, trials=trials, seed=seed)
            estimate = call("simulator.estimate_absorption", estimate_absorption, config)
            counts["trials"] = trials
            values = {"k": k, "p": p, "method": "simulate", "value": estimate.point,
                      "ci_low": estimate.ci_low, "ci_high": estimate.ci_high,
                      "absorbed": estimate.absorbed, "censored": estimate.censored,
                      "trials": trials, "max_steps": MC_MAX_STEPS, "seed": seed,
                      "is_lower_bound": estimate.is_lower_bound}
            return [{key: _text(value) for key, value in values.items()}]
        if kind == "converge":
            k, p, max_terms = int(argv[2]), _parse_p(argv[4]), int(argv[6])
            series = call("probability.absorption_series.cli", absorption_series,
                          k, p, 1e-300, max_terms=max_terms + 1)
            return _text((1 - p) ** k), _text(series.partial_sum)
        return 6  # verify probability: six identities, all PASS

    def extras(self, req, outcome, call, counters, samples):
        """Time the same command in-process through cli.main, and re-emit
        multi-row outputs through cli.emit."""
        argv = req["argv"]
        name = "usage" if req["kind"] == "usage" else argv[0]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            call(f"cli.main.{name}", cli.main, argv)
            elapsed = time.perf_counter() - start
        if outcome.latency_s is not None:
            samples.setdefault("cli.startup_ms", []).append(1e3 * (outcome.latency_s - elapsed))
        if req["kind"] in ("count", "dump"):
            rows = [{key: int(value) if value.isdigit() else value for key, value in row.items()}
                    for row in parse_rows(sink.getvalue(), req["format"])]
            call("cli.emit", cli.emit, rows, req["format"], io.StringIO())
            add(counters, "cli.emit_rows", len(rows))

    def after_window(self, seed, rep, records, traced, counters, samples):
        if traced:
            probe = "import time; t = time.perf_counter(); import ruinpaths; " \
                    "print(time.perf_counter() - t)"
            for _ in range(CLI_STARTUP_SAMPLES):
                samples.setdefault("cli.python_ms", []).append(
                    1e3 * spawn_python(["-c", "pass"])[3])
                samples.setdefault("cli.import_ms", []).append(
                    1e3 * float(spawn_python(["-c", probe])[1]))
        return []

    def plant(self, seed, rep):
        def corrupt(result):
            # Drop the last output line, or add one where there was none.
            code, out, err, wall = result
            lines = out.splitlines(keepends=True)
            return code, "".join(lines[:-1]) if lines else "x\n", err, wall
        return 0, "cli.subprocess", corrupt


WORKLOADS: dict[str, Workload] = {w.name: w for w in (MonteCarlo(), Series(), Oracle(), Cli())}
