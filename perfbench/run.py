"""Benchmark for ruinpaths.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 25 --trace 0

Runs one workload (mc, series, oracle or cli) as a closed loop with one
client for --seconds of timed work, split over REPS repetitions, each in a
fresh interpreter so that the package's lru_cache tables start cold as they
do for every user session.  Every answer is checked.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
the line before it is the run's full record (machine, exclusions,
percentiles, digests, failures).

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced repetition on the same inputs, derives the per-layer metrics from
spans around the benchmark's own calls into each module, and reports the
tracing overhead from the pair.  Layer metrics a workload never reaches come
from a traced probe of the other workloads' first requests.

The program is imported from src/ of the checkout this file sits in; the
benchmark exits with code 2, printing no result, where there is none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("mc", "series", "oracle", "cli")
REPS = 4
# Extra interpreters that only import ruinpaths, started after each
# repetition, so that setup_s is the median of REPS * (1 + SETUP_ONLY)
# start-ups spread over the whole run: interpreter start-up on a shared host
# drifts by a third within seconds.
SETUP_ONLY = 2
# A request still running this long after its window is counted as hung.
GRACE_S = 45.0
# Every worker is killed by then, so that a run ends within 180 s.
BUDGET_S = 165.0
TAIL_BEYOND = 10

LAYERS = ("combinatorics", "paths", "probability", "simulator", "cli", "harness")
CLI_SUBCOMMANDS = ("count", "prob", "simulate", "converge", "dump", "verify")

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# workers

def run_worker(workload, seed, tag, window, deadline, *, rep=0, traced=False, probe=False,
               setup_only=False):
    out = OUT_DIR / f"{workload}-{seed}-{tag}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--window", repr(window),
           "--traced", str(int(traced)), "--probe", str(int(probe)),
           "--setup-only", str(int(setup_only)), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(OUT_DIR / f"{workload}-{seed}-{tag}.spans.jsonl")]
    out.unlink(missing_ok=True)
    spawned = time.perf_counter()
    # Its own session, so that a kill also ends the CLI subprocess it may be
    # waiting on.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    timeout = min(window + GRACE_S, deadline - time.perf_counter())
    hung = False
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        hung, code = True, None
    killed_at = time.perf_counter()

    result = {"hung": hung, "lines": [], "replay_failed": {}, "summary": None, "probes": {}}
    lines = out.read_text().splitlines() if out.exists() else []
    for text in lines:
        try:
            line = json.loads(text)
        except json.JSONDecodeError:
            continue  # a line cut short by a kill
        if "error" in line:
            raise BenchError(line["error"])
        if "ready" in line:
            result["setup_s"] = line["ready"] - spawned
            result["ready"] = line["ready"]
        elif "numpy" in line:
            result["versions"] = line
        elif "describe" in line:
            result["describe"] = line["describe"]
        elif "probe" in line:
            result["probes"][line["probe"]] = line
        elif line.get("replay_failed"):
            result["replay_failed"][line["i"]] = line["detail"]
        elif "done" in line:
            result["summary"] = line
        elif "i" in line:
            result["lines"].append(line)
    if "setup_s" not in result:
        raise BenchError(f"worker for {workload} never imported ruinpaths (exit {code})")
    if not hung and (code != 0 or (result["summary"] is None and not probe and not setup_only)):
        raise BenchError(f"worker for {workload} exited with {code}")
    result["elapsed"] = (
        result["summary"]["elapsed"] if result["summary"] else killed_at - result["ready"]
    )
    return result


# ---------------------------------------------------------------------------
# end-to-end metrics

def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    beyond = len(ordered) - 1 - index
    return ordered[index], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def tally(reps, prefix):
    """Attempted, failed and known-defect counts, over the checked sample
    (the first `prefix` requests of every repetition, fixed by the seed) and
    over every timed request; a hung worker leaves one request attempted and
    never answered, and counts in both."""
    sample = {"attempted": 0, "failed": 0, "known": 0}
    timed = dict(sample)
    failures = []
    for rep in reps:
        for counts in (sample, timed):
            counts["attempted"] += rep["hung"]
            counts["failed"] += rep["hung"]
        if rep["hung"]:
            failures.append("a request hung past the run and was killed")
        for line in rep["lines"]:
            scopes = (sample, timed) if line["i"] < prefix else (timed,)
            replay = rep["replay_failed"].get(line["i"])
            bad = not line["ok"] or replay is not None
            known = bad and bool(line.get("known")) and replay is None
            for counts in scopes:
                counts["attempted"] += 1
                counts["failed"] += bad
                counts["known"] += known
            if bad:
                failures.append(line.get("detail") or replay)
    return sample, timed, failures


def end_to_end(reps, setups):
    latencies = [line["lat"] for rep in reps for line in rep["lines"]]
    elapsed = sum(rep["elapsed"] for rep in reps)
    tail_s, percentile, beyond = tail(latencies)
    setup_samples = [rep["setup_s"] for rep in reps + setups]
    values = {
        "setup_s": statistics.median(setup_samples),
        "req_per_s": len(latencies) / elapsed,
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_tail_ms": 1e3 * tail_s,
        "work_per_s": sum(line["work"] for rep in reps for line in rep["lines"]) / elapsed,
        "peak_rss_mb": statistics.median(
            rep["summary"]["peak_rss_mb"] for rep in reps if rep["summary"]),
    }
    record = {"requests": len(latencies), "req_tail_percentile": percentile,
              "req_tail_beyond": beyond,
              "setup_s_samples": setup_samples}
    return values, record


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(numerator, denominator, scale=1.0):
    """numerator / denominator * scale, or None where either side is empty."""
    return numerator / denominator * scale if numerator and denominator else None


def _share(part, whole):
    return part / whole if whole else None


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(summary):
    """Per-layer metrics from one traced repetition's sums; None where it
    holds no data."""
    spans = summary["trace"]["spans"]
    c, s = summary["counters"], summary["samples"]

    def seconds(name):
        return spans.get(name, (0.0, 0))[0]

    def per_call(name, scale):
        total, calls = spans.get(name, (0.0, 0))
        return _ratio(total, calls, scale)

    walk_seconds = sum(c.get(f"run_walk.s.{phase}", 0.0)
                       for phase in ("first_chunk", "later", "censored"))
    replayed = c.get("replay.trials", 0)
    bijection_seconds = sum(total for name, (total, _) in spans.items()
                            if name.startswith("paths.bijection."))
    exact_terms = sum(summary["prefix_counters"].get(f"terms.exact.{cls}", 0)
                      for cls in ("small", "mid"))
    values = {
        "simulator.estimate.us_per_trial":
            _ratio(seconds("simulator.estimate_absorption"), c.get("trials"), 1e6),
        "simulator.overhead.us_per_trial":
            _ratio(c.get("replay.estimate_s", 0.0) - walk_seconds, replayed, 1e6),
    }
    for phase in ("first_chunk", "later", "censored"):
        values[f"simulator.run_walk.us.{phase}"] = _ratio(
            c.get(f"run_walk.s.{phase}"), c.get(f"run_walk.n.{phase}"), 1e6)
    values["simulator.trials.first_chunk_frac"] = _share(c.get("run_walk.n.first_chunk", 0), replayed)
    values["simulator.trials.censored_frac"] = _share(c.get("run_walk.n.censored", 0), replayed)
    for cls in ("small", "mid"):
        values[f"probability.series_exact.terms_per_s.{cls}"] = _ratio(
            c.get(f"terms.exact.{cls}"), seconds(f"probability.absorption_series.exact.{cls}"))
    values.update({
        "probability.series_exact.terms": exact_terms or None,
        "probability.series_float.terms_per_s":
            _ratio(c.get("terms.float"), seconds("probability.absorption_series.float")),
        "probability.gf.us_per_call": per_call("probability.absorption_via_gf", 1e6),
        "probability.exact.us_per_call": per_call("probability.absorption_exact", 1e6),
        "paths.enumerate.paths_per_s":
            _ratio(c.get("paths.enumerated"), seconds("paths.enumerate_first_passage")),
        "paths.enumerate.peak_alloc_mb": _median(s.get("paths.peak_alloc_mb")),
        "paths.serialize.us_per_path":
            _ratio(seconds("paths.serialize_all"), c.get("paths.serialized"), 1e6),
        "paths.bijections.us_per_path": _ratio(bijection_seconds, c.get("paths.bijected"), 1e6),
        "combinatorics.ballot_count.us_per_cell": per_call("combinatorics.ballot_count", 1e6),
        "combinatorics.ballot_via_recurrence.us_per_cell":
            per_call("combinatorics.ballot_via_recurrence", 1e6),
        "combinatorics.catalan_via_convolution.us_per_call":
            per_call("combinatorics.catalan_via_convolution", 1e6),
        "cli.import_ms": _median(s.get("cli.import_ms")),
        "cli.python_ms": _median(s.get("cli.python_ms")),
        "cli.startup_ms": _median(s.get("cli.startup_ms")),
    })
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.main.ms.{sub}"] = per_call(f"cli.main.{sub}", 1e3)
    values["cli.emit.us_per_row"] = _ratio(seconds("cli.emit"), c.get("cli.emit_rows"), 1e6)
    return values


PER_LAYER_UNITS = {
    "simulator.estimate.us_per_trial": "us",
    "simulator.overhead.us_per_trial": "us",
    "simulator.run_walk.us.first_chunk": "us",
    "simulator.run_walk.us.later": "us",
    "simulator.run_walk.us.censored": "us",
    "simulator.trials.first_chunk_frac": "frac",
    "simulator.trials.censored_frac": "frac",
    "probability.series_exact.terms_per_s.small": "1/s",
    "probability.series_exact.terms_per_s.mid": "1/s",
    "probability.series_exact.terms": "count",
    "probability.series_float.terms_per_s": "1/s",
    "probability.gf.us_per_call": "us",
    "probability.exact.us_per_call": "us",
    "paths.enumerate.paths_per_s": "1/s",
    "paths.enumerate.peak_alloc_mb": "MB",
    "paths.serialize.us_per_path": "us",
    "paths.bijections.us_per_path": "us",
    "combinatorics.ballot_count.us_per_cell": "us",
    "combinatorics.ballot_via_recurrence.us_per_cell": "us",
    "combinatorics.catalan_via_convolution.us_per_call": "us",
    "cli.import_ms": "ms",
    "cli.python_ms": "ms",
    "cli.startup_ms": "ms",
    **{f"cli.main.ms.{sub}": "ms" for sub in CLI_SUBCOMMANDS},
    "cli.emit.us_per_row": "us",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def per_layer(workload, plain, traced, probe):
    """Layer metrics of the traced repetition; those the workload never
    reaches come from the probe of the other workloads."""
    summary = traced["summary"]
    values = layer_metrics(summary)
    sources = {name: workload for name, value in values.items() if value is not None}
    for other, probed in probe["probes"].items():
        for name, value in layer_metrics(probed).items():
            if values.get(name) is None and value is not None:
                values[name], sources[name] = value, other
    trace = summary["trace"]
    for layer in LAYERS:
        values[f"{layer}.share"] = _share(trace["layer_self"].get(layer, 0.0),
                                          trace["request_time"])
    # Median over the requests both repetitions ran of traced / untraced
    # latency: robust to a few slow requests on a noisy host.
    values["trace.overhead_frac"] = statistics.median(
        traced_line["lat"] / plain_line["lat"]
        for plain_line, traced_line in zip(plain["lines"], traced["lines"])
    ) - 1.0
    unmeasured = sorted(name for name, value in values.items() if value is None)
    for name in unmeasured:
        values[name] = 0.0
    return values, {"sources": sources, "unmeasured": unmeasured}


# ---------------------------------------------------------------------------
# machine record

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine(versions):
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in (_read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), None)
    l3 = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def host_loop_ms(samples=5):
    """Median time of a fixed pure-Python loop: a gauge of how fast the host
    runs at the moment, for reading the spread between runs."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


# ---------------------------------------------------------------------------

def run(args):
    gauge_before = host_loop_ms()
    started = time.perf_counter()
    deadline = started + BUDGET_S
    window = args.seconds / REPS
    name, seed = args.workload, args.seed
    if args.trace:
        # One untraced and one traced repetition on the same inputs, then
        # the probe: about as long as an untraced run in all.
        plain = run_worker(name, seed, "t1-r0", window, deadline)
        traced = run_worker(name, seed, "t1-r0-traced", window, deadline, traced=True)
        probe = run_worker(name, seed, "t1-probe", 0.0, deadline, probe=True)
        reps = [plain, traced]
        values, layer_record = per_layer(name, plain, traced, probe)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in PER_LAYER_UNITS.items()}
    else:
        reps, setups = [], []
        for rep in range(REPS):
            reps.append(run_worker(name, seed, f"t0-r{rep}", window, deadline, rep=rep))
            setups += [run_worker(name, seed, f"t0-setup{rep}-{i}", 0.0, deadline,
                                  setup_only=True)
                       for i in range(SETUP_ONLY)]
        values, layer_record = end_to_end(reps, setups)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END.items()}

    prefix = reps[0]["describe"]["prefix_requests"]
    sample, timed, failures = tally(reps, prefix)
    record = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": len(reps),
        "window_s": window,
        "closed_loop_clients": 1,
        "checked_sample": sample,
        "all_timed": timed,
        "fail_frac": sample["failed"] / sample["attempted"],
        "fail_frac_all_timed": timed["failed"] / timed["attempted"],
        "failures": failures[:20],
        "digests": [{"prefix": rep["summary"]["digest_prefix"],
                     "all": rep["summary"]["digest_all"],
                     "requests": rep["summary"]["requests"]}
                    for rep in reps if rep["summary"] and rep["summary"]["digest_all"]],
        "machine": machine(reps[0].get("versions", {})),
        "host_loop_ms": [gauge_before, host_loop_ms()],
        "wall_s": time.perf_counter() - started,
        **reps[0].get("describe", {}),
        **layer_record,
    }
    print(json.dumps({"record": record}))
    return {
        # A float-series cell whose certificate misses by no more than its
        # own rounding error is the known defect of the float certificate:
        # it counts as failed but does not make the run incorrect.  Any
        # other failure, in the sample or not, does.
        "correct": timed["failed"] == timed["known"],
        # Counted over the checked sample, so that two runs on one seed
        # report the same counts however many requests their windows held.
        "attempted": sample["attempted"],
        "failed": sample["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="ruinpaths benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ruinpaths" / "__init__.py").is_file():
        print(f"error: no ruinpaths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
