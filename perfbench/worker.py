"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload mc --seed 1 --rep 0 --window 5 \\
        --traced 0 --out .perfbench_out/mc-rep0.jsonl

The first line written to --out is the moment `import ruinpaths` finished;
then one line per request as it completes, so that a killed worker still
leaves its finished requests behind; the last line sums up the repetition.
With --probe 1 the worker instead runs the first requests of every other
workload traced and reports their layer sums; with --setup-only 1 it stops
once the package is imported.  With --plant 1 one answer is deliberately
corrupted, to prove the checks can fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracing import REQUEST_SPAN, Tracer, direct_call

SRC = Path(__file__).resolve().parent.parent / "src"


def run_repetition(workload, seed, rep, window, traced, plant, write):
    """Closed loop with one client: the next request goes out when the
    previous one has returned, until the window ends and at least the
    workload's prefix is done."""
    from workloads import Outcome  # imports ruinpaths, so only after SRC is on the path

    tracer = Tracer() if traced else None
    base_call = tracer.call if tracer else direct_call
    if plant:
        plant_index, plant_name, corrupt = workload.plant(seed, rep)

        def call(name, fn, *args, **kwargs):
            result = base_call(name, fn, *args, **kwargs)
            return corrupt(result) if name == plant_name and index == plant_index else result
    else:
        call = base_call

    counters: dict[str, float] = {}
    prefix_counters: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    records: list = []
    prefix_digest, full_digest = hashlib.sha256(), hashlib.sha256()
    stream = workload.stream(seed, rep)
    index = 0
    start = time.perf_counter()
    deadline = start + window
    while index < workload.prefix or time.perf_counter() < deadline:
        req = next(stream)
        if tracer:
            tracer.request = index
        began = time.perf_counter()
        try:
            if tracer:
                outcome = tracer.call(REQUEST_SPAN, workload.run, req, call)
            else:
                outcome = workload.run(req, call)
        except Exception as exc:  # a raising request is a failed request
            outcome = Outcome(ok=False, detail=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - began
        if outcome.latency_s is not None:
            latency = outcome.latency_s
        line = {"i": index, "lat": latency, "ok": outcome.ok, "work": outcome.work}
        if not outcome.ok:
            line["known"] = outcome.known_defect
            line["detail"] = outcome.detail
        write(line)
        for name, value in outcome.counts.items():
            counters[name] = counters.get(name, 0) + value
            if index < workload.prefix:
                prefix_counters[name] = prefix_counters.get(name, 0) + value
        records.append(outcome.record if outcome.ok else None)
        if outcome.record is not None:
            item = f"{index}:{outcome.record};".encode()
            full_digest.update(item)
            if index < workload.prefix:
                prefix_digest.update(item)
        if tracer:
            tracer.request = None
            workload.extras(req, outcome, call, counters, samples)
        index += 1
    elapsed = time.perf_counter() - start
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    )
    failures = workload.after_window(seed, rep, records, traced, counters, samples)
    for failed_index, detail in failures:
        write({"i": failed_index, "replay_failed": True, "detail": detail})
    summary = {
        "done": True,
        "requests": index,
        "elapsed": elapsed,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "counters": counters,
        "prefix_counters": prefix_counters,
        "samples": samples,
        # Only workloads that record outcomes (mc) have digests.
        "digest_prefix": prefix_digest.hexdigest() if any(records) else None,
        "digest_all": full_digest.hexdigest() if any(records) else None,
    }
    if tracer:
        summary["trace"] = tracer.summary()
    return summary, tracer


def run_probe(name, seed, write):
    """Traced prefix of every other workload, for the layer metrics the
    workload under test never reaches."""
    from workloads import WORKLOADS

    for other in WORKLOADS.values():
        if other.name == name:
            continue
        summary, _ = run_repetition(other, seed, 0, 0.0, True, False, lambda line: None)
        write({"probe": other.name, **summary})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0,
                        help="exit once ruinpaths is imported")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import ruinpaths

    ready = time.perf_counter()
    with open(args.out, "w") as out:
        def write(line):
            out.write(json.dumps(line) + "\n")
            out.flush()

        write({"ready": ready, "ruinpaths": ruinpaths.__file__})
        if Path(ruinpaths.__file__).resolve().parent.parent != SRC:
            write({"error": f"imported ruinpaths from {ruinpaths.__file__}, not {SRC}"})
            return 2
        if args.setup_only:
            return 0
        import numpy

        write({"python": sys.version.split()[0], "numpy": numpy.__version__})
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        write({"describe": {"why": workload.why, "exclusions": list(workload.exclusions),
                            "prefix_requests": workload.prefix}})
        if args.probe:
            run_probe(workload.name, args.seed, write)
        else:
            summary, tracer = run_repetition(
                workload, args.seed, args.rep, args.window, bool(args.traced),
                bool(args.plant), write)
            if tracer and args.spans:
                tracer.write(args.spans)
            write(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
