"""Record alternating perfbench runs of a parent and a change in a BENCH file.

    python3 tools/bench_record.py --out BENCH_18.json --pairs 10 --parent-tree ../parent \
        --workload series [--trace 1]

One workload runs N times in each of --parent-tree and --tree (default: the
checkout this file sits in), pair i at seed --seed + i, as

    python3 perfbench/run.py --workload W --seed S --seconds 25 --trace T

the parent first in even pairs and the change first in odd ones, so that
host drift over the runs falls on both sides alike.  Under pairs of
--out, keyed by the workload (with ".traced" for --trace 1), it stores every
run's result line (the last line of its stdout) with its pair, side, and the
machine and host_loop_ms of its record.  A traced run reports the metrics
its own requests never reach from a probe of the other workloads, and 0.0
for those no probe reaches either; those are listed under "unmeasured" in
its run.  Per side and metric it stores the median and quartiles;
change_wins counts the pairs in which the change is better on a metric, in
the direction BENCHMARK.json gives it.  Each metric's outcome is stated too:

    gain_met      over at least 10 pairs, the change won at least 9 of
                  every 10, and its median is better than the parent's by
                  more than the parent's interquartile range
    within_bound  the change's median is worse than the parent's by no more
                  than the metric's BENCHMARK.json bound, a fraction of the
                  parent's median; only metrics with a bound have one

Other keys already in --out are kept.  A run's machine names its
checkout's HEAD commit and hashes its src/ tree, so uncommitted sources show
in source_sha256 only.

Each record also stores dont_write_bytecode: whether PYTHONDONTWRITEBYTECODE
is set in the environment the perfbench children inherit.  When it is, no
.pyc is written, so in a checkout without one every fresh CLI request
compiles all of src/ruinpaths again: about 1,750 lines, which compile()
turns into code in 10-14 ms on a 2-CPU host, over half of it for cli.py.
Start-up numbers from records that differ on this setting cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc", "series", "oracle", "cli")
SECONDS = 25


def perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its result line with the record's machine and
    host-speed gauge beside it."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {proc.returncode}:\n{proc.stderr}")
    *_, record_line, result_line = proc.stdout.splitlines()
    record = json.loads(record_line)["record"]
    run = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "result": json.loads(result_line),
        "machine": record["machine"],
        "host_loop_ms": record["host_loop_ms"],
    }
    if trace:
        run["unmeasured"] = record["unmeasured"]
    return run


def spread(values: list[float]) -> dict:
    """Median and quartiles, interpolated between the sorted values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3}


def compare(runs: list[dict]) -> dict:
    """Per side and metric the median and quartiles of paired runs, and per
    metric the change's wins and its gain_met and within_bound outcomes."""
    pairs = len({run["pair"] for run in runs})
    values = {"parent": {}, "change": {}}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values[run["side"]].setdefault(name, []).append(metric["value"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {side: {name: spread(v) for name, v in metrics.items()}
               for side, metrics in values.items()}
    wins, gain_met, within_bound = {}, {}, {}
    for name in values["change"]:
        if name not in specs:
            continue
        # Signed so that a positive gain is better: change minus parent if
        # higher is better, parent minus change if lower is.
        sign = 1 if specs[name]["better"] == "higher" else -1
        wins[name] = sum(sign * (c - p) > 0
                         for p, c in zip(values["parent"][name], values["change"][name]))
        parent, change = summary["parent"][name], summary["change"][name]
        gain = sign * (change["median"] - parent["median"])
        gain_met[name] = (pairs >= 10 and 10 * wins[name] >= 9 * pairs
                          and gain > parent["q3"] - parent["q1"])
        if "bound" in specs[name]:
            within_bound[name] = -gain <= specs[name]["bound"] * abs(parent["median"])
    return {"summary": summary, "change_wins": wins, "gain_met": gain_met,
            "within_bound": within_bound}


def record_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
                 trace: int) -> dict:
    trees = {"parent": parent, "change": change}
    runs = []
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = perfbench(trees[side], workload, seed + pair, trace)
            runs.append({"pair": pair, "side": side, **run})
    return {
        "workload": workload,
        "trace": trace,
        "runs": runs,
        **compare(runs),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<pr>.json to update")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the change's checkout")
    parser.add_argument("--parent-tree", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, required=True,
                        help="alternating parent/change pairs to run")
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="perfbench --trace")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = args.workload + (".traced" if args.trace else "")
    bench.setdefault("pairs", {})[key] = record_pairs(
        args.parent_tree.resolve(), args.tree.resolve(), args.workload, args.pairs,
        args.seed, args.trace)
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
