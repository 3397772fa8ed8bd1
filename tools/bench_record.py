"""Record one side of a BENCH_<pr>.json file from perfbench runs, or
alternating pairs of a parent and a change.

    python3 tools/bench_record.py --out BENCH_11.json --side change
    python3 tools/bench_record.py --out BENCH_11.json --side parent --tree ../parent
    python3 tools/bench_record.py --out BENCH_18.json --pairs 10 --parent-tree ../parent \
        --workload series [--trace 1]

In the checkout --tree (default: the one this file sits in) it runs

    python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0

for each of the four workloads, then one `--trace 1` run of each.  Under
--side of --out it stores each run's result line (the last line of its
stdout) with the machine and host_loop_ms of its record, and, by workload,
every per-layer metric of the traced result lines.  A traced run reports
the metrics its own requests never reach from a probe of the other
workloads, and 0.0 for those no probe reaches either; those are listed
under "unmeasured" in its run.  Other sides already in --out are kept, so
that the parent and the change of one commit can be recorded into one file,
one after the other.

Each side also records dont_write_bytecode: whether PYTHONDONTWRITEBYTECODE
is set in the environment the perfbench children inherit.  When it is, no
.pyc is written or reused, so every fresh CLI request compiles all of
src/ruinpaths again: about 1,740 lines, which compile() turns into code in
10-14 ms on a 2-CPU host, over half of it for cli.py.  Start-up numbers
from sides that differ on this setting cannot be compared.

The record's machine names the checkout's HEAD commit and hashes its src/
tree, so uncommitted sources show in source_sha256 only.

With --pairs N, one workload runs N times in each of --parent-tree and
--tree, pair i at seed --seed + i, the parent first in even pairs and the
change first in odd ones, so that host drift over the session falls on both
sides alike.  Under pairs of --out, keyed by the workload (with ".traced"
for --trace 1), it stores every run with its pair, side and host_loop_ms,
and per side and metric the median and quartiles; change_wins counts the
pairs in which the change is better on a metric, in the direction
BENCHMARK.json gives it.  Each metric's outcome is stated too:

    gain_met      over at least 10 pairs, the change won at least 9 of
                  every 10, and its median is better than the parent's by
                  more than the parent's interquartile range
    within_bound  the change's median is worse than the parent's by no more
                  than the metric's BENCHMARK.json bound, a fraction of the
                  parent's median; only metrics with a bound have one
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


def record_side(tree: Path, seed: int) -> dict:
    runs = [perfbench(tree, workload, seed, trace)
            for trace in (0, 1) for workload in WORKLOADS]
    layers = {run["workload"]: {name: metric["value"]
                                for name, metric in run["result"]["metrics"].items()}
              for run in runs if run["trace"]}
    # Python reads any non-empty value as set.
    dont_write_bytecode = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    return {"runs": runs, "layers": layers, "dont_write_bytecode": dont_write_bytecode}


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
    parser.add_argument("--side", help='key to record under, e.g. "parent"')
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, help="alternating parent/change pairs to run")
    parser.add_argument("--parent-tree", type=Path, help="the parent checkout, with --pairs")
    parser.add_argument("--workload", choices=WORKLOADS, help="the workload, with --pairs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="perfbench --trace, with --pairs")
    args = parser.parse_args(argv)
    if args.pairs is None and args.side is None:
        parser.error("give --side, or --pairs with --parent-tree and --workload")
    if args.pairs is not None and (args.side is not None or args.parent_tree is None
                                   or args.workload is None or args.pairs < 1):
        parser.error("--pairs N (N >= 1) takes --parent-tree and --workload, not --side")
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.pairs is None:
        bench[args.side] = record_side(args.tree.resolve(), args.seed)
    else:
        key = args.workload + (".traced" if args.trace else "")
        bench.setdefault("pairs", {})[key] = record_pairs(
            args.parent_tree.resolve(), args.tree.resolve(), args.workload, args.pairs,
            args.seed, args.trace)
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
