"""Record one side of a BENCH_<pr>.json file from perfbench runs.

    python3 tools/bench_record.py --out BENCH_11.json --side change
    python3 tools/bench_record.py --out BENCH_11.json --side parent --tree ../parent

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
src/ruinpaths again: about 1,470 lines, which compile() turns into code in
10-14 ms on a 2-CPU host, over half of it for cli.py.  Start-up numbers
from sides that differ on this setting cannot be compared.

The record's machine names the checkout's HEAD commit and hashes its src/
tree, so uncommitted sources show in source_sha256 only.
"""

from __future__ import annotations

import argparse
import json
import os
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<pr>.json to update")
    parser.add_argument("--side", required=True, help='key to record under, e.g. "parent"')
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    side = record_side(args.tree.resolve(), args.seed)
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench[args.side] = side
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
