"""Self-checks of the benchmark: its answer checks can fail, and the metric
names it prints are the ones BENCHMARK.json declares.

Each workload runs its shortest repetition (the prefix requests only) twice
in a fresh worker: once as is, where no unexpected failure may show, and
once with one answer deliberately corrupted (a ballot count off by one, an
absorbed count off by one, an exact value moved off its bracket, a CLI
output line dropped), which must be reported as failed.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _worker(workload: str, plant: int) -> list[dict]:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"selfcheck-{workload}-plant{plant}.jsonl"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "7",
         "--window", "0", "--plant", str(plant), "--out", str(out)],
        check=True, timeout=120, cwd=ROOT,
    )
    return [json.loads(line) for line in out.read_text().splitlines()]


def _unexpected_failures(lines: list[dict]) -> list[str]:
    return [line["detail"] for line in lines
            if line.get("replay_failed") or ("ok" in line and not line["ok"]
                                             and not line.get("known"))]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_planted_fault_is_reported(workload):
    assert _unexpected_failures(_worker(workload, plant=0)) == []
    assert _unexpected_failures(_worker(workload, plant=1)) != []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_result_counts_cover_only_the_checked_sample():
    def rep(lines, hung=False, replay_failed=None):
        return {"lines": lines, "hung": hung, "replay_failed": replay_failed or {}}

    reps = [
        rep([{"i": 0, "ok": True}, {"i": 1, "ok": False, "known": True, "detail": "float"},
             {"i": 2, "ok": False, "known": True, "detail": "float"}]),
        rep([{"i": 0, "ok": True}, {"i": 1, "ok": True}, {"i": 2, "ok": False, "detail": "bad"}],
            replay_failed={0: "replay"}),
    ]
    sample, timed, failures = run.tally(reps, prefix=2)
    assert sample == {"attempted": 4, "failed": 2, "known": 1}
    assert timed == {"attempted": 6, "failed": 4, "known": 2}
    assert len(failures) == 4
