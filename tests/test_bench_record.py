"""tools/bench_record.py refuses a tree that holds compiled bytecode before
it starts any perfbench run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def started():
    """The trees perfbench was started in, in order."""
    return []


@pytest.fixture
def bench_record(monkeypatch, started):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def perfbench(tree, workload, seed, trace):
        started.append(tree)
        return {"workload": workload, "seed": seed, "trace": trace,
                "result": {"metrics": {"req_per_s": {"value": 1.0}}},
                "machine": {}, "host_loop_ms": 1.0}

    monkeypatch.setattr(module, "perfbench", perfbench)
    return module


def make_trees(tmp_path):
    trees = {}
    for side in ("parent", "change"):
        trees[side] = tmp_path / side
        (trees[side] / "src" / "ruinpaths").mkdir(parents=True)
    return trees


def argv(tmp_path, trees):
    return ["--out", str(tmp_path / "BENCH.json"), "--tree", str(trees["change"]),
            "--parent-tree", str(trees["parent"]), "--workload", "series", "--pairs", "1"]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_refuses_a_tree_with_pycache_before_any_run(bench_record, started, tmp_path, side):
    trees = make_trees(tmp_path)
    cache = trees[side] / "src" / "ruinpaths" / "__pycache__"
    cache.mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main(argv(tmp_path, trees))
    assert str(cache.resolve()) in str(exit_info.value.code)
    assert started == []
    assert not (tmp_path / "BENCH.json").exists()


def test_runs_both_clean_trees(bench_record, started, tmp_path):
    trees = make_trees(tmp_path)
    assert bench_record.main(argv(tmp_path, trees)) == 0
    assert started == [trees["parent"].resolve(), trees["change"].resolve()]
    assert (tmp_path / "BENCH.json").exists()
