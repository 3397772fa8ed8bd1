import subprocess
import sys
import types

import pytest

import ruinpaths


def test_all_lists_exactly_the_public_names():
    modules = (ruinpaths.combinatorics, ruinpaths.paths, ruinpaths.probability,
               ruinpaths.simulator)
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    declared = [name for module in modules for name in module.__all__]
    assert ruinpaths.__all__ == declared + ["__version__"]
    for name in ruinpaths.__all__:
        assert hasattr(ruinpaths, name), name
    public = {
        name
        for name, value in vars(ruinpaths).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(ruinpaths.__all__)


# numpy is the simulator's alone: the other routes and every non-simulating
# command must run without importing it.  Nothing imports multiprocessing,
# not even an estimate that splits across workers (those are bare forks).
# Each check needs an interpreter in which nothing has imported either yet.

def fresh_last_line(code: str) -> str:
    """The last stdout line of `code` run in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1]


def test_import_does_not_load_numpy():
    code = "import sys, ruinpaths; print('numpy' in sys.modules, 'multiprocessing' in sys.modules)"
    assert fresh_last_line(code) == "False False"


@pytest.mark.parametrize(
    ("argv", "status", "loads_numpy"),
    [
        (["count", "--k", "1..3", "--n", "0..4"], 0, False),
        (["prob", "--k", "2", "--p", "3/5"], 0, False),
        (["prob", "--k", "2", "--p", "0.6", "--method", "gf"], 0, False),
        (["prob", "--k", "2", "--p", "3/5", "--method", "series"], 0, False),
        (["converge", "--k", "2", "--p", "1/4", "--max-terms", "5"], 0, False),
        (["dump", "--k", "2", "--n", "3"], 0, False),
        (["verify", "probability"], 0, False),
        # Bad input is refused before numpy loads.
        (["simulate", "--k", "1", "--p", "0.6", "--trials", "0"], 2, False),
        (["simulate", "--k", "1", "--p", "0.6", "--max-steps", "0"], 2, False),
        (["simulate", "--k", "1", "--p", "0.6", "--seed", "-1"], 2, False),
        (["simulate", "--k", "1", "--p", "0.6", "--max-steps", str(2**63 + 1)], 2, False),
        (["simulate", "--k", "1", "--p", "0.6", "--trials", "10", "--seed", "1"], 0, True),
        (["prob", "--k", "1", "--p", "0.6", "--method", "simulate", "--trials", "10",
          "--seed", "1"], 0, True),
        # Enough trials to split on 2 CPUs.
        (["simulate", "--k", "1", "--p", "0.6", "--trials", "200", "--seed", "1"], 0, True),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_only_simulation_loads_numpy(argv, status, loads_numpy):
    code = (
        "import sys\n"
        "from ruinpaths import cli\n"
        f"status = cli.main({argv!r})\n"
        "print(status, 'numpy' in sys.modules, 'multiprocessing' in sys.modules)\n"
    )
    assert fresh_last_line(code) == f"{status} {loads_numpy} False"


def test_walk_config_leaves_numpy_unloaded_until_an_estimate():
    code = (
        "import sys\n"
        "from ruinpaths import WalkConfig, estimate_absorption, run_walk\n"
        "config = WalkConfig(k=1, p=0.6, max_steps=100, trials=10, seed=1)\n"
        "before = 'numpy' in sys.modules\n"
        "estimate_absorption(config)\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    assert fresh_last_line(code) == "False True"


def test_simulator_names_resolve_to_the_simulator_module():
    code = (
        "import ruinpaths\n"
        "names = ('Absorbed', 'AbsorptionEstimate', 'Censored', 'WalkConfig',\n"
        "         'estimate_absorption', 'run_walk')\n"
        "values = [getattr(ruinpaths, name) for name in names]\n"
        "print(all(value is getattr(ruinpaths.simulator, name)\n"
        "          for name, value in zip(names, values)))\n"
    )
    assert fresh_last_line(code) == "True"


def test_star_import_binds_every_public_name():
    code = (
        "from ruinpaths import *\n"
        "import ruinpaths\n"
        "print(all(globals()[name] is getattr(ruinpaths, name) for name in ruinpaths.__all__))\n"
    )
    assert fresh_last_line(code) == "True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ruinpaths.no_such_name
    assert not hasattr(ruinpaths, "no_such_name")
