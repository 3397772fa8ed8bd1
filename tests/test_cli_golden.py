"""Golden output of every subcommand in all three formats.

Each command runs in-process through cli.main with a fixed terminal width,
and its stdout, stderr and exit code are compared byte for byte with
tests/cli_golden.json.  Simulation rows are the exception: numpy does not
promise that Generator.binomial streams stay the same across versions, so a
successful `simulate` or `prob --method simulate` is compared with the row
built from estimate_absorption in this process instead of frozen numbers.
Usage errors and --help pages are argparse's own text, whose wording varies
between Python versions; the file was captured with Python 3.11.

Regenerate the file (only when an output change is intended, and review the
diff) with:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ruinpaths import cli
from ruinpaths.simulator import WalkConfig, estimate_absorption

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("table", "csv", "json")


def _each_format(*argv: str) -> list[list[str]]:
    return [[*argv, "--format", fmt] for fmt in FORMATS]


# (argv, environment) pairs; RUINPATHS_SEED is unset unless given here.
COMMANDS: list[tuple[list[str], dict[str, str]]] = [
    (argv, {})
    for argv in [
        *_each_format("count", "--k", "1..3", "--n", "0..6"),
        *_each_format("count", "--k", "2", "--n", "3"),
        *_each_format("count", "--k", "5..7", "--n", "10..12"),
        ["count", "--k", "1", "--n", "40"],
        *_each_format("prob", "--k", "3", "--p", "3/4"),
        *_each_format("prob", "--k", "2", "--p", "0.6"),
        ["prob", "--k", "2", "--p", "0.25", "--format", "json"],
        ["prob", "--k", "4", "--p", "1", "--format", "csv"],
        *_each_format("prob", "--k", "2", "--p", "2/3", "--method", "gf"),
        ["prob", "--k", "3", "--p", "0.3", "--method", "gf", "--format", "csv"],
        *_each_format("prob", "--k", "2", "--p", "3/5", "--method", "series", "--tail", "1e-9"),
        *_each_format("prob", "--k", "2", "--p", "0.6", "--method", "series", "--tail", "1e-9"),
        *_each_format("prob", "--k", "1", "--p", "1/2", "--method", "series", "--max-terms", "50"),
        ["prob", "--k", "2", "--p", "0.499", "--method", "series", "--max-terms", "200"],
        *_each_format("prob", "--k", "2", "--p", "0.6", "--method", "simulate",
                      "--trials", "500", "--max-steps", "2000", "--seed", "7"),
        *_each_format("simulate", "--k", "2", "--p", "0.6", "--trials", "500",
                      "--max-steps", "2000", "--seed", "7"),
        ["simulate", "--k", "3", "--p", "0.9", "--trials", "100", "--max-steps", "50",
         "--seed", "3", "--format", "csv"],
        ["simulate", "--k", "1", "--p", "1/3", "--trials", "200", "--format", "json"],
        *_each_format("converge", "--k", "2", "--p", "1/4", "--max-terms", "10"),
        *_each_format("converge", "--k", "2", "--p", "0.25", "--max-terms", "3"),
        ["converge", "--k", "4", "--p", "3/5", "--max-terms", "8", "--format", "csv"],
        ["converge", "--k", "1", "--p", "1/2", "--max-terms", "5", "--format", "csv"],
        ["converge", "--k", "2", "--p", "0", "--max-terms", "3", "--format", "json"],
        ["converge", "--k", "3", "--p", "1", "--max-terms", "2"],
        ["converge", "--k", "1", "--p", "0.3", "--max-terms", "0"],
        # Near-critical: 4p(1-p) is just below 1, so rows carry tail bounds
        # from tail_start(k) on (n = 0 at k = 2, n = 2 at k = 3), where
        # absorption_series would certify; only p = 1/2 has none.
        *_each_format("converge", "--k", "2", "--p", "0.499", "--max-terms", "5"),
        ["converge", "--k", "3", "--p", "51/100", "--max-terms", "4", "--format", "csv"],
        *_each_format("dump", "--k", "2", "--n", "3"),
        ["dump", "--k", "1", "--n", "0", "--format", "json"],
        ["dump", "--k", "3", "--n", "2", "--format", "csv"],
        ["verify"],
        *_each_format("verify", "recurrences", "--max-k", "5", "--max-n", "20"),
        *_each_format("verify", "oracle", "--max-k", "3", "--max-len", "10"),
        *_each_format("verify", "bijections", "--max-n", "4", "--max-len", "12"),
        *_each_format("verify", "probability"),
        ["verify", "all", "--max-k", "3", "--max-n", "4", "--max-len", "10", "--format", "csv"],
        ["verify", "all", "--max-k", "3", "--max-n", "4", "--max-len", "10", "--format", "json"],
        # Usage errors: exit 2, nothing on stdout.
        ["count", "--k", "3..1", "--n", "0"],
        ["count", "--k", "0", "--n", "1"],
        ["count", "--k", "x", "--n", "1"],
        ["count", "--k", "1", "--n", "-1"],
        ["count", "--k", "1..2", "--n", "5..3", "--format", "json"],
        ["count", "--k", "1"],
        ["prob", "--k", "0", "--p", "1/2"],
        ["prob", "--k", "1", "--p", "2"],
        ["prob", "--k", "1", "--p", "abc"],
        ["prob", "--k", "1", "--p", "1/0"],
        ["prob", "--k", "1", "--p", "nan"],
        ["prob", "--k", "1", "--p", "inf", "--format", "csv"],
        ["prob", "--k", "1", "--p", "0.5", "--method", "nope"],
        ["prob", "--k", "abc", "--p", "0.5"],
        ["prob", "--k", "1", "--p", "0", "--method", "gf"],
        ["prob", "--k", "1", "--p", "0.6", "--method", "series", "--tail", "0"],
        ["prob", "--k", "1", "--p", "0.6", "--method", "series", "--max-terms", "0"],
        ["prob", "--k", "1", "--p", "0.6", "--method", "simulate", "--trials", "0"],
        ["prob", "--k", "3", "--p", "0.6", "--method", "simulate", "--max-steps", "1"],
        ["prob", "--k", "1", "--p", "0.6", "--method", "simulate", "--seed", "-1"],
        ["simulate", "--k", "0", "--p", "0.6"],
        ["simulate", "--k", "1", "--p", "0.6", "--trials", "0", "--format", "json"],
        ["simulate", "--k", "5", "--p", "0.6", "--max-steps", "2"],
        ["simulate", "--k", "1", "--p", "0.6", "--seed", str(2**64)],
        ["simulate", "--k", "1", "--p", "0.6", "--method", "exact"],
        ["simulate", "--k", "1", "--p", "-0.1"],
        ["simulate", "--k", "1"],
        ["simulate", "--k", "1", "--p", "0.5", "--trials", "x"],
        ["converge", "--k", "0", "--p", "1/4"],
        ["converge", "--k", "1", "--p", "1/4", "--max-terms", "-1"],
        ["converge", "--k", "1", "--p", "5/4"],
        ["dump", "--k", "2", "--n", "13"],
        ["dump", "--k", "0", "--n", "1"],
        ["dump", "--k", "1", "--n", "-1"],
        ["dump", "--k", "1", "--n", "5", "--cap", "10", "--format", "csv"],
        ["verify", "recurrences", "--max-k", "0"],
        ["verify", "recurrences", "--max-n", "0"],
        ["verify", "oracle", "--max-len", "0"],
        ["verify", "oracle", "--max-len", "30"],
        ["verify", "bijections", "--max-len", "3"],
        ["verify", "bijections", "--cap", "10"],
        ["verify", "bijections", "--max-n", "10", "--cap", "20"],
        ["verify", "all", "--max-k", "2", "--max-n", "2", "--max-len", "2"],
        ["verify", "nope"],
        [],
        ["--help"],
        *[[command, "--help"] for command in
          ("count", "prob", "simulate", "converge", "verify", "dump")],
    ]
] + [
    (["simulate", "--k", "1", "--p", "0.4", "--trials", "200", "--format", "csv"],
     {"RUINPATHS_SEED": "11"}),
    (["prob", "--k", "2", "--p", "3/5", "--method", "simulate", "--trials", "300"],
     {"RUINPATHS_SEED": "5"}),
    (["simulate", "--k", "1", "--p", "0.4", "--trials", "200", "--seed", "4"],
     {"RUINPATHS_SEED": "11"}),
    (["simulate", "--k", "1", "--p", "0.4", "--trials", "200"], {"RUINPATHS_SEED": "abc"}),
]


def run(argv: list[str], env: dict[str, str]) -> dict:
    """Run one command through cli.main; return its argv, env, exit code and
    both streams."""
    saved = {name: os.environ.get(name) for name in ("COLUMNS", cli.ENV_SEED)}
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text to the terminal
    os.environ.pop(cli.ENV_SEED, None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return {"argv": argv, "env": env, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def simulation_stdout(argv: list[str], env: dict[str, str]) -> str:
    """The stdout a successful simulation must print, from estimate_absorption."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    text = flags["--p"]
    p = Fraction(text) if "/" in text else float(text)
    seed = int(flags.get("--seed", env.get(cli.ENV_SEED, "0")))
    config = WalkConfig(k=int(flags["--k"]), p=p,
                        max_steps=int(flags.get("--max-steps", 100_000)),
                        trials=int(flags.get("--trials", 10_000)), seed=seed)
    estimate = estimate_absorption(config)
    row = {"k": config.k, "p": p, "method": "simulate", "value": estimate.point,
           "ci_low": estimate.ci_low, "ci_high": estimate.ci_high,
           "absorbed": estimate.absorbed, "censored": estimate.censored,
           "trials": config.trials, "max_steps": config.max_steps, "seed": seed,
           "is_lower_bound": estimate.is_lower_bound}
    stream = io.StringIO()
    cli.emit([row], flags.get("--format", "table"), stream)
    return stream.getvalue()


@functools.cache
def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def _case_id(case: tuple[list[str], dict[str, str]]) -> str:
    argv, env = case
    return " ".join(argv or ["(no arguments)"]) + "".join(f" [{k}={v}]" for k, v in env.items())


def test_golden_covers_every_command():
    assert [[g["argv"], g["env"]] for g in _load()] == [list(c) for c in COMMANDS]


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[_case_id(c) for c in COMMANDS])
def test_cli_output_matches_golden(index):
    argv, env = COMMANDS[index]
    expected = _load()[index]
    got = run(argv, env)
    assert (got["code"], got["stderr"]) == (expected["code"], expected["stderr"])
    if expected["stdout"] is None:
        assert got["stdout"] == simulation_stdout(argv, env)
    else:
        assert got["stdout"] == expected["stdout"]
    if got["code"] == cli.EXIT_USAGE:
        assert got["stdout"] == "" and got["stderr"]


def main() -> None:
    """Rewrite the golden file and print the argv of every command whose
    record changed, so that an intended output change can be reviewed."""
    previous = {_case_id((g["argv"], g["env"])): g for g in _load()} if GOLDEN.exists() else {}
    records = []
    for argv, env in COMMANDS:
        record = run(argv, env)
        if record["code"] == cli.EXIT_OK and "simulate" in argv and "--help" not in argv:
            record["stdout"] = None
        records.append(record)
        if previous.get(_case_id((argv, env))) != record:
            print("changed:", _case_id((argv, env)))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
