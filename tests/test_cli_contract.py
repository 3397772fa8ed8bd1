"""The command-line contract as a property over generated argv.

Whatever a user types, `ruinpaths` exits with 0, 1, 2 or 3, and the only
exception that leaves cli.main is argparse's SystemExit(2).  A usage error
(exit 2) prints nothing on stdout and starts stderr with `error:` or
`usage:`.  A successful `prob` or `simulate` row holds a value in
[0, 1 + 1e-9]; the slack is for the float series, which can overshoot 1 by
an ulp.

The domain keeps every request fast: a huge k comes only with a decimal p,
a rational p only with k <= 40 and a denominator <= 64, and term, trial,
step, path and verify bounds stay small.  Requests that cannot finish fast,
such as an exact power with a huge k, are left out.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinpaths import cli

FORMATS = ("table", "csv", "json")
HUGE_K = tuple(map(str, (10**17, 10**19, 2**511 - 1, 2**511, 2**512 - 1, 2**512, 10**400)))
BAD_K = ("x", "1.5", "", "0x10", "2**10")
BAD_P = ("abc", "1/0", "nan", "inf", "-0.1", "2", "1/-2", "3/2", "0.5/1", "")


def ints(lo: int, hi: int) -> st.SearchStrategy[str]:
    return st.integers(lo, hi).map(str)


decimal_p = st.one_of(
    st.sampled_from(("0", "1", "0.072", "0.1", "0.5", "0.499", "0.6", "0.9")),
    st.floats(0, 1).map(repr),
)
rational_p = st.integers(1, 64).flatmap(
    lambda den: st.integers(0, den).map(lambda num: f"{num}/{den}"))
k_and_p = st.one_of(
    st.tuples(ints(-1, 40), decimal_p | rational_p),
    st.tuples(st.sampled_from(HUGE_K), decimal_p),
    st.tuples(st.sampled_from(BAD_K), decimal_p) | st.tuples(ints(1, 40), st.sampled_from(BAD_P)),
)


@st.composite
def argvs(draw: st.DrawFn) -> list[str]:
    command = draw(st.sampled_from(("count", "prob", "simulate", "converge", "dump", "verify")))
    fmt = ["--format", draw(st.sampled_from(FORMATS))]
    if command == "count":
        k = draw(ints(-1, 40) | st.sampled_from(("1..3", "3..1", "0..2", *BAD_K)))
        n = draw(ints(-1, 200) | st.sampled_from(("0..6", "5..3", "x")))
        return ["count", "--k", k, "--n", n, *fmt]
    cap = draw(st.sampled_from(([], ["--cap", "4"], ["--cap", "30"])))
    if command == "dump":
        k = draw(ints(-1, 5) | st.sampled_from(BAD_K))
        return ["dump", "--k", k, "--n", draw(ints(-1, 5)), *cap, *fmt]
    if command == "verify":
        suite = draw(st.sampled_from(("all", "recurrences", "bijections", "oracle", "probability")))
        bounds = [text for flag in ("--max-k", "--max-n", "--max-len")
                  for text in (flag, draw(ints(-1, 8)))]
        return ["verify", suite, *bounds, *cap, *fmt]
    k, p = draw(k_and_p)
    if command == "converge":
        return ["converge", "--k", k, "--p", p, "--max-terms", draw(ints(-1, 40)), *fmt]
    method = "simulate" if command == "simulate" else draw(
        st.sampled_from(("exact", "gf", "series", "simulate")))
    extra: list[str] = []
    if method == "series":
        extra = ["--tail", draw(st.sampled_from(("1e-12", "1e-3", "inf", "0", "nan"))),
                 "--max-terms", draw(ints(1, 300) | st.just("0"))]
    elif method == "simulate":
        extra = ["--trials", draw(ints(1, 200) | st.just("0")),
                 "--max-steps", draw(ints(40, 2000) | ints(0, 39)),
                 "--seed", draw(ints(0, 99) | st.just("-1"))]
    head = [command] if command == "simulate" else ["prob", "--method", method]
    return [*head, "--k", k, "--p", p, *extra, *fmt]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main(argv), run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error, and nothing else
            assert exc.code == 2, argv
            code = 2
    return code, out.getvalue(), err.getvalue()


def value_of(stdout: str, fmt: str) -> Fraction:
    """The value column of a one-row prob or simulate output, exactly."""
    if fmt == "json":
        text = str(json.loads(stdout)["value"])
    elif fmt == "csv":
        text = next(csv.DictReader(io.StringIO(stdout)))["value"]
    else:
        header, row = (line.split() for line in stdout.splitlines())
        text = row[header.index("value")]
    return Fraction(text)


@settings(deadline=None, max_examples=300)
@given(argvs())
# A float p with a huge k ended in an OverflowError traceback.
@example(["prob", "--k", str(10**400), "--p", "0.6", "--format", "csv"])
@example(["prob", "--method", "gf", "--k", str(10**400), "--p", "1", "--format", "csv"])
@example(["converge", "--k", str(2**512 - 1), "--p", "0.6", "--max-terms", "1",
          "--format", "csv"])
# The float gf value at p = 0.072 was 1 + 2^-52, and its k-th power ran away.
@example(["prob", "--method", "gf", "--k", str(10**17), "--p", "0.072", "--format", "csv"])
@example(["prob", "--method", "gf", "--k", str(10**19), "--p", "0.072", "--format", "json"])
def test_cli_keeps_its_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == "" and err.startswith(("error:", "usage:"))
    if code == 0 and argv[0] in ("prob", "simulate"):
        assert 0 <= value_of(out, argv[-1]) <= 1 + 1e-9
