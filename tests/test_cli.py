"""End-to-end tests for the command-line interface.

Most tests drive the installed entry point through a subprocess so that
argument parsing, formatting, exit codes, and the environment seed are
exercised exactly as a shell user sees them.  The verify-failure test runs
in-process so a deliberately broken identity can be injected.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest

from ruinpaths import absorption_series, cli, combinatorics, paths
from ruinpaths.probability import series_terms


def run_cli(*args: str, env_extra: dict[str, str] | None = None):
    env = {k: v for k, v in os.environ.items() if k != "RUINPATHS_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ruinpaths", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def test_count_csv_golden():
    result = run_cli("count", "--k", "1..3", "--n", "0..3", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "k,n,count\n"
        "1,0,1\n"
        "1,1,1\n"
        "1,2,2\n"
        "1,3,5\n"
        "2,0,1\n"
        "2,1,2\n"
        "2,2,5\n"
        "2,3,14\n"
        "3,0,1\n"
        "3,1,3\n"
        "3,2,9\n"
        "3,3,28\n"
    )


def test_count_table_format():
    result = run_cli("count", "--k", "2", "--n", "0..2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["k", "n", "count"]
    assert [line.split() for line in lines[1:]] == [
        ["2", "0", "1"],
        ["2", "1", "2"],
        ["2", "2", "5"],
    ]
    # Table rows carry no trailing padding.
    assert all(line == line.rstrip() for line in lines)


def test_count_json_round_trip():
    result = run_cli("count", "--k", "1..2", "--n", "0..4", "--format", "json")
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert len(rows) == 10
    assert rows[0] == {"k": 1, "n": 0, "count": 1}
    for row in rows:
        assert row["count"] == combinatorics.ballot_count(row["k"], row["n"])


def test_count_single_row_json_is_object():
    result = run_cli("count", "--k", "2", "--n", "3", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"k": 2, "n": 3, "count": 14}


def test_count_rejects_reversed_range():
    result = run_cli("count", "--k", "3..1", "--n", "0")
    assert result.returncode == 2
    assert "empty k range" in result.stderr


def test_prob_exact_rational():
    result = run_cli("prob", "--k", "3", "--p", "3/4", "--format", "csv")
    assert result.returncode == 0
    row = csv_rows(result.stdout)[0]
    assert row == {"k": "3", "p": "3/4", "method": "exact", "value": "1/27"}

    result = run_cli("prob", "--k", "3", "--p", "2/3", "--format", "csv")
    assert csv_rows(result.stdout)[0]["value"] == "1/8"


def test_prob_exact_float():
    result = run_cli("prob", "--k", "2", "--p", "0.25", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "k": 2,
        "p": 0.25,
        "method": "exact",
        "value": 1.0,
    }


def test_prob_gf_rational_is_exact():
    result = run_cli("prob", "--k", "2", "--p", "2/3", "--method", "gf", "--format", "csv")
    assert result.returncode == 0
    assert csv_rows(result.stdout)[0]["value"] == "1/4"


def test_prob_series_converged():
    result = run_cli(
        "prob", "--k", "2", "--p", "1/4", "--method", "series",
        "--tail", "1e-9", "--format", "csv",
    )
    assert result.returncode == 0
    row = csv_rows(result.stdout)[0]
    assert row["converged"] == "true"
    assert abs(Fraction(row["value"]) - 1) <= Fraction(1, 10**9)


def test_prob_series_not_converged_exits_3_with_output():
    result = run_cli(
        "prob", "--k", "1", "--p", "1/2", "--method", "series",
        "--max-terms", "50", "--format", "csv",
    )
    assert result.returncode == 3
    row = csv_rows(result.stdout)[0]
    assert row["converged"] == "false"
    assert row["terms_used"] == "50"
    assert row["tail_bound"] == "inf"
    # The partial sum is still reported and lies below the true value 1.
    assert 0 < Fraction(row["value"]) < 1


def test_prob_series_budget_before_tail_start_fails_fast(capsys):
    # tail_start(5) = 9: terms n = 0..8 carry no tail bound, so a budget of
    # nine could only end unconverged.
    argv = ["prob", "--k", "5", "--p", "3/5", "--method", "series", "--format", "csv"]
    assert cli.main([*argv, "--max-terms", "9"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "k=5" in err and "--max-terms 9" in err and "n=9" in err
    assert cli.main([*argv, "--max-terms", "10"]) == 3
    assert csv_rows(capsys.readouterr().out)[0]["terms_used"] == "10"


@pytest.mark.parametrize("tail", ["nan", "-1", "0"])
def test_prob_series_bad_tail_names_the_flag(tail, capsys):
    argv = ["prob", "--k", "1", "--p", "0.6", "--method", "series", "--tail", tail]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --tail must be > 0, got {float(tail)}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--k", str(10**400), "--p", "0.6"],
        ["prob", "--k", str(10**400), "--p", "0.6", "--method", "gf"],
        ["prob", "--k", str(10**400), "--p", "1"],
        ["prob", "--k", str(2**511), "--p", "0.3", "--method", "gf"],
        ["converge", "--k", str(2**512), "--p", "0.6", "--max-terms", "1"],
    ],
    ids=["exact", "gf", "p-one", "gf-below-half", "converge"],
)
def test_float_p_with_k_past_the_limit_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: k must be < 2**511 when p is a float\n")


@pytest.mark.parametrize("k", [10**17, 10**19])
def test_prob_gf_float_value_stays_at_one(k, capsys):
    # absorption_via_gf(0.072) was 1 + 2^-52, so its k-th power printed
    # 4398196873.9457445 at k = 10^17 and overflowed at 10^19.
    argv = ["prob", "--k", str(k), "--p", "0.072", "--method", "gf", "--format", "csv"]
    assert cli.main(argv) == 0
    assert csv_rows(capsys.readouterr().out)[0]["value"] == "1.0"


def last_row(text: str, fmt: str) -> dict[str, str]:
    if fmt == "csv":
        return csv_rows(text)[-1]
    if fmt == "json":
        payload = json.loads(text)
        return payload[-1] if isinstance(payload, list) else payload
    lines = text.splitlines()
    return dict(zip(lines[0].split(), lines[-1].split()))


def parse_long_fraction(text: str) -> Fraction:
    # Python caps int-to-str conversion at 4,300 digits by default.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_exact_values_past_the_int_digit_limit_are_printed(fmt, capsys):
    limit = sys.get_int_max_str_digits()
    p = Fraction(12, 25)
    # 3,000 terms of 25^(2n+1): the reduced denominator passes 4,300 digits.
    argv = ["prob", "--k", "1", "--p", "12/25", "--method", "series",
            "--max-terms", "3000", "--format", fmt]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert err == ""
    expected = absorption_series(1, p, 1e-12, max_terms=3000).partial_sum
    assert expected.denominator > 10**4300
    assert parse_long_fraction(last_row(out, fmt)["value"]) == expected

    # A 4,501-digit denominator from the first converge row on.
    tiny = "1/1" + "0" * 1500
    assert cli.main(["converge", "--k", "3", "--p", tiny, "--max-terms", "2",
                     "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    terms = [term for term, _, _ in islice(series_terms(3, Fraction(tiny)), 3)]
    assert parse_long_fraction(last_row(out, fmt)["partial_sum"]) == sum(terms)

    assert sys.get_int_max_str_digits() == limit
    # The limit still guards parsing the probability itself.
    assert cli.main(["prob", "--k", "1", "--p", "1/" + "7" * 4400, "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Exceeds the limit" in err


def test_simulate_deterministic_runs():
    args = (
        "simulate", "--k", "2", "--p", "0.6", "--trials", "500",
        "--max-steps", "2000", "--seed", "7", "--format", "csv",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    row = csv_rows(first.stdout)[0]
    assert int(row["absorbed"]) + int(row["censored"]) == 500
    assert row["seed"] == "7"


def test_simulate_seed_from_environment():
    flagged = run_cli(
        "simulate", "--k", "2", "--p", "0.6", "--trials", "500",
        "--max-steps", "2000", "--seed", "7", "--format", "csv",
    )
    from_env = run_cli(
        "simulate", "--k", "2", "--p", "0.6", "--trials", "500",
        "--max-steps", "2000", "--format", "csv",
        env_extra={"RUINPATHS_SEED": "7"},
    )
    assert from_env.stdout == flagged.stdout

    # An explicit flag wins over the environment.
    overridden = run_cli(
        "simulate", "--k", "2", "--p", "0.6", "--trials", "500",
        "--max-steps", "2000", "--seed", "7", "--format", "csv",
        env_extra={"RUINPATHS_SEED": "9"},
    )
    assert overridden.stdout == flagged.stdout


def test_converge_rational_golden():
    result = run_cli("converge", "--k", "2", "--p", "1/4", "--max-terms", "3", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "n,term,partial_sum,tail_bound\n"
        "0,9/16,9/16,27/16\n"
        "1,27/128,99/128,81/128\n"
        "2,405/4096,3573/4096,1215/4096\n"
        "3,1701/32768,30285/32768,5103/32768\n"
    )


def test_converge_float_golden():
    result = run_cli("converge", "--k", "2", "--p", "0.25", "--max-terms", "3", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == (
        "n,term,partial_sum,tail_bound\n"
        "0,0.5625,0.5625,1.6875\n"
        "1,0.2109375,0.7734375,0.6328125\n"
        "2,0.098876953125,0.872314453125,0.296630859375\n"
        "3,0.051910400390625,0.924224853515625,0.155731201171875\n"
    )


def test_dump_golden():
    result = run_cli("dump", "--k", "2", "--n", "1", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == "path\n2:LRLL\n2:RLLL\n"


def test_dump_respects_cap():
    result = run_cli("dump", "--k", "2", "--n", "13")
    assert result.returncode == 2
    assert "26" in result.stderr


def test_dump_path_longer_than_recursion_limit():
    result = run_cli("dump", "--k", "1500", "--n", "0", "--cap", "2000", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == "path\n1500:" + "L" * 1500 + "\n"
    assert result.stderr == ""


def test_verify_fast_suites_pass():
    result = run_cli(
        "verify", "recurrences", "--max-k", "5", "--max-n", "20", "--format", "csv",
    )
    assert result.returncode == 0
    rows = csv_rows(result.stdout)
    assert len(rows) == 5
    assert all(row["status"] == "PASS" for row in rows)

    result = run_cli("verify", "oracle", "--max-k", "3", "--max-len", "10")
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_verify_rejects_bad_bounds():
    result = run_cli("verify", "recurrences", "--max-k", "0")
    assert result.returncode == 2
    assert "bounds" in result.stderr


def test_verify_cap_applies_only_to_suites_with_a_length_bound(capsys):
    # Neither suite enumerates paths, so --cap changes nothing they print.
    for argv in (["verify", "probability"],
                 ["verify", "recurrences", "--max-k", "2", "--max-n", "2"]):
        assert cli.main(argv) == 0
        expected = capsys.readouterr()
        assert cli.main([*argv, "--cap", "-5"]) == 0
        assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv, error", [
    # The shift identity enumerates start-1 paths 2n+3 long: 27 at n = 12.
    (["bijections", "--max-n", "12"], "path length 2n+k = 27 exceeds enumeration cap 26"),
    (["bijections", "--max-n", "10", "--cap", "21", "--max-len", "20"],
     "path length 2n+k = 23 exceeds enumeration cap 21"),
    (["all", "--max-n", "12"], "path length 2n+k = 27 exceeds enumeration cap 26"),
    (["all", "--max-len", "30"], "--max-len 30 exceeds enumeration cap 26"),
    # The --max-len check still comes first.
    (["bijections", "--max-n", "12", "--max-len", "30"],
     "--max-len 30 exceeds enumeration cap 26"),
])
def test_verify_rejects_bounds_before_any_cell_runs(argv, error, monkeypatch, capsys):
    calls = []
    for module, name in ((paths, "enumerate_first_passage"),
                         (paths, "_first_passage_paths"),
                         (combinatorics, "ballot_via_recurrence")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert calls == []


def test_verify_failure_returns_1(monkeypatch, capsys):
    def broken(k: int, n: int) -> int:
        value = combinatorics.ballot_count(k, n)
        return value + 1 if (k, n) == (2, 3) else value

    monkeypatch.setattr(combinatorics, "ballot_via_recurrence", broken)
    code = cli.main(["verify", "recurrences", "--max-k", "3", "--max-n", "5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "k=2" in out


def test_verify_bijections_catches_reordered_partition(monkeypatch, capsys):
    # Right sets in the wrong order: the partition identity compares lists,
    # so it must fail.
    partition = paths.partition_by_first_step

    def reversed_parts(k: int, n: int, *, cap: int):
        to_k, to_k_minus_2 = partition(k, n, cap=cap)
        return to_k[::-1], to_k_minus_2[::-1]

    monkeypatch.setattr(paths, "partition_by_first_step", reversed_parts)
    code = cli.main(["verify", "bijections", "--max-n", "4", "--max-len", "12"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    ("k", "p", "max_steps"), [("1", "0.6", str(10**30)), (str(10**23), "0.5", str(10**23))]
)
def test_simulate_horizon_past_two_to_the_63_is_usage_error(k, p, max_steps, capsys):
    argv = ["simulate", "--k", k, "--p", p, "--max-steps", max_steps, "--trials", "3",
            "--seed", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: max_steps must be at most 2**63, got {max_steps}\n"


def test_unknown_method_is_usage_error():
    result = run_cli("prob", "--k", "1", "--p", "0.5", "--method", "nope")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--k", "1", "--p", "-0.0", "--method", "series"],
        ["converge", "--k", "1", "--p", "-0.0", "--max-terms", "2"],
    ],
    ids=["prob-series", "converge"],
)
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_negative_zero_p_prints_no_negative_zero(argv, fmt, capsys):
    # p, the terms and the tail bounds all printed as -0.0.
    assert cli.main([*argv, "--format", fmt]) == 0
    assert "-0" not in capsys.readouterr().out


def test_probability_out_of_range_is_usage_error():
    result = run_cli("prob", "--k", "1", "--p", "1.5")
    assert result.returncode == 2
    assert "probability" in result.stderr

    result = run_cli("prob", "--k", "1", "--p", "abc")
    assert result.returncode == 2
