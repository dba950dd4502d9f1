"""Command-line front end: output formats, engines, exit codes."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys

import pytest

from permmobius import (
    MobiusEngine,
    OscillationId,
    cli,
    oscillation,
    principal_mu_series,
)

WORKED_PI = "315274968"

WORKED_TRACE = [
    "shape=Single21 min_k=1 max_k=1",
    "shape=Plain min_k=2 max_k=4",
    "shape=LeftCapped min_k=2 max_k=3",
    "shape=RightCapped min_k=2 max_k=3",
    "shape=BothCapped min_k=2 max_k=3",
    "alpha=2 1 no possibilities",
    "alpha=3 1 4 2 r=2 weight=1 mu=1",
    "alpha=3 1 5 2 6 4 r=1 weight=-1 mu=3",
    "alpha=3 1 5 2 7 4 8 6 r=1 weight=-1 mu=6",
    "alpha=2 4 1 5 3 r=1 weight=-1 mu=-1",
    "alpha=2 4 1 6 3 7 5 r=1 weight=-1 mu=-3",
    "alpha=3 1 5 2 4 r=2 weight=1 mu=-1",
    "alpha=3 1 5 2 7 4 6 r=1 weight=-1 mu=-3",
    "alpha=2 4 1 6 3 5 r=1 weight=-1 mu=1",
    "alpha=2 4 1 6 3 8 5 7 r=1 weight=-1 mu=3",
    "-6",
]


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------------ mobius


def test_mobius_prints_the_bare_value(capsys):
    rc, out, _ = run_cli(capsys, ["mobius", "21", "3142"])
    assert (rc, out) == (0, "3\n")


def test_mobius_zero_when_not_contained(capsys):
    rc, out, _ = run_cli(capsys, ["mobius", "21", "12"])
    assert (rc, out) == (0, "0\n")


def test_mobius_answers_an_oscillation_past_255_points(capsys):
    w300 = " ".join(map(str, oscillation(OscillationId("W", 300)).values))
    rc, out, err = run_cli(capsys, ["mobius", "1", w300])
    assert (rc, out, err) == (0, f"{principal_mu_series(300)[300]}\n", "")


def test_mobius_engines_agree_on_the_worked_example(capsys):
    for engine in ("auto", "naive", "general", "oscillation"):
        rc, out, _ = run_cli(
            capsys, ["mobius", "3142", WORKED_PI, "--engine", engine]
        )
        assert (rc, out) == (0, "-6\n"), engine


def test_mobius_oscillation_trace_matches_the_worked_tables(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["mobius", "3142", WORKED_PI, "--engine", "oscillation", "--trace"],
    )
    assert rc == 0
    assert out.splitlines() == WORKED_TRACE


def test_mobius_general_trace_lists_the_contributing_set(capsys):
    rc, out, _ = run_cli(
        capsys, ["mobius", "3142", WORKED_PI, "--engine", "general", "--trace"]
    )
    assert rc == 0
    assert out.splitlines() == [
        "alpha=2 4 1 5 3 r=1 weight=-1 mu=-1",
        "alpha=2 4 1 6 3 5 r=1 weight=-1 mu=1",
        "alpha=3 1 5 2 6 4 r=1 weight=-1 mu=3",
        "alpha=2 4 1 6 3 7 5 r=1 weight=1 mu=-3",
        "alpha=3 1 5 2 7 4 6 r=1 weight=-1 mu=-3",
        "alpha=2 4 1 6 3 8 5 7 r=1 weight=1 mu=3",
        "alpha=3 1 5 2 7 4 8 6 r=1 weight=1 mu=6",
        "-6",
    ]


@pytest.mark.parametrize(
    "argv,value",
    [
        (["mobius", "1", "1324", "--trace"], "-1"),
        (["mobius", "1", "3142", "--engine", "naive", "--trace"], "-3"),
        (["mobius", "231", "2413", "--engine", "general", "--trace"], "-1"),
        (["mobius", "21", "369258147", "--trace"], "-6"),
    ],
)
def test_mobius_trace_lists_no_contributing_set_off_the_theorem_route(
    capsys, argv, value
):
    rc, out, _ = run_cli(capsys, argv)
    assert (rc, out) == (0, value + "\n")


def test_mobius_trace_follows_the_complement_hop(capsys):
    # general answers a sum-decomposable sigma as mu(sigma^c, pi^c), which
    # its theorem route then solves
    rc, out, _ = run_cli(
        capsys, ["mobius", "2143", "315264", "--engine", "general", "--trace"]
    )
    lines = out.splitlines()
    assert (rc, lines) == (
        0,
        [
            "complement sigma=3 4 1 2 pi=4 6 2 5 1 3",
            "alpha=3 4 1 2 r=1 weight=1 mu=1",
            "alpha=3 5 1 4 2 r=1 weight=1 mu=-1",
            "alpha=3 5 4 1 2 r=1 weight=1 mu=-1",
            "alpha=4 2 5 1 3 r=1 weight=1 mu=-1",
            "alpha=4 5 2 1 3 r=1 weight=1 mu=-1",
            "3",
        ],
    )
    # the value is minus the weighted sum of the rows' mu(sigma^c, alpha)
    terms = [re.search(r"weight=(-?\d+) mu=(-?\d+)$", line) for line in lines[1:-1]]
    assert -sum(int(t[1]) * int(t[2]) for t in terms) == int(lines[-1])


def test_mobius_general_trace_takes_its_values_from_one_solve(
    capsys, monkeypatch
):
    calls = []
    original = MobiusEngine.mobius

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MobiusEngine, "mobius", counted)
    rc, out, _ = run_cli(
        capsys, ["mobius", "3142", WORKED_PI, "--engine", "general", "--trace"]
    )
    assert (rc, out.splitlines()[-1]) == (0, "-6")
    assert len(out.splitlines()) == 8
    assert len(calls) == 1


def test_mobius_out_writes_the_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "value.txt"
    rc, out, _ = run_cli(capsys, ["mobius", "1", "24153", "--out", str(target)])
    assert (rc, out) == (0, "")
    assert target.read_text(encoding="utf-8") == "6\n"


# ---------------------------------------------------------------- interval


def test_interval_csv_rows(capsys):
    rc, out, _ = run_cli(capsys, ["interval", "21", "3142"])
    assert rc == 0
    assert out.splitlines() == [
        "2,2 1,1",
        "3,1 3 2,-1",
        "3,2 1 3,-1",
        "3,2 3 1,-1",
        "3,3 1 2,-1",
        "4,3 1 4 2,3",
    ]


def test_interval_json_payload(capsys):
    rc, out, _ = run_cli(capsys, ["interval", "21", "3142", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["lower"] == "2 1"
    assert payload["upper"] == "3 1 4 2"
    assert payload["rows"][0] == {"length": 2, "mu": 1, "permutation": "2 1"}
    assert payload["rows"][-1] == {"length": 4, "mu": 3, "permutation": "3 1 4 2"}
    assert sum(row["mu"] for row in payload["rows"]) == 0


def test_interval_closed_sum_is_zero_from_the_bottom(capsys):
    rc, out, _ = run_cli(capsys, ["interval", "1", "24153"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 14
    assert sum(int(mu) for _, _, mu in rows) == 0


# ----------------------------------------------------------------- downset


def test_downset_csv_includes_the_empty_pattern(capsys):
    rc, out, _ = run_cli(capsys, ["downset", "321"])
    assert rc == 0
    assert out.splitlines() == ["0,", "1,1", "2,2 1", "3,3 2 1"]


def test_downset_json_counts_the_whole_downset(capsys):
    rc, out, _ = run_cli(capsys, ["downset", "24153", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload) == 15
    assert payload[0] == {"length": 0, "permutation": ""}
    assert payload[-1] == {"length": 5, "permutation": "2 4 1 5 3"}


# ------------------------------------------------------------------ series


def test_series_csv_rows(capsys):
    rc, out, _ = run_cli(capsys, ["series", "--n-max", "6"])
    assert rc == 0
    assert out.splitlines() == [
        "n,kind,mu,abs,ratio,class_mod_12",
        "4,W,-3,3,0.75,4",
        "4,M,-3,3,0.75,4",
        "5,W,6,6,1,5",
        "5,M,6,6,1,5",
        "6,W,-9,9,1,6",
        "6,M,-9,9,1,6",
    ]


def test_series_csv_row_count_is_two_per_length(capsys):
    rc, out, _ = run_cli(capsys, ["series", "--n-max", "100"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 2 * 97


def test_series_json_payload(capsys):
    rc, out, _ = run_cli(capsys, ["series", "--n-max", "5", "--format", "json"])
    assert rc == 0
    assert json.loads(out) == [
        {"n": 4, "mu": -3, "abs": 3, "ratio": 0.75, "class_mod_12": 4},
        {"n": 5, "mu": 6, "abs": 6, "ratio": 1.0, "class_mod_12": 5},
    ]


def test_series_loglog_rows_and_skip_counter(capsys):
    rc, out, err = run_cli(capsys, ["series", "--n-max", "6", "--loglog"])
    assert rc == 0
    assert out.splitlines() == [
        "1.38629436112 1.09861228867",
        "1.60943791243 1.79175946923",
        "1.79175946923 2.19722457734",
    ]
    assert err == "skipped: 0\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_series_loglog_refuses_a_format(capsys, fmt):
    rc, out, err = run_cli(capsys, ["series", "--n-max", "6", "--loglog", "--format", fmt])
    assert (rc, out) == (2, "")
    assert err.startswith("usage: permmobius series [-h] --n-max N_MAX")
    assert err.endswith("\npermmobius: error: --format is not read by series --loglog\n")


# sha256 of stdout; the series values and ratios are pinned to the last byte
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["series", "--n-max", "2000"],
            "6498305bd303951f458b6307174a5938598e1f269dde1976ea079cf23bbd74c1",
        ),
        (
            ["series", "--n-max", "2000", "--format", "json"],
            "8bb3bf37a0aa84ba550649c1c77d3c2591c18b177eb46583725b8673ed93e40c",
        ),
        (
            ["series", "--n-max", "2000", "--loglog"],
            "6db717bb1f0d63e60c1257669fc593c103a6d2d1cc559e990e2dafdfe93973c3",
        ),
        (
            ["check", "--suite", "banding", "--range", "1000..4000"],
            "8855e65f0c3aadaff09cf0aae0a50b61799b71f48e01e246c542d924d3e202e0",
        ),
        (
            ["check", "--suite", "jelinek", "--range", "51..2000"],
            "b406fbdede63bb02f7e7f3f042ad941421159a9145a26d1f8f598b2e90fd1ba9",
        ),
        (
            ["check", "--suite", "jelinek", "--range", "107..19914"],
            "b9944b3468539479fe74a69c746c2c7f867d0ae2539bf488a1f0f7ed50c5dc7f",
        ),
        (
            ["check", "--suite", "banding", "--range", "1823..39829"],
            "7636be5fc298f4b9df3ad9f43383559c4de9d19cacd1f1cec8be3a36a5858006",
        ),
    ],
)
def test_series_and_check_outputs_are_pinned(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_rejects_small_n_max(capsys):
    rc, _, err = run_cli(capsys, ["series", "--n-max", "3"])
    assert rc == 1
    assert "error" in err


# ------------------------------------------------------------------- check


def test_check_sign_is_clean(capsys):
    rc, out, _ = run_cli(capsys, ["check", "--suite", "sign", "--n-max", "200"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["range"] == [4, 200]
    assert payload["violations"] == []
    assert payload["constants"] is None


def test_check_bound_is_clean(capsys):
    rc, out, _ = run_cli(capsys, ["check", "--suite", "bound", "--n-max", "200"])
    assert rc == 0
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize("value, flagged", [(2**10 + 1, True), (2**10, False)])
def test_check_bound_flags_only_values_past_two_to_the_n(
    capsys, monkeypatch, value, flagged
):
    def doctored_series(n_max):
        mu = principal_mu_series(n_max)
        mu[10] = value
        return mu

    monkeypatch.setattr(cli, "principal_mu_series", doctored_series)
    rc, out, _ = run_cli(capsys, ["check", "--suite", "bound", "--n-max", "20"])
    expected = [{"n": 10, "rule": "bound-2^n", "expected": "<= 2^10", "actual": value}]
    assert json.loads(out)["violations"] == (expected if flagged else [])
    assert rc == (cli.EXIT_VIOLATIONS if flagged else cli.EXIT_OK)


@pytest.mark.parametrize("suite", ["sign", "bound"])
def test_check_sign_and_bound_reject_n_max_zero(capsys, suite):
    rc, out, err = run_cli(capsys, ["check", "--suite", suite, "--n-max", "0"])
    assert (rc, out) == (1, "")
    assert "error" in err


def test_check_validates_the_window_before_filling_the_series(capsys):
    rc, out, err = run_cli(capsys, ["check", "--suite", "jelinek", "--range", "51..1"])
    assert (rc, out) == (1, "")
    assert err == "permmobius: error: empty range 51..1\n"
    rc, out, err = run_cli(capsys, ["check", "--suite", "banding", "--range", "51..1"])
    assert (rc, out) == (1, "")
    assert err == "permmobius: error: invalid banding window 51..1\n"


def test_check_jelinek_range(capsys):
    rc, out, _ = run_cli(
        capsys, ["check", "--suite", "jelinek", "--range", "51..100"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["range"] == [51, 100]
    assert payload["violations"] == []


def test_check_banding_reports_constants(capsys):
    rc, out, _ = run_cli(
        capsys, ["check", "--suite", "banding", "--range", "1000..4000"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert "deviations" not in payload
    assert payload["constants"]["a"] == pytest.approx(0.6271, abs=1e-3)
    assert payload["constants"]["g"] == pytest.approx(0.9328, abs=1e-3)


def test_check_banding_flags_a_preasymptotic_window(capsys):
    rc, out, _ = run_cli(
        capsys, ["check", "--suite", "banding", "--range", "4..60"]
    )
    assert rc == 3
    payload = json.loads(out)
    assert payload["violations"]


def test_check_crosscheck_engines_match_the_oracle(capsys):
    rc, out, _ = run_cli(
        capsys, ["check", "--suite", "crosscheck", "--max-len", "5"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["range"] == [1, 5]
    assert payload["violations"] == []


def test_check_crosscheck_checks_the_theorem_itself(capsys, monkeypatch):
    # auto never reaches the theorem, so only the general engine can
    # report a wrong theorem value.
    monkeypatch.setattr(MobiusEngine, "mobius_theorem", lambda self, s, p: 99)
    rc, out, _ = run_cli(
        capsys, ["check", "--suite", "crosscheck", "--max-len", "5"]
    )
    assert rc == 3
    payload = json.loads(out)
    assert payload["engines"] == ["auto", "general"]
    rules = [v["rule"] for v in payload["violations"]]
    assert rules
    assert all(rule.startswith("crosscheck general sigma=") for rule in rules)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_check_banding_prints_null_for_an_empty_band(capsys):
    rc, out, _ = run_cli(capsys, ["check", "--suite", "banding", "--range", "4..5"])
    assert rc == 3
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["constants"] == {
        "a": None, "b": None, "c": None, "d": None, "e": 0.75, "f": 1.0, "g": None
    }
    assert [v["actual"] for v in payload["deviations"]] == [
        None, None, None, None, 0.75, 1.0, None
    ]


# -------------------------------------------------------------- exit codes


def test_bad_permutation_is_a_usage_error(capsys):
    rc, _, err = run_cli(capsys, ["mobius", "21", "3152"])
    assert rc == 2
    assert err.startswith("usage: permmobius mobius [-h] [--engine")
    assert err.endswith(
        "\npermmobius: error: values (3, 1, 5, 2) are not a bijection onto 1..4\n"
    )


def test_missing_arguments_are_a_usage_error(capsys):
    assert cli.main(["mobius", "21"]) == 2
    capsys.readouterr()


def test_main_calls_share_one_parser_and_print_what_separate_parsers_do(
    capsys, monkeypatch
):
    runs = [
        ["mobius", "21", "3142"],
        ["mobius", "21"],
        ["interval", "21", "3142", "--format", "json"],
        ["mobius", "21", "3152"],
        ["check", "--suite", "crosscheck", "--max-len", "3"],
        ["interval", "1", "21"],
    ]
    shared = [run_cli(capsys, argv) for argv in runs]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    separate = [run_cli(capsys, argv) for argv in runs]
    assert shared == separate
    assert [rc for rc, _, _ in shared] == [0, 2, 0, 2, 0, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["interval", "21", "3142", "--cache-bytes", "4096"],
        ["downset", "3142", "--cache-bytes", "4096"],
        ["series", "--n-max", "5", "--cache-bytes", "4096"],
        ["series", "--n-max", "5", "--downset-cap", "8"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (2, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mobius", "1", "21"],
        ["interval", "1", "21"],
        ["downset", "21"],
        ["check", "--suite", "crosscheck", "--max-len", "2"],
    ],
    ids=["mobius", "interval", "downset", "check"],
)
def test_the_downset_cap_flag_is_a_usage_error(capsys, argv):
    for value in ("12", "-1"):
        rc, out, err = run_cli(capsys, argv + ["--downset-cap", value])
        assert (rc, out) == (2, "")
        assert f"unrecognized arguments: --downset-cap {value}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mobius", "1", "21"],
        ["check", "--suite", "crosscheck", "--max-len", "2"],
        ["check", "--suite", "sign", "--n-max", "10"],
    ],
    ids=["mobius", "check-crosscheck", "check-sign"],
)
def test_the_cache_bytes_flag_is_a_usage_error(capsys, argv):
    for value in ("4096", "0", "-5"):
        rc, out, err = run_cli(capsys, argv + ["--cache-bytes", value])
        assert (rc, out) == (2, "")
        assert f"unrecognized arguments: --cache-bytes {value}" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["crosscheck", "--max-len", "-2"], "--max-len must be at least 1, got -2"),
        (["crosscheck", "--max-len", "0"], "--max-len must be at least 1, got 0"),
        (["sign", "--n-max", "10", "--range", "1..5"], "--range is not read by --suite sign"),
        (["bound", "--range", "4..5"], "--range is not read by --suite bound"),
        (["crosscheck", "--range", "1..2"], "--range is not read by --suite crosscheck"),
        (["jelinek", "--n-max", "100"], "--n-max is not read by --suite jelinek"),
        (["banding", "--n-max", "100"], "--n-max is not read by --suite banding"),
        (["crosscheck", "--n-max", "3"], "--n-max is not read by --suite crosscheck"),
        (["sign", "--max-len", "3"], "--max-len is not read by --suite sign"),
        (["bound", "--max-len", "3"], "--max-len is not read by --suite bound"),
        (["jelinek", "--max-len", "3"], "--max-len is not read by --suite jelinek"),
        (["banding", "--max-len", "3"], "--max-len is not read by --suite banding"),
    ],
)
def test_check_rejects_a_flag_that_checks_nothing(capsys, flags, message):
    rc, out, err = run_cli(capsys, ["check", "--suite", *flags])
    assert (rc, out) == (2, "")
    assert err.startswith("usage: permmobius check [-h] --suite")
    assert err.endswith(f"\npermmobius: error: {message}\n")


def test_engine_errors_exit_one(capsys):
    rc, _, err = run_cli(
        capsys, ["mobius", "1", "2143", "--engine", "oscillation"]
    )
    assert rc == 1
    assert "not an increasing oscillation" in err


def test_downset_cap_errors_exit_one(capsys):
    # W_16 has 5357 patterns.
    w16 = "3,1,5,2,7,4,9,6,11,8,13,10,15,12,16,14"
    rc, out, err = run_cli(capsys, ["downset", w16])
    assert (rc, out) == (1, "")
    assert err == "permmobius: error: upper bound of length 16 has over 4096 patterns\n"


# ------------------------------------------------------------- subprocess


def test_module_entry_point_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "permmobius", "mobius", "21", "3142"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_importing_the_package_loads_neither_the_cli_nor_argparse():
    code = (
        "import sys, permmobius; "
        "print(sorted({'argparse', 'permmobius.cli'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
