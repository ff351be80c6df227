"""Command line surface: exit codes, report envelopes, determinism, config plumbing."""

import argparse
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgraph import asymptotics, cli, config
from qgraph.apoly import GRAPHS
from qgraph.asymptotics import MAX_GROWTH_COLOR, SingularPointError
from qgraph.cli import VERSION, main
from qgraph.config import default_config
from qgraph.invariants import tet_primed, theta_invariant


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def run_json(capsys, argv):
    # strict: NaN, Infinity and -Infinity in a report fail the parse
    code, out, err = run(capsys, ["--format", "json"] + list(argv))
    return code, json.loads(out, parse_constant=_reject_constant)


# -- invariant commands ----------------------------------------------------------------------


def test_theta_example_text(capsys):
    code, out, err = run(capsys, ["theta", "-c", "1,1,0"])
    assert code == 0
    assert out == "-q^(-1/2) - q^(1/2)\n"


def test_tet_zero_colors_text(capsys):
    code, out, err = run(capsys, ["tet", "-c", "0,0,0,0,0,0"])
    assert code == 0
    assert out == "1\n"


def test_theta_inadmissible_text(capsys):
    code, out, err = run(capsys, ["theta", "-c", "1,2,5"])
    assert code == 0
    assert out == "0\nadmissible: false\n"


@pytest.mark.parametrize("argv, entry", [("theta -c 2,2,2", "value"), ("tet -c 2,2,2,2,2,2 --primed", "family")])
def test_invariant_asks_the_table_once(capsys, monkeypatch, argv, entry):
    # the record, the text and --eval share one value
    graph = argv.split()[0]
    real = getattr(GRAPHS[graph], entry)
    calls = []
    monkeypatch.setitem(GRAPHS, graph, GRAPHS[graph]._replace(**{entry: lambda col: calls.append(col) or real(col)}))
    for fmt in ("text", "json"):
        del calls[:]
        code, out, err = run(capsys, ["--format", fmt] + argv.split() + ["--eval", "0.9"])
        assert (code, err, len(calls)) == (0, "", 1)


def test_invariant_json_envelope(capsys):
    code, report = run_json(capsys, ["theta", "-c", "2,2,2"])
    assert code == 0
    for key in ("tool", "version", "convention", "config_hash", "value", "text"):
        assert key in report
    assert report["tool"] == "qgraph"
    assert report["convention"] == "triangle-sum"
    assert report["graph"] == "theta"
    assert report["colors"] == [2, 2, 2]
    assert report["admissible"] is True
    assert report["text"] == str(theta_invariant(2, 2, 2))


def test_tet_primed_flag(capsys):
    code, report = run_json(capsys, ["tet", "-c", "2,2,2,2,2,2", "--primed"])
    assert code == 0
    assert report["primed"] is True
    assert report["text"] == str(tet_primed((2, 2, 2, 2, 2, 2)))


def test_eval_payload(capsys):
    code, report = run_json(capsys, ["theta", "-c", "1,1,0", "--eval", "0.9+0.1j"])
    assert code == 0
    got = report["evaluation"]["value"]
    want = theta_invariant(1, 1, 0).eval_complex(complex(0.9, 0.1))
    assert abs(complex(got["re"], got["im"]) - want) <= 1e-12


def test_malformed_colors_exit_2(capsys):
    code, out, err = run(capsys, ["theta", "-c", "1,2"])
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        "theta -c -2,2,2",
        "theta --colors -2,2,2",
        "tet -c -2,2,2,2,2,2",
        "tet --primed --colors -2,2,2,2,2,2",
    ],
)
def test_negative_colors_exit_2(capsys, argv):
    # a leading minus must reach the package's own check, not argparse's
    code, out, err = run(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert err == "usage error: --colors must be nonnegative\n"
    assert "Traceback" not in err


def test_negative_exponent_value_still_parses(capsys):
    # the value of a flag that always takes one is joined to it, whatever follows its minus sign
    code, out, err = run(capsys, ["theta", "-c", "1,1,0", "--eval", "-1e3"])
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("evaluation: ")


@pytest.mark.parametrize("argv", ["theta --eval -c 1,1,0", "theta -c 1,1,0 --eval --format=json"])
def test_flag_followed_by_option_exit_2(capsys, argv):
    # an option name after a value flag is not taken as its value: the parser names the flag
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert "argument --eval: expected one argument" in err


def test_unknown_edge_exit_2(capsys):
    code, out, err = run(capsys, ["verify", "annihilation", "--graph", "theta", "--edge", "z"])
    assert code == 2
    assert "usage error" in err


# -- verification sweeps -----------------------------------------------------------------------


def test_verify_theta_recursion(capsys):
    code, report = run_json(capsys, ["verify", "theta-recursion", "--max", "8"])
    assert code == 0
    assert report["check"] == "theta-recursion"
    assert report["grid_max"] == 8
    assert report["tested"] > 0
    assert report["failures"] == []
    assert report["passed"] is True


def test_verify_annihilation_ok(capsys):
    code, report = run_json(
        capsys, ["verify", "annihilation", "--graph", "theta", "--edge", "a", "--max", "6"]
    )
    assert code == 0
    assert report["tested"] > 0
    assert report["failures"] == []
    assert report["injected_bad_operator"] is False


def test_verify_annihilation_bad_operator_exits_1(capsys):
    code, report = run_json(
        capsys,
        [
            "verify",
            "annihilation",
            "--graph",
            "theta",
            "--edge",
            "a",
            "--max",
            "6",
            "--inject-bad-operator",
        ],
    )
    assert code == 1
    assert report["passed"] is False
    assert report["injected_bad_operator"] is True
    assert len(report["failures"]) > 0
    first = report["failures"][0]
    assert first["residual"]["num"]["terms"]  # nonzero residual survives serialization


def test_verify_classical_limit_theta_units(capsys):
    code, report = run_json(capsys, ["verify", "classical-limit", "--graph", "theta"])
    assert code == 0
    assert report["units"] == {"a": "1", "b": "1", "c": "1"}
    assert report["failures"] == []


def test_verify_classical_limit_tet_units(capsys):
    code, report = run_json(capsys, ["verify", "classical-limit", "--graph", "tet"])
    assert code == 0
    assert report["failures"] == []
    for edge in ("1", "2", "12", "3", "4", "23"):
        assert report["units"][edge] == f"1 - x_{edge}^2"


def test_verify_symmetry_small(capsys):
    code, report = run_json(capsys, ["verify", "symmetry", "--max", "4"])
    assert code == 0
    assert report["tested"] > 0
    assert report["failures"] == []


def test_verify_reduction_units(capsys):
    code, report = run_json(capsys, ["verify", "reduction", "--max", "6"])
    assert code == 0
    assert report["units"] == ["1"]
    assert report["failures"] == []


def test_verify_hypergeom(capsys):
    code, report = run_json(capsys, ["verify", "hypergeom", "--max", "4"])
    assert code == 0
    assert report["tested"] > 0
    assert report["failures"] == []


def test_verify_recursum_small(capsys):
    code, report = run_json(capsys, ["verify", "recursum", "--max", "6"])
    assert code == 0
    assert report["tested"] > 0
    assert report["failures"] == []


# tested counts of each sweep at the benchmark's grids
SWEEP_COVERAGE = [
    ("verify theta-recursion --max 12", 525),
    ("verify annihilation --graph theta --edge a --max 10", 315),
    ("verify annihilation --graph tet --edge 1 --max 4", 106),
    ("verify symmetry --max 4", 570),
    ("verify recursum --max 4", 93),
    ("verify hypergeom --max 3", 181),
    ("verify reduction --max 8", 215),
]


@pytest.mark.parametrize("argv,tested", SWEEP_COVERAGE)
def test_verify_sweep_coverage(capsys, argv, tested):
    code, report = run_json(capsys, argv.split())
    assert code == 0
    assert report["tested"] == tested
    assert report["failures"] == []
    if report["check"] == "reduction":
        assert report["units"] == ["1"]


@pytest.mark.parametrize(
    "argv",
    [
        "verify recursum --max 1",
        "verify theta-recursion --max 0",
        "verify annihilation --graph tet --edge 1 --max 1",
    ],
)
def test_verify_empty_grid_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sample_count_below_one_exit_2(capsys):
    for argv in (
        "lagrangian --samples 0",
        "residual --samples -3",
        "verify eliminate --samples 0",
    ):
        code, out, err = run(capsys, argv.split())
        assert code == 2, argv
        assert out == ""
        assert err == "usage error: --samples must be at least 1\n"


@pytest.mark.parametrize("argv", ["lagrangian --graph tet", "residual --graph tet", "verify eliminate"])
def test_sample_count_above_cap_exit_2(capsys, monkeypatch, argv):
    # refused before any sample is drawn: every sampled command seeds its own random.Random
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(cli.random, "Random", no_draw)
    code, out, err = run(capsys, argv.split() + ["--samples", str(cli.SAMPLE_CAP + 1)])
    _assert_one_line_usage_error(code, out, err)
    assert err == f"usage error: --samples {cli.SAMPLE_CAP + 1} is above the sample cap {cli.SAMPLE_CAP}\n"


def test_verify_eliminate(capsys):
    code, report = run_json(capsys, ["verify", "eliminate", "--samples", "5"])
    assert code == 0
    assert report["divides"] is True
    assert report["resultant_terms"] > 0
    assert report["max_residual"] <= report["tolerance"]


# -- numeric commands --------------------------------------------------------------------------

ASYM_ARGS = ["asymptotics", "theta", "--x", "0.5,0.5,0.5", "--hbar", "-0.03125,-0.015625"]


def test_asymptotics_theta_example(capsys):
    # the negative --hbar list arrives as a separate argv token on purpose
    code, report = run_json(capsys, ASYM_ARGS)
    assert code == 0
    assert report["problems"] == []
    assert report["passed"] is True
    assert len(report["rows"]) == 2
    assert all(r["status"] == "ok" for r in report["rows"])
    (ratio,) = report["error_ratios"]
    assert 1.6 <= ratio <= 2.4


def test_asymptotics_rejects_positive_hbar(capsys):
    code, out, err = run(capsys, ["asymptotics", "theta", "--x", "0.5,0.5,0.5", "--hbar", "0.1"])
    assert code == 2
    assert "usage error" in err


def test_asymptotics_single_hbar_exit_2(capsys):
    # error ratios and the extrapolation need two rows: one hbar is bad input, not a failed check
    code, out, err = run(capsys, ["asymptotics", "theta", "--x", "0.5,0.5,0.5", "--hbar", "-0.03125"])
    _assert_one_line_usage_error(code, out, err)
    assert "at least two values" in err


def test_asymptotics_unusable_rows_exit_1_with_strict_json(capsys):
    # both colorings round to (0, 0, 0): the rows become unusable at run time, which
    # is a failed check, and the missing extrapolation renders as null
    code, report = run_json(capsys, ["asymptotics", "theta", "--x", "0.999,0.999,0.999", "--hbar", "-0.5,-0.25"])
    assert code == 1
    assert report["problems"] == ["needs at least two usable rows"]
    assert report["richardson"] is None
    assert report["richardson_rel_err"] is None


def test_saddle_zero_root_renders_null_in_json(capsys):
    # the z = 0 root has infinite residuals: null in JSON, inf in text and CSV
    argv = ["saddle", "--x", "0.35,0.35,0.35,0.35,0.35,0.35"]
    code, report = run_json(capsys, argv)
    assert code == 0
    zero = [r for r in report["rows"] if r["re"] == 0.0 and r["im"] == 0.0]
    assert len(zero) == 1
    assert zero[0]["curve_residual"] is None and zero[0]["lattice_residual"] is None
    for fmt in ("text", "csv"):
        code, out, err = run(capsys, ["--format", fmt] + argv)
        assert code == 0
        assert "inf" in out and "null" not in out


def test_saddle_three_roots(capsys):
    code, report = run_json(capsys, ["saddle", "--x", "0.35,0.35,0.35,0.35,0.35,0.35"])
    assert code == 0
    assert report["passed"] is True
    assert len(report["rows"]) == 3
    chosen_rows = [r for r in report["rows"] if r["chosen"] == "yes"]
    assert len(chosen_rows) == 1
    assert chosen_rows[0]["curve_residual"] <= 1e-8
    assert report["residual"] <= report["tolerance"]


def _assert_one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_saddle_overflow_exit_2(capsys):
    # a power of the huge eigenvalue overflows a complex double in the classical curve
    code, out, err = run(capsys, ["saddle", "--x", "0.5,0.5,1e300,0.5,0.5,0.5"])
    _assert_one_line_usage_error(code, out, err)
    assert "out of range" in err


@pytest.mark.parametrize("x", ["0,0,0,0,0,0", "1,1,1,1,1,1"])
def test_saddle_degenerate_point_exit_2(capsys, x):
    # x = 0: both quadratic roots vanish; x = 1: the quadratic itself does
    code, out, err = run(capsys, ["saddle", "--x", x])
    _assert_one_line_usage_error(code, out, err)
    assert "degenerate" in err


@pytest.mark.parametrize(
    "argv",
    [
        "saddle --x inf,0.35,0.35,0.35,0.35,0.35",
        "saddle --x 0.35,0.35,nan,0.35,0.35,0.35",
        "asymptotics tet --x nan,0.35,0.35,0.35,0.35,0.35 --hbar -0.1",
        "asymptotics theta --x 0.5,-inf,0.5 --hbar -0.1",
        "asymptotics theta --x 0.5,0.5,0.5 --hbar -0.1,nan",
        # exp(-1e-17) rounds to 1
        "asymptotics theta --x 0.5,0.5,0.5 --hbar -1e-17",
        "asymptotics tet --x 0.3,0.3,0.3,0.3,0.3,0.3 --hbar -0.1,-1e-17",
        "theta -c 1,1,0 --eval nan",
        "theta -c 1,1,0 --eval 1+infj",
        # a minus sign before a letter: still the flag's value, not an option name
        "asymptotics theta --x -inf,0.5,0.5 --hbar -0.1",
        "asymptotics theta --x 0.5,0.5,0.5 --hbar -inf",
        "theta -c 1,1,0 --eval -nan",
    ],
)
def test_non_finite_numbers_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        # a zero eigenvalue has no theta potential
        "asymptotics theta --x 0,0,0 --hbar -0.1",
        # the tet saddle polynomial vanishes identically at x = 1
        "asymptotics tet --x 1,1,1,1,1,1 --hbar -0.1,-0.05",
        # every nonzero saddle root meets a twist pole whose denominator underflows to 0
        "saddle --x 0.5,1e-200,0.5,0.5,0.5,1e-200",
        "asymptotics tet --x 0.5,1e-200,0.5,0.5,0.5,1e-200 --hbar -1000,-2000",
        # the colors round to 12 and 6, where the saddle quadratic of x_eff degenerates
        "asymptotics tet --x " + ",".join(["0.999999994"] * 6) + " --hbar -1e-9,-2e-9",
        # the product of the three eigenvalues underflows to 0, the log's singular point
        "asymptotics theta --x 0.3,1e-200,1e-200 --hbar -0.2,-0.1",
    ],
)
def test_asymptotics_singular_point_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert "singular point" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        # the tiny root's twist denominator underflows to 0; the other root solves the curve
        ("saddle --x 0.5,0.5,0.5,0.5,0.5,1e-200", 0),
        # the saddle gives the target, but both colorings round to 0, so no row is usable
        ("asymptotics tet --x 0.5,0.5,0.5,0.5,0.5,1e-200 --hbar -1000,-2000", 1),
        # a subnormal root's slope is NaN: its lattice error is inf, where rounding it raised
        ("saddle --x 2,1e-300,0.9,0.9,1e-10,0.7", 0),
    ],
)
def test_saddle_root_at_underflowing_pole_reports(capsys, argv, want):
    code, out, err = run(capsys, ["--format", "json"] + argv.split())
    report = json.loads(out, parse_constant=_reject_constant)
    assert (code, report["passed"], err) == (want, want == 0, "")


@pytest.mark.parametrize(
    "argv",
    [
        # a triple product of the eigenvalues underflows to 0, and the potential divides by it
        "asymptotics tet --x 1e-10,0.3,0.9,0.3,5e-324,0.999999999 --hbar -50,-1000",
        # a power in the classical curve overflows a complex double
        "asymptotics tet --x 0.3,1e-160,5e-324,0.9,0.7,0.9 --hbar -0.5,-1000",
    ],
)
def test_asymptotics_products_out_of_range_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert "out of range" in err


@pytest.mark.parametrize(
    "argv",
    [
        # colors about 1.4e16: the theta table used to run without end
        "asymptotics theta --x 0.5,0.5,0.5 --hbar -1e-16",
        # colors about 2.1e9: the tet table used to raise MemoryError
        "asymptotics tet --x 0.35,0.35,0.35,0.35,0.35,0.35 --hbar -1e-9",
        # colors about 2.1e5: the tet table used to run for minutes
        "asymptotics tet --x 0.35,0.35,0.35,0.35,0.35,0.35 --hbar -0.01,-1e-5",
        # plain rounding gives 10000,6000,5000, whose sum is odd; the row that
        # restores admissibility runs at 10001,6000,5001, one past the cap
        "asymptotics theta --x 0.007574013049559057,0.05341372732716633,0.08699587882735979"
        " --hbar -0.0009765625,-0.001953125",
    ],
)
def test_asymptotics_color_cap_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert f"cap {MAX_GROWTH_COLOR}" in err


def test_asymptotics_exhausted_ladder_exit_2(capsys, monkeypatch):
    # a sum that never clears the trust test walks all eight rungs
    monkeypatch.setattr(asymptotics, "_tet_rung", lambda taus, ups, hbar, bits: (1, 1 << 50000, 0))
    code, out, err = run(capsys, "asymptotics tet --x 0.35,0.35,0.35,0.35,0.35,0.35 --hbar -0.1,-0.05".split())
    _assert_one_line_usage_error(code, out, err)
    assert "precision ladder" in err


def test_asymptotics_zero_survivor_exit_2(capsys, monkeypatch):
    # a sum computed as 0 on every rung is never trusted: it used to report log|tet| = -inf
    monkeypatch.setattr(asymptotics, "_tet_rung", lambda taus, ups, hbar, bits: (0, 1, 0))
    code, out, err = run(capsys, "asymptotics tet --x 0.35,0.35,0.35,0.35,0.35,0.35 --hbar -0.1,-0.05".split())
    _assert_one_line_usage_error(code, out, err)
    assert "precision ladder" in err


@pytest.mark.parametrize(
    "argv",
    [
        # colors solve x = exp(hbar n / 2): a negative x used to reach math.log
        "asymptotics tet --x -0.3,0.3,0.3,0.3,0.3,0.3 --hbar -0.1",
        "asymptotics theta --x -0.5,0.5,0.5 --hbar -0.1",
        # one zero tet coordinate used to divide by zero in the saddle solve
        "asymptotics tet --x 0,0.3,0.3,0.3,0.3,0.3 --hbar -0.1",
    ],
)
def test_asymptotics_nonpositive_x_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert "must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        # no color reaches x = 2: used to exit 1 with "needs at least two usable rows"
        "asymptotics tet --x 2,2,2,2,2,2 --hbar -0.1,-0.05",
        # used to exit 1 with target nan
        "asymptotics theta --x 1e300,1,1 --hbar -0.1,-0.05",
    ],
)
def test_asymptotics_x_above_one_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert "must be at most 1" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        ("verify classical-limit --graph theta --max 0", "--max"),
        ("verify eliminate --graph tet --samples 2", "--graph"),
        ("verify eliminate --max 3", "--max"),
        ("verify theta-recursion --max 4 --edge a", "--edge"),
        ("verify symmetry --graph tet", "--graph"),
        ("verify recursum --samples 3", "--samples"),
        ("verify hypergeom --inject-bad-operator", "--inject-bad-operator"),
        ("verify annihilation --graph theta --edge a --samples 2", "--samples"),
    ],
)
def test_verify_rejects_options_of_other_checks(capsys, argv, option):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    check = argv.split()[1]
    assert err == f"usage error: verify {check} does not take {option}\n"


@pytest.mark.parametrize("color", ["53", "120"])
def test_eval_at_pole_exit_2(capsys, color):
    # theta(n, n, 0) has terms down to v^-n, so v = 0 is a pole; at these colors
    # the value spans more terms than Horner's rule takes, so the halving runs
    code, out, err = run(capsys, ["theta", "-c", f"{color},{color},0", "--eval", "0"])
    _assert_one_line_usage_error(code, out, err)
    assert err.startswith("usage error: --eval 0:")


@pytest.mark.parametrize(
    "argv",
    [
        # each value is beyond a double's range, where a float sum would give inf
        "theta -c 4,4,4 --eval 1e200",
        "tet -c 2,2,2,2,2,2 --eval 1e-200",
        "tet --primed -c 40,40,40,40,40,40 --eval 0.7+0.2j",
    ],
)
def test_eval_out_of_double_range_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert err.startswith(f"usage error: --eval {argv.split()[-1]}:")


def test_precision_is_no_longer_an_option(capsys):
    # --eval is exact and correctly rounded, so there is no precision to set
    code, out, err = run(capsys, ["--precision=120", "theta", "-c", "1,1,0", "--eval", "0.9"])
    _assert_one_line_usage_error(code, out, err)
    assert "unrecognized arguments: --precision=120" in err


@pytest.mark.parametrize("command", ["lagrangian", "residual"])
def test_global_seed_matches_subcommand_seed(capsys, command):
    args = [command, "--graph", "theta", "--samples", "2"]
    code1, out1, _ = run(capsys, ["--format", "json", "--seed", "5"] + args)
    code2, out2, _ = run(capsys, ["--format", "json"] + args + ["--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 5


def test_lagrangian_theta(capsys):
    code, report = run_json(
        capsys, ["lagrangian", "--graph", "theta", "--samples", "10", "--seed", "7"]
    )
    assert code == 0
    assert report["max_asymmetry"] <= report["tolerance"]
    assert len(report["rows"]) == 10
    assert report["step"] == asymptotics.LAGRANGIAN_STEP == 1e-5


def test_residual_theta(capsys):
    code, report = run_json(capsys, ["residual", "--graph", "theta", "--samples", "15"])
    assert code == 0
    assert report["max_residual"] <= 1e-9
    ok = [r for r in report["rows"] if r["status"] == "ok"]
    assert len(ok) + report["skipped"] == 15


def test_residual_tet(capsys):
    code, report = run_json(capsys, ["residual", "--graph", "tet", "--samples", "5"])
    assert code == 0
    assert report["max_residual"] <= 1e-8


@pytest.mark.parametrize("graph", ["theta", "tet"])
def test_residual_nan_is_skipped(capsys, monkeypatch, graph):
    # a NaN on any curve, not only on the first, makes the sample skipped rather than a pass
    results = iter([{"1": 1e-12, "2": math.nan}, {"1": 1e-12, "2": 2e-12}])
    monkeypatch.setattr(cli, f"check_residual_{graph}", lambda x, rec=None: next(results))
    code, report = run_json(capsys, ["residual", "--graph", graph, "--samples", "2"])
    assert code == 0
    assert report["skipped"] == 1 and report["max_residual"] == 2e-12
    assert [(r["status"], r["residual"]) for r in report["rows"]] == [("skipped", None), ("ok", 2e-12)]


@pytest.mark.parametrize("graph", ["theta", "tet"])
def test_residual_every_sample_skipped_exit_2(capsys, monkeypatch, graph):
    monkeypatch.setattr(cli, f"check_residual_{graph}", lambda x, rec=None: {"1": 0.0, "2": math.nan})
    code, out, err = run(capsys, ["residual", "--graph", graph, "--samples", "3"])
    _assert_one_line_usage_error(code, out, err)
    assert "skipped all 3 samples" in err


def test_lagrangian_singular_point_exit_2(capsys, monkeypatch):
    # at the fixed step no sample of the sampler reaches a singular point, so one is injected
    def singular(graph, x, rec=None):
        raise SingularPointError("twist pole")

    monkeypatch.setattr(cli, "lagrangian_residual", singular)
    code, out, err = run(capsys, ["lagrangian", "--graph", "tet", "--samples", "2"])
    _assert_one_line_usage_error(code, out, err)
    assert "moves sample 0 onto a singular point: twist pole" in err


def test_lagrangian_step_is_not_an_option(capsys):
    # the step is fixed at asymptotics.LAGRANGIAN_STEP
    code, out, err = run(capsys, ["lagrangian", "--graph", "theta", "--step", "1e-5"])
    _assert_one_line_usage_error(code, out, err)
    assert "unrecognized arguments: --step 1e-5" in err


@pytest.mark.parametrize(
    "argv",
    [
        # each tolerance is far below what the check reaches: the check fails, the argv is no usage error
        "--tol lagrangian_theta=1e-20 lagrangian --graph theta --samples 3",
        "--tol residual_theta=1e-30 residual --graph theta --samples 3",
        "--tol saddle=1e-40 saddle --x 0.35,0.35,0.35,0.35,0.35,0.35",
    ],
)
def test_tight_tolerance_fails_the_check(capsys, argv):
    code, report = run_json(capsys, argv.split())
    assert code == 1 and report["passed"] is False
    code, out, err = run(capsys, argv.split())
    assert (code, err) == (1, "")
    assert "passed: false\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        "--seed 1 residual --graph tet --samples 20",
        "--seed 1 lagrangian --graph tet --samples 20",
        "--seed 1 verify eliminate --samples 20",
    ],
)
def test_sampled_tet_commands_solve_each_saddle_once(capsys, monkeypatch, argv):
    # the sampler solves only candidates with a root clear of the degeneracies,
    # 23 for these 20 points, and hands each accepted record on; solving every
    # candidate and then the accepted point again took 121
    real = asymptotics.saddle_solve_tet
    calls = []
    monkeypatch.setattr(asymptotics, "saddle_solve_tet", lambda x: calls.append(x) or real(x))
    code, out, err = run(capsys, argv.split())
    assert (code, err) == (0, "")
    assert len(calls) <= 23


def test_unexpected_error_exit_3(capsys, monkeypatch):
    def boom(x):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "saddle_solve_tet", boom)
    code, out, err = run(capsys, ["saddle", "--x", "0.35,0.35,0.35,0.35,0.35,0.35"])
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


# each field draws from a list of ordinary values, and now and then from a list of odd ones
_FUZZ_X = (("0.3", "0.35", "0.4", "0.5", "0.6", "0.7"), ("1", "0", "-0.2", "1.5", "nan", "1e-200", "x"))
_FUZZ_HBAR = (("-0.2", "-0.1", "-0.05"), ("0.1", "0", "-1e-17", "nan", "-1000"))
_FUZZ_STEP = (("1e-5", "1e-3", "1e-7"), ("1e-12", "0", "700", "-1", "inf"))
_FUZZ_EVAL = (("0.9", "0.5+0.5j", "-0.7", "1.1"), ("0", "1", "-1", "1e200", "abc", "nan"))
_FUZZ_CHECK = (
    ("theta-recursion", "annihilation", "classical-limit", "symmetry", "reduction", "hypergeom", "recursum", "eliminate"),
    ("bogus",),
)
_FUZZ_EDGE = (("a", "b", "c", "1", "2", "12", "3", "4", "23"), ("z", ""))
_FUZZ_TOL = (("saddle=1e-6", "residual_tet=1e-30", "lagrangian_theta=1"), ("lagrangian_theta=0", "bogus=1", "saddle=x", "saddle"))


def _random_argv(rng, odd):
    """One invocation from a bounded space: small colors, grids and sample counts."""

    def draw(field):
        return rng.choice(field[rng.random() < odd])

    def count(n):
        return n if rng.random() >= odd else rng.choice((n - 1, n + 1))

    out = []
    if rng.random() < 0.7:
        out += ["--format", rng.choice(("text", "json", "csv"))]
    if rng.random() < 0.2:
        out += ["--seed", str(rng.randint(-3, 9))]
    if rng.random() < 0.15:
        out += ["--tol", draw(_FUZZ_TOL)]
    if rng.random() < 0.1:
        out += ["--grid-max", str(rng.randint(-1, 2))]
    command = rng.choice(("theta", "tet", "verify", "asymptotics", "saddle", "lagrangian", "residual"))
    if command in ("theta", "tet"):
        top, n = (8, 3) if command == "theta" else (5, 6)
        out += [command, "-c", ",".join(str(rng.randint(-(rng.random() < odd), top)) for _ in range(count(n)))]
        if command == "tet" and rng.random() < 0.5:
            out.append("--primed")
        if rng.random() < 0.4:
            out += ["--eval", draw(_FUZZ_EVAL)]
    elif command == "verify":
        check = draw(_FUZZ_CHECK)
        out += ["verify", check]
        # grid checks always get a small bound: their default grids take seconds
        if check not in ("classical-limit", "eliminate") or rng.random() < odd:
            out += ["--max", str(rng.randint(-1, 3))]
        if rng.random() < 0.5:
            out += ["--graph", rng.choice(("theta", "tet"))]
        if rng.random() < 0.3:
            out += ["--edge", draw(_FUZZ_EDGE)]
        if rng.random() < 0.3:
            out += ["--samples", str(rng.randint(0, 2))]
        if rng.random() < 0.2:
            out.append("--inject-bad-operator")
    elif command in ("asymptotics", "saddle"):
        graph = rng.choice(("theta", "tet")) if command == "asymptotics" else "tet"
        x = ",".join(draw(_FUZZ_X) for _ in range(count(3 if graph == "theta" else 6)))
        if command == "asymptotics":
            out += ["asymptotics", graph, "--x", x, "--hbar", ",".join(draw(_FUZZ_HBAR) for _ in range(rng.randint(1, 3)))]
        else:
            out += ["saddle", "--x", x]
    else:
        out += [command, "--graph", rng.choice(("theta", "tet")), "--samples", str(rng.randint(0, 3))]
        # lagrangian has no --step option: these draws test an unknown option
        if command == "lagrangian" and rng.random() < 0.6:
            out += ["--step", draw(_FUZZ_STEP)]
        if rng.random() < 0.3:
            out += ["--seed", str(rng.randint(0, 9))]
    return out


@pytest.mark.parametrize("seed, odd", [(1, 0.1), (2, 0.1), (3, 0.35), (4, 0.35)])
def test_generated_argvs_exit_0_1_or_2(capsys, seed, odd):
    """Any argv ends in a verdict or a usage error: no traceback, no exit 3, strict JSON."""
    rng = random.Random(seed)
    start = time.perf_counter()
    for _ in range(250):
        argv = _random_argv(rng, odd)
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (argv, captured.err)
        assert "Traceback" not in captured.err, argv
        if code != 2 and argv[:2] == ["--format", "json"]:
            json.loads(captured.out, parse_constant=_reject_constant)
    assert time.perf_counter() - start < 10


# -- the option table against argparse --------------------------------------------------------


class _OracleError(Exception):
    """argparse's usage error, raised where ArgumentParser.error would print usage and exit 2."""


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _OracleError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argparse front end that cli's option table replaced, kept as the oracle of cli._parse."""
    parser = _OracleParser(
        prog="qgraph",
        description="Exact and numeric checks for colored trivalent-graph invariants.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument(
        "--format", choices=config.OUTPUT_FORMATS, help="output format override"
    )
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="tolerance override, repeatable",
    )
    parser.add_argument("--grid-max", type=int, help="verification grid bound override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="exact theta invariant")
    p_theta.add_argument("-c", "--colors", required=True, help="a,b,c")
    p_theta.add_argument("--eval", help="also evaluate at this value of q^(1/2)")

    p_tet = sub.add_parser("tet", help="exact tetrahedron invariant")
    p_tet.add_argument("-c", "--colors", required=True, help="j1,j2,j12,j3,j4,j23")
    p_tet.add_argument("--primed", action="store_true", help="normalized summation form")
    p_tet.add_argument("--eval", help="also evaluate at this value of q^(1/2)")

    p_verify = sub.add_parser("verify", help="exact verification sweeps")
    p_verify.add_argument("check", choices=sorted(cli._VERIFY_CHECKS))
    p_verify.add_argument("--max", type=int, help="grid bound (color entries)")
    p_verify.add_argument("--graph", choices=["theta", "tet"], help="graph family")
    p_verify.add_argument("--edge", help="edge label for operator checks")
    p_verify.add_argument("--samples", type=int, help="numeric sample count")
    p_verify.add_argument(
        "--inject-bad-operator",
        action="store_true",
        help="negative control: use a sign-flipped operator and expect failure",
    )

    p_asym = sub.add_parser("asymptotics", help="growth table against the potential")
    p_asym.add_argument("graph", choices=["theta", "tet"])
    p_asym.add_argument("--x", required=True, help="eigenvalue list")
    p_asym.add_argument("--hbar", required=True, help="negative hbar list")

    p_saddle = sub.add_parser("saddle", help="tetrahedron saddle roots")
    p_saddle.add_argument("--x", required=True, help="six eigenvalues")

    p_lag = sub.add_parser("lagrangian", help="twist Jacobian symmetry sweep")
    p_lag.add_argument("--graph", choices=["theta", "tet"], default="theta")
    p_lag.add_argument("--samples", type=int)
    p_lag.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p_res = sub.add_parser("residual", help="classical curve residual sweep")
    p_res.add_argument("--graph", choices=["theta", "tet"], default="theta")
    p_res.add_argument("--samples", type=int)
    p_res.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    return parser


# flags that always take a value, which may begin with a minus sign (-2,
# -inf, -nan); joined with "=" so argparse does not mistake the value for
# an option name.  A following token that is one of the parser's own option
# names is left alone, so argparse reports the flag's missing value.
_NEGATIVE_VALUE_FLAGS = ("--hbar", "--x", "--eval", "-c", "--colors")


def _option_names(parser) -> set:
    """Every option string of the parser and of its subcommands."""
    names = set()
    for action in parser._actions:
        names.update(action.option_strings)
        if isinstance(action.choices, dict):
            for sub in action.choices.values():
                names |= _option_names(sub)
    return names


def _join_negative_values(argv, options):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _NEGATIVE_VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and nxt.partition("=")[0] not in options
        ):
            out.append(tok + "=" + nxt)
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


_ORACLE = build_parser()
_ORACLE_NAMES = _option_names(_ORACLE)


def _both_parses(argv):
    """(argparse's namespace or error text, cli._parse's namespace or error text) for argv."""
    try:
        want = vars(_ORACLE.parse_args(_join_negative_values(list(argv), _ORACLE_NAMES)))
    except _OracleError as exc:
        want = str(exc)
    try:
        got = vars(cli._parse(list(argv)))
    except cli.UsageError as exc:
        got = str(exc)
    return want, got


# argvs that reach each way of parsing, or failing to parse, an option, a positional and the command
_PARSE_CASES = [
    "",
    "--format json",
    "--format xml theta -c 1,1,0",
    "--format=csv --seed=-3 --grid-max -1 --tol a=1 --tol=b=2 --config c.json verify symmetry",
    "--seed x saddle --x 1",
    "--bogus theta -c 1,1,0",
    "-c 1,1,0 theta",
    "nosuch -c 1,1,0",
    "theta",
    "theta -c",
    "theta --colors=-1,2,3 --eval=-0.5",
    "theta -c 1,1,0 --eval -c",
    "theta -c 1,1,0 --format json",
    "theta -c 1,1,0 extra words",
    "tet --primed=1 -c 0,0,0,0,0,0",
    "tet -c 0,0,0,0,0,0 --primed --primed",
    "verify",
    "verify bogus --max 2",
    "verify --max 2 symmetry --max 3",
    "verify symmetry extra",
    "verify symmetry --max x",
    "verify --graph tet annihilation --edge 12 --inject-bad-operator",
    "verify annihilation --graph cube",
    "asymptotics",
    "asymptotics --x 0.5,0.5,0.5 theta --hbar -0.1,-0.05",
    "asymptotics spam --x 1 --hbar -1",
    "asymptotics tet --x 1",
    "saddle --x -1,2,3,4,5,6 --x 1",
    "--seed 5 lagrangian",
    "--seed 5 residual --seed 6 --graph tet --samples 0",
    "lagrangian --graph tet --samples",
    "lagrangian --seed --samples 2",
    "residual --samples -1",
]


def _oracle_argvs(monkeypatch):
    """The generated argvs, every benchmark argv and _PARSE_CASES."""
    argvs = [case.split() for case in _PARSE_CASES]
    for seed, odd in ((1, 0.1), (2, 0.1), (3, 0.35), (4, 0.35)):
        rng = random.Random(seed)
        argvs += [_random_argv(rng, odd) for _ in range(250)]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        for name in ("workloads", "oracle"):
            sys.modules.pop(name, None)
    for build in WORKLOADS.values():
        argvs += [list(op.argv) for seed in (1, 2, 7) for op in build(seed)]
    return argvs


def test_option_table_parses_as_argparse_did(capsys, monkeypatch):
    """Accepted by both or by neither; the same namespace when accepted, argparse's words and exit 2 when not."""
    argvs = _oracle_argvs(monkeypatch)
    accepted = 0
    for argv in argvs:
        want, got = _both_parses(argv)
        assert got == want, argv
        if isinstance(got, str):
            _assert_one_line_usage_error(*run(capsys, argv))
        accepted += isinstance(got, dict)
    assert 0 < accepted < len(argvs)


# where cli._parse and argparse part ways on purpose: (argparse's namespace or error, cli._parse's error)
_ORACLE_DIFFERENCES = {
    # argparse takes any unique prefix of a long option; the table knows only whole names
    "abbreviation": ("tet --prim -c 0,0,0,0,0,0", "unrecognized arguments: --prim"),
    "attached short value": ("theta -c1,1,0", "the following arguments are required: -c/--colors"),
    # every value option takes a value that starts with "-"; argparse took one only after the five joined flags
    "dash value": ("verify annihilation --edge -a", None),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_DIFFERENCES))
def test_documented_differences_from_argparse(name):
    argv, error = _ORACLE_DIFFERENCES[name]
    want, got = _both_parses(argv.split())
    if error is None:
        assert isinstance(want, str) and isinstance(got, dict)
    else:
        assert isinstance(want, dict) and got == error


def test_help_lists_every_command_check_and_option(capsys):
    texts = {}
    for argv in (["-h"], ["--help"], *([command, "-h"] for command in cli._COMMANDS), ["verify", "--max", "2", "--help"]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: qgraph "), argv
        texts[argv[0] if argv[0][0] != "-" else None] = out
    for command, (about, table) in cli._COMMANDS.items():
        assert command in texts[None] and about in texts[None]
        for opt in table:
            for name in opt.names.split("/"):
                assert name in texts[command], (command, name)
            assert opt.help in texts[command]
    for check in cli._VERIFY_CHECKS:
        assert check in texts["verify"]
    for opt in build_parser()._actions:
        for name in opt.option_strings:
            assert name in texts[None]


# -- determinism -------------------------------------------------------------------------------


def test_json_output_is_byte_identical(capsys):
    code1 = main(["--format", "json"] + ASYM_ARGS)
    out1 = capsys.readouterr().out
    code2 = main(["--format", "json"] + ASYM_ARGS)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def _finite_or_none(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def _indent_oracle(obj) -> str:
    """The JSON layout of every report: json's pure-Python indent=2 encoder, non-finite floats as null."""
    return json.dumps(_finite_or_none(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


# the four large-color operations of the benchmark at seed 1
LARGE_COLOR_ARGVS = [
    "theta -c 56,64,60",
    "theta -c 58,62,66",
    "tet --primed -c 26,22,20,28,22,24",
    "tet -c 26,22,28,26,20,24",
]


@pytest.mark.parametrize("argv", LARGE_COLOR_ARGVS)
def test_json_layout_matches_indent_oracle_on_large_reports(capsys, monkeypatch, argv):
    seen = []
    real = cli._render
    monkeypatch.setattr(cli, "_render", lambda report, rows, fmt: seen.append(report) or real(report, rows, fmt))
    code, out, err = run(capsys, ["--format", "json"] + argv.split())
    assert code == 0 and len(seen) == 1
    assert out == _indent_oracle(seen[0])
    assert len(seen[0]["value"]["num"]["terms"]) > 500


# each piece a string the writer must escape, or the raw text of one of its separators
_AWKWARD_TEXT = st.lists(
    st.sampled_from(["]", "[", ",", '"', "\\", "\n", "\x00", "\x1f", "\t", "é", " ", "\U0001f600", "\ud800",
                     ",\n  ", "],\n    [", "]\n  ]", ": ", "null", "1e5"]),
    max_size=6,
).map("".join)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-8, 8),
    st.integers(-(2**300), 2**300),
    st.floats(),
    st.text(max_size=8),
    _AWKWARD_TEXT,
)
# json sorts a dict's keys before converting them, so one dict holds str keys or number keys, never both
_DICT_KEYS = st.sampled_from([
    st.text(max_size=6) | _AWKWARD_TEXT,
    st.integers(-(2**70), 2**70) | st.floats(allow_nan=False, allow_infinity=False) | st.booleans(),
])
_FLAT = st.lists(_SCALAR, max_size=4)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        _DICT_KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
        st.dictionaries(st.none(), children, max_size=1),
        st.lists(_FLAT, max_size=4),  # flat lists, empty ones among them
        st.lists(st.one_of(_FLAT, st.lists(_FLAT, max_size=2), st.dictionaries(st.text(max_size=3), _SCALAR)), max_size=4),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALAR | _FLAT, _containers, max_leaves=24))
@example([[0, "1"], [2, "-1"], [True, 1], [False, 0.5, None]])
@example([[], []])
@example([[1], []])
@example([[1, "a"], {"k": 1}])
@example([[1], [[2]]])
@example({"a": [1.0, float("nan")], "b": {"c": float("inf")}, "d": -float("inf"), "e": [[float("-inf"), 1]]})
@example({1: "x", 2.5: [], False: {}, -3: ()})
@example({None: [["]\n  [", "],\n    ["]]})
def test_json_layout_matches_indent_oracle(value):
    assert cli._render({"v": value}, None, "json") == _indent_oracle({"v": value})
    assert cli._render({"v": value}, (["c"], [{"c": value}]), "json") == _indent_oracle(
        {"v": value, "rows": [{"c": value}]}
    )


def test_json_non_finite_floats_are_null():
    report = {"a": [1.0, float("nan")], "b": {"c": float("inf")}, "d": [[-float("inf"), "x"]]}
    want = '{\n  "a": [\n    1.0,\n    null\n  ],\n  "b": {\n    "c": null\n  },\n  "d": [\n    [\n      null,\n      "x"\n    ]\n  ]\n}\n'
    assert cli._render(report, None, "json") == want


def test_no_second_indented_writer_in_src():
    # the indent=2 encoder is this file's oracle only
    src = Path(cli.__file__).parent
    assert not [p.name for p in src.glob("*.py") if "indent=" in p.read_text()]
    assert list(inspect.signature(cli._dumps).parameters) == ["obj"]


def test_csv_output_is_byte_identical_and_tabular(capsys):
    code1 = main(["--format", "csv"] + ASYM_ARGS)
    out1 = capsys.readouterr().out
    code2 = main(["--format", "csv"] + ASYM_ARGS)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "# check=asymptotics"
    header = "hbar,colors,scaled_log_abs,target,error,status,notes"
    assert header in lines
    assert len(lines) - lines.index(header) - 1 == 2  # one row per hbar


# -- configuration -----------------------------------------------------------------------------


def test_env_config_switches_format(capsys, tmp_path, monkeypatch):
    path = tmp_path / "qgraph.json"
    path.write_text(json.dumps({"output_format": "json"}))
    monkeypatch.setenv("QGRAPH_CONFIG", str(path))
    code = main(["verify", "reduction", "--max", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["check"] == "reduction"


def test_config_file_flag_sets_seed(capsys, tmp_path):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"seed": 3}))
    code, report = run_json(
        capsys,
        ["--config", str(path), "lagrangian", "--graph", "theta", "--samples", "2"],
    )
    assert code == 0
    assert report["seed"] == 3


def test_tol_override_changes_config_hash(capsys):
    _, base = run_json(capsys, ["verify", "classical-limit", "--graph", "theta"])
    _, tweaked = run_json(
        capsys, ["--tol", "saddle=0.01", "verify", "classical-limit", "--graph", "theta"]
    )
    assert base["config_hash"] != tweaked["config_hash"]
    assert base["passed"] and tweaked["passed"]


def test_bad_tol_exit_2(capsys):
    code, out, err = run(capsys, ["--tol", "saddle", "verify", "reduction"])
    assert code == 2
    assert "config error" in err


def test_infinite_tol_exit_2(capsys, tmp_path, monkeypatch):
    # an infinite tolerance would pass every check
    monkeypatch.delenv("QGRAPH_CONFIG", raising=False)
    code, out, err = run(capsys, ["--tol", "saddle=inf", "saddle", "--x", "0.35,0.35,0.35,0.35,0.35,0.35"])
    assert (code, out) == (2, "")
    assert err == "config error: tolerance 'saddle' must be positive and finite\n"
    path = tmp_path / "tols.json"
    path.write_text('{"tolerances": {"resultant": Infinity}}')
    code, out, err = run(capsys, ["--config", str(path), "verify", "eliminate", "--samples", "2"])
    assert (code, out) == (2, "")
    assert err == "config error: tolerance 'resultant' must be positive and finite\n"


def test_unknown_tol_name_exit_2(capsys, tmp_path, monkeypatch):
    # a name no command reads would only change the config hash
    monkeypatch.delenv("QGRAPH_CONFIG", raising=False)
    code, out, err = run(capsys, ["--tol", "foo=1", "verify", "reduction", "--max", "2"])
    assert (code, out) == (2, "")
    assert err == "config error: unknown tolerance names: ['foo']\n"
    path = tmp_path / "tols.json"
    path.write_text(json.dumps({"tolerances": {"sadle": 1e-6}}))
    code, out, err = run(capsys, ["--config", str(path), "verify", "reduction", "--max", "2"])
    assert (code, out) == (2, "")
    assert "unknown tolerance names: ['sadle']" in err
    monkeypatch.setenv("QGRAPH_CONFIG", str(path))
    code, out, err = run(capsys, ["verify", "reduction", "--max", "2"])
    assert (code, out) == (2, "")
    assert "unknown tolerance names: ['sadle']" in err


def test_grid_max_global_flag(capsys):
    code, report = run_json(capsys, ["--grid-max", "2", "verify", "hypergeom"])
    assert code == 0
    assert report["grid_max"] == 2


@pytest.mark.parametrize(
    "argv, graph",
    [
        ("verify symmetry --max 100000", "tet"),
        ("verify reduction --max 100000", "theta"),
        ("verify theta-recursion --max 61", "theta"),
        ("verify annihilation --graph tet --edge 2 --max 13", "tet"),
        ("--grid-max 13 verify hypergeom", "tet"),
        ("--grid-max 100000 verify recursum", "tet"),
    ],
)
def test_grid_above_cap_exit_2_at_once(capsys, argv, graph):
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv.split())
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert f"above the {graph} grid cap {cli.GRID_CAP[graph]}" in err


def test_grid_cap_covers_the_grids_in_use(tmp_path, capsys):
    # the defaults, and the largest grids the gates and the benchmark sweep (theta 20, tet 10)
    assert cli.GRID_CAP["theta"] >= max(20, *cli._VERIFY_DEFAULT_MAX.values())
    assert cli.GRID_CAP["tet"] >= 10
    cfg = default_config()
    for graph, cap in cli.GRID_CAP.items():
        args = argparse.Namespace(max=cap)
        assert cli._effective_max(args, cfg, "annihilation", graph) == cap
    # a config file's grid_max meets the same cap
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"grid_max": cli.GRID_CAP["tet"] + 1}))
    code, out, err = run(capsys, ["--config", str(path), "verify", "symmetry"])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: grid_max {cli.GRID_CAP['tet'] + 1} is above the tet grid cap")


# -- packaging ---------------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == VERSION


_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
import qgraph.cli as cli
argvs = (
    ["saddle", "--x", "0.35,0.35,0.35,0.35,0.35,0.35"],
    ["lagrangian", "--graph", "tet", "--samples", "2"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_cli_runs_without_importing_numpy():
    """numpy is a test-only dependency: the CLI and the saddle solve never import it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "numpy": False}


_NO_MPMATH_SCRIPT = """
import contextlib, io, sys
import qgraph.cli as cli
imported = "mpmath" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["asymptotics", "tet", "--x", "0.35,0.35,0.35,0.35,0.35,0.35", "--hbar", "-0.03125,-0.015625"])
print(imported, code, "mpmath" in sys.modules)
"""


def test_cli_runs_without_importing_mpmath():
    """mpmath is a test-only oracle: importing the CLI and running the precision ladder leave it out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_MPMATH_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]


_NO_ARGPARSE_SCRIPT = """
import contextlib, io, sys
import qgraph.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["theta", "-c", "4,4,4"])
print(code, *sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def test_cli_runs_without_importing_argparse():
    """The option table parses argv: a command loads neither argparse nor the gettext and locale it imports."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_ARGPARSE_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_benchmark_span_targets_bind():
    """perfbench/spans.py wraps package names by string; each must still resolve, and each cache keep cache_info."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(); spans.cache_dump()"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
