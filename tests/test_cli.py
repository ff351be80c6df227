"""Command line surface: exit codes, report envelopes, determinism, config plumbing."""

import json

import pytest

from qgraph.cli import main
from qgraph.invariants import TetColoring, tet_primed, theta_invariant


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, ["--format", "json"] + list(argv))
    return code, json.loads(out)


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
    assert report["text"] == str(tet_primed(TetColoring(2, 2, 2, 2, 2, 2)))


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


def test_saddle_three_roots(capsys):
    code, report = run_json(capsys, ["saddle", "--x", "0.35,0.35,0.35,0.35,0.35,0.35"])
    assert code == 0
    assert report["passed"] is True
    assert len(report["rows"]) == 3
    chosen_rows = [r for r in report["rows"] if r["chosen"] == "yes"]
    assert len(chosen_rows) == 1
    assert chosen_rows[0]["curve_residual"] <= 1e-8
    assert report["residual"] <= report["tolerance"]


def test_lagrangian_theta(capsys):
    code, report = run_json(
        capsys, ["lagrangian", "--graph", "theta", "--samples", "10", "--seed", "7"]
    )
    assert code == 0
    assert report["max_asymmetry"] <= report["tolerance"]
    assert len(report["rows"]) == 10


def test_lagrangian_rejects_bad_step(capsys):
    code, out, err = run(capsys, ["lagrangian", "--graph", "theta", "--step", "0"])
    assert code == 2
    assert "usage error" in err


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


# -- determinism -------------------------------------------------------------------------------


def test_json_output_is_byte_identical(capsys):
    code1 = main(["--format", "json"] + ASYM_ARGS)
    out1 = capsys.readouterr().out
    code2 = main(["--format", "json"] + ASYM_ARGS)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_grid_max_global_flag(capsys):
    code, report = run_json(capsys, ["--grid-max", "2", "verify", "hypergeom"])
    assert code == 0
    assert report["grid_max"] == 2
