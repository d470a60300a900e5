import json
from pathlib import Path

import numpy as np
import pytest

from fblq.cli import main
from fblq.decouple import integrate_direct, l_coefficients
from fblq.errors import ParseError
from fblq.odes import TimeGrid
from fblq.problem_io import load_problem, problem_from_dict
from fblq.riccati import build_augmented, solve_auxiliary_riccati

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------

def test_load_example_files():
    for name in ("indefinite_weight_example", "partially_coupled_example",
                 "fully_coupled_example", "allzero_smoke", "forward_lq",
                 "backward_lq", "deterministic_coupled", "piecewise_demo"):
        prob = load_problem(PROBLEMS / f"{name}.yaml")
        assert prob.T == 1.0


def test_scalar_shorthand_accepted():
    prob = problem_from_dict({
        "dimensions": {"n": 1, "m": 1, "k": 1},
        "horizon": 1.0,
        "G": 1.0, "x0": 0.5,
        "coefficients": {"A1": 0.3, "D4": {"constant": 1.0}},
    })
    assert prob.G[0, 0] == 1.0
    assert prob.A1.value_at(0.0)[0, 0] == 0.3


def test_malformed_row_length_reports_row_index():
    doc = {
        "dimensions": {"n": 2, "m": 1, "k": 1},
        "horizon": 1.0,
        "G": [[1.0, 0.0], [0.0]],
    }
    with pytest.raises(ParseError) as err:
        problem_from_dict(doc)
    assert "row 1" in str(err.value)
    assert "G[1]" in str(err.value)


def test_unknown_keys_rejected():
    with pytest.raises(ParseError):
        problem_from_dict({"dimensions": {"n": 1, "m": 1, "k": 1},
                           "horizon": 1.0, "bogus": 1})
    with pytest.raises(ParseError):
        problem_from_dict({"dimensions": {"n": 1, "m": 1, "k": 1},
                           "horizon": 1.0, "coefficients": {"A9": 1.0}})


def test_piecewise_breakpoint_errors_are_parse_errors():
    doc = {
        "dimensions": {"n": 1, "m": 1, "k": 1},
        "horizon": 1.0,
        "coefficients": {"A1": {"breakpoints": [0.1, 0.5],
                                "values": [[[1.0]], [[2.0]]]}},
    }
    with pytest.raises(ParseError):
        problem_from_dict(doc)


# ---------------------------------------------------------------------------
# command-line behavior
# ---------------------------------------------------------------------------

def run(tmp_path, *argv) -> int:
    return main([*argv, "--output-dir", str(tmp_path)])


def test_validate_exit_codes(tmp_path):
    ok = run(tmp_path / "a", "validate", str(PROBLEMS / "partially_coupled_example.yaml"),
             "--level", "strictly_positive_control")
    assert ok == 0
    bad = run(tmp_path / "b", "validate", str(PROBLEMS / "indefinite_weight_example.yaml"),
              "--level", "strictly_positive_control")
    assert bad == 2
    report = (tmp_path / "b" / "validate.txt").read_text()
    assert "D4" in report and "FAIL" in report


def test_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("dimensions: {n: 1, m: 1, k: 1}\nhorizon: 1.0\nG: [[1.0, 2.0]]\n")
    assert run(tmp_path, "validate", str(bad)) == 1
    assert run(tmp_path, "validate", str(tmp_path / "missing.yaml")) == 1


def test_solve_direct_exact_manifest(tmp_path):
    code = run(tmp_path, "solve", str(PROBLEMS / "indefinite_weight_example.yaml"),
               "--method", "direct", "--schedule", "exact", "--grid", "500")
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "source: direct(exact)" in manifest["notes"]
    for name in ("P1", "P2", "P3", "phi1", "phi2"):
        assert (tmp_path / f"{name}.csv").exists()


def test_solve_limit_emits_diagnostics(tmp_path):
    code = run(tmp_path, "solve", str(PROBLEMS / "indefinite_weight_example.yaml"),
               "--method", "limit", "--schedule", "1,2,4", "--grid", "500")
    assert code == 0
    diag = json.loads((tmp_path / "limit_diagnostics.json").read_text())
    assert diag["converged"] is True


def test_solve_q_requires_positive_control_weight(tmp_path):
    code = run(tmp_path, "solve", str(PROBLEMS / "indefinite_weight_example.yaml"),
               "--method", "q", "--grid", "500")
    assert code == 2


def test_solve_riccati_writes_numeric_m1_trace(tmp_path):
    path = PROBLEMS / "partially_coupled_example.yaml"
    code = run(tmp_path, "solve", str(path), "--method", "riccati", "--schedule", "4",
               "--grid", "100")
    assert code == 0
    rows = np.loadtxt(tmp_path / "m1_min_eig.csv", delimiter=",", skiprows=1)
    prob = load_problem(path)
    grid = TimeGrid(prob.T, 100)
    ric = solve_auxiliary_riccati(build_augmented(prob), prob, 4, grid)
    assert rows.shape == (grid.steps + 1, 2)
    assert np.all(np.isfinite(rows))
    assert np.array_equal(rows[:, 0], grid.nodes)
    assert np.array_equal(rows[:, 1], ric.m1_min_eig)


def test_condition_trace_matches_gain_family(tmp_path):
    path = PROBLEMS / "fully_coupled_example.yaml"
    code = run(tmp_path, "solve", str(path), "--method", "direct", "--schedule", "4",
               "--grid", "100")
    assert code == 0
    rows = np.loadtxt(tmp_path / "condition_trace.csv", delimiter=",", skiprows=1)
    nodes = np.unique(np.linspace(0, 100, 65).astype(int))
    assert rows.shape == (len(nodes), 4)
    prob = load_problem(path)
    sol = integrate_direct(prob, 4, TimeGrid(prob.T, 100))
    for row, j in zip(rows, nodes):
        P1, P2, P3, _, _ = sol.at_node(j)
        g = l_coefficients(prob, P1, P2, P3, t=float(sol.grid.nodes[j]))
        assert row[0] == sol.grid.nodes[j]
        assert tuple(row[1:]) == (g.cond_L1, g.cond_L2, g.cond_L5)


def test_grid_must_align_with_breakpoints(tmp_path):
    code = run(tmp_path, "solve", str(PROBLEMS / "piecewise_demo.yaml"),
               "--method", "direct", "--schedule", "exact", "--grid", "501")
    assert code == 2
    code = run(tmp_path, "solve", str(PROBLEMS / "piecewise_demo.yaml"),
               "--method", "direct", "--schedule", "exact", "--grid", "500")
    assert code == 0


def test_simulate_smoke_values_and_reproducibility(tmp_path):
    args = ("simulate", str(PROBLEMS / "allzero_smoke.yaml"), "--grid", "250",
            "--steps", "500", "--paths", "64", "--seed", "7")
    assert run(tmp_path / "r1", *args) == 0
    assert run(tmp_path / "r2", *args) == 0
    a = json.loads((tmp_path / "r1" / "cost_report.json").read_text())
    b = json.loads((tmp_path / "r2" / "cost_report.json").read_text())
    assert a == b
    assert a["mc_mean"] == 2.0
    assert a["mc_stderr"] == 0.0
    bands = (tmp_path / "r1" / "trajectory_bands.csv").read_text().splitlines()
    assert len(bands) == 502


def test_simulate_steps_must_refine_grid(tmp_path):
    code = run(tmp_path, "simulate", str(PROBLEMS / "allzero_smoke.yaml"),
               "--grid", "300", "--steps", "500", "--paths", "8")
    assert code == 2


def test_simulate_export_paths(tmp_path):
    code = run(tmp_path, "simulate", str(PROBLEMS / "fully_coupled_example.yaml"),
               "--grid", "250", "--steps", "250", "--paths", "16",
               "--export-paths", "3")
    assert code == 0
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 251
    assert (tmp_path / "gains.csv").exists()


def test_verify_identities_exit_zero(tmp_path):
    code = run(tmp_path, "verify", str(PROBLEMS / "fully_coupled_example.yaml"),
               "--suite", "identities", "--grid", "500")
    assert code == 0
    rows = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(r["passed"] for r in rows)


def test_verify_special_on_generic_instance_is_precondition_error(tmp_path):
    code = run(tmp_path, "verify", str(PROBLEMS / "fully_coupled_example.yaml"),
               "--suite", "special", "--grid", "500")
    assert code == 2


def test_verify_all_suites_end_to_end(tmp_path):
    code = run(tmp_path, "verify", str(PROBLEMS / "partially_coupled_example.yaml"),
               "--suite", "all", "--grid", "500", "--paths", "800")
    assert code == 0
    rows = json.loads((tmp_path / "verify_report.json").read_text())
    suites = {r["suite"] for r in rows}
    assert {"identities", "monotone", "rate", "optimality"} <= suites
    assert all(r["passed"] for r in rows)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert any("special suite skipped" in note for note in manifest["notes"])


@pytest.mark.parametrize("command", ["validate", "solve", "simulate", "verify"])
def test_threads_option_rejected(tmp_path, command):
    with pytest.raises(SystemExit) as err:
        run(tmp_path, command, str(PROBLEMS / "allzero_smoke.yaml"), "--threads", "2")
    assert err.value.code == 2


@pytest.mark.parametrize("name,expected", [
    ("allzero_smoke", 0),
    ("backward_lq", 3),                # P_tilde singular at t = T (G = F = 0)
    ("deterministic_coupled", 0),
    ("forward_lq", 0),
    ("fully_coupled_example", 0),
    ("indefinite_weight_example", 3),  # M1 side condition fails near T
    ("partially_coupled_example", 0),
    ("piecewise_demo", 0),
])
def test_verify_optimality_exit_codes(tmp_path, name, expected):
    code = run(tmp_path, "verify", str(PROBLEMS / f"{name}.yaml"),
               "--suite", "optimality", "--grid", "100", "--paths", "200")
    assert code == expected
