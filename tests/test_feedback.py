from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    make_fully_coupled,
    make_indefinite,
    make_partially_coupled,
    make_smoke,
    piecewise_matrix_problem,
    random_matrix_problem,
    random_scalar_problem,
)
from fblq.decouple import EXACT, integrate_direct, l_coefficients
from fblq.errors import DomainError, PreconditionError, SingularCoefficientError
from fblq.feedback import (
    closed_form_h_representation,
    closed_loop_coefficients,
    evaluate_gain_table,
    synthesize,
)
from fblq.mc import SimConfig, simulate_closed_loop
from fblq.model import CoefficientFunction, FBLQProblem
from fblq.odes import TimeGrid


TABLE_INSTANCES = {
    "fully_coupled": make_fully_coupled,
    "2x1x1": lambda: random_matrix_problem(4101, 2, 1, 1),
    "4x3x2": lambda: random_matrix_problem(4103, 4, 3, 2),
    "piecewise": piecewise_matrix_problem,
}


@pytest.mark.parametrize("factor", [1, 4])
@pytest.mark.parametrize("name", sorted(TABLE_INSTANCES))
def test_gain_table_equals_per_node_gain_family(name, factor):
    prob = TABLE_INSTANCES[name]()
    sol = integrate_direct(prob, EXACT, TimeGrid(1.0, 20))
    grid = sol.grid.refined(factor)
    table = evaluate_gain_table(prob, sol, grid)
    for j, t in enumerate(grid.nodes):
        blocks = sol.value(float(t))
        g = l_coefficients(prob, *blocks, t=float(t))
        for key, val in zip(("P1", "P2", "P3", "phi1", "phi2"), blocks):
            assert np.array_equal(getattr(table, key)[j], val), (j, key)
        for key in ("L6", "L7", "L8", "L9", "L10", "L11", "S3", "S4", "S5"):
            assert np.array_equal(getattr(table, key)[j], getattr(g, key)), (j, key)


def test_gain_table_reports_the_time_of_the_first_singular_node():
    prob = make_fully_coupled()
    sol = integrate_direct(prob, EXACT, TimeGrid(1.0, 20))
    # L5 = D4 + D2' L2^-1 S1 D2 vanishes once D4 and D2 do, from t = 0.5 on
    cut = replace(prob,
                  D2=CoefficientFunction.piecewise([0.0, 0.5], [[[1.0]], [[0.0]]]),
                  D4=CoefficientFunction.piecewise([0.0, 0.5], [[[1.0]], [[0.0]]]))
    with pytest.raises(SingularCoefficientError) as err:
        evaluate_gain_table(cut, sol)
    assert err.value.name == "L5"
    assert err.value.time == 0.5


def test_closed_loop_grid_must_be_a_multiple_of_the_solution_grid():
    prob = make_fully_coupled()
    sol = integrate_direct(prob, EXACT, TimeGrid(1.0, 100))
    with pytest.raises(DomainError):
        closed_loop_coefficients(prob, evaluate_gain_table(prob, sol, TimeGrid(1.0, 150)))


def test_zero_dynamics_all_gains_zero(grid1000):
    prob = make_smoke()
    sol = integrate_direct(prob, EXACT, grid1000)
    law = synthesize(evaluate_gain_table(prob, sol), xy_form=False)
    assert np.max(np.abs(law.xh_gain_X)) == 0.0
    assert np.max(np.abs(law.xh_gain_h)) == 0.0
    assert np.max(np.abs(law.xh_offset)) == 0.0


def test_xy_form_requires_invertible_p3(grid1000):
    prob = make_smoke()  # P3 vanishes identically
    sol = integrate_direct(prob, EXACT, grid1000)
    with pytest.raises(SingularCoefficientError) as err:
        synthesize(evaluate_gain_table(prob, sol))
    assert err.value.time == pytest.approx(0.0)  # earliest failing node


def test_indefinite_example_xy_form(grid2000):
    # X-gain vanishes (the drift and diffusion control channels cancel) and
    # the Y-gain is (D4 + D2^2 P1)^-1 D3 / P3
    prob = make_indefinite()
    sol = integrate_direct(prob, EXACT, grid2000)
    law = synthesize(evaluate_gain_table(prob, sol))
    t = grid2000.nodes[: law.guard_node + 1]
    P1 = sol.P1.values[: law.guard_node + 1, 0, 0]
    P3 = sol.P3.values[: law.guard_node + 1, 0, 0]
    expect_Y = 1.0 / (-0.5 + P1) / P3
    assert np.max(np.abs(law.xy_gain_X)) < 1e-9
    assert np.max(np.abs(law.xy_gain_Y[:, 0, 0] - expect_Y)) < 1e-6 * np.max(np.abs(expect_Y))
    assert np.max(np.abs(law.xy_offset)) < 1e-9


def test_xy_gain_diverges_like_inverse_time_to_horizon(grid2000):
    prob = make_indefinite()
    sol = integrate_direct(prob, EXACT, grid2000)
    law = synthesize(evaluate_gain_table(prob, sol))
    t = grid2000.nodes[: law.guard_node + 1]
    tail = slice(law.guard_node - 50, law.guard_node + 1)
    scaled = np.abs(law.xy_gain_Y[tail, 0, 0]) * (1.0 - t[tail])
    assert scaled.max() / scaled.min() < 1.5  # ~ constant near the horizon


def test_xh_xy_substitution_consistency(grid1000):
    prob = make_fully_coupled()
    sol = integrate_direct(prob, EXACT, grid1000)
    law = synthesize(evaluate_gain_table(prob, sol))
    rng = np.random.Generator(np.random.Philox(key=77))
    for j in rng.integers(0, law.guard_node + 1, size=25):
        X = rng.standard_normal(1)
        h = rng.standard_normal(1)
        P1, P2, P3, phi1, phi2 = sol.at_node(int(j))
        Y = P2 @ X - P3 @ h + phi2
        u_xh = law.xh_gain_X[j] @ X + law.xh_gain_h[j] @ h + law.xh_offset[j]
        u_xy = law.xy_gain_X[j] @ X + law.xy_gain_Y[j] @ Y + law.xy_offset[j]
        assert np.max(np.abs(u_xh - u_xy)) < 1e-10


def test_closed_loop_zero_dynamics(grid1000):
    prob = make_smoke()
    sol = integrate_direct(prob, EXACT, grid1000)
    sys_cl = closed_loop_coefficients(prob, evaluate_gain_table(prob, sol))
    for name, arr in (("gain", sys_cl.dynamics.gain), ("offset", sys_cl.dynamics.offset)):
        assert np.max(np.abs(arr)) == 0.0, name
    assert np.max(np.abs(sys_cl.h0)) == 0.0


def test_zero_initial_weight_kills_h0(grid1000):
    prob = make_fully_coupled(xi=0.5)
    prob0 = FBLQProblem.from_constants(
        1, 1, 1, 1.0, **{n: getattr(prob, n) for n in
                         ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4",
                          "C1", "C2", "C3", "C4", "D1", "D2", "D3", "D4")},
        F=prob.F, G=prob.G, H=0.0, xi=prob.xi, x0=prob.x0)
    sol = integrate_direct(prob0, EXACT, grid1000)
    sys_cl = closed_loop_coefficients(prob0, evaluate_gain_table(prob0, sol))
    assert np.max(np.abs(sys_cl.h0)) == 0.0
    assert np.max(np.abs(sol.phi2.values)) > 0  # the offset itself is nonzero


def test_closed_loop_matches_inline_reevaluation(grid1000):
    prob = random_scalar_problem(61)
    sol = integrate_direct(prob, EXACT, grid1000)
    table = evaluate_gain_table(prob, sol)
    sys_cl = closed_loop_coefficients(prob, table)
    # rows of the dynamics map: drift X, drift h, diffusion X, diffusion h
    N = {}
    for q, row in enumerate((0, 2, 1, 3)):
        N[f"N{3 * q + 1}"] = sys_cl.dynamics.gain[:, row, 0]
        N[f"N{3 * q + 2}"] = sys_cl.dynamics.gain[:, row, 1]
        N[f"N{3 * q + 3}"] = sys_cl.dynamics.offset[:, row]
    s = prob.snapshot(0.0)
    c = {n: float(getattr(s, n)[0, 0]) for n in
         ("A1", "A2", "B1", "B2", "B3", "B4", "C1", "C2", "C3", "C4",
          "D1", "D2", "D3", "D4")}
    rng = np.random.Generator(np.random.Philox(key=3))
    for j in rng.integers(0, grid1000.steps + 1, size=10):
        P1 = table.P1[j, 0, 0]
        P2 = table.P2[j, 0, 0]
        P3 = table.P3[j, 0, 0]
        phi1 = table.phi1[j, 0]
        phi2 = table.phi2[j, 0]
        L6, L7, L8 = table.L6[j, 0, 0], table.L7[j, 0, 0], table.L8[j, 0, 0]
        L9, L10, L11 = table.L9[j, 0, 0], table.L10[j, 0, 0], table.L11[j, 0, 0]
        S3, S4, S5 = table.S3[j, 0], table.S4[j, 0], table.S5[j, 0]
        expected = {
            "N1": c["A1"] + c["B1"] * P2 + c["C1"] * L10 + c["D1"] * L6,
            "N2": -c["B1"] * P3 + c["C1"] * L11 + c["D1"] * L7,
            "N3": c["B1"] * phi2 + c["C1"] * S5 + c["D1"] * S3,
            "N4": c["A2"] + c["B2"] * P2 + c["C2"] * L10 + c["D2"] * L6,
            "N5": -c["B2"] * P3 + c["C2"] * L11 + c["D2"] * L7,
            "N6": c["B2"] * phi2 + c["C2"] * S5 + c["D2"] * S3,
            "N7": c["B1"] * P1 + c["B2"] * L8 + c["B4"] * P2,
            "N8": c["B3"] + c["B1"] * P2 + c["B2"] * L9 - c["B4"] * P3,
            "N9": c["B1"] * phi1 + c["B2"] * S4 + c["B4"] * phi2,
            "N10": c["C1"] * P1 + c["C2"] * L8 + c["C4"] * L10,
            "N11": c["C3"] + c["C1"] * P2 + c["C2"] * L9 + c["C4"] * L11,
            "N12": c["C1"] * phi1 + c["C2"] * S4 + c["C4"] * S5,
        }
        for name, val in expected.items():
            assert float(N[name][j].reshape(-1)[0]) == pytest.approx(val, abs=1e-12), name


def test_gain_continuity(grid2000):
    prob = make_fully_coupled()
    sol = integrate_direct(prob, EXACT, grid2000)
    law = synthesize(evaluate_gain_table(prob, sol), xy_form=False)
    inc = np.max(np.abs(np.diff(law.xh_gain_X, axis=0)))
    assert inc < 50.0 * grid2000.dt


def test_h0_matches_fixed_point(grid1000):
    # h(0) = H Y(0) and Y(0) = P2 x0 - P3 h(0) + phi2(0) must be consistent
    prob = make_fully_coupled(xi=0.4)
    sol = integrate_direct(prob, EXACT, grid1000)
    sys_cl = closed_loop_coefficients(prob, evaluate_gain_table(prob, sol))
    P2_0 = sol.P2.initial
    P3_0 = sol.P3.initial
    phi2_0 = sol.phi2.initial[:, 0]
    Y0 = P2_0 @ prob.x0 - P3_0 @ sys_cl.h0 + phi2_0
    assert np.max(np.abs(sys_cl.h0 - prob.H @ Y0)) < 1e-12


# ---------------------------------------------------------------------------
# closed-form h representation
# ---------------------------------------------------------------------------

def test_h_representation_zero_coupling():
    prob = make_smoke()
    grid = TimeGrid(1.0, 500)
    sol = integrate_direct(prob, EXACT, grid)
    x_path = np.full((501, 1), 2.0)
    incs = np.zeros(500)
    h = closed_form_h_representation(
        prob, closed_loop_coefficients(prob, evaluate_gain_table(prob, sol)), x_path, incs)
    assert np.max(np.abs(h)) == 0.0


def test_h_representation_requires_zero_terminal_offset(grid1000):
    prob = make_fully_coupled(xi=0.3)
    sol = integrate_direct(prob, EXACT, grid1000)
    with pytest.raises(PreconditionError):
        closed_form_h_representation(
            prob, closed_loop_coefficients(prob, evaluate_gain_table(prob, sol)),
            np.zeros((grid1000.steps + 1, 1)),
            np.zeros(grid1000.steps))


def test_h_representation_constant_without_feedthrough():
    # no X feedthrough into h and zero initial weight: h stays at h(0) = 0
    prob = FBLQProblem.from_constants(
        1, 1, 1, 1.0, A1=0.2, A2=0.3, A3=0.4, A4=1.0, C3=0.25,
        D1=0.5, D3=0.4, D4=1.0, F=0.6, G=1.0, x0=1.0)
    grid = TimeGrid(1.0, 1000)
    sol = integrate_direct(prob, EXACT, grid)
    rng = np.random.Generator(np.random.Philox(key=8))
    x_path = rng.standard_normal((1001, 1))
    incs = rng.standard_normal(1000) * np.sqrt(grid.dt)
    table = evaluate_gain_table(prob, sol, grid)
    # feedthrough gains must vanish on this instance
    s = prob.snapshot(0.0)
    b1 = s.B1.T @ table.P1[0] + s.B2.T @ table.L8[0] + s.B4 @ table.P2[0]
    b2 = s.C1.T @ table.P1[0] + s.C2.T @ table.L8[0] + s.C4 @ table.L10[0]
    assert np.max(np.abs(b1)) == 0.0 and np.max(np.abs(b2)) == 0.0
    h = closed_form_h_representation(
        prob, closed_loop_coefficients(prob, table), x_path, incs)
    assert np.max(np.abs(h - h[0])) == 0.0
    assert np.max(np.abs(h[0])) == 0.0


def test_h_representation_matches_simulation():
    prob = make_partially_coupled(xi=0.0)
    errs = {}
    for steps in (4000, 8000):
        grid = TimeGrid(1.0, steps)
        sol = integrate_direct(prob, EXACT, grid)
        table = evaluate_gain_table(prob, sol, grid)
        sys_cl = closed_loop_coefficients(prob, table)
        cfg = SimConfig(steps=steps, paths=16, base_seed=99, store_paths=16)
        batch = simulate_closed_loop(prob, sys_cl, cfg)
        per_path = [
            np.max(np.abs(closed_form_h_representation(
                prob, sys_cl, batch.trajectories["X"][p], batch.increments[p])
                - batch.trajectories["h"][p]))
            for p in range(16)
        ]
        errs[steps] = float(np.mean(per_path))
    assert errs[4000] < 5e-2
    assert errs[8000] < 0.85 * errs[4000]  # strong order between 1/2 and 1
