from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    deterministic_blocks,
    make_blq,
    make_fully_coupled,
    make_indefinite,
    make_m2_problem,
    make_n2_problem,
    make_partially_coupled,
    make_smoke,
    piecewise_deterministic_problem,
    random_matrix_problem,
    random_scalar_problem,
)
from fblq.decouple import (
    EXACT,
    DecoupledSolution,
    check_transpose_consistency,
    gain_condition_trace,
    identity_suite,
    integrate_direct,
    iterate_limit,
    l_coefficients,
    solve_q_equation,
    transform_from_riccati,
)
from fblq.errors import DomainError, PreconditionError, SingularCoefficientError
from fblq.feedback import evaluate_gain_table
from fblq.linalg import min_eig_sym
from fblq.model import CoefficientFunction, FBLQProblem
from fblq.odes import TimeGrid
from fblq.problem_io import load_problem
from fblq.riccati import solve_auxiliary_riccati, solve_offset_tilde
from fblq.special import solve_blq_reference

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def solution_gap(a: DecoupledSolution, b: DecoupledSolution) -> dict:
    return {name: float(np.max(np.abs(getattr(a, name).values - getattr(b, name).values)))
            for name in ("P1", "P2", "P3", "phi1", "phi2")}


# ---------------------------------------------------------------------------
# gain family
# ---------------------------------------------------------------------------

def test_gain_definition_collapse():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D2=0.8, D4=1.0, C1=0.3, A2=0.5)
    g = l_coefficients(prob, P1=2.0, P2=0.0, P3=0.0, t=0.2)
    assert g.L1[0, 0] == 1.0
    assert g.L2[0, 0] == 1.0
    assert g.S1[0, 0] == 2.0
    assert g.L5[0, 0] == pytest.approx(1.0 + 0.8 * 2.0 * 0.8)


def test_gain_zero_decoupling_data():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D3=0.6, D4=1.5)
    g = l_coefficients(prob, P1=0.0, P2=0.0, P3=0.0, phi1=0.0, phi2=0.0, t=0.0)
    assert g.L6[0, 0] == 0.0
    assert g.L7[0, 0] == pytest.approx(-0.6 / 1.5)
    assert g.S3[0] == 0.0


def test_gain_against_independent_scalar_formulas():
    prob = random_scalar_problem(21)
    s = prob.snapshot(0.0)
    c = {name: float(getattr(s, name)[0, 0]) for name in
         ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4",
          "C1", "C2", "C3", "C4", "D1", "D2", "D3", "D4")}
    rng = np.random.Generator(np.random.Philox(key=5))
    p1, p2, p3, f1, f2 = rng.uniform(0.2, 1.0, 5)
    g = l_coefficients(prob, p1, p2, p3, f1, f2, t=0.0)
    # hand-rolled re-evaluation of the displayed gain family
    L1 = 1 - p2 * c["C2"] + p3 * c["C4"]
    W = p1 * c["C2"] + p2 * c["C4"]
    L2 = 1 - p2 * c["C2"] + W / L1 * p3 * c["C2"]
    L3 = p1 * c["A2"] + p1 * c["B2"] * p2 + p2 * c["C1"] * p1 + W / L1 * (
        p2 * c["A2"] + p2 * c["B2"] * p2 - p3 * c["C1"] * p1)
    L4 = p2 * c["C3"] + p2 * c["C1"] * p2 - p1 * c["B2"] * p3 - W / L1 * (
        p2 * c["B2"] * p3 + p3 * c["C3"] + p3 * c["C1"] * p2)
    S1 = p1 + W / L1 * p2
    L5 = c["D4"] + c["D2"] / L2 * S1 * c["D2"]
    L6 = -(c["D1"] * p1 + c["D2"] / L2 * L3) / L5
    L7 = -(c["D1"] * p2 + c["D2"] / L2 * L4 + c["D3"]) / L5
    S2 = p1 * c["B2"] * f2 + p2 * c["C1"] * f1 + W / L1 * (
        p2 * c["B2"] * f2 - p3 * c["C1"] * f1)
    S3 = -(c["D1"] * f1 + c["D2"] / L2 * S2) / L5
    for name, val in (("L1", L1), ("L2", L2), ("L3", L3), ("L4", L4),
                      ("L5", L5), ("L6", L6), ("L7", L7), ("S1", S1)):
        assert getattr(g, name)[0, 0] == pytest.approx(val, abs=1e-12), name
    assert g.S2[0] == pytest.approx(S2, abs=1e-12)
    assert g.S3[0] == pytest.approx(S3, abs=1e-12)


def test_gain_singular_l5_named():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0)  # D4 = 0, no control weight
    with pytest.raises(SingularCoefficientError) as err:
        l_coefficients(prob, P1=0.0, P2=0.0, P3=0.0, t=0.0)
    assert err.value.name == "L5"


# ---------------------------------------------------------------------------
# direct integration
# ---------------------------------------------------------------------------

def test_direct_zero_dynamics(grid1000):
    sol = integrate_direct(make_smoke(), EXACT, grid1000)
    assert np.all(sol.P1.values == 1.0)
    assert np.max(np.abs(sol.P2.values)) == 0.0
    assert np.max(np.abs(sol.P3.values)) == 0.0
    assert sol.source.label() == "direct(exact)"


def _demo_switching_at_a_tenth():
    # on grids of 70 * 2^k steps the node meant to sit on t = 0.1 rounds to
    # 0.09999999999999999, just below the breakpoint
    prob = load_problem(PROBLEMS / "piecewise_demo.yaml")
    return replace(prob, D4=CoefficientFunction.piecewise([0.0, 0.1], [[[1.0]], [[0.6]]]))


ORACLE_INSTANCES = {   # name -> (instance, coarsest grid)
    "piecewise_demo": (lambda: load_problem(PROBLEMS / "piecewise_demo.yaml"), 20),
    "deterministic_coupled": (lambda: load_problem(PROBLEMS / "deterministic_coupled.yaml"), 20),
    "piecewise_3x2x2": (piecewise_deterministic_problem, 20),
    "node_below_breakpoint": (_demo_switching_at_a_tenth, 70),
}


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_direct_route_is_fourth_order_against_the_step_free_oracle(name):
    # the scalar loop (1x1x1 instances) and the generic integrator (3x2x2)
    # keep RK4's order across breakpoints: every step sees its own piece
    make, coarsest = ORACLE_INSTANCES[name]
    prob = make()
    n = prob.n
    errors = []
    for steps in (coarsest, 2 * coarsest, 4 * coarsest, 8 * coarsest):
        grid = TimeGrid(prob.T, steps)
        assert grid.aligns_with(prob.merged_breakpoints)
        sol = integrate_direct(prob, EXACT, grid)
        ref = deterministic_blocks(prob, grid.nodes)
        errors.append(max(np.max(np.abs(sol.P1.values - ref[:, :n, :n])),
                          np.max(np.abs(sol.P2.values - ref[:, n:, :n])),
                          np.max(np.abs(sol.P3.values + ref[:, n:, n:]))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert min(ratios) >= 12.0, (errors, ratios)


@pytest.mark.parametrize("steps", [70, 140])
def test_node_just_below_a_breakpoint_reads_the_piece_that_starts_there(steps):
    prob = _demo_switching_at_a_tenth()
    grid = TimeGrid(prob.T, steps)
    j = steps // 10
    assert grid.aligns_with(prob.merged_breakpoints) and grid.nodes[j] < 0.1
    at, on_grid = prob.snapshot(0.1), prob.on_grid(grid)
    for f in fields(at):
        assert np.array_equal(getattr(on_grid, f.name)[j], getattr(at, f.name)), f.name
    sol = integrate_direct(prob, EXACT, grid)
    table = evaluate_gain_table(prob, sol, grid)
    g = l_coefficients(prob, *sol.at_node(j), t=0.1)
    for name in ("L6", "L7", "L8", "L9", "L10", "L11", "S3", "S4", "S5"):
        assert np.allclose(getattr(table, name)[j], getattr(g, name).reshape(-1)
                           if name.startswith("S") else getattr(g, name),
                           rtol=1e-13, atol=0.0), name


def test_scalar_fast_path_matches_generic_blocks(grid1000):
    # same instance solved through the scalar fused path and through the
    # generic block machinery used for matrix dimensions
    prob = make_fully_coupled()
    fast = integrate_direct(prob, 4, grid1000)

    from fblq.decouple import _gains, _p_rhs, _phi_rhs, _terminal_p3
    from fblq.odes import OdeSystem, integrate_terminal

    def rhs(t, s, blocks):
        g = _gains(s, blocks["P1"], blocks["P2"], blocks["P3"],
                   blocks["phi1"], blocks["phi2"])
        dP1, dP2, dP3 = _p_rhs(s, blocks["P1"], blocks["P2"], blocks["P3"], g)
        dphi1, dphi2 = _phi_rhs(s, blocks["P1"], blocks["P2"], blocks["P3"],
                                blocks["phi1"], blocks["phi2"], g)
        return {"P1": dP1, "P2": dP2, "P3": dP3, "phi1": dphi1, "phi2": dphi2}

    system = OdeSystem(
        layout=(("P1", (1, 1)), ("P2", (1, 1)), ("P3", (1, 1)),
                ("phi1", (1,)), ("phi2", (1,))),
        rhs=rhs,
        terminal={"P1": prob.G, "P2": prob.F, "P3": _terminal_p3(prob, 4),
                  "phi1": np.zeros(1), "phi2": prob.xi},
        coefficients=prob.snapshot,
        symmetric=frozenset({"P1", "P3"}))
    generic = integrate_terminal(system, grid1000)
    for name in ("P1", "P2", "P3", "phi1", "phi2"):
        dev = np.max(np.abs(getattr(fast, name).values.reshape(grid1000.steps + 1, -1)
                            - generic[name].values.reshape(grid1000.steps + 1, -1)))
        assert dev < 1e-12, name


def test_indefinite_example_closed_forms(grid2000):
    sol = integrate_direct(make_indefinite(), EXACT, grid2000)
    t = grid2000.nodes
    assert np.max(np.abs(sol.P1.values[:, 0, 0] - np.exp(1.0 - t))) < 1e-6
    assert np.max(np.abs(sol.P2.values)) < 1e-8
    # quadrature oracle for the remaining block: integral of
    # 1 / (exp(1 - s) - 0.5) from t to 1
    for tq in (0.0, 0.25, 0.5, 0.75, 0.9):
        ref, _ = quad(lambda s: 1.0 / (np.exp(1.0 - s) - 0.5), tq, 1.0)
        assert abs(sol.P3.value(tq)[0, 0] - ref) < 1e-6


def test_partially_coupled_blocks_bounded(grid1000):
    prob = make_partially_coupled()
    for i in (1, 8, 64):
        sol = integrate_direct(prob, i, grid1000)
        assert np.max(np.abs(sol.P2.values)) < 10.0
        assert min(min_eig_sym(v) for v in sol.P1.values) >= -1e-10


def test_direct_rejects_bad_index(grid1000):
    with pytest.raises(DomainError):
        integrate_direct(make_smoke(), 0, grid1000)


# ---------------------------------------------------------------------------
# transform route
# ---------------------------------------------------------------------------

def test_transform_diagonal_example(grid1000):
    prob = make_partially_coupled()
    ric = solve_auxiliary_riccati(prob, 2, grid1000)
    # overwrite has no public hook; check the pure node algebra instead
    from fblq.decouple import transform_from_riccati as tr
    Pt = np.array([[2.0, 0.0], [0.0, 4.0]])
    P1 = Pt[:1, :1] - Pt[1:, :1].T @ np.linalg.inv(Pt[1:, 1:]) @ Pt[1:, :1]
    assert P1[0, 0] == 2.0
    assert np.linalg.inv(Pt[1:, 1:])[0, 0] == 0.25


def test_transform_terminal_recovers_problem_data(grid1000):
    prob = make_fully_coupled()
    for i in (1, 8):
        sol = transform_from_riccati(*solve_offset_tilde(prob, i, grid1000))
        assert abs(sol.P1.terminal[0, 0] - prob.G[0, 0]) < 1e-12
        assert abs(sol.P2.terminal[0, 0] - prob.F[0, 0]) < 1e-12
        assert abs(sol.P3.terminal[0, 0] - 1.0 / i) < 1e-12


def test_transform_round_trip_random_spd():
    rng = np.random.Generator(np.random.Philox(key=31))
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        Pt = A @ A.T + 4.0 * np.eye(4)
        n = m = 2
        Pt1, Pt2, Pt3 = Pt[:n, :n], Pt[n:, :n], Pt[n:, n:]
        P3 = np.linalg.inv(Pt3)
        P2 = -P3 @ Pt2
        P1 = Pt1 - Pt2.T @ P3 @ Pt2
        # stated inverse map
        back3 = np.linalg.inv(P3)
        back2 = -back3 @ P2
        back1 = P1 + P2.T @ back3 @ P2
        assert np.max(np.abs(back1 - Pt1)) < 1e-10
        assert np.max(np.abs(back2 - Pt2)) < 1e-10
        assert np.max(np.abs(back3 - Pt3)) < 1e-10


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_transform_equals_direct_scalar(seed, grid1000):
    prob = random_scalar_problem(seed)
    for i in (1, 4):
        direct = integrate_direct(prob, i, grid1000)
        gaps = solution_gap(direct,
                            transform_from_riccati(*solve_offset_tilde(prob, i, grid1000)))
        assert max(gaps.values()) < 1e-6, gaps


def test_transform_equals_direct_two_dim_forward():
    prob = make_n2_problem()
    grid = TimeGrid(1.0, 800)
    for i in (1, 8):
        direct = integrate_direct(prob, i, grid)
        gaps = solution_gap(direct, transform_from_riccati(*solve_offset_tilde(prob, i, grid)))
        assert max(gaps.values()) < 1e-6, gaps


def test_transform_equals_direct_two_dim_backward():
    prob = make_m2_problem()
    grid = TimeGrid(1.0, 800)
    direct = integrate_direct(prob, 4, grid)
    ric, psi = solve_offset_tilde(prob, 4, grid)
    gaps = solution_gap(direct, transform_from_riccati(ric, psi))
    assert max(gaps.values()) < 1e-6, gaps


# ---------------------------------------------------------------------------
# offsets co-integrated with the blocks
# ---------------------------------------------------------------------------

def test_offsets_zero_terminal(grid1000):
    prob = make_fully_coupled(xi=0.0)
    sol = integrate_direct(prob, EXACT, grid1000)
    assert np.max(np.abs(sol.phi1.values)) == 0.0
    assert np.max(np.abs(sol.phi2.values)) == 0.0


def test_offsets_constant_when_drift_vanishes(grid1000):
    prob = FBLQProblem.from_constants(
        1, 1, 1, 1.0, D2=0.5, D4=1.0, C4=0.8, G=1.0, F=0.4, xi=0.7)
    sol = integrate_direct(prob, EXACT, grid1000)
    assert np.max(np.abs(sol.phi1.values)) == 0.0
    assert np.max(np.abs(sol.phi2.values - 0.7)) == 0.0


def test_offsets_fine_grid_convergence():
    prob = make_fully_coupled(xi=1.0)
    sol_c = integrate_direct(prob, EXACT, TimeGrid(1.0, 2000))
    sol_f = integrate_direct(prob, EXACT, TimeGrid(1.0, 20000))
    dev = max(np.max(np.abs(sol_c.phi1.value(t) - sol_f.phi1.value(t)))
              + np.max(np.abs(sol_c.phi2.value(t) - sol_f.phi2.value(t)))
              for t in np.linspace(0.0, 1.0, 21))
    assert dev < 1e-6


# ---------------------------------------------------------------------------
# penalization sweep
# ---------------------------------------------------------------------------

def test_limit_trivial_converges_immediately(grid1000):
    prob = make_smoke()
    sol, diag = iterate_limit(prob, grid1000, schedule=(1, 2, 4))
    assert diag.converged
    assert diag.schedule == (1, 2)
    assert np.all(sol.P3.values == 0.0)


def test_limit_gain_cond_bound_is_worst_of_33_sampled_nodes():
    prob = make_fully_coupled()
    grid = TimeGrid(prob.T, 200)
    _, diag = iterate_limit(prob, grid, schedule=(1, 2, 4))
    nodes = np.unique(np.linspace(0, grid.steps, 33).astype(int))
    worst = 0.0
    for _, sol in diag.iterates:
        trace = gain_condition_trace(prob, sol, 33)
        assert np.array_equal(trace[:, 0], grid.nodes[nodes])
        for row, j in zip(trace, nodes):
            P1, P2, P3, _, _ = sol.at_node(j)
            g = l_coefficients(prob, P1, P2, P3, t=float(grid.nodes[j]))
            assert tuple(row[1:]) == (g.cond_L1, g.cond_L2, g.cond_L5)
            worst = max(worst, g.cond_L1, g.cond_L2, g.cond_L5)
    assert diag.gain_cond_bound == worst


def test_limit_indefinite_example_reaches_closed_forms(grid2000):
    sol, diag = iterate_limit(make_indefinite(), grid2000, schedule=(1, 2, 4))
    assert diag.converged
    t = grid2000.nodes
    assert np.max(np.abs(sol.P1.values[:, 0, 0] - np.exp(1.0 - t))) < 1e-6
    assert np.max(np.abs(sol.P3.values[:, 0, 0]
                         - 2.0 * np.log(2.0 - np.exp(t - 1.0)))) < 1e-6
    assert sol.source.kind == "limit"


def test_limit_rate_and_monotonicity(grid1000):
    prob = make_partially_coupled()
    sol, diag = iterate_limit(prob, grid1000, schedule=(1, 2, 4, 8, 16, 32, 64))
    assert diag.rate_exponent is not None and diag.rate_exponent <= -1.8
    sols = dict(diag.iterates)
    for a, b in zip(diag.schedule, diag.schedule[1:]):
        d3 = sols[a].P3.values - sols[b].P3.values
        d1 = sols[b].P1.values - sols[a].P1.values
        assert min(min_eig_sym(v) for v in d3) >= -1e-7
        assert min(min_eig_sym(v) for v in d1) >= -1e-7
    assert diag.p3_min_eig >= -1e-7


def test_limit_riccati_method_matches_direct(grid1000):
    prob = make_partially_coupled()
    def riccati(i):
        if i == EXACT:
            return integrate_direct(prob, EXACT, grid1000)
        return transform_from_riccati(*solve_offset_tilde(prob, i, grid1000))
    sol_d, diag_d = iterate_limit(prob, grid1000, schedule=(1, 2, 4))
    sol_r, diag_r = iterate_limit(prob, grid1000, schedule=(1, 2, 4), solve=riccati)
    assert max(solution_gap(sol_d, sol_r).values()) < 1e-9
    for (ia, a), (ib, b) in zip(diag_d.iterates, diag_r.iterates):
        assert ia == ib
        assert max(solution_gap(a, b).values()) < 1e-6


# ---------------------------------------------------------------------------
# the (X, h)-coordinate route
# ---------------------------------------------------------------------------

def test_q_equation_zero_dynamics_keeps_terminal(grid1000):
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D4=1.0, G=1.3, F=0.7)
    q = solve_q_equation(prob, grid1000)
    F_tilde = np.array([[1.3, 0.7], [0.7, 0.0]])
    assert np.max(np.abs(q.Q.values - F_tilde)) == 0.0


def test_q_equation_requires_strict_level(grid1000):
    with pytest.raises(PreconditionError):
        solve_q_equation(make_indefinite(), grid1000)


def test_q_blocks_match_direct_blocks(grid1000):
    prob = make_fully_coupled()
    q = solve_q_equation(prob, grid1000)
    ex = integrate_direct(prob, EXACT, grid1000)
    assert np.max(np.abs(q.q1_values() - ex.P1.values)) < 1e-6
    assert np.max(np.abs(q.q2_values() - ex.P2.values.transpose(0, 2, 1))) < 1e-6
    assert np.max(np.abs(q.q3_values() - ex.P2.values)) < 1e-6
    assert np.max(np.abs(q.q4_values() - ex.P3.values)) < 1e-6
    assert np.max(np.abs(q.phi1_values() - ex.phi1.values[:, :, 0])) < 1e-6
    assert np.max(np.abs(q.phi2_values() - ex.phi2.values[:, :, 0])) < 1e-6


def test_q_inverse_block_invariant(grid1000):
    from fblq.decouple import hamiltonian_blocks
    prob = make_fully_coupled()
    q = solve_q_equation(prob, grid1000)
    worst = 0.0
    for j in range(0, grid1000.steps + 1, 100):
        t = float(grid1000.nodes[j])
        hb = hamiltonian_blocks(prob, t)
        lhs = (np.eye(2) - q.Q.at_node(j) @ hb.C2) @ q.Iblk.at_node(j)
        worst = max(worst, float(np.max(np.abs(lhs - np.eye(2)))))
    assert worst < 1e-8


def test_q_matches_backward_reference_on_backward_instance(grid1000):
    prob = make_blq()
    q = solve_q_equation(prob, grid1000)
    Q4_ref, phi2_ref, _ = solve_blq_reference(prob, grid1000)
    assert np.max(np.abs(q.q4_values() - Q4_ref.values)) < 1e-8
    assert np.max(np.abs(q.phi2_values() - phi2_ref.values[:, :, 0])) < 1e-8


# ---------------------------------------------------------------------------
# transpose consistency
# ---------------------------------------------------------------------------

def test_transpose_consistency_zero_instance(grid1000):
    assert check_transpose_consistency(make_smoke(), grid1000, EXACT) == 0.0


def test_transpose_consistency_coupled(grid1000):
    assert check_transpose_consistency(make_fully_coupled(), grid1000, 4) < 1e-8
    assert check_transpose_consistency(make_partially_coupled(), grid1000, 8) < 1e-8


def test_transpose_consistency_matrix_dims():
    grid = TimeGrid(1.0, 600)
    assert check_transpose_consistency(make_n2_problem(), grid, 4) < 1e-8
    assert check_transpose_consistency(make_m2_problem(), grid, 4) < 1e-8


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def test_identity_suite_random_scalar(grid1000):
    prob = random_scalar_problem(51)
    sol = integrate_direct(prob, 2, grid1000)
    ric = solve_auxiliary_riccati(prob, 2, grid1000)
    for t in (0.1, 0.55, 0.93):
        rep = identity_suite(prob, sol, ric, t)
        assert rep.max_counted_residual < 1e-10
        flagged = rep.entry("block-gain/u-h-as-labeled")
        assert not flagged.counted
        assert flagged.note


def test_identity_suite_partially_coupled_midpoint(grid1000):
    prob = make_partially_coupled()
    sol = integrate_direct(prob, 4, grid1000)
    ric = solve_auxiliary_riccati(prob, 4, grid1000)
    rep = identity_suite(prob, sol, ric, 0.5)
    assert rep.max_counted_residual < 1e-8


def test_identity_suite_matrix_dims():
    grid = TimeGrid(1.0, 400)
    for prob in (make_n2_problem(), make_m2_problem()):
        sol = integrate_direct(prob, 2, grid)
        ric = solve_auxiliary_riccati(prob, 2, grid)
        rep = identity_suite(prob, sol, ric, 0.4)
        assert rep.max_counted_residual < 1e-9


@pytest.mark.parametrize("dims", [(2, 2, 1), (1, 2, 2), (2, 2, 2)])
def test_all_routes_agree_at_general_dimensions(dims):
    n, m, k = dims
    prob = random_matrix_problem(7000 + 100 * n + 10 * m + k, n, m, k)
    grid = TimeGrid(1.0, 400)
    direct = integrate_direct(prob, 4, grid)
    ric, psi = solve_offset_tilde(prob, 4, grid)
    gaps = solution_gap(direct, transform_from_riccati(ric, psi))
    assert max(gaps.values()) < 1e-8, gaps
    for t in (0.3, 0.7):
        rep = identity_suite(prob, direct, ric, t)
        assert rep.max_counted_residual < 1e-8
    assert check_transpose_consistency(prob, grid, 4) < 1e-10


def test_identity_suite_rejects_mismatched_indices(grid1000):
    prob = random_scalar_problem(52)
    sol = integrate_direct(prob, 2, grid1000)
    ric = solve_auxiliary_riccati(prob, 4, grid1000)
    with pytest.raises(DomainError):
        identity_suite(prob, sol, ric, 0.5)
