import math

import numpy as np
import pytest

from conftest import (
    make_blq,
    make_fully_coupled,
    make_indefinite,
    make_partially_coupled,
    make_smoke,
    piecewise_matrix_problem,
)
from fblq.decouple import EXACT, integrate_direct
from fblq.errors import DivergedError, DomainError
from fblq.linalg import gated_inverse
from fblq.feedback import closed_loop_coefficients, evaluate_gain_table
from fblq.mc import (
    SimConfig,
    coefficient_scale,
    cost_identity_check,
    decoupling_residual,
    evaluate_cost,
    penalized_gap_prediction,
    simulate_closed_loop,
    simulate_penalized_forward,
    stationarity_residual,
)
from fblq.model import FBLQProblem
from fblq.odes import TimeGrid
from fblq.riccati import (
    augmented,
    m5_from_terms,
    m_coefficients,
    solve_offset_tilde,
)
from fblq.rng import brownian_increments, increment_block


def pipeline(prob, ode_steps, sim_steps, paths, seed, store=None):
    grid = TimeGrid(prob.T, ode_steps)
    sol = integrate_direct(prob, EXACT, grid)
    sim_grid = TimeGrid(prob.T, sim_steps)
    table = evaluate_gain_table(prob, sol, sim_grid)
    sys_cl = closed_loop_coefficients(prob, table)
    cfg = SimConfig(steps=sim_steps, paths=paths, base_seed=seed,
                    store_paths=store if store is not None else min(paths, 64))
    batch = simulate_closed_loop(prob, sys_cl, cfg)
    return table, batch


def test_increments_are_per_path_keyed():
    a = brownian_increments(123, 7, 50, 0.01)
    block = increment_block(123, 5, 4, 50, 0.01)
    assert np.array_equal(block[:, 2], a)
    assert np.array_equal(brownian_increments(123 + 7, 0, 50, 0.01), a)


@pytest.mark.parametrize("base_seed", [
    20240801,                # keys below 2**64
    (1 << 64) - 3,           # keys crossing into the second key word
    (1 << 100) + 12345,      # keys above 2**64
    (1 << 128) - 4,          # keys wrapping at 2**128
])
def test_increment_block_matches_per_path_streams(base_seed):
    for n_paths in (8, 300):   # 300 paths span more than one generation tile
        block = increment_block(base_seed, 1, n_paths, 33, 0.02)
        for r in range(n_paths):
            assert np.array_equal(block[:, r], brownian_increments(base_seed, 1 + r, 33, 0.02))


def test_zero_dynamics_paths(grid1000):
    # with zero cost weights every recovered process vanishes
    flat = FBLQProblem.from_constants(1, 1, 1, 1.0, D4=1.0, x0=1.0)
    table, batch = pipeline(flat, 1000, 1000, paths=32, seed=5, store=32)
    assert np.all(batch.trajectories["X"] == 1.0)
    for name in ("h", "Y", "Z", "m", "n", "u"):
        assert np.max(np.abs(batch.trajectories[name])) == 0.0, name

    # terminal weight alone prices the frozen state: J = 0.5 * G * x0^2
    prob = make_smoke()
    table, batch = pipeline(prob, 1000, 1000, paths=32, seed=5, store=32)
    assert np.all(batch.trajectories["X"] == 2.0)
    assert np.max(np.abs(batch.trajectories["m"] - 2.0)) == 0.0  # adjoint = G X
    report = evaluate_cost(prob, batch)
    assert report.mc_mean == 2.0
    assert report.mc_stderr == 0.0


def test_constant_running_cost():
    # only a running weight on X, X frozen at 1: cost = 1/2
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, A4=1.0, D4=1.0, x0=1.0)
    table, batch = pipeline(prob, 500, 500, paths=8, seed=1, store=8)
    report = evaluate_cost(prob, batch)
    assert report.mc_mean == pytest.approx(0.5, abs=1e-12)
    assert report.mc_stderr == 0.0


def test_deterministic_limit_matches_rk4():
    # no diffusion at all: every path equals the deterministic flow
    prob = FBLQProblem.from_constants(
        1, 1, 1, 1.0, A1=0.3, A3=0.4, A4=1.0, B1=0.2, B3=0.1, B4=0.5,
        D1=0.5, D3=0.3, D4=1.0, F=0.6, G=1.0, H=0.4, x0=1.0)
    table, batch = pipeline(prob, 4000, 4000, paths=3, seed=2, store=3)
    assert np.max(np.abs(batch.trajectories["X"][0] - batch.trajectories["X"][1])) == 0.0

    sys_cl = closed_loop_coefficients(prob, table)
    # drift rows (X, h) of the dynamics map, split into X, h and offset columns
    gain, offset = sys_cl.dynamics.gain[:, :2], sys_cl.dynamics.offset[:, :2]
    N = {"N1": gain[:, :1, :1], "N2": gain[:, :1, 1:], "N3": offset[:, :1],
         "N7": gain[:, 1:, :1], "N8": gain[:, 1:, 1:], "N9": offset[:, 1:]}
    grid = batch.grid
    dt = grid.dt
    x, h = np.array([1.0]), sys_cl.h0.copy()
    worst = 0.0

    def deriv(j, x, h):
        return (N["N1"][j] @ x + N["N2"][j] @ h + N["N3"][j],
                N["N7"][j] @ x + N["N8"][j] @ h + N["N9"][j])

    for j in range(grid.steps):
        # RK4 with linear interpolation of the node coefficients
        def at(frac, xx, hh):
            a = (N["N1"][j] * (1 - frac) + N["N1"][j + 1] * frac)
            b = (N["N2"][j] * (1 - frac) + N["N2"][j + 1] * frac)
            cc = (N["N3"][j] * (1 - frac) + N["N3"][j + 1] * frac)
            d = (N["N7"][j] * (1 - frac) + N["N7"][j + 1] * frac)
            e = (N["N8"][j] * (1 - frac) + N["N8"][j + 1] * frac)
            f = (N["N9"][j] * (1 - frac) + N["N9"][j + 1] * frac)
            return a @ xx + b @ hh + cc, d @ xx + e @ hh + f
        k1x, k1h = at(0.0, x, h)
        k2x, k2h = at(0.5, x + 0.5 * dt * k1x, h + 0.5 * dt * k1h)
        k3x, k3h = at(0.5, x + 0.5 * dt * k2x, h + 0.5 * dt * k2h)
        k4x, k4h = at(1.0, x + dt * k3x, h + dt * k3h)
        x = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        h = h + dt / 6 * (k1h + 2 * k2h + 2 * k3h + k4h)
        worst = max(worst,
                    float(np.max(np.abs(x - batch.trajectories["X"][0, j + 1]))),
                    float(np.max(np.abs(h - batch.trajectories["h"][0, j + 1]))))
    assert worst < 1e-4


def test_seed_reproducibility_and_chunk_invariance():
    prob = make_partially_coupled()
    table, batch_a = pipeline(prob, 500, 1000, paths=300, seed=11, store=16)
    _, batch_b = pipeline(prob, 500, 1000, paths=300, seed=11, store=16)
    assert np.array_equal(batch_a.cost_samples, batch_b.cost_samples)
    for name in batch_a.trajectories:
        assert np.array_equal(batch_a.trajectories[name], batch_b.trajectories[name])

    sys_cl = closed_loop_coefficients(prob, table)
    # chunks of 37 leave a tail of four paths at 300 and of one path at 38
    for paths, store in ((300, 16), (38, 38)):
        whole, batch_c = (simulate_closed_loop(prob, sys_cl, SimConfig(
            steps=1000, paths=paths, base_seed=11, store_paths=store, chunk=chunk))
            for chunk in (paths, 37))
        assert np.array_equal(whole.cost_samples, batch_c.cost_samples), paths
        for name in whole.trajectories:
            assert np.array_equal(whole.trajectories[name], batch_c.trajectories[name])


def test_streaming_cost_matches_recomputation():
    # the piecewise matrix instance prices every recovered block at general
    # dimensions, pinning the folded running-cost form against the trajectories
    for prob in (make_fully_coupled(), piecewise_matrix_problem()):
        table, batch = pipeline(prob, 500, 500, paths=40, seed=3, store=40)
        streaming = evaluate_cost(prob, batch)
        recomputed = evaluate_cost(prob, batch, recompute=True)
        assert streaming.mc_mean == pytest.approx(recomputed.mc_mean, abs=1e-12)
        assert streaming.mc_stderr == pytest.approx(recomputed.mc_stderr, abs=1e-12)


def test_cost_identity_zero_dynamics():
    prob = make_smoke()
    table, batch = pipeline(prob, 500, 500, paths=16, seed=4, store=1)
    report = cost_identity_check(prob, table, batch)
    assert report.r2 == pytest.approx(4.0)
    assert report.m5_integral == 0.0
    assert report.analytic_value == pytest.approx(2.0)
    assert report.agreement_z == 0.0


def test_cost_identity_homogeneous_zero():
    prob = FBLQProblem.from_constants(
        1, 1, 1, 1.0, A1=0.3, A2=0.4, A4=1.0, D1=0.5, D2=0.6, D4=1.0,
        G=1.0, x0=0.0)
    table, batch = pipeline(prob, 500, 1000, paths=4000, seed=6, store=1)
    report = cost_identity_check(prob, table, batch)
    assert report.r2 == 0.0
    assert report.analytic_value == 0.0
    assert abs(report.mc_mean) <= max(3.0 * report.mc_stderr, 1e-12)


def test_cost_identity_coupled_instance():
    prob = make_fully_coupled()
    table, batch = pipeline(prob, 1000, 2000, paths=20000, seed=7, store=1)
    report = cost_identity_check(prob, table, batch)
    assert report.agreement_z is not None and report.agreement_z <= 3.0
    assert report.truncation_estimate < 10.0 * report.mc_stderr


def test_cost_identity_backward_lq():
    # G = F = 0 makes P1 and phi1 vanish on every node, so the augmented
    # offset phitilde1 = -P1^-1 phi1 is zero and P1 is never inverted
    prob = make_blq()
    table, batch = pipeline(prob, 500, 1000, paths=4000, seed=5)
    report = cost_identity_check(prob, table, batch)
    assert report.agreement_z is not None and report.agreement_z <= 3.0


def test_cost_identity_refuses_a_table_off_the_batch_grid():
    prob = make_fully_coupled()
    table, batch = pipeline(prob, 200, 400, paths=4, seed=9, store=1)
    coarse = evaluate_gain_table(prob, integrate_direct(prob, EXACT, TimeGrid(prob.T, 200)))
    with pytest.raises(DomainError):
        cost_identity_check(prob, coarse, batch)


def test_cost_identity_m5_integral_equals_per_node_sum():
    # the node-stacked M5 against one evaluation per node of the simulation grid
    prob = make_fully_coupled()
    sol = integrate_direct(prob, EXACT, TimeGrid(prob.T, 200))
    table, batch = pipeline(prob, 200, 400, paths=4, seed=9, store=1)
    report = cost_identity_check(prob, table, batch)
    grid = batch.grid
    _, last = grid.guard_node()
    vals = []
    for t in grid.nodes[:last + 1]:
        t = float(t)
        P1, P2, P3, phi1, phi2 = sol.value(t)
        P3_inv, _ = gated_inverse(P3, "P3")
        w = gated_inverse(P1, "P1")[0] @ phi1
        Pt = np.block([[P1 + P2.T @ P3_inv @ P2, -P2.T @ P3_inv], [-P3_inv @ P2, P3_inv]])
        phit = np.concatenate([-w, phi2 - P2 @ w])[:, np.newaxis]
        mc = m_coefficients(prob, Pt, t)
        M1_inv, _ = gated_inverse(mc.M1, "M1")
        vals.append(float(m5_from_terms(augmented(prob, t), Pt, phit, M1_inv, mc.M2, mc.M3)))
    expected = float(np.trapezoid(vals, dx=grid.dt))
    assert expected != 0.0
    assert report.m5_integral == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_stationarity_residual_is_floating_point_noise():
    prob = make_fully_coupled()
    table, batch = pipeline(prob, 500, 1000, paths=64, seed=8, store=64)
    smax, smean = stationarity_residual(prob, batch)
    assert smean <= 1e-6 + 10.0 * batch.grid.dt * coefficient_scale(prob)
    assert smax < 1e-10  # algebraically zero; only roundoff remains


def test_stationarity_detects_perturbed_control():
    prob = make_fully_coupled()
    table, batch = pipeline(prob, 500, 500, paths=8, seed=9, store=8)
    batch.trajectories["u"] = batch.trajectories["u"] + 0.1
    smax, smean = stationarity_residual(prob, batch)
    d4 = float(prob.D4.value_at(0.0)[0, 0])
    assert smean == pytest.approx(abs(d4) * 0.1, rel=1e-6)


def test_decoupling_residual_zero_instance():
    prob = make_smoke()
    table, batch = pipeline(prob, 500, 500, paths=4, seed=10, store=4)
    dmax, dmean = decoupling_residual(batch, prob)
    assert dmax == 0.0


def test_decoupling_residual_exact_on_degenerate_loop():
    # on the indefinite example the closed loop keeps h, u, Y, Z all at zero,
    # so the backward reconstruction is exact
    prob = make_indefinite()
    table, batch = pipeline(prob, 4000, 4000, paths=16, seed=12, store=16)
    dmax, _ = decoupling_residual(batch, prob)
    assert dmax == 0.0


def test_decoupling_residual_halves_with_step():
    prob = make_partially_coupled()
    means = {}
    for steps in (4000, 8000):
        table, batch = pipeline(prob, steps, steps, paths=48, seed=12, store=48)
        _, means[steps] = decoupling_residual(batch, prob)
    assert means[8000] < 0.8 * means[4000]


# ---------------------------------------------------------------------------
# penalized forward formulation
# ---------------------------------------------------------------------------

def penalized_setup(prob, i, steps, seed, paths):
    grid = TimeGrid(prob.T, steps)
    ric, psi = solve_offset_tilde(prob, i, grid)
    cfg = SimConfig(steps=steps, paths=paths, base_seed=seed, store_paths=1)
    return ric, psi, cfg


def probe_controls(seed, dim):
    """The optimality probe's 31 controls: the synthesized feedback, then 10
    random unit directions at eps = 0.05, 0.1 and 0.2."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    controls = [("synthesized",)]
    for _ in range(10):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        controls += [("perturbed", eps, d) for eps in (0.05, 0.1, 0.2)]
    return controls


def test_penalized_zero_perturbation_is_identity():
    prob = make_partially_coupled()
    ric, offset, cfg = penalized_setup(prob, 8, 500, 13, 200)
    base, zero = simulate_penalized_forward(
        ric, offset, [("synthesized",), ("perturbed", 0.0, np.array([1.0, 0.0]))],
        prob, cfg)
    assert np.array_equal(base.samples, zero.samples)


def test_penalized_batch_equals_single_runs():
    prob = make_partially_coupled()
    ric, offset, cfg = penalized_setup(prob, 8, 100, 18, 300)
    controls = probe_controls(19, prob.k + prob.m)
    batch = simulate_penalized_forward(ric, offset, controls, prob, cfg)
    assert len(batch) == len(controls)
    for control, cost in zip(controls, batch):
        [single] = simulate_penalized_forward(ric, offset, [control], prob, cfg)
        assert np.array_equal(cost.samples, single.samples)
        assert (cost.mean, cost.stderr) == (single.mean, single.stderr)


def test_penalized_batch_is_chunk_invariant():
    # the piecewise 2x1x1 instance has a one-row F in the terminal penalty,
    # whose product with X(T) must not depend on a column's position; the
    # single control with chunks of 299 leaves a tail block of one column
    for prob, chunk, count in ((make_partially_coupled(), 37, 31),
                               (piecewise_matrix_problem(), 5, 31),
                               (make_partially_coupled(), 299, 1)):
        ric, offset, cfg = penalized_setup(prob, 8, 100, 20, 300)
        controls = probe_controls(21, prob.k + prob.m)[:count]
        full = simulate_penalized_forward(ric, offset, controls, prob, cfg)
        chunked = simulate_penalized_forward(
            ric, offset, controls, prob,
            SimConfig(steps=cfg.steps, paths=cfg.paths, base_seed=cfg.base_seed,
                      store_paths=1, chunk=chunk))
        for a, b in zip(full, chunked):
            assert np.array_equal(a.samples, b.samples)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_penalized_divergence_names_control_and_path():
    prob = make_partially_coupled()
    ric, offset, cfg = penalized_setup(prob, 8, 100, 22, 50)
    blowup = ("perturbed", 1.0, np.full((cfg.steps + 1, prob.k + prob.m), np.inf))
    with pytest.raises(DivergedError) as err:
        simulate_penalized_forward(ric, offset, [("synthesized",), blowup],
                                   prob, cfg)
    assert "control 1, path 0 at step" in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_loop_divergence_names_path():
    # every block stays zero, so X alone grows by a factor 1 + A1 dt per step
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, A1=1e200, D4=1.0, x0=1.0)
    with pytest.raises(DivergedError) as err:
        pipeline(prob, 10, 100, 16, 7)
    assert "path 0 at step 2" in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_penalized_cost_overflow_names_control_and_path():
    # the state stays finite, but a 1e300 control overflows the running cost
    prob = make_partially_coupled()
    ric, offset, cfg = penalized_setup(prob, 8, 50, 22, 8)
    huge = ("perturbed", 1e300, np.ones(prob.k + prob.m))
    with pytest.raises(DivergedError) as err:
        simulate_penalized_forward(ric, offset, [("synthesized",), huge], prob, cfg)
    assert "cost of control 1, path 0 non-finite" in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_loop_cost_overflow_names_path():
    # X stays at its finite start value; its square does not fit a float
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, A4=1.0, D4=1.0, x0=1e160)
    with pytest.raises(DivergedError) as err:
        pipeline(prob, 10, 20, 4, 7)
    assert "cost of path 0 non-finite" in str(err.value)


def test_penalized_perturbations_never_win():
    prob = make_partially_coupled()
    ric, offset, cfg = penalized_setup(prob, 8, 500, 14, 2000)
    rng = np.random.Generator(np.random.Philox(key=15))
    controls = [("synthesized",)]
    for _ in range(4):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        controls += [("perturbed", eps, d) for eps in (0.05, 0.2)]
    base, *perturbed = simulate_penalized_forward(ric, offset, controls, prob, cfg)
    for pert in perturbed:
        diff = pert.samples - base.samples
        stderr = np.std(diff, ddof=1) / np.sqrt(len(diff))
        assert np.mean(diff) >= -3.0 * stderr


def test_penalized_gap_matches_quadratic_prediction():
    prob = make_partially_coupled()
    ric, offset, cfg = penalized_setup(prob, 8, 2000, 16, 4000)
    d = np.array([0.6, 0.8])
    epsilons = (0.1, 0.2)
    base, *perturbed = simulate_penalized_forward(
        ric, offset, [("synthesized",)] + [("perturbed", eps, d) for eps in epsilons],
        prob, cfg)
    for eps, pert in zip(epsilons, perturbed):
        diff = pert.samples - base.samples
        stderr = float(np.std(diff, ddof=1) / np.sqrt(len(diff)))
        pred = penalized_gap_prediction(ric, eps, d, cfg, prob)
        assert abs(np.mean(diff) - pred) < 3.0 * stderr + 0.02 * pred


def test_cost_reproducible_across_seeds():
    # two independent seed choices estimate the same cost
    prob = make_indefinite()
    reports = []
    for seed in (21, 22):
        _, batch = pipeline(prob, 1000, 1000, paths=8000, seed=seed, store=1)
        reports.append(evaluate_cost(prob, batch))
    gap = abs(reports[0].mc_mean - reports[1].mc_mean)
    joint = math.hypot(reports[0].mc_stderr, reports[1].mc_stderr)
    assert np.isfinite(reports[0].mc_mean)
    assert gap <= 3.0 * joint


def test_stderr_scales_with_paths():
    prob = make_partially_coupled()
    table, small = pipeline(prob, 500, 500, paths=2000, seed=17, store=1)
    _, large = pipeline(prob, 500, 500, paths=8000, seed=17, store=1)
    r_small = evaluate_cost(prob, small)
    r_large = evaluate_cost(prob, large)
    ratio = r_small.mc_stderr / r_large.mc_stderr
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2
