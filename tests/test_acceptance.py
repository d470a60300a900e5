"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a PASS line with the measured quantities (run with -s to see them
as they complete, or rely on the assertions otherwise).

Instances
---------
* tanh instance: scalar forward-LQ with unit state weight and control
  weight, zero terminal weight; its value block is tanh(T - t).
* indefinite example: D4 = -0.5, C4 = -0.1 with closed forms
  P1 = exp(T - t), P2 = 0, P3 = quadrature of 1/(exp(T-s) - 1/2).
* partially coupled example: no backward feedback into the forward
  equation, strictly positive weights (monotonicity / rate instance).
* random scalar instances: seeded draws with strictly positive control
  weights and the positivity assumptions.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    make_blq,
    make_fully_coupled,
    make_tanh_lq,
    make_deterministic_fblq,
    make_forward_lq,
    make_indefinite,
    make_n2_problem,
    make_partially_coupled,
    make_smoke,
    random_scalar_problem,
)
from fblq.decouple import (
    EXACT,
    check_transpose_consistency,
    identity_suite,
    integrate_direct,
    iterate_limit,
    solve_q_equation,
    transform_from_riccati,
)
from fblq.feedback import closed_loop_coefficients, evaluate_gain_table
from fblq.linalg import min_eig_sym
from fblq.mc import (
    SimConfig,
    cost_identity_check,
    evaluate_cost,
    simulate_closed_loop,
    simulate_penalized_forward,
    stationarity_residual,
    coefficient_scale,
)
from fblq.model import LEVEL_STRICT, validate
from fblq.odes import TimeGrid
from fblq.riccati import solve_auxiliary_riccati, solve_offset_tilde
from fblq.special import (
    solve_blq_reference,
    solve_deterministic_fblq_reference,
    solve_lq_reference,
)

EQUIVALENCE_SEEDS = (101, 102, 103, 104, 105)
IDENTITY_SEEDS = tuple(range(301, 311))
RANDOM_MC_SEED = 802  # strictly positive weights, invertible blocks


def report(criterion: int, text: str):
    print(f"criterion {criterion:02d} PASS: {text}")


@pytest.fixture(scope="module")
def schedule_sweep():
    """Penalization sweep on the partially coupled example (criteria 4, 5)."""
    prob = make_partially_coupled()
    grid = TimeGrid(1.0, 1000)
    sol, diag = iterate_limit(prob, grid, schedule=(1, 2, 4, 8, 16, 32, 64))
    return prob, sol, diag


def mc_pipeline(prob, ode_steps, sim_steps, paths, seed, store=1):
    grid = TimeGrid(prob.T, ode_steps)
    sol = integrate_direct(prob, EXACT, grid)
    sim_grid = TimeGrid(prob.T, sim_steps)
    table = evaluate_gain_table(prob, sol, sim_grid)
    sys_cl = closed_loop_coefficients(prob, table)
    cfg = SimConfig(steps=sim_steps, paths=paths, base_seed=seed, store_paths=store)
    batch = simulate_closed_loop(prob, sys_cl, cfg)
    return table, batch


def test_criterion_01_scalar_lq_tanh_oracle():
    start = time.perf_counter()
    prob = make_tanh_lq()
    errors = {}
    for steps in (250, 500, 1000, 2000):
        P, _ = solve_lq_reference(prob, TimeGrid(1.0, steps))
        errors[steps] = abs(P.initial[0, 0] - math.tanh(1.0))
    elapsed = time.perf_counter() - start
    assert errors[2000] < 1e-6
    ratios = [errors[n] / errors[2 * n] for n in (250, 500, 1000)]
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(1, f"P1(0) error {errors[2000]:.2e}, order ratios "
              f"{[f'{r:.1f}' for r in ratios]}, {elapsed:.2f}s")


def test_criterion_02_indefinite_example_closed_forms():
    prob = make_indefinite()
    grid = TimeGrid(1.0, 2000)
    start = time.perf_counter()
    sol = integrate_direct(prob, EXACT, grid)
    solve_time = time.perf_counter() - start
    t = grid.nodes
    p1_err = float(np.max(np.abs(sol.P1.values[:, 0, 0] - np.exp(1.0 - t))))
    p2_err = float(np.max(np.abs(sol.P2.values)))
    # quadrature oracle, every node
    p3 = sol.P3.values[:, 0, 0]
    p3_err = 0.0
    for j, tq in enumerate(t):
        ref, _ = quad(lambda s: 1.0 / (np.exp(1.0 - s) - 0.5), tq, 1.0)
        p3_err = max(p3_err, abs(p3[j] - ref))
    assert p1_err < 1e-6
    assert p2_err < 1e-8
    assert p3_err < 1e-6
    assert solve_time < 1.0, f"solve runtime {solve_time:.2f}s"
    report(2, f"P1 err {p1_err:.1e}, P2 err {p2_err:.1e}, "
              f"P3-vs-quadrature err {p3_err:.1e}, solve {solve_time:.2f}s")


def test_criterion_03_transform_equals_direct():
    start = time.perf_counter()
    grid = TimeGrid(1.0, 500)
    grid_n2 = TimeGrid(1.0, 500)
    worst = 0.0
    instances = [(s, random_scalar_problem(s), grid) for s in EQUIVALENCE_SEEDS]
    instances.append(("2x1x1", make_n2_problem(), grid_n2))
    for tag, prob, g in instances:
        assert validate(prob, LEVEL_STRICT).passed, tag
        for i in (1, 2, 4, 8):
            direct = integrate_direct(prob, i, g)
            tr = transform_from_riccati(*solve_offset_tilde(prob, i, g))
            for name in ("P1", "P2", "P3", "phi1", "phi2"):
                dev = float(np.max(np.abs(getattr(direct, name).values
                                          - getattr(tr, name).values)))
                assert dev < 1e-6, (tag, i, name, dev)
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    report(3, f"worst route deviation {worst:.2e} over 6 instances x 4 indices, "
              f"{elapsed:.1f}s")


def test_criterion_04_monotone_ordering(schedule_sweep):
    _, _, diag = schedule_sweep
    sols = dict(diag.iterates)
    worst = np.inf
    for a, b in zip(diag.schedule, diag.schedule[1:]):
        d3 = sols[a].P3.values - sols[b].P3.values
        d1 = sols[b].P1.values - sols[a].P1.values
        worst = min(worst, min(min_eig_sym(v) for v in d3),
                    min(min_eig_sym(v) for v in d1))
    assert worst >= -1e-7
    report(4, f"schedule {diag.schedule}: worst ordering eigenvalue {worst:.2e}")


def test_criterion_05_convergence_rate(schedule_sweep):
    _, _, diag = schedule_sweep
    assert diag.rate_exponent is not None
    assert diag.rate_exponent <= -1.8
    pair_logs = [math.log2(a / b) for a, b in
                 zip(diag.consecutive_diffs, diag.consecutive_diffs[1:])]
    report(5, f"fitted exponent {diag.rate_exponent:.2f} "
              f"(target -2), tail doubling logs {[f'{x:.2f}' for x in pair_logs[-2:]]}")


def test_criterion_06_identity_suite_random_instances():
    grid = TimeGrid(1.0, 500)
    rng = np.random.Generator(np.random.Philox(key=606))
    worst = 0.0
    n_counted = None
    for seed in IDENTITY_SEEDS:
        prob = random_scalar_problem(seed)
        assert validate(prob, LEVEL_STRICT).passed
        sol = integrate_direct(prob, 2, grid)
        ric = solve_auxiliary_riccati(prob, 2, grid)
        for t in rng.uniform(0.0, 1.0, size=20):
            rep = identity_suite(prob, sol, ric, float(t))
            worst = max(worst, rep.max_counted_residual)
            n_counted = sum(1 for e in rep.entries if e.counted)
    # 17 block/weight relations + 4 gain equalities + 2 control-map rows
    # + 2 offset-gain rows + 3 notation shortcuts + the cost-offset term
    assert n_counted == 29
    assert worst <= 1e-8
    report(6, f"max residual {worst:.2e} over 10 instances x 20 times "
              f"x {n_counted} relations")


def test_criterion_07_q_blocks_match_p_blocks():
    prob = make_partially_coupled()  # D4 > 0, C4 >= 0
    grid = TimeGrid(1.0, 2000)
    q = solve_q_equation(prob, grid)
    ex = integrate_direct(prob, EXACT, grid)
    devs = {
        "Q1-P1": float(np.max(np.abs(q.q1_values() - ex.P1.values))),
        "Q2-P2'": float(np.max(np.abs(q.q2_values()
                                      - ex.P2.values.transpose(0, 2, 1)))),
        "Q3-P2": float(np.max(np.abs(q.q3_values() - ex.P2.values))),
        "Q4-P3": float(np.max(np.abs(q.q4_values() - ex.P3.values))),
    }
    assert max(devs.values()) < 1e-6, devs
    report(7, "block agreement " + ", ".join(f"{k} {v:.1e}" for k, v in devs.items()))


@pytest.mark.parametrize("label,factory,seed", [
    ("smoke", make_smoke, 4242),
    ("random", lambda: random_scalar_problem(RANDOM_MC_SEED), 4243),
    ("indefinite-example", make_indefinite, 4244),
])
def test_criterion_08_cost_identity(label, factory, seed):
    prob = factory()
    start = time.perf_counter()
    table, batch = mc_pipeline(prob, 2000, 4000, paths=100000, seed=seed)
    rep = cost_identity_check(prob, table, batch)
    elapsed = time.perf_counter() - start
    assert rep.agreement_z is not None and rep.agreement_z <= 3.0, rep
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s"
    report(8, f"{label}: mc {rep.mc_mean:.5f} +- {rep.mc_stderr:.5f}, "
              f"analytic {rep.analytic_value:.5f}, z {rep.agreement_z:.2f}, "
              f"{elapsed:.0f}s")


def test_criterion_09_stationarity_residual():
    prob = make_fully_coupled()
    scale = coefficient_scale(prob)
    means = {}
    for steps in (2000, 4000):
        table, batch = mc_pipeline(prob, 2000, steps, paths=256, seed=99, store=256)
        _, mean_res = stationarity_residual(prob, batch)
        bound = 1e-6 + 10.0 * batch.grid.dt * scale
        assert mean_res <= bound, (steps, mean_res, bound)
        means[steps] = mean_res
    # the residual is algebraically zero along synthesized paths, so the
    # step-size-dominated part sits below the fixed floor; the halving check
    # applies only when a measurable step-size part exists
    parts = {s: max(m - 1e-6, 0.0) for s, m in means.items()}
    if parts[2000] > 0.0 and parts[4000] > 0.0:
        ratio = parts[4000] / parts[2000]
        assert 0.35 <= ratio <= 0.65, ratio
        detail = f"dt-part ratio {ratio:.2f}"
    else:
        detail = "dt-dominated part below the 1e-6 floor at both step sizes"
    report(9, f"mean residuals {means[2000]:.2e} / {means[4000]:.2e}; {detail}")


def test_criterion_10_penalized_optimality():
    prob = make_partially_coupled()
    i = 64
    steps, paths = 1000, 20000
    grid = TimeGrid(1.0, steps)
    ric, psi = solve_offset_tilde(prob, i, grid)
    cfg = SimConfig(steps=steps, paths=paths, base_seed=1001, store_paths=1)
    rng = np.random.Generator(np.random.Philox(key=1002))
    epsilons = (0.05, 0.1, 0.2)
    controls = [("synthesized",)]
    for _ in range(10):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        controls += [("perturbed", eps, d) for eps in epsilons]
    base, *perturbed = simulate_penalized_forward(ric, psi, controls,
                                                  prob, cfg)
    worst_neg = 0.0
    ratios = []
    for first in range(0, len(perturbed), len(epsilons)):
        gaps = {}
        for eps, pert in zip(epsilons, perturbed[first:first + len(epsilons)]):
            diff = pert.samples - base.samples
            mean = float(np.mean(diff))
            stderr = float(np.std(diff, ddof=1) / math.sqrt(paths))
            assert mean >= -3.0 * stderr, (eps, mean, stderr)
            worst_neg = min(worst_neg, mean + 3.0 * stderr)
            gaps[eps] = (mean, stderr)
        for eps in (0.05, 0.1):
            g1, s1 = gaps[eps]
            g2, s2 = gaps[2 * eps]
            if g1 > 5.0 * s1 and g2 > 5.0 * s2:
                ratios.append(g2 / g1)
    assert ratios, "no gap pair cleared the 5-stderr gate"
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios
    report(10, f"{len(ratios)} qualifying gap ratios in "
               f"[{min(ratios):.2f}, {max(ratios):.2f}], no perturbation wins")


def test_criterion_11_reduction_cross_oracles():
    grid = TimeGrid(1.0, 2000)
    devs = {}

    lq = make_forward_lq()  # D4 < 0 with positive effective weight
    P_ref, _ = solve_lq_reference(lq, grid)
    sol = integrate_direct(lq, EXACT, grid)
    effective = -0.3 + P_ref.values[:, 0, 0]  # D4 + D2^2 P1 along the path
    assert np.min(effective) > 1e-3
    devs["forward-LQ"] = float(np.max(np.abs(P_ref.values - sol.P1.values)))

    blq = make_blq()
    Q4, phi2, _ = solve_blq_reference(blq, grid)
    sol = integrate_direct(blq, EXACT, grid)
    devs["backward-LQ"] = max(
        float(np.max(np.abs(Q4.values - sol.P3.values))),
        float(np.max(np.abs(phi2.values - sol.phi2.values))))

    det = make_deterministic_fblq()
    P1r, P2r, P3r, _, _, _ = solve_deterministic_fblq_reference(det, grid)
    sol = integrate_direct(det, EXACT, grid)
    devs["deterministic"] = max(
        float(np.max(np.abs(P1r.values - sol.P1.values))),
        float(np.max(np.abs(P2r.values - sol.P2.values))),
        float(np.max(np.abs(P3r.values - sol.P3.values))))

    assert max(devs.values()) < 1e-6, devs
    report(11, "pipeline vs reference " + ", ".join(
        f"{k} {v:.1e}" for k, v in devs.items()))


def test_criterion_12_transpose_consistency():
    grid = TimeGrid(1.0, 500)
    worst = 0.0
    for seed in EQUIVALENCE_SEEDS:
        worst = max(worst, check_transpose_consistency(
            random_scalar_problem(seed), grid, 4))
    worst = max(worst, check_transpose_consistency(make_n2_problem(), grid, 4))
    worst = max(worst, check_transpose_consistency(
        make_partially_coupled(), grid, 8))
    assert worst <= 1e-8
    report(12, f"max transposed-block deviation {worst:.2e}")


def test_criterion_13_reproducibility_and_stderr_scaling():
    prob = random_scalar_problem(RANDOM_MC_SEED)
    table, batch_a = mc_pipeline(prob, 1000, 1000, paths=20000, seed=777, store=4)
    _, batch_b = mc_pipeline(prob, 1000, 1000, paths=20000, seed=777, store=4)
    assert np.array_equal(batch_a.cost_samples, batch_b.cost_samples)
    for name in batch_a.trajectories:
        assert np.array_equal(batch_a.trajectories[name],
                              batch_b.trajectories[name])

    i = 16
    grid = TimeGrid(1.0, 1000)
    ric, psi = solve_offset_tilde(prob, i, grid)
    cfg = SimConfig(steps=1000, paths=5000, base_seed=778, store_paths=1)
    [pen_a] = simulate_penalized_forward(ric, psi, [("synthesized",)],
                                         prob, cfg)
    [pen_b] = simulate_penalized_forward(ric, psi, [("synthesized",)],
                                         prob, cfg)
    assert np.array_equal(pen_a.samples, pen_b.samples)

    _, small = mc_pipeline(prob, 1000, 1000, paths=5000, seed=777)
    r_small = evaluate_cost(prob, small)
    r_large = evaluate_cost(prob, batch_a)
    ratio = r_small.mc_stderr / r_large.mc_stderr
    assert 1.6 <= ratio <= 2.4, ratio
    report(13, f"bit-identical reruns; stderr ratio at 4x paths {ratio:.2f}")
