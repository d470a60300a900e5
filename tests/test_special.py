import math

import numpy as np
import pytest

from conftest import (
    make_blq,
    make_deterministic_fblq,
    make_forward_lq,
    make_fully_coupled,
    make_tanh_lq,
)
from fblq.decouple import EXACT, integrate_direct
from fblq.errors import PreconditionError
from fblq.model import FBLQProblem
from fblq.odes import TimeGrid
from fblq.special import (
    ReductionKind,
    is_reduction,
    matches_pattern,
    solve_blq_reference,
    solve_deterministic_fblq_reference,
    solve_lq_reference,
)


def test_pattern_detection():
    assert is_reduction(make_forward_lq()) is ReductionKind.INDEFINITE_LQ
    assert is_reduction(make_blq()) is ReductionKind.BLQ
    assert is_reduction(make_deterministic_fblq()) is ReductionKind.DETERMINISTIC_FBLQ
    assert is_reduction(make_fully_coupled()) is None


def test_overlapping_patterns_first_match_and_direct_access():
    # no diffusion, no backward block: matches both the forward-LQ and the
    # deterministic family; detection reports the first, the solvers accept
    # their own pattern directly
    prob = FBLQProblem.from_constants(
        1, 1, 1, 1.0, A1=0.2, A4=1.0, D1=0.5, D4=1.0, G=1.0, x0=1.0)
    assert is_reduction(prob) is ReductionKind.INDEFINITE_LQ
    assert matches_pattern(prob, ReductionKind.DETERMINISTIC_FBLQ)
    grid = TimeGrid(1.0, 1000)
    P_lq, _ = solve_lq_reference(prob, grid)
    # P3 vanishes identically here, so skip the gain section entirely
    P1d, _, _, _, _, guard = solve_deterministic_fblq_reference(
        prob, grid, epsilon_guard=2.0)
    assert guard == -1
    assert np.max(np.abs(P_lq.values - P1d.values)) < 1e-8


def test_wrong_pattern_rejected():
    with pytest.raises(PreconditionError):
        solve_lq_reference(make_blq(), TimeGrid(1.0, 100))


def test_lq_reference_tanh(grid2000):
    P, gain = solve_lq_reference(make_tanh_lq(), grid2000)
    assert abs(P.initial[0, 0] - math.tanh(1.0)) < 1e-8
    # gain = -(D4 + D2^2 P)^-1 (D1 P + D2 P A2) = -P here (D2 = A2 = 0)
    assert abs(gain.initial[0, 0] + math.tanh(1.0)) < 1e-8


def test_lq_reference_indefinite_weight(grid2000):
    prob = make_forward_lq()  # D4 = -0.3 with D2 = 1
    P, gain = solve_lq_reference(prob, grid2000)
    effective = -0.3 + P.values[:, 0, 0]
    assert np.all(effective > 1e-8)
    assert np.all(np.isfinite(gain.values))


def test_lq_reference_vs_general_pipeline(grid2000):
    prob = make_forward_lq()
    sol = integrate_direct(prob, EXACT, grid2000)
    P, _ = solve_lq_reference(prob, grid2000)
    assert np.max(np.abs(P.values - sol.P1.values)) < 1e-6
    assert np.max(np.abs(sol.P2.values)) < 1e-10
    assert np.max(np.abs(sol.P3.values)) < 1e-10


def test_blq_zero_data():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D4=1.0, xi=0.4, H=0.2)
    Q4, phi2, gain = solve_blq_reference(prob, TimeGrid(1.0, 200))
    assert np.max(np.abs(Q4.values)) == 0.0
    assert np.max(np.abs(phi2.values - 0.4)) == 0.0
    assert np.max(np.abs(gain.values)) == 0.0


def test_blq_pure_quadrature():
    # with only D3 = D4 = 1 the value block is the running quadrature T - t
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D3=1.0, D4=1.0, xi=0.3)
    grid = TimeGrid(1.0, 500)
    Q4, _, gain = solve_blq_reference(prob, grid)
    assert np.max(np.abs(Q4.values[:, 0, 0] - (1.0 - grid.nodes))) < 1e-12
    assert np.max(np.abs(gain.values + 1.0)) == 0.0


def test_blq_reference_vs_general_pipeline(grid2000):
    prob = make_blq()
    sol = integrate_direct(prob, EXACT, grid2000)
    Q4, phi2, _ = solve_blq_reference(prob, grid2000)
    assert np.max(np.abs(Q4.values - sol.P3.values)) < 1e-8
    assert np.max(np.abs(phi2.values - sol.phi2.values)) < 1e-8
    assert np.max(np.abs(sol.P1.values)) < 1e-10
    assert np.max(np.abs(sol.P2.values)) < 1e-10


def test_deterministic_pure_quadrature():
    # no drift coupling except the control channels: P1 = G, P2 = F frozen,
    # P3 integrates (P2 D1 + D3) / D4 * (P2 D1 + D3)
    prob = FBLQProblem.from_constants(
        1, 1, 1, 1.0, D3=0.4, D4=2.0, F=0.5, G=1.2, x0=1.0)
    grid = TimeGrid(1.0, 500)
    P1, P2, P3, _, _, _ = solve_deterministic_fblq_reference(prob, grid)
    assert np.max(np.abs(P1.values - 1.2)) == 0.0
    assert np.max(np.abs(P2.values - 0.5)) == 0.0
    expect = (0.4 ** 2 / 2.0) * (1.0 - grid.nodes)
    assert np.max(np.abs(P3.values[:, 0, 0] - expect)) < 1e-12


def test_deterministic_growth_bound():
    # negative backward-to-forward coupling with a large terminal coupling:
    # the forward value block stays below the uncontrolled growth envelope
    prob = FBLQProblem.from_constants(
        1, 1, 1, 1.0, A1=0.3, A4=1.0, B1=-0.5, D1=0.4, D3=0.2, D4=1.0,
        F=2.0, G=1.0, x0=1.0)
    grid = TimeGrid(1.0, 1000)
    for i in (1, 4, 16):
        sol = integrate_direct(prob, i, grid)
        assert np.min(sol.P2.values) >= -1e-10
        t = grid.nodes
        envelope = 1.0 * np.exp(2 * 0.3 * (1.0 - t)) + \
            (np.exp(2 * 0.3 * (1.0 - t)) - 1.0) / (2 * 0.3)
        assert np.all(sol.P1.values[:, 0, 0] <= envelope + 1e-8)


def test_deterministic_reference_vs_general_pipeline(grid2000):
    prob = make_deterministic_fblq()
    sol = integrate_direct(prob, EXACT, grid2000)
    P1, P2, P3, gain_X, gain_Y, guard = solve_deterministic_fblq_reference(prob, grid2000)
    assert np.max(np.abs(P1.values - sol.P1.values)) < 1e-8
    assert np.max(np.abs(P2.values - sol.P2.values)) < 1e-8
    assert np.max(np.abs(P3.values - sol.P3.values)) < 1e-8
    # gains against the synthesized law in (X, Y) coordinates
    from fblq.feedback import evaluate_gain_table, synthesize
    law = synthesize(evaluate_gain_table(prob, sol))
    upto = min(guard, law.guard_node) + 1
    assert np.max(np.abs(gain_X[:upto] - law.xy_gain_X[:upto])) < 1e-6
    assert np.max(np.abs(gain_Y[:upto] - law.xy_gain_Y[:upto])) < 1e-6
