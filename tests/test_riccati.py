import math

import numpy as np
import pytest

from conftest import (
    make_blq,
    make_smoke,
    make_tanh_lq,
    piecewise_matrix_problem,
    random_scalar_problem,
)
from fblq.errors import ConstraintViolatedError
from fblq.linalg import min_eig_sym
from fblq.model import FBLQProblem
from fblq.odes import TimeGrid
from fblq.riccati import (
    augmented,
    m_coefficients,
    penalized_terminal,
    solve_auxiliary_riccati,
    solve_offset_tilde,
)


def test_block_assembly_zero_problem():
    s = augmented(make_smoke(), 0.0)  # only D4 = 1 nonzero
    assert np.array_equal(s.A, np.zeros((2, 2)))
    assert np.array_equal(s.B, np.zeros((2, 2)))
    assert np.array_equal(s.C, np.zeros((2, 2)))
    assert np.array_equal(s.D, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(s.Q, np.zeros((2, 2)))
    assert np.array_equal(s.R, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_block_assembly_signs_and_diagonals():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, A3=2.0, D4=1.0, C4=0.5)
    s = augmented(prob, 0.0)
    assert s.A[1, 0] == -2.0
    assert np.array_equal(s.R, np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_auxiliary_riccati_tanh_reduction(grid2000):
    prob = make_tanh_lq()
    for i in (1, 5):
        sol = solve_auxiliary_riccati(prob, i, grid2000)
        P1t, P2t, P3t = sol.block_paths()
        assert abs(P1t.initial[0, 0] - math.tanh(1.0)) < 1e-6
        assert np.max(np.abs(P2t.values)) == 0.0
        assert np.max(np.abs(P3t.values - i)) < 1e-12


def test_auxiliary_riccati_constant_case():
    # no dynamics, no state weight: the path equals its terminal value,
    # whose backward block is i times the identity
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D4=1.0, C4=1.0, G=1.0)
    grid = TimeGrid(1.0, 100)
    sol = solve_auxiliary_riccati(prob, 7, grid)
    _, _, P3t = sol.block_paths()
    assert np.max(np.abs(P3t.values - 7.0)) == 0.0
    assert np.array_equal(sol.Ptilde.terminal, penalized_terminal(prob, 7))


def test_negative_control_weight_aborts_at_terminal():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D4=-1.0)
    with pytest.raises(ConstraintViolatedError) as err:
        solve_auxiliary_riccati(prob, 1, TimeGrid(1.0, 50))
    assert err.value.time == pytest.approx(1.0)
    assert err.value.min_eig < 0


def test_terminal_is_bit_exact(grid1000):
    prob = random_scalar_problem(5)
    sol = solve_auxiliary_riccati(prob, 3, grid1000)
    assert np.array_equal(sol.Ptilde.terminal, penalized_terminal(prob, 3))


def test_m_coefficients_zero_and_collapse():
    prob = make_blq()  # A2 = B2 = 0 so the C block vanishes
    mc = m_coefficients(prob, np.zeros((2, 2)), 0.0)
    assert np.array_equal(mc.M1, augmented(prob, 0.0).R)
    assert np.max(np.abs(mc.M2)) == 0.0
    assert np.max(np.abs(mc.M3)) == 0.0
    assert np.max(np.abs(mc.M4)) == 0.0
    P = np.array([[1.3, 0.4], [0.4, 2.0]])
    mc = m_coefficients(prob, P, 0.5)
    assert np.array_equal(mc.M2, mc.M3)  # C-block is zero on this instance


def test_m_coefficients_against_dense_products():
    prob = random_scalar_problem(11)
    rng = np.random.Generator(np.random.Philox(key=2))
    P = rng.standard_normal((2, 2))
    P = P + P.T
    s = augmented(prob, 0.3)
    mc = m_coefficients(prob, P, 0.3)
    assert np.max(np.abs(mc.M1 - 0.5 * ((s.R + s.D.T @ P @ s.D)
                                        + (s.R + s.D.T @ P @ s.D).T))) < 1e-12
    assert np.max(np.abs(mc.M2 - (s.B.T @ P + s.D.T @ P @ s.C))) < 1e-12
    assert np.max(np.abs(mc.M3 - s.B.T @ P)) < 1e-12
    assert np.max(np.abs(mc.M4 - s.D.T @ P)) < 1e-12


def test_offset_vanishes_for_zero_terminal_offset(grid1000):
    prob = random_scalar_problem(7, xi_scale=0.0)
    _, psi = solve_offset_tilde(prob, 2, grid1000)
    assert np.max(np.abs(psi.values)) == 0.0


def test_offset_self_convergence():
    # backward-dominated instance; with G = 0 (and F = 0) the stacked weight
    # is singular at T, which the offset psi = P phi~ does not need to invert
    for G in (0.4, 0.0):
        prob = FBLQProblem.from_constants(
            1, 1, 1, 1.0, B3=0.3, B4=0.5, C3=0.4, C4=0.6, D3=0.8, D4=1.0,
            G=G, H=0.7, xi=1.0)
        _, coarse = solve_offset_tilde(prob, 2, TimeGrid(1.0, 2000))
        _, fine = solve_offset_tilde(prob, 2, TimeGrid(1.0, 20000))
        dev = max(np.max(np.abs(coarse.value(t) - fine.value(t)))
                  for t in np.linspace(0.0, 1.0, 41))
        assert dev < 1e-6, G


def test_offset_pass_carries_the_riccati_path_unchanged(grid1000):
    # no stage of P reads psi, so carrying psi leaves the P path bit for bit
    for prob, grid in ((random_scalar_problem(17), grid1000),
                       (piecewise_matrix_problem(), TimeGrid(1.0, 200))):
        alone = solve_auxiliary_riccati(prob, 4, grid)
        ric, _ = solve_offset_tilde(prob, 4, grid)
        assert np.array_equal(ric.Ptilde.values, alone.Ptilde.values)
        assert np.array_equal(ric.m1_min_eig, alone.m1_min_eig)


def test_comparison_monotonicity(grid1000):
    prob = random_scalar_problem(13)
    prev = None
    for i in (1, 2, 4, 8):
        sol = solve_auxiliary_riccati(prob, i, grid1000)
        if prev is not None:
            worst = min(min_eig_sym(b - a)
                        for a, b in zip(prev.Ptilde.values, sol.Ptilde.values))
            assert worst >= -1e-7
        prev = sol


def test_m1_min_eig_recorded(grid1000):
    prob = make_tanh_lq()
    sol = solve_auxiliary_riccati(prob, 2, grid1000)
    assert sol.m1_min_eig.shape == (grid1000.steps + 1,)
    assert np.all(sol.m1_min_eig > 0)
