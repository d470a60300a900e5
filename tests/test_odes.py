import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblq.errors import DivergedError, DomainError
from fblq.linalg import _norm1, min_eig_sym, sym
from fblq.odes import (
    MatrixPath,
    OdeSystem,
    TimeGrid,
    constant_path,
    integrate_terminal,
    interpolate,
    path_to_csv,
)

TANH_AT_ZERO = math.tanh(1.0)


def scalar_system(rhs, terminal):
    return OdeSystem(
        layout=(("p", (1, 1)),),
        rhs=lambda t, c, b: {"p": rhs(t, b["p"])},
        terminal={"p": np.array([[terminal]])},
        coefficients=lambda t: None,
    )


def tanh_error(steps: int) -> float:
    # p' = p^2 - 1, p(T) = 0  =>  p(t) = tanh(T - t)
    system = scalar_system(lambda t, p: p @ p - np.eye(1), 0.0)
    path = integrate_terminal(system, TimeGrid(1.0, steps))["p"]
    return abs(path.initial[0, 0] - TANH_AT_ZERO)


def test_zero_derivative_keeps_terminal_value():
    system = scalar_system(lambda t, p: np.zeros((1, 1)), 3.5)
    path = integrate_terminal(system, TimeGrid(1.0, 16))["p"]
    assert np.all(path.values == 3.5)


def test_tanh_oracle():
    assert tanh_error(1000) < 1e-8


def test_fourth_order_convergence():
    errors = {n: tanh_error(n) for n in (250, 500, 1000, 2000)}
    for n in (250, 500, 1000):
        ratio = errors[n] / errors[2 * n]
        assert 12.0 <= ratio <= 20.0, (n, ratio)


def test_backward_blowup_detected():
    # p' = -p^2, p(T) = 2  =>  p(t) = 1/(t - T + 1/2), blows up at t = 1/2
    system = scalar_system(lambda t, p: -(p @ p), 2.0)
    with pytest.raises(DivergedError) as err:
        integrate_terminal(system, TimeGrid(1.0, 1000))
    assert 0.5 <= err.value.time < 0.6


@pytest.mark.parametrize("bad, reason", [(np.nan, "non-finite"),
                                         (np.inf, "non-finite"),
                                         (1e300, "exceeded")])
def test_nonfinite_and_blowup_terminal_named(bad, reason):
    system = OdeSystem(layout=(("p", (2, 2)),), rhs=lambda t, c, b: b,
                       terminal={"p": np.array([[1.0, 0.0], [0.0, bad]])},
                       coefficients=lambda t: None)
    with pytest.raises(DivergedError, match=reason):
        integrate_terminal(system, TimeGrid(1.0, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9))
def test_small_closed_forms_match_lapack(d, entries):
    # min_eig_sym and the 1-norm take closed forms for d <= 2
    mat = np.array(entries).reshape(3, 3)[:d, :d]
    low = np.linalg.eigvalsh(sym(mat))[0]
    scale = max(1.0, float(np.max(np.abs(mat))))
    assert abs(min_eig_sym(mat) - low) <= 1e-12 * scale
    assert _norm1(mat) == float(np.abs(mat).sum(axis=0).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5),
       st.lists(st.floats(-1e3, 1e3), min_size=80, max_size=80))
def test_stacked_min_eig_matches_each_member(d, members, entries):
    stack = np.array(entries[:members * d * d]).reshape(members, d, d)
    got = min_eig_sym(stack)
    want = np.array([min_eig_sym(mat) for mat in stack])
    assert got.shape == (members,)
    if d != 2:
        assert np.array_equal(got, want)
    else:
        # np.hypot against math.hypot: one ulp apart, plus the rounding of
        # the final subtraction, both at the scale |a| + |b| + |c|
        b = 0.5 * (stack[:, 0, 1] + stack[:, 1, 0])
        scale = np.abs(stack[:, 0, 0]) + np.abs(stack[:, 1, 1]) + np.abs(b)
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(scale))


def test_rhs_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        OdeSystem(layout=(("p", (2, 2)),),
                  rhs=lambda t, c, b: b,
                  terminal={"p": np.zeros((1, 1))}, coefficients=lambda t: None)


def test_integration_is_deterministic():
    system = scalar_system(lambda t, p: p @ p - np.eye(1), 0.0)
    a = integrate_terminal(system, TimeGrid(1.0, 333))["p"]
    b = integrate_terminal(system, TimeGrid(1.0, 333))["p"]
    assert np.array_equal(a.values, b.values)


def test_symmetrization_of_already_symmetric_state_is_identity():
    terminal = np.array([[2.0, 0.5], [0.5, 1.0]])

    def rhs(t, c, blocks):
        m = blocks["M"]
        return {"M": -(m + m.T)}  # symmetric derivative

    system = OdeSystem(layout=(("M", (2, 2)),), rhs=rhs, terminal={"M": terminal},
                       coefficients=lambda t: None, symmetric=frozenset({"M"}))
    path = integrate_terminal(system, TimeGrid(1.0, 64))["M"]
    assert np.max(np.abs(path.values - path.values.transpose(0, 2, 1))) == 0.0


def test_interpolate_constant_path():
    grid = TimeGrid(1.0, 10)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = constant_path(grid, M)
    for t in (0.0, 0.123, 0.5, 1.0):
        assert np.array_equal(interpolate(path, t), M)


def test_interpolate_linearity_and_node_exactness():
    grid = TimeGrid(1.0, 1)
    path = MatrixPath(grid, np.array([[[0.0]], [[2.0]]]))
    assert interpolate(path, 0.25)[0, 0] == pytest.approx(0.5)
    assert interpolate(path, 0.0)[0, 0] == 0.0
    assert interpolate(path, 1.0)[0, 0] == 2.0


def test_interpolate_node_values_exact():
    grid = TimeGrid(1.0, 7)
    vals = np.arange(8, dtype=float).reshape(8, 1, 1)
    path = MatrixPath(grid, vals)
    for j, t in enumerate(grid.nodes):
        assert interpolate(path, float(t))[0, 0] == vals[j, 0, 0]


def test_interpolate_domain_error():
    path = constant_path(TimeGrid(1.0, 4), np.eye(1))
    with pytest.raises(DomainError):
        interpolate(path, 1.5)
    with pytest.raises(DomainError):
        path.on_grid(TimeGrid(1.5, 4))


@pytest.mark.parametrize("T,steps", [(1.0, 100), (0.7, 333), (3.0, 7)])
def test_on_grid_matches_interpolate_bitwise(T, steps):
    grid = TimeGrid(T, steps)
    values = np.random.default_rng(steps).standard_normal((steps + 1, 2, 3))
    path = MatrixPath(grid, values)
    for target in (grid, grid.refined(3)):
        expected = np.stack([interpolate(path, t) for t in target.nodes])
        assert np.array_equal(path.on_grid(target), expected)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=30, deadline=None)
def test_interpolation_stays_in_segment_hull(t, a, b):
    grid = TimeGrid(1.0, 1)
    path = MatrixPath(grid, np.array([[[a]], [[b]]]))
    val = interpolate(path, t)[0, 0]
    assert min(a, b) - 1e-12 <= val <= max(a, b) + 1e-12


def test_symmetric_tag_enforced():
    grid = TimeGrid(1.0, 1)
    vals = np.array([[[1.0, 0.2], [0.0, 1.0]]] * 2)
    with pytest.raises(ValueError):
        MatrixPath(grid, vals, "symmetric")


def test_grid_alignment_check():
    grid = TimeGrid(1.0, 10)
    assert grid.aligns_with(np.array([0.0, 0.5]))
    assert not grid.aligns_with(np.array([0.33]))


def test_guard_node_defaults_to_two_steps_before_horizon():
    for T in (0.3, 1.0, 7.0):
        for steps in (2, 3, 100, 200, 999, 4000):
            grid = TimeGrid(T, steps)
            assert grid.guard_node() == (2.0 * grid.dt, steps - 2)
    assert TimeGrid(1.0, 1).guard_node()[1] == -1
    assert TimeGrid(1.0, 10).guard_node(2.0) == (2.0, -1)
    assert TimeGrid(1.0, 10).guard_node(0.0) == (0.0, 10)


def test_csv_export_shape():
    path = constant_path(TimeGrid(1.0, 2), np.array([[1.0, 2.0]]))
    buf = io.StringIO()
    path_to_csv(path, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,e_0_0,e_0_1"
    assert len(lines) == 4
