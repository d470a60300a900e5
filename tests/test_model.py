from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_smoke,
    piecewise_matrix_problem,
    random_matrix_problem,
    random_scalar_problem,
)
from fblq.decouple import hamiltonian_blocks
from fblq.errors import DomainError, SingularCoefficientError
from fblq.model import (
    LEVEL_BOUNDED,
    LEVEL_POSITIVE,
    LEVEL_STRICT,
    CoefficientFunction,
    FBLQProblem,
    eval_coeffs,
    validate,
)
from fblq.odes import TimeGrid
from fblq.riccati import augmented


def test_constant_coefficient_any_time():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, A1=0.7, D4=1.0)
    for t in (0.0, 0.31, 1.0):
        assert eval_coeffs(prob, t).A1[0, 0] == 0.7


def test_breakpoint_right_continuity_and_terminal():
    cf = CoefficientFunction.piecewise([0.0, 0.5], [[[1.0]], [[2.0]]])
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, A1=cf, D4=1.0)
    assert eval_coeffs(prob, 0.49).A1[0, 0] == 1.0
    assert eval_coeffs(prob, 0.5).A1[0, 0] == 2.0   # right-continuous
    assert eval_coeffs(prob, 1.0).A1[0, 0] == 2.0   # last piece at the horizon


def switching_problem() -> FBLQProblem:
    """A 2x1x1 random instance with A3 switching at 0.25 and 0.75 and D1 at 0.5."""
    base = random_matrix_problem(5, 2, 1, 1)
    A3, D1 = base.A3.values[0], base.D1.values[0]
    return replace(base,
                   A3=CoefficientFunction.piecewise([0.0, 0.25, 0.75], [A3, 2.0 * A3, -A3]),
                   D1=CoefficientFunction.piecewise([0.0, 0.5], [D1, 3.0 * D1]))


@pytest.mark.parametrize("steps", [7, 40])
def test_on_grid_equals_snapshot_at_every_node(steps):
    # the breakpoints 0.25, 0.5 and 0.75 are nodes of the 40-step grid only
    grid = TimeGrid(1.0, steps)
    for prob in (switching_problem(), piecewise_matrix_problem()):
        for stack, at in ((prob.on_grid(grid), prob.snapshot),
                          (augmented(prob, grid.nodes), lambda t: augmented(prob, t)),
                          (hamiltonian_blocks(prob, grid.nodes),
                           lambda t: hamiltonian_blocks(prob, t))):
            names = [f.name for f in fields(stack)]
            for j, t in enumerate(grid.nodes):   # t = 0, breakpoints and t = T included
                snap = at(float(t))
                for name in names:
                    assert getattr(stack, name).shape == (steps + 1, *getattr(snap, name).shape)
                    assert np.array_equal(getattr(stack, name)[j], getattr(snap, name)), \
                        (j, name)


def test_derived_sets_are_built_once_per_piece_and_failures_keep_their_time():
    prob = piecewise_matrix_problem()   # D4 switches at 0.25, A1 at 0.5
    assert hamiltonian_blocks(prob, 0.3) is hamiltonian_blocks(prob, 0.45)
    assert hamiltonian_blocks(prob, 0.3) is not hamiltonian_blocks(prob, 0.5)
    assert not hamiltonian_blocks(prob, 0.3).C2.flags.writeable   # shared, so read-only
    assert augmented(prob, 0.6) is augmented(prob, 1.0)

    # a singular D4 on the last piece raises for that piece only, every time
    bad = replace(prob, D4=CoefficientFunction.piecewise([0.0, 0.5], [[[1.0]], [[0.0]]]))
    hamiltonian_blocks(bad, 0.2)
    for _ in range(2):
        with pytest.raises(SingularCoefficientError) as err:
            hamiltonian_blocks(bad, 0.7)
        assert err.value.name == "D4" and err.value.time is None
    with pytest.raises(SingularCoefficientError) as err:
        hamiltonian_blocks(bad, TimeGrid(1.0, 8).nodes)
    assert err.value.name == "D4" and err.value.time == 0.5   # first node of the piece


def test_eval_outside_horizon_raises():
    prob = make_smoke()
    with pytest.raises(DomainError):
        eval_coeffs(prob, -0.01)
    with pytest.raises(DomainError):
        eval_coeffs(prob, 1.01)


def test_eval_is_pure_and_bit_identical():
    prob = random_scalar_problem(3)
    a = eval_coeffs(prob, 0.37)
    b = eval_coeffs(prob, 0.37)
    for name in ("A1", "B2", "C3", "D4"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not a.A1.flags.writeable


def test_validate_positive_passes_on_zero_weights_with_identity_G():
    prob = FBLQProblem.from_constants(2, 1, 1, 1.0, G=np.eye(2))
    report = validate(prob, LEVEL_POSITIVE)
    assert report.passed


def test_validate_strict_fails_on_negative_control_weight():
    prob = FBLQProblem.from_constants(1, 1, 1, 1.0, D4=-0.5, G=1.0)
    report = validate(prob, LEVEL_STRICT)
    assert not report.passed
    failing = {c.subject for c in report.failures()}
    assert failing == {"D4"}
    (check,) = report.failures()
    assert check.value == pytest.approx(-0.5)


def test_validate_reports_asymmetry_beyond_tolerance():
    A4 = np.array([[1.0, 1e-6], [0.0, 1.0]])  # asymmetry far beyond 1e-9
    prob = FBLQProblem.from_constants(2, 1, 1, 1.0, A4=A4, G=np.eye(2))
    report = validate(prob, LEVEL_BOUNDED)
    assert not report.passed
    (check,) = [c for c in report.failures() if c.subject == "A4"]
    assert check.value == pytest.approx(1e-6 / (1.0 + 1.0), rel=1e-6)


def test_near_symmetric_matrices_are_symmetrized_on_ingestion():
    A4 = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
    prob = FBLQProblem.from_constants(2, 1, 1, 1.0, A4=A4, G=np.eye(2))
    stored = prob.A4.value_at(0.0)
    assert np.array_equal(stored, stored.T)


def test_level_implications_on_random_instances():
    # strict pass => positive pass => bounded pass
    for seed in range(12):
        prob = random_scalar_problem(seed)
        strict = validate(prob, LEVEL_STRICT).passed
        positive = validate(prob, LEVEL_POSITIVE).passed
        bounded = validate(prob, LEVEL_BOUNDED).passed
        if strict:
            assert positive
        if positive:
            assert bounded


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        FBLQProblem.from_constants(2, 1, 1, 1.0, A1=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        FBLQProblem.from_constants(1, 1, 1, 1.0, F=np.zeros((2, 2)))


def test_breakpoints_must_stay_inside_horizon():
    cf = CoefficientFunction.piecewise([0.0, 1.0], [[[1.0]], [[2.0]]])
    with pytest.raises(ValueError):
        FBLQProblem.from_constants(1, 1, 1, 1.0, A1=cf)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_piecewise_lookup_matches_linear_scan(t):
    breaks = [0.0, 0.25, 0.5, 0.75]
    vals = [[[float(q)]] for q in range(4)]
    cf = CoefficientFunction.piecewise(breaks, vals)
    expected = 0.0
    for b, v in zip(breaks, range(4)):
        if t >= b:
            expected = float(v)
    assert cf.value_at(t)[0, 0] == expected
