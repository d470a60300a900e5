"""The batched block kernel: stacked inverses, stacked RK4 and the sweep.

A batch integrates several terminal indices in one pass over (B, d, d)
stacks. Its members must agree with the one-index-at-a-time solves to
rounding level, and a failing member must never change what the user sees:
the sweep then falls back to solving one index at a time.
"""

from dataclasses import replace

import numpy as np
import pytest

import fblq.decouple as decouple
from conftest import make_partially_coupled, random_matrix_problem
from fblq.cli import _suite_monotone
from fblq.decouple import (
    EXACT,
    direct_solver,
    identity_suite,
    integrate_direct,
    iterate_limit,
)
from fblq.errors import DivergedError, SingularCoefficientError
from fblq.linalg import gated_inverse, sym
from fblq.model import CoefficientFunction
from fblq.odes import OdeSystem, TimeGrid, integrate_terminal
from fblq.riccati import build_augmented, solve_auxiliary_riccati

BLOCKS = ("P1", "P2", "P3", "phi1", "phi2")
GRID = TimeGrid(1.0, 40)


def piecewise_instance():
    prob = random_matrix_problem(8123, 2, 1, 1)
    A1 = prob.A1.values[0]
    D4 = prob.D4.values[0]
    return replace(prob,
                   A1=CoefficientFunction.piecewise([0.0, 0.5], [A1, -A1]),
                   D4=CoefficientFunction.piecewise([0.0, 0.25], [D4, 2.0 * D4]))


def singular_l1_instance():
    """L1(T) = 1 - F C2 + C4/i = 1 - 1.125 + 1/i vanishes exactly at i = 8."""
    prob = random_matrix_problem(31, 2, 1, 1)
    return replace(prob, F=np.array([[1.125, 0.0]]),
                   C2=CoefficientFunction.constant(np.array([[1.0], [0.0]])),
                   C4=CoefficientFunction.constant(np.array([[1.0]])))


INSTANCES = {
    "2x1x1": lambda: random_matrix_problem(4101, 2, 1, 1),
    "1x2x1": lambda: random_matrix_problem(4102, 1, 2, 1),
    "4x3x2": lambda: random_matrix_problem(4103, 4, 3, 2),
    "piecewise": piecewise_instance,
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gated_inverse_stack_equals_per_member(d):
    rng = np.random.Generator(np.random.Philox(key=40 + d))
    stack = rng.standard_normal((6, d, d)) + 2.0 * np.eye(d)
    inv, cond = gated_inverse(stack, "L2")
    assert inv.shape == stack.shape and cond.shape == (6,)
    for b in range(6):
        inv_b, cond_b = gated_inverse(stack[b], "L2")
        assert np.allclose(inv[b], inv_b, rtol=1e-14, atol=0.0)
        assert cond[b] == pytest.approx(cond_b, rel=1e-14)
    if d <= 2:   # the closed forms are the same arithmetic
        assert all(np.array_equal(inv[b], gated_inverse(stack[b], "L2")[0]) for b in range(6))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gated_inverse_stack_names_first_failing_member(d):
    stack = np.broadcast_to(np.eye(d), (5, d, d)).copy()
    stack[3] = 0.0
    stack[4, 0, 0] = 1e-12   # ill-conditioned for d > 1, but a later member
    with pytest.raises(SingularCoefficientError) as err:
        gated_inverse(stack, "L1")
    assert (err.value.name, err.value.member) == ("L1", 3)
    assert "L1" in str(err.value) and "member 3" in str(err.value)
    stack[3] = np.eye(d)
    if d == 1:   # a 1x1 inverse is perfectly conditioned whenever it exists
        assert np.array_equal(gated_inverse(stack, "L1")[1], np.ones(5))
        return
    with pytest.raises(SingularCoefficientError) as err:
        gated_inverse(stack, "L1")
    assert (err.value.name, err.value.member) == ("L1", 4)
    assert err.value.cond > 1e10


def test_sym_on_stack_is_per_member():
    rng = np.random.Generator(np.random.Philox(key=9))
    stack = rng.standard_normal((4, 3, 3))
    out = sym(stack)
    for b in range(4):
        assert np.array_equal(out[b], 0.5 * (stack[b] + stack[b].T))
    assert np.array_equal(out, out.transpose(0, 2, 1))


def test_batched_integrator_names_diverging_member():
    # p' = -p^2 backward from p(T) = c blows up at t = T - 1/c, only for c > 1
    system = OdeSystem(layout=(("p", (1, 1)),), rhs=lambda t, b: {"p": -(b["p"] @ b["p"])},
                       terminal={"p": np.array([[[0.5]], [[4.0]], [[0.2]]])})
    with pytest.raises(DivergedError, match="block p of member 1 exceeded"):
        integrate_terminal(system, TimeGrid(1.0, 1000))


def test_batched_integrator_members_match_single_runs():
    def rhs(t, b):
        return {"M": -(b["M"] @ b["M"].mT) + np.eye(2), "v": b["M"] @ b["v"]}
    terminals = np.array([[[1.0, 0.2], [0.2, 0.5]], [[0.3, -0.4], [-0.4, 0.9]]])
    vecs = np.array([[[1.0], [2.0]], [[-1.0], [0.5]]])
    batch = integrate_terminal(
        OdeSystem(layout=(("M", (2, 2)), ("v", (2, 1))), rhs=rhs,
                  terminal={"M": terminals, "v": vecs}, symmetric=frozenset({"M"})),
        TimeGrid(1.0, 50))
    for b in range(2):
        single = integrate_terminal(
            OdeSystem(layout=(("M", (2, 2)), ("v", (2, 1))), rhs=rhs,
                      terminal={"M": terminals[b], "v": vecs[b]}, symmetric=frozenset({"M"})),
            TimeGrid(1.0, 50))
        for name in ("M", "v"):
            assert batch[b][name].symmetry == single[name].symmetry
            assert np.allclose(batch[b][name].values, single[name].values, rtol=0.0,
                               atol=1e-14 * (1.0 + np.max(np.abs(single[name].values))))


def test_batch_terminal_shapes_must_agree():
    with pytest.raises(ValueError):
        OdeSystem(layout=(("a", (1, 1)), ("b", (1, 1))), rhs=lambda t, b: b,
                  terminal={"a": np.zeros((2, 1, 1)), "b": np.zeros((3, 1, 1))})


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_batch_members_match_lazy_solves(name):
    prob = INSTANCES[name]()
    indices = [1, 2, 3, 8, 9, 64, 65, EXACT]
    batch = integrate_direct(prob, indices, GRID)
    for index, member in zip(indices, batch):
        lazy = integrate_direct(prob, index, GRID)
        assert member.source == lazy.source
        for block in BLOCKS:
            a, b = getattr(member, block), getattr(lazy, block)
            assert a.values.shape == b.values.shape and a.symmetry == b.symmetry
            scale = 1.0 + np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) <= 1e-14 * scale, (index, block)


def lazy_only(monkeypatch):
    """Make every batched integrate_direct call fail, forcing the lazy sweep."""
    single = decouple.integrate_direct

    def no_batches(problem, terminal_index, grid):
        if isinstance(terminal_index, (list, tuple)):
            raise DivergedError(1.0, "batch refused")
        return single(problem, terminal_index, grid)
    monkeypatch.setattr(decouple, "integrate_direct", no_batches)


@pytest.mark.parametrize("name, tol", [("2x1x1", 1e-6), ("1x2x1", 1e-6),
                                       ("4x3x2", 1e-6), ("piecewise", 0.15)])
def test_sweep_diagnostics_match_lazy_sweep(name, tol, monkeypatch):
    prob = INSTANCES[name]()
    schedule = (1, 2, 4, 8, 16, 32, 64)
    sol, diag = iterate_limit(prob, GRID, schedule=schedule, tol=tol)
    lazy_only(monkeypatch)
    sol_l, diag_l = iterate_limit(prob, GRID, schedule=schedule, tol=tol)
    assert (diag.schedule, diag.converged, diag.smallest_index) == \
        (diag_l.schedule, diag_l.converged, diag_l.smallest_index)
    if name == "piecewise":   # the early stop truncates this sweep
        assert diag.converged and len(diag.schedule) < len(schedule)
    for field in ("doubling_diffs", "consecutive_diffs"):
        assert np.allclose(getattr(diag, field), getattr(diag_l, field), rtol=1e-12, atol=0.0)
    for field in ("rate_exponent", "limit_distance", "p1_bound", "p2_bound",
                  "p3_min_eig", "gain_cond_bound"):
        assert getattr(diag, field) == pytest.approx(getattr(diag_l, field), rel=1e-12)
    assert sol.source == sol_l.source
    assert np.allclose(sol.P1.values, sol_l.P1.values, rtol=1e-12, atol=1e-15)


def test_failing_member_past_the_early_stop_does_not_raise():
    prob = singular_l1_instance()
    with pytest.raises(SingularCoefficientError):
        integrate_direct(prob, [1, 2, 8, EXACT], GRID)
    _, diag = iterate_limit(prob, GRID, schedule=(1, 2, 8), tol=1e3, measure_rate=False)
    assert diag.converged and diag.schedule == (1, 2)


def test_consumed_failing_index_raises_the_single_solve_error():
    prob = singular_l1_instance()
    with pytest.raises(SingularCoefficientError) as single:
        integrate_direct(prob, 8, GRID)
    with pytest.raises(SingularCoefficientError) as swept:
        iterate_limit(prob, GRID, schedule=(1, 2, 8), tol=0.0)
    assert str(swept.value) == str(single.value)
    assert (swept.value.name, swept.value.time, swept.value.member) == ("L1", 1.0, None)
    with pytest.raises(SingularCoefficientError) as monotone:
        _suite_monotone(prob, GRID)
    assert str(monotone.value) == str(single.value)


def test_direct_solver_batches_generic_and_stays_lazy_on_scalar(monkeypatch):
    calls = []
    real = decouple.integrate_direct

    def spy(problem, terminal_index, grid):
        calls.append(terminal_index)
        return real(problem, terminal_index, grid)
    monkeypatch.setattr(decouple, "integrate_direct", spy)
    solve = direct_solver(random_matrix_problem(4101, 2, 1, 1), [1, 2, 2, EXACT], GRID)
    assert calls == [[1, 2, EXACT]]
    solve(2)
    assert calls == [[1, 2, EXACT]]
    calls.clear()
    solve = direct_solver(make_partially_coupled(), [1, 2, EXACT], GRID)
    assert calls == []
    solve(2)
    assert calls == [2]


def test_identity_suite_inverts_m1_once(monkeypatch):
    import fblq.riccati as riccati
    prob = random_matrix_problem(4101, 2, 1, 1)
    grid = TimeGrid(1.0, 200)
    sol = integrate_direct(prob, 4, grid)
    ric = solve_auxiliary_riccati(build_augmented(prob), prob, 4, grid)
    names = []
    for module in (decouple, riccati):
        real = module.gated_inverse

        def counting(mat, name, *args, real=real):
            names.append(name)
            return real(mat, name, *args)
        monkeypatch.setattr(module, "gated_inverse", counting)
    rep = identity_suite(prob, sol, ric, 0.4)
    assert names.count("M1") == 1
    assert rep.max_counted_residual < 1e-8
