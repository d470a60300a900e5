"""Shared instances and grids for the test suite.

The named instances are reused across modules:

* ``tanh_lq``       - scalar forward-LQ whose value block is tanh(T - t)
* ``indefinite``    - scalar instance with D4 < 0, C4 < 0 and closed forms
                      P1 = exp(T-t), P2 = 0, P3 = 2 ln(2 - exp(t-T))
* ``partially_coupled`` - no backward feedback into the forward equation,
                      strictly positive weights, nonzero terminal offset
* ``fully_coupled`` - every channel active, strictly positive weights
* ``smoke``         - zero dynamics with unit control weight, J = 2 exactly

``deterministic_blocks`` is a step-free reference for the decoupling blocks
of instances without diffusion terms, piecewise ones included.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from fblq.model import CoefficientFunction, FBLQProblem
from fblq.odes import TimeGrid


def make_tanh_lq() -> FBLQProblem:
    return FBLQProblem.from_constants(1, 1, 1, 1.0, A4=1.0, D1=1.0, D4=1.0, x0=1.0)


def make_indefinite() -> FBLQProblem:
    return FBLQProblem.from_constants(
        1, 1, 1, 1.0, A2=1.0, D1=-1.0, D2=1.0, D3=1.0, D4=-0.5, C4=-0.1,
        G=1.0, x0=1.0)


def make_partially_coupled(xi: float = 0.3) -> FBLQProblem:
    return FBLQProblem.from_constants(
        1, 1, 1, 1.0,
        A1=0.3, A2=0.4, A3=0.5, A4=1.0, B3=0.2, B4=0.6, C3=0.3, C4=1.0,
        D1=0.5, D2=1.0, D3=0.7, D4=1.0,
        F=0.8, G=1.0, H=0.5, xi=xi, x0=1.0)


def make_fully_coupled(xi: float = 0.3) -> FBLQProblem:
    return FBLQProblem.from_constants(
        1, 1, 1, 1.0,
        A1=0.3, A2=0.4, A3=0.5, A4=1.0, B1=0.2, B2=0.3, B3=0.2, B4=0.6,
        C1=0.25, C2=0.15, C3=0.3, C4=1.0, D1=0.5, D2=1.0, D3=0.7, D4=1.0,
        F=0.8, G=1.0, H=0.5, xi=xi, x0=1.0)


def make_smoke() -> FBLQProblem:
    return FBLQProblem.from_constants(1, 1, 1, 1.0, D4=1.0, G=1.0, x0=2.0)


def make_blq() -> FBLQProblem:
    return FBLQProblem.from_constants(
        1, 1, 1, 1.0, B3=0.3, B4=0.5, C3=0.4, C4=0.6, D3=0.8, D4=1.0,
        H=0.7, xi=0.5)


def make_forward_lq() -> FBLQProblem:
    return FBLQProblem.from_constants(
        1, 1, 1, 1.0, A1=0.1, A2=0.3, A4=1.0, D1=0.2, D2=1.0, D4=-0.3,
        G=1.0, x0=1.0)


def make_deterministic_fblq() -> FBLQProblem:
    return FBLQProblem.from_constants(
        1, 1, 1, 1.0, A1=0.2, A3=0.3, A4=1.0, B1=-0.4, B3=0.1, B4=0.5,
        D1=0.6, D3=0.4, D4=1.0, F=0.5, G=1.0, H=0.3, x0=1.0)


def random_scalar_problem(seed: int, xi_scale: float = 1.0) -> FBLQProblem:
    """Random scalar instance with strictly positive weights and the
    positivity assumptions (semidefinite state weights, definite G)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    return FBLQProblem.from_constants(
        1, 1, 1, 1.0,
        A1=u(-0.4, 0.4), A2=u(-0.4, 0.4), A3=u(-0.4, 0.4), A4=u(0.0, 1.0),
        B1=u(-0.4, 0.4), B2=u(-0.4, 0.4), B3=u(-0.4, 0.4), B4=u(0.0, 1.0),
        C1=u(-0.4, 0.4), C2=u(-0.3, 0.3), C3=u(-0.4, 0.4), C4=u(0.3, 1.0),
        D1=u(-0.6, 0.6), D2=u(-0.8, 0.8), D3=u(-0.6, 0.6), D4=u(0.4, 1.2),
        F=u(-0.8, 0.8), G=u(0.5, 1.5), H=u(0.0, 0.8),
        xi=u(-1.0, 1.0) * xi_scale, x0=u(-1.0, 1.0))


def make_n2_problem() -> FBLQProblem:
    """A 2x1x1 instance (two-dimensional forward state)."""
    A2 = np.array([[0.2, 0.1], [-0.1, 0.3]])
    A4 = np.array([[1.0, 0.2], [0.2, 0.8]])
    G = np.array([[1.2, 0.1], [0.1, 0.9]])
    return FBLQProblem.from_constants(
        2, 1, 1, 1.0,
        A1=np.array([[0.1, -0.2], [0.05, 0.2]]), A2=A2,
        A3=np.array([[0.3, -0.1]]), A4=A4,
        B1=np.array([[0.2], [-0.1]]), B2=np.array([[0.15], [0.1]]),
        B3=0.2, B4=0.5,
        C1=np.array([[0.1], [0.2]]), C2=np.array([[0.1], [-0.05]]),
        C3=0.25, C4=0.9,
        D1=np.array([[0.4], [0.2]]), D2=np.array([[0.6], [-0.3]]),
        D3=0.5, D4=1.0,
        F=np.array([[0.6, -0.4]]), G=G, H=0.4,
        xi=[0.3], x0=[1.0, -0.5])


def make_m2_problem() -> FBLQProblem:
    """A 1x2x1 instance (two-dimensional backward state)."""
    return FBLQProblem.from_constants(
        1, 2, 1, 1.0,
        A1=0.2, A2=0.3, A3=np.array([[0.3], [-0.2]]), A4=1.0,
        B1=np.array([[0.2, -0.1]]), B2=np.array([[0.1, 0.15]]),
        B3=np.array([[0.2, 0.05], [-0.05, 0.1]]),
        B4=np.array([[0.6, 0.1], [0.1, 0.5]]),
        C1=np.array([[0.15, 0.1]]), C2=np.array([[0.1, -0.08]]),
        C3=np.array([[0.2, 0.0], [0.1, 0.15]]),
        C4=np.array([[0.8, 0.1], [0.1, 0.7]]),
        D1=0.4, D2=0.5, D3=np.array([[0.5], [0.3]]), D4=1.0,
        F=np.array([[0.5], [-0.3]]), G=1.0,
        H=np.array([[0.4, 0.05], [0.05, 0.3]]),
        xi=[0.3, -0.2], x0=[1.0])


def random_matrix_problem(seed: int, n: int, m: int, k: int) -> FBLQProblem:
    """Random instance at general dimensions, strictly positive weights."""
    rng = np.random.Generator(np.random.Philox(key=seed))

    def mat(r, c, s=0.35):
        return rng.uniform(-s, s, (r, c))

    def spd(d, lo=0.4):
        A = rng.uniform(-0.5, 0.5, (d, d))
        return A @ A.T + lo * np.eye(d)

    def psd(d):
        A = rng.uniform(-0.6, 0.6, (d, d))
        return A @ A.T

    return FBLQProblem.from_constants(
        n, m, k, 1.0,
        A1=mat(n, n), A2=mat(n, n), A3=mat(m, n), A4=psd(n),
        B1=mat(n, m), B2=mat(n, m, 0.25), B3=mat(m, m), B4=psd(m),
        C1=mat(n, m), C2=mat(n, m, 0.2), C3=mat(m, m), C4=spd(m),
        D1=mat(n, k, 0.5), D2=mat(n, k, 0.5), D3=mat(m, k, 0.5), D4=spd(k),
        F=mat(m, n, 0.6), G=spd(n), H=psd(m),
        xi=rng.uniform(-0.6, 0.6, m), x0=rng.uniform(-1.0, 1.0, n))


def piecewise_matrix_problem() -> FBLQProblem:
    """A 2x1x1 random instance with A1 switching at 0.5 and D4 at 0.25."""
    prob = random_matrix_problem(8123, 2, 1, 1)
    A1 = prob.A1.values[0]
    D4 = prob.D4.values[0]
    return replace(prob,
                   A1=CoefficientFunction.piecewise([0.0, 0.5], [A1, -A1]),
                   D4=CoefficientFunction.piecewise([0.0, 0.25], [D4, 2.0 * D4]))


def deterministic_blocks(problem: FBLQProblem, times) -> np.ndarray:
    """The stacked block [[P1, P2'], [P2, -P3]] at each of ``times`` for an
    instance without diffusion terms and the exact terminal P3(T) = 0.

    Without diffusion the stacked block Q solves the Riccati equation
    Q' = -(c + a'Q + Qa + QbQ) with
    a = [[A1, -D1 D4^-1 D3'], [0, B3']], b = [[-D1 D4^-1 D1', B1], [B1', B4]],
    c = [[A4, A3'], [A3, -D3 D4^-1 D3']].
    By Radon's lemma Q = V U^-1, where [U; V]' = [[a, b], [-c, -a']] [U; V]
    is linear (Reid, Riccati Differential Equations, 1972). On a constant
    piece that flow is one matrix exponential; the pieces are chained
    backward from [I; Q(T)], with no time steps.
    """
    n, m = problem.n, problem.m
    d = n + m
    bottoms = problem.merged_breakpoints
    tops = [*bottoms[1:], problem.T]

    def generator(p):
        s = problem.snapshot(float(bottoms[p]))
        D4_inv = np.linalg.inv(s.D4)
        a = np.block([[s.A1, -s.D1 @ D4_inv @ s.D3.T], [np.zeros((m, n)), s.B3.T]])
        b = np.block([[-s.D1 @ D4_inv @ s.D1.T, s.B1], [s.B1.T, s.B4]])
        c = np.block([[s.A4, s.A3.T], [s.A3, -s.D3 @ D4_inv @ s.D3.T]])
        return np.block([[a, b], [-c, -a.T]])

    def carry(p, t, Q_top):   # Q(t) on piece p from Q at the top of the piece
        UV = expm(generator(p) * (t - tops[p])) @ np.vstack([np.eye(d), Q_top])
        return np.linalg.solve(UV[:d].T, UV[d:].T).T

    Q_tops = [np.block([[problem.G, problem.F.T], [problem.F, np.zeros((m, m))]])]
    for p in range(len(bottoms) - 1, 0, -1):
        Q_tops.insert(0, carry(p, bottoms[p], Q_tops[0]))
    pieces = np.searchsorted(bottoms, times, side="right") - 1
    return np.array([carry(p, t, Q_tops[p]) for p, t in zip(pieces, times)])


def piecewise_deterministic_problem() -> FBLQProblem:
    """A 3x2x2 random instance without diffusion terms, with A1 switching at
    0.25, B4 at 0.5 and D4 at 0.5 and 0.75."""
    prob = random_matrix_problem(4471, 3, 2, 2)
    zero = {c: CoefficientFunction.constant(np.zeros(getattr(prob, c).shape))
            for c in ("C1", "A2", "B2", "C2", "D2", "C3", "C4")}
    A1, B4, D4 = (getattr(prob, c).values[0] for c in ("A1", "B4", "D4"))
    return replace(prob, xi=np.zeros(2), **zero,
                   A1=CoefficientFunction.piecewise([0.0, 0.25], [A1, -A1]),
                   B4=CoefficientFunction.piecewise([0.0, 0.5], [B4, 0.5 * B4]),
                   D4=CoefficientFunction.piecewise([0.0, 0.5, 0.75], [D4, 2.0 * D4, 0.7 * D4]))


@pytest.fixture(scope="session")
def grid1000():
    return TimeGrid(1.0, 1000)


@pytest.fixture(scope="session")
def grid2000():
    return TimeGrid(1.0, 2000)
