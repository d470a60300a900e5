"""Optimal-feedback synthesis and the closed loop as affine maps on (X, h).

The production form of the control is affine in the simulated pair (X, h):
u = L6 X + L7 h + S3, defined on the whole horizon. The (X, Y)-form trades h
for the backward state Y through the decoupling map and therefore needs an
invertible P3; since P3 vanishes at the horizon for the limit solution, that
form is only synthesized up to a guard margin before T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decouple import DecoupledSolution, _gains
from .errors import DomainError, PreconditionError, SingularCoefficientError
from .linalg import gated_inverse, node_inverse
from .model import FBLQProblem
from .odes import TimeGrid


@dataclass(frozen=True)
class GainTable:
    """Blocks, offsets and gain family evaluated at every node of one grid."""

    grid: TimeGrid
    P1: np.ndarray    # (N+1, n, n)
    P2: np.ndarray
    P3: np.ndarray
    phi1: np.ndarray  # (N+1, n)
    phi2: np.ndarray
    L6: np.ndarray
    L7: np.ndarray
    L8: np.ndarray
    L9: np.ndarray
    L10: np.ndarray
    L11: np.ndarray
    S3: np.ndarray
    S4: np.ndarray
    S5: np.ndarray


def evaluate_gain_table(problem: FBLQProblem, sol: DecoupledSolution,
                        grid: TimeGrid | None = None) -> GainTable:
    """Evaluate the gain family at every node of ``grid`` (default: the
    solution's own), whose steps must be a multiple of the solution's, as
    one node stack: the only view of a solution that the feedback law, the
    closed loop and the cost identity read.

    On a refined grid the blocks are linearly interpolated and the gains
    recomputed from the interpolated blocks, which keeps the algebraic
    relations between gains and blocks exact at every node. A singular
    inverse is reported at the time of its first failing node.
    """
    grid = grid or sol.grid
    if grid.steps % sol.grid.steps != 0:
        raise DomainError("simulation steps must be a multiple of the solution grid")
    P1, P2, P3, phi1, phi2 = (path.on_grid(grid) for path in
                              (sol.P1, sol.P2, sol.P3, sol.phi1, sol.phi2))
    try:
        g = _gains(problem.on_grid(grid), P1, P2, P3, phi1, phi2)
    except SingularCoefficientError as err:
        raise err.at_node(grid.nodes) from None
    return GainTable(grid=grid, P1=P1, P2=P2, P3=P3, phi1=phi1[..., 0], phi2=phi2[..., 0],
                     L6=g.L6, L7=g.L7, L8=g.L8, L9=g.L9, L10=g.L10, L11=g.L11,
                     S3=g.S3[..., 0], S4=g.S4[..., 0], S5=g.S5[..., 0])


@dataclass(frozen=True)
class FeedbackLaw:
    """Time-indexed optimal gains in both coordinate forms.

    The (X, h)-form covers every node. The (X, Y)-form covers nodes
    0..guard_node (two grid steps or more before T) where P3 is required
    to be invertible; its gains blow up like 1/P3 toward the horizon.
    """

    grid: TimeGrid
    xh_gain_X: np.ndarray   # (N+1, k, n)
    xh_gain_h: np.ndarray   # (N+1, k, m)
    xh_offset: np.ndarray   # (N+1, k)
    xy_gain_X: np.ndarray   # (guard_node+1, k, n)
    xy_gain_Y: np.ndarray   # (guard_node+1, k, m)
    xy_offset: np.ndarray   # (guard_node+1, k)
    guard_node: int


def synthesize(table: GainTable, xy_form: bool = True) -> FeedbackLaw:
    """Assemble the feedback law from a gain table.

    The (X, h)-form is always produced, on the grid of ``table``. With
    ``xy_form`` the (X, Y)-form is additionally built on nodes two grid
    steps or more before T and requires P3 invertible there; a
    SingularCoefficientError reports the earliest failing node otherwise.
    Callers that only drive the closed loop can skip the (X, Y)-form, which
    does not exist at all when P3 vanishes identically.
    """
    grid = table.grid
    _, guard_node = grid.guard_node()
    if not xy_form:
        guard_node = -1
    xy = slice(0, guard_node + 1)
    P3_inv, _ = node_inverse(table.P3[xy], "P3", grid.nodes)
    L7P3 = table.L7[xy] @ P3_inv
    return FeedbackLaw(
        grid=grid,
        xh_gain_X=table.L6, xh_gain_h=table.L7, xh_offset=table.S3,
        xy_gain_X=table.L6[xy] + L7P3 @ table.P2[xy], xy_gain_Y=-L7P3,
        xy_offset=(L7P3 @ table.phi2[xy, :, np.newaxis])[..., 0] + table.S3[xy],
        guard_node=guard_node,
    )


@dataclass(frozen=True)
class AffineMap:
    """Node-indexed affine map: S -> gain[j] S + offset[j]."""

    gain: np.ndarray     # (N+1, rows, n+m)
    offset: np.ndarray   # (N+1, rows)


@dataclass(frozen=True)
class ClosedLoopSystem:
    """The optimal pair S = (X*, h*) as an affine SDE on one grid.

    Both maps act on S as a column (on a (n+m, paths) block, one per path).
    ``dynamics`` stacks [drift; diffusion] of dS = drift dt + diffusion dB
    (2(n+m) rows); ``recovery`` stacks the processes (X, Y, Z, u, m, n, h),
    whose rows ``rows`` names. The running cost X'A4X + Y'B4Y + Z'C4Z +
    u'D4u at node j is S~' running_cost[j] S~ with S~ = (X, h, 1).
    S(0) = (x0, h0) with h0 = (I + H P3(0))^-1 H (P2(0) x0 + phi2(0)).
    """

    grid: TimeGrid
    dynamics: AffineMap
    recovery: AffineMap
    rows: dict[str, slice]
    running_cost: np.ndarray   # (N+1, n+m+1, n+m+1)
    h0: np.ndarray


def closed_loop_coefficients(problem: FBLQProblem, table: GainTable) -> ClosedLoopSystem:
    """The closed-loop maps on the grid of ``table``.

    The recovery map is the affine decoupling at each node:

        Y = P2 X - P3 h + phi2,     Z = L10 X + L11 h + S5,
        u = L6 X + L7 h + S3,       m = P1 X + P2' h + phi1,
        n = L8 X + L9 h + S4.

    The dynamics map applies the state equation and the equation of h, the
    adjoint of Y, to the recovered processes:

        dX = (A1 X + B1 Y + C1 Z + D1 u) dt + (A2 X + B2 Y + C2 Z + D2 u) dB,
        dh = (B3' h + B4 Y + B1' m + B2' n) dt + (C3' h + C4 Z + C1' m + C2' n) dB.
    """
    grid = table.grid
    s = problem.on_grid(grid)
    n, m, k = problem.n, problem.m, problem.k
    nodes = grid.steps + 1

    def zero(r, c):
        return np.zeros((nodes, r, c))

    recovery = AffineMap(
        np.block([[zero(n, n) + np.eye(n), zero(n, m)],
                  [table.P2, -table.P3],
                  [table.L10, table.L11],
                  [table.L6, table.L7],
                  [table.P1, table.P2.mT],
                  [table.L8, table.L9],
                  [zero(m, n), zero(m, m) + np.eye(m)]]),
        np.concatenate([np.zeros((nodes, n)), table.phi2, table.S5, table.S3,
                        table.phi1, table.S4, np.zeros((nodes, m))], axis=1))
    rows, at = {}, 0
    for name, width in (("X", n), ("Y", m), ("Z", m), ("u", k), ("m", n), ("n", n), ("h", m)):
        rows[name], at = slice(at, at + width), at + width
    # rows [drift X; drift h; diffusion X; diffusion h], columns (X, Y, Z, u, m, n, h)
    coeff = np.block([[s.A1, s.B1, s.C1, s.D1, zero(n, n), zero(n, n), zero(n, m)],
                      [zero(m, n), s.B4, zero(m, m), zero(m, k), s.B1.mT, s.B2.mT, s.B3.mT],
                      [s.A2, s.B2, s.C2, s.D2, zero(n, n), zero(n, n), zero(n, m)],
                      [zero(m, n), zero(m, m), s.C4, zero(m, k), s.C1.mT, s.C2.mT, s.C3.mT]])
    dynamics = AffineMap(coeff @ recovery.gain,
                         (coeff @ recovery.offset[..., np.newaxis])[..., 0])
    # the priced rows (X, Y, Z, u) are K~ (X, h, 1), weighted by A4, B4, C4, D4
    K = np.concatenate([recovery.gain, recovery.offset[..., np.newaxis]], axis=2)
    running_cost = sum(K[:, rows[name]].mT @ w @ K[:, rows[name]]
                       for name, w in (("X", s.A4), ("Y", s.B4), ("Z", s.C4), ("u", s.D4)))
    h0 = initial_h(problem, table.P2[0], table.P3[0], table.phi2[0])
    return ClosedLoopSystem(grid=grid, dynamics=dynamics, recovery=recovery, rows=rows,
                            running_cost=running_cost, h0=h0)


def initial_h(problem: FBLQProblem, P2_0: np.ndarray, P3_0: np.ndarray,
              phi2_0: np.ndarray) -> np.ndarray:
    """h(0) = (I + H P3(0))^-1 H (P2(0) x0 + phi2(0)).

    Solves h(0) = H Y(0) together with the decoupling relation
    Y(0) = P2(0) x0 - P3(0) h(0) + phi2(0).
    """
    try:
        lhs, _ = gated_inverse(np.eye(problem.m) + problem.H @ P3_0, "I + H*P3(0)")
    except SingularCoefficientError:
        raise SingularCoefficientError("I + H*P3(0)", time=0.0) from None
    return lhs @ (problem.H @ (P2_0 @ problem.x0 + phi2_0))


def closed_form_h_representation(problem: FBLQProblem, sys: ClosedLoopSystem,
                                 x_path: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Stochastic-integral representation of h along one simulated path.

    Valid for zero terminal offset. With the h rows of the dynamics map,
    dh = (a1 h + b1 X) dt + (a2 h + b2 X) dB, the fundamental solution of
    the homogeneous h-dynamics is advanced by the Euler scheme with the
    same Brownian increments as the simulated path, and the representation

        h(t) = Phi(t) [ h(0) + int_0^t Phi^-1 (b1 - a2 b2) X ds
                              + int_0^t Phi^-1 b2 X dB ]

    is accumulated with left-endpoint sums (pathwise comparison at Euler
    order). The homogeneous factor multiplies the initial value as well;
    dropping it would violate the defining SDE whenever h(0) is nonzero.
    """
    if float(np.max(np.abs(problem.xi))) != 0.0:
        raise PreconditionError("closed-form h representation requires xi = 0")
    n, m = problem.n, problem.m
    d = n + m
    grid = sys.grid
    steps = grid.steps
    if x_path.shape != (steps + 1, n) or increments.shape != (steps,):
        raise PreconditionError("path arrays do not match the grid")
    dt = grid.dt
    drift_h, diffusion_h = sys.dynamics.gain[:, n:d], sys.dynamics.gain[:, d + n:]
    a1, b1 = drift_h[..., n:], drift_h[..., :n]
    a2, b2 = diffusion_h[..., n:], diffusion_h[..., :n]

    h = np.empty((steps + 1, m))
    phi = np.eye(m)
    acc = sys.h0.copy()
    h[0] = phi @ acc
    for j in range(steps):
        phi_inv, _ = gated_inverse(phi, "Phi")
        x = x_path[j]
        acc = acc + phi_inv @ ((b1[j] - a2[j] @ b2[j]) @ x * dt + (b2[j] @ x) * increments[j])
        phi = phi + (a1[j] @ phi) * dt + (a2[j] @ phi) * increments[j]
        h[j + 1] = phi @ acc
    return h
