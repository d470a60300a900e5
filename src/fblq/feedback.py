"""Optimal-feedback synthesis and closed-loop coefficient assembly.

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
from .errors import PreconditionError, SingularCoefficientError
from .linalg import COND_GATE, gated_inverse
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
    """Evaluate the gain family nodewise, on ``grid`` or the solution's own.

    On a refined grid the blocks are linearly interpolated and the gains
    recomputed from the interpolated blocks, which keeps the algebraic
    relations between gains and blocks exact at every node.
    """
    grid = grid or sol.grid
    own = grid.steps == sol.grid.steps and grid.T == sol.grid.T
    rows = {name: [] for name in
            ("P1", "P2", "P3", "phi1", "phi2",
             "L6", "L7", "L8", "L9", "L10", "L11", "S3", "S4", "S5")}
    for j, t in enumerate(grid.nodes):
        if own:
            P1, P2, P3, phi1, phi2 = sol.at_node(j)
        else:
            P1, P2, P3, phi1, phi2 = sol.value(float(t))
        g = _gains(problem.snapshot(float(t)), P1, P2, P3, phi1, phi2,
                   n=problem.n, m=problem.m)
        for name, val in (("P1", P1), ("P2", P2), ("P3", P3),
                          ("phi1", phi1), ("phi2", phi2),
                          ("L6", g.L6), ("L7", g.L7), ("L8", g.L8),
                          ("L9", g.L9), ("L10", g.L10), ("L11", g.L11),
                          ("S3", g.S3), ("S4", g.S4), ("S5", g.S5)):
            rows[name].append(val)
    return GainTable(grid=grid, **{k: np.stack(v) for k, v in rows.items()})


@dataclass(frozen=True)
class FeedbackLaw:
    """Time-indexed optimal gains in both coordinate forms.

    The (X, h)-form covers every node. The (X, Y)-form covers nodes
    0..guard_node (times <= T - epsilon_guard) where P3 is required to be
    invertible; its gains blow up like 1/P3 toward the horizon.
    """

    grid: TimeGrid
    xh_gain_X: np.ndarray   # (N+1, k, n)
    xh_gain_h: np.ndarray   # (N+1, k, m)
    xh_offset: np.ndarray   # (N+1, k)
    xy_gain_X: np.ndarray   # (guard_node+1, k, n)
    xy_gain_Y: np.ndarray   # (guard_node+1, k, m)
    xy_offset: np.ndarray   # (guard_node+1, k)
    epsilon_guard: float
    guard_node: int


def synthesize(problem: FBLQProblem, sol: DecoupledSolution,
               epsilon_guard: float | None = None,
               grid: TimeGrid | None = None,
               table: GainTable | None = None,
               xy_form: bool = True) -> FeedbackLaw:
    """Assemble the feedback law from a decoupled solution.

    The (X, h)-form is always produced. With ``xy_form`` the (X, Y)-form is
    additionally built on nodes with t <= T - epsilon_guard (default guard:
    two grid steps) and requires P3 invertible there; a
    SingularCoefficientError reports the earliest failing node otherwise.
    Callers that only drive the closed loop can skip the (X, Y)-form, which
    does not exist at all when P3 vanishes identically.
    """
    table = table or evaluate_gain_table(problem, sol, grid)
    grid = table.grid
    eps, guard_node = grid.guard_node(epsilon_guard)
    if not xy_form:
        guard_node = -1
    k = problem.k
    xy_X = np.empty((guard_node + 1, k, problem.n))
    xy_Y = np.empty((guard_node + 1, k, problem.m))
    xy_off = np.empty((guard_node + 1, k))
    for j in range(guard_node + 1):
        try:
            P3_inv, _ = gated_inverse(table.P3[j], "P3", COND_GATE)
        except SingularCoefficientError as err:
            raise err.at_time(float(grid.nodes[j])) from None
        L7P3 = table.L7[j] @ P3_inv
        xy_X[j] = table.L6[j] + L7P3 @ table.P2[j]
        xy_Y[j] = -L7P3
        xy_off[j] = L7P3 @ table.phi2[j] + table.S3[j]
    return FeedbackLaw(
        grid=grid,
        xh_gain_X=table.L6, xh_gain_h=table.L7, xh_offset=table.S3,
        xy_gain_X=xy_X, xy_gain_Y=xy_Y, xy_offset=xy_off,
        epsilon_guard=eps, guard_node=guard_node,
    )


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Affine SDE coefficients of the optimal pair (X*, h*).

    dX* = (N1 X* + N2 h* + N3) dt + (N4 X* + N5 h* + N6) dB
    dh* = (N7 X* + N8 h* + N9) dt + (N10 X* + N11 h* + N12) dB
    with X*(0) = x0 and h*(0) = (I + H P3(0))^-1 H (P2(0) x0 + phi2(0)).
    """

    grid: TimeGrid
    N: dict[str, np.ndarray]   # "N1".."N12" -> stacked per-node arrays
    x0: np.ndarray
    h0: np.ndarray


def closed_loop_coefficients(problem: FBLQProblem, sol: DecoupledSolution,
                             grid: TimeGrid | None = None,
                             table: GainTable | None = None) -> ClosedLoopSystem:
    """All twelve closed-loop coefficient paths plus the initial pair.

    The diffusion offset of the forward equation is B2 phi2 + C2 S5 + D2 S3
    (substituting the affine representations into the forward diffusion).
    """
    table = table or evaluate_gain_table(problem, sol, grid)
    grid = table.grid
    names = [f"N{q}" for q in range(1, 13)]
    out = {name: [] for name in names}
    for j, t in enumerate(grid.nodes):
        s = problem.snapshot(float(t))
        P1, P2, P3 = table.P1[j], table.P2[j], table.P3[j]
        phi1, phi2 = table.phi1[j], table.phi2[j]
        out["N1"].append(s.A1 + s.B1 @ P2 + s.C1 @ table.L10[j] + s.D1 @ table.L6[j])
        out["N2"].append(-s.B1 @ P3 + s.C1 @ table.L11[j] + s.D1 @ table.L7[j])
        out["N3"].append(s.B1 @ phi2 + s.C1 @ table.S5[j] + s.D1 @ table.S3[j])
        out["N4"].append(s.A2 + s.B2 @ P2 + s.C2 @ table.L10[j] + s.D2 @ table.L6[j])
        out["N5"].append(-s.B2 @ P3 + s.C2 @ table.L11[j] + s.D2 @ table.L7[j])
        out["N6"].append(s.B2 @ phi2 + s.C2 @ table.S5[j] + s.D2 @ table.S3[j])
        out["N7"].append(s.B1.T @ P1 + s.B2.T @ table.L8[j] + s.B4 @ P2)
        out["N8"].append(s.B3.T + s.B1.T @ P2.T + s.B2.T @ table.L9[j] - s.B4 @ P3)
        out["N9"].append(s.B1.T @ phi1 + s.B2.T @ table.S4[j] + s.B4 @ phi2)
        out["N10"].append(s.C1.T @ P1 + s.C2.T @ table.L8[j] + s.C4 @ table.L10[j])
        out["N11"].append(s.C3.T + s.C1.T @ P2.T + s.C2.T @ table.L9[j] + s.C4 @ table.L11[j])
        out["N12"].append(s.C1.T @ phi1 + s.C2.T @ table.S4[j] + s.C4 @ table.S5[j])
    N = {name: np.stack(vals) for name, vals in out.items()}
    h0 = initial_h(problem, table.P2[0], table.P3[0], table.phi2[0])
    return ClosedLoopSystem(grid=grid, N=N, x0=np.array(problem.x0), h0=h0)


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


def closed_form_h_representation(problem: FBLQProblem, sol: DecoupledSolution,
                                 x_path: np.ndarray, increments: np.ndarray,
                                 grid: TimeGrid,
                                 table: GainTable | None = None) -> np.ndarray:
    """Stochastic-integral representation of h along one simulated path.

    Valid for zero terminal offset. The fundamental solution of the
    homogeneous h-dynamics is advanced by the Euler scheme with the same
    Brownian increments as the simulated path, and the representation

        h(t) = Phi(t) [ h(0) + int_0^t Phi^-1 (b1 - a2 b2) X ds
                              + int_0^t Phi^-1 b2 X dB ]

    is accumulated with left-endpoint sums (pathwise comparison at Euler
    order). The homogeneous factor multiplies the initial value as well;
    dropping it would violate the defining SDE whenever h(0) is nonzero.
    """
    if float(np.max(np.abs(problem.xi))) != 0.0:
        raise PreconditionError("closed-form h representation requires xi = 0")
    table = table or evaluate_gain_table(problem, sol, grid)
    if table.grid.steps != grid.steps:
        raise PreconditionError("gain table and path must share the grid")
    n, m = problem.n, problem.m
    steps = grid.steps
    if x_path.shape != (steps + 1, n) or increments.shape != (steps,):
        raise PreconditionError("path arrays do not match the grid")
    dt = grid.dt
    h0 = initial_h(problem, table.P2[0], table.P3[0], table.phi2[0])

    h = np.empty((steps + 1, m))
    phi = np.eye(m)
    acc = h0.copy()
    h[0] = phi @ acc
    for j in range(steps):
        s = problem.snapshot(float(grid.nodes[j]))
        a1 = s.B3.T + s.B1.T @ table.P2[j].T + s.B2.T @ table.L9[j] - s.B4 @ table.P3[j]
        b1 = s.B1.T @ table.P1[j] + s.B2.T @ table.L8[j] + s.B4 @ table.P2[j]
        a2 = s.C3.T + s.C1.T @ table.P2[j].T + s.C2.T @ table.L9[j] + s.C4 @ table.L11[j]
        b2 = s.C1.T @ table.P1[j] + s.C2.T @ table.L8[j] + s.C4 @ table.L10[j]
        phi_inv, _ = gated_inverse(phi, "Phi")
        x = x_path[j]
        acc = acc + phi_inv @ ((b1 - a2 @ b2) @ x * dt + (b2 @ x) * increments[j])
        phi = phi + (a1 @ phi) * dt + (a2 @ phi) * increments[j]
        h[j + 1] = phi @ acc
    return h
