"""Decoupling blocks (P1, P2, P3) and offsets for the coupled Hamiltonian flow.

The backward components of the Hamiltonian system are represented as affine
functions of the forward pair (X, h):

    m = P1 X + P2' h + phi1,        Y = P2 X - P3 h + phi2,

which closes into a coupled matrix ODE system for (P1, P2, P3) once the
martingale components (Z, n) and the control are eliminated through the gain
family L1..L11 / S1..S5 computed here. Three independent routes produce the
same blocks:

  * integrate_direct  - backward RK4 on the (P1, P2, P3) system itself,
  * transform_from_riccati - Schur-type transform of the penalized
    augmented Riccati solution,
  * solve_q_equation  - the (X, h)-coordinate matrix ODE available when the
    control weight is strictly positive.

identity_suite numerically checks the block-algebra relations tying the
routes together, which is how implementation slips in any of the three
surface immediately.

With a deterministic terminal offset the martingale parts of the offset
equations vanish and every offset equation is an ODE. The offsets come only
from co-integration: integrate_direct carries them with the blocks at full
RK4 order, and the transform route maps the offset that the Riccati pass
carries (riccati.solve_offset_tilde).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DivergedError,
    DomainError,
    FBLQError,
    PreconditionError,
    SingularCoefficientError,
)
from .linalg import frozen, gated_inverse, min_eig_sym, node_inverse, sym
from .model import COEFF_NAMES, LEVEL_STRICT, CoeffSnapshot, FBLQProblem, eval_coeffs, validate
from .riccati import (
    RiccatiSolution,
    augmented,
    m5_from_terms,
    m_coefficients,
    solve_offset_tilde,
)
from .odes import MatrixPath, OdeSystem, TimeGrid, integrate_terminal

EXACT = "exact"
DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256)
DEFAULT_LIMIT_TOL = 1e-6


# ---------------------------------------------------------------------------
# gain coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainCoefficients:
    """The L1..L11 / S1..S5 family at one time.

    State gains are always present; the offset entries S2..S5 are None unless
    offsets were supplied. Stored inverses come with 1-norm condition
    estimates so callers can report conditioning.
    """

    L1: np.ndarray
    L2: np.ndarray
    L3: np.ndarray
    L4: np.ndarray
    L5: np.ndarray
    L6: np.ndarray
    L7: np.ndarray
    L8: np.ndarray
    L9: np.ndarray
    L10: np.ndarray
    L11: np.ndarray
    S1: np.ndarray
    L1_inv: np.ndarray
    L2_inv: np.ndarray
    L5_inv: np.ndarray
    cond_L1: float
    cond_L2: float
    cond_L5: float
    S2: np.ndarray | None = None
    S3: np.ndarray | None = None
    S4: np.ndarray | None = None
    S5: np.ndarray | None = None


_EYES: dict[int, np.ndarray] = {}


def _eye(d: int) -> np.ndarray:
    out = _EYES.get(d)
    if out is None:
        out = np.eye(d)
        out.flags.writeable = False
        _EYES[d] = out
    return out


def _gains(s: CoeffSnapshot, P1, P2, P3, phi1=None, phi2=None) -> GainCoefficients:
    """The gain family for (d, d) blocks or (B, d, d) stacks of them.

    Offsets are (d,) vectors next to single blocks and (B, d, 1) columns
    next to stacks; in a batch the conditions are one per member. The
    snapshot holds single matrices or, from ``FBLQProblem.on_grid``, one
    matrix per member.
    """
    I_n, I_m = _eye(P1.shape[-1]), _eye(P3.shape[-1])

    L1 = I_m - P2 @ s.C2 + P3 @ s.C4
    L1_inv, cond1 = gated_inverse(L1, "L1")
    W = P1 @ s.C2 + P2.mT @ s.C4  # recurring mixed weight, (n, m)
    L2 = I_n - P2.mT @ s.C2.mT + W @ L1_inv @ (P3 @ s.C2.mT)
    L2_inv, cond2 = gated_inverse(L2, "L2")
    zx = P2 @ s.A2 + P2 @ s.B2 @ P2 - P3 @ s.C1.mT @ P1   # diffusion recovery, X-gain
    zh = P2 @ s.B2 @ P3 + P3 @ s.C3.mT + P3 @ s.C1.mT @ P2.mT
    L3 = P1 @ s.A2 + P1 @ s.B2 @ P2 + P2.mT @ s.C1.mT @ P1 + W @ L1_inv @ zx
    L4 = P2.mT @ s.C3.mT + P2.mT @ s.C1.mT @ P2.mT - P1 @ s.B2 @ P3 - W @ L1_inv @ zh
    S1 = P1 + W @ L1_inv @ P2
    L5 = s.D4 + s.D2.mT @ L2_inv @ S1 @ s.D2
    L5_inv, cond5 = gated_inverse(L5, "L5")
    L6 = -L5_inv @ (s.D1.mT @ P1 + s.D2.mT @ L2_inv @ L3)
    L7 = -L5_inv @ (s.D1.mT @ P2.mT + s.D2.mT @ L2_inv @ L4 + s.D3.mT)
    L8 = L2_inv @ (L3 + S1 @ s.D2 @ L6)
    L9 = L2_inv @ (L4 + S1 @ s.D2 @ L7)
    L10 = L1_inv @ (zx - P3 @ s.C2.mT @ L8 + P2 @ s.D2 @ L6)
    L11 = L1_inv @ (P2 @ s.D2 @ L7 - P3 @ s.C2.mT @ L9 - zh)

    S2 = S3 = S4 = S5 = None
    if phi1 is not None:
        S2 = (P1 @ s.B2 @ phi2 + P2.mT @ (s.C1.mT @ phi1)
              + W @ (L1_inv @ (P2 @ s.B2 @ phi2 - P3 @ (s.C1.mT @ phi1))))
        S3 = -L5_inv @ (s.D1.mT @ phi1 + s.D2.mT @ (L2_inv @ S2))
        S4 = L2_inv @ (S1 @ (s.D2 @ S3) + S2)
        S5 = L1_inv @ (P2 @ (s.D2 @ S3) - P3 @ (s.C2.mT @ S4)
                       + P2 @ s.B2 @ phi2 - P3 @ (s.C1.mT @ phi1))

    return GainCoefficients(
        L1=L1, L2=L2, L3=L3, L4=L4, L5=L5, L6=L6, L7=L7, L8=L8, L9=L9,
        L10=L10, L11=L11, S1=S1,
        L1_inv=L1_inv, L2_inv=L2_inv, L5_inv=L5_inv,
        cond_L1=cond1, cond_L2=cond2, cond_L5=cond5,
        S2=S2, S3=S3, S4=S4, S5=S5,
    )


def l_coefficients(problem: FBLQProblem, P1, P2, P3, phi1=None, phi2=None,
                   t: float = 0.0) -> GainCoefficients:
    """Gain family at time ``t`` for given decoupling blocks and offsets.

    Raises SingularCoefficientError naming L1, L2 or L5 when a required
    inverse is singular or its condition estimate exceeds the 1e10 gate.
    """
    s = eval_coeffs(problem, t)
    P1 = np.atleast_2d(np.asarray(P1, dtype=float))
    P2 = np.atleast_2d(np.asarray(P2, dtype=float))
    P3 = np.atleast_2d(np.asarray(P3, dtype=float))
    if phi1 is not None:
        phi1 = np.asarray(phi1, dtype=float).reshape(-1)
        phi2 = np.asarray(phi2, dtype=float).reshape(-1)
    return _gains(s, P1, P2, P3, phi1, phi2)


# ---------------------------------------------------------------------------
# the coupled block system
# ---------------------------------------------------------------------------

def _p_rhs(s: CoeffSnapshot, P1, P2, P3, g: GainCoefficients):
    dP1 = -(P1 @ s.A1 + P1 @ s.B1 @ P2 + P1 @ s.C1 @ g.L10 + P1 @ s.D1 @ g.L6
            + P2.mT @ s.B1.T @ P1 + P2.mT @ s.B2.T @ g.L8 + P2.mT @ s.B4 @ P2
            + s.A4 + s.A1.T @ P1 + s.A2.T @ g.L8)
    dP2 = -(P2 @ s.A1 + P2 @ s.B1 @ P2 + P2 @ s.C1 @ g.L10 + P2 @ s.D1 @ g.L6
            - P3 @ s.B1.T @ P1 - P3 @ s.B2.T @ g.L8 - P3 @ s.B4 @ P2
            + s.A3 + s.B3 @ P2 + s.C3 @ g.L10 + s.D3 @ g.L6)
    dP3 = -(P2 @ s.B1 @ P3 - P2 @ s.C1 @ g.L11 - P2 @ s.D1 @ g.L7
            + P3 @ s.B3.T + P3 @ s.B1.T @ P2.mT + P3 @ s.B2.T @ g.L9
            - P3 @ s.B4 @ P3 + s.B3 @ P3 - s.C3 @ g.L11 - s.D3 @ g.L7)
    return dP1, dP2, dP3


def _p2t_rhs(s: CoeffSnapshot, P1, P3, Q, g: GainCoefficients):
    """Independent right-hand side for the transposed middle block.

    ``Q`` plays the transposed block; the gains stay those of the primary
    (P1, P2, P3) states, so any inconsistency between the two equations
    shows up as drift between Q and P2'.
    """
    return -(-P1 @ s.B1 @ P3 + P1 @ s.C1 @ g.L11 + P1 @ s.D1 @ g.L7
             + Q @ s.B3.T + Q @ s.B1.T @ Q + Q @ s.B2.T @ g.L9 - Q @ s.B4 @ P3
             + s.A3.T + s.A1.T @ Q + s.A2.T @ g.L9)


def _phi_rhs(s: CoeffSnapshot, P1, P2, P3, phi1, phi2, g: GainCoefficients):
    fwd = s.B1 @ phi2 + s.C1 @ g.S5 + s.D1 @ g.S3    # offset of the X drift
    adj = s.B1.T @ phi1 + s.B2.T @ g.S4 + s.B4 @ phi2  # offset of the h drift
    dphi1 = -(P1 @ fwd + P2.mT @ adj + s.A1.T @ phi1 + s.A2.T @ g.S4)
    dphi2 = -(P2 @ fwd - P3 @ adj + s.B3 @ phi2 + s.C3 @ g.S5 + s.D3 @ g.S3)
    return dphi1, dphi2


@dataclass(frozen=True)
class SolutionSource:
    kind: str                  # "direct" | "transformed" | "limit"
    index: int | None = None   # penalization index; None means exact terminal
    tol: float | None = None
    i_max: int | None = None

    def label(self) -> str:
        if self.kind == "limit":
            return f"limit(tol={self.tol:g}, i_max={self.i_max})"
        idx = "exact" if self.index is None else f"i={self.index}"
        return f"{self.kind}({idx})"


@dataclass(frozen=True)
class DecoupledSolution:
    """The decoupling quintuple on a grid, plus its provenance."""

    P1: MatrixPath
    P2: MatrixPath
    P3: MatrixPath
    phi1: MatrixPath
    phi2: MatrixPath
    source: SolutionSource

    @property
    def grid(self) -> TimeGrid:
        return self.P1.grid

    def at_node(self, j: int):
        return (self.P1.at_node(j), self.P2.at_node(j), self.P3.at_node(j),
                self.phi1.at_node(j)[:, 0], self.phi2.at_node(j)[:, 0])

    def value(self, t: float):
        return (self.P1.value(t), self.P2.value(t), self.P3.value(t),
                self.phi1.value(t)[:, 0], self.phi2.value(t)[:, 0])


def _terminal_p3(problem: FBLQProblem, terminal_index) -> np.ndarray:
    if terminal_index == EXACT:
        return np.zeros((problem.m, problem.m))
    i = int(terminal_index)
    if i < 1:
        raise DomainError("penalization index must be >= 1")
    return np.eye(problem.m) / i


# -- scalar fast path -------------------------------------------------------
#
# All-scalar instances dominate the verification workload; the fused float
# arithmetic below avoids per-op numpy dispatch and is guard-tested against
# the generic block path (test suite asserts bitwise-level agreement).

def _scalar_rhs(c, p1, p2, p3, f1, f2, t):
    (A1, A2, A3, A4, B1, B2, B3, B4, C1, C2, C3, C4, D1, D2, D3, D4) = c
    L1 = 1.0 - p2 * C2 + p3 * C4
    if L1 == 0.0:
        raise SingularCoefficientError("L1", time=t)
    W = p1 * C2 + p2 * C4
    L2 = 1.0 - p2 * C2 + W * p3 * C2 / L1
    if L2 == 0.0:
        raise SingularCoefficientError("L2", time=t)
    zx = p2 * A2 + p2 * B2 * p2 - p3 * C1 * p1
    zh = p2 * B2 * p3 + p3 * C3 + p3 * C1 * p2
    L3 = p1 * A2 + p1 * B2 * p2 + p2 * C1 * p1 + W * zx / L1
    L4 = p2 * C3 + p2 * C1 * p2 - p1 * B2 * p3 - W * zh / L1
    S1 = p1 + W * p2 / L1
    L5 = D4 + D2 * S1 * D2 / L2
    if L5 == 0.0:
        raise SingularCoefficientError("L5", time=t)
    L6 = -(D1 * p1 + D2 * L3 / L2) / L5
    L7 = -(D1 * p2 + D2 * L4 / L2 + D3) / L5
    L8 = (L3 + S1 * D2 * L6) / L2
    L9 = (L4 + S1 * D2 * L7) / L2
    L10 = (zx - p3 * C2 * L8 + p2 * D2 * L6) / L1
    L11 = (p2 * D2 * L7 - p3 * C2 * L9 - zh) / L1
    S2 = p1 * B2 * f2 + p2 * C1 * f1 + W * (p2 * B2 * f2 - p3 * C1 * f1) / L1
    S3 = -(D1 * f1 + D2 * S2 / L2) / L5
    S4 = (S1 * D2 * S3 + S2) / L2
    S5 = (p2 * D2 * S3 - p3 * C2 * S4 + p2 * B2 * f2 - p3 * C1 * f1) / L1
    dp1 = -(p1 * A1 + p1 * B1 * p2 + p1 * C1 * L10 + p1 * D1 * L6
            + p2 * B1 * p1 + p2 * B2 * L8 + p2 * B4 * p2 + A4
            + A1 * p1 + A2 * L8)
    dp2 = -(p2 * A1 + p2 * B1 * p2 + p2 * C1 * L10 + p2 * D1 * L6
            - p3 * B1 * p1 - p3 * B2 * L8 - p3 * B4 * p2
            + A3 + B3 * p2 + C3 * L10 + D3 * L6)
    dp3 = -(p2 * B1 * p3 - p2 * C1 * L11 - p2 * D1 * L7
            + p3 * B3 + p3 * B1 * p2 + p3 * B2 * L9 - p3 * B4 * p3
            + B3 * p3 - C3 * L11 - D3 * L7)
    fwd = B1 * f2 + C1 * S5 + D1 * S3
    adj = B1 * f1 + B2 * S4 + B4 * f2
    df1 = -(p1 * fwd + p2 * adj + A1 * f1 + A2 * S4)
    df2 = -(p2 * fwd - p3 * adj + B3 * f2 + C3 * S5 + D3 * S3)
    return dp1, dp2, dp3, df1, df2


def _scalar_coeffs(s: CoeffSnapshot) -> tuple[float, ...]:
    return tuple(float(getattr(s, nm)[0, 0]) for nm in COEFF_NAMES)


def _integrate_direct_scalar(problem: FBLQProblem, terminal_index,
                             grid: TimeGrid) -> DecoupledSolution:
    """odes.integrate_terminal's loop on floats: one lookup per step, at its midpoint."""
    N = grid.steps
    h = -grid.dt
    nodes = grid.nodes
    state = [float(problem.G[0, 0]), float(problem.F[0, 0]),
             float(_terminal_p3(problem, terminal_index)[0, 0]),
             0.0, float(problem.xi[0])]
    hist = np.empty((N + 1, 5))
    hist[N] = state
    limit = 1e12
    for j in range(N, 0, -1):
        t = nodes[j]
        t_half = t + 0.5 * h
        t_next = nodes[j - 1]
        y = state
        c = problem.derived(_scalar_coeffs, t_half)
        k1 = _scalar_rhs(c, *y, t)
        y2 = [y[q] + 0.5 * h * k1[q] for q in range(5)]
        k2 = _scalar_rhs(c, *y2, t_half)
        y3 = [y[q] + 0.5 * h * k2[q] for q in range(5)]
        k3 = _scalar_rhs(c, *y3, t_half)
        y4 = [y[q] + h * k3[q] for q in range(5)]
        k4 = _scalar_rhs(c, *y4, t_next)
        state = [y[q] + (h / 6.0) * (k1[q] + 2.0 * k2[q] + 2.0 * k3[q] + k4[q])
                 for q in range(5)]
        for val in state:
            if not math.isfinite(val) or abs(val) > limit:
                raise DivergedError(float(t), "scalar block system")
        hist[j - 1] = state
    index = None if terminal_index == EXACT else int(terminal_index)

    def path(col, tag="none"):
        return MatrixPath(grid, hist[:, col][:, np.newaxis, np.newaxis], tag)

    return DecoupledSolution(
        P1=path(0, "symmetric"), P2=path(1), P3=path(2, "symmetric"),
        phi1=path(3), phi2=path(4),
        source=SolutionSource("direct", index),
    )


def integrate_direct(problem: FBLQProblem, terminal_index, grid: TimeGrid):
    """Backward integration of the coupled (P1, P2, P3, phi1, phi2) system.

    ``terminal_index`` is a penalization index i >= 1 (P3(T) = I/i) or
    ``"exact"`` (P3(T) = 0; the block equations themselves are regular
    there, only the feedback form needs an invertible P3). A list or tuple
    of such indices returns a list of solutions, integrated as one batch
    (one RK4 pass over (B, d, d) stacks); a failure of any member aborts
    the whole batch. Scalar instances take the fused scalar path one index
    at a time.
    """
    n, m = problem.n, problem.m
    batched = isinstance(terminal_index, (list, tuple))
    indices = list(terminal_index) if batched else [terminal_index]
    if n == 1 and m == 1 and problem.k == 1:
        sols = [_integrate_direct_scalar(problem, i, grid) for i in indices]
        return sols if batched else sols[0]

    def rhs(t, s, blocks):
        P1, P2, P3 = blocks["P1"], blocks["P2"], blocks["P3"]
        phi1, phi2 = blocks["phi1"], blocks["phi2"]
        g = _gains(s, P1, P2, P3, phi1, phi2)
        dP1, dP2, dP3 = _p_rhs(s, P1, P2, P3, g)
        dphi1, dphi2 = _phi_rhs(s, P1, P2, P3, phi1, phi2, g)
        return {"P1": dP1, "P2": dP2, "P3": dP3, "phi1": dphi1, "phi2": dphi2}

    lead = (len(indices),) if batched else ()
    col = (1,) if batched else ()   # offsets are columns next to block stacks
    P3_T = np.array([_terminal_p3(problem, i) for i in indices]).reshape(*lead, m, m)
    system = OdeSystem(
        layout=(("P1", (n, n)), ("P2", (m, n)), ("P3", (m, m)),
                ("phi1", (n, *col)), ("phi2", (m, *col))),
        rhs=rhs,
        terminal={"P1": np.broadcast_to(problem.G, (*lead, n, n)),
                  "P2": np.broadcast_to(problem.F, (*lead, m, n)),
                  "P3": P3_T,
                  "phi1": np.zeros((*lead, n, *col)),
                  "phi2": np.broadcast_to(problem.xi.reshape(m, *col), (*lead, m, *col))},
        coefficients=problem.snapshot,
        symmetric=frozenset({"P1", "P3"}),
    )
    paths = integrate_terminal(system, grid)
    sols = [DecoupledSolution(
        P1=p["P1"], P2=p["P2"], P3=p["P3"], phi1=p["phi1"], phi2=p["phi2"],
        source=SolutionSource("direct", None if i == EXACT else int(i)),
    ) for i, p in zip(indices, paths if batched else [paths])]
    return sols if batched else sols[0]


def direct_solver(problem: FBLQProblem, indices, grid: TimeGrid):
    """``solve(index)`` for a sweep over ``indices``, batched where it can be.

    Generic instances integrate every index in one batched call up front.
    If any member fails, or the instance is scalar, each index is solved on
    its own when first asked for, so an index the caller never consumes
    never raises and a consumed one raises the single-index error.
    """
    cache: dict = {}
    indices = list(dict.fromkeys(indices))
    if len(indices) > 1 and (problem.n, problem.m, problem.k) != (1, 1, 1):
        try:
            # a failing member may overflow before it is caught; the lazy
            # re-solve then reports it as a single solve would
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                cache = dict(zip(indices, integrate_direct(problem, indices, grid)))
        except FBLQError:
            cache = {}

    def solve(index) -> DecoupledSolution:
        if index not in cache:
            cache[index] = integrate_direct(problem, index, grid)
        return cache[index]
    return solve


def check_transpose_consistency(problem: FBLQProblem, grid: TimeGrid,
                                terminal_index) -> float:
    """Integrate the transposed middle-block equation independently and
    return the maximal nodewise deviation from the primary block's transpose.

    The two equations are algebraically transposes of each other, so the
    deviation measures floating-point noise plus any formula inconsistency.
    """
    n, m = problem.n, problem.m

    def rhs(t, s, blocks):
        P1, P2, P3, Q = blocks["P1"], blocks["P2"], blocks["P3"], blocks["P2T"]
        g = _gains(s, P1, P2, P3)
        dP1, dP2, dP3 = _p_rhs(s, P1, P2, P3, g)
        return {"P1": dP1, "P2": dP2, "P3": dP3,
                "P2T": _p2t_rhs(s, P1, P3, Q, g)}

    system = OdeSystem(
        layout=(("P1", (n, n)), ("P2", (m, n)), ("P3", (m, m)), ("P2T", (n, m))),
        rhs=rhs,
        terminal={"P1": problem.G, "P2": problem.F,
                  "P3": _terminal_p3(problem, terminal_index),
                  "P2T": problem.F.T},
        coefficients=problem.snapshot,
        symmetric=frozenset({"P1", "P3"}),
    )
    paths = integrate_terminal(system, grid)
    dev = paths["P2T"].values - paths["P2"].values.transpose(0, 2, 1)
    return float(np.max(np.abs(dev)))


# ---------------------------------------------------------------------------
# transform route
# ---------------------------------------------------------------------------

def transform_from_riccati(sol: RiccatiSolution, psi: MatrixPath) -> DecoupledSolution:
    """Map the penalized augmented Riccati path onto the decoupling blocks.

    Nodewise: P1 = Pt1 - Pt2' Pt3^-1 Pt2, P2 = -Pt3^-1 Pt2, P3 = Pt3^-1, and
    from the offset path psi = Pt phi~ of solve_offset_tilde,
    phi1 = -psi1 - P2' psi2 and phi2 = P3 psi2 (no inverse of Pt or P1).
    """
    n = sol.n
    grid = sol.Ptilde.grid
    if psi.values.shape[0] != grid.steps + 1:
        raise DomainError("offset path must share the Riccati grid")
    Pt = sol.Ptilde.values
    Pt1, Pt2, Pt3 = Pt[:, :n, :n], Pt[:, n:, :n], Pt[:, n:, n:]
    Pt3_inv, _ = node_inverse(Pt3, "P3_tilde", grid.nodes)
    P1v = sym(Pt1 - Pt2.mT @ Pt3_inv @ Pt2)
    P2v = -Pt3_inv @ Pt2
    P3v = sym(Pt3_inv)
    psi1, psi2 = psi.values[:, :n], psi.values[:, n:]
    return DecoupledSolution(
        P1=MatrixPath(grid, P1v, "symmetric"),
        P2=MatrixPath(grid, P2v),
        P3=MatrixPath(grid, P3v, "symmetric"),
        phi1=MatrixPath(grid, -P2v.mT @ psi2 - psi1),   # +0.0, not -0.0, where psi = 0
        phi2=MatrixPath(grid, P3v @ psi2),
        source=SolutionSource("transformed", sol.i),
    )


# ---------------------------------------------------------------------------
# penalization limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitDiagnostics:
    """What the penalization sweep measured along the way.

    ``doubling_diffs[k]`` compares schedule iterates k and k+1 after removing
    each iterate's known terminal penalization offset I/i from its P3 path
    (the raw offset difference decays only like 1/i and would mask actual
    convergence). ``consecutive_diffs[k]`` is the distance between the
    iterates at index schedule[k] and schedule[k]+1, the quantity whose decay
    the penalization theory controls at second order; the rate exponent is
    fitted on its trailing half where the sequence is in its asymptotic
    regime. ``limit_distance`` measures the last iterate against the returned
    exact-terminal limit object.
    """

    schedule: tuple[int, ...]
    doubling_diffs: tuple[float, ...]
    consecutive_diffs: tuple[float, ...]
    rate_exponent: float | None
    converged: bool
    limit_distance: float
    p1_bound: float                    # max |P1_i| seen along the sweep
    p2_bound: float                    # max |P2_i| seen along the sweep
    p3_min_eig: float                  # most negative eigenvalue of any P3_i
    gain_cond_bound: float             # worst condition of L1/L2/L5 over 33 nodes
    iterates: tuple = ()               # (index, DecoupledSolution) pairs


def _solution_diff(a: DecoupledSolution, b: DecoupledSolution,
                   debias: tuple[int | None, int | None] = (None, None)) -> float:
    """max over nodes of |dP1|_F + |dP2|_F + |dP3|_F.

    ``debias`` optionally carries the penalization indices of the two
    solutions; the known terminal offset I/i is then subtracted from each P3
    path before comparing.
    """
    per_node = 0.0
    m = a.P3.shape[0]
    eye = np.eye(m)
    for which, (pa, pb) in enumerate(((a.P1, b.P1), (a.P2, b.P2), (a.P3, b.P3))):
        va, vb = pa.values, pb.values
        if which == 2:
            if debias[0]:
                va = va - eye / debias[0]
            if debias[1]:
                vb = vb - eye / debias[1]
        d = va - vb
        per_node = per_node + np.sqrt(np.sum(d * d, axis=(1, 2)))
    return float(np.max(per_node))


def gain_condition_trace(problem: FBLQProblem, sol: DecoupledSolution,
                         samples: int) -> np.ndarray:
    """Rows (t, cond L1, cond L2, cond L5) at ``samples`` evenly spaced nodes.

    The sampled nodes are evaluated as one node stack. The three inverses
    depend on the blocks only, so the offsets are left out of the gain
    evaluation.
    """
    idx = np.unique(np.linspace(0, sol.grid.steps, samples).astype(int))
    times = sol.grid.nodes[idx]
    try:
        g = _gains(problem.snapshot(times), sol.P1.values[idx], sol.P2.values[idx],
                   sol.P3.values[idx])
    except SingularCoefficientError as err:
        raise err.at_node(times) from None
    return np.column_stack([times, g.cond_L1, g.cond_L2, g.cond_L5])


def fit_rate_exponent(indices, diffs) -> float | None:
    """Least-squares slope of log(diff) against log(i).

    The fit uses the trailing half of the points (at least two); the leading
    penalization indices sit outside the asymptotic regime and would bias
    the measured rate.
    """
    pts = [(i, d) for i, d in zip(indices, diffs) if d > 0.0]
    if len(pts) < 2:
        return None
    pts = pts[max(len(pts) - max(len(pts) // 2, 2), 0):]
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def iterate_limit(problem: FBLQProblem, grid: TimeGrid, schedule=None,
                  tol: float = DEFAULT_LIMIT_TOL, method: str = "direct",
                  measure_rate: bool = True):
    """Penalization sweep around the exact-terminal limit solve.

    Runs per-index solves along the geometric ``schedule`` ("direct"
    integrates the block system with terminal P3 = I/i, "riccati" solves the
    augmented problem and transforms), recording monotonicity and
    convergence diagnostics, and returns ``(solution, diagnostics)``.

    With "direct" on a generic instance the whole schedule, its i+1
    companions and the exact-terminal solve are integrated up front as one
    batch; the comparison loop then runs over the ready iterates and
    truncates at the first converged pair, exactly as a one-index-at-a-time
    sweep would. If any batch member fails, the sweep solves one index at a
    time instead, so only a consumed index can raise (see direct_solver).

    The returned solution is the exact-terminal integration (P3(T) = 0): the
    block equations are regular there and every finite-index iterate carries
    an O(1/i) offset throughout the horizon, so relabeling an iterate cannot
    reach path tolerances that the exact solve meets directly. The sweep
    stops early when consecutive schedule iterates agree within ``tol`` after
    removing the known I/i terminal offsets; exhausting the schedule above
    tolerance is reported through ``diagnostics.converged`` rather than as an
    error, with the distances retained for inspection.
    """
    schedule = tuple(int(i) for i in (schedule or DEFAULT_SCHEDULE))
    if any(i < 1 for i in schedule) or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("schedule must be strictly increasing positive indices")
    if method not in ("direct", "riccati"):
        raise DomainError(f"unknown limit method {method!r}")

    companions = [i + 1 for i in schedule] if measure_rate else []
    direct = direct_solver(
        problem, [*schedule, *companions, EXACT] if method == "direct" else [EXACT], grid)
    if method == "direct":
        solve_one = direct
    else:
        cache: dict[int, DecoupledSolution] = {}

        def solve_one(i: int) -> DecoupledSolution:
            if i not in cache:
                cache[i] = transform_from_riccati(*solve_offset_tilde(problem, i, grid))
            return cache[i]

    iterates: list[tuple[int, DecoupledSolution]] = []
    doubling: list[float] = []
    consecutive: list[float] = []
    p2_bound = p1_bound = 0.0
    p3_min = np.inf
    cond_bound = 0.0
    converged = False
    prev: tuple[int, DecoupledSolution] | None = None
    for i in schedule:
        cur = solve_one(i)
        iterates.append((i, cur))
        p2_bound = max(p2_bound, float(np.max(np.abs(cur.P2.values))))
        p1_bound = max(p1_bound, float(np.max(np.abs(cur.P1.values))))
        p3_min = min(p3_min, float(min_eig_sym(cur.P3.values).min()))
        conds = gain_condition_trace(problem, cur, 33)[:, 1:]
        cond_bound = max(cond_bound, float(conds.max()))
        if measure_rate:
            consecutive.append(_solution_diff(cur, solve_one(i + 1)))
        if prev is not None:
            doubling.append(_solution_diff(prev[1], cur, debias=(prev[0], i)))
            if doubling[-1] < tol:
                converged = True
                break
        prev = (i, cur)

    used = tuple(i for i, _ in iterates)
    rate = fit_rate_exponent(used[:len(consecutive)], consecutive)
    source = SolutionSource("limit", index=used[-1], tol=tol, i_max=schedule[-1])
    limit_sol = replace(direct(EXACT), source=source)
    diagnostics = LimitDiagnostics(
        schedule=used, doubling_diffs=tuple(doubling),
        consecutive_diffs=tuple(consecutive), rate_exponent=rate,
        converged=converged,
        limit_distance=_solution_diff(iterates[-1][1], limit_sol),
        p1_bound=p1_bound, p2_bound=p2_bound,
        p3_min_eig=float(p3_min), gain_cond_bound=cond_bound,
        iterates=tuple(iterates),
    )
    return limit_sol, diagnostics


# ---------------------------------------------------------------------------
# (X, h)-coordinate matrix ODE (strictly positive control weight)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianBlocks:
    """Coefficients of the Hamiltonian flow in stacked (X, h) coordinates."""

    A1: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    C2: np.ndarray
    A3: np.ndarray
    B3: np.ndarray
    C3: np.ndarray


def hamiltonian_blocks(problem: FBLQProblem, t) -> HamiltonianBlocks:
    """The blocks at ``t`` (stacked over an array of times), assembled once
    per coefficient piece when first asked for; a singular D4 raises then."""
    return problem.derived(_hamiltonian, t)


def _hamiltonian(s: CoeffSnapshot) -> HamiltonianBlocks:
    n, m = s.A1.shape[0], s.B3.shape[0]
    D4_inv, _ = gated_inverse(s.D4, "D4")
    zmn = np.zeros((m, n))
    znm = np.zeros((n, m))
    blocks = dict(   # read-only: one object serves every time in the piece
        A1=np.block([[s.A1, -s.D1 @ D4_inv @ s.D3.T], [zmn, s.B3.T]]),
        B1=np.block([[-s.D1 @ D4_inv @ s.D1.T, s.B1], [s.B1.T, s.B4]]),
        C1=np.block([[-s.D1 @ D4_inv @ s.D2.T, s.C1], [s.B2.T, np.zeros((m, m))]]),
        A2=np.block([[s.A2, -s.D2 @ D4_inv @ s.D3.T], [zmn, s.C3.T]]),
        B2=np.block([[-s.D2 @ D4_inv @ s.D1.T, s.B2], [s.C1.T, np.zeros((m, m))]]),
        C2=np.block([[-s.D2 @ D4_inv @ s.D2.T, s.C2], [s.C2.T, s.C4]]),
        A3=np.block([[s.A4, s.A3.T], [s.A3, -s.D3 @ D4_inv @ s.D3.T]]),
        B3=np.block([[s.A1.T, znm], [-s.D3 @ D4_inv @ s.D1.T, s.B3]]),
        C3=np.block([[s.A2.T, znm], [-s.D3 @ D4_inv @ s.D2.T, s.C3]]),
    )
    return HamiltonianBlocks(**{name: frozen(block) for name, block in blocks.items()})


@dataclass(frozen=True)
class QSolution:
    """Decoupling matrix in (X, h) coordinates, with derived gain blocks.

    The stored bottom-right block of Q is the negated one (convention of the
    affine map Y = Q3 X - Q4 h + phi2), so ``q4_values`` negates it back.
    ``K`` is the diffusion-recovery matrix, ``J`` the offset mixing block and
    ``Iblk`` the stored inverse of (I - Q C2-block).
    """

    n: int
    m: int
    Q: MatrixPath
    K: MatrixPath
    J: MatrixPath
    Iblk: MatrixPath
    phi: MatrixPath

    @property
    def grid(self) -> TimeGrid:
        return self.Q.grid

    def q1_values(self) -> np.ndarray:
        return self.Q.values[:, :self.n, :self.n]

    def q2_values(self) -> np.ndarray:
        return self.Q.values[:, :self.n, self.n:]

    def q3_values(self) -> np.ndarray:
        return self.Q.values[:, self.n:, :self.n]

    def q4_values(self) -> np.ndarray:
        return -self.Q.values[:, self.n:, self.n:]

    def phi1_values(self) -> np.ndarray:
        return self.phi.values[:, :self.n, 0]

    def phi2_values(self) -> np.ndarray:
        return self.phi.values[:, self.n:, 0]


def solve_q_equation(problem: FBLQProblem, grid: TimeGrid) -> QSolution:
    """Integrate the (X, h)-coordinate decoupling ODE and its offset.

    Requires symmetric weights and the strict control-weight conditions
    (C4 semidefinite, D4 definite: the blocks involve the inverse control
    weight). State-weight positivity (G, H, A4, B4) belongs to the
    optimality theory, not to this equation's well-posedness; backward-
    dominated instances with G = 0 are legitimate inputs here.
    """
    from .model import LEVEL_POSITIVE
    report = validate(problem, LEVEL_STRICT)
    blocking = [c for c in report.failures() if c.assumption != LEVEL_POSITIVE]
    if blocking:
        failing = ", ".join(c.subject for c in blocking)
        raise PreconditionError(
            f"control-weight validation failed ({failing})")
    n, m = problem.n, problem.m
    d = n + m

    def kji(hb, Q):
        """K, J and I = (I - Q C2)^-1, for one stage or for a node stack."""
        M_inv, _ = gated_inverse(np.eye(d) - Q @ hb.C2, "I - Q*C2_blocks")
        return M_inv @ (Q @ hb.A2 + Q @ hb.B2 @ Q), M_inv @ (Q @ hb.B2), M_inv

    def rhs(t, hb, blocks):
        Q, phi = blocks["Q"], blocks["phi"]
        K, J, _ = kji(hb, Q)
        dQ = -(Q @ hb.A1 + Q @ hb.B1 @ Q + Q @ hb.C1 @ K + hb.A3
               + hb.B3 @ Q + hb.C3 @ K)
        drift = Q @ hb.B1 + hb.B3 + (Q @ hb.C1 + hb.C3) @ J
        return {"Q": dQ, "phi": -(drift @ phi)}

    F_tilde = np.block([[problem.G, problem.F.T], [problem.F, np.zeros((m, m))]])
    system = OdeSystem(
        layout=(("Q", (d, d)), ("phi", (d,))),
        rhs=rhs,
        terminal={"Q": F_tilde, "phi": np.concatenate([np.zeros(n), problem.xi])},
        coefficients=lambda t: hamiltonian_blocks(problem, t),
    )
    paths = integrate_terminal(system, grid)
    try:
        K, J, Iblk = kji(hamiltonian_blocks(problem, grid.nodes), paths["Q"].values)
    except SingularCoefficientError as err:
        raise err.at_node(grid.nodes) from None
    return QSolution(
        n=n, m=m, Q=paths["Q"], K=MatrixPath(grid, K), J=MatrixPath(grid, J),
        Iblk=MatrixPath(grid, Iblk), phi=paths["phi"],
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityEntry:
    name: str
    residual: float
    counted: bool = True
    note: str = ""


@dataclass(frozen=True)
class IdentityReport:
    t: float
    i: int
    entries: tuple[IdentityEntry, ...]

    @property
    def max_counted_residual(self) -> float:
        vals = [e.residual for e in self.entries if e.counted]
        return max(vals) if vals else 0.0

    def entry(self, name: str) -> IdentityEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _residual(lhs, rhs) -> float:
    return float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))


def identity_suite(problem: FBLQProblem, sol_i: DecoupledSolution,
                   riccati_i: RiccatiSolution, t: float) -> IdentityReport:
    """Evaluate the cross-route block identities at the grid node nearest t.

    Requires ``sol_i`` and ``riccati_i`` to carry the same penalization index
    on the same grid. All counted identities are exact algebra, so residuals
    measure floating-point noise plus any inconsistency between the solved
    paths. One additional entry compares the control's h-gain expression
    against the (n, n)-shaped state gain instead; that pairing is
    dimensionally inconsistent except at scalar sizes and is reported as an
    uncounted flag (it documents a known label collision in the relation
    family) rather than silently reinterpreted.
    """
    if sol_i.source.index != riccati_i.i:
        raise DomainError("solutions carry different penalization indices")
    if sol_i.grid.steps != riccati_i.Ptilde.grid.steps:
        raise DomainError("solutions must share one grid")
    grid = sol_i.grid
    j = int(round(t / grid.dt))
    j = min(max(j, 0), grid.steps)
    t_node = float(grid.nodes[j])
    s = problem.snapshot(t_node)
    n, m = problem.n, problem.m

    P1, P2, P3, phi1, phi2 = sol_i.at_node(j)
    Pt = riccati_i.Ptilde.at_node(j)
    Pt1, Pt2, Pt3 = Pt[:n, :n], Pt[n:, :n], Pt[n:, n:]
    g = _gains(s, P1, P2, P3, phi1, phi2)
    cb = s.C2.T @ Pt1 + Pt2                       # m x n
    D = s.C4 + cb @ s.C2 + s.C2.T @ Pt2.T + Pt3   # m x m
    D_inv, _ = gated_inverse(D, "D_blocks")
    # blocks of the inverse effective control weight
    core = s.D4 + s.D2.T @ Pt1 @ s.D2 - s.D2.T @ cb.T @ D_inv @ cb @ s.D2
    a11, _ = gated_inverse(core, "a11_core")
    a21 = -D_inv @ cb @ s.D2 @ a11
    a22 = D_inv + D_inv @ cb @ s.D2 @ a11 @ s.D2.T @ cb.T @ D_inv
    P1_inv, _ = gated_inverse(P1, "P1")
    P3_inv, _ = gated_inverse(P3, "P3")
    Pt3_inv, _ = gated_inverse(Pt3, "P3_tilde")
    # blocks of the transposed mixed weight
    a = Pt1 @ s.D1 - Pt2.T @ s.D3 + s.A2.T @ Pt1 @ s.D2
    b = Pt1 @ s.C1 - Pt2.T @ s.C3 + s.A2.T @ Pt1 @ s.C2 + s.A2.T @ Pt2.T
    c = Pt2 @ s.D1 - Pt3 @ s.D3 + s.B2.T @ Pt1 @ s.D2
    d = Pt2 @ s.C1 - Pt3 @ s.C3 + s.B2.T @ Pt1 @ s.C2 + s.B2.T @ Pt2.T
    # blocks of B'P (*_t) and D'P (*_b) for the augmented problem; d_b carries
    # the full bottom-right entry C2'Pt2' + Pt3 (the direct product block;
    # dropping Pt3 breaks the C2-recovery identity)
    a_t = s.D1.T @ Pt1 - s.D3.T @ Pt2
    b_t = s.D1.T @ Pt2.T - s.D3.T @ Pt3
    c_t = s.C1.T @ Pt1 - s.C3.T @ Pt2
    d_t = s.C1.T @ Pt2.T - s.C3.T @ Pt3
    a_b = s.D2.T @ Pt1
    b_b = s.D2.T @ Pt2.T
    d_b = s.C2.T @ Pt2.T + Pt3
    W = P1 @ s.C2 + P2.T @ s.C4  # the gain family's recurring mixed weight
    entries: list[IdentityEntry] = []

    def add(name, lhs, rhs, counted=True, note=""):
        entries.append(IdentityEntry(name, _residual(lhs, rhs), counted, note))

    # inverse-map consistency quantities
    phit1 = -P1_inv @ phi1
    phit2 = phi2 - P2 @ (P1_inv @ phi1)

    add("mixed-weight/L1-complement", P3 @ s.C2.T @ cb.T, P3 @ D - g.L1)
    add("mixed-weight/inverse-swap", cb.T @ D_inv, g.L2_inv @ cb.T @ g.L1_inv @ P3)
    add("mixed-weight/d-reduction", P3 @ d, -(P2 @ s.C1 + s.C3) + P3 @ s.B2.T @ cb.T)
    add("effective-weight/S1", g.L2_inv @ g.S1, Pt1 - cb.T @ D_inv @ cb)
    add("effective-weight/control-inverse", a11, g.L5_inv)
    add("effective-weight/state-gain", g.L2_inv @ g.L3,
        (Pt1 - cb.T @ D_inv @ cb) @ (s.A2 + s.B2 @ P2)
        - cb.T @ D_inv @ s.C1.T @ P1)
    add("effective-weight/adjoint-gain", g.L2_inv @ g.L4,
        cb.T @ D_inv @ d.T @ Pt3_inv - Pt1 @ s.B2 @ Pt3_inv)
    add("mixed-weight/diffusion-column", b.T + d.T @ P2, cb @ (s.A2 + s.B2 @ P2) + s.C1.T @ P1)
    add("mixed-weight/control-column", a.T + c.T @ P2,
        s.D1.T @ P1 + s.D2.T @ Pt1 @ (s.A2 + s.B2 @ P2))
    add("block-recovery/D2", (a_b + b_b @ P2) @ P1_inv, s.D2.T)
    add("block-recovery/C2", (cb + d_b @ P2) @ P1_inv, s.C2.T)
    add("block-recovery/D1", (a_t + b_t @ P2) @ P1_inv, s.D1.T)
    add("block-recovery/C1", (c_t + d_t @ P2) @ P1_inv, s.C1.T)
    add("block-recovery/stacked-mixed", g.L1_inv @ (P2 - P3 @ s.C2.T @ g.L2_inv @ g.S1), -D_inv @ cb)
    add("block-recovery/stacked-mixed-T",
        g.L2_inv @ (P2.T - W @ g.L1_inv @ P3),
        -cb.T @ D_inv)
    add("block-recovery/P2-ratio", (Pt1 @ s.C2 + Pt2.T - P1 @ s.C2 - P2.T @ s.C4) @ g.L1_inv,
        -P2.T @ P3_inv)
    add("block-recovery/D-L1-P3",
        np.eye(m) - s.C2.T @ P2.T
        + s.C2.T @ W @ g.L1_inv @ P3,
        D @ g.L1_inv @ P3)

    gain_u_X = -(a11 @ (a.T + c.T @ P2) + a21.T @ (b.T + d.T @ P2))
    gain_u_h = (a11 @ c.T + a21.T @ d.T) @ P3
    gain_z_X = -(a21 @ (a.T + c.T @ P2) + a22 @ (b.T + d.T @ P2))
    gain_z_h = (a21 @ c.T + a22 @ d.T) @ P3
    add("block-gain/L6", g.L6, gain_u_X)
    add("block-gain/u-h", g.L7, gain_u_h)
    add("block-gain/L10", g.L10, gain_z_X)
    add("block-gain/L11", g.L11, gain_z_h)
    if g.L3.shape == gain_u_h.shape:
        add("block-gain/u-h-as-labeled", g.L3, gain_u_h, counted=False,
            note="labeled with the (n,n) state gain; reported, not counted")
    else:
        entries.append(IdentityEntry(
            "block-gain/u-h-as-labeled", math.nan, counted=False,
            note="shape mismatch against the (n,n) state gain; skipped"))

    mc = m_coefficients(problem, Pt, t_node)
    M1_inv, _ = gated_inverse(mc.M1, "M1")
    lhs_gain = M1_inv @ mc.M2
    rhs_gain = -np.block([
        [g.L6 + g.L7 @ P3_inv @ P2, -g.L7 @ P3_inv],
        [g.L10 + g.L11 @ P3_inv @ P2, -g.L11 @ P3_inv],
    ])
    add("control-map/gain", lhs_gain, rhs_gain)
    phit = np.concatenate([phit1, phit2])
    lhs_off = M1_inv @ (mc.M3 @ phit)
    rhs_off = np.concatenate([
        g.L7 @ (P3_inv @ phi2) + g.S3,
        g.L11 @ (P3_inv @ phi2) + g.S5,
    ])
    add("control-map/offset", lhs_off, rhs_off)

    # bracket orientation fixed by the offset row of control-map: the
    # B'P-blocks act on the augmented offset, minus the transposed mixed
    # weight acting on phi2 (c' = b_t + a_b B2, d' = d_t + c_b B2)
    bracket_u = (a_t @ phit1 + b_t @ phit2 - b_t @ phi2
                 - a_b @ (s.B2 @ phi2))
    bracket_z = (c_t @ phit1 + d_t @ phit2 - d_t @ phi2
                 - cb @ (s.B2 @ phi2))
    add("offset-gain/S3", g.S3, a11 @ bracket_u + a21.T @ bracket_z)
    add("offset-gain/S5", g.S5, a21 @ bracket_u + a22 @ bracket_z)

    lambda1 = -(s.D1.T @ phi1 + s.D2.T @ (g.L2_inv @ g.S2))
    lambda2 = -(s.D1.T @ P2.T + s.D2.T @ g.L2_inv @ g.L4 + s.D3.T)
    add("offset-gain/S3-lambda", g.S3, a11 @ lambda1)
    add("offset-gain/L7-lambda", g.L7, a11 @ lambda2)
    beta5 = g.L2_inv @ (P2.T @ s.C1.T - W @ g.L1_inv @ P3 @ s.C1.T)
    beta6 = g.L2_inv @ (P1 @ s.B2 + W @ g.L1_inv @ P2 @ s.B2)
    add("offset-gain/S2-beta", g.L2_inv @ g.S2, beta5 @ phi1 + beta6 @ phi2)

    m5_direct = m5_from_terms(augmented(problem, t_node), Pt, phit[:, np.newaxis], M1_inv,
                              mc.M2, mc.M3)
    dP1, _, dP3 = _p_rhs(s, P1, P2, P3, g)
    gamma1, gamma2 = (-x for x in _phi_rhs(s, P1, P2, P3, phi1, phi2, g))
    u_off = g.S3 + g.L7 @ (P3_inv @ phi2)
    z_off = g.S5 + g.L11 @ (P3_inv @ phi2)
    m5_blocks = (
        -2.0 * gamma1 @ (P1_inv @ phi1)
        - phi1 @ (P1_inv @ dP1 @ P1_inv @ phi1)
        - 2.0 * gamma2 @ (P3_inv @ phi2)
        - phi2 @ (P3_inv @ dP3 @ P3_inv @ phi2)
        + (phi1 @ s.D1 + phi2 @ P3_inv @ (P2 @ s.D1 + s.D3)) @ u_off
        + (phi1 @ s.C1 + phi2 @ P3_inv @ (P2 @ s.C1 + s.C3)) @ z_off
    )
    add("cost-offset/m5", np.array([m5_direct]), np.array([float(m5_blocks)]))

    return IdentityReport(t=t_node, i=riccati_i.i, entries=tuple(entries))
