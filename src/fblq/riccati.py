"""Augmented forward LQ problem and the penalized auxiliary Riccati flow.

Treating the backward pair (Y, Z) as extra forward state and control turns
the coupled problem into a standard forward LQ problem in the stacked state
(X, Y) with stacked control (u, Z). Its Riccati solution with the penalized
terminal weight (index i) is the workhorse behind the decoupling blocks: the
Schur-type transform in ``decouple.transform_from_riccati`` maps it onto the
(P1, P2, P3) system.

The Riccati flow carries the running side condition M1 = R + D'PD > 0; the
solve aborts the first time (going backward) its smallest eigenvalue drops
below M1_MARGIN.

The augmented offset phi~ (terminal (0, xi)) enters the transform only
through psi = P phi~, which obeys psi' = M2' M1^-1 B' psi - A' psi with
psi(T) = P(T)(0, xi): the P' phi~ terms cancel, so psi rides along in the
Riccati pass and no stage inverts P, which is singular at T when G = F = 0.
The transform then reads phi1 = -psi1 - P2' psi2 and phi2 = P3 psi2.

The augmented blocks are a view of the problem, reached only through
augmented(problem, t) and built once per coefficient piece (FBLQProblem.derived);
the completion-of-squares terms take single matrices or node stacks alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolatedError, DomainError
from .linalg import frozen, gated_inverse, min_eig_sym, sym
from .model import FBLQProblem
from .odes import MatrixPath, OdeSystem, TimeGrid, integrate_terminal

M1_MARGIN = 1e-8


@dataclass(frozen=True)
class AugSnapshot:
    """Block matrices of the augmented LQ problem at one time (or stacked
    over the nodes of a grid)."""

    A: np.ndarray   # (n+m, n+m) drift
    B: np.ndarray   # (n+m, k+m) control-to-drift
    C: np.ndarray   # (n+m, n+m) state-to-diffusion
    D: np.ndarray   # (n+m, k+m) control-to-diffusion
    Q: np.ndarray   # (n+m, n+m) state weight
    R: np.ndarray   # (k+m, k+m) control weight


def augmented(problem: FBLQProblem, t) -> AugSnapshot:
    """Augmented blocks at ``t``; an array of times stacks one matrix per time.

    The blocks are assembled once per coefficient piece of the problem and
    shared by every later call on that piece.
    """
    return problem.derived(_assemble, t)


def _assemble(s) -> AugSnapshot:
    n, m, k = s.A1.shape[0], s.B3.shape[0], s.D4.shape[0]
    A = np.block([[s.A1, s.B1], [-s.A3, -s.B3]])
    B = np.block([[s.D1, s.C1], [-s.D3, -s.C3]])
    C = np.block([[s.A2, s.B2], [np.zeros((m, n)), np.zeros((m, m))]])
    D = np.block([[s.D2, s.C2], [np.zeros((m, k)), np.eye(m)]])
    Q = np.block([[s.A4, np.zeros((n, m))], [np.zeros((m, n)), s.B4]])
    R = np.block([[s.D4, np.zeros((k, m))], [np.zeros((m, k)), s.C4]])
    return AugSnapshot(*(frozen(x) for x in (A, B, C, D, Q, R)))


@dataclass(frozen=True)
class MCoefficients:
    """Completion-of-squares coefficients at one time for a given P."""

    M1: np.ndarray  # (k+m, k+m) symmetric effective control weight
    M2: np.ndarray  # (k+m, n+m)
    M3: np.ndarray  # (k+m, n+m)
    M4: np.ndarray  # (k+m, n+m)


def _m_terms(s: AugSnapshot, P: np.ndarray):
    """(M1, M2, M3, M4) of the completed square, as plain arrays.

    Every completion-of-squares quantity (the Riccati derivative, the offset
    drift, the cost term M5 and the feedback) starts from these; the hot
    right-hand sides take them without the MCoefficients wrapper. A node
    stack of snapshots with a stack of P gives stacks.
    """
    DtP = s.D.mT @ P
    M3 = s.B.mT @ P
    return sym(s.R + DtP @ s.D), M3 + DtP @ s.C, M3, DtP


def m_coefficients(problem: FBLQProblem, Ptilde_at_t: np.ndarray, t) -> MCoefficients:
    """M1 = R + D'PD (symmetrized), M2 = B'P + D'PC, M3 = B'P, M4 = D'P; with
    an array of times ``t`` and one P per time, every field is a node stack."""
    return MCoefficients(*_m_terms(augmented(problem, t), np.asarray(Ptilde_at_t, dtype=float)))


def penalized_terminal(problem: FBLQProblem, i: int) -> np.ndarray:
    """Terminal weight [[G + i F'F, -i F'], [-i F, i I]] for index i."""
    F, G = problem.F, problem.G
    m = problem.m
    return np.block([[G + i * F.T @ F, -i * F.T], [-i * F, i * np.eye(m)]])


def _pdot(s: AugSnapshot, P: np.ndarray, M1_inv: np.ndarray, M2: np.ndarray) -> np.ndarray:
    """Riccati derivative -(PA + A'P + C'PC + Q - M2' M1^-1 M2)."""
    return -(P @ s.A + s.A.mT @ P + s.C.mT @ P @ s.C + s.Q - M2.mT @ M1_inv @ M2)


def _riccati_stage(s: AugSnapshot, t: float, P: np.ndarray):
    """(M1^-1, M2, Pdot) at one stage of the Riccati flow at time ``t``.

    The M1 side condition is checked before M1 is inverted, so a vanishing
    margin is reported as ConstraintViolatedError, not as a singular M1.
    """
    M1, M2, _, _ = _m_terms(s, P)
    low = min_eig_sym(M1)
    if low < M1_MARGIN:
        raise ConstraintViolatedError("M1 = R + D'PD", t, low)
    M1_inv, _ = gated_inverse(M1, "M1")
    return M1_inv, M2, _pdot(s, P, M1_inv, M2)


@dataclass(frozen=True)
class RiccatiSolution:
    """Penalized Riccati path for one index i.

    ``Ptilde`` is the symmetric (n+m) x (n+m) path; its blocks are exposed by
    block_paths(). ``m1_min_eig`` records the smallest eigenvalue of the
    effective control weight M1 along the grid.
    """

    i: int
    Ptilde: MatrixPath
    m1_min_eig: np.ndarray
    n: int
    m: int

    def block_paths(self) -> tuple[MatrixPath, MatrixPath, MatrixPath]:
        """Paths of the (n,n), (m,n) and (m,m) blocks of Ptilde."""
        n = self.n
        grid = self.Ptilde.grid
        vals = self.Ptilde.values
        P1t = MatrixPath(grid, 0.5 * (vals[:, :n, :n] + vals[:, :n, :n].transpose(0, 2, 1)),
                         "symmetric")
        P2t = MatrixPath(grid, vals[:, n:, :n])
        P3t = MatrixPath(grid, 0.5 * (vals[:, n:, n:] + vals[:, n:, n:].transpose(0, 2, 1)),
                         "symmetric")
        return P1t, P2t, P3t


def _riccati_paths(problem: FBLQProblem, i: int, grid: TimeGrid, layout, rhs, terminal):
    """Integrate a system whose block "P" is the penalized Riccati flow for
    index ``i``, next to the extra blocks of ``layout``, on the augmented
    blocks; returns (RiccatiSolution, every path by block name)."""
    if i < 1:
        raise DomainError("penalization index i must be >= 1")
    system = OdeSystem(
        layout=(("P", (problem.n + problem.m,) * 2), *layout),
        rhs=rhs,
        terminal={"P": penalized_terminal(problem, i), **terminal},
        coefficients=lambda t: augmented(problem, t),
        symmetric=frozenset({"P"}),
    )
    paths = integrate_terminal(system, grid)
    P = paths["P"]
    M1 = _m_terms(augmented(problem, grid.nodes), P.values)[0]
    sol = RiccatiSolution(i=i, Ptilde=P, m1_min_eig=frozen(min_eig_sym(M1)),
                          n=problem.n, m=problem.m)
    return sol, paths


def solve_auxiliary_riccati(problem: FBLQProblem, i: int, grid: TimeGrid) -> RiccatiSolution:
    """Integrate the penalized Riccati equation backward for index ``i``.

    Raises ConstraintViolatedError the first time min-eig(M1) < M1_MARGIN
    (this includes the terminal time itself) and DivergedError on blow-up.
    """
    return _riccati_paths(problem, i, grid, (),
                          lambda t, s, blocks: {"P": _riccati_stage(s, t, blocks["P"])[2]},
                          {})[0]


def solve_offset_tilde(problem: FBLQProblem, i: int,
                       grid: TimeGrid) -> tuple[RiccatiSolution, MatrixPath]:
    """The Riccati solve for index ``i`` with the offset carried along:
    returns (RiccatiSolution, path of psi = P phi~).

    With a deterministic terminal offset (0, xi) the offset BSDE has zero
    diffusion part, and psi obeys psi' = M2' M1^-1 B' psi - A' psi with
    psi(T) = P(T)(0, xi); no stage needs P^-1. No stage of P reads psi, so
    the P path is bit for bit that of solve_auxiliary_riccati.
    """
    def rhs(t, s, blocks):
        psi = blocks["psi"]
        M1_inv, M2, Pdot = _riccati_stage(s, t, blocks["P"])
        return {"P": Pdot, "psi": M2.mT @ (M1_inv @ (s.B.mT @ psi)) - s.A.mT @ psi}

    psi_T = penalized_terminal(problem, i) @ np.concatenate([np.zeros(problem.n), problem.xi])
    sol, paths = _riccati_paths(problem, i, grid, (("psi", (problem.n + problem.m,)),), rhs,
                                {"psi": psi_T})
    return sol, paths["psi"]


def _offset_drift(s: AugSnapshot, P: np.ndarray, phi: np.ndarray, M1_inv: np.ndarray,
                  M2: np.ndarray, M3: np.ndarray, Pdot: np.ndarray) -> np.ndarray:
    """P times the time derivative of the augmented offset (zero diffusion offset).

    Stationarity of the state-linear term in the completed square pins the
    offset drift to phi' = P^-1 (M2' M1^-1 M3 phi - A' P phi - Pdot phi),
    with Pdot taken from the Riccati right-hand side (never from differencing
    a stored path, which would cost two orders of accuracy).
    """
    return M2.mT @ (M1_inv @ (M3 @ phi)) - s.A.mT @ (P @ phi) - Pdot @ phi


def m5_from_terms(s: AugSnapshot, P: np.ndarray, phi: np.ndarray, M1_inv: np.ndarray,
                  M2: np.ndarray, M3: np.ndarray) -> np.ndarray:
    """Offset-quadratic term M5 of the optimal cost (zero diffusion offset),
    from completion terms the caller has already formed.

    The P derivative is the algebraic one of _pdot. ``phi`` is a (..., d, 1)
    column, one per member of a node stack; the result has shape (...).
    """
    Pdot = _pdot(s, P, M1_inv, M2)
    m3phi = M3 @ phi
    out = (2.0 * phi.mT @ _offset_drift(s, P, phi, M1_inv, M2, M3, Pdot)
           + phi.mT @ Pdot @ phi - m3phi.mT @ M1_inv @ m3phi)
    return out[..., 0, 0]
