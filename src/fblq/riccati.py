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
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolatedError, DomainError
from .linalg import frozen, gated_inverse, min_eig_sym, sym
from .model import FBLQProblem
from .odes import MatrixPath, OdeSystem, TimeGrid, integrate_terminal

M1_MARGIN = 1e-8
PTILDE_PD_TOL = 1e-10


@dataclass(frozen=True)
class AugSnapshot:
    """Block matrices of the augmented LQ problem at one time."""

    A: np.ndarray   # (n+m, n+m) drift
    B: np.ndarray   # (n+m, k+m) control-to-drift
    C: np.ndarray   # (n+m, n+m) state-to-diffusion
    D: np.ndarray   # (n+m, k+m) control-to-diffusion
    Q: np.ndarray   # (n+m, n+m) state weight
    R: np.ndarray   # (k+m, k+m) control weight


@dataclass(frozen=True)
class AugmentedLQ:
    """Augmented problem data; snapshots are cached per coefficient piece."""

    problem: FBLQProblem

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def m(self) -> int:
        return self.problem.m

    @property
    def k(self) -> int:
        return self.problem.k

    @property
    def state_dim(self) -> int:
        return self.problem.n + self.problem.m

    @property
    def control_dim(self) -> int:
        return self.problem.k + self.problem.m

    @cached_property
    def _pieces(self) -> tuple[AugSnapshot, ...]:
        return tuple(
            _assemble(self.problem, t) for t in self.problem.merged_breakpoints
        )

    def snapshot(self, t: float) -> AugSnapshot:
        bp = self.problem.merged_breakpoints
        return self._pieces[max(bisect.bisect_right(bp, t) - 1, 0)]


def _assemble(problem: FBLQProblem, t: float) -> AugSnapshot:
    s = problem.snapshot(t)
    n, m, k = problem.n, problem.m, problem.k
    A = np.block([[s.A1, s.B1], [-s.A3, -s.B3]])
    B = np.block([[s.D1, s.C1], [-s.D3, -s.C3]])
    C = np.block([[s.A2, s.B2], [np.zeros((m, n)), np.zeros((m, m))]])
    D = np.block([[s.D2, s.C2], [np.zeros((m, k)), np.eye(m)]])
    Q = np.block([[s.A4, np.zeros((n, m))], [np.zeros((m, n)), s.B4]])
    R = np.block([[s.D4, np.zeros((k, m))], [np.zeros((m, k)), s.C4]])
    return AugSnapshot(*(frozen(x) for x in (A, B, C, D, Q, R)))


def build_augmented(problem: FBLQProblem) -> AugmentedLQ:
    """Stacked-state/stacked-control reformulation of the problem."""
    return AugmentedLQ(problem)


@dataclass(frozen=True)
class MCoefficients:
    """Completion-of-squares coefficients at one time for a given P."""

    M1: np.ndarray  # (k+m, k+m) symmetric effective control weight
    M2: np.ndarray  # (k+m, n+m)
    M3: np.ndarray  # (k+m, n+m)
    M4: np.ndarray  # (k+m, n+m)


def _m_terms(s: AugSnapshot, P: np.ndarray):
    """(M1, M2, M3, M4) of the completed square at one snapshot, as plain arrays.

    Every completion-of-squares quantity (the Riccati derivative, the offset
    drift, the cost term M5 and the feedback) starts from these; the hot
    right-hand sides take them without the MCoefficients wrapper.
    """
    DtP = s.D.T @ P
    M3 = s.B.T @ P
    return sym(s.R + DtP @ s.D), M3 + DtP @ s.C, M3, DtP


def m_coefficients(aug: AugmentedLQ, Ptilde_at_t: np.ndarray, t: float) -> MCoefficients:
    """M1 = R + D'PD (symmetrized), M2 = B'P + D'PC, M3 = B'P, M4 = D'P."""
    return MCoefficients(*_m_terms(aug.snapshot(t), np.asarray(Ptilde_at_t, dtype=float)))


def penalized_terminal(problem: FBLQProblem, i: int) -> np.ndarray:
    """Terminal weight [[G + i F'F, -i F'], [-i F, i I]] for index i."""
    F, G = problem.F, problem.G
    m = problem.m
    return np.block([[G + i * F.T @ F, -i * F.T], [-i * F, i * np.eye(m)]])


def _pdot(s: AugSnapshot, P: np.ndarray, M1_inv: np.ndarray, M2: np.ndarray) -> np.ndarray:
    """Riccati derivative -(PA + A'P + C'PC + Q - M2' M1^-1 M2)."""
    return -(P @ s.A + s.A.T @ P + s.C.T @ P @ s.C + s.Q - M2.T @ M1_inv @ M2)


def _riccati_stage(aug: AugmentedLQ, t: float, P: np.ndarray):
    """(snapshot, M1^-1, M2, M3, Pdot) at one stage of the Riccati flow.

    The M1 side condition is checked before M1 is inverted, so a vanishing
    margin is reported as ConstraintViolatedError, not as a singular M1.
    """
    s = aug.snapshot(t)
    M1, M2, M3, _ = _m_terms(s, P)
    low = min_eig_sym(M1)
    if low < M1_MARGIN:
        raise ConstraintViolatedError("M1 = R + D'PD", t, low)
    M1_inv, _ = gated_inverse(M1, "M1")
    return s, M1_inv, M2, M3, _pdot(s, P, M1_inv, M2)


@dataclass(frozen=True)
class RiccatiSolution:
    """Penalized Riccati path for one index i.

    ``Ptilde`` is the symmetric (n+m) x (n+m) path; its blocks are exposed by
    block_paths(). ``m1_min_eig`` records the smallest eigenvalue of the
    effective control weight M1 along the grid; ``positive_definite`` states
    whether the path stayed uniformly positive definite.
    """

    i: int
    Ptilde: MatrixPath
    m1_min_eig: np.ndarray
    positive_definite: bool
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


def solve_auxiliary_riccati(aug: AugmentedLQ, problem: FBLQProblem, i: int,
                            grid: TimeGrid) -> RiccatiSolution:
    """Integrate the penalized Riccati equation backward for index ``i``.

    Raises ConstraintViolatedError the first time min-eig(M1) < M1_MARGIN
    (this includes the terminal time itself) and DivergedError on blow-up.
    """
    if i < 1:
        raise DomainError("penalization index i must be >= 1")
    terminal = penalized_terminal(problem, i)
    d = aug.state_dim
    system = OdeSystem(
        layout=(("P", (d, d)),),
        rhs=lambda t, blocks: {"P": _riccati_stage(aug, t, blocks["P"])[4]},
        terminal={"P": terminal},
        symmetric=frozenset({"P"}),
    )
    path = integrate_terminal(system, grid)["P"]
    m1_eigs = np.empty(grid.steps + 1)
    p_eigs = np.empty(grid.steps + 1)
    for j, t in enumerate(grid.nodes):
        mc = m_coefficients(aug, path.at_node(j), t)
        m1_eigs[j] = min_eig_sym(mc.M1)
        p_eigs[j] = min_eig_sym(path.at_node(j))
    return RiccatiSolution(
        i=i,
        Ptilde=path,
        m1_min_eig=frozen(m1_eigs),
        positive_definite=bool(np.all(p_eigs >= PTILDE_PD_TOL)),
        n=problem.n,
        m=problem.m,
    )


def _offset_drift(s: AugSnapshot, P: np.ndarray, phi: np.ndarray, M1_inv: np.ndarray,
                  M2: np.ndarray, M3: np.ndarray, Pdot: np.ndarray) -> np.ndarray:
    """P times the time derivative of the augmented offset (zero diffusion offset).

    Stationarity of the state-linear term in the completed square pins the
    offset drift to phi' = P^-1 (M2' M1^-1 M3 phi - A' P phi - Pdot phi),
    with Pdot taken from the Riccati right-hand side (never from differencing
    a stored path, which would cost two orders of accuracy).
    """
    return M2.T @ (M1_inv @ (M3 @ phi)) - s.A.T @ (P @ phi) - Pdot @ phi


def solve_offset_tilde(aug: AugmentedLQ, sol: RiccatiSolution, xi: np.ndarray,
                       grid: TimeGrid) -> MatrixPath:
    """Backward offset path for the augmented problem, terminal (0, xi).

    With a deterministic terminal offset the offset BSDE has zero diffusion
    part and reduces to an ODE. The Riccati path is co-integrated from its
    exact terminal so the offset drift sees stage-accurate values of P and
    its algebraic derivative.
    """
    d = aug.state_dim
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape != (aug.m,):
        raise DomainError(f"xi must have length {aug.m}")
    phi_T = np.concatenate([np.zeros(aug.n), xi])

    def rhs(t, blocks):
        P, phi = blocks["P"], blocks["phi"]
        s, M1_inv, M2, M3, Pdot = _riccati_stage(aug, t, P)
        P_inv, _ = gated_inverse(P, "P_tilde")
        return {"P": Pdot, "phi": P_inv @ _offset_drift(s, P, phi, M1_inv, M2, M3, Pdot)}

    system = OdeSystem(
        layout=(("P", (d, d)), ("phi", (d,))),
        rhs=rhs,
        terminal={"P": penalized_terminal(aug.problem, sol.i), "phi": phi_T},
        symmetric=frozenset({"P"}),
    )
    return integrate_terminal(system, grid)["phi"]


def m5_deterministic(aug: AugmentedLQ, t: float, Ptilde_at_t: np.ndarray,
                     phi_tilde_at_t: np.ndarray) -> float:
    """Offset-quadratic term of the optimal cost at one time (zero diffusion
    offset), evaluated with the algebraic substitution for the P derivative."""
    P = np.asarray(Ptilde_at_t, dtype=float)
    phi = np.asarray(phi_tilde_at_t, dtype=float).reshape(-1)
    s = aug.snapshot(t)
    M1, M2, M3, _ = _m_terms(s, P)
    M1_inv, _ = gated_inverse(M1, "M1")
    return m5_from_terms(s, P, phi, M1_inv, M2, M3)


def m5_from_terms(s: AugSnapshot, P: np.ndarray, phi: np.ndarray, M1_inv: np.ndarray,
                  M2: np.ndarray, M3: np.ndarray) -> float:
    """M5 from completion terms a caller has already formed (see m5_deterministic)."""
    Pdot = _pdot(s, P, M1_inv, M2)
    m3phi = M3 @ phi
    return float(2.0 * phi @ _offset_drift(s, P, phi, M1_inv, M2, M3, Pdot)
                 + phi @ Pdot @ phi - m3phi @ M1_inv @ m3phi)
