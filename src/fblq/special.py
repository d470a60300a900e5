"""Reference solvers for the three degenerate problem families.

Each reduction is recognized by its zero pattern and solved from its own
reduced equations, sharing only the generic integrator with the main
pipeline. That independence is what makes the cross-checks in the
verification suites meaningful.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConstraintViolatedError, PreconditionError, SingularCoefficientError
from .linalg import gated_inverse, min_eig_sym
from .model import FBLQProblem
from .odes import MatrixPath, OdeSystem, TimeGrid, integrate_terminal

PATTERN_TOL = 1e-12
SIDE_CONDITION_MARGIN = 1e-8


class ReductionKind(enum.Enum):
    INDEFINITE_LQ = "indefinite_lq"
    BLQ = "blq"
    DETERMINISTIC_FBLQ = "deterministic_fblq"


_ZERO_PATTERNS = {
    # purely forward problem: backward state and its couplings absent
    ReductionKind.INDEFINITE_LQ: (
        ("A3", "D3", "B2", "B3", "B4", "C2", "C3", "C4"), ("F", "H", "xi")),
    # purely backward problem: forward state and its couplings absent
    ReductionKind.BLQ: (
        ("A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2", "D1", "D2"), ("F", "G")),
    # no diffusion coupling at all
    ReductionKind.DETERMINISTIC_FBLQ: (
        ("C1", "A2", "B2", "C2", "D2", "C3", "C4"), ("xi",)),
}


def matches_pattern(problem: FBLQProblem, kind: ReductionKind,
                    tol: float = PATTERN_TOL) -> bool:
    coeffs, constants = _ZERO_PATTERNS[kind]
    ok = all(getattr(problem, c).is_zero(tol) for c in coeffs)
    return ok and all(float(np.max(np.abs(getattr(problem, c)))) <= tol
                      for c in constants)


def is_reduction(problem: FBLQProblem, tol: float = PATTERN_TOL) -> ReductionKind | None:
    """Detect which degenerate family the instance belongs to, if any.

    Patterns may overlap (a problem with no diffusion and no backward block
    matches both the forward-LQ and the deterministic family); detection
    reports the first match in the order forward-LQ, backward-LQ,
    deterministic. The reference solvers accept any instance matching their
    own pattern regardless of what is reported first.
    """
    for kind in _ZERO_PATTERNS:
        if matches_pattern(problem, kind, tol):
            return kind
    return None


def _require(problem: FBLQProblem, kind: ReductionKind):
    if not matches_pattern(problem, kind):
        raise PreconditionError(
            f"instance does not match the {kind.value} zero pattern "
            f"(detected {is_reduction(problem)})")


def solve_lq_reference(problem: FBLQProblem, grid: TimeGrid) -> tuple[MatrixPath, MatrixPath]:
    """Forward LQ Riccati solve with a possibly indefinite control weight.

    Integrates P' = -(A1'P + P A1 + A4 + A2'P A2 - S' W^-1 S) backward from
    G, where S = D1'P + D2'P A2 and W = D4 + D2'P D2 must stay positive
    (the state-dependent effective weight rescues an indefinite D4).
    Returns the value block P and the gain path -W^-1 S.
    """
    _require(problem, ReductionKind.INDEFINITE_LQ)
    n = problem.n

    def rhs(t, blocks):
        s = problem.snapshot(t)
        P = blocks["P"]
        PA2 = P @ s.A2
        W = s.D4 + s.D2.T @ P @ s.D2
        low = min_eig_sym(W)
        if low < SIDE_CONDITION_MARGIN:
            raise ConstraintViolatedError("D4 + D2'P D2", t, low)
        S = s.D1.T @ P + s.D2.T @ PA2
        W_inv, _ = gated_inverse(W, "D4 + D2'P D2")
        return {"P": -(s.A1.T @ P + P @ s.A1 + s.A4 + s.A2.T @ PA2
                       - S.T @ W_inv @ S)}

    system = OdeSystem(
        layout=(("P", (n, n)),), rhs=rhs, terminal={"P": problem.G},
        symmetric=frozenset({"P"}),
    )
    P_path = integrate_terminal(system, grid)["P"]
    gains = np.empty((grid.steps + 1, problem.k, n))
    for j, t in enumerate(grid.nodes):
        s = problem.snapshot(float(t))
        P = P_path.at_node(j)
        W = s.D4 + s.D2.T @ P @ s.D2
        W_inv, _ = gated_inverse(W, "D4 + D2'P D2")
        gains[j] = -W_inv @ (s.D1.T @ P + s.D2.T @ P @ s.A2)
    return P_path, MatrixPath(grid, gains)


def solve_blq_reference(problem: FBLQProblem,
                        grid: TimeGrid) -> tuple[MatrixPath, MatrixPath, MatrixPath]:
    """Backward LQ reference: the value block of the backward problem.

    Integrates, from Q4(T) = 0,

        Q4' = -(Q4 B3' + B3 Q4 - Q4 B4 Q4 + D3 D4^-1 D3'
                + C3 (I + Q4 C4)^-1 Q4 C3')

    (the quadratic source enters with a positive sign: the value block grows
    backward from zero, matching the general block equation restricted to
    this family), then the offset phi2' = -(B3 - Q4 B4) phi2 from xi, with
    the backward state recovered as Y = -Q4 h + phi2. Returns
    (Q4, phi2, control gain -D4^-1 D3').
    """
    _require(problem, ReductionKind.BLQ)
    m = problem.m

    def rhs(t, blocks):
        s = problem.snapshot(t)
        Q4, phi2 = blocks["Q4"], blocks["phi2"]
        D4_inv, _ = gated_inverse(s.D4, "D4")
        lhs, _ = gated_inverse(np.eye(m) + Q4 @ s.C4, "I + Q4*C4")
        dQ4 = -(Q4 @ s.B3.T + s.B3 @ Q4 - Q4 @ s.B4 @ Q4
                + s.D3 @ D4_inv @ s.D3.T + s.C3 @ lhs @ Q4 @ s.C3.T)
        dphi2 = -((s.B3 - Q4 @ s.B4) @ phi2)
        return {"Q4": dQ4, "phi2": dphi2}

    system = OdeSystem(
        layout=(("Q4", (m, m)), ("phi2", (m,))),
        rhs=rhs,
        terminal={"Q4": np.zeros((m, m)), "phi2": problem.xi},
        symmetric=frozenset({"Q4"}),
    )
    paths = integrate_terminal(system, grid)
    gains = np.empty((grid.steps + 1, problem.k, m))
    for j, t in enumerate(grid.nodes):
        s = problem.snapshot(float(t))
        D4_inv, _ = gated_inverse(s.D4, "D4")
        gains[j] = -D4_inv @ s.D3.T
    return paths["Q4"], paths["phi2"], MatrixPath(grid, gains)


def solve_deterministic_fblq_reference(problem: FBLQProblem, grid: TimeGrid,
                                       epsilon_guard: float | None = None):
    """Deterministic coupled reference: the three-block system without any
    diffusion terms, plus the feedback gains on the guarded interval.

    Returns (P1, P2, P3, gain_X, gain_Y, guard_node); the gains map
    u = gain_X X + gain_Y Y and need P3 invertible, hence the guard.
    """
    _require(problem, ReductionKind.DETERMINISTIC_FBLQ)
    n, m, k = problem.n, problem.m, problem.k

    def rhs(t, blocks):
        s = problem.snapshot(t)
        P1, P2, P3 = blocks["P1"], blocks["P2"], blocks["P3"]
        D4_inv, _ = gated_inverse(s.D4, "D4")
        dP1 = -(P1 @ s.A1 + s.A1.T @ P1 + P1 @ s.B1 @ P2 + P2.T @ s.B1.T @ P1
                - P1 @ s.D1 @ D4_inv @ s.D1.T @ P1 + P2.T @ s.B4 @ P2 + s.A4)
        dP2 = -(P2 @ s.A1 + s.B3 @ P2 - P3 @ s.B4 @ P2
                - P2 @ s.D1 @ D4_inv @ s.D1.T @ P1 + P2 @ s.B1 @ P2
                - P3 @ s.B1.T @ P1 - s.D3 @ D4_inv @ s.D1.T @ P1 + s.A3)
        R = P2 @ s.D1 + s.D3
        dP3 = -(P3 @ s.B3.T + s.B3 @ P3 + P2 @ s.B1 @ P3 + P3 @ s.B1.T @ P2.T
                - P3 @ s.B4 @ P3 + R @ D4_inv @ R.T)
        return {"P1": dP1, "P2": dP2, "P3": dP3}

    system = OdeSystem(
        layout=(("P1", (n, n)), ("P2", (m, n)), ("P3", (m, m))),
        rhs=rhs,
        terminal={"P1": problem.G, "P2": problem.F, "P3": np.zeros((m, m))},
        symmetric=frozenset({"P1", "P3"}),
    )
    paths = integrate_terminal(system, grid)
    _, guard_node = grid.guard_node(epsilon_guard)
    gain_X = np.empty((guard_node + 1, k, n))
    gain_Y = np.empty((guard_node + 1, k, m))
    for j in range(guard_node + 1):
        t = float(grid.nodes[j])
        s = problem.snapshot(t)
        P1 = paths["P1"].at_node(j)
        P2 = paths["P2"].at_node(j)
        P3 = paths["P3"].at_node(j)
        D4_inv, _ = gated_inverse(s.D4, "D4")
        try:
            P3_inv, _ = gated_inverse(P3, "P3")
        except SingularCoefficientError as err:
            raise err.at_time(t) from None
        gain_X[j] = -D4_inv @ (s.D1.T @ (P1 + P2.T @ P3_inv @ P2)
                               + s.D3.T @ P3_inv @ P2)
        gain_Y[j] = D4_inv @ (s.D1.T @ P2.T + s.D3.T) @ P3_inv
    return paths["P1"], paths["P2"], paths["P3"], gain_X, gain_Y, guard_node
