"""Euler-Maruyama simulation of the closed loop and Monte Carlo verification.

simulate_closed_loop drives the optimal pair (X*, h*) with the closed-loop
coefficients, recovers every other process through the affine decoupling
relations at each node, and accumulates per-path costs by trapezoidal
quadrature while it walks, so arbitrarily many paths fit in memory. Full
trajectories are retained only for the first ``store_paths`` paths; the
residual diagnostics operate on that stored subset.

Optimality probing runs in the penalized stacked-forward formulation, where
any (u, Z) policy is simulatable forward; probing the original problem would
require solving one coupled forward-backward system per candidate control.
All probed controls run in one batch: they share one increment block per
path chunk (common random numbers) and one gain table, and one
Euler-Maruyama pass advances the (controls, paths, state) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decouple import DecoupledSolution
from .errors import DivergedError, DomainError, PreconditionError
from .feedback import ClosedLoopSystem, FeedbackLaw, GainTable, evaluate_gain_table, initial_h
from .linalg import gated_inverse
from .model import COEFF_NAMES, FBLQProblem
from .odes import MatrixPath, TimeGrid
from .riccati import AugmentedLQ, RiccatiSolution, m5_deterministic, m_coefficients
from .rng import increment_block

DEFAULT_CHUNK = 8192


def coefficient_scale(problem: FBLQProblem) -> float:
    """Largest absolute coefficient entry; crude magnitude for error bounds."""
    return max(float(np.max(np.abs(getattr(problem, c).values))) for c in COEFF_NAMES)


@dataclass(frozen=True)
class SimConfig:
    """Simulation sizes and seeding; per-path seed is base_seed + path index."""

    steps: int
    paths: int
    base_seed: int
    store_paths: int = 256
    chunk: int = DEFAULT_CHUNK

    def __post_init__(self):
        if self.steps < 1 or self.paths < 1 or self.chunk < 1:
            raise DomainError("steps, paths and chunk must be positive")
        object.__setattr__(self, "store_paths", min(self.store_paths, self.paths))


@dataclass
class SimBatch:
    """Result of one closed-loop simulation run.

    ``trajectories`` maps process name (X, h, Y, Z, m, n, u) to an array of
    shape (stored, steps+1, dim) for the first ``stored`` paths;
    ``increments`` holds their Brownian increments. ``cost_samples`` has one
    sampled cost per path (all paths). Node statistics carry mean and
    standard-error bands of X and h across all paths for plotting.
    """

    grid: TimeGrid
    config: SimConfig
    n_paths: int
    cost_samples: np.ndarray
    trajectories: dict[str, np.ndarray]
    increments: np.ndarray
    node_mean: dict[str, np.ndarray]
    node_sem: dict[str, np.ndarray]

    @property
    def stored(self) -> int:
        return self.increments.shape[0]


def _node_coeff_arrays(problem: FBLQProblem, grid: TimeGrid, names) -> dict[str, np.ndarray]:
    out = {name: [] for name in names}
    for t in grid.nodes:
        s = problem.snapshot(float(t))
        for name in names:
            out[name].append(getattr(s, name))
    return {name: np.stack(vals) for name, vals in out.items()}


def simulate_closed_loop(problem: FBLQProblem, sys: ClosedLoopSystem,
                         sol: DecoupledSolution, law: FeedbackLaw,
                         cfg: SimConfig, table: GainTable | None = None) -> SimBatch:
    """Euler-Maruyama on (X*, h*) with nodewise recovery of (Y, Z, m, n, u).

    The closed-loop system and the feedback law must live on the simulation
    grid, whose step count must be a multiple of the solution grid's.
    Deterministic: a fixed (base_seed, steps, paths) reproduces the batch
    bit-exactly regardless of chunking.
    """
    if sys.grid.steps != cfg.steps or law.grid.steps != cfg.steps:
        raise DomainError("closed-loop system and law must be on the simulation grid")
    if cfg.steps % sol.grid.steps != 0:
        raise DomainError("simulation steps must be a multiple of the solution grid")
    grid = sys.grid
    dt = grid.dt
    steps = grid.steps
    tab = table or evaluate_gain_table(problem, sol, grid)
    N = sys.N
    cost_mats = _node_coeff_arrays(problem, grid, ("A4", "B4", "C4", "D4"))

    n, m = problem.n, problem.m
    k = problem.k
    stored = cfg.store_paths
    traj = {
        "X": np.empty((stored, steps + 1, n)), "h": np.empty((stored, steps + 1, m)),
        "Y": np.empty((stored, steps + 1, m)), "Z": np.empty((stored, steps + 1, m)),
        "m": np.empty((stored, steps + 1, n)), "n": np.empty((stored, steps + 1, n)),
        "u": np.empty((stored, steps + 1, k)),
    }
    stored_db = np.empty((stored, steps))
    cost = np.empty(cfg.paths)
    sum_x = np.zeros((steps + 1, n))
    sumsq_x = np.zeros((steps + 1, n))
    sum_h = np.zeros((steps + 1, m))
    sumsq_h = np.zeros((steps + 1, m))

    for p0 in range(0, cfg.paths, cfg.chunk):
        cnum = min(cfg.chunk, cfg.paths - p0)
        keep = max(0, min(cnum, stored - p0))
        dB = increment_block(cfg.base_seed, p0, cnum, steps, dt)
        if keep:
            stored_db[p0:p0 + keep] = dB[:keep]
        X = np.broadcast_to(sys.x0, (cnum, n)).copy()
        h = np.broadcast_to(sys.h0, (cnum, m)).copy()
        qsum = np.zeros(cnum)
        q_ends = np.zeros(cnum)
        Y0 = None
        # overflow shows up as a non-finite state, which the step check reports
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(steps + 1):
                Y = X @ tab.P2[j].T - h @ tab.P3[j].T + tab.phi2[j]
                Z = X @ tab.L10[j].T + h @ tab.L11[j].T + tab.S5[j]
                u = X @ law.xh_gain_X[j].T + h @ law.xh_gain_h[j].T + law.xh_offset[j]
                madj = X @ tab.P1[j].T + h @ tab.P2[j] + tab.phi1[j]
                nadj = X @ tab.L8[j].T + h @ tab.L9[j].T + tab.S4[j]
                if j == 0:
                    Y0 = Y
                q = (np.einsum("pi,ij,pj->p", X, cost_mats["A4"][j], X)
                     + np.einsum("pi,ij,pj->p", Y, cost_mats["B4"][j], Y)
                     + np.einsum("pi,ij,pj->p", Z, cost_mats["C4"][j], Z)
                     + np.einsum("pi,ij,pj->p", u, cost_mats["D4"][j], u))
                qsum += q
                if j == 0 or j == steps:
                    q_ends += q
                sum_x[j] += X.sum(axis=0)
                sumsq_x[j] += (X * X).sum(axis=0)
                sum_h[j] += h.sum(axis=0)
                sumsq_h[j] += (h * h).sum(axis=0)
                if keep:
                    for name, arr in (("X", X), ("h", h), ("Y", Y), ("Z", Z),
                                      ("m", madj), ("n", nadj), ("u", u)):
                        traj[name][p0:p0 + keep, j] = arr[:keep]
                if j == steps:
                    break
                db = dB[:, j:j + 1]
                X_next = X + (X @ N["N1"][j].T + h @ N["N2"][j].T + N["N3"][j]) * dt \
                    + (X @ N["N4"][j].T + h @ N["N5"][j].T + N["N6"][j]) * db
                h_next = h + (X @ N["N7"][j].T + h @ N["N8"][j].T + N["N9"][j]) * dt \
                    + (X @ N["N10"][j].T + h @ N["N11"][j].T + N["N12"][j]) * db
                if not (np.all(np.isfinite(X_next)) and np.all(np.isfinite(h_next))):
                    bad = np.where(~(np.isfinite(X_next).all(axis=1)
                                     & np.isfinite(h_next).all(axis=1)))[0][0]
                    raise DivergedError(float(grid.nodes[j]),
                                        f"path {p0 + int(bad)} at step {j + 1}")
                X, h = X_next, h_next
            integral = dt * (qsum - 0.5 * q_ends)
            terminal = np.einsum("pi,ij,pj->p", X, problem.G, X)
            initial = np.einsum("pi,ij,pj->p", Y0, problem.H, Y0)
            cost[p0:p0 + cnum] = 0.5 * (integral + terminal + initial)
        # a finite state can still carry a cost past the float range
        if not np.all(np.isfinite(cost[p0:p0 + cnum])):
            bad = int(np.argmin(np.isfinite(cost[p0:p0 + cnum])))
            raise DivergedError(float(grid.T), f"cost of path {p0 + bad} non-finite")

    mean_x = sum_x / cfg.paths
    mean_h = sum_h / cfg.paths
    if cfg.paths > 1:
        var_x = np.maximum(sumsq_x / cfg.paths - mean_x ** 2, 0.0) * cfg.paths / (cfg.paths - 1)
        var_h = np.maximum(sumsq_h / cfg.paths - mean_h ** 2, 0.0) * cfg.paths / (cfg.paths - 1)
    else:
        var_x = np.zeros_like(mean_x)
        var_h = np.zeros_like(mean_h)
    return SimBatch(
        grid=grid, config=cfg, n_paths=cfg.paths, cost_samples=cost,
        trajectories=traj, increments=stored_db,
        node_mean={"X": mean_x, "h": mean_h},
        node_sem={"X": np.sqrt(var_x / cfg.paths), "h": np.sqrt(var_h / cfg.paths)},
    )


@dataclass(frozen=True)
class CostReport:
    """Monte Carlo cost estimate, optionally paired with the analytic value."""

    mc_mean: float
    mc_stderr: float
    analytic_value: float | None = None
    r2: float | None = None
    m5_integral: float | None = None
    truncation_estimate: float | None = None
    agreement_z: float | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(samples))
    if samples.size > 1:
        stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    else:
        stderr = 0.0
    return mean, stderr


def evaluate_cost(problem: FBLQProblem, batch: SimBatch, recompute: bool = False) -> CostReport:
    """Sampled-cost statistics for a batch.

    With ``recompute`` the cost is re-derived from the stored trajectories
    (requires every path stored); the default uses the samples accumulated
    during simulation. Both apply the same trapezoidal quadrature.
    """
    if not recompute:
        mean, stderr = _mean_stderr(batch.cost_samples)
        return CostReport(mean, stderr)
    if batch.stored < batch.n_paths:
        raise PreconditionError("recompute requires every path stored")
    grid = batch.grid
    mats = _node_coeff_arrays(problem, grid, ("A4", "B4", "C4", "D4"))
    tr = batch.trajectories
    q = (np.einsum("pti,tij,ptj->pt", tr["X"], mats["A4"], tr["X"])
         + np.einsum("pti,tij,ptj->pt", tr["Y"], mats["B4"], tr["Y"])
         + np.einsum("pti,tij,ptj->pt", tr["Z"], mats["C4"], tr["Z"])
         + np.einsum("pti,tij,ptj->pt", tr["u"], mats["D4"], tr["u"]))
    integral = np.trapezoid(q, dx=grid.dt, axis=1)
    terminal = np.einsum("pi,ij,pj->p", tr["X"][:, -1], problem.G, tr["X"][:, -1])
    initial = np.einsum("pi,ij,pj->p", tr["Y"][:, 0], problem.H, tr["Y"][:, 0])
    mean, stderr = _mean_stderr(0.5 * (integral + terminal + initial))
    return CostReport(mean, stderr)


def _offsets_vanish(sol: DecoupledSolution, tol: float = 1e-14) -> bool:
    return (float(np.max(np.abs(sol.phi1.values))) <= tol
            and float(np.max(np.abs(sol.phi2.values))) <= tol)


def _stacked_from_blocks(P1, P2, P3, phi1, phi2):
    """(Ptilde, phitilde) of the augmented problem from decoupling blocks."""
    P3_inv, _ = gated_inverse(P3, "P3")
    P1_inv, _ = gated_inverse(P1, "P1")
    top = P1 + P2.T @ P3_inv @ P2
    Pt = np.block([[top, -P2.T @ P3_inv], [-P3_inv @ P2, P3_inv]])
    w = P1_inv @ phi1
    return Pt, np.concatenate([-w, phi2 - P2 @ w])


def cost_identity_check(problem: FBLQProblem, aug: AugmentedLQ,
                        sol: DecoupledSolution, batch: SimBatch) -> CostReport:
    """Analytic optimal cost versus the Monte Carlo estimate.

    The analytic value is half the initial quadratic plus half the integral
    of the deterministic offset-quadratic term over [0, T - 2*dt] (the
    stacked weight is singular at the horizon where P3 vanishes, so the last
    two simulation steps are truncated and the truncation is estimated from
    the final integrand value). agreement_z is |mc - analytic| in units of
    the Monte Carlo standard error.
    """
    base = evaluate_cost(problem, batch)
    x0 = problem.x0
    P1_0 = sol.P1.initial
    phi1_0 = sol.phi1.initial[:, 0]
    phi2_0 = sol.phi2.initial[:, 0]
    P2_0 = sol.P2.initial
    P3_0 = sol.P3.initial
    if float(np.max(np.abs(phi1_0))) == 0.0:
        r2 = float(x0 @ P1_0 @ x0)
    else:
        P1_inv, _ = gated_inverse(P1_0, "P1(0)")
        w = x0 + P1_inv @ phi1_0
        r2 = float(w @ P1_0 @ w)
    r2 += float((P2_0 @ x0 + phi2_0) @ initial_h(problem, P2_0, P3_0, phi2_0))

    grid = batch.grid
    _, last = grid.guard_node()
    if _offsets_vanish(sol) or last < 1:
        m5_vals = np.zeros(max(last + 1, 1))
    else:
        m5_vals = np.empty(last + 1)
        for j in range(last + 1):
            t = float(grid.nodes[j])
            P1, P2, P3, phi1, phi2 = sol.value(t)
            Pt, phit = _stacked_from_blocks(P1, P2, P3, phi1, phi2)
            m5_vals[j] = m5_deterministic(aug, t, Pt, phit)
    m5_integral = float(np.trapezoid(m5_vals, dx=grid.dt))
    truncation = float(abs(m5_vals[-1])) * (grid.T - float(grid.nodes[last]))
    analytic = 0.5 * r2 + 0.5 * m5_integral
    gap = abs(base.mc_mean - analytic)
    if base.mc_stderr > 0:
        z = gap / base.mc_stderr
    else:
        z = 0.0 if gap == 0.0 else math.inf
    return CostReport(base.mc_mean, base.mc_stderr, analytic, r2,
                      m5_integral, truncation, z)


def stationarity_residual(problem: FBLQProblem, batch: SimBatch,
                          sol: DecoupledSolution) -> tuple[float, float]:
    """Max and mean norm of the first-order optimality residual
    D4 u + D1' m + D2' n + D3' h along the stored paths.

    The recovered processes satisfy the relation identically in exact
    arithmetic, so the residual measures floating-point and consistency
    error only.
    """
    grid = batch.grid
    mats = _node_coeff_arrays(problem, grid, ("D1", "D2", "D3", "D4"))
    tr = batch.trajectories
    r = (np.einsum("tij,ptj->pti", mats["D4"], tr["u"])
         + np.einsum("tji,ptj->pti", mats["D1"], tr["m"])
         + np.einsum("tji,ptj->pti", mats["D2"], tr["n"])
         + np.einsum("tji,ptj->pti", mats["D3"], tr["h"]))
    norms = np.sqrt(np.sum(r * r, axis=2))
    return float(np.max(norms)), float(np.mean(norms))


def decoupling_residual(batch: SimBatch, sol: DecoupledSolution,
                        problem: FBLQProblem) -> tuple[float, float]:
    """Re-simulate Y backward along each stored path and compare.

    Y is anchored at F X(T) + xi and advanced by explicit backward Euler on
    its own drift with the recovered (Z, u) and the shared increments; the
    discrepancy against the identity-recovered Y measures the order-one
    consistency of the decoupling along simulated paths.
    """
    grid = batch.grid
    dt = grid.dt
    mats = _node_coeff_arrays(problem, grid, ("A3", "B3", "C3", "D3"))
    tr = batch.trajectories
    X, Y, Z, u = tr["X"], tr["Y"], tr["Z"], tr["u"]
    dB = batch.increments
    y_hat = X[:, -1] @ problem.F.T + problem.xi
    worst = float(np.max(np.sqrt(np.sum((y_hat - Y[:, -1]) ** 2, axis=1))))
    total = np.sqrt(np.sum((y_hat - Y[:, -1]) ** 2, axis=1))
    count = 1
    for j in range(grid.steps - 1, -1, -1):
        drift = (X[:, j] @ mats["A3"][j].T + y_hat @ mats["B3"][j].T
                 + Z[:, j] @ mats["C3"][j].T + u[:, j] @ mats["D3"][j].T)
        y_hat = y_hat + drift * dt - Z[:, j] * dB[:, j:j + 1]
        err = np.sqrt(np.sum((y_hat - Y[:, j]) ** 2, axis=1))
        worst = max(worst, float(np.max(err)))
        total = total + err
        count += 1
    return worst, float(np.mean(total / count))


# ---------------------------------------------------------------------------
# penalized forward formulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenalizedCost:
    mean: float
    stderr: float
    samples: np.ndarray = field(repr=False, default=None)


def _perturbation(control, steps: int, dim: int) -> tuple[float, np.ndarray]:
    if control[0] == "synthesized":
        return 0.0, np.zeros((steps + 1, dim))
    if control[0] != "perturbed":
        raise DomainError(f"unknown control spec {control[0]!r}")
    eps = float(control[1])
    delta = np.asarray(control[2], dtype=float)
    if delta.ndim == 1:
        delta = np.broadcast_to(delta, (steps + 1, dim)).copy()
    if delta.shape != (steps + 1, dim):
        raise DomainError("perturbation direction must be (dim,) or (steps+1, dim)")
    return eps, delta


def _quad(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Quadratic form s' W s over the last axis of a stack of vectors."""
    return np.einsum("...i,...i->...", S @ W, S)


def simulate_penalized_forward(aug: AugmentedLQ, riccati_i: RiccatiSolution,
                               offset_tilde: MatrixPath | None, controls,
                               problem: FBLQProblem, i: int,
                               cfg: SimConfig) -> list[PenalizedCost]:
    """Forward simulation of the stacked state under a batch of (u, Z) policies.

    ``controls`` is a sequence of specs, each ("synthesized",) for the
    completion-of-squares feedback or ("perturbed", eps, direction) to add
    eps times a fixed deterministic direction to the stacked control; one
    PenalizedCost is returned per spec, in order. The cost includes the
    terminal penalty 0.5*i*|Y(T) - F X(T) - xi|^2.

    All controls share one increment block per path chunk (common random
    numbers), one gain table and one Euler-Maruyama pass whose state rows
    are the chunk's (control, path) pairs. A control's samples do not depend
    on the other controls in the batch or on the chunk size, so the eps = 0
    perturbation is bitwise equal to the synthesized run.
    """
    if riccati_i.i != i:
        raise DomainError("index mismatch between solve and request")
    grid = TimeGrid(problem.T, cfg.steps)
    d = aug.state_dim
    cdim = aug.control_dim
    n, m = problem.n, problem.m
    nc = len(controls)
    Pt = riccati_i.Ptilde.on_grid(grid)
    if offset_tilde is not None:
        phit = offset_tilde.on_grid(grid)[:, :, 0]
    else:
        phit = np.zeros((cfg.steps + 1, d))
    pert = np.empty((nc, cfg.steps + 1, cdim))
    for c, control in enumerate(controls):
        eps, delta = _perturbation(control, cfg.steps, cdim)
        pert[c] = eps * delta

    gains = np.empty((cfg.steps + 1, cdim, d))
    offs = np.empty((cfg.steps + 1, cdim))
    A = np.empty((cfg.steps + 1, d, d))
    B = np.empty((cfg.steps + 1, d, cdim))
    C = np.empty((cfg.steps + 1, d, d))
    D = np.empty((cfg.steps + 1, d, cdim))
    Q = np.empty((cfg.steps + 1, d, d))
    R = np.empty((cfg.steps + 1, cdim, cdim))
    for j, t in enumerate(grid.nodes):
        s = aug.snapshot(float(t))
        mc = m_coefficients(aug, Pt[j], float(t))
        M1_inv, _ = gated_inverse(mc.M1, "M1")
        gains[j] = -M1_inv @ mc.M2
        offs[j] = M1_inv @ (mc.M3 @ phit[j])
        A[j], B[j], C[j], D[j], Q[j], R[j] = s.A, s.B, s.C, s.D, s.Q, s.R

    Pt3_inv, _ = gated_inverse(Pt[0][n:, n:], "P3_tilde")
    P2_0 = -Pt3_inv @ Pt[0][n:, :n]
    phi2_0 = phit[0][n:] - P2_0 @ phit[0][:n]
    y0_lhs, _ = gated_inverse(np.eye(m) + Pt3_inv @ problem.H, "I + P3(0)*H")
    y0 = y0_lhs @ (P2_0 @ problem.x0 + phi2_0)
    start = np.concatenate([problem.x0, y0])

    dt = grid.dt
    samples = np.empty((nc, cfg.paths))
    for p0 in range(0, cfg.paths, cfg.chunk):
        cnum = min(cfg.chunk, cfg.paths - p0)
        dB = increment_block(cfg.base_seed, p0, cnum, cfg.steps, dt)
        # rows are (control, path) pairs, control-major: one matrix product
        # per coefficient serves the whole batch
        S = np.broadcast_to(start, (nc * cnum, d)).copy()
        qsum = np.zeros(nc * cnum)
        q_ends = np.zeros(nc * cnum)
        # overflow shows up as a non-finite state, which the step check reports
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(cfg.steps + 1):
                u = S @ gains[j].T + offs[j]
                u_by_control = u.reshape(nc, cnum, cdim)
                u_by_control += pert[:, j, np.newaxis]
                q = _quad(S, Q[j]) + _quad(u, R[j])
                qsum += q
                if j == 0 or j == cfg.steps:
                    q_ends += q
                if j == cfg.steps:
                    break
                noise = S @ C[j].T + u @ D[j].T
                noise_by_control = noise.reshape(nc, cnum, d)
                noise_by_control *= dB[:, j:j + 1]
                S_next = S + (S @ A[j].T + u @ B[j].T) * dt + noise
                if not np.all(np.isfinite(S_next)):
                    c, bad = divmod(int(np.argmin(np.isfinite(S_next).all(axis=1))), cnum)
                    raise DivergedError(float(grid.nodes[j]),
                                        f"control {c}, path {p0 + bad} at step {j + 1}")
                S = S_next
            X_T, Y_T = S[:, :n], S[:, n:]
            gap = Y_T - X_T @ problem.F.T - problem.xi
            cost = 0.5 * (dt * (qsum - 0.5 * q_ends) + _quad(X_T, problem.G)
                          + i * np.sum(gap * gap, axis=1))
        # a finite state can still carry a cost past the float range
        if not np.all(np.isfinite(cost)):
            c, bad = divmod(int(np.argmin(np.isfinite(cost))), cnum)
            raise DivergedError(float(grid.T), f"cost of control {c}, path {p0 + bad} non-finite")
        samples[:, p0:p0 + cnum] = cost.reshape(nc, cnum)
    return [PenalizedCost(*_mean_stderr(row), row) for row in samples]


def penalized_gap_prediction(aug: AugmentedLQ, riccati_i: RiccatiSolution,
                             eps: float, delta, cfg: SimConfig,
                             problem: FBLQProblem) -> float:
    """Exact expected excess cost of a deterministic control perturbation:
    0.5 * eps^2 * integral of delta' M1 delta."""
    grid = TimeGrid(problem.T, cfg.steps)
    Pt = riccati_i.Ptilde.on_grid(grid)
    _, delta_arr = _perturbation(("perturbed", eps, delta), cfg.steps, aug.control_dim)
    vals = np.empty(cfg.steps + 1)
    for j, t in enumerate(grid.nodes):
        M1 = m_coefficients(aug, Pt[j], float(t)).M1
        vals[j] = delta_arr[j] @ M1 @ delta_arr[j]
    return 0.5 * eps * eps * float(np.trapezoid(vals, dx=grid.dt))
