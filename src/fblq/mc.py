"""Euler-Maruyama simulation of the closed loop and Monte Carlo verification.

Both loops run paths-last, one column per path, so each affine node map is
one small matrix product along the contiguous path axis. simulate_closed_loop
drives the optimal pair (X*, h*) and accumulates per-path costs by
trapezoidal quadrature while it walks, so arbitrarily many paths fit in
memory; the other processes are recovered only for the first
``store_paths`` paths, whose trajectories feed the residual diagnostics.

Optimality probing runs in the penalized stacked-forward formulation, where
any (u, Z) policy is simulatable forward; probing the original problem would
require solving one coupled forward-backward system per candidate control.
All probed controls run in one batch: they share one increment block per
path chunk (common random numbers), one gain table and one Euler-Maruyama
pass over every (control, path) column. The stacked blocks come from
riccati.augmented(problem, t); the offset psi from the Riccati pass that
carries it (solve_offset_tilde).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, DomainError, PreconditionError
from .feedback import ClosedLoopSystem, GainTable, initial_h
from .linalg import gated_inverse, node_inverse
from .model import COEFF_NAMES, FBLQProblem
from .odes import MatrixPath, TimeGrid
from .riccati import RiccatiSolution, augmented, m5_from_terms, m_coefficients
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
        if self.steps < 1 or self.paths < 1 or self.chunk < 1 or self.store_paths < 0:
            raise DomainError("steps, paths and chunk must be positive, store_paths non-negative")
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
    n_paths: int
    cost_samples: np.ndarray
    trajectories: dict[str, np.ndarray]
    increments: np.ndarray
    node_mean: dict[str, np.ndarray]
    node_sem: dict[str, np.ndarray]

    @property
    def stored(self) -> int:
        return self.increments.shape[0]


def _two_columns_at_least(dB: np.ndarray) -> np.ndarray:
    """The (steps, paths) increments, a lone path doubled into two equal columns.

    A one-column block would send matmul, einsum and the path sums down
    numpy's vector kernels, which round differently; the loops step the
    doubled block and keep its first column, so a chunk of one path gives
    the bits of any wider chunk.
    """
    return dB if dB.shape[1] > 1 else np.repeat(dB, 2, axis=1)


def simulate_closed_loop(problem: FBLQProblem, sys: ClosedLoopSystem,
                         cfg: SimConfig) -> SimBatch:
    """Euler-Maruyama on S = (X*, h*), recovering (Y, Z, u, m, n) on the stored paths.

    The closed-loop system must live on the simulation grid. The loop runs
    on S~ = (S, 1) as a (d+1, paths) block: a step is
    S~ <- Phi_j S~ + (Psi_j S~) dB_j, the running cost the one form
    S~' Q~_j S~. Deterministic: a fixed (base_seed, steps, paths) reproduces
    the cost samples and trajectories bit-exactly regardless of chunking.
    """
    if sys.grid.steps != cfg.steps:
        raise DomainError("closed-loop system must be on the simulation grid")
    grid = sys.grid
    dt = grid.dt
    steps = grid.steps
    n = problem.n
    start = np.concatenate([problem.x0, sys.h0, [1.0]])
    d = start.size - 1
    step_map = np.concatenate([sys.dynamics.gain, sys.dynamics.offset[..., np.newaxis]], axis=2)
    Phi, Psi = np.eye(d, d + 1) + dt * step_map[:, :d], step_map[:, d:]
    y0 = sys.recovery.gain[0, sys.rows["Y"]] @ start[:d] + sys.recovery.offset[0, sys.rows["Y"]]
    Q = sys.running_cost.copy()
    Q[[0, -1]] *= 0.5   # trapezoidal end weights
    stored = cfg.store_paths
    kept = np.empty((steps + 1, d, stored))
    stored_db = np.empty((stored, steps))
    cost = np.empty(cfg.paths)
    sum_s = np.zeros((steps + 1, d))
    sumsq_s = np.zeros((steps + 1, d))

    for p0 in range(0, cfg.paths, cfg.chunk):
        cnum = min(cfg.chunk, cfg.paths - p0)
        keep = max(0, min(cnum, stored - p0))
        dB = _two_columns_at_least(increment_block(cfg.base_seed, p0, cnum, steps, dt))
        width = dB.shape[1]
        stored_db[p0:p0 + keep] = dB[:, :keep].T
        St = np.repeat(start[:, np.newaxis], width, axis=1)   # S~, one column per path
        S, own = St[:d], St[:d, :cnum]   # own: the chunk's paths, without a doubled column
        qsum = np.zeros(width)
        # overflow shows up as a non-finite state, which the step check reports
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(steps + 1):
                qsum += np.einsum("ip,ip->p", St, Q[j] @ St)
                sum_s[j] += own.sum(axis=1)
                sumsq_s[j] += np.einsum("ip,ip->i", own, own)
                kept[j, :, p0:p0 + keep] = S[:, :keep]
                if j == steps:
                    break
                noise = Psi[j] @ St
                noise *= dB[j]
                np.add(Phi[j] @ St, noise, out=S)
                if not np.all(np.isfinite(S)):
                    bad = int(np.argmin(np.isfinite(S).all(axis=0)))
                    raise DivergedError(float(grid.nodes[j]),
                                        f"path {p0 + bad} at step {j + 1}")
            X_T = S[:n]
            cost[p0:p0 + cnum] = 0.5 * (dt * qsum
                                        + np.einsum("ip,ip->p", X_T, problem.G @ X_T)
                                        + y0 @ problem.H @ y0)[:cnum]
        # a finite state can still carry a cost past the float range
        if not np.all(np.isfinite(cost[p0:p0 + cnum])):
            bad = int(np.argmin(np.isfinite(cost[p0:p0 + cnum])))
            raise DivergedError(float(grid.T), f"cost of path {p0 + bad} non-finite")

    recovered = (sys.recovery.gain @ kept).transpose(2, 0, 1)   # (stored, steps+1, rows)
    recovered += sys.recovery.offset
    mean = sum_s / cfg.paths
    if cfg.paths > 1:
        var = np.maximum(sumsq_s / cfg.paths - mean ** 2, 0.0) * cfg.paths / (cfg.paths - 1)
    else:
        var = np.zeros_like(mean)
    sem = np.sqrt(var / cfg.paths)
    return SimBatch(
        grid=grid, n_paths=cfg.paths, cost_samples=cost,
        trajectories={name: recovered[..., rows] for name, rows in sys.rows.items()},
        increments=stored_db,
        node_mean={"X": mean[:, :n], "h": mean[:, n:]},
        node_sem={"X": sem[:, :n], "h": sem[:, n:]},
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
    s = problem.on_grid(grid)
    tr = batch.trajectories
    q = (np.einsum("pti,tij,ptj->pt", tr["X"], s.A4, tr["X"])
         + np.einsum("pti,tij,ptj->pt", tr["Y"], s.B4, tr["Y"])
         + np.einsum("pti,tij,ptj->pt", tr["Z"], s.C4, tr["Z"])
         + np.einsum("pti,tij,ptj->pt", tr["u"], s.D4, tr["u"]))
    integral = np.trapezoid(q, dx=grid.dt, axis=1)
    terminal = np.einsum("pi,ij,pj->p", tr["X"][:, -1], problem.G, tr["X"][:, -1])
    initial = np.einsum("pi,ij,pj->p", tr["Y"][:, 0], problem.H, tr["Y"][:, 0])
    mean, stderr = _mean_stderr(0.5 * (integral + terminal + initial))
    return CostReport(mean, stderr)


def cost_identity_check(problem: FBLQProblem, table: GainTable,
                        batch: SimBatch) -> CostReport:
    """Analytic optimal cost versus the Monte Carlo estimate.

    The analytic value is half the initial quadratic plus half the integral
    of the deterministic offset-quadratic term M5 over [0, T - 2*dt] (the
    stacked weight is singular at the horizon where P3 vanishes, so the last
    two simulation steps are truncated and the truncation is estimated from
    the final integrand value). Both terms read the gain table, which must
    be on the batch's grid; M5 maps its nodes 0..last to the augmented
    (Ptilde, phitilde). agreement_z is |mc - analytic| in units of the Monte
    Carlo standard error.
    """
    grid = batch.grid
    if not np.array_equal(table.grid.nodes, grid.nodes):
        raise DomainError("gain table must be on the simulation grid")
    base = evaluate_cost(problem, batch)
    x0 = problem.x0
    P1_0, P2_0, P3_0 = table.P1[0], table.P2[0], table.P3[0]
    phi1_0, phi2_0 = table.phi1[0], table.phi2[0]
    if float(np.max(np.abs(phi1_0))) == 0.0:
        r2 = float(x0 @ P1_0 @ x0)
    else:
        P1_inv, _ = gated_inverse(P1_0, "P1(0)")
        w = x0 + P1_inv @ phi1_0
        r2 = float(w @ P1_0 @ w)
    r2 += float((P2_0 @ x0 + phi2_0) @ initial_h(problem, P2_0, P3_0, phi2_0))

    _, last = grid.guard_node()
    offsets_vanish = (float(np.max(np.abs(table.phi1))) <= 1e-14
                      and float(np.max(np.abs(table.phi2))) <= 1e-14)
    if offsets_vanish or last < 1:
        m5_vals = np.zeros(max(last + 1, 1))
    else:
        times = grid.nodes[:last + 1]
        P1, P2, P3 = (blocks[:last + 1] for blocks in (table.P1, table.P2, table.P3))
        phi1, phi2 = (phi[:last + 1, :, np.newaxis] for phi in (table.phi1, table.phi2))
        P3_inv, _ = node_inverse(P3, "P3", times)
        Pt = np.block([[P1 + P2.mT @ P3_inv @ P2, -P2.mT @ P3_inv], [-P3_inv @ P2, P3_inv]])
        if np.any(phi1):
            P1_inv, _ = node_inverse(P1, "P1", times)
            w = P1_inv @ phi1
        else:   # phitilde1 = -P1^-1 phi1 vanishes with phi1, also where P1 does
            w = np.zeros_like(phi1)
        phit = np.concatenate([-w, phi2 - P2 @ w], axis=1)
        mc = m_coefficients(problem, Pt, times)
        M1_inv, _ = node_inverse(mc.M1, "M1", times)
        m5_vals = m5_from_terms(augmented(problem, times), Pt, phit, M1_inv, mc.M2, mc.M3)
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


def stationarity_residual(problem: FBLQProblem, batch: SimBatch) -> tuple[float, float]:
    """Max and mean norm of the first-order optimality residual
    D4 u + D1' m + D2' n + D3' h along the stored paths.

    The recovered processes satisfy the relation identically in exact
    arithmetic, so the residual measures floating-point and consistency
    error only.
    """
    s = problem.on_grid(batch.grid)
    tr = batch.trajectories
    r = (np.einsum("tij,ptj->pti", s.D4, tr["u"])
         + np.einsum("tji,ptj->pti", s.D1, tr["m"])
         + np.einsum("tji,ptj->pti", s.D2, tr["n"])
         + np.einsum("tji,ptj->pti", s.D3, tr["h"]))
    norms = np.sqrt(np.sum(r * r, axis=2))
    return float(np.max(norms)), float(np.mean(norms))


def decoupling_residual(batch: SimBatch, problem: FBLQProblem) -> tuple[float, float]:
    """Re-simulate Y backward along each stored path and compare.

    Y is anchored at F X(T) + xi and advanced by explicit backward Euler on
    its own drift with the recovered (Z, u) and the shared increments; the
    discrepancy against the identity-recovered Y measures the order-one
    consistency of the decoupling along simulated paths.
    """
    grid = batch.grid
    dt = grid.dt
    s = problem.on_grid(grid)
    tr = batch.trajectories
    X, Y, Z, u = tr["X"], tr["Y"], tr["Z"], tr["u"]
    dB = batch.increments
    y_hat = X[:, -1] @ problem.F.T + problem.xi
    worst = float(np.max(np.sqrt(np.sum((y_hat - Y[:, -1]) ** 2, axis=1))))
    total = np.sqrt(np.sum((y_hat - Y[:, -1]) ** 2, axis=1))
    count = 1
    for j in range(grid.steps - 1, -1, -1):
        drift = (X[:, j] @ s.A3[j].T + y_hat @ s.B3[j].T
                 + Z[:, j] @ s.C3[j].T + u[:, j] @ s.D3[j].T)
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


def simulate_penalized_forward(riccati_i: RiccatiSolution, psi: MatrixPath, controls,
                               problem: FBLQProblem, cfg: SimConfig) -> list[PenalizedCost]:
    """Forward simulation of the stacked state under a batch of (u, Z) policies.

    ``psi`` is the offset path P phi~ that solve_offset_tilde returns next to
    ``riccati_i``, the solve at penalization index i.

    ``controls`` is a sequence of specs, each ("synthesized",) for the
    completion-of-squares feedback or ("perturbed", eps, direction) to add
    eps times a fixed deterministic direction to the stacked control; one
    PenalizedCost is returned per spec, in order. The cost includes the
    terminal penalty 0.5*i*|Y(T) - F X(T) - xi|^2.

    All controls share one increment block per path chunk (common random
    numbers), one gain table and one Euler-Maruyama pass over the chunk's
    (control, path) columns, control-major, each holding V = (S, u): the
    running cost is one form V' diag(Q, R) V and a step is
    S <- Phi_j V + (Psi_j V) dB_j. A control's samples do not depend on the
    other controls in the batch or on the chunk size, so the eps = 0
    perturbation is bitwise equal to the synthesized run.
    """
    grid = TimeGrid(problem.T, cfg.steps)
    n = problem.n
    d = n + problem.m
    cdim = problem.k + problem.m
    nc = len(controls)
    Pt = riccati_i.Ptilde.on_grid(grid)
    psi_grid = psi.on_grid(grid)
    pert = np.empty((cfg.steps + 1, cdim, nc, 1))
    for c, control in enumerate(controls):
        eps, delta = _perturbation(control, cfg.steps, cdim)
        pert[:, :, c, 0] = eps * delta

    mc = m_coefficients(problem, Pt, grid.nodes)
    M1_inv, _ = node_inverse(mc.M1, "M1", grid.nodes)
    gains = -M1_inv @ mc.M2
    s = augmented(problem, grid.nodes)
    # per control: the feedback offset M1^-1 B' psi (= M1^-1 M3 phi~) plus its perturbation
    offs = (M1_inv @ (s.B.mT @ psi_grid))[:, :, np.newaxis] + pert
    dt = grid.dt
    Phi = np.concatenate([np.eye(d) + dt * s.A, dt * s.B], axis=2)
    Psi = np.concatenate([s.C, s.D], axis=2)
    W = np.block([[s.Q, np.zeros_like(s.B)], [np.zeros_like(s.B.mT), s.R]])
    W[[0, -1]] *= 0.5   # trapezoidal end weights

    P3_0, _ = gated_inverse(Pt[0][n:, n:], "P3_tilde")
    P2_0 = -P3_0 @ Pt[0][n:, :n]
    phi2_0 = P3_0 @ psi_grid[0, n:, 0]
    y0 = P2_0 @ problem.x0 + phi2_0 - P3_0 @ initial_h(problem, P2_0, P3_0, phi2_0)
    start = np.concatenate([problem.x0, y0])

    samples = np.empty((nc, cfg.paths))
    for p0 in range(0, cfg.paths, cfg.chunk):
        cnum = min(cfg.chunk, cfg.paths - p0)
        dB = _two_columns_at_least(increment_block(cfg.base_seed, p0, cnum, cfg.steps, dt))
        width = dB.shape[1]
        V = np.empty((d + cdim, nc * width))
        V[:d] = start[:, np.newaxis]
        S, u, noise = V[:d], V[d:], np.empty((d, nc * width))
        u_by_control, noise_by_control = u.reshape(cdim, nc, width), noise.reshape(d, nc, width)
        qsum = np.zeros(nc * width)
        # overflow shows up as a non-finite state, which the step check reports
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(cfg.steps + 1):
                np.matmul(gains[j], S, out=u)
                u_by_control += offs[j]
                qsum += np.einsum("ip,ip->p", V, W[j] @ V)
                if j == cfg.steps:
                    break
                np.matmul(Psi[j], V, out=noise)
                noise_by_control *= dB[j]
                np.add(Phi[j] @ V, noise, out=S)
                if not np.all(np.isfinite(S)):
                    c, bad = divmod(int(np.argmin(np.isfinite(S).all(axis=0))), width)
                    raise DivergedError(float(grid.nodes[j]),
                                        f"control {c}, path {p0 + bad} at step {j + 1}")
            X_T, Y_T = S[:n], S[n:]
            # einsum: with a one-row F, F @ X_T would round by column position
            gap = Y_T - np.einsum("ij,jp->ip", problem.F, X_T) - problem.xi[:, np.newaxis]
            cost = 0.5 * (dt * qsum
                          + np.einsum("ip,ip->p", X_T, problem.G @ X_T)
                          + riccati_i.i * np.einsum("ip,ip->p", gap, gap))
        # a finite state can still carry a cost past the float range
        if not np.all(np.isfinite(cost)):
            c, bad = divmod(int(np.argmin(np.isfinite(cost))), width)
            raise DivergedError(float(grid.T), f"cost of control {c}, path {p0 + bad} non-finite")
        samples[:, p0:p0 + cnum] = cost.reshape(nc, width)[:, :cnum]
    return [PenalizedCost(*_mean_stderr(row), row) for row in samples]


def penalized_gap_prediction(riccati_i: RiccatiSolution, eps: float, delta,
                             cfg: SimConfig, problem: FBLQProblem) -> float:
    """Exact expected excess cost of a deterministic control perturbation:
    0.5 * eps^2 * integral of delta' M1 delta."""
    grid = TimeGrid(problem.T, cfg.steps)
    Pt = riccati_i.Ptilde.on_grid(grid)
    _, delta_arr = _perturbation(("perturbed", eps, delta), cfg.steps, problem.k + problem.m)
    M1 = m_coefficients(problem, Pt, grid.nodes).M1
    vals = (delta_arr[:, np.newaxis] @ M1 @ delta_arr[..., np.newaxis])[:, 0, 0]
    return 0.5 * eps * eps * float(np.trapezoid(vals, dx=grid.dt))
