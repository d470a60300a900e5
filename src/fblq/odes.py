"""Terminal-value integration of coupled matrix ODE systems on uniform grids.

The integrator is classical fixed-step RK4 run backward from t = T. Fixed
steps keep every downstream consumer (coefficient assembly, Monte Carlo
simulation) on one shared deterministic grid; blow-up detection covers the
stiff failure mode instead of adaptive stepping. Blocks tagged symmetric are
replaced by their symmetric part after every step so roundoff asymmetry
cannot accumulate.

Piecewise-constant coefficients are looked up once per step, at its midpoint,
for all four stages: with nodes on the breakpoints that is the piece holding
the whole step, so RK4 keeps its order. Lookup failures name the later node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergedError, DomainError, SingularCoefficientError
from .linalg import frozen, sym

BLOWUP_LIMIT = 1e12
DEFAULT_STEPS = 2000
SYMMETRY_PATH_TOL = 1e-8

Blocks = dict[str, np.ndarray]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*T/steps, j = 0..steps."""

    T: float
    steps: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError("T must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")
        object.__setattr__(self, "nodes", frozen(np.linspace(0.0, self.T, self.steps + 1)))

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def guard_node(self, epsilon: float | None = None) -> tuple[float, int]:
        """(epsilon, index of the last node with t <= T - epsilon).

        ``epsilon`` defaults to two grid steps; the index is -1 when no node
        lies that far before the horizon.
        """
        eps = 2.0 * self.dt if epsilon is None else float(epsilon)
        node = int(np.floor((self.T - eps) / self.dt + 1e-9))
        return eps, min(max(node, -1), self.steps)

    def refined(self, factor: int) -> "TimeGrid":
        return TimeGrid(self.T, self.steps * factor)

    def aligns_with(self, times: np.ndarray) -> bool:
        """True when every time in ``times`` falls on a node (within 1e-12
        relative to max(1, T))."""
        if len(times) == 0:
            return True
        j = np.rint(np.asarray(times) / self.dt)
        return bool(np.all(np.abs(np.asarray(times) - j * self.dt) <= 1e-12 * max(1.0, self.T)))


@dataclass(frozen=True)
class MatrixPath:
    """A matrix-valued function of time stored per grid node.

    ``values`` has shape (steps+1, r, c); vectors are stored with c = 1.
    ``symmetry`` is "symmetric" for paths that are symmetric at every node
    (enforced within SYMMETRY_PATH_TOL at construction), else "none".
    """

    grid: TimeGrid
    values: np.ndarray
    symmetry: str = "none"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 2:  # vector path given as (N+1, d)
            vals = vals[:, :, np.newaxis]
        if vals.ndim != 3 or vals.shape[0] != self.grid.steps + 1:
            raise ValueError("values must have shape (steps+1, rows, cols)")
        if self.symmetry not in ("none", "symmetric"):
            raise ValueError("symmetry tag must be 'none' or 'symmetric'")
        if self.symmetry == "symmetric":
            if vals.shape[1] != vals.shape[2]:
                raise ValueError("symmetric tag requires square values")
            drift = np.max(np.abs(vals - vals.transpose(0, 2, 1)))
            if drift > SYMMETRY_PATH_TOL:
                raise ValueError(f"symmetric path violates tolerance: {drift:.3e}")
        object.__setattr__(self, "values", frozen(vals))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[1:]

    def at_node(self, j: int) -> np.ndarray:
        return self.values[j]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    @property
    def initial(self) -> np.ndarray:
        return self.values[0]

    def value(self, t: float) -> np.ndarray:
        return interpolate(self, t)

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        """Values linearly interpolated onto every node of ``grid``.

        Equals ``interpolate`` at each node bit for bit: nodes shared with
        this path's grid take the stored value, the others the same convex
        combination of their two neighbours.
        """
        own = self.grid
        t = grid.nodes
        if t[0] < 0.0 or t[-1] > own.T:
            raise DomainError(f"grid [0, {grid.T}] outside [0, {own.T}]")
        pos = t / own.dt
        j = np.floor(pos).astype(int)
        w = (pos - j)[:, np.newaxis, np.newaxis]
        lo = np.minimum(j, own.steps - 1)
        out = (1.0 - w) * self.values[lo] + w * self.values[lo + 1]
        out[j >= own.steps] = self.values[own.steps]
        jr = np.rint(pos).astype(int)
        exact = (jr <= own.steps) & (t == own.nodes[np.minimum(jr, own.steps)])
        out[exact] = self.values[jr[exact]]
        return out


def interpolate(path: MatrixPath, t: float) -> np.ndarray:
    """Linear interpolation between neighboring nodes; exact at nodes."""
    grid = path.grid
    if not (0.0 <= t <= grid.T):
        raise DomainError(f"t={t} outside [0, {grid.T}]")
    pos = t / grid.dt
    jr = int(round(pos))
    if 0 <= jr <= grid.steps and t == grid.nodes[jr]:
        return path.values[jr]
    j = int(np.floor(pos))
    if j >= grid.steps:
        return path.values[grid.steps]
    w = pos - j
    return (1.0 - w) * path.values[j] + w * path.values[j + 1]


@dataclass(frozen=True)
class OdeSystem:
    """A named-block ODE with terminal data.

    ``layout`` orders the blocks. Each step calls ``coefficients`` once, at its
    midpoint, and each stage ``rhs(t, c, blocks) -> block derivatives`` with
    its stage time and that result; ``rhs`` must be pure and return one array
    per block with unchanged shape. Blocks in ``symmetric`` are projected to
    their symmetric part after each step and have their paths tagged symmetric.

    Terminal blocks may carry one leading batch axis of a common length B:
    the system then stands for B independent members integrated in one
    pass, and ``rhs`` receives and returns (B, *shape) stacks.
    """

    layout: tuple[tuple[str, tuple[int, ...]], ...]
    rhs: Callable[[float, object, Blocks], Blocks]
    terminal: Blocks
    coefficients: Callable[[float], object]
    symmetric: frozenset = frozenset()

    def __post_init__(self):
        for name, shape in self.layout:
            want = (*self.batch, *shape)
            arr = np.asarray(self.terminal[name], dtype=float)
            if arr.shape != want or len(self.batch) > 1:
                raise ValueError(f"terminal block {name} has shape {arr.shape}, expected {want}")

    @property
    def batch(self) -> tuple[int, ...]:
        """() for a single system, (B,) for a batch of B members (read off
        the first block)."""
        name, shape = self.layout[0]
        arr = np.shape(self.terminal[name])
        return arr[:max(len(arr) - len(shape), 0)]


def _check_finite(blocks: Blocks, t_good: float, batched: bool):
    for name, arr in blocks.items():
        # max propagates NaN and inf, so one reduction covers both checks
        if not batched:
            peak, where = np.max(np.abs(arr)), f"block {name}"
        else:
            peaks = np.abs(arr).reshape(len(arr), -1).max(axis=1)
            if np.all(peaks <= BLOWUP_LIMIT):
                continue
            member = int(np.argmax(~(peaks <= BLOWUP_LIMIT)))
            peak, where = peaks[member], f"block {name} of member {member}"
        if not np.isfinite(peak):
            raise DivergedError(t_good, f"{where} non-finite")
        if peak > BLOWUP_LIMIT:
            raise DivergedError(t_good, f"{where} exceeded {BLOWUP_LIMIT:.0e}")


def _eval(fn, t: float, *args):
    """``fn(*args)``, with a singular inverse or failed solve reported at ``t``."""
    try:
        return fn(*args)
    except SingularCoefficientError as err:
        raise (err if err.time is not None else err.at_time(t)) from None
    except np.linalg.LinAlgError as err:
        raise SingularCoefficientError(str(err) or "linear solve", time=t) from None


def integrate_terminal(system: OdeSystem, grid: TimeGrid):
    """Integrate backward from t = T to t = 0 with classical RK4.

    Returns one MatrixPath per block whose node-j value approximates the
    solution at t_j; a batched system returns a list with one such dict per
    member. Aborts with DivergedError (carrying the last good time and, in
    a batch, the member) when any entry exceeds BLOWUP_LIMIT or turns
    non-finite, and with SingularCoefficientError when the right-hand side
    fails to evaluate. Deterministic: identical inputs give bit-identical
    paths.
    """
    names = [name for name, _ in system.layout]
    batch = system.batch
    state: Blocks = {n: np.array(system.terminal[n], dtype=float) for n in names}
    _check_finite(state, grid.T, bool(batch))
    history = {n: np.empty((grid.steps + 1, *state[n].shape)) for n in names}
    for n in names:
        history[n][grid.steps] = state[n]
    h = -grid.dt
    for j in range(grid.steps, 0, -1):
        t = grid.nodes[j]
        t_half = t + 0.5 * h
        t_next = grid.nodes[j - 1]
        c = _eval(system.coefficients, t, t_half)
        k1 = _eval(system.rhs, t, t, c, state)
        k2 = _eval(system.rhs, t_half, t_half, c, {n: state[n] + 0.5 * h * k1[n] for n in names})
        k3 = _eval(system.rhs, t_half, t_half, c, {n: state[n] + 0.5 * h * k2[n] for n in names})
        k4 = _eval(system.rhs, t_next, t_next, c, {n: state[n] + h * k3[n] for n in names})
        for n in names:
            nxt = state[n] + (h / 6.0) * (k1[n] + 2.0 * k2[n] + 2.0 * k3[n] + k4[n])
            if n in system.symmetric:
                nxt = sym(nxt)
            state[n] = nxt
        _check_finite(state, t, bool(batch))
        for n in names:
            history[n][j - 1] = state[n]

    def member_paths(b) -> dict[str, MatrixPath]:
        paths = {}
        for n, shape in system.layout:
            vals = history[n] if b is None else history[n][:, b]
            if len(shape) == 1:
                vals = vals[:, :, np.newaxis]
            paths[n] = MatrixPath(grid, vals, "symmetric" if n in system.symmetric else "none")
        return paths

    if not batch:
        return member_paths(None)
    return [member_paths(b) for b in range(batch[0])]


def constant_path(grid: TimeGrid, matrix: np.ndarray, symmetry: str = "none") -> MatrixPath:
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    vals = np.broadcast_to(mat, (grid.steps + 1, *mat.shape))
    return MatrixPath(grid, np.array(vals), symmetry)


def write_csv(file, header: list[str], rows) -> None:
    """Write a header line, then one line per row of Python numbers.

    Cells are ``repr`` of each number, so floats read back bit for bit;
    convert numpy data with ``tolist()`` first (numpy scalars would print as
    ``np.float64(...)``). ``file`` is a path or an open text file.
    """
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "w", encoding="utf-8") if own else file
    try:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
    finally:
        if own:
            fh.close()


def path_to_csv(path: MatrixPath, file) -> None:
    """Write ``t`` plus row-major entries per node as CSV."""
    r, c = path.shape
    header = ["t"] + [f"e_{i}_{j}" for i in range(r) for j in range(c)]
    table = np.column_stack([path.grid.nodes, path.values.reshape(path.grid.steps + 1, -1)])
    write_csv(file, header, table.tolist())
