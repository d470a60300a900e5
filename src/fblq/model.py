"""Problem data for the fully coupled forward-backward LQ control system.

The controlled system couples a forward state X (dim n) and a backward pair
(Y, Z) (dim m each, scalar Brownian motion) through sixteen time-dependent
coefficient matrices, a terminal coupling Y(T) = F X(T) + xi, and a quadratic
cost with weights A4, B4, C4, D4, terminal weight G and initial weight H.

Coefficients are constant or piecewise-constant in time: this keeps problem
files serializable and makes the boundedness and positivity checks exact
(inspect each piece). Matrices declared symmetric are accepted when
max|M - M^T| <= 1e-9 * (1 + max|M|) and are explicitly symmetrized on
ingestion so asymmetry cannot drift into the ODE integration.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularCoefficientError
from .linalg import as_matrix, as_vector, asymmetry, frozen, max_abs, min_eig_sym

SYMMETRY_TOL = 1e-9
PSD_EIG_TOL = -1e-10   # semidefinite: smallest eigenvalue above this
PD_EIG_TOL = 1e-8      # definite: smallest eigenvalue above this

LEVEL_BOUNDED = "bounded"
LEVEL_POSITIVE = "positive"
LEVEL_STRICT = "strictly_positive_control"
LEVELS = (LEVEL_BOUNDED, LEVEL_POSITIVE, LEVEL_STRICT)

COEFF_NAMES = (
    "A1", "A2", "A3", "A4",
    "B1", "B2", "B3", "B4",
    "C1", "C2", "C3", "C4",
    "D1", "D2", "D3", "D4",
)
SYMMETRIC_COEFFS = ("A4", "B4", "C4", "D4")


def coefficient_shapes(n: int, m: int, k: int) -> dict[str, tuple[int, int]]:
    """Shape of each named coefficient for dimensions (n, m, k)."""
    return {
        "A1": (n, n), "A2": (n, n), "A3": (m, n), "A4": (n, n),
        "B1": (n, m), "B2": (n, m), "B3": (m, m), "B4": (m, m),
        "C1": (n, m), "C2": (n, m), "C3": (m, m), "C4": (m, m),
        "D1": (n, k), "D2": (n, k), "D3": (m, k), "D4": (k, k),
    }


def active_piece(breakpoints: np.ndarray, t):
    """Index of the piece active at ``t``, or an index array for an array of
    times: piece j covers [breakpoints[j], breakpoints[j+1]), so lookups are
    right-continuous, and the last piece runs through the horizon.

    This is the one piece rule; every coefficient lookup goes through it.
    """
    if isinstance(t, np.ndarray):
        return np.maximum(np.searchsorted(breakpoints, t, side="right") - 1, 0)
    return max(bisect.bisect_right(breakpoints, t) - 1, 0)


@dataclass(frozen=True)
class CoefficientFunction:
    """A matrix-valued, right-continuous, piecewise-constant function of time.

    ``breakpoints`` starts at 0 and is strictly increasing; piece j is active
    on [breakpoints[j], breakpoints[j+1]). ``values`` stacks one matrix per
    piece.
    """

    breakpoints: np.ndarray  # (p,)
    values: np.ndarray       # (p, r, c)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError("values must stack matrices: shape (pieces, rows, cols)")
        if bp.shape[0] != vals.shape[0]:
            raise ValueError("one value matrix per breakpoint required")
        if bp.shape[0] == 0:
            raise ValueError("at least one piece required")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ValueError("breakpoints and values must be finite")
        object.__setattr__(self, "breakpoints", frozen(bp))
        object.__setattr__(self, "values", frozen(vals))

    @classmethod
    def constant(cls, matrix) -> "CoefficientFunction":
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        return cls(np.zeros(1), mat[np.newaxis, :, :])

    @classmethod
    def piecewise(cls, breakpoints, values) -> "CoefficientFunction":
        vals = np.stack([np.atleast_2d(np.asarray(v, dtype=float)) for v in values])
        return cls(np.asarray(breakpoints, dtype=float), vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[1:]

    def value_at(self, t: float) -> np.ndarray:
        return self.values[active_piece(self.breakpoints, t)]

    def is_zero(self, tol: float = 0.0) -> bool:
        return max_abs(self.values) <= tol

    def map_values(self, fn) -> "CoefficientFunction":
        return CoefficientFunction(self.breakpoints, np.stack([fn(v) for v in self.values]))


def _symmetrize_matrix_if_close(mat: np.ndarray) -> np.ndarray:
    """Symmetrize ``mat`` when it is within the declared symmetry tolerance.

    A matrix beyond tolerance is kept as-is so validate() can report it.
    """
    if asymmetry(mat) <= SYMMETRY_TOL * (1.0 + max_abs(mat)):
        return 0.5 * (mat + mat.T)
    return mat


@dataclass(frozen=True)
class CoeffSnapshot:
    """The sixteen coefficient matrices evaluated at one time."""

    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B3: np.ndarray
    B4: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    C3: np.ndarray
    C4: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    D3: np.ndarray
    D4: np.ndarray


@dataclass(frozen=True)
class FBLQProblem:
    """One fully specified problem instance; immutable after construction."""

    n: int
    m: int
    k: int
    T: float
    A1: CoefficientFunction
    A2: CoefficientFunction
    A3: CoefficientFunction
    A4: CoefficientFunction
    B1: CoefficientFunction
    B2: CoefficientFunction
    B3: CoefficientFunction
    B4: CoefficientFunction
    C1: CoefficientFunction
    C2: CoefficientFunction
    C3: CoefficientFunction
    C4: CoefficientFunction
    D1: CoefficientFunction
    D2: CoefficientFunction
    D3: CoefficientFunction
    D4: CoefficientFunction
    F: np.ndarray   # (m, n)
    G: np.ndarray   # (n, n) symmetric
    H: np.ndarray   # (m, m) symmetric
    xi: np.ndarray  # (m,) deterministic terminal offset
    x0: np.ndarray  # (n,)

    def __post_init__(self):
        if min(self.n, self.m, self.k) < 1:
            raise ValueError("dimensions n, m, k must be positive")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError("horizon T must be positive and finite")
        shapes = coefficient_shapes(self.n, self.m, self.k)
        for name in COEFF_NAMES:
            cf: CoefficientFunction = getattr(self, name)
            if cf.shape != shapes[name]:
                raise ValueError(f"{name} has shape {cf.shape}, expected {shapes[name]}")
            if cf.breakpoints[-1] >= self.T:
                raise ValueError(f"{name}: breakpoints must lie in [0, T)")
            if name in SYMMETRIC_COEFFS:
                object.__setattr__(self, name, cf.map_values(_symmetrize_matrix_if_close))
        object.__setattr__(self, "F", frozen(as_matrix(self.F, (self.m, self.n))))
        object.__setattr__(
            self, "G", frozen(_symmetrize_matrix_if_close(as_matrix(self.G, (self.n, self.n))))
        )
        object.__setattr__(
            self, "H", frozen(_symmetrize_matrix_if_close(as_matrix(self.H, (self.m, self.m))))
        )
        object.__setattr__(self, "xi", frozen(as_vector(self.xi, self.m)))
        object.__setattr__(self, "x0", frozen(as_vector(self.x0, self.n)))
        for name in ("F", "G", "H", "xi", "x0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def from_constants(cls, n: int, m: int, k: int, T: float, x0=None, xi=None,
                       F=None, G=None, H=None, **coeffs) -> "FBLQProblem":
        """Build a constant-coefficient problem; unspecified entries are zero."""
        shapes = coefficient_shapes(n, m, k)
        unknown = set(coeffs) - set(COEFF_NAMES)
        if unknown:
            raise ValueError(f"unknown coefficients: {sorted(unknown)}")
        built = {}
        for name in COEFF_NAMES:
            raw = coeffs.get(name)
            if raw is None:
                mat = np.zeros(shapes[name])
            elif isinstance(raw, CoefficientFunction):
                built[name] = raw
                continue
            else:
                mat = as_matrix(np.atleast_2d(np.asarray(raw, dtype=float)), shapes[name])
            built[name] = CoefficientFunction.constant(mat)
        return cls(
            n=n, m=m, k=k, T=float(T),
            F=np.zeros((m, n)) if F is None else np.atleast_2d(np.asarray(F, dtype=float)),
            G=np.zeros((n, n)) if G is None else np.atleast_2d(np.asarray(G, dtype=float)),
            H=np.zeros((m, m)) if H is None else np.atleast_2d(np.asarray(H, dtype=float)),
            xi=np.zeros(m) if xi is None else xi,
            x0=np.zeros(n) if x0 is None else x0,
            **built,
        )

    @cached_property
    def merged_breakpoints(self) -> np.ndarray:
        """Union of all coefficient breakpoints (always contains 0)."""
        pts = np.unique(np.concatenate([getattr(self, c).breakpoints for c in COEFF_NAMES]))
        return frozen(pts)

    @cached_property
    def _piece_snapshots(self) -> tuple[CoeffSnapshot, ...]:
        return tuple(CoeffSnapshot(**{c: getattr(self, c).value_at(t) for c in COEFF_NAMES})
                     for t in self.merged_breakpoints)

    @cached_property
    def _derived(self) -> dict:
        return {}

    def derived(self, build, t):
        """``build(snapshot)`` for the piece active at ``t``, built on first use.

        For an array of times ``build`` must return a dataclass of matrices;
        the result stacks each field with one entry per time. The pieces are
        built in time order, and a SingularCoefficientError is reported at
        the first time in the failing piece.
        """
        idx = active_piece(self.merged_breakpoints, t)
        if not isinstance(t, np.ndarray):
            return self._built(build, idx)
        used, where = np.unique(idx, return_inverse=True)
        built = []
        for p in used.tolist():
            try:
                built.append(self._built(build, p))
            except SingularCoefficientError as err:
                raise err.at_time(float(t[np.argmax(idx == p)])) from None
        return type(built[0])(**{f.name: np.stack([getattr(b, f.name) for b in built])[where]
                                 for f in fields(built[0])})

    def _built(self, build, p: int):
        try:
            return self._derived[build, p]
        except KeyError:
            out = self._derived[build, p] = build(self._piece_snapshots[p])
            return out

    def snapshot(self, t: float) -> CoeffSnapshot:
        """Coefficients at ``t`` without the domain check (internal); an array
        of times gives one matrix per time in every field."""
        return self.derived(_coefficients, t)

    def on_grid(self, grid) -> CoeffSnapshot:
        """Snapshot whose fields stack one matrix per node of ``grid``.

        Each field has shape (steps+1, r, c); node j holds
        ``snapshot(grid.nodes[j])``.
        """
        return self.snapshot(grid.nodes)


def _coefficients(s: CoeffSnapshot) -> CoeffSnapshot:
    return s


def eval_coeffs(problem: FBLQProblem, t: float) -> CoeffSnapshot:
    """All sixteen coefficients at time ``t``.

    Right-continuous at breakpoints; at t = T the value is that of the last
    piece (left-continuous at the horizon). Pure: repeated calls return the
    same (read-only) arrays.
    """
    if not (0.0 <= t <= problem.T):
        raise DomainError(f"t={t} outside [0, {problem.T}]")
    return problem.snapshot(t)


@dataclass(frozen=True)
class ValidationCheck:
    assumption: str       # "bounded" | "positive" | "strictly_positive_control"
    subject: str          # matrix name
    requirement: str      # e.g. "symmetric", "psd", "pd"
    passed: bool
    time: float | None = None   # offending breakpoint time, if time-dependent
    value: float | None = None  # measured asymmetry or smallest eigenvalue

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        where = "" if self.time is None else f" at t={self.time:.6g}"
        meas = "" if self.value is None else f" (measured {self.value:.3e})"
        return f"[{status}] {self.subject} {self.requirement}{where}{meas}"


@dataclass(frozen=True)
class ValidationReport:
    level: str
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]


def _worst_piece(cf: CoefficientFunction, metric) -> tuple[float, float]:
    """(worst metric value, time of the worst piece); higher is worse."""
    worst, when = -np.inf, 0.0
    for t, v in zip(cf.breakpoints, cf.values):
        val = metric(v)
        if val > worst:
            worst, when = val, float(t)
    return worst, when


def _symmetry_checks(problem: FBLQProblem) -> list[ValidationCheck]:
    checks = []
    for name in SYMMETRIC_COEFFS:
        cf = getattr(problem, name)
        rel_asym, when = _worst_piece(cf, lambda v: asymmetry(v) / (1.0 + max_abs(v)))
        checks.append(ValidationCheck(
            LEVEL_BOUNDED, name, "symmetric", rel_asym <= SYMMETRY_TOL, when, rel_asym))
    for name in ("G", "H"):
        mat = getattr(problem, name)
        rel = asymmetry(mat) / (1.0 + max_abs(mat))
        checks.append(ValidationCheck(LEVEL_BOUNDED, name, "symmetric", rel <= SYMMETRY_TOL, None, rel))
    return checks


def _eig_check(level: str, subject: str, requirement: str, min_eig: float,
               time: float | None) -> ValidationCheck:
    thr = PD_EIG_TOL if requirement == "positive definite" else PSD_EIG_TOL
    return ValidationCheck(level, subject, requirement, min_eig >= thr, time, min_eig)


def _coeff_eig_check(level: str, cf: CoefficientFunction, subject: str,
                     requirement: str) -> ValidationCheck:
    worst, when = _worst_piece(cf, lambda v: -min_eig_sym(v))
    return _eig_check(level, subject, requirement, -worst, when)


def validate(problem: FBLQProblem, level: str = LEVEL_POSITIVE) -> ValidationReport:
    """Check the standing assumptions at the requested level.

    ``bounded`` checks shape/symmetry only (shapes are enforced at
    construction, so the runtime content is the symmetry tolerances).
    ``positive`` additionally requires A4(t), B4(t) and H positive
    semidefinite and G positive definite. ``strictly_positive_control``
    additionally requires C4(t) semidefinite and D4(t) definite.

    Failures are report entries, never exceptions.
    """
    if level not in LEVELS:
        raise DomainError(f"unknown validation level {level!r}")
    checks = _symmetry_checks(problem)
    if level in (LEVEL_POSITIVE, LEVEL_STRICT):
        checks.append(_coeff_eig_check(LEVEL_POSITIVE, problem.A4, "A4", "positive semidefinite"))
        checks.append(_coeff_eig_check(LEVEL_POSITIVE, problem.B4, "B4", "positive semidefinite"))
        checks.append(_eig_check(LEVEL_POSITIVE, "G", "positive definite",
                                 min_eig_sym(problem.G), None))
        checks.append(_eig_check(LEVEL_POSITIVE, "H", "positive semidefinite",
                                 min_eig_sym(problem.H), None))
    if level == LEVEL_STRICT:
        checks.append(_coeff_eig_check(LEVEL_STRICT, problem.C4, "C4", "positive semidefinite"))
        checks.append(_coeff_eig_check(LEVEL_STRICT, problem.D4, "D4", "positive definite"))
    return ValidationReport(level, tuple(checks))
