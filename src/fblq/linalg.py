"""Small dense linear-algebra helpers used across the solvers.

Everything here operates on plain numpy arrays at desk scale (dimensions of
a few). Conditioning gates use the 1-norm estimate ``||M||_1 * ||M^-1||_1``,
which is cheap and adequate against a 1e10 threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularCoefficientError

COND_GATE = 1e10


def sym(mat: np.ndarray) -> np.ndarray:
    """Symmetric part 0.5*(M + M^T); a (B, d, d) stack is symmetrized per member."""
    return 0.5 * (mat + mat.mT)


def max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def asymmetry(mat: np.ndarray) -> float:
    return max_abs(mat - mat.T)


def min_eig_sym(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a (symmetrized) matrix.

    Dimensions one and two take closed forms, as in gated_inverse: side
    conditions call this at every integration stage.
    """
    d = mat.shape[0]
    if d == 1:
        return float(mat[0, 0])
    if d == 2:
        a, c = float(mat[0, 0]), float(mat[1, 1])
        b = 0.5 * (float(mat[0, 1]) + float(mat[1, 0]))
        return 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
    return float(np.linalg.eigvalsh(sym(mat))[0])


def _norm1(mat: np.ndarray) -> float:
    d = mat.shape[0]
    if d == 1:
        return abs(float(mat[0, 0]))
    if d == 2:
        return max(abs(float(mat[0, 0])) + abs(float(mat[1, 0])),
                   abs(float(mat[0, 1])) + abs(float(mat[1, 1])))
    return float(np.abs(mat).sum(axis=0).max())


def gated_inverse(mat: np.ndarray, name: str, gate: float = COND_GATE):
    """Invert ``mat``, raising SingularCoefficientError past the gate.

    The gate compares the 1-norm condition estimate against ``gate``
    (default 1e10). Dimensions one and two take closed-form fast paths;
    they dominate the integration hot loop. Returns (inverse, estimate).
    A (B, d, d) stack is gated per member and returns one estimate per
    member; the error names the inverse and the first failing member.
    """
    if mat.ndim == 3:
        return _gated_inverse_stack(mat, name, gate)
    d = mat.shape[0]
    if d == 1:
        a = mat[0, 0]
        if a == 0.0 or not np.isfinite(a):
            raise SingularCoefficientError(name, cond=np.inf)
        inv = np.array([[1.0 / a]])
    elif d == 2:
        a, b, c, e = mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]
        det = a * e - b * c
        if det == 0.0 or not np.isfinite(det):
            raise SingularCoefficientError(name, cond=np.inf)
        inv = np.array([[e, -b], [-c, a]]) / det
    else:
        try:
            inv = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            raise SingularCoefficientError(name, cond=np.inf) from None
    cond = _norm1(mat) * _norm1(inv)
    if not np.isfinite(cond) or cond > gate:
        raise SingularCoefficientError(name, cond=cond)
    return inv, cond


def _gated_inverse_stack(mat: np.ndarray, name: str, gate: float):
    """gated_inverse on a (B, d, d) stack: the same closed forms, elementwise."""
    d = mat.shape[-1]
    if d == 1:
        a = mat[:, 0, 0]
        _raise_first(name, (a == 0.0) | ~np.isfinite(a), np.inf)
        inv = 1.0 / mat
    elif d == 2:
        a, b, c, e = mat[:, 0, 0], mat[:, 0, 1], mat[:, 1, 0], mat[:, 1, 1]
        det = a * e - b * c
        _raise_first(name, (det == 0.0) | ~np.isfinite(det), np.inf)
        inv = np.empty_like(mat)   # np.stack of the four entries costs more
        inv[:, 0, 0], inv[:, 0, 1] = e / det, -b / det
        inv[:, 1, 0], inv[:, 1, 1] = -c / det, a / det
    else:
        try:
            inv = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            for k, member in enumerate(mat):   # name the first singular member
                try:
                    np.linalg.inv(member)
                except np.linalg.LinAlgError:
                    raise SingularCoefficientError(name, cond=np.inf, member=k) from None
            raise
    # column-sum 1-norms, as _norm1 per member
    cond = np.abs(mat).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
    _raise_first(name, ~(cond <= gate), cond)   # NaN fails the comparison
    return inv, cond


def _raise_first(name: str, bad: np.ndarray, cond):
    """Raise for the first member flagged in ``bad`` (one flag per member)."""
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularCoefficientError(
            name, cond=float(np.broadcast_to(cond, bad.shape)[k]), member=k)


def as_matrix(value, shape: tuple[int, int]) -> np.ndarray:
    """Coerce scalars / lists to a float matrix of the requested shape."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if shape != (1, 1):
            raise ValueError(f"scalar given where shape {shape} expected")
        arr = arr.reshape(1, 1)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr


def as_vector(value, length: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape != (length,):
        raise ValueError(f"expected vector of length {length}, got shape {arr.shape}")
    return arr


def frozen(arr: np.ndarray) -> np.ndarray:
    """Return a read-only view-safe copy of ``arr``."""
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out
