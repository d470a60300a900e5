"""Problem-file loading.

Problem files are YAML documents with an explicit dimension header and
row-major matrices; coefficients may be given once (constant) or per
breakpoint. The full field reference ships in docs/problem-format.md and is
summarized in the CLI help. Scalars are accepted wherever a 1x1 matrix or a
length-1 vector is expected.
"""

from __future__ import annotations

import numbers
from pathlib import Path

import numpy as np
import yaml

from .errors import ParseError
from .model import COEFF_NAMES, CoefficientFunction, FBLQProblem, coefficient_shapes

_TOP_KEYS = {"dimensions", "horizon", "x0", "xi", "F", "G", "H", "coefficients"}


def _number(value, loc: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParseError(f"expected a number, got {type(value).__name__}", loc)
    return float(value)


def _matrix(value, shape: tuple[int, int], loc: str) -> np.ndarray:
    rows, cols = shape
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if shape != (1, 1):
            raise ParseError(f"scalar given where a {rows}x{cols} matrix is required", loc)
        return np.array([[float(value)]])
    if not isinstance(value, list):
        raise ParseError("matrix must be a list of rows", loc)
    if len(value) != rows:
        raise ParseError(f"expected {rows} rows, got {len(value)}", loc)
    out = np.empty(shape)
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ParseError("matrix row must be a list", f"{loc}[{i}]")
        if len(row) != cols:
            raise ParseError(f"row {i} has length {len(row)}, expected {cols}", f"{loc}[{i}]")
        out[i] = [_number(x, f"{loc}[{i}][{j}]") for j, x in enumerate(row)]
    return out


def _vector(value, length: int, loc: str) -> np.ndarray:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if length != 1:
            raise ParseError(f"scalar given where a length-{length} vector is required", loc)
        return np.array([float(value)])
    if not isinstance(value, list) or any(isinstance(x, list) for x in value):
        raise ParseError("vector must be a flat list of numbers", loc)
    if len(value) != length:
        raise ParseError(f"expected length {length}, got {len(value)}", loc)
    return np.array([_number(x, f"{loc}[{i}]") for i, x in enumerate(value)])


def _coefficient(value, shape: tuple[int, int], loc: str) -> CoefficientFunction:
    if isinstance(value, dict) and "constant" in value:
        return CoefficientFunction.constant(_matrix(value["constant"], shape, f"{loc}.constant"))
    if isinstance(value, dict) and "breakpoints" in value:
        bps = value.get("breakpoints")
        vals = value.get("values")
        if not isinstance(bps, list) or not isinstance(vals, list):
            raise ParseError("piecewise coefficient needs 'breakpoints' and 'values' lists", loc)
        if len(bps) != len(vals):
            raise ParseError(
                f"{len(bps)} breakpoints but {len(vals)} value matrices", loc)
        mats = [_matrix(v, shape, f"{loc}.values[{i}]") for i, v in enumerate(vals)]
        try:
            return CoefficientFunction.piecewise(
                [_number(b, f"{loc}.breakpoints[{i}]") for i, b in enumerate(bps)], mats)
        except ValueError as err:
            raise ParseError(str(err), loc) from None
    # bare matrix or scalar means constant
    return CoefficientFunction.constant(_matrix(value, shape, loc))


def problem_from_dict(doc: dict, source: str = "<dict>") -> FBLQProblem:
    if not isinstance(doc, dict):
        raise ParseError("document root must be a mapping", source)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys {sorted(unknown)}", source)
    dims = doc.get("dimensions")
    if not isinstance(dims, dict) or set(dims) != {"n", "m", "k"}:
        raise ParseError("'dimensions' must map exactly n, m, k", "dimensions")
    for name, value in dims.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ParseError(f"dimension {name} must be a positive integer, got {value!r}",
                             f"dimensions.{name}")
    n, m, k = int(dims["n"]), int(dims["m"]), int(dims["k"])
    if "horizon" not in doc:
        raise ParseError("missing 'horizon'", source)
    T = _number(doc["horizon"], "horizon")
    shapes = coefficient_shapes(n, m, k)
    raw_coeffs = doc.get("coefficients") or {}
    if not isinstance(raw_coeffs, dict):
        raise ParseError("'coefficients' must be a mapping", "coefficients")
    unknown = set(raw_coeffs) - set(COEFF_NAMES)
    if unknown:
        raise ParseError(f"unknown coefficients {sorted(unknown)}", "coefficients")
    coeffs = {}
    for name in COEFF_NAMES:
        if name in raw_coeffs:
            coeffs[name] = _coefficient(raw_coeffs[name], shapes[name],
                                        f"coefficients.{name}")
        else:
            coeffs[name] = CoefficientFunction.constant(np.zeros(shapes[name]))
    try:
        return FBLQProblem(
            n=n, m=m, k=k, T=T,
            F=_matrix(doc["F"], (m, n), "F") if "F" in doc else np.zeros((m, n)),
            G=_matrix(doc["G"], (n, n), "G") if "G" in doc else np.zeros((n, n)),
            H=_matrix(doc["H"], (m, m), "H") if "H" in doc else np.zeros((m, m)),
            xi=_vector(doc["xi"], m, "xi") if "xi" in doc else np.zeros(m),
            x0=_vector(doc["x0"], n, "x0") if "x0" in doc else np.zeros(n),
            **coeffs,
        )
    except ValueError as err:
        raise ParseError(str(err), source) from None


def load_problem(path) -> FBLQProblem:
    """Parse a YAML problem file into an FBLQProblem."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(str(err), str(path)) from None
    try:
        # libyaml's parser where installed; both loaders build the same document
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as err:
        raise ParseError(f"invalid YAML: {err}", str(path)) from None
    return problem_from_dict(doc, source=str(path))
