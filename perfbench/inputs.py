"""Seeded problem instances, written as YAML problem files.

The program under test only ever receives files: every instance is drawn
from the workload seed, written in the format of ``docs/problem-format.md``
and read back through ``fblq.problem_io.load_problem``. An instance is
redrawn only when the program's own strict-level ``validate`` rejects it;
a command or output check that fails later never causes a redraw.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

MAX_REDRAWS = 100


def _scalar_doc(rng: np.random.Generator) -> dict:
    """Scalar instance: every channel active, strictly positive weights."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    ranges = {
        "A1": (-0.4, 0.4), "A2": (-0.4, 0.4), "A3": (-0.4, 0.4), "A4": (0.0, 1.0),
        "B1": (-0.4, 0.4), "B2": (-0.4, 0.4), "B3": (-0.4, 0.4), "B4": (0.0, 1.0),
        "C1": (-0.4, 0.4), "C2": (-0.3, 0.3), "C3": (-0.4, 0.4), "C4": (0.3, 1.0),
        "D1": (-0.6, 0.6), "D2": (-0.8, 0.8), "D3": (-0.6, 0.6), "D4": (0.4, 1.2),
    }
    return {
        "dimensions": {"n": 1, "m": 1, "k": 1},
        "horizon": 1.0,
        "x0": [u(-1.0, 1.0)],
        "xi": [u(-1.0, 1.0)],
        "F": [[u(-0.8, 0.8)]],
        "G": [[u(0.5, 1.5)]],
        "H": [[u(0.0, 0.8)]],
        "coefficients": {name: [[u(lo, hi)]] for name, (lo, hi) in ranges.items()},
    }


def _matrix_doc(rng: np.random.Generator, n: int, m: int, k: int) -> dict:
    """General-dimension instance: definite control weights, semidefinite
    state weights, moderate couplings. Entries shrink with 1/sqrt(dimension)
    so that matrix norms, and with them the stiffness of the block
    equations, stay comparable from 1x1x1 to 4x3x2."""
    def mat(r, c, s=0.35):
        return rng.uniform(-s, s, (r, c)) / np.sqrt(max(r, c))

    def spd(d, lo=0.4):
        a = rng.uniform(-0.5, 0.5, (d, d)) / np.sqrt(d)
        return a @ a.T + lo * np.eye(d)

    def psd(d):
        a = rng.uniform(-0.6, 0.6, (d, d)) / np.sqrt(d)
        return a @ a.T

    coeffs = {
        "A1": mat(n, n), "A2": mat(n, n), "A3": mat(m, n), "A4": psd(n),
        "B1": mat(n, m), "B2": mat(n, m, 0.25), "B3": mat(m, m), "B4": psd(m),
        "C1": mat(n, m), "C2": mat(n, m, 0.2), "C3": mat(m, m), "C4": spd(m),
        "D1": mat(n, k, 0.5), "D2": mat(n, k, 0.5), "D3": mat(m, k, 0.5), "D4": spd(k),
    }
    return {
        "dimensions": {"n": n, "m": m, "k": k},
        "horizon": 1.0,
        "x0": rng.uniform(-1.0, 1.0, n).tolist(),
        "xi": rng.uniform(-0.6, 0.6, m).tolist(),
        "F": mat(m, n, 0.6).tolist(),
        "G": spd(n).tolist(),
        "H": psd(m).tolist(),
        "coefficients": {name: np.asarray(v).tolist() for name, v in coeffs.items()},
    }


def write_instances(seed: int, dims: list[tuple[int, int, int]], outdir: Path,
                    prefix: str, load_problem, validate, level: str) -> list[dict]:
    """Draw one instance per entry of ``dims`` and write it to ``outdir``.

    ``load_problem``, ``validate`` and ``level`` come from the program, so
    acceptance is decided by its own strict-level check. Returns one record
    per file with its path, dimensions, sub-seed and redraw count.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    for index, (n, m, k) in enumerate(dims):
        subseed = ((int(seed) % (1 << 48)) << 16) + index
        rng = np.random.Generator(np.random.Philox(key=subseed))
        path = outdir / f"{prefix}{index}_{n}x{m}x{k}.yaml"
        for redraws in range(MAX_REDRAWS):
            doc = _scalar_doc(rng) if (n, m, k) == (1, 1, 1) else _matrix_doc(rng, n, m, k)
            path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
            if validate(load_problem(path), level).passed:
                break
        else:
            raise RuntimeError(f"no {n}x{m}x{k} instance passed {level} "
                               f"in {MAX_REDRAWS} draws (seed {seed})")
        records.append({"file": path.name, "dims": [n, m, k],
                        "subseed": subseed, "redraws": redraws})
    return records
