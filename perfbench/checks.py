"""Output checks on the files the CLI writes, at the acceptance tolerances.

Each check reads only what a command left in its output directory and
returns ``None`` when the output is right, else a one-line reason. A
command whose check fails counts as failed, like one that exits nonzero.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROUTE_TOL = 1e-6        # direct vs Riccati transform (criterion 03)
Q_BLOCK_TOL = 1e-6      # Q blocks vs exact direct blocks (criterion 07)
AGREEMENT_Z_MAX = 3.0   # Monte Carlo vs analytic cost (criterion 08)
BLOCKS = ("P1", "P2", "P3", "phi1", "phi2")

EXPECTED_FILES = {
    "solve": ("manifest.json", "condition_trace.csv") + tuple(f"{b}.csv" for b in BLOCKS),
    "solve_q": ("manifest.json", "Q.csv", "K.csv", "J.csv", "I.csv", "phi.csv"),
    "verify": ("manifest.json", "verify_report.txt", "verify_report.json"),
    "simulate": ("manifest.json", "cost_report.json", "trajectory_bands.csv", "gains.csv"),
}


def read_csv(path: Path) -> np.ndarray:
    """Values of a CLI CSV as (rows, columns), the leading ``t`` column dropped."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:]


def _files_present(outdir: Path, kind: str) -> str | None:
    missing = [name for name in EXPECTED_FILES[kind] if not (outdir / name).is_file()]
    return f"missing {', '.join(missing)}" if missing else None


def _finite_csvs(outdir: Path, grid: int) -> str | None:
    for path in sorted(outdir.glob("*.csv")):
        try:
            vals = read_csv(path)
        except ValueError as err:
            return f"{path.name} unreadable: {err}"
        if vals.shape[0] != grid + 1 and path.name != "condition_trace.csv":
            return f"{path.name} has {vals.shape[0]} rows, expected {grid + 1}"
        if not np.all(np.isfinite(vals)):
            return f"{path.name} holds non-finite values"
    return None


def check_solve(outdir: Path, grid: int, method: str) -> str | None:
    kind = "solve_q" if method == "q" else "solve"
    return _files_present(outdir, kind) or _finite_csvs(outdir, grid)


def check_routes_agree(direct_dir: Path, riccati_dir: Path) -> str | None:
    """Direct and Riccati-transform blocks at one index agree (criterion 03)."""
    for block in BLOCKS:
        dev = float(np.max(np.abs(read_csv(direct_dir / f"{block}.csv")
                                  - read_csv(riccati_dir / f"{block}.csv"))))
        if not dev <= ROUTE_TOL:
            return f"direct vs riccati {block} deviate by {dev:.2e} > {ROUTE_TOL:.0e}"
    return None


def check_q_blocks(exact_dir: Path, q_dir: Path, n: int, m: int) -> str | None:
    """Q = [[Q1, Q2], [Q3, -Q4]] matches (P1, P2', P2, P3) of the exact solve
    (criterion 07)."""
    d = n + m
    q = read_csv(q_dir / "Q.csv").reshape(-1, d, d)
    p1 = read_csv(exact_dir / "P1.csv").reshape(-1, n, n)
    p2 = read_csv(exact_dir / "P2.csv").reshape(-1, m, n)
    p3 = read_csv(exact_dir / "P3.csv").reshape(-1, m, m)
    pairs = {
        "Q1-P1": (q[:, :n, :n], p1),
        "Q2-P2'": (q[:, :n, n:], p2.transpose(0, 2, 1)),
        "Q3-P2": (q[:, n:, :n], p2),
        "Q4-P3": (-q[:, n:, n:], p3),
    }
    for name, (a, b) in pairs.items():
        dev = float(np.max(np.abs(a - b)))
        if not dev <= Q_BLOCK_TOL:
            return f"{name} deviates by {dev:.2e} > {Q_BLOCK_TOL:.0e}"
    return None


def check_verify(outdir: Path) -> str | None:
    """Every line of the verify report reads PASS."""
    missing = _files_present(outdir, "verify")
    if missing:
        return missing
    lines = (outdir / "verify_report.txt").read_text(encoding="utf-8").splitlines()
    if not lines:
        return "empty verify report"
    bad = [line for line in lines if not line.startswith("PASS")]
    return f"{len(bad)} of {len(lines)} report lines not PASS" if bad else None


def check_simulate(outdir: Path) -> str | None:
    """Cost report present and the cost identity holds (criterion 08)."""
    missing = _files_present(outdir, "simulate")
    if missing:
        return missing
    report = json.loads((outdir / "cost_report.json").read_text(encoding="utf-8"))
    z = report.get("agreement_z")
    if z is None or not z <= AGREEMENT_Z_MAX:
        return f"agreement_z {z} > {AGREEMENT_Z_MAX}"
    return None
