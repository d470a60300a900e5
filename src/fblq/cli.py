"""Command-line front end: validate, solve, simulate, verify.

Exit codes: 0 success, 1 problem-file parse failure, 2 precondition or
assumption failure, 3 numerical failure (divergence, singular coefficient,
violated side condition), 4 verification failure.

Problem files are YAML with these fields (full reference with shapes in
docs/problem-format.md):

    dimensions: {n, m, k}        horizon: T
    x0, xi                       initial forward state, terminal offset
    F, G, H                      terminal coupling, terminal/initial weights
    coefficients:                A1..A4, B1..B4, C1..C4, D1..D4, each either
                                 a bare row-major matrix (constant) or
                                 {breakpoints: [...], values: [...]} for
                                 right-continuous piecewise-constant data

Omitted entries default to zero; scalars stand in for 1x1 matrices. Every
run writes a manifest (manifest.json) with the problem digest, grid,
schedule, seeds and version so the run can be reproduced bit-exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .decouple import (
    DEFAULT_LIMIT_TOL,
    DEFAULT_SCHEDULE,
    EXACT,
    direct_solver,
    gain_condition_trace,
    identity_suite,
    integrate_direct,
    iterate_limit,
    solve_q_equation,
    transform_from_riccati,
)
from .errors import (
    ConstraintViolatedError,
    DivergedError,
    DomainError,
    FBLQError,
    ParseError,
    PreconditionError,
    SingularCoefficientError,
)
from .feedback import closed_loop_coefficients, evaluate_gain_table, synthesize
from .linalg import min_eig_sym
from .mc import (
    SimConfig,
    cost_identity_check,
    simulate_closed_loop,
    simulate_penalized_forward,
    stationarity_residual,
)
from .model import LEVELS, LEVEL_BOUNDED, LEVEL_STRICT, validate
from .odes import DEFAULT_STEPS as DEFAULT_GRID, TimeGrid, path_to_csv, write_csv
from .problem_io import load_problem
from .riccati import build_augmented, solve_auxiliary_riccati, solve_offset_tilde
from .special import (
    ReductionKind,
    is_reduction,
    solve_blq_reference,
    solve_deterministic_fblq_reference,
    solve_lq_reference,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


@dataclass
class RunManifest:
    command: str
    arguments: dict
    problem_file: str
    problem_sha256: str
    grid_steps: int | None
    tool_version: str = __version__
    wall_clock_s: float = 0.0
    outputs: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def write(self, outdir: Path):
        (outdir / "manifest.json").write_text(
            json.dumps(asdict(self), indent=2, default=str) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as err:
        raise ParseError(str(err), str(path)) from None


def _outdir(args) -> Path:
    base = args.output_dir or os.environ.get("FBLQ_OUTPUT_DIR", "fblq_out")
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args):
    problem = load_problem(args.problem)
    grid = TimeGrid(problem.T, args.grid)
    if not grid.aligns_with(problem.merged_breakpoints):
        raise PreconditionError(
            "grid does not place nodes at every coefficient breakpoint; "
            "choose --grid so T/steps divides each breakpoint")
    return problem, grid


def _output(outdir: Path, name: str, manifest: RunManifest) -> Path:
    """Path of output file ``name``, recorded in the manifest."""
    target = outdir / name
    manifest.outputs.append(str(target))
    return target


def _parse_schedule(text: str):
    if text.strip() == "exact":
        return EXACT
    try:
        entries = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise DomainError(f"bad schedule {text!r}: use 'exact' or comma-separated integers")
    if not entries:
        raise DomainError("empty schedule")
    return entries


def cmd_validate(args) -> int:
    manifest = RunManifest("validate", {"level": args.level}, args.problem,
                           _sha256(Path(args.problem)), None)
    t0 = time.perf_counter()
    problem = load_problem(args.problem)
    report = validate(problem, args.level)
    outdir = _outdir(args)
    lines = [check.describe() for check in report.checks]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} at level {report.level}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    (outdir / "validate.txt").write_text(text, encoding="utf-8")
    manifest.outputs.append(str(outdir / "validate.txt"))
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.write(outdir)
    return EXIT_OK if report.passed else EXIT_PRECONDITION


def _solve_pipeline(problem, grid, method: str, schedule, tol: float):
    """Returns (solution, extras dict) for the requested method."""
    if method == "q":
        q = solve_q_equation(problem, grid)  # validates the strict level itself
        return None, {"q": q}
    level = LEVEL_BOUNDED
    report = validate(problem, level)
    if not report.passed:
        raise PreconditionError(
            "bounded-level validation failed: "
            + "; ".join(c.describe() for c in report.failures()))
    if method == "direct":
        index = EXACT if schedule == EXACT else int(schedule[0])
        return integrate_direct(problem, index, grid), {}
    if method == "riccati":
        if schedule == EXACT:
            raise DomainError("--method riccati needs a finite penalization index")
        i = int(schedule[0])
        aug = build_augmented(problem)
        ric = solve_auxiliary_riccati(aug, problem, i, grid)
        offset = solve_offset_tilde(aug, ric, problem.xi, grid)
        return transform_from_riccati(ric, offset), {"riccati": ric}
    if method == "limit":
        if schedule == EXACT:
            raise DomainError("--method limit needs a numeric schedule")
        sol, diag = iterate_limit(problem, grid, schedule=schedule, tol=tol)
        return sol, {"diagnostics": diag}
    raise DomainError(f"unknown method {method!r}")


def cmd_solve(args) -> int:
    manifest = RunManifest(
        "solve",
        {"method": args.method, "grid": args.grid, "schedule": args.schedule,
         "tol": args.tol},
        args.problem, _sha256(Path(args.problem)), args.grid)
    t0 = time.perf_counter()
    problem, grid = _load(args)
    schedule = _parse_schedule(args.schedule)
    sol, extras = _solve_pipeline(problem, grid, args.method, schedule, args.tol)
    outdir = _outdir(args)
    if args.method == "q":
        q = extras["q"]
        for name, path in (("Q", q.Q), ("K", q.K), ("J", q.J), ("I", q.Iblk),
                           ("phi", q.phi)):
            path_to_csv(path, _output(outdir, f"{name}.csv", manifest))
        manifest.notes.append("blocks: Q = [[Q1, Q2], [Q3, -Q4]]")
    else:
        for name in ("P1", "P2", "P3", "phi1", "phi2"):
            path_to_csv(getattr(sol, name), _output(outdir, f"{name}.csv", manifest))
        manifest.notes.append(f"source: {sol.source.label()}")
        if "riccati" in extras:
            m1 = np.column_stack([grid.nodes, extras["riccati"].m1_min_eig])
            write_csv(_output(outdir, "m1_min_eig.csv", manifest), ["t", "m1_min_eig"],
                      m1.tolist())
        write_csv(_output(outdir, "condition_trace.csv", manifest),
                  ["t", "cond_L1", "cond_L2", "cond_L5"],
                  gain_condition_trace(problem, sol, 65).tolist())
        if "diagnostics" in extras:
            diag = extras["diagnostics"]
            payload = {
                "schedule": list(diag.schedule),
                "doubling_diffs": list(diag.doubling_diffs),
                "consecutive_diffs": list(diag.consecutive_diffs),
                "rate_exponent": diag.rate_exponent,
                "converged": diag.converged,
                "limit_distance": diag.limit_distance,
                "p1_bound": diag.p1_bound,
                "p2_bound": diag.p2_bound,
                "p3_min_eig": diag.p3_min_eig,
                "gain_cond_bound": diag.gain_cond_bound,
            }
            (outdir / "limit_diagnostics.json").write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            manifest.outputs.append(str(outdir / "limit_diagnostics.json"))
            if not diag.converged:
                manifest.notes.append(
                    "penalization schedule exhausted above tolerance; "
                    "limit taken from the exact-terminal solve")
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.write(outdir)
    sys.stdout.write(f"solve ({args.method}) ok; outputs in {outdir}\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    manifest = RunManifest(
        "simulate",
        {"grid": args.grid, "paths": args.paths, "steps": args.steps,
         "seed": args.seed, "store_paths": args.store_paths},
        args.problem, _sha256(Path(args.problem)), args.grid)
    t0 = time.perf_counter()
    problem, grid = _load(args)
    report = validate(problem, LEVEL_BOUNDED)
    if not report.passed:
        raise PreconditionError("bounded-level validation failed")
    steps = args.steps
    if steps % grid.steps != 0:
        raise PreconditionError("--steps must be a multiple of --grid")
    sol = integrate_direct(problem, EXACT, grid)
    sim_grid = TimeGrid(problem.T, steps)
    table = evaluate_gain_table(problem, sol, sim_grid)
    law = synthesize(problem, sol, table=table, xy_form=False)
    sys_cl = closed_loop_coefficients(problem, sol, table=table)
    cfg = SimConfig(steps=steps, paths=args.paths, base_seed=args.seed,
                    store_paths=args.store_paths)
    batch = simulate_closed_loop(problem, sys_cl, sol, law, cfg, table=table)
    aug = build_augmented(problem)
    cost = cost_identity_check(problem, aug, sol, batch)
    stat_max, stat_mean = stationarity_residual(problem, batch, sol)
    outdir = _outdir(args)

    n, m, k = problem.n, problem.m, problem.k
    heads = ["t"]
    heads += [f"mean_X_{q}" for q in range(n)]
    heads += [f"sem_X_{q}" for q in range(n)]
    heads += [f"mean_h_{q}" for q in range(m)]
    heads += [f"sem_h_{q}" for q in range(m)]
    bands = np.column_stack([sim_grid.nodes, batch.node_mean["X"], batch.node_sem["X"],
                             batch.node_mean["h"], batch.node_sem["h"]])
    write_csv(_output(outdir, "trajectory_bands.csv", manifest), heads, bands.tolist())

    heads = ["t"]
    heads += [f"gain_X_{a}_{b}" for a in range(k) for b in range(n)]
    heads += [f"gain_h_{a}_{b}" for a in range(k) for b in range(m)]
    heads += [f"offset_{a}" for a in range(k)]
    gains = np.column_stack([sim_grid.nodes, law.xh_gain_X.reshape(steps + 1, -1),
                             law.xh_gain_h.reshape(steps + 1, -1), law.xh_offset])
    write_csv(_output(outdir, "gains.csv", manifest), heads, gains.tolist())

    payload = cost.as_dict()
    payload.update({"stationarity_max": stat_max, "stationarity_mean": stat_mean})
    if validate(problem, LEVEL_STRICT).passed:
        try:
            sol_i = integrate_direct(problem, 4, grid)
            ric_i = solve_auxiliary_riccati(aug, problem, 4, grid)
            payload["identity_max_residual"] = max(
                identity_suite(problem, sol_i, ric_i, float(t)).max_counted_residual
                for t in np.linspace(0.0, problem.T, 5))
        except FBLQError as err:
            manifest.notes.append(f"identity summary skipped: {err}")
    else:
        manifest.notes.append(
            "identity summary skipped: control weights not strictly positive")
    if args.export_paths:
        names = ("X", "h", "Y", "Z", "u")
        heads = ["path", "t"] + [f"{nm}_{q}" for nm in names
                                 for q in range(batch.trajectories[nm].shape[2])]

        def rows():  # one path at a time: the stored block can be large
            for p in range(min(batch.stored, args.export_paths)):
                path = np.column_stack([sim_grid.nodes,
                                        *(batch.trajectories[nm][p] for nm in names)])
                yield from ([p, *row] for row in path.tolist())
        write_csv(_output(outdir, "paths.csv", manifest), heads, rows())

    text_lines = [f"{k} = {v}" for k, v in payload.items()]
    report_txt = outdir / "cost_report.txt"
    report_txt.write_text("\n".join(text_lines) + "\n", encoding="utf-8")
    (outdir / "cost_report.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    manifest.outputs += [str(report_txt), str(outdir / "cost_report.json")]
    sys.stdout.write("\n".join(text_lines) + "\n")
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.write(outdir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteCheck:
    suite: str
    name: str
    measured: float
    threshold: float
    passed: bool
    op: str = "<="

    def row(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{flag}  {self.suite:<10} {self.name:<42} "
                f"{self.measured:.3e} ({self.op} {self.threshold:.1e})")


def _suite_identities(problem, grid, rng) -> list[SuiteCheck]:
    report = validate(problem, LEVEL_STRICT)
    if not report.passed:
        raise PreconditionError("identities suite needs strictly positive control weights")
    i = 4
    aug = build_augmented(problem)
    sol = integrate_direct(problem, i, grid)
    ric = solve_auxiliary_riccati(aug, problem, i, grid)
    worst = 0.0
    times = rng.uniform(0.0, problem.T, size=20)
    for t in times:
        rep = identity_suite(problem, sol, ric, float(t))
        worst = max(worst, rep.max_counted_residual)
    return [SuiteCheck("identities", f"max residual over {len(times)} times", worst, 1e-8,
                       worst <= 1e-8)]


def _suite_monotone(problem, grid, schedule=(1, 2, 4, 8, 16, 32, 64)) -> list[SuiteCheck]:
    checks = []
    solve = direct_solver(problem, schedule, grid)
    sols = [(i, solve(i)) for i in schedule]
    worst_p3 = worst_p1 = worst_p3_psd = worst_p1_psd = np.inf
    for (ia, sa), (ib, sb) in zip(sols, sols[1:]):
        d3 = sa.P3.values - sb.P3.values
        d1 = sb.P1.values - sa.P1.values
        worst_p3 = min(worst_p3, min(min_eig_sym(v) for v in d3))
        worst_p1 = min(worst_p1, min(min_eig_sym(v) for v in d1))
    for i, s in sols:
        worst_p3_psd = min(worst_p3_psd, min(min_eig_sym(v) for v in s.P3.values))
        worst_p1_psd = min(worst_p1_psd, min(min_eig_sym(v) for v in s.P1.values))
    checks.append(SuiteCheck("monotone", "min eig P3_i - P3_next", worst_p3, -1e-7,
                             worst_p3 >= -1e-7, op=">="))
    checks.append(SuiteCheck("monotone", "min eig P1_next - P1_i", worst_p1, -1e-7,
                             worst_p1 >= -1e-7, op=">="))
    checks.append(SuiteCheck("monotone", "min eig P3_i", worst_p3_psd, -1e-7,
                             worst_p3_psd >= -1e-7, op=">="))
    checks.append(SuiteCheck("monotone", "min eig P1_i", worst_p1_psd, -1e-7,
                             worst_p1_psd >= -1e-7, op=">="))
    return checks


def _suite_rate(problem, grid) -> list[SuiteCheck]:
    _, diag = iterate_limit(problem, grid, schedule=(1, 2, 4, 8, 16, 32, 64))
    rate = diag.rate_exponent if diag.rate_exponent is not None else 0.0
    return [SuiteCheck("rate", "fitted decay exponent", rate, -1.8, rate <= -1.8)]


def _suite_special(problem, grid) -> list[SuiteCheck]:
    kind = is_reduction(problem)
    if kind is None:
        raise PreconditionError("instance matches no degenerate family")
    sol = integrate_direct(problem, EXACT, grid)
    checks = []
    if kind is ReductionKind.INDEFINITE_LQ:
        P_ref, _ = solve_lq_reference(problem, grid)
        dev = float(np.max(np.abs(P_ref.values - sol.P1.values)))
        checks.append(SuiteCheck("special", "forward-LQ reference vs pipeline P1",
                                 dev, 1e-6, dev <= 1e-6))
    elif kind is ReductionKind.BLQ:
        Q4, phi2, _ = solve_blq_reference(problem, grid)
        dev = float(np.max(np.abs(Q4.values - sol.P3.values)))
        dev2 = float(np.max(np.abs(phi2.values - sol.phi2.values)))
        checks.append(SuiteCheck("special", "backward-LQ reference vs pipeline P3",
                                 dev, 1e-6, dev <= 1e-6))
        checks.append(SuiteCheck("special", "backward-LQ reference vs pipeline phi2",
                                 dev2, 1e-6, dev2 <= 1e-6))
    else:
        P1r, P2r, P3r, _, _, _ = solve_deterministic_fblq_reference(problem, grid)
        dev = max(float(np.max(np.abs(P1r.values - sol.P1.values))),
                  float(np.max(np.abs(P2r.values - sol.P2.values))),
                  float(np.max(np.abs(P3r.values - sol.P3.values))))
        checks.append(SuiteCheck("special", "deterministic reference vs pipeline",
                                 dev, 1e-6, dev <= 1e-6))
    return checks


def _suite_optimality(problem, grid, paths: int, seed: int) -> list[SuiteCheck]:
    i = 64
    aug = build_augmented(problem)
    ric = solve_auxiliary_riccati(aug, problem, i, grid)
    offset = solve_offset_tilde(aug, ric, problem.xi, grid)
    cfg = SimConfig(steps=grid.steps, paths=paths, base_seed=seed, store_paths=1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    epsilons = (0.05, 0.1, 0.2)
    controls = [("synthesized",)]
    for _ in range(10):
        direction = rng.standard_normal(aug.control_dim)
        direction /= np.linalg.norm(direction)
        controls += [("perturbed", eps, direction) for eps in epsilons]
    base, *perturbed = simulate_penalized_forward(aug, ric, offset, controls, problem, i, cfg)
    worst_z = -np.inf
    ratio_checks = []
    for first in range(0, len(perturbed), len(epsilons)):
        gaps = {}
        for eps, pert in zip(epsilons, perturbed[first:first + len(epsilons)]):
            diff = pert.samples - base.samples
            mean = float(np.mean(diff))
            stderr = float(np.std(diff, ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
            gaps[eps] = (mean, stderr)
            z = -mean / stderr if stderr > 0 else (0.0 if mean >= 0 else np.inf)
            worst_z = max(worst_z, z)
        for eps in (0.05, 0.1):
            g1, s1 = gaps[eps]
            g2, s2 = gaps[2 * eps]
            if g1 > 5 * s1 and g2 > 5 * s2:
                ratio_checks.append(g2 / g1)
    checks = [SuiteCheck("optimality", "worst -gap/stderr over perturbations",
                         worst_z, 3.0, worst_z <= 3.0)]
    if ratio_checks:
        lo, hi = min(ratio_checks), max(ratio_checks)
        ok = 3.5 <= lo and hi <= 4.5
        checks.append(SuiteCheck("optimality", "gap ratio 2eps/eps within [3.5, 4.5]",
                                 hi, 4.5, ok))
    return checks


def cmd_verify(args) -> int:
    manifest = RunManifest(
        "verify", {"suite": args.suite, "grid": args.grid, "paths": args.paths,
                   "seed": args.seed},
        args.problem, _sha256(Path(args.problem)), args.grid)
    t0 = time.perf_counter()
    problem, grid = _load(args)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    checks: list[SuiteCheck] = []
    wanted = args.suite
    if wanted in ("identities", "all"):
        checks += _suite_identities(problem, grid, rng)
    if wanted in ("monotone", "all"):
        checks += _suite_monotone(problem, grid)
    if wanted in ("rate", "all"):
        checks += _suite_rate(problem, grid)
    if wanted in ("special", "all"):
        if wanted == "all" and is_reduction(problem) is None:
            manifest.notes.append("special suite skipped: no degenerate pattern")
        else:
            checks += _suite_special(problem, grid)
    if wanted in ("optimality", "all"):
        checks += _suite_optimality(problem, grid, args.paths, args.seed)
    lines = [c.row() for c in checks]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    outdir = _outdir(args)
    (outdir / "verify_report.txt").write_text(text, encoding="utf-8")
    (outdir / "verify_report.json").write_text(
        json.dumps([asdict(c) for c in checks], indent=2) + "\n", encoding="utf-8")
    manifest.outputs += [str(outdir / "verify_report.txt"),
                         str(outdir / "verify_report.json")]
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.write(outdir)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblq",
        description="Forward-backward LQ stochastic control: solve and verify.")
    parser.add_argument("--version", action="version", version=f"fblq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="YAML problem file")
        p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                       help="uniform grid steps (default %(default)s)")
        p.add_argument("--output-dir", default=None,
                       help="output directory (default $FBLQ_OUTPUT_DIR or ./fblq_out)")

    p = sub.add_parser("validate", help="check the standing assumptions")
    common(p)
    p.add_argument("--level", choices=LEVELS, default="positive")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute decoupling blocks and offsets")
    common(p)
    p.add_argument("--method", choices=("direct", "riccati", "q", "limit"),
                   default="limit")
    p.add_argument("--schedule", default=",".join(str(i) for i in DEFAULT_SCHEDULE),
                   help="'exact', a single index, or a comma list (default %(default)s)")
    p.add_argument("--tol", type=float, default=DEFAULT_LIMIT_TOL)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="closed-loop Monte Carlo with cost report")
    common(p)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--store-paths", type=int, default=256, dest="store_paths")
    p.add_argument("--export-paths", type=int, default=0,
                   help="write per-path CSV for up to this many stored paths")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", choices=("identities", "monotone", "rate", "special",
                                       "optimality", "all"), default="all")
    p.add_argument("--paths", type=int, default=4000)
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        sys.stderr.write(f"parse error: {err}\n")
        return EXIT_PARSE
    except (PreconditionError, DomainError) as err:
        sys.stderr.write(f"precondition failed: {err}\n")
        return EXIT_PRECONDITION
    except (DivergedError, SingularCoefficientError, ConstraintViolatedError) as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERICAL
    except FBLQError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
