"""fblq benchmark: CLI workloads timed end to end, plus a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload lab_scalar --seed 1 --seconds 30 --trace 0

Each run is one fresh process with one client in a closed loop: it issues
the workload's commands through ``fblq.cli.main([...])`` in-process, one
output directory per command, each command starting when the previous one
returned. One pass over all commands is a round; rounds repeat until the
time is up. A command's time is its slowest round (see ``slowest_times``),
and a metric sums those over its commands. After each round the benchmark
checks every exit code and the output files (see checks.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics of the traced
rounds (see tracing.py) and the tracing overhead, and writes the spans out.
The last line of standard output is the result object; the line before it
records the machine, the settings, the inputs and every failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
PROBLEMS = ROOT / "problems"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KINDS = ("solve", "verify", "simulate", "probe")
SCHEDULE = "1,2,4,8,16,32,64"
MC_SEED = "20240801"   # the CLI's default Monte Carlo seed
SETUP_REPEATS = 7

# Workloads (closed loop, one client; every workload runs all four kinds of
# command so that each end-to-end metric is measured on each of them):
# - lab_scalar: every problems/*.yaml plus seeded 1x1x1 instances through
#   the lab mix (limit sweep, direct and Riccati at index 4, Q and the
#   identities suite where the strict level holds, monotone, special where
#   a degenerate family matches). Block solves take the scalar fast path;
#   the Riccati, offset and Q routes run the generic integrator at d = 2.
#   `fblq verify` with the default `--suite all` exits 2 on forward_lq,
#   backward_lq and indefinite_weight_example (the identities suite refuses
#   them while the special suite is skipped with a note); that defect is
#   left for a later issue and the suite is not run, since a fix would add
#   Monte Carlo work to this workload.
# - lab_matrix: the same mix on seeded instances at general dimensions on a
#   coarser grid: the generic _gains/_p_rhs/_phi_rhs block integrator.
# - mc: simulate on an example and a seeded (2,1,1) instance and the 31-run
#   optimality probe; the cost is per path-step. One long simulation and
#   many short runs sharing seed, increments and gain table.
# The labs also run one small simulate and probe on fixed example files,
# and mc runs exact solves and the identities suite on its inputs.
# The identities suite and the route comparison hold their 1e-8 and 1e-6
# tolerances only on fine enough grids, hence their own grid sizes.

# Failures the program already has: (command label, input file or None for
# every input, start of the failure reason, explanation). These commands run
# and count as failed; ``correct`` stays true only while every failure
# reason of a command is one of these.
KNOWN_DEFECTS = (
    ("solve riccati", "backward_lq.yaml", "exit 3:",
     "P_tilde is singular at t = T because G = F = 0"),
    ("solve riccati", None, "m1_min_eig.csv unreadable:",
     "cmd_solve writes repr() of numpy scalars, e.g. 'np.float64(0.0)', into m1_min_eig.csv"),
)

# Sizes per scale; "tiny" exists for the self-test only.
SIZES = {
    "normal": {
        "lab_scalar": {"grid": 100, "identities_grid": 400, "random_scalar": 3},
        "lab_matrix": {"grid": 40, "identities_grid": 200,
                       "dims": [(2, 1, 1), (1, 2, 1), (4, 3, 2)]},
        "mc": {"grid": 100, "sim_steps": 400, "sim_paths": 8192,
               "probe_grid": 100, "probe_paths": 2000,
               "solve_grid": 400, "identities_grid": 200},
        # Monte Carlo commands the lab workloads carry on fixed example files
        "lab_mc": {"grid": 100, "sim_steps": 200, "sim_paths": 4096,
                   "probe_grid": 100, "probe_paths": 512},
    },
    "tiny": {
        "lab_scalar": {"grid": 50, "identities_grid": 200, "random_scalar": 1},
        "lab_matrix": {"grid": 50, "identities_grid": 200, "dims": [(2, 1, 1)]},
        "mc": {"grid": 50, "sim_steps": 50, "sim_paths": 256,
               "probe_grid": 50, "probe_paths": 128, "solve_grid": 50, "identities_grid": 200},
        "lab_mc": {"grid": 50, "sim_steps": 50, "sim_paths": 256,
                   "probe_grid": 50, "probe_paths": 128},
    },
}


@dataclass
class Command:
    kind: str            # one of KINDS
    label: str           # "<command> <method or suite>"
    problem: Path
    argv: list
    # ("solve", grid, method) | ("routes", direct index, grid)
    # | ("q", exact index, grid, n, m) | ("verify",) | ("simulate",)
    check: tuple = ()

    @property
    def name(self) -> str:
        return f"{self.label} {self.problem.name}"


@dataclass
class Round:
    traced: bool
    total_s: float
    times: list      # per command: wall seconds
    status: list     # per command: failure reasons


def _lab_commands(path: Path, problem, sizes: dict, first: int, fblq) -> list[Command]:
    """The lab command mix on one input; ``first`` is the plan index of its
    first command, so cross-route checks can name their partner."""
    grid = sizes["grid"]
    g = ["--grid", str(grid)]
    p = str(path)
    cmds = [
        Command("solve", "solve limit", path,
                ["solve", p, "--method", "limit", "--schedule", SCHEDULE] + g,
                ("solve", grid, "limit")),
        Command("solve", "solve direct", path,
                ["solve", p, "--method", "direct", "--schedule", "4"] + g,
                ("solve", grid, "direct")),
        Command("solve", "solve riccati", path,
                ["solve", p, "--method", "riccati", "--schedule", "4"] + g,
                ("routes", first + 1, grid)),
    ]
    if fblq.model.validate(problem, fblq.model.LEVEL_STRICT).passed:
        cmds.append(Command("solve", "solve q", path, ["solve", p, "--method", "q"] + g,
                            ("q", first, grid, problem.n, problem.m)))
        cmds.append(Command("verify", "verify identities", path,
                            ["verify", p, "--suite", "identities",
                             "--grid", str(sizes["identities_grid"])], ("verify",)))
    cmds.append(Command("verify", "verify monotone", path,
                        ["verify", p, "--suite", "monotone"] + g, ("verify",)))
    if fblq.special.is_reduction(problem) is not None:
        cmds.append(Command("verify", "verify special", path,
                            ["verify", p, "--suite", "special"] + g, ("verify",)))
    return cmds


def _mc_commands(sim_files: list[Path], probe_file: Path, s: dict) -> list[Command]:
    cmds = []
    for path in sim_files:
        cmds.append(Command("simulate", "simulate", path, [
            "simulate", str(path), "--grid", str(s["grid"]), "--steps", str(s["sim_steps"]),
            "--paths", str(s["sim_paths"]), "--seed", MC_SEED], ("simulate",)))
    cmds.append(Command("probe", "verify optimality", probe_file, [
        "verify", str(probe_file), "--suite", "optimality", "--grid", str(s["probe_grid"]),
        "--paths", str(s["probe_paths"]), "--seed", MC_SEED], ("verify",)))
    return cmds


def build_inputs(workload: str, seed: int, sizes: dict, inputs_dir: Path, fblq):
    """Problem files of a workload (examples plus seeded instances) and
    the records of the generated ones."""
    from inputs import write_instances
    gen = {"load_problem": fblq.problem_io.load_problem, "validate": fblq.model.validate,
           "level": fblq.model.LEVEL_STRICT}
    if workload == "lab_scalar":
        dims = [(1, 1, 1)] * sizes["random_scalar"]
        records = write_instances(seed, dims, inputs_dir, "scalar", **gen)
        files = sorted(PROBLEMS.glob("*.yaml"))
    else:
        dims = sizes["dims"] if workload == "lab_matrix" else [(2, 1, 1)]
        records = write_instances(seed, dims, inputs_dir, workload, **gen)
        files = [PROBLEMS / "fully_coupled_example.yaml",
                 PROBLEMS / "partially_coupled_example.yaml"]
    files += [inputs_dir / r["file"] for r in records]
    missing = [str(f) for f in files if not f.is_file()]
    if missing:
        raise FileNotFoundError(f"workload inputs missing: {missing}")
    return files, records


def build_plan(workload: str, files: list[Path], scale: str, fblq) -> list[Command]:
    sizes = SIZES[scale]
    fully = PROBLEMS / "fully_coupled_example.yaml"
    partially = PROBLEMS / "partially_coupled_example.yaml"
    plan: list[Command] = []
    if workload in ("lab_scalar", "lab_matrix"):
        lab_files = [f for f in files if workload == "lab_scalar" or f.parent != PROBLEMS]
        for path in lab_files:
            problem = fblq.problem_io.load_problem(path)
            plan += _lab_commands(path, problem, sizes[workload], len(plan), fblq)
        plan += _mc_commands([fully], partially, sizes["lab_mc"])
    else:
        s = sizes["mc"]
        generated = [f for f in files if f.parent != PROBLEMS]
        sim_files = [fully] + generated
        for path in sim_files:
            plan.append(Command("solve", "solve exact", path, [
                "solve", str(path), "--method", "direct", "--schedule", "exact",
                "--grid", str(s["solve_grid"])], ("solve", s["solve_grid"], "direct")))
            plan.append(Command("verify", "verify identities", path, [
                "verify", str(path), "--suite", "identities",
                "--grid", str(s["identities_grid"])], ("verify",)))
        plan += _mc_commands(sim_files, partially, s)
    return plan


def check_command(cmd: Command, outdir: Path, outdirs: list[Path]) -> list[str]:
    """Every reason the command's outputs are wrong; empty when right."""
    import checks
    what = cmd.check[0]
    if what == "solve":
        found = [lambda: checks.check_solve(outdir, cmd.check[1], cmd.check[2])]
    elif what == "routes":
        found = [lambda: checks.check_solve(outdir, cmd.check[2], "riccati"),
                 lambda: checks.check_routes_agree(outdirs[cmd.check[1]], outdir)]
    elif what == "q":
        _, exact, grid, n, m = cmd.check
        found = [lambda: checks.check_solve(outdir, grid, "q"),
                 lambda: checks.check_q_blocks(outdirs[exact], outdir, n, m)]
    elif what == "verify":
        found = [lambda: checks.check_verify(outdir)]
    elif what == "simulate":
        found = [lambda: checks.check_simulate(outdir)]
    else:
        raise ValueError(f"unknown check {cmd.check!r}")
    reasons = []
    for check in found:
        try:
            reason = check()
        except (OSError, ValueError, KeyError) as exc:
            reason = f"output unreadable: {exc}"
        if reason:
            reasons.append(reason)
    return reasons


def run_round(plan: list[Command], index: int, workdir: Path, cli, tracer=None,
              after_commands=None) -> Round:
    """Issue every command once, then check the outputs and remove them.

    ``after_commands(outdirs)`` runs between the commands and the checks;
    the self-test uses it to corrupt an output file.
    """
    outroot = workdir / f"round{index}"
    outdirs = [outroot / f"{i:03d}" for i in range(len(plan))]
    times, codes, errors = [], [], []
    t_round = perf_counter()
    for i, cmd in enumerate(plan):
        argv = cmd.argv + ["--output-dir", str(outdirs[i])]
        buf = io.StringIO()
        sid = None
        if tracer is not None:
            tracer.run_id = (index, i)
            sid = tracer.open(f"cli.{cmd.argv[0]}")
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
        except SystemExit as exc:        # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:                # a crash is a failed command, not a stop
            code = "crash"
            buf.write(traceback.format_exc())
        times.append(perf_counter() - t0)
        if sid is not None:
            tracer.close(sid)
            tracer.run_id = None
        codes.append(code)
        errors.append(buf.getvalue().strip().splitlines()[-1:] if code != 0 else [])
    total = perf_counter() - t_round
    if after_commands is not None:
        after_commands(outdirs)
    status = []
    for cmd, outdir, code, err in zip(plan, outdirs, codes, errors):
        if code != 0:
            status.append([f"exit {code}: {' '.join(err)}".strip()])
        else:
            status.append(check_command(cmd, outdir, outdirs))
    shutil.rmtree(outroot, ignore_errors=True)
    return Round(tracer is not None, total, times, status)


def is_known_defect(cmd: Command, reason: str) -> bool:
    return any(label == cmd.label and name in (None, cmd.problem.name)
               and reason.startswith(prefix)
               for label, name, prefix, _ in KNOWN_DEFECTS)


def setup(files: list[Path]) -> float:
    """Import the CLI afresh, then load and validate every input."""
    for name in [m for m in sys.modules if m == "fblq" or m.startswith("fblq.")]:
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("fblq.cli")
    problem_io = importlib.import_module("fblq.problem_io")
    model = importlib.import_module("fblq.model")
    for path in files:
        model.validate(problem_io.load_problem(path), model.LEVEL_STRICT)
    return perf_counter() - t0


def machine_record() -> dict:
    import numpy as np
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None    # as the loaded OpenBLAS reports it
    with contextlib.suppress(OSError, AttributeError, IndexError):
        lib = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                      if "openblas" in line.lower()})[0]
        blas_threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def slowest_times(rounds: list[Round]) -> list[float]:
    """Each command's slowest wall time over the rounds.

    On a shared host the machine's speed drifts: quiet spells of a few
    seconds make the same work up to a third faster, and how much of a run
    they cover varies from run to run. The slowest of a command's rounds
    reads the machine's common state, and across runs it spread two to
    five times less than the command's median round did.
    """
    return [max(times) for times in zip(*(r.times for r in rounds))]


@dataclass
class Bench:
    """A prepared workload: its inputs, plan and set-up times."""
    workdir: Path
    files: list
    records: list
    setup_times: list
    plan: list
    cli: object


def prepare(workload: str, seed: int, trace: int, scale: str) -> Bench:
    """Generate the inputs, time the set-up, and build the command plan."""
    for var in THREAD_VARS:      # before numpy loads; the CLI's --threads stays 1
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "fblq" / "cli.py").is_file() or not PROBLEMS.is_dir():
        raise FileNotFoundError(f"fblq sources or problems/ not found under {ROOT}")
    for path in (str(Path(__file__).resolve().parent), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    workdir = WORK / f"{workload}-s{seed}-t{trace}-{scale}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # generation validates with the program itself
    importlib.import_module("fblq.cli")
    fblq = sys.modules["fblq"]
    files, records = build_inputs(workload, seed, SIZES[scale][workload],
                                  workdir / "inputs", fblq)
    setup_times = [setup(files) for _ in range(SETUP_REPEATS)]
    fblq = sys.modules["fblq"]     # as the last set-up imported it
    plan = build_plan(workload, files, scale, fblq)
    return Bench(workdir, files, records, setup_times, plan, fblq.cli)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("lab_scalar", "lab_matrix", "mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SIZES), default="normal")
    args = parser.parse_args(argv)
    try:
        bench = prepare(args.workload, args.seed, args.trace, args.scale)
    except FileNotFoundError as err:
        sys.stderr.write(f"{err}\n")
        return 2
    plan, workdir, files, records = bench.plan, bench.workdir, bench.files, bench.records
    setup_times = bench.setup_times
    sizes = SIZES[args.scale]

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics, unit_of
        tracer = Tracer()
    rounds: list[Round] = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t0 = perf_counter()
        if traced:
            tracer.install()
        try:
            rounds.append(run_round(plan, len(rounds), workdir, bench.cli,
                                    tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        gc.collect()     # outside the timed commands, so no round inherits garbage
        cycle = perf_counter() - t0
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and perf_counter() - t_start + cycle > args.seconds:
            break
    measured_s = perf_counter() - t_start

    failures = {}
    unexpected = []
    failed = 0
    for rnd in rounds:
        for cmd, reasons in zip(plan, rnd.status):
            failed += bool(reasons)
            for reason in reasons:
                failures.setdefault(cmd.name, set()).add(reason)
                if not is_known_defect(cmd, reason):
                    unexpected.append(f"{cmd.name}: {reason}")
    attempted = len(plan) * len(rounds)
    plain = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]

    if tracer is None:
        slowest = slowest_times(plain)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            **{f"{kind}_s": (sum(t for c, t in zip(plan, slowest) if c.kind == kind), "s")
               for kind in KINDS},
            "total_s": (sum(slowest), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        per_round = [layer_metrics(tracer, {(i, c) for c in range(len(plan))})
                     for i, r in enumerate(rounds) if r.traced]
        metrics = {name: (max(m[name] for m in per_round), unit_of(name))
                   for name in per_round[0]}
        # as many untraced rounds as traced ones, each the one just before
        paired = plain[:len(traced_rounds)]
        overhead = sum(slowest_times(traced_rounds)) - sum(slowest_times(paired))
        metrics["trace.overhead_s"] = (overhead, "s")
        tracer.write(workdir / "spans.json")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": machine_record(),
        "sizes": {k: sizes[k] for k in (args.workload, "lab_mc")
                  if k == args.workload or args.workload != "mc"},
        "cli_threads": "CLI default (1)",
        "inputs": [str(f.relative_to(ROOT)) for f in files], "generated": records,
        "commands": len(plan), "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "measured_s": measured_s,
        "round_total_s": [[r.total_s, r.traced] for r in rounds], "setup_runs_s": setup_times,
        "command_kinds": [c.kind for c in plan],
        "command_s": [r.times for r in rounds],
        "failed_share": failed / attempted,
        "failures": {name: sorted(v) for name, v in failures.items()},
        "unexpected_failures": sorted(set(unexpected)),
        "known_defects": [list(d) for d in KNOWN_DEFECTS],
        "outcomes": {cmd.name: sorted({"; ".join(r.status[i]) or "ok" for r in rounds})
                     for i, cmd in enumerate(plan)},
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
