"""Run the same fblq commands on two checkouts and compare what they write.

Usage, from any directory:

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are repository roots. The command matrix is the example
files of PARENT's ``problems/`` plus the seeded (2,1,1) and (4,3,2)
instances of PARENT's ``perfbench/inputs.py`` (seed 11), each under seven
commands: ``solve`` with ``direct exact``, ``limit``, ``riccati 4`` and
``q`` at grid 100, ``simulate`` at grid 50, and ``verify`` with every
suite at grid 100 and with the identities suite at grid 200. Both sides
read the same problem files; each command runs in its own subprocess with
that side's ``src`` on PYTHONPATH.

Output files are compared byte for byte; ``manifest.json`` is compared
without ``wall_clock_s`` and ``outputs``. For each differing file the
largest absolute difference over its numbers is printed when both files
hold the same layout of numbers. The exit status is 1 when any command's
exit code differs between the sides, and 0 otherwise: files that differ at
rounding level are reported, not failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 11
DIMS = [(2, 1, 1), (4, 3, 2)]
COMMANDS = {   # label -> arguments after the problem file
    "solve-direct": ["solve", "--method", "direct", "--schedule", "exact", "--grid", "100"],
    "solve-limit": ["solve", "--method", "limit", "--grid", "100"],
    "solve-riccati": ["solve", "--method", "riccati", "--schedule", "4", "--grid", "100"],
    "solve-q": ["solve", "--method", "q", "--grid", "100"],
    "simulate": ["simulate", "--grid", "50", "--steps", "200", "--paths", "1000",
                 "--export-paths", "2"],
    "verify-all": ["verify", "--suite", "all", "--grid", "100", "--paths", "200"],
    "verify-identities": ["verify", "--suite", "identities", "--grid", "200"],
}
NUMBER = re.compile(r"[-+]?(?:Infinity|inf|NaN|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
MANIFEST_SKIP = ("wall_clock_s", "outputs")


def write_problems(parent: Path, target: Path) -> list[Path]:
    """Copy the examples and draw the seeded instances into ``target``.

    The instances are accepted by PARENT's own strict-level check, run in a
    subprocess on PARENT's ``src``.
    """
    target.mkdir(parents=True, exist_ok=True)
    files = []
    for path in sorted((parent / "problems").glob("*.yaml")):
        shutil.copyfile(path, target / path.name)
        files.append(target / path.name)
    script = (
        "import importlib.util, json, sys\n"
        "from pathlib import Path\n"
        "from fblq.model import LEVEL_STRICT, validate\n"
        "from fblq.problem_io import load_problem\n"
        "spec = importlib.util.spec_from_file_location('inputs', sys.argv[1])\n"
        "inputs = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(inputs)\n"
        "records = inputs.write_instances(int(sys.argv[2]), json.loads(sys.argv[3]),\n"
        "                                 Path(sys.argv[4]), 'seeded', load_problem,\n"
        "                                 validate, LEVEL_STRICT)\n"
        "print(json.dumps([r['file'] for r in records]))\n")
    out = subprocess.run(
        [sys.executable, "-c", script, str(parent / "perfbench" / "inputs.py"), str(SEED),
         json.dumps(DIMS), str(target)],
        env=side_env(parent), check=True, capture_output=True, text=True)
    files += [target / name for name in json.loads(out.stdout.splitlines()[-1])]
    return files


def side_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("FBLQ_OUTPUT_DIR", None)
    return env


def run_side(root: Path, problem: Path, argv: list[str], outdir: Path) -> int:
    command, *options = argv
    return subprocess.run(
        [sys.executable, "-m", "fblq.cli", command, str(problem), *options,
         "--output-dir", str(outdir)],
        env=side_env(root), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def numbers(path: Path) -> list[float] | None:
    """Every number in a file, in order; None when it holds none."""
    text = path.read_text(encoding="utf-8")
    if path.name == "manifest.json":
        text = manifest_text(path)
    found = [float(tok) for tok in NUMBER.findall(text)]
    return found or None


def manifest_text(path: Path) -> str:
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in MANIFEST_SKIP:
        record.pop(key, None)
    return json.dumps(record, indent=2, sort_keys=True)


def compare_file(a: Path, b: Path) -> str | None:
    """None when the files agree, else a one-line description."""
    if a.name == "manifest.json":
        same = manifest_text(a) == manifest_text(b)
    else:
        same = a.read_bytes() == b.read_bytes()
    if same:
        return None
    va, vb = numbers(a), numbers(b)
    if va is None or vb is None or len(va) != len(vb):
        return "differs (not the same layout of numbers)"
    x, y = np.array(va), np.array(vb)
    both_nan = np.isnan(x) & np.isnan(y)
    same_inf = np.isinf(x) & (x == y)
    diff = np.where(both_nan | same_inf, 0.0, np.abs(x - y))
    return f"max abs diff {float(np.max(diff)):.3e}"


def compare_dirs(a: Path, b: Path) -> list[str]:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    report = []
    for name in names:
        if not (a / name).exists() or not (b / name).exists():
            side = "parent" if (a / name).exists() else "change"
            report.append(f"{name}: only in {side}")
            continue
        verdict = compare_file(a / name, b / name)
        if verdict:
            report.append(f"{name}: {verdict}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="fblq-compare-") as tmp:
        work = Path(tmp)
        problems = write_problems(parent, work / "problems")
        exit_mismatch = differing = 0
        for problem in problems:
            for label, command in COMMANDS.items():
                name = f"{problem.stem} {label}"
                out = {side: work / "out" / side / problem.stem / label
                       for side in ("parent", "change")}
                codes = [run_side(root, problem, command, out[side])
                         for side, root in (("parent", parent), ("change", change))]
                for d in out.values():
                    d.mkdir(parents=True, exist_ok=True)
                report = compare_dirs(out["parent"], out["change"])
                status = "same" if not report else "DIFFERS"
                if codes[0] != codes[1]:
                    exit_mismatch += 1
                    status = "EXIT CODES DIFFER"
                differing += bool(report)
                print(f"{name:<50} exit {codes[0]}/{codes[1]}  {status}", flush=True)
                for line in report:
                    print(f"    {line}", flush=True)
        total = len(problems) * len(COMMANDS)
        print(f"{total} commands: {total - differing} with identical files, "
              f"{differing} with differing files, {exit_mismatch} with differing exit codes")
    return 1 if exit_mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
