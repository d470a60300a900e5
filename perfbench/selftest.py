"""Self-test of the benchmark at tiny sizes, on every workload.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
1. every metric BENCHMARK.json names is printed with its unit, by an
   untraced run (end-to-end metrics) and a traced run (per-layer metrics),
   and the result line has exactly the keys the driver reads;
2. the untraced and the traced run give the same command outcomes;
3. a corrupted output file counts as a failed command.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_cli(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(result: dict, expected: list[dict], what: str):
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"{what}: attempted/failed malformed")
    printed = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(printed) != set(want):
        raise AssertionError(f"{what}: metrics differ: missing {sorted(set(want) - set(printed))},"
                             f" extra {sorted(set(printed) - set(want))}")
    for name, unit in want.items():
        entry = printed[name]
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            raise AssertionError(f"{what}: {name} printed as {entry}, unit {unit} expected")


def check_corruption(workload: str):
    """Perturb one output file between the commands and the checks; the
    command that owns or reads it must count as failed."""
    sys.path.insert(0, str(HERE))
    import run
    bench = run.prepare(workload, seed=5, trace=0, scale="tiny")
    plan = bench.plan
    if workload == "mc":
        target = next(i for i, c in enumerate(plan) if c.label == "simulate")

        def corrupt(outdirs):
            path = outdirs[target] / "cost_report.json"
            report = json.loads(path.read_text())
            report["agreement_z"] = 10.0
            path.write_text(json.dumps(report))
    else:
        target = next(i for i, c in enumerate(plan) if c.label == "solve riccati")

        def corrupt(outdirs):
            path = outdirs[target] / "P1.csv"
            lines = path.read_text().splitlines()
            t, *vals = lines[1].split(",")
            lines[1] = ",".join([t] + [repr(float(v) + 1e-3) for v in vals])
            path.write_text("\n".join(lines) + "\n")

    clean = run.run_round(plan, 0, bench.workdir, bench.cli)
    dirty = run.run_round(plan, 1, bench.workdir, bench.cli, after_commands=corrupt)
    new = [r for r in dirty.status[target] if r not in clean.status[target]]
    if not new:
        raise AssertionError(f"{workload}: corrupted output of {plan[target].name} not detected")
    if any(run.is_known_defect(plan[target], r) for r in new):
        raise AssertionError(f"{workload}: corruption mistaken for a known defect: {new}")
    others = [i for i in range(len(plan)) if i != target
              and dirty.status[i] != clean.status[i]]
    if others:
        raise AssertionError(f"{workload}: corruption changed other outcomes: {others}")
    print(f"ok  {workload}: corrupted {plan[target].name} -> {new[0]}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in bench["workloads"]):
        rec0, res0 = run_cli(wl, 0)
        check_metrics(res0, bench["end_to_end"], f"{wl} untraced")
        rec1, res1 = run_cli(wl, 1)
        check_metrics(res1, bench["per_layer"], f"{wl} traced")
        if rec0["outcomes"] != rec1["outcomes"]:
            diff = {k: (v, rec1["outcomes"].get(k)) for k, v in rec0["outcomes"].items()
                    if rec1["outcomes"].get(k) != v}
            raise AssertionError(f"{wl}: traced and untraced outcomes differ: {diff}")
        print(f"ok  {wl}: {len(res0['metrics'])} + {len(res1['metrics'])} metrics, "
              f"{len(rec0['outcomes'])} commands, outcomes equal traced and untraced")
        check_corruption(wl)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
