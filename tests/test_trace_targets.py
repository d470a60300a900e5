"""The traced benchmark run must keep working against the program.

perfbench/tracing.py replaces functions by (module, attribute) name and
reads their arguments by parameter name. A refactor that drops a
module-level import or renames a parameter would otherwise fail only the
traced benchmark run, not the test suite.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from fblq import cli
from fblq.model import LEVEL_STRICT, validate
from fblq.problem_io import load_problem

ROOT = Path(__file__).resolve().parent.parent


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    tracing = perfbench_module("tracing")
    targets = [(module, attr) for module, attr, _, _ in tracing.SPANS]
    targets += [(module, attr) for modules, attr, _ in tracing.COUNTERS for module in modules]
    assert {("fblq.cli", "min_eig_sym"), ("fblq.mc", "m_coefficients"),
            ("fblq.mc", "gated_inverse"), ("fblq.special", "integrate_terminal")} <= set(targets)
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_traced_limit_solve_binds_arguments_and_yields_every_metric(tmp_path):
    tracing = perfbench_module("tracing")
    inputs = perfbench_module("inputs")
    records = inputs.write_instances(11, [(2, 1, 1), (1, 1, 1)], tmp_path, "trace",
                                     load_problem, validate, LEVEL_STRICT)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = []
        for i, record in enumerate(records):
            tracer.run_id = i
            codes.append(cli.main(["solve", str(tmp_path / record["file"]), "--method", "limit",
                                   "--grid", "20", "--output-dir", str(tmp_path / f"out{i}")]))
        tracer.run_id = None
    finally:
        tracer.uninstall()
    assert codes == [0, 0]

    # the extractors read problem, grid and system off the bound arguments
    direct = [s[5] for s in tracer.spans if s[0] == "decouple.integrate_direct"]
    assert {a["scalar"] for a in direct} == {True, False}
    assert all(a["steps"] == 20 for a in direct)
    odes = [s[5] for s in tracer.spans if s[0] == "odes.integrate_terminal"]
    assert odes and all(a == {"tag": "direct", "steps": 20} for a in odes)

    metrics = tracing.layer_metrics(tracer, {0, 1})
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # trace.overhead_s compares traced with untraced rounds in perfbench/run.py
    wanted = {entry["name"] for entry in bench["per_layer"]} - {"trace.overhead_s"}
    assert wanted <= set(metrics)
    assert metrics["decouple.sweep_solves"] >= 1
    assert metrics["odes.rk4_steps"] > 0


def test_traced_simulate_binds_arguments(tmp_path):
    tracing = perfbench_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_id = 0
        code = cli.main(["simulate", str(ROOT / "problems" / "fully_coupled_example.yaml"),
                         "--grid", "10", "--steps", "20", "--paths", "8",
                         "--output-dir", str(tmp_path)])
        tracer.run_id = None
    finally:
        tracer.uninstall()
    assert code == 0
    attrs = {s[0]: s[5] for s in tracer.spans}
    assert attrs["mc.simulate_closed_loop"] == {"path_steps": 8 * 20}
    assert attrs["rng.increment_block"] == {"key0": 20240801, "paths": 8, "steps": 20}
    assert attrs["feedback.gain_table"] == {"nodes": 21}
    assert "feedback.closed_loop" in attrs and "mc.stationarity" in attrs


def test_traced_riccati_solve_integrates_once(tmp_path):
    tracing = perfbench_module("tracing")
    inputs = perfbench_module("inputs")
    [record] = inputs.write_instances(11, [(2, 1, 1)], tmp_path, "trace",
                                      load_problem, validate, LEVEL_STRICT)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_id = 0
        code = cli.main(["solve", str(tmp_path / record["file"]), "--method", "riccati",
                         "--schedule", "4", "--grid", "20", "--output-dir", str(tmp_path / "out")])
        tracer.run_id = None
    finally:
        tracer.uninstall()
    assert code == 0
    # the offset pass carries the Riccati flow: one integration, no separate solve
    names = [s[0] for s in tracer.spans]
    assert "riccati.solve" not in names
    [ode] = [s for s in tracer.spans if s[0] == "odes.integrate_terminal"]
    assert tracer.spans[ode[3]][0] == "riccati.offset"


def test_traced_probe_binds_arguments(tmp_path):
    tracing = perfbench_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_id = 0
        code = cli.main(["verify", str(ROOT / "problems" / "partially_coupled_example.yaml"),
                         "--suite", "optimality", "--grid", "50", "--paths", "8",
                         "--output-dir", str(tmp_path)])
        tracer.run_id = None
    finally:
        tracer.uninstall()
    assert code == 0
    attrs = {s[0]: s[5] for s in tracer.spans}
    assert attrs["mc.penalized_forward"] == {"path_steps": 8 * 50}
    assert "riccati.offset" in attrs
