"""Span recorder for the traced run, installed from outside the program.

Wrappers replace public layer functions under the names the CLI and the
other modules look them up by, so the program's source stays untouched.
Each span records its name, start, end, parent span and run id (one run id
per CLI command); spans stay in memory until the run writes them out.
``gated_inverse`` and ``min_eig_sym`` are wrapped as counters only.

A wrapper whose target name no longer exists raises at install time, so a
renamed layer fails the traced run instead of silently dropping out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

_LAYOUT_TAGS = {
    ("P1", "P2", "P3", "phi1", "phi2"): "direct",
    ("P",): "riccati",
    ("P", "phi"): "offset",
    ("Q", "phi"): "q",
}
ODE_TAGS = ("direct", "riccati", "offset", "q", "reference")


def _direct_attrs(args):
    problem, grid = args["problem"], args["grid"]
    return {"scalar": (problem.n, problem.m, problem.k) == (1, 1, 1), "steps": grid.steps}


def _layout_attrs(args):
    names = tuple(name for name, _ in args["system"].layout)
    return {"tag": _LAYOUT_TAGS.get(names, "other"), "steps": args["grid"].steps}


def _reference_attrs(args):
    return {"tag": "reference", "steps": args["grid"].steps}


def _gain_table_attrs(args):
    grid = args.get("grid") or args["sol"].grid
    return {"nodes": grid.steps + 1}


def _cfg_attrs(args):
    cfg = args["cfg"]
    return {"path_steps": cfg.paths * cfg.steps}


def _rng_attrs(args):
    return {"key0": int(args["base_seed"]) + int(args["first_path"]),
            "paths": int(args["n_paths"]), "steps": int(args["steps"])}


# (module, attribute, span name, attribute extractor)
SPANS = (
    ("fblq.cli", "integrate_direct", "decouple.integrate_direct", _direct_attrs),
    ("fblq.decouple", "integrate_direct", "decouple.integrate_direct", _direct_attrs),
    ("fblq.cli", "iterate_limit", "decouple.iterate_limit", None),
    ("fblq.cli", "transform_from_riccati", "decouple.transform", None),
    ("fblq.cli", "solve_q_equation", "decouple.q_solve", None),
    ("fblq.cli", "identity_suite", "decouple.identity_suite", None),
    ("fblq.decouple", "integrate_terminal", "odes.integrate_terminal", _layout_attrs),
    ("fblq.riccati", "integrate_terminal", "odes.integrate_terminal", _layout_attrs),
    ("fblq.special", "integrate_terminal", "odes.integrate_terminal", _reference_attrs),
    ("fblq.cli", "solve_auxiliary_riccati", "riccati.solve", None),
    ("fblq.cli", "solve_offset_tilde", "riccati.offset", None),
    ("fblq.mc", "m_coefficients", "riccati.m_coefficients", None),
    ("fblq.cli", "solve_lq_reference", "special.reference", None),
    ("fblq.cli", "solve_blq_reference", "special.reference", None),
    ("fblq.cli", "solve_deterministic_fblq_reference", "special.reference", None),
    ("fblq.cli", "evaluate_gain_table", "feedback.gain_table", _gain_table_attrs),
    ("fblq.cli", "synthesize", "feedback.synthesize", None),
    ("fblq.cli", "closed_loop_coefficients", "feedback.closed_loop", None),
    ("fblq.cli", "simulate_closed_loop", "mc.simulate_closed_loop", _cfg_attrs),
    ("fblq.cli", "simulate_penalized_forward", "mc.penalized_forward", _cfg_attrs),
    ("fblq.mc", "increment_block", "rng.increment_block", _rng_attrs),
    ("fblq.cli", "cost_identity_check", "mc.cost_identity", None),
    ("fblq.cli", "stationarity_residual", "mc.stationarity", None),
    ("fblq.cli", "load_problem", "problem_io.load", None),
    ("fblq.cli", "validate", "model.validate", None),
    ("fblq.decouple", "validate", "model.validate", None),
)

# (modules, attribute, counter name)
COUNTERS = (
    (("fblq.linalg", "fblq.decouple", "fblq.riccati", "fblq.special", "fblq.mc",
      "fblq.feedback"), "gated_inverse", "linalg.gated_inverse"),
    (("fblq.linalg", "fblq.cli", "fblq.decouple", "fblq.riccati", "fblq.special",
      "fblq.model"), "min_eig_sym", "linalg.min_eig"),
)


class Tracer:
    """In-memory spans and counters; ``run_id`` tags everything recorded."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, run_id, attrs]
        self.counts: Counter = Counter()  # (run_id, counter name) -> calls
        self.run_id = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][2] = perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (top {popped})")

    def _span_wrapper(self, fn, name, extract):
        sig = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = extract(sig.bind(*args, **kwargs).arguments) if extract else None
            sid = self.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.run_id, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, module_name: str, attr: str, make):
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise RuntimeError(f"trace target {module_name}.{attr} no longer exists")
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._installed.append((module, attr, original))

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, extract in SPANS:
            self._replace(module_name, attr,
                          lambda fn, name=name, extract=extract:
                          self._span_wrapper(fn, name, extract))
        for module_names, attr, name in COUNTERS:
            for module_name in module_names:
                self._replace(module_name, attr,
                              lambda fn, name=name: self._count_wrapper(fn, name))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path: Path):
        fields = ("name", "start", "end", "parent", "run_id", "attrs")
        rows = [dict(zip(fields, span)) for span in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": [
            [run_id, name, n] for (run_id, name), n in sorted(self.counts.items(), key=str)]}),
            encoding="utf-8")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    tail = name.rsplit(".", 1)[-1]
    if name.startswith("odes.us_per_step") or tail.startswith("us_per"):
        return "us"
    if tail.startswith("ns_per"):
        return "ns"
    if tail.endswith("_s"):
        return "s"
    if tail.endswith("_share"):
        return "share"
    return "count"


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, run_ids: set) -> dict[str, float]:
    """Per-layer numbers over the spans and counts of the given run ids.

    Durations (``_s``) are inclusive wall time; per-unit costs use self
    time, a span's duration minus what its child spans cover.
    """
    spans = tracer.spans
    child = defaultdict(float)
    for name, start, end, parent, run_id, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    total = Counter()     # name -> inclusive seconds
    calls = Counter()     # name -> number of spans
    self_s = Counter()    # key -> self seconds
    units = Counter()     # key -> steps, nodes or path-steps
    per_command_draws = defaultdict(dict)   # run_id -> {rng key: steps drawn}
    all_draws = sweep_solves = 0
    for sid, (name, start, end, parent, run_id, attrs) in enumerate(spans):
        if run_id not in run_ids:
            continue
        dur = end - start
        own = dur - child[sid]
        total[name] += dur
        calls[name] += 1
        if name == "decouple.integrate_direct":
            if parent is not None and spans[parent][0] == "decouple.iterate_limit":
                sweep_solves += 1
            if attrs["scalar"]:
                self_s["scalar"] += own
                units["scalar"] += attrs["steps"]
        elif name == "odes.integrate_terminal":
            self_s[attrs["tag"]] += own
            units[attrs["tag"]] += attrs["steps"]
        elif name == "feedback.gain_table":
            units["gain_nodes"] += attrs["nodes"]
        elif name in ("mc.simulate_closed_loop", "mc.penalized_forward"):
            self_s[name] += own
            units[name] += attrs["path_steps"]
        elif name == "rng.increment_block":
            draws = per_command_draws[run_id]
            for key in range(attrs["key0"], attrs["key0"] + attrs["paths"]):
                draws[key] = max(draws.get(key, 0), attrs["steps"])
            all_draws += attrs["paths"] * attrs["steps"]
        elif name.startswith("cli."):
            self_s["cli"] += own
    counts = Counter()
    for (run_id, name), n in tracer.counts.items():
        if run_id in run_ids:
            counts[name] += n
    distinct = sum(sum(d.values()) for d in per_command_draws.values())

    out = {
        "decouple.us_per_step_scalar": _ratio(self_s["scalar"], units["scalar"], 1e6),
        "decouple.direct_solves": calls["decouple.integrate_direct"],
        "decouple.sweep_solves": sweep_solves,
        "decouple.transform_s": total["decouple.transform"],
        "decouple.q_solve_s": total["decouple.q_solve"],
        "decouple.identity_suite_s": total["decouple.identity_suite"],
        "decouple.identity_calls": calls["decouple.identity_suite"],
    }
    for tag in ODE_TAGS:
        out[f"odes.us_per_step.{tag}"] = _ratio(self_s[tag], units[tag], 1e6)
    out.update({
        "odes.rk4_steps": sum(units[tag] for tag in ODE_TAGS) + units["other"],
        "odes.integrate_s": total["odes.integrate_terminal"],
        "riccati.solve_s": total["riccati.solve"],
        "riccati.offset_s": total["riccati.offset"],
        "riccati.m_coefficients_calls": calls["riccati.m_coefficients"],
        "special.reference_s": total["special.reference"],
        "linalg.gated_inverse_calls": counts["linalg.gated_inverse"],
        "linalg.min_eig_calls": counts["linalg.min_eig"],
        "feedback.gain_table_s": total["feedback.gain_table"],
        "feedback.us_per_gain_node": _ratio(total["feedback.gain_table"],
                                            units["gain_nodes"], 1e6),
        "feedback.synthesize_s": total["feedback.synthesize"],
        "feedback.closed_loop_s": total["feedback.closed_loop"],
        "rng.ns_per_path_step": _ratio(total["rng.increment_block"], all_draws, 1e9),
        "rng.path_steps": all_draws,
        "rng.useful_share": _ratio(distinct, all_draws),
        "mc.ns_per_path_step": _ratio(self_s["mc.simulate_closed_loop"],
                                      units["mc.simulate_closed_loop"], 1e9),
        "mc.cost_identity_s": total["mc.cost_identity"],
        "mc.stationarity_s": total["mc.stationarity"],
        "mc.penalized_runs": calls["mc.penalized_forward"],
        "mc.ns_per_penalized_path_step": _ratio(self_s["mc.penalized_forward"],
                                                units["mc.penalized_forward"], 1e9),
        "problem_io.load_s": total["problem_io.load"],
        "model.validate_s": total["model.validate"],
        "cli.self_s": self_s["cli"],
        "trace.spans": sum(calls.values()),
    })
    return out
