"""Every layer function the traced benchmark run wraps must exist.

perfbench/tracing.py replaces functions by (module, attribute) name. A
refactor that drops a module-level import would otherwise fail only the
traced benchmark run, not the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, attr) for module, attr, _, _ in tracing.SPANS]
    targets += [(module, attr) for modules, attr, _ in tracing.COUNTERS for module in modules]
    assert {("fblq.cli", "min_eig_sym"), ("fblq.mc", "m_coefficients"),
            ("fblq.mc", "gated_inverse"), ("fblq.special", "integrate_terminal")} <= set(targets)
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
