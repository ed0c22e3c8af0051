"""The traced benchmark still fits the library: one tiny traced pass.

perfbench/tracing.py wraps fockprop's public functions and methods by name
and binds some of their parameters by name, so a refactor that renames or
deletes one breaks the traced benchmark.  This runs the tiny `standard`
configs under its Tracer, as a traced pass of perfbench/run.py does.
"""

import importlib.util
import json
from pathlib import Path

import fockprop.cli

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_standard_pass(tmp_path):
    configs = load_perfbench("workloads").make_workload("standard", 0, tiny=True)
    tracer = load_perfbench("tracing").Tracer()
    with tracer.installed():
        # looked up on the module, so the call goes through the wrapper
        reports = {key: fockprop.cli.run_config(cfg, tmp_path / key)
                   for key, cfg in configs.items()}
    metrics = tracer.take_pass(0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # perfbench/run.py adds the traced-over-untraced ratio itself
    assert set(metrics) == {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    assert [key for key, report in reports.items() if not report["passed"]] == []
    assert metrics["propagate.slice_matmuls"] > 0
