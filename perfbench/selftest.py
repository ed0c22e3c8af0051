"""Self-test of the benchmark at tiny sizes.

Runs every workload on its tiny configs, untraced and traced, and checks
that each run emits exactly the metrics BENCHMARK.json names, each with
its unit, and that no op failed. Run from the repository root:

    python3 perfbench/selftest.py

Exit code 0 when every check holds; the problems are listed otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_workload(spec: dict, workload: str, trace: int, seed: int) -> list[str]:
    """Problems with one tiny run's result; empty when it meets BENCHMARK.json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.5", "--trace", str(trace), "--tiny"])
    where = f"{workload} trace={trace}"
    if code != 0:
        return [f"{where}: exit code {code}"]
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{where}: failed_ratio is not 0 "
                        f"({result.get('failed')} of {result.get('attempted')})")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    for name in sorted(want.keys() - got.keys()):
        problems.append(f"{where}: {name} missing")
    for name in sorted(got.keys() - want.keys()):
        problems.append(f"{where}: {name} not in BENCHMARK.json")
    for name in sorted(want.keys() & got.keys()):
        value = result["metrics"][name].get("value")
        if got[name] != want[name]:
            problems.append(f"{where}: {name} unit {got[name]!r}, expected {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(run.WORKLOADS)}")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            found = check_workload(spec, workload, trace, seed=0)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
