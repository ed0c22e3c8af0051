"""The report.json content of every standard config, pinned.

tests/data/standard_reports.json holds, for each config of
`fockprop.benchmarks.standard_configs()`, its report's `checks` and
`metrics`, and for the evolve config the `states` of its states.json.  The
test reruns the six configs and compares: booleans, strings and null
exactly, numbers within 1e-12 + 1e-10 |pinned|.  Keys that the pin does not
hold are ignored, so a run may add metrics without breaking it.

The pin is the behaviour a refactor keeps.  Regenerate it only for a change
that means to move these numbers, and say which moved and why:

    PYTHONPATH=src python tests/test_standard_reports.py
"""

import json
import tempfile
from pathlib import Path

from fockprop.benchmarks import standard_configs
from fockprop.cli import run_config

PIN = Path(__file__).resolve().parent / "data" / "standard_reports.json"
ABS_TOL, REL_TOL = 1e-12, 1e-10


def collect() -> dict:
    """The pinned part of each standard config's outputs, by config name."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in standard_configs().items():
            report = run_config(cfg, Path(tmp) / name)
            out[name] = {"checks": report["checks"], "metrics": report["metrics"]}
            if cfg["kind"] == "evolve":
                states = json.loads((Path(tmp) / name / "states.json").read_text())
                out[name]["states"] = states["states"]
    return out


def assert_matches(pinned, actual, path="") -> None:
    if isinstance(pinned, dict):
        assert isinstance(actual, dict), path
        for key, value in pinned.items():
            assert key in actual, f"{path}/{key} missing"
            assert_matches(value, actual[key], f"{path}/{key}")
    elif isinstance(pinned, list):
        assert isinstance(actual, list) and len(actual) == len(pinned), path
        for k, (p, a) in enumerate(zip(pinned, actual)):
            assert_matches(p, a, f"{path}[{k}]")
    elif isinstance(pinned, (bool, str)) or pinned is None:
        assert actual == pinned and type(actual) is type(pinned), (
            f"{path}: {actual!r} != {pinned!r}"
        )
    else:
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), path
        assert actual == pinned or abs(actual - pinned) <= ABS_TOL + REL_TOL * abs(
            pinned
        ), f"{path}: {actual!r} != {pinned!r}"


def test_standard_reports_match_the_pin():
    assert_matches(json.loads(PIN.read_text()), collect())


def test_comparison_is_strict_where_it_should_be():
    pinned = {"passed": True, "name": "x", "v": 1.0, "rows": [0.5, 2.0]}
    assert_matches(pinned, {**pinned, "added": 3})
    assert_matches(pinned, {**pinned, "v": 1.0 + 5e-11})
    for broken in (
        {**pinned, "passed": False},
        {**pinned, "passed": 1},
        {**pinned, "name": "y"},
        {**pinned, "v": 1.0 + 1e-9},
        {**pinned, "rows": [0.5]},
        {k: v for k, v in pinned.items() if k != "v"},
    ):
        try:
            assert_matches(pinned, broken)
        except AssertionError:
            continue
        raise AssertionError(f"accepted {broken}")


if __name__ == "__main__":
    PIN.parent.mkdir(exist_ok=True)
    PIN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN}")
