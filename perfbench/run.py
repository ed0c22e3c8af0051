"""fockprop benchmark: seeded workloads timed end to end through run_config.

Usage, from the repository root:

    python3 perfbench/run.py --workload galerkin --seed 0 --seconds 25 --trace 0

One run is one process. It imports the library from ./src (and times the
same import in IMPORT_REPEATS - 1 fresh interpreters, which it waits for),
generates the workload's configs from the seed (perfbench/workloads.py)
and validates them, then warms up on small configs of the same kinds;
that set-up is repeated SETUP_REPEATS times. It then makes passes over
the configs, one `fockprop.cli.run_config(cfg, out_dir)` call each,
until the next pass would overrun --seconds. The pass is the closed loop a batch user sees:
each config starts when the previous one has finished.

An op (one config run) fails if run_config raises, if its report does not
pass, or if a key output disagrees with the oracle (perfbench/oracle.py,
dense reference code of its own that imports nothing from fockprop). Reading outputs and the oracle run outside the
timed region.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one pass
  cpu_s        median process CPU time (user + sys, all threads) per pass
  setup_s      median import time plus the median set-up repeat
  peak_rss_mb  peak resident memory of the process through set-up and the
               first timed pass; later passes add allocator fragmentation
               (81 -> 94 MB over 9 evolve passes), so counting them would
               tie the figure to how many passes fit in --seconds
Configs attempted and failed per run are the result's `attempted` and
`failed` fields; the summary printed above the result line shows them as
`ops` and `failed_ratio`.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/tracing.py (medians over traced passes) and
trace.overhead_ratio, the median traced pass over the median untraced one.

The last line of standard output is the result as JSON. A record of the
run (metadata, every pass, failures and, when traced, every span) goes to
.perfbench/runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# times `import fockprop.cli` in a fresh interpreter; argv[1] is ./src
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import fockprop.cli; "
                 "print(time.perf_counter() - t)")
WORKLOADS = ("standard", "galerkin", "quadrature", "evolve")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class LibraryMissing(Exception):
    """The checkout holds no fockprop sources to benchmark."""


def _import_library() -> list[float]:
    """Import fockprop from ./src (never an installed copy).

    Returns the import's time here and in IMPORT_REPEATS - 1 fresh
    interpreters.
    """
    if not (SRC / "fockprop" / "__init__.py").is_file():
        raise LibraryMissing(f"no fockprop package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = perf_counter()
    module = importlib.import_module("fockprop.cli")
    elapsed = perf_counter() - start
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"fockprop imported from {module.__file__}, not {SRC}")
    fresh = [float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                                  capture_output=True, text=True, check=True).stdout)
             for _ in range(IMPORT_REPEATS - 1)]
    return [elapsed] + fresh


def _run_metadata(args, passes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": passes,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _failure(index: int, key: str, reason: str) -> dict:
    return {"pass": index, "config": key, "reason": reason}


def _set_up(args, work: Path):
    """Generate and validate the configs, then warm up on their tiny variant.

    Repeated SETUP_REPEATS times; returns the configs and each repeat's time.
    """
    import fockprop.cli as cli
    from workloads import make_workload

    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        configs = make_workload(args.workload, args.seed, tiny=args.tiny)
        for cfg in configs.values():
            cli.validate_config(cfg)
        for key, cfg in make_workload(args.workload, args.seed, tiny=True).items():
            cli.run_config(cfg, work / "warmup" / key)
        times.append(perf_counter() - start)
    return configs, times


def _timed_passes(args, configs: dict, work: Path, tracer):
    """Passes over the configs until the next would overrun --seconds.

    With a tracer, odd passes are traced. Returns the passes, the layer
    metrics of each traced pass, the failures seen so far and the key
    outputs of each passing op as (pass, config, outputs).
    """
    import fockprop.cli as cli
    from oracle import key_outputs

    passes, layers, failures, outputs = [], [], [], []
    measured = 0.0
    while (not passes or measured + passes[-1]["wall"] <= args.seconds
           or (tracer and len(passes) < 2)):
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        first_span = len(tracer.spans) if tracer else 0
        wall = cpu = 0.0
        for key, cfg in configs.items():
            out_dir = work / key
            with tracer.installed() if traced else contextlib.nullcontext():
                w0, c0 = perf_counter(), process_time()
                try:
                    # looked up on the module so a traced pass sees the wrapper
                    report = cli.run_config(cfg, out_dir)
                except Exception:  # a raised run is a failed op, not a crash
                    report = traceback.format_exc(limit=3)
                w1, c1 = perf_counter(), process_time()
            wall += w1 - w0
            cpu += c1 - c0
            if isinstance(report, str):
                failures.append(_failure(index, key, report))
            elif not report["passed"]:
                names = [c["name"] for c in report["checks"] if not c["passed"]]
                failures.append(_failure(index, key, f"checks failed: {names}"))
            else:
                try:
                    outputs.append((index, key, key_outputs(cfg, out_dir, report)))
                except (OSError, ValueError, KeyError) as exc:
                    failures.append(_failure(index, key, f"unreadable outputs: {exc!r}"))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append({"wall": wall, "cpu": cpu, "traced": traced, "rss_mb": rss_mb})
        measured += wall
        if traced:
            layers.append(tracer.take_pass(first_span))
    return passes, layers, failures, outputs


def _oracle_failures(configs: dict, outputs: list) -> list[dict]:
    """One failure per op whose key outputs the oracle contradicts."""
    from oracle import disagreements, oracle_outputs

    wanted = {key: oracle_outputs(configs[key]) for key in {k for _, k, _ in outputs}}
    failures = []
    for index, key, got in outputs:
        bad = disagreements(configs[key], got, wanted[key])
        if bad:
            failures.append(_failure(index, key, f"oracle disagrees: {bad}"))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="time the small warm-up configs (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        import_times = _import_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    from tracing import Tracer

    work = STATE / f"work-{os.getpid()}"
    try:
        configs, setup_times = _set_up(args, work)
        tracer = Tracer() if args.trace else None
        passes, layers, failures, outputs = _timed_passes(args, configs, work, tracer)
        failures += _oracle_failures(configs, outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes) * len(configs)
    failed = len({(f["pass"], f["config"]) for f in failures})
    plain = [p for p in passes if not p["traced"]]
    e2e = {
        "wall_s": statistics.median([p["wall"] for p in plain]),
        "cpu_s": statistics.median([p["cpu"] for p in plain]),
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "peak_rss_mb": passes[0]["rss_mb"],
    }
    if tracer:
        # median_low keeps counts whole: every value is one a pass produced
        metrics = {name: statistics.median_low([m[name] for m in layers])
                   for name in layers[0]}
        metrics["trace.overhead_ratio"] = (
            statistics.median([p["wall"] for p in passes if p["traced"]]) / e2e["wall_s"])
        result_metrics = {n: {"value": v, "unit": tracer.unit(n)}
                          for n, v in metrics.items()}
    else:
        result_metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                          for n, v in e2e.items()}

    meta = _run_metadata(args, len(passes))
    record = {
        "metadata": meta, "import_repeats": import_times, "setup_repeats": setup_times,
        "passes": passes, "failures": failures, "layers": layers,
        "span_fields": ["parent", "name", "start", "end", "raised"],
        "spans": tracer.spans if tracer else [],
    }
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-tiny' if args.tiny else ''}.json")
    (runs / name).write_text(json.dumps(record))

    threads = {k: v for k, v in meta["thread_env"].items() if v}
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} passes; "
          f"{meta['nproc']} cpus, {meta['blas']['name']} {meta['blas']['version']}, "
          f"numpy {meta['numpy']}, scipy {meta['scipy']}, thread env {threads}")
    summary = dict(e2e, ops=attempted, failed_ratio=failed / attempted)
    units = dict(END_TO_END_UNITS, ops="configs", failed_ratio="1")
    for n, v in summary.items():
        print(f"  {n:<13} {v:.6g} {units[n]}")
    for f in failures[:10]:
        print(f"  FAILED pass {f['pass']} {f['config']}: {f['reason']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
