"""Batch front end: validate experiment configs and run them to reports.

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 config/schema
violation, 3 budget exceeded.  Reports (report.json and CSV artifacts) are
byte-deterministic for a fixed config and seed; wall-clock measurements go
to a separate timings.json, the one deliberately non-deterministic output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fock import FockBasis, ccr_defect, check_coherent_tail, coherent_vector
from .galerkin import (
    BudgetError,
    Flag,
    check_dense_budget,
    galerkin_sweeps,
    schrodinger_evolve,
    sweep_to_csv,
)
from .propagate import (
    chernoff_step,
    feynman_record,
    feynman_reference,
    halving_ratios,
    records_to_csv,
    records_to_json,
)
from .quantize import (
    QUADRATURE_MAX_MODES,
    antiwick_quantize_function,
    antiwick_quantize_poly,
    gauss_hermite_rule,
)
from .symbols import (
    PhaseGrid,
    PolySymbol,
    antinormal_from_wick,
    from_term_list,
    infimum_estimate,
    max_coeff_difference,
    random_symbol,
    symbol_digest,
    wick_from_antinormal,
)

SCHEMA_VERSION = 1
NODE_SOFT_CAP = 1_000_000
KINDS = (
    "ccr-check",
    "symbol-roundtrip",
    "lower-bound",
    "chernoff-sweep",
    "galerkin-sweep",
    "evolve",
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


class ConfigError(Exception):
    """Schema violation; the message starts with the offending field path."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "tolerance": self.tolerance,
        }


# -- config access helpers ------------------------------------------------


def _get(cfg: dict, name: str, types, required: bool = True, default=None):
    if name not in cfg:
        if required:
            raise ConfigError(f"{name}: missing required field")
        return default
    val = cfg[name]
    if isinstance(val, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise ConfigError(f"{name}: expected {_type_names(types)}, got bool")
    if not isinstance(val, types):
        raise ConfigError(
            f"{name}: expected {_type_names(types)}, got {type(val).__name__}"
        )
    return val


def _type_names(types) -> str:
    if isinstance(types, tuple):
        return " or ".join(t.__name__ for t in types)
    return types.__name__


def _get_int(cfg, name, required=True, default=None, minimum=None):
    val = _get(cfg, name, int, required, default)
    if val is not None and minimum is not None and val < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {val}")
    return val


def _is_finite(val) -> bool:
    # json reads NaN, Infinity and integers past float range; refuse all three
    try:
        return isinstance(val, (int, float)) and math.isfinite(val)
    except OverflowError:
        return False


def _is_pair(obj) -> bool:
    return isinstance(obj, list) and len(obj) == 2 and all(map(_is_finite, obj))


def _get_number(cfg, name, required=True, default=None):
    val = _get(cfg, name, (int, float), required, default)
    if val is not None and not _is_finite(val):
        raise ConfigError(f"{name}: expected a finite number")
    return val


def _parse_complex_vector(obj, modes: int, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != modes:
        raise ConfigError(f"{path}: expected a list of {modes} [re, im] pairs")
    out = np.empty(modes, dtype=complex)
    for i, pair in enumerate(obj):
        if not _is_pair(pair):
            raise ConfigError(f"{path}[{i}]: expected [re, im] finite numbers")
        out[i] = complex(pair[0], pair[1])
    return out


def _parse_probes(cfg, modes: int, expected: int | None = None):
    probes_raw = _get(cfg, "probes", list)
    if not probes_raw:
        raise ConfigError("probes: must contain at least one (alpha, beta) pair")
    if expected is not None and len(probes_raw) != expected:
        raise ConfigError(f"probes: expected exactly {expected} probe pair(s)")
    probes = []
    for i, probe in enumerate(probes_raw):
        if not isinstance(probe, dict):
            raise ConfigError(f"probes[{i}]: expected an object")
        a = _parse_complex_vector(probe.get("alpha"), modes, f"probes[{i}].alpha")
        b = _parse_complex_vector(probe.get("beta"), modes, f"probes[{i}].beta")
        probes.append((a, b))
    return probes


def _check_probe_tails(probes, max_quanta: int) -> None:
    for i, (a, b) in enumerate(probes):
        for side, point in (("alpha", a), ("beta", b)):
            try:
                check_coherent_tail(point, max_quanta)
            except ValueError as exc:
                raise ConfigError(f"probes[{i}].{side}: {exc}; raise M") from exc


def _check_slice_order(Q: int, M: int) -> None:
    # a slice's rule resolves the identity on the basis only from Q = M + 1
    if Q < M + 1:
        raise ConfigError(
            f"Q: rule order {Q} < M + 1 = {M + 1}; chernoff slices need Q >= M + 1"
        )


def _parse_symbol(cfg, modes: int) -> PolySymbol:
    literal = _get(cfg, "symbol", list)
    try:
        symbol = from_term_list(literal, modes=modes)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"symbol: {exc}") from exc
    if not all(map(cmath.isfinite, symbol.terms.values())):
        raise ConfigError("symbol: coefficients must be finite")
    # every kind with a symbol evolves under it, which needs it real-valued
    if not symbol.is_real():
        raise ConfigError(f"symbol: {cfg['kind']} requires a real symbol")
    return symbol


# -- validation ------------------------------------------------------------


def validate_config(cfg) -> dict:
    """Schema and budget diagnostics; raises ConfigError / BudgetError."""
    if not isinstance(cfg, dict):
        raise ConfigError(": config must be a JSON object")
    schema = _get_int(cfg, "schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: unsupported version {schema}")
    kind = _get(cfg, "kind", str)
    if kind not in KINDS:
        raise ConfigError(f"kind: unknown kind {kind!r}; expected one of {KINDS}")
    _get_int(cfg, "seed", required=False, default=0, minimum=0)
    outputs = _get(cfg, "outputs", dict, required=False, default={})
    for key, value in outputs.items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"outputs.{key}: expected a relative file path")
        if value.startswith("/") or ".." in Path(value).parts:
            raise ConfigError(f"outputs.{key}: path must stay inside the out dir")

    d = _get_int(cfg, "d", minimum=1)
    info: dict = {"kind": kind, "d": d, "warnings": []}

    needs_quanta = kind != "symbol-roundtrip"
    if needs_quanta:
        M = _get_int(cfg, "M", minimum=0)
        info["M"] = M
        info["basis_size"] = check_dense_budget(d, M)
        info["dense_bytes"] = 16 * info["basis_size"] ** 2  # one complex matrix

    quadrature_kind = kind in ("lower-bound", "chernoff-sweep")
    if quadrature_kind or "Q" in cfg:
        Q = _get_int(cfg, "Q", minimum=1)
        if quadrature_kind and d > QUADRATURE_MAX_MODES:
            raise ConfigError(
                f"d: quadrature route supports at most {QUADRATURE_MAX_MODES} modes"
            )
        info["Q"] = Q
        info["node_count"] = Q ** (2 * d)
        if info["node_count"] > NODE_SOFT_CAP:
            info["warnings"].append(
                f"node count {info['node_count']} exceeds soft cap {NODE_SOFT_CAP}"
            )

    if kind == "symbol-roundtrip":
        _get_int(cfg, "degree", required=False, default=6, minimum=0)
        _get_int(cfg, "count", required=False, default=200, minimum=1)
    elif kind == "lower-bound":
        _get_int(cfg, "degree", required=False, default=4, minimum=2)
        _get_int(cfg, "count", required=False, default=50, minimum=1)
        _get_number(cfg, "radius", required=False, default=6.0)
    elif kind == "chernoff-sweep":
        _get_number(cfg, "t")
        ns = _get(cfg, "Ns", list)
        if not ns or not all(isinstance(n, int) and n >= 1 for n in ns):
            raise ConfigError("Ns: expected a non-empty list of positive integers")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("Ns: must be strictly ascending")
        _check_slice_order(Q, M)
        _parse_symbol(cfg, d)
        _check_probe_tails(_parse_probes(cfg, d, expected=1), M)
        window = _get(cfg, "halving_window", list, required=False, default=[1.6, 2.4])
        if not _is_pair(window):
            raise ConfigError("halving_window: expected [low, high] finite numbers")
    elif kind == "galerkin-sweep":
        _get_number(cfg, "t")
        _get_number(cfg, "slope_threshold", required=False)
        flag = _get(cfg, "flag", list)
        if not flag or not all(isinstance(n, int) and n >= 1 for n in flag):
            raise ConfigError("flag: expected a non-empty list of positive integers")
        try:
            Flag(d_max=d, ns=tuple(flag))
        except ValueError as exc:
            raise ConfigError(f"flag: {exc}") from exc
        _parse_symbol(cfg, d)
        _check_probe_tails(_parse_probes(cfg, d, expected=1), M)
        route = _get(cfg, "route", str, required=False, default="wick")
        if route not in ("wick", "antiwick"):
            raise ConfigError("route: expected 'wick' or 'antiwick'")
        scaling = _get(cfg, "t_scaling", dict, required=False)
        if scaling is not None:
            factor = scaling.get("factor")
            window = scaling.get("window")
            if not _is_finite(factor) or factor <= 1:
                raise ConfigError("t_scaling.factor: expected a finite number > 1")
            if not _is_pair(window):
                raise ConfigError("t_scaling.window: expected [low, high] finite numbers")
            base_t = scaling.get("base_t")
            if base_t is not None and not _is_finite(base_t):
                raise ConfigError("t_scaling.base_t: expected a finite number")
    elif kind == "evolve":
        grid = _get(cfg, "t_grid", list)
        if not grid or not all(map(_is_finite, grid)):
            raise ConfigError("t_grid: expected a non-empty list of finite numbers")
        _parse_symbol(cfg, d)
        initial = _get(cfg, "initial", dict)
        itype = initial.get("type")
        if itype not in ("vacuum", "coherent", "vector"):
            raise ConfigError(
                "initial.type: expected 'vacuum', 'coherent' or 'vector'"
            )
        if itype == "coherent":
            _parse_complex_vector(initial.get("alpha"), d, "initial.alpha")
        elif itype == "vector":
            comp = _parse_complex_vector(
                initial.get("components"), info["basis_size"], "initial.components"
            )
            norm = float(np.linalg.norm(comp))
            if abs(norm - 1.0) > 1e-8:
                raise ConfigError(
                    f"initial.components: norm {norm!r} is not 1 within 1e-8"
                )
        route = _get(cfg, "route", str, required=False, default="wick")
        if route not in ("wick", "antiwick"):
            raise ConfigError("route: expected 'wick' or 'antiwick'")
        method = _get(cfg, "method", str, required=False, default="oracle")
        if method not in ("oracle", "chernoff"):
            raise ConfigError("method: expected 'oracle' or 'chernoff'")
        if method == "chernoff":
            _get_int(cfg, "slices", required=False, default=32, minimum=1)
            Q = _get_int(cfg, "Q", required=False, default=None, minimum=1)
            if Q is not None:
                _check_slice_order(Q, M)
            if d > QUADRATURE_MAX_MODES:
                raise ConfigError(
                    f"d: chernoff method needs quadrature, at most "
                    f"{QUADRATURE_MAX_MODES} modes"
                )
    return info


# -- experiment kinds --------------------------------------------------------


def _run_ccr(cfg, rng):
    d, M = cfg["d"], cfg["M"]
    basis = FockBasis(d, M)
    worst_protected = 0.0
    pairs = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            defect = ccr_defect(basis, i, j)
            pairs[f"{i},{j}"] = {"protected": defect.protected, "full": defect.full}
            worst_protected = max(worst_protected, defect.protected)
    checks = [
        Check("ccr-protected-defect", worst_protected <= 1e-12, worst_protected, 1e-12)
    ]
    metrics = {"basis_size": basis.size, "pair_defects": pairs}
    return checks, metrics, {}, {}


def _run_symbol_roundtrip(cfg, rng):
    d = cfg["d"]
    degree = cfg.get("degree", 6)
    count = cfg.get("count", 200)
    worst = 0.0
    degree_law_ok = True
    for _ in range(count):
        modes = int(rng.integers(1, d + 1))
        s = random_symbol(rng, modes, degree, n_terms=10)
        w = wick_from_antinormal(s)
        worst = max(worst, max_coeff_difference(antinormal_from_wick(w), s))
        diff = w - s
        if w.degree != s.degree and not s.is_zero():
            degree_law_ok = False
        if not diff.is_zero() and diff.degree > s.degree - 2:
            degree_law_ok = False
    checks = [
        Check("roundtrip-max-deviation", worst <= 1e-12, worst, 1e-12),
        Check("degree-law", degree_law_ok, float(degree_law_ok), 1.0),
    ]
    return checks, {"samples": count, "max_degree": degree}, {}, {}


def _run_lower_bound(cfg, rng):
    d, M, Q = cfg["d"], cfg["M"], cfg["Q"]
    degree = cfg.get("degree", 4)
    count = cfg.get("count", 50)
    radius = float(cfg.get("radius", 6.0))
    basis = FockBasis(d, M)
    rule = gauss_hermite_rule(d, Q)
    grid = PhaseGrid(radius=radius)
    worst_eig = math.inf
    worst_poly_dip = math.inf
    for _ in range(count):
        s = random_symbol(rng, d, degree, n_terms=6, real=True)
        # shift so the symbol is >= 0 on both the scan grid and the nodes;
        # positivity of the quadrature operator is certified at the nodes
        shift = infimum_estimate(s, grid, extra_points=rule.nodes)
        shifted = s - shift
        op = antiwick_quantize_function(
            basis, lambda pts: shifted.evaluate(pts).real, rule
        )
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(op.mat).min()))
        poly_min = float(
            np.linalg.eigvalsh(antiwick_quantize_poly(basis, shifted).mat).min()
        )
        worst_poly_dip = min(worst_poly_dip, poly_min)
    checks = [Check("antiwick-min-eigenvalue", worst_eig >= -1e-8, worst_eig, -1e-8)]
    metrics = {
        "samples": count,
        # the exact route may dip below the symbol infimum by the normal-
        # ordering correction; reported, not gated
        "poly_route_min_eigenvalue": worst_poly_dip,
    }
    return checks, metrics, {}, {}


def _run_chernoff_sweep(cfg, rng):
    d, M, Q, t = cfg["d"], cfg["M"], cfg["Q"], float(cfg["t"])
    ns = cfg["Ns"]
    window = cfg.get("halving_window", [1.6, 2.4])
    symbol = from_term_list(cfg["symbol"], modes=d)
    alpha, beta = _parse_probes(cfg, d, expected=1)[0]
    basis = FockBasis(d, M)
    rule = gauss_hermite_rule(d, Q)

    reference = feynman_reference(symbol, t, alpha, beta, basis)
    # the last N's slice also serves the contractivity check
    start = time.perf_counter()
    step = chernoff_step(symbol, t / ns[-1], basis, rule)
    step_seconds = time.perf_counter() - start
    records = [
        feynman_record(symbol, t, n, alpha, beta, basis, rule, reference,
                       step=step if n == ns[-1] else None)
        for n in ns
    ]

    ratios = halving_ratios(records)
    in_window = all(window[0] <= r <= window[1] for _, r in ratios) and bool(ratios)
    spectral_norm = float(np.linalg.norm(step.mat, ord=2))
    checks = [
        Check("halving-ratio-window", in_window,
              min((r for _, r in ratios), default=0.0), window[0]),
        Check("slice-contractivity", spectral_norm <= 1 + 1e-6, spectral_norm,
              1 + 1e-6),
    ]
    metrics = {
        "reference": [reference.real, reference.imag],
        "ratios": {str(n): r for n, r in ratios},
        "halving_window": list(window),
        "symbol_digest": symbol_digest(symbol),
    }
    meta = {"d": d, "M": M, "Q": Q, "t": t, "symbol_digest": symbol_digest(symbol)}
    artifacts = {
        "chernoff_table.csv": lambda path: records_to_csv(
            records, path, include_timing=False
        ),
        "chernoff_table.json": lambda path: _write_json(
            path, records_to_json(records, meta, include_timing=False)
        ),
    }
    timings = {f"N={r.parameter}": r.seconds for r in records}
    timings[f"N={ns[-1]}"] += step_seconds
    return checks, metrics, artifacts, timings


def _run_galerkin_sweep(cfg, rng):
    d, M, t = cfg["d"], cfg["M"], float(cfg["t"])
    flag = Flag(d_max=d, ns=tuple(cfg["flag"]))
    symbol = from_term_list(cfg["symbol"], modes=d)
    alpha, beta = _parse_probes(cfg, d, expected=1)[0]
    threshold = float(cfg.get("slope_threshold", -0.8))
    route = cfg.get("route", "wick")
    scaling = cfg.get("t_scaling")
    times = [t]
    if scaling:
        factor = float(scaling["factor"])
        lo, hi = float(scaling["window"][0]), float(scaling["window"][1])
        # base may sit below the sweep's t: the scaling window targets the
        # quadratic-in-t regime, which higher-order terms leave at large t
        base_t = float(scaling.get("base_t", t))
        times += [base_t, factor * base_t]
    sweeps = galerkin_sweeps(
        symbol, flag, times, alpha, beta, M, route=route, threshold=threshold,
    )
    records, fit = sweeps[0]
    errors = [r.abs_error for r in records]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    checks = [
        Check("errors-strictly-decreasing", decreasing, float(decreasing), 1.0),
        Check("rate-slope", fit.passed,
              fit.slope if fit.slope is not None else 0.0, threshold),
    ]
    metrics = {
        "fit": fit.to_json(),
        "errors": {str(r.parameter): r.abs_error for r in records},
        "symbol_digest": symbol_digest(symbol),
    }
    artifacts = {
        "galerkin_sweep.csv": lambda path: sweep_to_csv(records, path),
        "galerkin_fit.json": lambda path: _write_json(path, fit.to_json()),
    }
    timings = {f"n={r.parameter}": r.seconds for r in records}

    if scaling:
        (base_records, _), (scaled_records, _) = sweeps[1:]
        ratios = {}
        in_window = True
        for base, scaled in zip(base_records, scaled_records):
            if base.abs_error > 1e-12:
                ratio = scaled.abs_error / base.abs_error
                ratios[str(base.parameter)] = ratio
                in_window = in_window and lo <= ratio <= hi
        in_window = in_window and bool(ratios)
        checks.append(
            Check("t-scaling-window", in_window,
                  min(ratios.values(), default=0.0), lo)
        )
        metrics["t_scaling_ratios"] = ratios
        metrics["t_scaling_base_t"] = base_t
        artifacts["galerkin_sweep_scaled.csv"] = (
            lambda path: sweep_to_csv(scaled_records, path)
        )
        for r in base_records:
            timings[f"n={r.parameter},t={base_t}"] = r.seconds
        for r in scaled_records:
            timings[f"n={r.parameter},t={factor * base_t}"] = r.seconds
    return checks, metrics, artifacts, timings


def _run_evolve(cfg, rng):
    d, M = cfg["d"], cfg["M"]
    symbol = from_term_list(cfg["symbol"], modes=d)
    t_grid = [float(v) for v in cfg["t_grid"]]
    route = cfg.get("route", "wick")
    method = cfg.get("method", "oracle")
    slices = cfg.get("slices", 32)
    basis = FockBasis(d, M)

    initial_cfg = cfg["initial"]
    if initial_cfg["type"] == "vacuum":
        psi0 = np.zeros(basis.size, dtype=complex)
        psi0[0] = 1.0
    elif initial_cfg["type"] == "coherent":
        a = _parse_complex_vector(initial_cfg["alpha"], d, "initial.alpha")
        comp = coherent_vector(basis, a).components
        psi0 = comp / np.linalg.norm(comp)
    else:
        comp = _parse_complex_vector(
            initial_cfg.get("components"), basis.size, "initial.components"
        )
        psi0 = comp

    result = schrodinger_evolve(
        symbol, d, psi0, t_grid, M,
        order=cfg.get("Q"), route=route, method=method, slices=slices,
    )
    tolerance = 1e-8 if method == "oracle" else 1e-3
    worst = max(result.norm_defects)
    checks = [Check("norm-conservation", worst <= tolerance, worst, tolerance)]
    payload = {
        "times": list(result.times),
        "norm_defects": list(result.norm_defects),
        "states": [
            np.column_stack((s.real, s.imag)).tolist() for s in result.states
        ],
        "basis": {"modes": d, "max_quanta": M},
        "route": route,
        "method": method,
    }
    artifacts = {"states.json": lambda path: _write_json(path, payload)}
    metrics = {"symbol_digest": symbol_digest(symbol)}
    return checks, metrics, artifacts, {}


_RUNNERS = {
    "ccr-check": _run_ccr,
    "symbol-roundtrip": _run_symbol_roundtrip,
    "lower-bound": _run_lower_bound,
    "chernoff-sweep": _run_chernoff_sweep,
    "galerkin-sweep": _run_galerkin_sweep,
    "evolve": _run_evolve,
}


# -- report plumbing ---------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _atomic_write_text(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _write_json(path, payload) -> None:
    Path(path).write_text(_dump_json(payload))


def _write_artifact(out_dir: Path, name: str, writer) -> None:
    # writers stream to a temp path; the rename is the commit point
    target = out_dir / name
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    try:
        writer(tmp)
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()


def run_config(cfg: dict, out_dir: Path) -> dict:
    """Execute one experiment; writes report.json, timings.json and artifacts.

    Returns the report payload.  Raises ConfigError / BudgetError for
    invalid input; numerical check failures are reported, not raised.
    """
    validate_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.get("seed", 0))

    started = time.perf_counter()
    checks, metrics, artifacts, timings = _RUNNERS[cfg["kind"]](cfg, rng)
    total = time.perf_counter() - started

    outputs = cfg.get("outputs", {})

    def _target(name: str) -> tuple[Path, str]:
        mapped = outputs.get(name, name)
        full = out_dir / mapped
        full.parent.mkdir(parents=True, exist_ok=True)
        return full.parent, full.name

    for name, writer in artifacts.items():
        parent, fname = _target(name)
        _write_artifact(parent, fname, writer)

    report = {
        "schema": SCHEMA_VERSION,
        "kind": cfg["kind"],
        "library_version": __version__,
        "config": cfg,
        "checks": [c.to_json() for c in checks],
        "metrics": metrics,
        "passed": all(c.passed for c in checks),
    }
    parent, fname = _target("report.json")
    _atomic_write_text(parent / fname, _dump_json(report))
    timings["total"] = total
    parent, fname = _target("timings.json")
    _atomic_write_text(parent / fname, _dump_json(timings))
    return report


# -- entry point -------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f": cannot read config file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f": config is not valid JSON: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fockprop",
        description="truncated Fock-space propagator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--out-dir", default=".")

    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config")

    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.command == "validate":
            info = validate_config(cfg)
            print(f"kind: {info['kind']}")
            if "basis_size" in info:
                print(
                    f"basis size: binomial({info['M']}+{info['d']},{info['d']}) "
                    f"= {info['basis_size']}"
                )
                print(f"dense matrix: {info['dense_bytes'] / 1e6:.1f} MB")
            if "node_count" in info:
                print(f"quadrature nodes: {info['Q']}^(2*{info['d']}) "
                      f"= {info['node_count']}")
            for warning in info["warnings"]:
                print(f"warning: {warning}")
            print("valid")
            return EXIT_OK
        report = run_config(cfg, Path(args.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET

    if not report["passed"]:
        for check in report["checks"]:
            if not check["passed"]:
                print(f"FAILED: {check['name']}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
