"""Batch front end: validate experiment configs and run them to reports.

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 config/schema
violation, 3 budget exceeded.  Reports (report.json and CSV artifacts) are
byte-deterministic for a fixed config and seed; wall-clock measurements go
to a separate timings.json, the one deliberately non-deterministic output.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
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
    DEFAULT_ORDER_MARGIN,
    antiwick_quantize_function,
    antiwick_quantize_poly,
    gauss_hermite_rule,
)
from .symbols import (
    GRID_MAX_POINTS,
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
KINDS = (
    "ccr-check",
    "symbol-roundtrip",
    "lower-bound",
    "chernoff-sweep",
    "galerkin-sweep",
    "evolve",
)

REPORT_FILES = ("report.json", "timings.json")
# the files each kind writes besides REPORT_FILES; `outputs` may rename any
ARTIFACTS = {
    "chernoff-sweep": ("chernoff_table.csv", "chernoff_table.json"),
    "galerkin-sweep": (
        "galerkin_sweep.csv", "galerkin_fit.json", "galerkin_sweep_scaled.csv"
    ),
    "evolve": ("states.json",),
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

# galerkin-sweep passes rate-slope when its log-log slope is at most this
DEFAULT_SLOPE_THRESHOLD = -0.8


class ConfigError(Exception):
    """Schema violation; the message starts with the offending field path."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float


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


def _get_counts(cfg, name) -> list[int]:
    counts = _get(cfg, name, list)
    # bool is an int subclass; json true is not a count
    if not counts or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in counts
    ):
        raise ConfigError(f"{name}: expected a non-empty list of positive integers")
    return counts


def _is_finite(val) -> bool:
    # json reads NaN, Infinity and integers past float range; refuse all three,
    # and true/false, which Python counts as the ints 1 and 0
    try:
        return (isinstance(val, (int, float)) and not isinstance(val, bool)
                and math.isfinite(val))
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


def _parse_probe(cfg, modes: int, max_quanta: int) -> tuple[np.ndarray, np.ndarray]:
    """The (alpha, beta) points of the one probe, their coherent tails checked."""
    probes = _get(cfg, "probes", list)
    if not probes:
        raise ConfigError("probes: must contain at least one (alpha, beta) pair")
    if len(probes) != 1:
        raise ConfigError("probes: expected exactly 1 probe pair(s)")
    if not isinstance(probes[0], dict):
        raise ConfigError("probes[0]: expected an object")
    points = {
        side: _parse_complex_vector(probes[0].get(side), modes, f"probes[0].{side}")
        for side in ("alpha", "beta")
    }
    for side, point in points.items():
        try:
            check_coherent_tail(point, max_quanta)
        except ValueError as exc:
            raise ConfigError(f"probes[0].{side}: {exc}; raise M") from exc
    return points["alpha"], points["beta"]


def _check_grid(field: str, grid: str, points: int, d: int) -> None:
    # one limit for every product grid a run evaluates a symbol on
    if points > GRID_MAX_POINTS:
        raise ConfigError(
            f"{field}: {grid} of {points} points at d={d}; at most {GRID_MAX_POINTS}"
        )


def _check_nodes(Q: int, M: int, d: int) -> int:
    # the entries of the quadrature's largest array, checked and returned:
    # its Q^(2d) node values, or, when Q < M + 1, the (M+1)^(2d) basis
    # pairs of its last contraction
    side = max(Q, M + 1)
    grid = (f"rule order {Q} gives a quadrature grid" if side == Q
            else f"cutoff M + 1 = {M + 1} > Q = {Q} gives a quadrature array")
    _check_grid("Q", grid, side ** (2 * d), d)
    return side ** (2 * d)


def _check_slice_rule(Q: int, M: int) -> None:
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


def _parse_route(cfg) -> str:
    route = _get(cfg, "route", str, required=False, default="wick")
    if route not in ("wick", "antiwick"):
        raise ConfigError("route: expected 'wick' or 'antiwick'")
    return route


def _parse_outputs(cfg, kind: str) -> dict[str, Path]:
    """Each file `kind` writes -> its path relative to the out dir."""
    outputs = _get(cfg, "outputs", dict, required=False, default={})
    names = REPORT_FILES + ARTIFACTS.get(kind, ())
    for key, value in outputs.items():
        if key not in names:
            raise ConfigError(
                f"outputs.{key}: {kind} writes no such file; expected one of {names}"
            )
        if not isinstance(value, str) or not value:
            raise ConfigError(f"outputs.{key}: expected a relative file path")
        if "\0" in value:
            raise ConfigError(f"outputs.{key}: path contains a NUL character")
        if value.startswith("/") or ".." in Path(value).parts:
            raise ConfigError(f"outputs.{key}: path must stay inside the out dir")
        if not Path(value).parts:
            raise ConfigError(f"outputs.{key}: path names the out dir itself")
    paths = {name: Path(outputs.get(name, name)) for name in names}
    # a file can neither share its path with another nor sit below it
    for (a, path_a), (b, path_b) in itertools.combinations(paths.items(), 2):
        if path_a.is_relative_to(path_b) or path_b.is_relative_to(path_a):
            raise ConfigError(
                f"outputs: {a} ({path_a}) and {b} ({path_b}) are one file "
                "or one lies inside the other"
            )
    return paths


# -- validation ------------------------------------------------------------


def validate_config(cfg) -> dict:
    """Parse a config into the run it describes; raises ConfigError / BudgetError.

    The result holds the size estimates `validate` prints and every field
    of the config, parsed and with its default applied; a runner reads
    nothing else.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(": config must be a JSON object")
    schema = _get_int(cfg, "schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: unsupported version {schema}")
    kind = _get(cfg, "kind", str)
    if kind not in KINDS:
        raise ConfigError(f"kind: unknown kind {kind!r}; expected one of {KINDS}")
    seed = _get_int(cfg, "seed", required=False, default=0, minimum=0)
    outputs = _parse_outputs(cfg, kind)

    d = _get_int(cfg, "d", minimum=1)
    info: dict = {"kind": kind, "seed": seed, "outputs": outputs, "d": d}

    needs_quanta = kind != "symbol-roundtrip"
    if needs_quanta:
        M = _get_int(cfg, "M", minimum=0)
        info["M"] = M
        info["basis_size"] = check_dense_budget(d, M)
        info["dense_bytes"] = 16 * info["basis_size"] ** 2  # one complex matrix

    # only the kinds that slice or integrate read a rule order; the others
    # ignore Q like any other unused key
    if kind in ("lower-bound", "chernoff-sweep"):
        Q = info["Q"] = _get_int(cfg, "Q", minimum=1)

    if kind == "symbol-roundtrip":
        info["degree"] = _get_int(cfg, "degree", required=False, default=6, minimum=0)
        info["count"] = _get_int(cfg, "count", required=False, default=200, minimum=1)
    elif kind == "lower-bound":
        info["degree"] = _get_int(cfg, "degree", required=False, default=4, minimum=2)
        info["count"] = _get_int(cfg, "count", required=False, default=50, minimum=1)
        radius = _get_number(cfg, "radius", required=False, default=6.0)
        grid = PhaseGrid(radius=float(radius))
        _check_grid("d", "lower-bound scans a phase grid",
                    len(grid.mode_points()) ** d, d)
        info["grid"] = grid
    elif kind == "chernoff-sweep":
        info["t"] = float(_get_number(cfg, "t"))
        ns = _get_counts(cfg, "Ns")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("Ns: must be strictly ascending")
        info["Ns"] = ns
        _check_slice_rule(Q, M)
        info["symbol"] = _parse_symbol(cfg, d)
        info["probe"] = _parse_probe(cfg, d, M)
        window = _get(cfg, "halving_window", list, required=False, default=[1.6, 2.4])
        if not _is_pair(window):
            raise ConfigError("halving_window: expected [low, high] finite numbers")
        info["halving_window"] = window
    elif kind == "galerkin-sweep":
        t = info["t"] = float(_get_number(cfg, "t"))
        info["slope_threshold"] = float(_get_number(
            cfg, "slope_threshold", required=False, default=DEFAULT_SLOPE_THRESHOLD
        ))
        try:
            info["flag"] = Flag(d_max=d, ns=tuple(_get_counts(cfg, "flag")))
        except ValueError as exc:
            raise ConfigError(f"flag: {exc}") from exc
        info["symbol"] = _parse_symbol(cfg, d)
        info["probe"] = _parse_probe(cfg, d, M)
        info["route"] = _parse_route(cfg)
        info["t_scaling"] = None
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
            # base may sit below the sweep's t: the scaling window targets the
            # quadratic-in-t regime, which higher-order terms leave at large t
            info["t_scaling"] = (
                float(factor),
                (float(window[0]), float(window[1])),
                t if base_t is None else float(base_t),
            )
    elif kind == "evolve":
        grid = _get(cfg, "t_grid", list)
        if not grid or not all(map(_is_finite, grid)):
            raise ConfigError("t_grid: expected a non-empty list of finite numbers")
        info["t_grid"] = [float(v) for v in grid]
        info["symbol"] = _parse_symbol(cfg, d)
        initial = _get(cfg, "initial", dict)
        itype = initial.get("type")
        if itype not in ("vacuum", "coherent", "vector"):
            raise ConfigError(
                "initial.type: expected 'vacuum', 'coherent' or 'vector'"
            )
        if itype == "vacuum":
            psi0 = np.zeros(info["basis_size"], dtype=complex)
            psi0[0] = 1.0
        elif itype == "coherent":
            alpha = _parse_complex_vector(initial.get("alpha"), d, "initial.alpha")
            comp = coherent_vector(FockBasis(d, M), alpha).components
            psi0 = comp / np.linalg.norm(comp)
        else:
            psi0 = _parse_complex_vector(
                initial.get("components"), info["basis_size"], "initial.components"
            )
            norm = float(np.linalg.norm(psi0))
            if abs(norm - 1.0) > 1e-8:
                raise ConfigError(
                    f"initial.components: norm {norm!r} is not 1 within 1e-8"
                )
        info["initial"] = psi0
        info["route"] = _parse_route(cfg)
        method = _get(cfg, "method", str, required=False, default="oracle")
        if method not in ("oracle", "chernoff"):
            raise ConfigError("method: expected 'oracle' or 'chernoff'")
        info["method"] = method
        info["slices"] = None  # the oracle does not slice
        if method == "chernoff":
            info["slices"] = _get_int(cfg, "slices", required=False, default=32,
                                      minimum=1)
            # the default order is resolved here, so its grid is checked too
            info["Q"] = _get_int(cfg, "Q", required=False,
                                 default=M + DEFAULT_ORDER_MARGIN, minimum=1)
            _check_slice_rule(info["Q"], M)
    if "Q" in info:
        info["node_count"] = info["Q"] ** (2 * d)
        info["array_entries"] = _check_nodes(info["Q"], M, d)
    return info


# -- experiment kinds --------------------------------------------------------


def _run_ccr(run, rng):
    d, M = run["d"], run["M"]
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


def _run_symbol_roundtrip(run, rng):
    d, degree, count = run["d"], run["degree"], run["count"]
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


def _run_lower_bound(run, rng):
    d, M, Q, count = run["d"], run["M"], run["Q"], run["count"]
    basis = FockBasis(d, M)
    rule = gauss_hermite_rule(d, Q)
    worst_eig = math.inf
    worst_poly_dip = math.inf
    for _ in range(count):
        s = random_symbol(rng, d, run["degree"], n_terms=6, real=True)
        values = s.evaluate_grid(rule.mode_nodes).real
        # shift so the symbol is >= 0 on both the scan grid and the nodes;
        # positivity of the quadrature operator is certified at the nodes
        shift = min(infimum_estimate(s, run["grid"]), float(values.min()))
        op = antiwick_quantize_function(basis, values - shift, rule)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(op.mat).min()))
        poly_min = float(
            np.linalg.eigvalsh(antiwick_quantize_poly(basis, s - shift).mat).min()
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


def _run_chernoff_sweep(run, rng):
    d, M, Q, t, ns = run["d"], run["M"], run["Q"], run["t"], run["Ns"]
    window, symbol = run["halving_window"], run["symbol"]
    alpha, beta = run["probe"]
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
        "chernoff_table.csv": lambda path: records_to_csv(records, path),
        "chernoff_table.json": lambda path: _write_json(
            path, records_to_json(records, meta)
        ),
    }
    timings = {f"N={r.parameter}": r.seconds for r in records}
    timings[f"N={ns[-1]}"] += step_seconds
    return checks, metrics, artifacts, timings


def _run_galerkin_sweep(run, rng):
    t, symbol, threshold = run["t"], run["symbol"], run["slope_threshold"]
    alpha, beta = run["probe"]
    scaling = run["t_scaling"]
    times = [t]
    if scaling:
        factor, (lo, hi), base_t = scaling
        times += [base_t, factor * base_t]
    sweeps = galerkin_sweeps(
        symbol, run["flag"], times, alpha, beta, run["M"], route=run["route"],
    )
    records, fit = sweeps[0]
    errors = [r.abs_error for r in records]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    steep = fit.exact or (fit.slope is not None and fit.slope <= threshold)
    checks = [
        Check("errors-strictly-decreasing", decreasing, float(decreasing), 1.0),
        Check("rate-slope", steep,
              fit.slope if fit.slope is not None else 0.0, threshold),
    ]
    fit_json = {**fit.to_json(), "threshold": threshold, "pass": steep}
    metrics = {
        "fit": fit_json,
        "errors": {str(r.parameter): r.abs_error for r in records},
        "symbol_digest": symbol_digest(symbol),
    }
    artifacts = {
        "galerkin_sweep.csv": lambda path: sweep_to_csv(records, path),
        "galerkin_fit.json": lambda path: _write_json(path, fit_json),
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


def _run_evolve(run, rng):
    d, M, symbol, method = run["d"], run["M"], run["symbol"], run["method"]
    result = schrodinger_evolve(
        symbol, d, run["initial"], run["t_grid"], M,
        order=run.get("Q"), route=run["route"], method=method, slices=run["slices"],
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
        "route": run["route"],
        "method": method,
    }
    # unindented: json's C encoder does not indent, and this is the one
    # large file a run writes
    artifacts = {"states.json": lambda path: _write_json(path, payload, indent=None)}
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


def _write_json(path, payload, indent: int | None = 2) -> None:
    Path(path).write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")


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
    run = validate_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(run["seed"])

    started = time.perf_counter()
    checks, metrics, artifacts, timings = _RUNNERS[run["kind"]](run, rng)
    total = time.perf_counter() - started

    def write(name: str, writer) -> None:
        target = out_dir / run["outputs"][name]
        target.parent.mkdir(parents=True, exist_ok=True)
        _write_artifact(target.parent, target.name, writer)

    for name, writer in artifacts.items():
        write(name, writer)

    report = {
        "schema": SCHEMA_VERSION,
        "kind": run["kind"],
        "library_version": __version__,
        "config": cfg,
        "checks": [asdict(c) for c in checks],
        "metrics": metrics,
        "passed": all(c.passed for c in checks),
    }
    write("report.json", lambda path: _write_json(path, report))
    timings["total"] = total
    write("timings.json", lambda path: _write_json(path, timings))
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
                entries = info["array_entries"]
                print(f"largest quadrature array: {entries} entries "
                      f"({16 * entries / 1e6:.1f} MB)")
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
