"""Batch front end: validate experiment configs and run them to reports.

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 config/schema
violation, 3 budget exceeded.  Reports (report.json and CSV artifacts) are
byte-deterministic for a fixed config and seed; wall-clock measurements go
to a separate timings.json, the one deliberately non-deterministic output.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .fock import FockBasis, ccr_defect, check_coherent_tail, coherent_vector
from .galerkin import (
    ERROR_FLOOR,
    BudgetError,
    Flag,
    check_dense_budget,
    check_initial_norm,
    galerkin_sweeps,
    running_slopes,
    schrodinger_evolve,
)
from .propagate import feynman_convergence_table, halving_ratios
from .quantize import (
    DEFAULT_ORDER_MARGIN,
    antiwick_quantize_function,
    antiwick_quantize_poly,
    check_quadrature_array,
    check_phase_bound,
    check_slice_rule,
    gauss_hermite_rule,
)
from .symbols import (
    PhaseGrid,
    PolySymbol,
    antinormal_from_wick,
    check_conversion_degree,
    check_grid,
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

# orjson's nesting limit: the containers around any value of a payload
JSON_MAX_DEPTH = 255
JSON_OPTIONS = (orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
                | orjson.OPT_APPEND_NEWLINE)

# galerkin-sweep passes rate-slope when its log-log slope is at most this
DEFAULT_SLOPE_THRESHOLD = -0.8


class ConfigError(Exception):
    """Schema violation; the message starts with the offending field path."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float | None  # None where the measured value left the doubles
    tolerance: float


# -- config access helpers ------------------------------------------------


def _get(cfg: dict, name: str, types, required: bool = True, default=None):
    if name not in cfg:
        if required:
            raise ConfigError(f"{name}: missing required field")
        return default
    val = cfg[name]
    types = types if isinstance(types, tuple) else (types,)
    # bool is an int subclass; json true/false is not a number
    if not isinstance(val, types) or (isinstance(val, bool) and bool not in types):
        expected = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{name}: expected {expected}, got {type(val).__name__}")
    return val


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


def _fault(obj, depth: int = 0) -> str | None:
    """`path: fault` of the first part of `obj` strict JSON cannot hold.

    `depth` counts the containers around `obj` in the file.  Strict JSON
    has no NaN or Infinity, and orjson writes neither an integer outside
    [-2**63, 2**64) nor containers nested more than JSON_MAX_DEPTH deep.
    Walks dicts, lists and tuples on an explicit stack; an ndarray is
    checked whole.
    """
    stack = [("", obj, depth)]
    while stack:
        path, val, depth = stack.pop()
        if isinstance(val, (dict, list, tuple)):
            if depth >= JSON_MAX_DEPTH:
                return f"{path}: nested more than {JSON_MAX_DEPTH} deep"
            if isinstance(val, dict):
                children = [(f"{path}.{key}" if path else str(key), item)
                            for key, item in val.items()]
            else:
                children = [(f"{path}[{i}]", item) for i, item in enumerate(val)]
            # reversed, so the first fault in document order is found first
            stack.extend((at, item, depth + 1) for at, item in reversed(children))
        elif isinstance(val, np.ndarray):
            if not np.isfinite(val).all():
                return f"{path}: expected finite numbers"
        elif isinstance(val, (float, np.floating)):
            if not math.isfinite(val):
                return f"{path}: expected a finite number, got {val!r}"
        elif isinstance(val, int) and not isinstance(val, bool):
            if not -2**63 <= val < 2**64:
                return f"{path}: expected an integer from -2**63 to 2**64 - 1"
    return None


def _encode(payload, depth: int = 0) -> bytes:
    """The JSON file of `payload`: compact, sorted keys, shortest round-trip
    floats, a closing newline.

    Raises ValueError `path: fault` for a part strict JSON cannot hold
    where `payload` sits `depth` containers down in a file; the bytes then
    wrap it in as many lists.
    """
    wrapped = payload
    for _ in range(depth):
        wrapped = [wrapped]
    try:
        data = orjson.dumps(wrapped, option=JSON_OPTIONS)
    except orjson.JSONEncodeError as exc:
        raise ValueError(_fault(payload, depth) or f": {exc}") from exc
    # orjson writes NaN and Infinity as null: only bytes with a null can
    # hold one, and only those are walked
    if b"null" in data and (fault := _fault(payload, depth)):
        raise ValueError(fault)
    return data


def _is_pair(obj) -> bool:
    return isinstance(obj, list) and len(obj) == 2 and all(map(_is_finite, obj))


def _check_window(name: str, window) -> None:
    if not _is_pair(window):
        raise ConfigError(f"{name}: expected [low, high] finite numbers")
    if window[0] > window[1]:
        raise ConfigError(f"{name}: low {window[0]!r} > high {window[1]!r}")


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


def _ask(field: str, check, *args):
    # a library check or constructor; its refusal, a ValueError, is a
    # ConfigError on the field that set what it refused
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


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
    # the longest time of the run's spectral oracle, and of its slices
    oracle_t = slice_tau = None

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
        info["degree"] = _ask("degree", check_conversion_degree, _get_int(
            cfg, "degree", required=False, default=6, minimum=0))
        info["count"] = _get_int(cfg, "count", required=False, default=200, minimum=1)
    elif kind == "lower-bound":
        info["degree"] = _ask("degree", check_conversion_degree, _get_int(
            cfg, "degree", required=False, default=4, minimum=2))
        info["count"] = _get_int(cfg, "count", required=False, default=50, minimum=1)
        radius = _get_number(cfg, "radius", required=False, default=6.0)
        grid = PhaseGrid(radius=float(radius))
        _ask("d", check_grid, len(grid.mode_points()) ** d, d)
        info["grid"] = grid
    elif kind == "chernoff-sweep":
        info["t"] = float(_get_number(cfg, "t"))
        ns = _get_counts(cfg, "Ns")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("Ns: must be strictly ascending")
        # the halving-ratio check reads only adjacent N, 2N pairs
        if not any(b == 2 * a for a, b in zip(ns, ns[1:])):
            raise ConfigError("Ns: needs an adjacent pair N, 2N for a halving ratio")
        info["Ns"] = ns
        oracle_t, slice_tau = info["t"], info["t"] / ns[0]
        _ask("Q", check_slice_rule, Q, M)
        info["symbol"] = _parse_symbol(cfg, d)
        info["probe"] = _parse_probe(cfg, d, M)
        window = _get(cfg, "halving_window", list, required=False, default=[1.6, 2.4])
        _check_window("halving_window", window)
        info["halving_window"] = window
    elif kind == "galerkin-sweep":
        t = info["t"] = float(_get_number(cfg, "t"))
        info["slope_threshold"] = float(_get_number(
            cfg, "slope_threshold", required=False, default=DEFAULT_SLOPE_THRESHOLD
        ))
        info["flag"] = _ask("flag", Flag, d, tuple(_get_counts(cfg, "flag")))
        info["symbol"] = _parse_symbol(cfg, d)
        info["probe"] = _parse_probe(cfg, d, M)
        info["route"] = _parse_route(cfg)
        info["t_scaling"] = None
        oracle_t = abs(t)
        scaling = _get(cfg, "t_scaling", dict, required=False)
        if scaling is not None:
            factor = scaling.get("factor")
            window = scaling.get("window")
            if not _is_finite(factor) or factor <= 1:
                raise ConfigError("t_scaling.factor: expected a finite number > 1")
            _check_window("t_scaling.window", window)
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
            # the run evolves to the scaling's two times too
            factor, _, base_t = info["t_scaling"]
            oracle_t = max(oracle_t, abs(base_t), abs(factor * base_t))
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
            start = _ask("initial.alpha", coherent_vector, FockBasis(d, M), alpha)
            psi0 = start.components / start.norm
        else:
            psi0 = _parse_complex_vector(
                initial.get("components"), info["basis_size"], "initial.components"
            )
            _ask("initial.components", check_initial_norm, psi0)
        info["initial"] = psi0
        info["route"] = _parse_route(cfg)
        method = _get(cfg, "method", str, required=False, default="oracle")
        if method not in ("oracle", "chernoff"):
            raise ConfigError("method: expected 'oracle' or 'chernoff'")
        info["method"] = method
        info["slices"] = None  # the oracle does not slice
        longest = max(map(abs, info["t_grid"]))
        if method == "oracle":
            oracle_t = longest
        else:
            info["slices"] = _get_int(cfg, "slices", required=False, default=32,
                                      minimum=1)
            slice_tau = longest / info["slices"]
            # the default order is resolved here, so its grid is checked too
            info["Q"] = _get_int(cfg, "Q", required=False,
                                 default=M + DEFAULT_ORDER_MARGIN, minimum=1)
            _ask("Q", check_slice_rule, info["Q"], M)
    # the exact anti-Wick route converts the symbol: the chernoff reference,
    # and the antiwick route of a sweep or an oracle evolution; the oracle's
    # Hamiltonian is the Wick quantization of the result
    wick = info.get("symbol")
    if kind == "chernoff-sweep" or (
        info.get("route") == "antiwick" and info.get("method") != "chernoff"
    ):
        wick = _ask("symbol", wick_from_antinormal, info["symbol"])
    if "Q" in info:
        info["node_count"] = info["Q"] ** (2 * d)
        info["array_entries"] = _ask("Q", check_quadrature_array, d, info["Q"], M)
    if oracle_t is not None:
        _ask("symbol", check_phase_bound, wick, oracle_t, math.sqrt(M))
    if slice_tau is not None:
        # built once: the phase check reads its radius, a sweep runs on it
        info["rule"] = gauss_hermite_rule(d, info["Q"])
        _ask("symbol", check_phase_bound, info["symbol"], slice_tau,
             info["rule"].radius)
    # every key, read or not, must fit the report that echoes the config
    # one level down
    try:
        _encode(cfg, depth=1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return info


# -- experiment kinds --------------------------------------------------------


def _finite_or_none(value: float) -> float | None:
    # strict JSON has no inf or nan: a value past the doubles is null
    return value if math.isfinite(value) else None


def _window_check(name: str, ratios: list, lo, hi) -> Check:
    # passes when there is a ratio and every one lies in [lo, hi]; reports
    # the smallest against lo
    inside = bool(ratios) and all(lo <= r <= hi for r in ratios)
    return Check(name, inside, min(ratios, default=0.0), lo)


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
        try:
            w = wick_from_antinormal(s)
            back = antinormal_from_wick(w)
        except ValueError:
            # a coefficient past the double range (degree >= 297 can reach
            # it): the round trip has no finite deviation
            worst = math.inf
            continue
        worst = max(worst, max_coeff_difference(back, s))
        diff = w - s
        if w.degree != s.degree and not s.is_zero():
            degree_law_ok = False
        if not diff.is_zero() and diff.degree > s.degree - 2:
            degree_law_ok = False
    checks = [
        Check("roundtrip-max-deviation", worst <= 1e-12, _finite_or_none(worst),
              1e-12),
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
        # shift so the symbol is >= 0 on both the scan grid and the nodes;
        # positivity of the quadrature operator is certified at the nodes
        with np.errstate(over="ignore", invalid="ignore"):
            values = s.evaluate_grid(rule.mode_nodes).real
            shift = min(infimum_estimate(s, run["grid"]), float(values.min()))
            values = values - shift
        if not np.isfinite(values).all():
            # the symbol leaves the doubles on the grid or the nodes: the
            # sample has no finite minimum, so the check fails
            worst_eig = -math.inf
            continue
        op = antiwick_quantize_function(basis, values, rule)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(op.mat).min()))
        try:
            poly = antiwick_quantize_poly(basis, s - shift)
        except ValueError:
            # a coefficient past the double range, which a large random one
            # can reach just below check_conversion_degree's bound: the
            # reported exact-route minimum covers the other samples
            continue
        worst_poly_dip = min(worst_poly_dip, *(
            float(np.linalg.eigvalsh(block).min()) for _, block in poly.blocks))
    checks = [Check("antiwick-min-eigenvalue", worst_eig >= -1e-8,
                    _finite_or_none(worst_eig), -1e-8)]
    metrics = {
        "samples": count,
        # the exact route may dip below the symbol infimum by the normal-
        # ordering correction; reported, not gated
        "poly_route_min_eigenvalue": _finite_or_none(worst_poly_dip),
    }
    return checks, metrics, {}, {}


def _run_chernoff_sweep(run, rng):
    d, M, Q, t, ns = run["d"], run["M"], run["Q"], run["t"], run["Ns"]
    window, symbol = run["halving_window"], run["symbol"]
    alpha, beta = run["probe"]
    records = feynman_convergence_table(
        symbol, t, ns, alpha, beta, FockBasis(d, M), run["rule"]
    )

    ratios = halving_ratios(records)
    spectral_norm, reference = records.slice_norm, records.reference
    checks = [
        _window_check("halving-ratio-window", [r for _, r in ratios], *window),
        Check("slice-contractivity", spectral_norm <= 1 + 1e-6, spectral_norm,
              1 + 1e-6),
    ]
    digest = symbol_digest(symbol)
    metrics = {
        "reference": [reference.real, reference.imag],
        "ratios": {str(n): r for n, r in ratios},
        "halving_window": list(window),
        "symbol_digest": digest,
    }
    table = {
        "metadata": {"d": d, "M": M, "Q": Q, "t": t, "symbol_digest": digest},
        # wall time, the one non-deterministic field, is left to timings.json
        "records": [
            {"parameter": r.parameter, "observable": "coherent_element",
             "re": r.value.real, "im": r.value.imag, "abs_error": r.abs_error}
            for r in records
        ],
    }
    artifacts = {
        "chernoff_table.csv": lambda path: _write_csv(
            path, ["N", "re", "im", "abs_error"], map(_record_row, records)
        ),
        "chernoff_table.json": lambda path: _write_json(path, table),
    }
    timings = {f"N={r.parameter}": r.seconds for r in records}
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
    # errors at or below the floor are round-off: they count as 0, as in the fit
    errors = [r.abs_error if r.abs_error > ERROR_FLOOR else 0.0 for r in records]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    steep = fit.exact or (fit.slope is not None and fit.slope <= threshold)
    checks = [
        Check("errors-strictly-decreasing", decreasing, float(decreasing), 1.0),
        Check("rate-slope", steep,
              fit.slope if fit.slope is not None else 0.0, threshold),
    ]
    fit_json = {**asdict(fit), "samples": [list(p) for p in fit.samples],
                "threshold": threshold, "pass": steep}
    metrics = {
        "fit": fit_json,
        "errors": {str(r.parameter): r.abs_error for r in records},
        "symbol_digest": symbol_digest(symbol),
    }
    artifacts = {
        "galerkin_sweep.csv": _sweep_writer(records),
        "galerkin_fit.json": lambda path: _write_json(path, fit_json),
    }
    timings = {f"n={r.parameter}": r.seconds for r in records}
    timings["reference"] = sweeps.reference_seconds

    if scaling:
        (base_records, _), (scaled_records, _) = sweeps[1:]
        ratios = {
            str(base.parameter): scaled.abs_error / base.abs_error
            for base, scaled in zip(base_records, scaled_records)
            if base.abs_error > ERROR_FLOOR
        }
        checks.append(_window_check("t-scaling-window", list(ratios.values()), lo, hi))
        metrics["t_scaling_ratios"] = ratios
        metrics["t_scaling_base_t"] = base_t
        artifacts["galerkin_sweep_scaled.csv"] = _sweep_writer(scaled_records)
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
        # (time, state, [re, im]), one C-contiguous float64 array
        "states": np.stack(result.states).view(float).reshape(len(result.times), -1, 2),
        "basis": {"modes": d, "max_quanta": M},
        "route": run["route"],
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


def _write_json(path, payload) -> None:
    Path(path).write_bytes(_encode(payload))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _record_row(r) -> list:
    # a convergence record's row; repr keeps every digit of its doubles
    return [r.parameter, repr(r.value.real), repr(r.value.imag), repr(r.abs_error)]


def _sweep_writer(records):
    # a galerkin sweep's CSV: each record's row and the running slope to it
    return lambda path: _write_csv(
        path, ["n", "re", "im", "abs_error", "slope_running"],
        [_record_row(r) + [repr(s)] for r, s in zip(records, running_slopes(records))],
    )


def _write_artifact(out_dir: Path, name: Path | str, writer) -> None:
    # writers stream to a temp path; the rename is the commit point
    target = out_dir / name
    target.parent.mkdir(parents=True, exist_ok=True)
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

    report = {
        "schema": SCHEMA_VERSION,
        "kind": run["kind"],
        "library_version": __version__,
        "config": cfg,
        "checks": [asdict(c) for c in checks],
        "metrics": metrics,
        "passed": all(c.passed for c in checks),
    }
    timings["total"] = total
    # the kind's artifacts first, the report and timings last
    artifacts["report.json"] = lambda path: _write_json(path, report)
    artifacts["timings.json"] = lambda path: _write_json(path, timings)
    for name, writer in artifacts.items():
        _write_artifact(out_dir, run["outputs"][name], writer)
    return report


# -- entry point -------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f": cannot read config file: {exc}") from exc
    try:
        return json.loads(text)
    # a decode error, an integer past Python's 4300-digit conversion limit,
    # or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
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
