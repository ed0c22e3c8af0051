"""Correctness gate: a run's key outputs against an independent dense oracle.

The oracle imports nothing from fockprop. It holds its own plain, dense
copies of what a run computes: the canonical basis order, the heat-series
conversion from anti-normal to normal symbols, the normal-ordered (Wick)
matrix, the anti-Wick slice operator as a weighted sum of coherent
projectors over a tensor Gauss-Hermite rule, and the spectral propagator
through numpy's eigh. A change to the library's quantizers, basis ranking
or propagators therefore cannot change the oracle together with the run
it checks.

For every kind that propagates, the key outputs written by `run_config`
must agree with the oracle within ORACLE_TOL, the oracle-integrity
tolerance of the acceptance suite:

- chernoff-sweep: the reference element, and each table row's value and
  abs_error;
- galerkin-sweep: every member's element and abs_error at t, the scaled
  sweep's elements, and the t-scaling ratios (relative);
- evolve (oracle method): every evolved state.

ccr-check, symbol-roundtrip and lower-bound have no propagator; their
gate is the report's own checks. None of this runs inside a timed region.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-9
# t-scaling ratios divide two errors of order 1e-4 or more, each good to
# ORACLE_TOL, so they are compared relatively
RATIO_RTOL = 1e-5
# quadrature nodes per block of the slice-operator sum
NODE_BLOCK = 8192

# a symbol: (conjugate exponents, plain exponents) -> coefficient
Terms = dict[tuple[tuple[int, ...], tuple[int, ...]], complex]


# -- key outputs of a finished run --------------------------------------------

def _read_sweep_csv(path: Path) -> dict[int, tuple[complex, float]]:
    with open(path, newline="") as fh:
        return {
            int(row["n"]): (complex(float(row["re"]), float(row["im"])),
                            float(row["abs_error"]))
            for row in csv.DictReader(fh)
        }


def key_outputs(cfg: dict, out_dir: Path, report: dict) -> dict:
    """The numbers of one finished run that the oracle can vouch for."""
    kind = cfg["kind"]
    out_dir = Path(out_dir)
    if kind == "chernoff-sweep":
        table = json.loads((out_dir / "chernoff_table.json").read_text())
        return {
            "reference": complex(*report["metrics"]["reference"]),
            "rows": {r["parameter"]: (complex(r["re"], r["im"]), r["abs_error"])
                     for r in table["records"]},
        }
    if kind == "galerkin-sweep":
        out = {"sweep": _read_sweep_csv(out_dir / "galerkin_sweep.csv")}
        if cfg.get("t_scaling"):
            out["scaled"] = _read_sweep_csv(out_dir / "galerkin_sweep_scaled.csv")
            out["ratios"] = {int(n): r for n, r
                             in report["metrics"]["t_scaling_ratios"].items()}
        return out
    if kind == "evolve":
        payload = json.loads((out_dir / "states.json").read_text())
        return {"states": np.array([[complex(re, im) for re, im in state]
                                    for state in payload["states"]])}
    return {}


# -- symbols ------------------------------------------------------------------

def _terms(term_list: list[dict]) -> Terms:
    terms: Terms = {}
    for term in term_list:
        key = (tuple(term["kstar"]), tuple(term["k"]))
        terms[key] = terms.get(key, 0j) + complex(term["re"], term["im"])
    return terms


def _first_modes(terms: Terms, n: int) -> Terms:
    """Drop every term that touches a mode past n; keep n modes."""
    return {(ks[:n], k[:n]): c for (ks, k), c in terms.items()
            if not any(ks[n:]) and not any(k[n:])}


def _normal_from_antinormal(terms: Terms) -> Terms:
    """sum_m L^m a / m!, with L the mixed Laplacian sum_i d2/dz*_i dz_i."""
    total, current, m = dict(terms), terms, 0
    while current:
        m += 1
        lowered: Terms = {}
        for (ks, k), c in current.items():
            for i, (a, b) in enumerate(zip(ks, k)):
                if a and b:
                    key = (ks[:i] + (a - 1,) + ks[i + 1:], k[:i] + (b - 1,) + k[i + 1:])
                    lowered[key] = lowered.get(key, 0j) + c * a * b / m
        current = {key: c for key, c in lowered.items() if c != 0}
        for key, c in current.items():
            total[key] = total.get(key, 0j) + c
    return total


def _evaluate(terms: Terms, z: np.ndarray) -> np.ndarray:
    """sum c prod_i conj(z_i)^kstar_i z_i^k_i at each row of z (nodes, modes)."""
    out = np.zeros(len(z), dtype=complex)
    for (ks, k), c in terms.items():
        out += c * np.prod(z.conj() ** np.array(ks) * z ** np.array(k), axis=1)
    return out


# -- basis and operators ------------------------------------------------------

def _states(modes: int, max_quanta: int) -> list[tuple[int, ...]]:
    """Canonical basis order: by total quanta, then first mode largest first."""
    def layer(total, m):
        if m == 1:
            return [(total,)]
        return [(head,) + rest for head in range(total, -1, -1)
                for rest in layer(total - head, m - 1)]
    return [s for q in range(max_quanta + 1) for s in layer(q, modes)]


def _falling(n: int, k: int) -> int:
    return math.prod(range(n - k + 1, n + 1))


def _wick_matrix(states: list, terms: Terms) -> np.ndarray:
    """Normal-ordered operator of a symbol: annihilators act first."""
    index = {s: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for (ks, k), c in terms.items():
        for col, src in enumerate(states):
            if any(s < e for s, e in zip(src, k)):
                continue
            dst = tuple(s - e + f for s, e, f in zip(src, k, ks))
            row = index.get(dst)
            if row is None:  # past the quanta cutoff
                continue
            amp = math.prod(_falling(s, e) for s, e in zip(src, k))
            amp *= math.prod(_falling(s, f) for s, f in zip(dst, ks))
            mat[row, col] += c * math.sqrt(amp)
    return mat


def _coherent(states: list, z: np.ndarray) -> np.ndarray:
    """Unnormalized coherent vectors z^n / sqrt(n!), one column per row of z."""
    z = np.atleast_2d(z)
    out = np.ones((len(states), len(z)), dtype=complex)
    for row, s in enumerate(states):
        for i, e in enumerate(s):
            if e:
                out[row] *= z[:, i] ** e / math.sqrt(math.factorial(e))
    return out


class _Spectral:
    """exp(-i h t) through one eigendecomposition of the Hermitian h."""

    def __init__(self, h: np.ndarray):
        self.values, self.vectors = np.linalg.eigh(h)

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        return self.vectors @ (np.exp(-1j * self.values * t)
                               * (self.vectors.conj().T @ psi))


def _element(states: list, prop: _Spectral, t: float, alpha, beta) -> complex:
    """<F_alpha, exp(-i h t) F_beta> with unnormalized coherent vectors."""
    fa = _coherent(states, alpha)[:, 0]
    fb = _coherent(states, beta)[:, 0]
    return complex(np.vdot(fa, prop.apply(fb, t)))


def _slice_operators(states: list, terms: Terms, order: int,
                     taus: list[float]) -> list[np.ndarray]:
    """Anti-Wick operators of exp(-i tau a), one per tau, by quadrature.

    sum_q w_q f(z_q) F_q F_q^* over the tensor Gauss-Hermite rule with
    `order` points per real coordinate; w_q absorbs exp(-|z|^2)/pi^d, so
    with unnormalized coherent vectors F_q the projector norm cancels.
    """
    modes = len(states[0])
    x, w = np.polynomial.hermite.hermgauss(order)
    z1 = (x[:, None] + 1j * x[None, :]).reshape(-1)
    w1 = (w[:, None] * w[None, :]).reshape(-1) / math.pi
    grid = np.indices((len(z1),) * modes).reshape(modes, -1).T
    ops = [np.zeros((len(states), len(states)), dtype=complex) for _ in taus]
    for start in range(0, len(grid), NODE_BLOCK):
        block = grid[start:start + NODE_BLOCK]
        z = z1[block]
        weight = w1[block].prod(axis=1)
        symbol = _evaluate(terms, z).real
        cols = _coherent(states, z)
        for op, tau in zip(ops, taus):
            op += (cols * (weight * np.exp(-1j * tau * symbol))) @ cols.conj().T
    return ops


# -- the oracle per kind ------------------------------------------------------

def _complex_vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _probe(cfg) -> tuple[np.ndarray, np.ndarray]:
    probe = cfg["probes"][0]
    return _complex_vec(probe["alpha"]), _complex_vec(probe["beta"])


def _hamiltonian(cfg: dict, n: int, states: list) -> np.ndarray:
    """The symbol on its first n modes, quantized by the config's route."""
    terms = _first_modes(_terms(cfg["symbol"]), n)
    if cfg.get("route", "wick") == "antiwick":
        terms = _normal_from_antinormal(terms)
    return _wick_matrix(states, terms)


def _chernoff(cfg: dict) -> dict:
    d, M, t, ns = cfg["d"], cfg["M"], float(cfg["t"]), cfg["Ns"]
    states = _states(d, M)
    terms = _terms(cfg["symbol"])
    alpha, beta = _probe(cfg)
    spectral = _Spectral(_wick_matrix(states, _normal_from_antinormal(terms)))
    reference = _element(states, spectral, t, alpha, beta)
    fa, fb = _coherent(states, alpha)[:, 0], _coherent(states, beta)[:, 0]
    rows = {}
    for n, step in zip(ns, _slice_operators(states, terms, cfg["Q"],
                                            [t / n for n in ns])):
        value = complex(np.vdot(fa, np.linalg.matrix_power(step, n) @ fb))
        rows[n] = (value, abs(value - reference))
    return {"reference": reference, "rows": rows}


def _galerkin(cfg: dict) -> dict:
    d, M, t, flag = cfg["d"], cfg["M"], float(cfg["t"]), cfg["flag"]
    scaling = cfg.get("t_scaling")
    times = [t]
    if scaling:
        base_t = float(scaling.get("base_t", t))
        times += [base_t, float(scaling["factor"]) * base_t]
    alpha, beta = _probe(cfg)
    elements = {time: {} for time in times}
    for n in sorted(set(flag) | {d}):
        states = _states(n, M)
        spectral = _Spectral(_hamiltonian(cfg, n, states))
        for time in times:
            elements[time][n] = _element(states, spectral, time, alpha[:n], beta[:n])

    def sweep(time):
        ref = elements[time][d]
        return {n: (elements[time][n], abs(elements[time][n] - ref)) for n in flag}

    out = {"sweep": sweep(t)}
    if scaling:
        base, scaled = sweep(times[1]), sweep(times[2])
        out["scaled"] = scaled
        out["ratios"] = {n: scaled[n][1] / base[n][1]
                         for n in flag if base[n][1] > 1e-12}
    return out


def _evolve(cfg: dict) -> dict:
    d, M = cfg["d"], cfg["M"]
    states = _states(d, M)
    initial = cfg["initial"]
    if initial["type"] == "coherent":
        psi0 = _coherent(states, _complex_vec(initial["alpha"]))[:, 0]
        psi0 = psi0 / np.linalg.norm(psi0)
    elif initial["type"] == "vacuum":
        psi0 = np.zeros(len(states), dtype=complex)
        psi0[0] = 1.0
    else:
        psi0 = _complex_vec(initial["components"])
    spectral = _Spectral(_hamiltonian(cfg, d, states))
    return {"states": np.array([psi0 if t == 0.0 else spectral.apply(psi0, t)
                                for t in map(float, cfg["t_grid"])])}


def oracle_outputs(cfg: dict) -> dict:
    """Key outputs recomputed by the oracle, in key_outputs' layout."""
    kind = cfg["kind"]
    if kind == "chernoff-sweep":
        return _chernoff(cfg)
    if kind == "galerkin-sweep":
        return _galerkin(cfg)
    if kind == "evolve" and cfg.get("method", "oracle") == "oracle":
        return _evolve(cfg)
    return {}


def disagreements(cfg: dict, got: dict, want: dict) -> list[str]:
    """Key outputs of a run that differ from the oracle beyond ORACLE_TOL."""
    if not want:
        return []
    bad = []
    kind = cfg["kind"]
    if kind == "chernoff-sweep":
        if abs(got["reference"] - want["reference"]) > ORACLE_TOL:
            bad.append("reference")
        parts = {"rows": (got["rows"], want["rows"])}
    elif kind == "galerkin-sweep":
        parts = {part: (got.get(part, {}), want[part])
                 for part in ("sweep", "scaled") if part in want}
        for n, ratio in want.get("ratios", {}).items():
            g = got.get("ratios", {}).get(n, math.nan)
            if not abs(g - ratio) <= RATIO_RTOL * abs(ratio):
                bad.append(f"t-scaling ratio n={n}")
    else:
        parts = {}
        if got["states"].shape != want["states"].shape:
            bad.append("states shape")
        elif float(np.abs(got["states"] - want["states"]).max()) > ORACLE_TOL:
            bad.append("states")
    for part, (g_part, w_part) in parts.items():
        if set(g_part) != set(w_part):
            bad.append(f"{part}: members {sorted(g_part)}, expected {sorted(w_part)}")
            continue
        for n, (value, err) in w_part.items():
            g_value, g_err = g_part[n]
            if abs(g_value - value) > ORACLE_TOL or abs(g_err - err) > ORACLE_TOL:
                bad.append(f"{part} n={n}")
    return bad
