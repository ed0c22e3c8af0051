"""Seeded benchmark workloads: lists of fockprop experiment configs.

Every config comes from `fockprop.benchmarks` (the shipped standard
configs, `coupled_quartic` and `quartic_oscillator`). The seed draws each
config's `seed` field and one phase per probe and per coherent initial
state. A probe's phase turns its alpha and beta points alike, so the
relative phase between them stays the shipped one. Magnitudes keep their
shipped values, so the coherent tail bounds still hold.

The relative phase sets how far the leading error terms cancel, and the
shipped convergence windows were set for the shipped relative phase. Over
the common-phase circle (720 phases) the checks hold with margin:
galerkin t-scaling ratios 3.32-3.56 at M=8 and 2.95-3.40 at M=10 (window
[2.5, 6.0]), chernoff halving ratios 1.70-1.97 at the sizes below (window
[1.6, 2.4]). Drawn independently, the relative phase leaves them: at M=8,
0.3% of (alpha, beta) phase pairs give a t-scaling ratio down to 2.485,
with elements that agree with the oracle (oracle.py) to ORACLE_TOL, and
at M=10 the ratio reaches 5.89. A report that fails a check on a config
drawn here is a failed op.

No d=3 quadrature config is included: at d=3 the chernoff sweep's halving
ratios leave their [1.6, 2.4] window over 29% of independently drawn
phase pairs (1.17 to 16.0 at M=6, Q=8) and come within 1% of its floor
on the common-phase circle (1.616), and a d=3 lower bound overruns the
phase-grid limit. A second d=2 sweep at M=14, Q=16 (65,536 nodes, 120
states) takes its place as the node-heavy case.

Why each workload exists (the same text is in BENCHMARK.json):

- standard: the six shipped configs at shipped sizes. Small problems, the
  only d=1 quadrature; a change aimed at large sizes must not move it.
- galerkin: d=4 galerkin sweeps with t_scaling at M=8 and M=10. Dense
  Hamiltonians, one eigh and one full unitary per coherent element.
- quadrature: d=2 chernoff sweeps at M=10, Q=12 and M=14, Q=16, and a d=2
  lower bound. Anti-Wick quadrature and node evaluation dominate; bases
  stay at or below 120 states.
- evolve: one d=3, M=14 evolution over 64 times. One decomposition reused
  63 times, and a large states.json written.
"""

from __future__ import annotations

import copy
import math
import zlib

import numpy as np

from fockprop.benchmarks import coupled_quartic, quartic_oscillator, standard_configs
from fockprop.symbols import to_term_list


def _rotated(pair: list, phase: complex) -> list:
    z = complex(pair[0], pair[1]) * phase
    return [z.real, z.imag]


def _phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def _reseed(rng, cfg: dict) -> dict:
    """Draw the seed field and one phase per probe and initial state."""
    cfg = copy.deepcopy(cfg)
    cfg["seed"] = int(rng.integers(0, 2**31 - 1))
    for probe in cfg.get("probes", []):
        phase = _phase(rng)
        probe["alpha"] = [_rotated(p, phase) for p in probe["alpha"]]
        probe["beta"] = [_rotated(p, phase) for p in probe["beta"]]
    initial = cfg.get("initial", {})
    if "alpha" in initial:
        phase = _phase(rng)
        initial["alpha"] = [_rotated(p, phase) for p in initial["alpha"]]
    return cfg


def _padded(point: list, modes: int) -> list:
    """A shipped one-mode point on mode 1 of a `modes`-mode config."""
    return point + [[0.0, 0.0]] * (modes - len(point))


def _chernoff(d: int, M: int, Q: int, ns: list[int]) -> dict:
    """The shipped d=1 chernoff sweep, moved to d modes and resized."""
    cfg = copy.deepcopy(standard_configs()["chernoff_sweep"])
    probe = cfg["probes"][0]
    symbol = quartic_oscillator() if d == 1 else coupled_quartic(modes=d)
    cfg.update(
        d=d, M=M, Q=Q, Ns=ns, symbol=to_term_list(symbol),
        probes=[{"alpha": _padded(probe["alpha"], d),
                 "beta": _padded(probe["beta"], d)}],
    )
    return cfg


def _shipped(name: str) -> dict[str, dict]:
    """A workload's configs before the seed's draws, keyed by a stable name."""
    std = standard_configs()
    if name == "standard":
        return std
    if name == "galerkin":
        galerkin = std["galerkin_sweep"]
        return {"galerkin_m8": galerkin, "galerkin_m10": dict(galerkin, M=10)}
    if name == "quadrature":
        return {
            "chernoff_d2": _chernoff(2, 10, 12, [8, 16, 32, 64, 128]),
            "chernoff_d2_m14": _chernoff(2, 14, 16, [8, 16, 32, 64, 128]),
            "lower_bound_d2": dict(std["lower_bound"], d=2, M=8, Q=10, count=5),
        }
    if name == "evolve":
        evolve = copy.deepcopy(std["evolve"])
        evolve["initial"]["alpha"] = _padded(evolve["initial"]["alpha"], 3)
        evolve.update(
            d=3, M=14,
            t_grid=[float(v) for v in np.linspace(0.0, 1.0, 64)],
            symbol=to_term_list(coupled_quartic(modes=3)),
        )
        return {"evolve_d3": evolve}
    raise ValueError(f"unknown workload {name!r}")


def _tiny(cfg: dict) -> dict:
    """A small config of the same kind, for warm-up and the self-test."""
    cfg = copy.deepcopy(cfg)
    kind = cfg["kind"]
    if kind == "ccr-check":
        cfg["M"] = 4
    elif kind == "symbol-roundtrip":
        cfg["count"] = 10
    elif kind == "lower-bound":
        cfg.update(M=4, Q=6, count=2)
    elif kind == "chernoff-sweep":
        # the coherent tail needs M >= 6 at the shipped probes; at d >= 2 and
        # N <= 16 the halving ratio misses its window for some phases
        cfg = _chernoff(1, 6, 8, cfg["Ns"][:2])
    elif kind == "galerkin-sweep":
        # at M=6 the t-doubling ratio leaves its window on some seeds (a
        # cutoff effect the shipped M=8 avoids), so the tiny sweep skips it
        cfg["M"] = 6
        cfg.pop("t_scaling", None)
    elif kind == "evolve":
        cfg.update(M=6, t_grid=cfg["t_grid"][:8])
    return cfg


def make_workload(name: str, seed: int, tiny: bool = False) -> dict[str, dict]:
    """Configs of one workload, keyed by a stable name, drawn from `seed`."""
    shipped = _shipped(name)
    # one random stream per (seed, workload)
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    if tiny:
        shipped = {key: _tiny(cfg) for key, cfg in shipped.items()}
    return {key: _reseed(rng, cfg) for key, cfg in shipped.items()}
