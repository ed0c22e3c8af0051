"""Mode-reduction sweeps: reduced Hamiltonians and convergence-rate fits.

A flag of mode counts n_1 < ... <= d_max defines reduced Hamiltonians
obtained by substituting zero for every variable beyond mode n; the
reduced operator acts on the n-mode truncated space, which embeds exactly
in the full one.  Sweeps compare coherent matrix elements of the reduced
evolutions against the d_max reference at the same quanta cutoff, so only
the mode-truncation error is measured, and fit a log-log rate in n.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import FockBasis, OperatorMatrix
from .propagate import (
    ConvergenceRecord,
    ExactPropagator,
    SliceSchedule,
    chernoff_propagator,
    oracle_elements,
)
from .quantize import (
    DEFAULT_ORDER_MARGIN,
    antiwick_quantize_poly,
    gauss_hermite_rule,
    wick_quantize,
)
from .symbols import PolySymbol, as_phase_point, truncate_modes

DENSE_BASIS_BUDGET = 20_000
ERROR_FLOOR = 1e-12

__all__ = [
    "BudgetError",
    "check_dense_budget",
    "Flag",
    "RateFit",
    "fit_rate",
    "reduce_hamiltonian",
    "galerkin_sweeps",
    "EvolveResult",
    "schrodinger_evolve",
    "sweep_to_csv",
    "running_slopes",
]


class BudgetError(ValueError):
    """Requested problem size exceeds the dense-matrix budget."""


def check_dense_budget(modes: int, max_quanta: int) -> int:
    """Size binomial(M+d, d) of the dense basis; BudgetError above the budget."""
    size = math.comb(max_quanta + modes, modes)
    if size > DENSE_BASIS_BUDGET:
        raise BudgetError(
            f"basis size binomial({max_quanta}+{modes},{modes}) = {size} "
            f"exceeds budget {DENSE_BASIS_BUDGET}"
        )
    return size


@dataclass(frozen=True)
class Flag:
    """Strictly increasing mode counts, all <= d_max."""

    d_max: int
    ns: tuple[int, ...]

    def __post_init__(self):
        ns = tuple(int(n) for n in self.ns)
        if not ns:
            raise ValueError("flag must contain at least one mode count")
        if any(n < 1 for n in ns):
            raise ValueError("mode counts must be >= 1")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("flag must be strictly increasing")
        if ns[-1] > self.d_max:
            raise ValueError(f"flag entry {ns[-1]} exceeds d_max={self.d_max}")
        object.__setattr__(self, "ns", ns)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error vs log n; exact=True when the sweep
    hit the error floor everywhere and no fit is meaningful.

    A measurement only: whether the slope is steep enough is for the caller
    to judge (the CLI's rate-slope check).
    """

    samples: tuple[tuple[int, float], ...]
    slope: float | None
    intercept: float | None
    residual: float | None
    exact: bool

    def to_json(self) -> dict:
        return {
            "samples": [[n, e] for n, e in self.samples],
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "exact": self.exact,
        }


def _loglog_fit(points: Sequence[tuple[int, float]]):
    """Degree-1 least squares of log e on log n: (coefficients, residuals)."""
    coeffs, residuals, *_ = np.polyfit(
        np.log([n for n, _ in points]), np.log([e for _, e in points]), 1, full=True
    )
    return coeffs, residuals


def fit_rate(samples: Sequence[tuple[int, float]]) -> RateFit:
    """Fit log error ~ slope * log n + intercept over samples above ERROR_FLOOR."""
    samples = tuple((int(n), float(e)) for n, e in samples)
    usable = [(n, e) for n, e in samples if e > ERROR_FLOOR]
    if len(usable) < 3:
        return RateFit(samples, None, None, None, exact=not usable)
    coeffs, residuals = _loglog_fit(usable)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    residual = float(np.sqrt(residuals[0] / len(usable))) if len(residuals) else 0.0
    return RateFit(samples, slope, intercept, residual, exact=False)


def reduce_hamiltonian(
    w: PolySymbol, n: int, basis_n: FockBasis, route: str = "wick"
) -> OperatorMatrix:
    """Quantize the symbol with modes > n zeroed out, on the n-mode basis.

    route 'wick' quantizes the restricted normal symbol; 'antiwick' treats
    the restricted symbol as anti-normal and converts exactly.  Coherent
    elements at points supported on the first n modes agree with the full
    operator's elements at the projected points.
    """
    if not 1 <= n <= w.modes:
        raise ValueError(f"n={n} out of range 1..{w.modes}")
    if basis_n.modes != n:
        raise ValueError(f"basis has {basis_n.modes} modes, expected {n}")
    reduced = truncate_modes(w, n)
    if route == "wick":
        return wick_quantize(basis_n, reduced)
    if route == "antiwick":
        return antiwick_quantize_poly(basis_n, reduced)
    raise ValueError(f"unknown route {route!r}")


def galerkin_sweeps(
    w: PolySymbol,
    flag: Flag,
    times: Sequence[float],
    alpha,
    beta,
    max_quanta: int,
    route: str = "wick",
) -> list[tuple[list[ConvergenceRecord], RateFit]]:
    """Coherent-element errors of the reduced evolutions vs the d_max
    reference, one (records, fit) pair per time.

    For each n in the flag, H_n is built on the n-mode basis and its
    elements <F_a, exp(-i H_n t) F_b> at the probes projected to the first
    n modes come from one oracle_elements call: one decomposition for all
    times, one propagated vector per time.  The d_max reference at the same
    quanta cutoff is built the same way, and each record's error is taken
    against the reference at its own time.  The fit is a measurement; no
    slope is judged here.

    A record's `seconds` is its member's build, decomposition and element
    time for all times together, so every time reports the same value.
    """
    if flag.d_max != w.modes:
        raise ValueError(f"flag d_max={flag.d_max} but symbol has {w.modes} modes")
    check_dense_budget(w.modes, max_quanta)
    a_full = as_phase_point(alpha, w.modes)
    b_full = as_phase_point(beta, w.modes)
    times = [float(t) for t in times]

    def member(n: int) -> tuple[int, list[complex], float]:
        start = time.perf_counter()
        basis_n = FockBasis(n, max_quanta)
        h_n = reduce_hamiltonian(w, n, basis_n, route=route)
        values = oracle_elements(h_n, a_full[:n], b_full[:n], times)
        return n, values, time.perf_counter() - start

    _, reference, _ = member(w.modes)
    members = [member(n) for n in flag.ns]

    sweeps = []
    for k, ref in enumerate(reference):
        records = [
            ConvergenceRecord(
                parameter=n,
                value=values[k],
                abs_error=abs(values[k] - ref),
                seconds=seconds,
            )
            for n, values, seconds in members
        ]
        fit = fit_rate([(r.parameter, r.abs_error) for r in records])
        sweeps.append((records, fit))
    return sweeps


@dataclass(frozen=True)
class EvolveResult:
    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]
    norm_defects: tuple[float, ...]


def schrodinger_evolve(
    w: PolySymbol,
    n: int,
    initial: np.ndarray,
    t_grid: Sequence[float],
    max_quanta: int,
    order: int | None = None,
    route: str = "wick",
    method: str = "oracle",
    slices: int = 32,
) -> EvolveResult:
    """Evolve a normalized state under the n-mode reduced Hamiltonian.

    method 'oracle' uses the spectral decomposition (norm drift <= 1e-8);
    'chernoff' multiplies `slices` anti-Wick slice operators per time (norm
    drift reported, typically <= 1e-3 at adequate order).  `route` picks
    the oracle's Hamiltonian; the slices quantize the reduced symbol
    anti-Wick either way.  t == 0 entries return the initial state unchanged.
    """
    basis_n = FockBasis(n, max_quanta)
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.shape != (basis_n.size,):
        raise ValueError(
            f"initial state has shape {psi0.shape}, expected ({basis_n.size},)"
        )
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"initial state norm {nrm} is not 1 within 1e-6")

    states: list[np.ndarray] = []
    if method == "oracle":
        prop = ExactPropagator(reduce_hamiltonian(w, n, basis_n, route=route))
        for t in t_grid:
            states.append(psi0.copy() if t == 0.0 else prop.apply(psi0, t))
    elif method == "chernoff":
        reduced = truncate_modes(w, n)
        rule = gauss_hermite_rule(
            n, order if order else max_quanta + DEFAULT_ORDER_MARGIN
        )
        for t in t_grid:
            if t == 0.0:
                states.append(psi0.copy())
            else:
                prop = chernoff_propagator(
                    reduced, SliceSchedule(t, slices), basis_n, rule
                )
                states.append(prop.mat @ psi0)
    else:
        raise ValueError(f"unknown method {method!r}")
    defects = tuple(abs(float(np.linalg.norm(s)) - 1.0) for s in states)
    return EvolveResult(
        times=tuple(float(t) for t in t_grid),
        states=tuple(states),
        norm_defects=defects,
    )


def running_slopes(records: Sequence[ConvergenceRecord]) -> list[float]:
    """Least-squares log-log slope over the records seen so far above
    ERROR_FLOOR (nan below 2 points)."""
    out = []
    pts: list[tuple[int, float]] = []
    for r in records:
        if r.abs_error > ERROR_FLOOR:
            pts.append((r.parameter, r.abs_error))
        out.append(float(_loglog_fit(pts)[0][0]) if len(pts) >= 2 else float("nan"))
    return out


def sweep_to_csv(records: Sequence[ConvergenceRecord], path) -> None:
    """Columns n,re,im,abs_error,slope_running."""
    slopes = running_slopes(records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re", "im", "abs_error", "slope_running"])
        for r, s in zip(records, slopes):
            writer.writerow(
                [r.parameter, repr(r.value.real), repr(r.value.imag),
                 repr(r.abs_error), repr(s)]
            )
