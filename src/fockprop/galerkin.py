"""Mode-reduction sweeps: reduced Hamiltonians and convergence-rate fits.

A flag of mode counts n_1 < ... <= d_max defines reduced Hamiltonians
obtained by substituting zero for every variable beyond mode n; the
reduced operator acts on the n-mode truncated space, which embeds exactly
in the full one.  Sweeps compare coherent matrix elements of the reduced
evolutions against the d_max reference at the same quanta cutoff, so only
the mode-truncation error is measured, and fit a log-log rate in n.
"""

from __future__ import annotations

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
    chernoff_slices,
    oracle_elements,
)
from .quantize import (
    DEFAULT_ORDER_MARGIN,
    antiwick_quantize_poly,
    check_phase_bound,
    gauss_hermite_rule,
    wick_quantize,
)
from .symbols import PolySymbol, as_phase_point, truncate_modes, wick_from_antinormal

DENSE_BASIS_BUDGET = 20_000
ERROR_FLOOR = 1e-12
# how far from 1 the norm of an evolution's initial state may be
INITIAL_NORM_TOL = 1e-8

__all__ = [
    "BudgetError",
    "check_dense_budget",
    "check_initial_norm",
    "Flag",
    "RateFit",
    "fit_rate",
    "reduce_hamiltonian",
    "Sweeps",
    "galerkin_sweeps",
    "EvolveResult",
    "schrodinger_evolve",
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


def check_initial_norm(state: np.ndarray) -> float:
    """Norm of an evolution's initial state; ValueError unless it is 1
    within INITIAL_NORM_TOL."""
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > INITIAL_NORM_TOL:
        tol = np.format_float_scientific(INITIAL_NORM_TOL, trim="-", exp_digits=1)
        raise ValueError(f"norm {norm!r} is not 1 within {tol}")
    return norm


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


def _check_oracle_phase(w: PolySymbol, route: str, times, max_quanta: int) -> None:
    # exp(-i H t) for every time, H the Wick quantization of w or, on the
    # antiwick route, of its conversion (check_phase_bound)
    h = wick_from_antinormal(w) if route == "antiwick" else w
    check_phase_bound(h, max(map(abs, times), default=0.0), math.sqrt(max_quanta))


class Sweeps(list):
    """galerkin_sweeps' result: one (records, fit) pair per time, and the
    d_max reference's build and element time for all times together."""

    def __init__(self, reference_seconds: float):
        super().__init__()
        self.reference_seconds = reference_seconds


def galerkin_sweeps(
    w: PolySymbol,
    flag: Flag,
    times: Sequence[float],
    alpha,
    beta,
    max_quanta: int,
    route: str = "wick",
) -> Sweeps:
    """Coherent-element errors of the reduced evolutions vs the d_max
    reference, one (records, fit) pair per time.

    For each n in the flag, H_n is built on the n-mode basis and its
    elements <F_a, exp(-i H_n t) F_b> at the probes projected to the first
    n modes come from one oracle_elements call, which takes each symmetry
    sector and time by Lanczos or by one eigh shared by the times on that
    route; an element does not depend on the other times.  The d_max
    reference at the same quanta cutoff is built the same way, and each
    record's error is taken against the reference at its own time.  The fit
    is a measurement; no slope is judged here.  The d_max Hamiltonian's
    phases are checked (check_phase_bound) before anything is built.

    A record's `seconds` is its member's build and element time for all
    times together, so every time reports the same value; the result's
    `reference_seconds` is the same for the d_max reference.
    """
    if flag.d_max != w.modes:
        raise ValueError(f"flag d_max={flag.d_max} but symbol has {w.modes} modes")
    check_dense_budget(w.modes, max_quanta)
    a_full = as_phase_point(alpha, w.modes)
    b_full = as_phase_point(beta, w.modes)
    times = [float(t) for t in times]
    _check_oracle_phase(w, route, times, max_quanta)

    def member(n: int) -> tuple[int, list[complex], float]:
        start = time.perf_counter()
        basis_n = FockBasis(n, max_quanta)
        h_n = reduce_hamiltonian(w, n, basis_n, route=route)
        values = oracle_elements(h_n, a_full[:n], b_full[:n], times)
        return n, values, time.perf_counter() - start

    _, reference, reference_seconds = member(w.modes)
    members = [member(n) for n in flag.ns]

    sweeps = Sweeps(reference_seconds)
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

    The initial state must pass check_initial_norm.  method 'oracle' uses
    the spectral decomposition, applied to every time in one call (norm
    drift <= 1e-8); 'chernoff' multiplies `slices` anti-Wick slice
    operators per time, the slices of all times from one chernoff_slices
    call (norm drift reported, typically <= 1e-3 at adequate order).
    `route` picks the oracle's Hamiltonian, whose phases over t_grid must
    pass check_phase_bound; the slices quantize the reduced symbol
    anti-Wick either way.  t == 0 entries return the initial state
    unchanged.
    """
    basis_n = FockBasis(n, max_quanta)
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.shape != (basis_n.size,):
        raise ValueError(
            f"initial state has shape {psi0.shape}, expected ({basis_n.size},)"
        )
    check_initial_norm(psi0)

    times = [float(t) for t in t_grid]
    moving = [t for t in times if t != 0.0]
    if method == "oracle":
        _check_oracle_phase(w, route, times, max_quanta)
        prop = ExactPropagator(reduce_hamiltonian(w, n, basis_n, route=route))
        evolved = iter(prop.apply(psi0, moving))
    elif method == "chernoff":
        rule = gauss_hermite_rule(
            n, order if order is not None else max_quanta + DEFAULT_ORDER_MARGIN
        )
        scheds = [SliceSchedule(t, slices) for t in moving]
        steps = chernoff_slices(
            truncate_modes(w, n), [sched.tau for sched in scheds], basis_n, rule
        )
        evolved = (
            chernoff_propagator(step, sched).mat @ psi0
            for sched, step in zip(scheds, steps)
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    states = [psi0.copy() if t == 0.0 else next(evolved) for t in times]
    defects = tuple(abs(float(np.linalg.norm(s)) - 1.0) for s in states)
    return EvolveResult(
        times=tuple(times),
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
