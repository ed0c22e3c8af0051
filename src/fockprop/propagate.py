"""Time evolution: exact spectral oracle and time-sliced anti-Wick products.

ExactPropagator diagonalizes a certified-Hermitian operator once per block
(one per symmetry sector of a Wick operator) and reuses the spectrum for
every time.  oracle_elements takes each block and time of a coherent element
by Lanczos while the predicted Krylov dimension, from the block's Gershgorin
width times |t|, is below a quarter of the block size, stopping on the a
posteriori error estimate, and by one eigh shared by the other times
otherwise.  The sliced propagator multiplies N copies of the anti-Wick
operator of exp(-i f tau), a contraction up to the quadrature's resolution
defect; its N -> inf limit realizes the evolution generated by the
anti-Wick quantization of f.  chernoff_slices evaluates f on the nodes once
and builds one slice per tau.  feynman_convergence_table is the one table
of that limit: a row per N against the oracle element, which the table
carries with the spectral norm of its last slice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .fock import (
    FockBasis,
    HERMITIAN_TOL,
    SLAB_ROWS,
    OperatorMatrix,
    checked_coherent_components,
)
from .quantize import (
    QuadratureRule,
    antiwick_quantize_function,
    check_phase_bound,
    check_quadrature_array,
    check_slice_rule,
    wick_quantize,
)
from .symbols import PolySymbol, wick_from_antinormal

# The Lanczos route of oracle_elements (Saad, SIAM J. Numer. Anal. 29 (1992)
# 209-228): the stopping estimate's bound, the steps between checks of it,
# and the predicted-steps share of the sector size up to which it is taken.
KRYLOV_TOL = 1e-13
KRYLOV_CHECK_EVERY = 8
KRYLOV_FRACTION = 0.25

__all__ = [
    "SliceSchedule",
    "ConvergenceRecord",
    "ChernoffTable",
    "ExactPropagator",
    "oracle_elements",
    "chernoff_slices",
    "chernoff_propagator",
    "coherent_matrix_element",
    "feynman_convergence_table",
    "halving_ratios",
]


@dataclass(frozen=True)
class SliceSchedule:
    """Total time split into N equal slices; tau is derived, so tau*N == t."""

    total_time: float
    slices: int

    def __post_init__(self):
        if self.slices < 1:
            raise ValueError("slices must be >= 1")
        if not np.isfinite(self.total_time):
            raise ValueError("total_time must be finite")

    @property
    def tau(self) -> float:
        return self.total_time / self.slices


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of a convergence study: a coherent element vs a reference."""

    parameter: int
    value: complex
    abs_error: float
    seconds: float


class ChernoffTable(list):
    """feynman_convergence_table's rows, with the oracle element they are
    measured against (`reference`) and the spectral norm of the last row's
    slice (`slice_norm`); both are None for an empty table."""

    def __init__(self, reference: complex | None = None):
        super().__init__()
        self.reference = reference
        self.slice_norm: float | None = None


class ExactPropagator:
    """exp(-i h t) for certified-Hermitian h, by eigendecomposition.

    The spectrum is computed once and shared across times; the result is
    unitary to working precision.  Each block of h (wick_quantize gives one
    per symmetry sector) is diagonalized and applied on its own; `sectors`
    holds one (states, eigenvalues, eigenvectors) triple per block.  A real
    block (as from a symbol with real coefficients) is diagonalized as a
    real symmetric matrix, a complex one as complex Hermitian, and `apply`
    keeps real eigenvectors in real arithmetic.
    """

    def __init__(self, h: OperatorMatrix):
        _check_hermitian(h)
        self.basis = h.basis
        self.sectors = [(idx, *np.linalg.eigh(block)) for idx, block in h.blocks]

    def operator(self, t: float) -> OperatorMatrix:
        return OperatorMatrix(self.basis, self.apply(np.eye(self.basis.size), t))

    def apply(self, state: np.ndarray, t) -> np.ndarray:
        """exp(-i h t) applied to a state, or to each column of a matrix of states.

        An array of times gives one result per time along new leading axes:
        each sector projects `state` once, and one product applies every
        time's phases.
        """
        state = np.asarray(state, dtype=complex)
        times = np.asarray(t, dtype=float)
        cols = state.reshape(len(state), -1)
        steps = times.reshape(-1)
        out = np.empty((len(steps),) + cols.shape, dtype=complex)
        for idx, lam, v in self.sectors:
            coeffs = _product(v.conj().T, cols[idx])
            phases = np.exp(-1j * np.multiply.outer(lam, steps))
            # ordered (eigenvector, time, column): one product serves every time
            scaled = phases[:, :, None] * coeffs[:, None, :]
            evolved = _product(v, scaled.reshape(len(lam), -1))
            out[:, idx] = evolved.reshape((len(idx),) + scaled.shape[1:]).swapaxes(0, 1)
        return out.reshape(times.shape + state.shape)


def _product(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x for a complex vector or matrix x.

    A real mat meets the float view of x, [Re x, Im x] interleaved per
    column, in one real product, so it stays in real BLAS instead of being
    copied to complex.
    """
    if np.iscomplexobj(mat):
        return mat @ x
    x = np.ascontiguousarray(x)
    real = mat @ x.view(float).reshape(len(x), -1)
    return real.view(complex).reshape((len(mat),) + x.shape[1:])


def _check_hermitian(h: OperatorMatrix) -> None:
    defect = h.hermitian_defect()
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3g} > {HERMITIAN_TOL:.0e}"
        )


def oracle_elements(
    h: OperatorMatrix, alpha, beta, times: Sequence[float]
) -> list[complex]:
    """Spectral-oracle coherent elements <F_alpha, exp(-i h t) F_beta>, per time.

    Both coherent vectors have their quanta-cutoff tails checked, and no
    dense unitary is formed.  Each block of h (one per symmetry sector of a
    Wick operator) adds its part of the element, by one of two routes
    chosen per (sector, time) from the block alone:

    - Lanczos from F_beta's component in the sector (_lanczos_elements),
      while _krylov_steps(width * |t|), width the block's Gershgorin width,
      is below KRYLOV_FRACTION times the sector size.  Each time stops when
      the a posteriori estimate beta_m |e_m^T exp(-i T_m t) e_1| |a| |b|
      is at most KRYLOV_TOL, or at breakdown, where the result is exact.
    - Otherwise one eigh of the block, shared by the times on this route,
      then O(size) work per time.

    KRYLOV_FRACTION = 0.25 is the measured crossover on real blocks: a
    Lanczos step, one (n, 2) product, costs as much as eigh / (0.13 to 0.36
    n) for n = 56 to 1036 (2 cores, OpenBLAS).  Complex blocks cross over
    later (0.2 n to 1.7 n), as their eigh is slower.

    An element depends only on (h, alpha, beta, t): its route, its stopping
    step and its arithmetic are the same whatever other times are asked for.
    """
    fa = checked_coherent_components(h.basis, alpha)
    fb = checked_coherent_components(h.basis, beta)
    times = [float(t) for t in times]
    values = np.zeros(len(times), dtype=complex)
    _check_hermitian(h)
    for idx, block in h.blocks:
        a, b = fa[idx], fb[idx]
        if not (a.any() and b.any()):
            continue
        lo, hi = _gershgorin_interval(block)
        krylov = [
            _krylov_steps((hi - lo) * abs(t)) < KRYLOV_FRACTION * len(idx)
            for t in times
        ]
        if any(krylov):
            _lanczos_elements(block, a, b, times, krylov, max(-lo, hi), values)
        if not all(krylov):
            _eigh_elements(block, a, b, times, [not on for on in krylov], values)
    return [complex(v) for v in values]


def _eigh_elements(block, a, b, times, chosen, values) -> None:
    """Add <a, exp(-i block t) b> to values[k] for each time with chosen[k],
    by one eigh of the block; the eigenvectors are freed on return, before
    the next block is reached."""
    lam, v = np.linalg.eigh(block)
    pa, pb = (_product(v.conj().T, x) for x in (a, b))
    for k, t in enumerate(times):
        if chosen[k]:
            values[k] += np.vdot(pa, np.exp(-1j * lam * t) * pb)


def _gershgorin_interval(block: np.ndarray) -> tuple[float, float]:
    """An interval holding the spectrum of a Hermitian block, in one pass
    over slabs of SLAB_ROWS rows."""
    centre = block.diagonal().real
    radius = np.concatenate([
        np.abs(block[r:r + SLAB_ROWS]).sum(axis=1)
        for r in range(0, len(block), SLAB_ROWS)
    ]) - np.abs(centre)
    return float((centre - radius).min()), float((centre + radius).max())


def _krylov_steps(x: float) -> float:
    """Predicted Lanczos steps to KRYLOV_TOL at x = (Gershgorin width) * |t|.

    The steps grow like sqrt(x) while x is well above them (Hochbruck &
    Lubich, SIAM J. Numer. Anal. 34 (1997) 1911-1925).  16 + 3 sqrt(x)
    is within one check interval of the steps taken on every sector of the
    shipped symbols' Wick and anti-Wick matrices (d <= 4, M <= 14,
    |t| <= 1), and above them on all but the two widest.
    """
    return 16 + 3 * math.sqrt(x)


def _lanczos_elements(block, a, b, times, krylov, scale, values) -> None:
    """Add <a, exp(-i block t) b> to values[k] for each time with krylov[k],
    by Lanczos with full reorthogonalization from b.

    The times share one recurrence.  Each takes its value from the first
    multiple of KRYLOV_CHECK_EVERY steps at which its own estimate meets
    KRYLOV_TOL, or from the step where the recurrence breaks down or fills
    the sector, where it is exact.  `scale` bounds |spectrum|.
    """
    n = len(b)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    # what is left of a step past an invariant subspace is round-off
    floor = n * np.finfo(float).eps * scale
    krylov_basis = np.empty((n, n), dtype=complex)
    krylov_basis[0] = b / nb
    diag, offdiag, overlaps = [], [], []
    pending = [k for k, on in enumerate(krylov) if on]
    m = 0
    while pending:
        v = krylov_basis[m]
        overlaps.append(np.vdot(a, v))
        w = _product(block, v)
        diag.append(np.vdot(v, w).real)
        w -= diag[-1] * v
        if m:
            w -= offdiag[-1] * krylov_basis[m - 1]
        done = krylov_basis[: m + 1]
        w -= (done @ w.conj()).conj() @ done
        beta = float(np.linalg.norm(w))
        offdiag.append(beta)
        m += 1
        exhausted = beta <= floor or m == n
        if exhausted or m % KRYLOV_CHECK_EVERY == 0:
            tri = np.diag(diag) + np.diag(offdiag[:-1], 1) + np.diag(offdiag[:-1], -1)
            lam, s = np.linalg.eigh(tri)
            q = np.asarray(overlaps)
            for k in list(pending):
                # exp(-i T_m t) e_1
                y = s @ (np.exp(-1j * lam * times[k]) * s[0])
                if exhausted or beta * abs(y[-1]) * na * nb <= KRYLOV_TOL:
                    values[k] += nb * np.dot(q, y)
                    pending.remove(k)
        if pending:
            krylov_basis[m] = w / beta


def chernoff_slices(
    a: PolySymbol, taus: Sequence[float], basis: FockBasis, rule: QuadratureRule
) -> Iterator[OperatorMatrix]:
    """One slice operator per tau, the anti-Wick quantization of exp(-i a tau).

    The rule must resolve the identity on the basis (check_slice_rule),
    and the quadrature must fit check_quadrature_array and the phase
    check_phase_bound on the rule's radius at the largest |tau|; all are
    asked, and `a` is evaluated on the nodes once, before this returns.
    The slices are built as they are iterated, each phase written as
    cos(tau a) - i sin(tau a).
    """
    taus = [float(tau) for tau in taus]
    check_slice_rule(rule.order, basis.max_quanta)
    check_quadrature_array(basis.modes, rule.order, basis.max_quanta)
    if not a.is_real():
        raise ValueError("slice symbol must be real")
    check_phase_bound(a, max(map(abs, taus), default=0.0), rule.radius)
    values = a.evaluate_grid(rule.mode_nodes).real
    return (_slice(values, tau, basis, rule) for tau in taus)


def _slice(
    values: np.ndarray, tau: float, basis: FockBasis, rule: QuadratureRule
) -> OperatorMatrix:
    # cos and sin written into one complex array take about two thirds of
    # the time of exp(-1j * tau * values), and agree with it to an ulp
    phase = np.empty(len(values), dtype=complex)
    angle = tau * values
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    np.negative(phase.imag, out=phase.imag)
    return antiwick_quantize_function(basis, phase, rule)


def chernoff_propagator(step: OperatorMatrix, sched: SliceSchedule) -> OperatorMatrix:
    """The N-th power of one slice, a chernoff_slices(a, [sched.tau], basis,
    rule) operator, N = sched.slices; spectral norm <= 1 + resolution defect."""
    return OperatorMatrix(step.basis, np.linalg.matrix_power(step.mat, sched.slices))


def coherent_matrix_element(op: OperatorMatrix, alpha, beta) -> complex:
    """<F_alpha, Op F_beta> in the unnormalized convention (identity -> e^{a*b}).

    Refuses probe points whose quanta-cutoff tail exceeds COHERENT_TAIL_TOL,
    with a hint for the cutoff that would suffice.
    """
    fa = checked_coherent_components(op.basis, alpha)
    fb = checked_coherent_components(op.basis, beta)
    return complex(np.vdot(fa, op.mat @ fb))


def feynman_convergence_table(
    a: PolySymbol,
    t: float,
    Ns: Sequence[int],
    alpha,
    beta,
    basis: FockBasis,
    rule: QuadratureRule,
) -> ChernoffTable:
    """Sliced-propagator coherent elements vs the spectral oracle, per N.

    The reference is the oracle element of exp(-i A t), A the anti-Wick
    quantization of `a`, from one oracle_elements call; check_phase_bound
    is asked for its phase first.  The slices come from one chernoff_slices
    call, so the symbol is evaluated on the nodes once.  Each row takes its
    slice's N-th power and the element; its `seconds` covers the slice, the
    power and the element.  Ns must be ascending.
    """
    Ns = list(Ns)
    if any(n2 <= n1 for n1, n2 in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly ascending")
    if not Ns:
        return ChernoffTable()
    fa = checked_coherent_components(basis, alpha)
    fb = checked_coherent_components(basis, beta)
    w = wick_from_antinormal(a)
    check_phase_bound(w, t, math.sqrt(basis.max_quanta))
    reference = oracle_elements(wick_quantize(basis, w), alpha, beta, [t])[0]
    table = ChernoffTable(reference=reference)
    scheds = [SliceSchedule(t, n) for n in Ns]
    slices = chernoff_slices(a, [sched.tau for sched in scheds], basis, rule)
    start = time.perf_counter()
    # zip builds each row's slice inside the row's time
    for sched, step in zip(scheds, slices):
        value = complex(np.vdot(fa, chernoff_propagator(step, sched).mat @ fb))
        end = time.perf_counter()
        table.append(ConvergenceRecord(
            sched.slices, value, abs(value - reference), end - start
        ))
        start = end
    table.slice_norm = float(np.linalg.norm(step.mat, ord=2))
    return table


def halving_ratios(records: Sequence[ConvergenceRecord]) -> list[tuple[int, float]]:
    """error(N) / error(2N) for consecutive doubling pairs in the table."""
    out = []
    for r1, r2 in zip(records, records[1:]):
        if r2.parameter == 2 * r1.parameter and r2.abs_error > 0:
            out.append((r1.parameter, r1.abs_error / r2.abs_error))
    return out
