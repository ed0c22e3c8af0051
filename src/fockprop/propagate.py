"""Time evolution: exact spectral oracle and time-sliced anti-Wick products.

The oracle diagonalizes a certified-Hermitian matrix once and reuses the
spectrum for every time.  The sliced propagator multiplies N copies of the
anti-Wick operator of exp(-i f tau), a contraction up to the quadrature's
resolution defect; its N -> inf limit realizes the evolution generated by
the anti-Wick quantization of f.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    FockBasis,
    HERMITIAN_TOL,
    OperatorMatrix,
    checked_coherent_components,
)
from .quantize import QuadratureRule, antiwick_quantize_function, antiwick_quantize_poly
from .symbols import PolySymbol

__all__ = [
    "SliceSchedule",
    "ConvergenceRecord",
    "ExactPropagator",
    "oracle_elements",
    "chernoff_step",
    "chernoff_propagator",
    "coherent_matrix_element",
    "feynman_reference",
    "feynman_record",
    "feynman_convergence_table",
    "halving_ratios",
    "records_to_csv",
    "records_to_json",
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


class ExactPropagator:
    """exp(-i h t) for certified-Hermitian h, by eigendecomposition.

    The spectrum is computed once and shared across times; the result is
    unitary to working precision.  h is split into the symmetry sectors
    its entries leave invariant (_sectors), and each sector is
    diagonalized and applied on its own; `sectors` holds one (states,
    eigenvalues, eigenvectors) triple per sector.  A matrix whose
    imaginary part is exactly zero (such as the quantization of a symbol
    with real coefficients) is diagonalized as a real symmetric one, and
    `apply` keeps its real eigenvectors in real arithmetic.
    """

    def __init__(self, h: OperatorMatrix):
        defect = h.hermitian_defect()
        if defect > HERMITIAN_TOL:
            raise ValueError(
                f"matrix is not Hermitian: defect {defect:.3g} > {HERMITIAN_TOL:.0e}"
            )
        self.basis = h.basis
        mat = h.mat if h.mat.imag.any() else h.mat.real
        sectors = _sectors(h.basis, mat)
        # a single sector is the whole basis in order: decompose mat uncopied
        self.sectors = [
            (idx, *np.linalg.eigh(mat[np.ix_(idx, idx)] if len(sectors) > 1 else mat))
            for idx in sectors
        ]

    def operator(self, t: float) -> OperatorMatrix:
        blocks = (
            (idx, (v * np.exp(-1j * lam * t)) @ v.conj().T)
            for idx, lam, v in self.sectors
        )
        if len(self.sectors) == 1:
            return OperatorMatrix(self.basis, next(blocks)[1])
        mat = np.zeros((self.basis.size, self.basis.size), dtype=complex)
        for idx, block in blocks:
            mat[np.ix_(idx, idx)] = block
        return OperatorMatrix(self.basis, mat)

    def apply(self, state: np.ndarray, t: float) -> np.ndarray:
        state = np.asarray(state, dtype=complex)
        out = np.empty_like(state)
        for idx, lam, v in self.sectors:
            # V meets the real and imaginary parts of the state separately,
            # so a real V stays in real BLAS instead of being copied to
            # complex per call
            vh, part = v.conj().T, state[idx]
            coeffs = np.exp(-1j * lam * t) * (vh @ part.real + 1j * (vh @ part.imag))
            out[idx] = v @ coeffs.real + 1j * (v @ coeffs.imag)
        return out


def _sectors(basis: FockBasis, mat: np.ndarray) -> list[np.ndarray]:
    """State indices of each symmetry sector of `mat`, read off its entries.

    With N the total quanta and g the gcd of |N_r - N_c| over the nonzero
    entries (r, c), mat couples only states of equal N mod g, or of equal
    N when g = 0 (mat conserves quanta); those classes are the sectors,
    empty ones left out.  g = 1 gives the whole basis as one sector.
    """
    quanta, top = basis.total_quanta, basis.max_quanta
    # the basis is graded, so each quanta shell is a contiguous index range
    edges = np.searchsorted(quanta, np.arange(top + 2))
    shell = [slice(edges[n], edges[n + 1]) for n in range(top + 1)]
    g = 0
    for gap in range(1, top + 1):
        if g and gap % g == 0:
            continue
        if any(
            mat[shell[n], shell[n + gap]].any() or mat[shell[n + gap], shell[n]].any()
            for n in range(top + 1 - gap)
        ):
            g = math.gcd(g, gap)
            if g == 1:
                return [np.arange(basis.size)]
    labels = quanta % g if g else quanta
    sectors = (np.flatnonzero(labels == s) for s in range(g or top + 1))
    return [idx for idx in sectors if len(idx)]


def oracle_elements(
    h: OperatorMatrix, alpha, beta, times: Sequence[float]
) -> list[complex]:
    """Spectral-oracle coherent elements <F_alpha, exp(-i h t) F_beta>, per time.

    Both coherent vectors have their quanta-cutoff tails checked; h is
    decomposed once, and each element is one propagated vector, O(size^2),
    not a dense unitary.
    """
    fa = checked_coherent_components(h.basis, alpha)
    fb = checked_coherent_components(h.basis, beta)
    prop = ExactPropagator(h)
    return [complex(np.vdot(fa, prop.apply(fb, t))) for t in times]


def chernoff_step(
    a: PolySymbol, tau: float, basis: FockBasis, rule: QuadratureRule
) -> OperatorMatrix:
    """One slice operator: anti-Wick quantization of exp(-i a tau)."""
    if not a.is_real():
        raise ValueError("slice symbol must be real")
    values = a.evaluate_grid(rule.mode_nodes).real
    return antiwick_quantize_function(basis, np.exp(-1j * tau * values), rule)


def chernoff_propagator(
    a: PolySymbol,
    sched: SliceSchedule,
    basis: FockBasis,
    rule: QuadratureRule,
    step: OperatorMatrix | None = None,
) -> OperatorMatrix:
    """N-fold product of slice operators; spectral norm <= 1 + resolution defect.

    `step`, if given, is the slice chernoff_step(a, sched.tau, basis, rule)
    already built by the caller.
    """
    if rule.order < basis.max_quanta + 1:
        raise ValueError(
            f"rule order {rule.order} < max_quanta + 1 = {basis.max_quanta + 1}"
        )
    if step is None:
        step = chernoff_step(a, sched.tau, basis, rule)
    return OperatorMatrix(
        basis, np.linalg.matrix_power(step.mat, sched.slices)
    )


def coherent_matrix_element(op: OperatorMatrix, alpha, beta) -> complex:
    """<F_alpha, Op F_beta> in the unnormalized convention (identity -> e^{a*b}).

    Refuses probe points whose quanta-cutoff tail exceeds COHERENT_TAIL_TOL,
    with a hint for the cutoff that would suffice.
    """
    fa = checked_coherent_components(op.basis, alpha)
    fb = checked_coherent_components(op.basis, beta)
    return complex(np.vdot(fa, op.mat @ fb))


def feynman_reference(
    a: PolySymbol, t: float, alpha, beta, basis: FockBasis
) -> complex:
    """Spectral-oracle coherent element of exp(-i A t), A the anti-Wick
    quantization of `a`: the generator the anti-normal slicing converges to.
    One oracle_elements call, so no dense unitary is formed."""
    return oracle_elements(antiwick_quantize_poly(basis, a), alpha, beta, [t])[0]


def feynman_record(
    a: PolySymbol,
    t: float,
    n: int,
    alpha,
    beta,
    basis: FockBasis,
    rule: QuadratureRule,
    reference: complex,
    step: OperatorMatrix | None = None,
) -> ConvergenceRecord:
    """One table row: the n-slice propagator's coherent element vs `reference`.

    `step` is passed to chernoff_propagator: the slice for tau = t / n, if
    the caller has built it.
    """
    start = time.perf_counter()
    prop = chernoff_propagator(a, SliceSchedule(t, n), basis, rule, step=step)
    value = coherent_matrix_element(prop, alpha, beta)
    return ConvergenceRecord(
        parameter=n,
        value=value,
        abs_error=abs(value - reference),
        seconds=time.perf_counter() - start,
    )


def feynman_convergence_table(
    a: PolySymbol,
    t: float,
    Ns: Sequence[int],
    alpha,
    beta,
    basis: FockBasis,
    rule: QuadratureRule,
) -> list[ConvergenceRecord]:
    """Sliced-propagator coherent elements vs the spectral oracle, per N.

    One feynman_reference, then one feynman_record per N.  Ns must be
    ascending.
    """
    Ns = list(Ns)
    if any(n2 <= n1 for n1, n2 in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly ascending")
    if not Ns:
        return []
    reference = feynman_reference(a, t, alpha, beta, basis)
    return [
        feynman_record(a, t, n, alpha, beta, basis, rule, reference)
        for n in Ns
    ]


def halving_ratios(records: Sequence[ConvergenceRecord]) -> list[tuple[int, float]]:
    """error(N) / error(2N) for consecutive doubling pairs in the table."""
    out = []
    for r1, r2 in zip(records, records[1:]):
        if r2.parameter == 2 * r1.parameter and r2.abs_error > 0:
            out.append((r1.parameter, r1.abs_error / r2.abs_error))
    return out


def records_to_csv(records: Sequence[ConvergenceRecord], path) -> None:
    """Columns N,re,im,abs_error; wall time, the one non-deterministic
    field, is left to timings.json."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "re", "im", "abs_error"])
        for r in records:
            writer.writerow([r.parameter, repr(r.value.real), repr(r.value.imag),
                             repr(r.abs_error)])


def records_to_json(records: Sequence[ConvergenceRecord], metadata: dict) -> dict:
    """Rows of each record's coherent element and error, without wall time."""
    rows = [
        {
            "parameter": r.parameter,
            "observable": "coherent_element",
            "re": r.value.real,
            "im": r.value.imag,
            "abs_error": r.abs_error,
        }
        for r in records
    ]
    return {"metadata": dict(metadata), "records": rows}
