"""Symbols to operators: normal-ordered quantization and two anti-Wick routes.

Normal-ordered quantization of a polynomial symbol places all creators to
the left and is exact on the truncated basis.  Anti-Wick quantization of a
polynomial goes through the exact heat-series conversion.  Anti-Wick
quantization of a *function* (needed for unimodular slice factors
exp(-i f tau)) is a weighted sum of normalized coherent projectors over a
tensor Gauss-Hermite rule in (Re z, Im z) per mode; the Gaussian factor of
the phase-space measure is the Hermite weight, so rule weights sum to 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import FockBasis, OperatorMatrix, _coherent_table, checked_coherent_components
from .symbols import PolySymbol, as_phase_point, check_grid, wick_from_antinormal

DEFAULT_ORDER_MARGIN = 2  # default rule order Q = M + 2

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "check_quadrature_array",
    "check_slice_rule",
    "check_phase_bound",
    "wick_quantize",
    "wick_symbol_deviation",
    "antiwick_quantize_poly",
    "antiwick_quantize_function",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss-Hermite rule on d-mode phase space, stored as its factor.

    Every mode carries the same 2-D factor rule: mode_nodes are the Q^2
    points x_i + 1j x_j at index i * Q + j, mode_weights are w_i w_j / pi
    (the 1-D Hermite weights absorb exp(-|z|^2)), summing to 1.  The full
    rule is their product over modes, the last mode fastest; it is never
    formed: PolySymbol.evaluate_grid(mode_nodes) gives a symbol's values
    on its nodes in that order.
    """

    modes: int
    order: int
    mode_nodes: np.ndarray
    mode_weights: np.ndarray

    @property
    def count(self) -> int:
        return len(self.mode_weights) ** self.modes

    @property
    def radius(self) -> float:
        """The largest modulus of a mode node."""
        return float(np.abs(self.mode_nodes).max())


def gauss_hermite_rule(modes: int, order: int) -> QuadratureRule:
    """Build the phase-space rule with `order` points per real coordinate.

    The rule has order^(2*modes) nodes but stores only one mode's
    order^2.  Quantizing on it at cutoff M forms arrays of up to
    max(order, M + 1)^(2*modes) complex entries, which
    check_quadrature_array bounds.  Exact for integrands of degree
    <= 2*order - 1 in each real coordinate.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    x, w = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(
        modes=modes,
        order=order,
        mode_nodes=(x[:, None] + 1j * x[None, :]).reshape(-1),
        mode_weights=np.outer(w, w).reshape(-1) / math.pi,
    )


def check_quadrature_array(modes: int, order: int, max_quanta: int) -> int:
    """Entries max(order, max_quanta + 1)^(2*modes) of an anti-Wick
    quadrature's largest array: its node values, or the basis pairs of its
    last contraction; ValueError above symbols.GRID_MAX_POINTS."""
    side = max(order, max_quanta + 1)
    grid = (f"rule order {order} gives a quadrature grid" if side == order else
            f"cutoff M + 1 = {side} > Q = {order} gives a quadrature array")
    return check_grid(side ** (2 * modes), modes, grid)


def check_slice_rule(order: int, max_quanta: int) -> None:
    """Refuse a slice rule that does not resolve the identity on the basis:
    that takes order >= max_quanta + 1."""
    if order < max_quanta + 1:
        raise ValueError(f"rule order {order} < M + 1 = {max_quanta + 1}; "
                         "chernoff slices need Q >= M + 1")


def check_phase_bound(a: PolySymbol, t: float, radius: float) -> None:
    """Refuse a symbol whose phase t * a may leave the doubles where each
    variable has modulus at most `radius`; asked before the phase is formed.

    A term c z*^k* z^k is then at most |c| r^deg, and evaluate_grid forms
    its monomial, at most r^deg, before it scales it by c; so
    max(|t|, 1) * sum max(|c|, 1) max(r, 1)^deg, taken in logs, bounds
    every number the phase passes through.  A slice takes r = its rule's
    radius.  The spectral oracle takes r = sqrt(M) and the Wick symbol of
    its Hamiltonian: on the cutoff-M basis a term sends each state to at
    most one state, with an entry of modulus at most |c| M^(deg/2), so the
    sum bounds every absolute row sum, and so the spectrum.
    """
    terms = a.terms
    degrees = np.array([sum(ks) + sum(k) for ks, k in terms], dtype=float)
    coeffs = np.fromiter(terms.values(), complex, len(terms))
    log_r = math.log(max(radius, 1.0))
    logs = np.log(np.maximum(np.abs(coeffs), 1.0)) + degrees * log_r
    bound = np.logaddexp.reduce(logs) + math.log(max(abs(t), 1.0))
    if bound > math.log(sys.float_info.max):
        raise ValueError(
            f"t * symbol may reach 10^{bound / math.log(10):.1f} at modulus "
            f"{radius:.4g}, past the double range"
        )


def wick_quantize(basis: FockBasis, w: PolySymbol) -> OperatorMatrix:
    """Normal-ordered operator of a polynomial symbol (creators to the left).

    Exact on the truncated basis: annihilators act first, so no
    intermediate state leaves the cutoff.  Hermitian iff the symbol is
    real.  The terms are placed in one vectorized pass (_wick_fill), in
    blocks of at most `basis.size` terms so that no (terms, states) table
    outgrows the matrix; entries accumulate in term order.  The matrix is
    real when every kept coefficient is.
    """
    if w.modes != basis.modes:
        raise ValueError(
            f"symbol has {w.modes} modes but basis has {basis.modes}"
        )
    # a term that lowers or raises by more than M quanta maps no state
    # of the basis into it
    terms = [
        (kstar, k, coeff) for (kstar, k), coeff in w.terms.items()
        if max(sum(kstar), sum(k)) <= basis.max_quanta
    ]
    # the ladder elements are sqrt(n): real coefficients fill a real matrix
    real = all(coeff.imag == 0 for *_, coeff in terms)
    mat = np.zeros((basis.size, basis.size), dtype=float if real else complex)
    for start in range(0, len(terms), basis.size):
        _wick_fill(basis, terms[start:start + basis.size], mat)
    return OperatorMatrix(basis, mat)


def _wick_fill(basis: FockBasis, terms: list, mat: np.ndarray) -> None:
    # adds coeff z*^kstar z^k for each (kstar, k, coeff) in `terms` to mat
    kstar = np.array([t[0] for t in terms], dtype=np.int64)
    k = np.array([t[1] for t in terms], dtype=np.int64)
    coeff = np.array([t[2] for t in terms], dtype=complex)
    coeff = coeff if np.iscomplexobj(mat) else coeff.real
    occ, top = basis.occupations, basis.max_quanta

    # table[t, i, n] = n!/(n-k)! * (n-k+k*)!/(n-k)! for term t, mode i and
    # occupation n, the squared amplitude's factor; 0 where n < k.  Integer
    # products, exact in doubles below 2**53.
    n = np.arange(top + 1)
    lowered = n - k[..., None]
    table = np.ones(k.shape + (top + 1,))
    for j in range(int(max(k.max(), kstar.max()))):
        table *= np.where(j < k[..., None], n - j, 1)
        table *= np.where(j < kstar[..., None], lowered + kstar[..., None] - j, 1)

    # (terms, states): squared amplitude of each term at each column; a
    # column is placed when every mode holds k quanta and the target
    # stays within the cutoff
    # np.take gathers along one axis, far faster than fancy indexing
    amp2 = table[:, 0].take(occ[:, 0], axis=1)
    for i in range(1, basis.modes):
        amp2 *= table[:, i].take(occ[:, i], axis=1)
    shift = kstar.sum(axis=1) - k.sum(axis=1)
    placed = (amp2 > 0) & (basis.total_quanta[None, :] <= top - shift[:, None])
    flat = np.flatnonzero(placed)
    term, cols = np.divmod(flat, basis.size)
    rows = basis.rank(occ.take(cols, axis=0) + (kstar - k).take(term, axis=0))
    # add.at applies the updates in order, so each entry sums in term order
    np.add.at(mat.reshape(-1), rows * basis.size + cols,
              coeff[term] * np.sqrt(amp2.reshape(-1)[flat]))


def wick_symbol_deviation(
    basis: FockBasis,
    op: OperatorMatrix,
    candidate: PolySymbol,
    probes: Sequence[tuple],
) -> float:
    """Verify a candidate normal symbol against coherent matrix elements.

    Evaluates <F_a, Op F_b> / exp(a* . b) at each probe pair and returns
    the max deviation from candidate(a*, b), relative when the candidate
    value exceeds 1 in modulus.  An oracle, not a fitter.
    """
    worst = 0.0
    for left, right in probes:
        a = as_phase_point(left, basis.modes)
        b = as_phase_point(right, basis.modes)
        fa = checked_coherent_components(basis, a)
        fb = checked_coherent_components(basis, b)
        element = complex(np.vdot(fa, op.mat @ fb))
        measured = element * np.exp(-np.vdot(a, b))
        predicted = candidate.eval_bilinear(a, b)
        dev = abs(measured - predicted) / max(1.0, abs(predicted))
        worst = max(worst, dev)
    return worst


def antiwick_quantize_poly(basis: FockBasis, a: PolySymbol) -> OperatorMatrix:
    """Anti-Wick operator of a polynomial symbol via the exact heat-series route."""
    return wick_quantize(basis, wick_from_antinormal(a))


def antiwick_quantize_function(
    basis: FockBasis,
    values: np.ndarray,
    rule: QuadratureRule,
) -> OperatorMatrix:
    """Anti-Wick operator of a phase-space function by coherent quadrature.

    Returns sum_q W_q f(z_q) |z_q><z_q| with normalized coherent vectors,
    W_q the rule weight with the projector normalization exp(|z_q|^2)
    folded back in.  `values` are f(z_q), one per node in the rule's order
    (as PolySymbol.evaluate_grid(rule.mode_nodes) lists them), all finite.

    The rule is a tensor product of one 2-D factor per mode, and so is
    W_q |z_q><z_q|: its (n, m) entry is prod_i phi[n_i, p_i] conj
    phi[m_i, p_i] with phi[n, p] = sqrt(w_p) z_p^n / sqrt(n!), the
    Gaussian of the coherent vector cancelling the exp(|z|^2) in W_q.  So
    the node sum is done one mode at a time (sum factorization): every mode
    against the pair kernel K[(n, m), p] = phi[n, p] conj phi[m, p], for
    O((M+1)^2 Q^(2d)) work in all; a single mode is the gemm
    (phi f) phi^H.  Basis entries are gathered from the (M+1)^(2d) result.
    check_quadrature_array is asked before any array is formed.
    """
    if rule.modes != basis.modes:
        raise ValueError(
            f"rule has {rule.modes} modes but basis has {basis.modes}"
        )
    check_quadrature_array(basis.modes, rule.order, basis.max_quanta)
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (rule.count,):
        raise ValueError(
            f"values have shape {vals.shape}, expected ({rule.count},)"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("values are non-finite at a quadrature node")

    # one mode's factor rule: P = Q^2 points, index p = i * Q + j
    z, sqrt_w = rule.mode_nodes, np.sqrt(rule.mode_weights)
    levels = basis.max_quanta + 1
    phi = _coherent_table(sqrt_w, z, basis.max_quanta)

    if basis.modes == 1:
        # one mode's sum is the gemm (phi f) phi^H; as a kernel product it
        # would be a gemv, which OpenBLAS threads from (M+1)^2 Q^2 = 4096 on,
        # and its threads then spin while the caller runs on
        acc = (phi * vals) @ phi.conj().T
    else:
        # contract the leading node axis, append its (n, m) pair axis at
        # the end; no array exceeds max(Q, M + 1)^(2d) entries
        kernel = (phi[:, None, :] * phi.conj()[None, :, :]).reshape(levels**2, -1)
        acc = vals
        for _ in range(basis.modes):
            acc = acc.reshape(len(z), -1).T @ kernel.T

    # entry (r, c) sits at pair (occ[r, i], occ[c, i]) of every mode i
    stride = levels ** (2 * np.arange(basis.modes - 1, -1, -1))
    occ = basis.occupations
    flat = (occ @ (stride * levels))[:, None] + (occ @ stride)[None, :]
    return OperatorMatrix(basis, acc.reshape(-1)[flat])
