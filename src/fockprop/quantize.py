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

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import FockBasis, OperatorMatrix, checked_coherent_components
from .symbols import PolySymbol, as_phase_point, wick_from_antinormal

DEFAULT_ORDER_MARGIN = 2  # default rule order Q = M + 2

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "rule_to_csv",
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


def gauss_hermite_rule(modes: int, order: int) -> QuadratureRule:
    """Build the phase-space rule with `order` points per real coordinate.

    The rule has order^(2*modes) nodes but stores only one mode's
    order^2; a symbol evaluated on it through PolySymbol.evaluate_grid may
    have at most symbols.GRID_MAX_POINTS nodes.  Exact for integrands of
    degree <= 2*order - 1 in each real coordinate.
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


def rule_to_csv(rule: QuadratureRule, path) -> None:
    """Audit dump: each mode's 2-D factor rule, columns mode,node_re,node_im,weight.

    The full tensor rule is the product of these per-mode factors.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "node_re", "node_im", "weight"])
        for mode in range(1, rule.modes + 1):
            for z, w in zip(rule.mode_nodes, rule.mode_weights):
                writer.writerow(
                    [mode, repr(float(z.real)), repr(float(z.imag)), repr(float(w))]
                )


def _falling_products(values: np.ndarray, exps: np.ndarray) -> np.ndarray:
    # prod over modes of n_i (n_i - 1) ... (n_i - k_i + 1); exact in doubles
    # for the small exponents used here.
    out = np.ones(values.shape[0])
    kmax = int(exps.max()) if exps.size else 0
    for j in range(kmax):
        factor = np.where(j < exps[None, :], values - j, 1)
        out *= factor.prod(axis=1)
    return out


def wick_quantize(basis: FockBasis, w: PolySymbol) -> OperatorMatrix:
    """Normal-ordered operator of a polynomial symbol (creators to the left).

    Exact on the truncated basis: annihilators act first, so no
    intermediate state leaves the cutoff.  Hermitian iff the symbol is
    real.  Each term is placed with one vectorized `basis.rank` call over
    its target occupations; a term adds to each entry at most once, so
    the matrix does not depend on how rows are looked up.
    """
    if w.modes != basis.modes:
        raise ValueError(
            f"symbol has {w.modes} modes but basis has {basis.modes}"
        )
    occ = basis.occupations
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    for (kstar, k), coeff in w.terms.items():
        ks_arr = np.array(kstar, dtype=np.int64)
        k_arr = np.array(k, dtype=np.int64)
        valid = (occ >= k_arr).all(axis=1)
        cols = np.nonzero(valid)[0]
        if not len(cols):
            continue
        src = occ[cols]
        dst = src - k_arr + ks_arr
        keep = dst.sum(axis=1) <= basis.max_quanta
        cols, src, dst = cols[keep], src[keep], dst[keep]
        if not len(cols):
            continue
        amp = np.sqrt(
            _falling_products(src, k_arr) * _falling_products(dst, ks_arr)
        )
        mat[basis.rank(dst), cols] += coeff * amp
    return OperatorMatrix(basis, mat)


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
    the node sum is done one mode at a time (sum factorization): modes
    1..d-1 against the pair kernel K[(n, m), p] = phi[n, p] conj phi[m, p],
    the last one as the gemm (phi * x) @ phi^H, for O((M+1)^2 Q^(2d))
    work in all.  Basis entries are gathered from the (M+1)^(2d) result.
    """
    if rule.modes != basis.modes:
        raise ValueError(
            f"rule has {rule.modes} modes but basis has {basis.modes}"
        )
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
    steps = z[None, :] / np.sqrt(np.arange(1, levels))[:, None]
    phi = np.cumprod(np.vstack([sqrt_w[None, :], steps]), axis=0)

    # contract the leading node axis, append its (n, m) pair axis at the
    # end; the kernel is built in the loop, so d = 1 pays nothing for it
    points = len(z)
    acc = vals
    for _ in range(basis.modes - 1):
        kernel = (phi[:, None, :] * phi.conj()[None, :, :]).reshape(levels**2, -1)
        acc = acc.reshape(points, -1).T @ kernel.T
    # the last mode as one gemm with a (pairs so far, n) row per phi row;
    # at d = 1 a kernel product would be a gemv, which OpenBLAS threads
    # with nothing to gain
    last = acc.reshape(points, -1).T
    acc = (last[:, None, :] * phi[None, :, :]).reshape(-1, points) @ phi.conj().T

    # entry (r, c) sits at pair (occ[r, i], occ[c, i]) of every mode i
    stride = levels ** (2 * np.arange(basis.modes - 1, -1, -1))
    occ = basis.occupations
    flat = (occ @ (stride * levels))[:, None] + (occ @ stride)[None, :]
    return OperatorMatrix(basis, acc.reshape(-1)[flat])
