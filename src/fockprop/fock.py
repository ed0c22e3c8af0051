"""Doubly-truncated bosonic Fock space: d modes, total quanta <= M.

States are occupation vectors (n_1 .. n_d) enumerated in graded
lexicographic order (by total quanta, then first mode heaviest), which
pins down serialization.  Ladder operators, multiplicative and tangential
second quantization of one-particle operators, and truncated coherent
vectors are all realized as real or complex operators (OperatorMatrix,
held as diagonal blocks) and vectors over this basis; the ladder operators
and dgamma are the Wick quantizations of z_i, z*_i and z* . o . z, by the
one fill of quantize.wick_quantize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .symbols import PolySymbol, as_phase_point, variable

HERMITIAN_TOL = 1e-12
# rows per slab when a pass over a block forms an elementwise temporary,
# so that none is as large as the block
SLAB_ROWS = 64
# largest quanta-cutoff tail of a coherent probe point (coherent_tail_bound)
COHERENT_TAIL_TOL = 1e-10

__all__ = [
    "FockBasis",
    "enumerate_basis",
    "OperatorMatrix",
    "CoherentVector",
    "annihilator",
    "creator",
    "CcrDefect",
    "ccr_defect",
    "gamma_diag",
    "gamma_of",
    "dgamma",
    "coherent_vector",
    "check_coherent_tail",
    "checked_coherent_components",
    "coherent_overlap",
    "coherent_tail_bound",
    "min_quanta_for_tail",
]


class FockBasis:
    """Occupation-number basis of the truncated d-mode space."""

    def __init__(self, modes: int, max_quanta: int):
        if modes < 1:
            raise ValueError("modes must be >= 1")
        if max_quanta < 0:
            raise ValueError("max_quanta must be >= 0")
        self.modes = modes
        self.max_quanta = max_quanta
        # _below[m, s]: number of m-mode states with total quanta < s
        self._below = np.array(
            [[math.comb(s - 1 + m, m) if s else 0 for s in range(max_quanta + 1)]
             for m in range(modes + 1)],
            dtype=np.int64,
        )
        # the states in order, by inverting rank one mode at a time (no
        # recursion over the modes): from m = d down, the quanta s of the
        # last m modes is the largest s with _below[m, s] <= what is left
        left = np.arange(math.comb(max_quanta + modes, modes))
        occ = np.empty((len(left), modes), dtype=np.int64)
        for k in range(modes):
            below = self._below[modes - k]
            occ[:, k] = np.searchsorted(below, left, side="right") - 1
            left -= below[occ[:, k]]
        occ[:, :-1] -= occ[:, 1:]  # suffix sums to occupations
        self.occupations = occ
        self.total_quanta = occ.sum(axis=1)

    @property
    def size(self) -> int:
        return len(self.occupations)

    def rank(self, occ) -> np.ndarray:
        """Basis indices of occupation rows, in closed form.

        `occ` has shape (..., modes); the result has shape (...).  Rows must
        be states of this basis (non-negative, total quanta <= M); other rows
        give meaningless indices, so check outside input with `index`.  The
        graded order makes the index a sum over suffixes s_k = n_k + ... +
        n_d of the count of (d-k+1)-mode states with fewer than s_k quanta
        (the combinatorial number system, Knuth TAOCP 4A 7.2.1.3).
        """
        occ = np.asarray(occ, dtype=np.int64)
        index = np.zeros(occ.shape[:-1], dtype=np.int64)
        suffix = np.zeros(occ.shape[:-1], dtype=np.int64)
        for m in range(1, self.modes + 1):
            suffix += occ[..., self.modes - m]
            index += self._below[m, suffix]
        return index

    def index(self, state: Sequence[int]) -> int:
        """Basis index of one state; KeyError for a state outside the basis."""
        occ = np.asarray(state)
        if (
            occ.shape != (self.modes,)
            or occ.dtype.kind not in "iu"
            or (occ < 0).any()
            or occ.sum() > self.max_quanta
        ):
            raise KeyError(tuple(state))
        return int(self.rank(occ))

    def protected_slice(self, layers: int = 1) -> np.ndarray:
        """Indices of states with total quanta <= M - layers (cutoff-safe)."""
        return np.nonzero(self.total_quanta <= self.max_quanta - layers)[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockBasis)
            and self.modes == other.modes
            and self.max_quanta == other.max_quanta
        )

    def __repr__(self) -> str:
        return f"FockBasis(modes={self.modes}, max_quanta={self.max_quanta}, size={self.size})"


def enumerate_basis(modes: int, max_quanta: int) -> FockBasis:
    """Canonical truncated basis; size = binomial(M+d, d)."""
    return FockBasis(modes, max_quanta)


class OperatorMatrix:
    """Real or complex operator over a FockBasis, held as diagonal blocks;
    treated as immutable.

    `blocks` is a tuple of (states, block) pairs: `states` an increasing
    array of basis indices, `block` the square matrix the operator has on
    them.  The states of the blocks partition the basis, and every entry
    outside the blocks is zero.  OperatorMatrix(basis, mat) is one block of
    all states; OperatorMatrix(basis, blocks=pairs) takes the pairs.  A
    block keeps its dtype, float64 or complex128 (int and bool become
    float64), and is contiguous and read-only.
    """

    def __init__(self, basis: FockBasis, mat: np.ndarray | None = None, *,
                 blocks=None):
        if (mat is None) == (blocks is None):
            raise ValueError("give either mat or blocks")
        if blocks is None:
            blocks = [(np.arange(basis.size), mat)]
        self.basis = basis
        self.blocks = tuple(_frozen_block(idx, block) for idx, block in blocks)
        rising = all((np.diff(idx) > 0).all() for idx, _ in self.blocks)
        states = np.sort(np.concatenate([idx for idx, _ in self.blocks]))
        if not (rising and np.array_equal(states, np.arange(basis.size))):
            raise ValueError("block states must rise within each block and "
                             f"partition the basis of {basis.size} states")

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix, read-only: a one-block operator's block, else
        built on each read."""
        if len(self.blocks) == 1:
            return self.blocks[0][1]
        blocks = [block for _, block in self.blocks]
        mat = np.zeros((self.basis.size,) * 2, dtype=np.result_type(*blocks))
        for idx, block in self.blocks:
            mat[idx[:, None], idx] = block
        mat.flags.writeable = False
        return mat

    def hermitian_defect(self) -> float:
        """max |h - h^H|, taken block by block (the rest is zero), a slab of
        SLAB_ROWS rows at a time."""
        return max(
            float(np.abs(b[r:r + SLAB_ROWS] - b[:, r:r + SLAB_ROWS].conj().T).max())
            for _, b in self.blocks for r in range(0, len(b), SLAB_ROWS)
        )

    @property
    def is_hermitian(self) -> bool:
        return self.hermitian_defect() <= HERMITIAN_TOL


def _frozen_block(states, block) -> tuple[np.ndarray, np.ndarray]:
    # (states, block) as OperatorMatrix holds them
    states = np.asarray(states, dtype=np.int64)
    block = np.ascontiguousarray(block, dtype=complex if np.iscomplexobj(block) else float)
    if block.shape != (len(states), len(states)):
        raise ValueError(
            f"matrix shape {block.shape} does not match its {len(states)} states"
        )
    states.flags.writeable = block.flags.writeable = False
    return states, block


@dataclass(frozen=True)
class CoherentVector:
    """Truncated unnormalized coherent vector: component prod a_i^n_i / sqrt(n_i!)."""

    basis: FockBasis
    alpha: np.ndarray
    components: np.ndarray
    norm: float

    @property
    def norm_tail_bound(self) -> float:
        """Bound on the squared norm lost to the quanta cutoff."""
        x = float((np.abs(self.alpha) ** 2).sum())
        return coherent_tail_bound(x, self.basis.max_quanta)


def annihilator(basis: FockBasis, mode: int) -> OperatorMatrix:
    """a_mode = Wick(z_mode): sqrt(n_mode) links (n) -> (n - e_mode); 1-based mode."""
    return _wick(basis, variable(basis.modes, mode))


def creator(basis: FockBasis, mode: int) -> OperatorMatrix:
    """Conjugate transpose of the annihilator."""
    return OperatorMatrix(basis, annihilator(basis, mode).mat.conj().T)


class CcrDefect(NamedTuple):
    """Max-norm of [a_i, a_j^dag] - delta_ij, on the protected block and overall."""

    protected: float
    full: float


def ccr_defect(basis: FockBasis, mode_i: int, mode_j: int) -> CcrDefect:
    """Commutator defect of the truncated ladder matrices.

    The protected value restricts rows and columns to states with total
    quanta <= M-1, where truncation cannot bite; the full value includes
    the boundary layer, whose defect is a property of the cutoff, not of
    the operators.
    """
    a_i = annihilator(basis, mode_i).mat
    c_j = creator(basis, mode_j).mat
    comm = a_i @ c_j - c_j @ a_i
    if mode_i == mode_j:
        comm = comm - np.eye(basis.size)
    keep = basis.protected_slice(layers=1)
    protected = float(np.abs(comm[np.ix_(keep, keep)]).max()) if len(keep) else 0.0
    return CcrDefect(protected=protected, full=float(np.abs(comm).max()))


def gamma_diag(basis: FockBasis, lambdas) -> OperatorMatrix:
    """Multiplicative quantization of a diagonal one-particle operator.

    Diagonal entry prod_i lambda_i^n_i at occupation (n); fixes the vacuum
    (0^0 = 1 convention).
    """
    lam = as_phase_point(lambdas, basis.modes)
    diag = np.ones(basis.size, dtype=complex)
    for i in range(basis.modes):
        exps = basis.occupations[:, i]
        diag *= np.where(exps == 0, 1.0 + 0j, lam[i] ** exps)
    return OperatorMatrix(basis, np.diag(diag))


def gamma_of(basis: FockBasis, o: np.ndarray) -> OperatorMatrix:
    """Multiplicative quantization of a general d x d one-particle operator.

    Columns are built by dynamic programming over the graded basis: the
    column for (n) is the transformed-mode creator applied to the column
    for (n - e_i), divided by sqrt(n_i).  Grade-preserving, hence exact on
    the truncated space.  Helper, quadratic memory and cubic time in the
    basis size; the diagonal fast path is gamma_diag.
    """
    o = np.asarray(o, dtype=complex)
    if o.shape != (basis.modes, basis.modes):
        raise ValueError(f"operator must be {basis.modes} x {basis.modes}")
    transformed = [
        sum(o[j, i] * creator(basis, j + 1).mat for j in range(basis.modes))
        for i in range(basis.modes)
    ]
    occ = basis.occupations
    # parent of each non-vacuum state: one quantum off its first occupied mode
    first = np.argmax(occ > 0, axis=1)
    parents = occ.copy()
    parents[1:][np.arange(basis.size - 1), first[1:]] -= 1
    parent_idx = basis.rank(parents)
    cols = np.zeros((basis.size, basis.size), dtype=complex)
    cols[0, 0] = 1.0
    for idx in range(1, basis.size):
        i = first[idx]
        cols[:, idx] = (transformed[i] @ cols[:, parent_idx[idx]]) / math.sqrt(
            occ[idx, i]
        )
    return OperatorMatrix(basis, cols)


def dgamma(basis: FockBasis, o: np.ndarray) -> OperatorMatrix:
    """Tangential quantization sum_ij o_ij a_i^dag a_j, the Wick
    quantization of z* . o . z.

    Annihilates the vacuum; Hermitian when o is, real when o is;
    grade-preserving, so the truncated matrix is exact. In particular the
    diagonal of dgamma(I) is the integer quanta count.
    """
    o = np.asarray(o, dtype=complex)
    if o.shape != (basis.modes, basis.modes):
        raise ValueError(f"operator must be {basis.modes} x {basis.modes}")
    unit = [tuple(row) for row in np.eye(basis.modes, dtype=int).tolist()]
    terms = {(unit[i], unit[j]): o[i, j] for i, j in np.ndindex(o.shape)}
    return _wick(basis, PolySymbol(basis.modes, terms))


def _wick(basis: FockBasis, symbol: PolySymbol) -> OperatorMatrix:
    # quantize imports this module when it loads, so the one Wick fill is
    # imported here, at call time
    from .quantize import wick_quantize

    return wick_quantize(basis, symbol)


def coherent_vector(basis: FockBasis, alpha) -> CoherentVector:
    """Truncated coherent vector with vacuum component 1 (Bargmann
    convention); ValueError when its norm, or a component, overflows.

    The norm is taken with the components scaled by the power of two at
    their largest modulus, so no square leaves the doubles before the norm
    does; the scaling is exact, so a norm that fits unscaled is unchanged.
    """
    a = as_phase_point(alpha, basis.modes)
    if not np.all(np.isfinite(a)):
        raise ValueError("coherent amplitude must be finite")
    # table[n, i] = a_i^n / sqrt(n!), gathered at each mode's occupation
    with np.errstate(over="ignore", invalid="ignore"):
        table = _coherent_table(np.ones(basis.modes), a, basis.max_quanta)
        comp = np.ones(basis.size, dtype=complex)
        for i in range(basis.modes):
            comp *= table[basis.occupations[:, i], i]
        norm = np.abs(comp).max()
        if np.isfinite(norm):
            scale = 2.0 ** -int(np.frexp(norm)[1])
            norm = np.linalg.norm(comp * scale) / scale
    if not np.isfinite(norm):
        raise ValueError(f"coherent norm {norm} is not finite")
    return CoherentVector(basis=basis, alpha=a, components=comp, norm=float(norm))


def _coherent_table(first: np.ndarray, z: np.ndarray, max_quanta: int) -> np.ndarray:
    """Rows n = 0..max_quanta of first * z^n / sqrt(n!), one column per z.

    A cumulative product of z / sqrt(n), so no power or factorial is formed
    and no entry overflows unless its value does.
    """
    steps = z[None, :] / np.sqrt(np.arange(1, max_quanta + 1))[:, None]
    return np.cumprod(np.vstack([first[None, :], steps]), axis=0)


def check_coherent_tail(point, max_quanta: int) -> None:
    """Refuse a coherent point whose quanta-cutoff tail exceeds COHERENT_TAIL_TOL.

    The ValueError names the cutoff that would suffice.
    """
    x = float((np.abs(np.asarray(point)) ** 2).sum())
    tail = coherent_tail_bound(x, max_quanta)
    if tail > COHERENT_TAIL_TOL:
        needed = min_quanta_for_tail(x, COHERENT_TAIL_TOL)
        raise ValueError(
            f"coherent tail {tail:.3g} > {COHERENT_TAIL_TOL:.3g} at "
            f"|alpha|^2={x:.3g}; max_quanta >= {needed} required"
        )


def checked_coherent_components(basis: FockBasis, point) -> np.ndarray:
    """Components of the coherent vector at `point`, after check_coherent_tail."""
    a = as_phase_point(point, basis.modes)
    check_coherent_tail(a, basis.max_quanta)
    return coherent_vector(basis, a).components


def coherent_overlap(u: CoherentVector, v: CoherentVector) -> complex:
    """<u, v>; approximates exp(u.alpha* . v.alpha) up to the quanta tail."""
    return complex(np.vdot(u.components, v.components))


def coherent_tail_bound(x: float, max_quanta: int) -> float:
    """Geometric bound on sum_{k>M} x^k / k! for x >= 0 (inf if x >= M+2)."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 0.0
    if x >= max_quanta + 2:
        return math.inf
    # log of x^(M+1)/(M+1)! to dodge overflow at large M
    log_head = (max_quanta + 1) * math.log(x) - math.lgamma(max_quanta + 2)
    return math.exp(log_head) / (1.0 - x / (max_quanta + 2))


def min_quanta_for_tail(x: float, tol: float, cap: int = 10_000) -> int:
    """Smallest cutoff M with coherent_tail_bound(x, M) <= tol."""
    for m in range(cap + 1):
        if coherent_tail_bound(x, m) <= tol:
            return m
    raise ValueError(f"no cutoff below {cap} reaches tail {tol} for x={x}")
