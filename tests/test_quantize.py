import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockprop.benchmarks import coupled_quartic, quartic_oscillator
from fockprop.fock import FockBasis, enumerate_basis
from fockprop.quantize import (
    antiwick_quantize_function,
    antiwick_quantize_poly,
    check_quadrature_array,
    check_slice_rule,
    gauss_hermite_rule,
    wick_quantize,
    wick_symbol_deviation,
)
from fockprop.symbols import PolySymbol, conj_variable, random_symbol, variable


def zz(d=1):
    return conj_variable(d, 1) * variable(d, 1)


def wick_quantize_loop(basis, w):
    """Reference: one column at a time, rows found in a state -> index dict."""
    states = list(map(tuple, basis.occupations.tolist()))
    index = {state: i for i, state in enumerate(states)}
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    for (kstar, k), coeff in w.terms.items():
        for col, state in enumerate(states):
            if any(n < ki for n, ki in zip(state, k)):
                continue
            dst = tuple(n - ki + ks for n, ki, ks in zip(state, k, kstar))
            if sum(dst) > basis.max_quanta:
                continue
            falling = math.prod(math.perm(n, ki) for n, ki in zip(state, k))
            rising = math.prod(math.perm(m, ks) for m, ks in zip(dst, kstar))
            mat[index[dst], col] += coeff * math.sqrt(falling * rising)
    return mat


def _falling_products(values, exps):
    out = np.ones(values.shape[0])
    kmax = int(exps.max()) if exps.size else 0
    for j in range(kmax):
        factor = np.where(j < exps[None, :], values - j, 1)
        out *= factor.prod(axis=1)
    return out


def wick_quantize_per_term(basis, w):
    """Reference: one vectorized numpy pass per term, rows from basis.rank."""
    occ = basis.occupations
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    for (kstar, k), coeff in w.terms.items():
        ks_arr = np.array(kstar, dtype=np.int64)
        k_arr = np.array(k, dtype=np.int64)
        cols = np.nonzero((occ >= k_arr).all(axis=1))[0]
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
    return mat


def product_rows(per_mode, modes):
    """(len^modes, modes) rows of every per-mode tuple, the last mode fastest."""
    return per_mode[np.indices((len(per_mode),) * modes).reshape(modes, -1).T]


def full_nodes(rule):
    return product_rows(rule.mode_nodes, rule.modes)


def full_weights(rule):
    return product_rows(rule.mode_weights, rule.modes).prod(axis=1)


def integrate(rule, f):
    """Normalized Gaussian phase-space integral of f (batch-vectorized callable)."""
    return complex(np.sum(full_weights(rule) * np.asarray(f(full_nodes(rule)))))


def exact_gaussian_moment(k: int, m: int) -> float:
    # independent oracle: int dmu z^k z*^m = delta_km k! for the normalized
    # one-mode Gaussian; standard polar-coordinates result
    return float(math.factorial(k)) if k == m else 0.0


class TestQuadratureRule:
    def test_weights_normalized(self):
        for d, q in [(1, 5), (1, 12), (2, 6), (3, 4)]:
            rule = gauss_hermite_rule(d, q)
            assert abs(full_weights(rule).sum() - 1.0) <= 1e-10

    def test_node_count(self):
        assert gauss_hermite_rule(1, 7).count == 49
        assert gauss_hermite_rule(2, 5).count == 625

    @pytest.mark.parametrize("k,m", [(0, 0), (1, 1), (2, 2), (3, 3), (2, 1), (0, 3)])
    def test_complex_moments(self, k, m):
        rule = gauss_hermite_rule(1, 8)
        val = integrate(rule, lambda p: p[:, 0] ** k * np.conj(p[:, 0]) ** m)
        assert abs(val - exact_gaussian_moment(k, m)) <= 1e-10

    def test_real_coordinate_exactness_up_to_degree(self):
        # exact through degree 2Q-1 per coordinate; double-factorial oracle
        q = 5
        rule = gauss_hermite_rule(1, q)

        def real_moment(a):
            if a % 2:
                return 0.0
            out = 1.0
            for j in range(1, a, 2):
                out *= j
            return out / 2 ** (a // 2)

        for a in range(0, 2 * q):
            val = integrate(rule, lambda p: p[:, 0].real ** a)
            assert abs(val - real_moment(a)) <= 1e-10, f"degree {a}"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nodes_match_meshgrid_construction(self, d):
        # reference: index every real coordinate of the 2d-dim tensor grid
        # (Re z_1, Im z_1, Re z_2, ...), the last coordinate fastest
        order = 4
        x, _ = np.polynomial.hermite.hermgauss(order)
        grids = np.meshgrid(*([np.arange(order)] * (2 * d)), indexing="ij")
        idx = np.stack([g.reshape(-1) for g in grids])
        expected = np.empty((idx.shape[1], d), dtype=complex)
        for m in range(d):
            expected[:, m] = x[idx[2 * m]] + 1j * x[idx[2 * m + 1]]
        rule = gauss_hermite_rule(d, order)
        for m in range(d):
            got = variable(d, m + 1).evaluate_grid(rule.mode_nodes)
            assert np.array_equal(got, expected[:, m])
        assert np.array_equal(full_nodes(rule), expected)


class TestWickQuantize:
    def test_number_operator(self):
        basis = enumerate_basis(1, 3)
        np.testing.assert_allclose(
            wick_quantize(basis, zz()).mat, np.diag([0.0, 1, 2, 3]), atol=0
        )

    def test_constant_is_identity(self):
        basis = enumerate_basis(2, 2)
        np.testing.assert_array_equal(
            wick_quantize(basis, PolySymbol.constant(2, 1.0)).mat,
            np.eye(basis.size),
        )

    def test_quartic_is_n_times_n_minus_one(self):
        basis = enumerate_basis(1, 4)
        np.testing.assert_allclose(
            wick_quantize(basis, zz() ** 2).mat,
            np.diag([0.0, 0, 2, 6, 12]),
            atol=0,
        )

    def test_hermitian_iff_real(self):
        basis = enumerate_basis(2, 4)
        rng = np.random.default_rng(23)
        s = random_symbol(rng, 2, 4, 8)
        real = (s + s.adjoint()) * 0.5
        assert wick_quantize(basis, real).is_hermitian
        assert not wick_quantize(basis, variable(2, 1)).is_hermitian

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            wick_quantize(enumerate_basis(2, 2), zz(1))

    def test_off_diagonal_term(self):
        # z*_1 z_2 hops a quantum from mode 2 to mode 1
        basis = enumerate_basis(2, 1)
        s = conj_variable(2, 1) * variable(2, 2)
        mat = wick_quantize(basis, s).mat
        expected = np.zeros((3, 3))
        expected[basis.index((1, 0)), basis.index((0, 1))] = 1.0
        np.testing.assert_array_equal(mat, expected)


class TestWickRowPlacement:
    def test_coupled_quartic_matches_loop_reference(self):
        basis = enumerate_basis(4, 6)
        w = coupled_quartic()
        assert np.array_equal(wick_quantize(basis, w).mat, wick_quantize_loop(basis, w))

    def test_random_complex_symbol_matches_loop_reference(self):
        rng = np.random.default_rng(2024)
        basis = enumerate_basis(3, 5)
        w = random_symbol(rng, 3, 5, n_terms=20)
        assert not w.is_real()
        assert np.array_equal(wick_quantize(basis, w).mat, wick_quantize_loop(basis, w))


class TestWickFill:
    """The one-pass fill equals the per-term loop bit for bit."""

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_random_complex_symbols(self, modes):
        rng = np.random.default_rng(100 + modes)
        for max_quanta in (0, 1, 3, 5):
            basis = enumerate_basis(modes, max_quanta)
            # degrees past M give terms whose k exceeds the cutoff
            w = random_symbol(rng, modes, max_quanta + 3, n_terms=25)
            assert not w.is_real()
            self.check(basis, w)

    def test_k_past_cutoff(self):
        basis = enumerate_basis(2, 3)
        w = variable(2, 1) ** 5 + conj_variable(2, 2) ** 4 * variable(2, 1) + zz(2)
        self.check(basis, w)

    def test_zero_symbol(self):
        basis = enumerate_basis(3, 2)
        assert not wick_quantize(basis, PolySymbol(3, {})).mat.any()
        self.check(basis, PolySymbol(3, {}))

    def test_more_terms_than_states(self):
        # 10 states and 21 terms in one run: states take entries from
        # several terms, each entry summed in term order; the runs break
        # between terms in test_coupled_quartic_at_four_modes (8 runs)
        basis = enumerate_basis(2, 3)
        w = random_symbol(np.random.default_rng(7), 2, 3, n_terms=60)
        assert len(w.terms) > 2 * basis.size
        self.check(basis, w)

    def test_coupled_quartic_at_four_modes(self):
        self.check(enumerate_basis(4, 10), coupled_quartic())

    @staticmethod
    def check(basis, w):
        assert np.array_equal(wick_quantize(basis, w).mat, wick_quantize_per_term(basis, w))


def sector_symbol(rng, modes, g, kind, n_terms=30):
    """A random symbol of degree <= 4 keeping only the terms that change the
    total quanta by a multiple of g (by nothing when g = 0); its
    coefficients are real, Hermitian pairs or complex, as `kind` says."""
    w = random_symbol(rng, modes, 4, n_terms)
    terms = {
        (kstar, k): c.real if kind == "real" else c
        for (kstar, k), c in w.terms.items()
        if (sum(kstar) - sum(k) == 0 if g == 0 else (sum(kstar) - sum(k)) % g == 0)
    }
    w = PolySymbol(modes, terms)
    return (w + w.adjoint()) * 0.5 if kind == "hermitian" else w


def block_owner(op):
    """The index of the block holding each state."""
    owner = np.empty(op.basis.size, dtype=int)
    for b, (idx, _) in enumerate(op.blocks):
        owner[idx] = b
    return owner


class TestWickSectors:
    """One block per sector read off the symbol, each equal bit for bit to
    the same block of the dense per-term reference, which is zero outside."""

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["real", "hermitian", "complex"])
    def test_blocks_are_the_reference_blocks(self, modes, g, kind):
        rng = np.random.default_rng([modes, g, len(kind)])
        for max_quanta in (0, 2, 5):
            basis = enumerate_basis(modes, max_quanta)
            w = sector_symbol(rng, modes, g, kind)
            op = wick_quantize(basis, w)
            ref = wick_quantize_per_term(basis, w)
            kept = {(ks, k): c for (ks, k), c in w.terms.items()
                    if max(sum(ks), sum(k)) <= max_quanta}
            real = all(c.imag == 0 for c in kept.values())
            inside = np.zeros(ref.shape, dtype=bool)
            for idx, block in op.blocks:
                assert block.dtype == (np.float64 if real else np.complex128)
                assert np.array_equal(block, ref[np.ix_(idx, idx)])
                inside[np.ix_(idx, idx)] = True
            assert not ref[~inside].any()
            # sectors are the classes of N mod g, or of N when g = 0
            step = math.gcd(*(sum(ks) - sum(k) for ks, k in kept))
            labels = basis.total_quanta % step if step else basis.total_quanta
            assert len(op.blocks) == len(set(labels.tolist()))
            np.testing.assert_array_equal(
                block_owner(op), np.unique(labels, return_inverse=True)[1])

    @given(
        modes=st.integers(1, 3),
        max_quanta=st.integers(0, 5),
        g=st.sampled_from([0, 1, 2, 3, 4]),
        kind=st.sampled_from(["real", "hermitian", "complex"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_entry_classes_lie_in_one_sector(self, modes, max_quanta, g, kind, seed):
        # with h the gcd of |N_r - N_c| over the reference's nonzero
        # entries, the classes of N mod h (of N when h = 0) each lie in
        # one block: the symbol's sectors are never finer
        basis = enumerate_basis(modes, max_quanta)
        w = sector_symbol(np.random.default_rng(seed), modes, g, kind)
        ref = wick_quantize_per_term(basis, w)
        quanta = basis.total_quanta
        rows, cols = np.nonzero(ref)
        h = math.gcd(*np.abs(quanta[rows] - quanta[cols]).tolist())
        labels = quanta % h if h else quanta
        owner = block_owner(wick_quantize(basis, w))
        for label in set(labels.tolist()):
            assert len(set(owner[labels == label].tolist())) == 1

    def test_peak_memory_below_one_dense_matrix(self):
        # the two blocks (581 and 420 states) take 3.9 MiB; a dense matrix
        # of the 1001 states, or a float (terms, states) table as large,
        # would take this guard's 7.6 MiB on its own
        basis = enumerate_basis(4, 10)
        w = coupled_quartic()
        tracemalloc.start()
        try:
            wick_quantize(basis, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < basis.size**2 * 8

    def test_peak_memory_of_many_terms(self):
        # 2387 terms over 1716 states: a (terms, states) placement array
        # would add 3.9 MiB to the blocks' 12.7 MiB; placing each term's
        # entries in closed form, the fill peaks below 1.65 times the blocks
        basis = enumerate_basis(7, 6)
        w = coupled_quartic(modes=7)
        tracemalloc.start()
        try:
            op = wick_quantize(basis, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.65 * sum(block.nbytes for _, block in op.blocks)


class TestWickDtype:
    """Real coefficients fill a real matrix, equal to the complex reference."""

    @pytest.mark.parametrize(
        "d, M, w",
        [(4, 8, coupled_quartic()), (1, 10, quartic_oscillator())],
        ids=["coupled-quartic", "quartic-oscillator"],
    )
    def test_real_coefficients_give_float64(self, d, M, w):
        basis = enumerate_basis(d, M)
        mat = wick_quantize(basis, w).mat
        assert mat.dtype == np.float64
        assert np.array_equal(mat, wick_quantize_per_term(basis, w))

    def test_antiwick_poly_of_a_real_symbol_is_real(self):
        h = antiwick_quantize_poly(enumerate_basis(1, 10), quartic_oscillator())
        assert h.mat.dtype == np.float64

    def test_imaginary_coefficients_stay_complex(self):
        # i z* - i z is real-valued, but its coefficients are not real
        basis = enumerate_basis(1, 6)
        w = 1j * conj_variable(1, 1) - 1j * variable(1, 1)
        mat = wick_quantize(basis, w).mat
        assert mat.dtype == np.complex128
        assert np.array_equal(mat, wick_quantize_per_term(basis, w))


class TestWickSymbolOracle:
    def test_number_operator_symbol(self):
        basis = enumerate_basis(1, 25)
        op = wick_quantize(basis, zz())
        probes = [([0.8], [0.6 + 0.4j]), ([1.0], [-0.9j]), ([0.2 + 0.9j], [1.0])]
        assert wick_symbol_deviation(basis, op, zz(), probes) <= 1e-9

    def test_identity_symbol(self):
        basis = enumerate_basis(1, 25)
        op = wick_quantize(basis, PolySymbol.constant(1, 1.0))
        probes = [([0.5], [0.5]), ([1.0], [0.7j])]
        assert wick_symbol_deviation(
            basis, op, PolySymbol.constant(1, 1.0), probes
        ) <= 1e-12

    def test_creator_symbol(self):
        basis = enumerate_basis(1, 25)
        op = wick_quantize(basis, conj_variable(1, 1))
        probes = [([0.9], [0.8]), ([0.4 - 0.6j], [1.0])]
        assert wick_symbol_deviation(basis, op, conj_variable(1, 1), probes) <= 1e-9

    def test_rejects_probe_outside_tail_tolerance(self):
        basis = enumerate_basis(1, 6)
        op = wick_quantize(basis, zz())
        with pytest.raises(ValueError, match="tail"):
            wick_symbol_deviation(basis, op, zz(), [([2.5], [2.5])])


class TestAntiwickPoly:
    def test_number_symbol_shifts_by_one(self):
        basis = enumerate_basis(1, 3)
        np.testing.assert_allclose(
            antiwick_quantize_poly(basis, zz()).mat,
            np.diag([1.0, 2, 3, 4]),
            atol=1e-14,
        )

    def test_constant(self):
        basis = enumerate_basis(1, 3)
        np.testing.assert_array_equal(
            antiwick_quantize_poly(basis, PolySymbol.constant(1, 1.0)).mat,
            np.eye(4),
        )

    def test_quartic(self):
        # N(N-1) + 4N + 2 on number states
        basis = enumerate_basis(1, 4)
        expected = np.diag([n * (n - 1) + 4 * n + 2.0 for n in range(5)])
        np.testing.assert_allclose(
            antiwick_quantize_poly(basis, zz() ** 2).mat, expected, atol=1e-12
        )


class TestAntiwickFunction:
    def test_resolution_of_identity(self):
        for M in (4, 8, 12):
            basis = enumerate_basis(1, M)
            rule = gauss_hermite_rule(1, M + 1)
            op = antiwick_quantize_function(basis, np.ones(rule.count), rule)
            assert np.abs(op.mat - np.eye(basis.size)).max() <= 1e-8

    def test_matches_exact_route_for_polynomials(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        rng = np.random.default_rng(31)
        s = random_symbol(rng, 1, 4, 6, real=True)
        op_quad = antiwick_quantize_function(
            basis, s.evaluate_grid(rule.mode_nodes), rule
        ).mat
        op_poly = antiwick_quantize_poly(basis, s).mat
        keep = basis.protected_slice(layers=s.degree)
        sub = np.ix_(keep, keep)
        assert np.abs(op_quad[sub] - op_poly[sub]).max() <= 1e-8

    def test_two_mode_agreement(self):
        basis = enumerate_basis(2, 4)
        rule = gauss_hermite_rule(2, 6)
        s = zz(2) + conj_variable(2, 2) * variable(2, 2)
        op_quad = antiwick_quantize_function(
            basis, s.evaluate_grid(rule.mode_nodes), rule
        ).mat
        op_poly = antiwick_quantize_poly(basis, s).mat
        keep = basis.protected_slice(layers=2)
        sub = np.ix_(keep, keep)
        assert np.abs(op_quad[sub] - op_poly[sub]).max() <= 1e-8

    def test_unimodular_contraction(self):
        basis = enumerate_basis(1, 10)
        rule = gauss_hermite_rule(1, 11)
        op = antiwick_quantize_function(
            basis, np.exp(-0.4j * (np.abs(full_nodes(rule)[:, 0]) ** 2)), rule
        )
        assert np.linalg.norm(op.mat, ord=2) <= 1 + 1e-6

    def test_positivity(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        op = antiwick_quantize_function(
            basis, np.abs(full_nodes(rule)[:, 0]) ** 2, rule
        )
        assert np.linalg.eigvalsh(op.mat).min() >= -1e-10

    def test_lower_bound_from_node_floor(self):
        # a >= 0.3 everywhere, so the quadrature operator is >= 0.3 - eps
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        a = (zz() - 1.0) ** 2 + 0.3
        op = antiwick_quantize_function(
            basis, a.evaluate_grid(rule.mode_nodes).real, rule
        )
        assert np.linalg.eigvalsh(op.mat).min() >= 0.3 - 1e-8

    def test_rejects_non_finite_values(self):
        basis = enumerate_basis(1, 4)
        rule = gauss_hermite_rule(1, 5)
        values = np.where(np.abs(full_nodes(rule)[:, 0]) > 1, np.inf, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            antiwick_quantize_function(basis, values, rule)

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            antiwick_quantize_function(
                enumerate_basis(2, 3), np.ones(25), gauss_hermite_rule(1, 5)
            )

    def test_refuses_largest_array_before_forming_it(self):
        # 16 nodes, but the last contraction would form 61^4 = 13,845,841
        # basis pairs (221 MB)
        basis = FockBasis(2, 60)
        rule = gauss_hermite_rule(2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="quadrature array of 13845841 points"):
                antiwick_quantize_function(basis, np.zeros(16), rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestQuadratureLimits:
    def test_array_entries_are_the_larger_side(self):
        assert check_quadrature_array(2, 6, 4) == 6**4
        assert check_quadrature_array(2, 3, 5) == 6**4

    @pytest.mark.parametrize("d,Q,M,message", [
        (3, 14, 8, "rule order 14 gives a quadrature grid of 7529536 points at d=3"),
        (2, 2, 60, "cutoff M \\+ 1 = 61 > Q = 2 gives a quadrature array of 13845841"),
    ])
    def test_refuses_over_the_grid_limit(self, d, Q, M, message):
        with pytest.raises(ValueError, match=message):
            check_quadrature_array(d, Q, M)

    def test_slice_rule_starts_at_m_plus_one(self):
        check_slice_rule(9, 8)
        with pytest.raises(ValueError, match="rule order 8 < M \\+ 1 = 9"):
            check_slice_rule(8, 8)


def antiwick_quadrature_reference(basis, f, rule):
    """Reference: sum_q W_q f(z_q) |z_q><z_q| over every node of the rule.

    With normalized coherent vectors |z> = exp(-|z|^2/2) F_z and W_q the
    rule weight times exp(|z_q|^2), each term is weights_q f(z_q) F F^H.
    """
    nodes = full_nodes(rule)
    vals = f(nodes)
    cols = np.empty((basis.size, rule.count), dtype=complex)
    for r, state in enumerate(basis.occupations.tolist()):
        col = np.ones(rule.count, dtype=complex)
        for i, n in enumerate(state):
            col *= nodes[:, i] ** n / math.sqrt(math.factorial(n))
        cols[r] = col
    return (cols * (full_weights(rule) * vals)) @ cols.conj().T


def mixed_function(modes, seed):
    """Seeded complex f: not a product over modes, not symmetric in z, z*."""
    rng = np.random.default_rng(seed)
    s = random_symbol(rng, modes, 3, 8)
    c = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return lambda p: s.evaluate(p) * np.exp(
        -0.3 * (np.abs(p) ** 2).sum(axis=1) + 1j * (p @ c).real
    )


class TestAntiwickSumFactorization:
    @pytest.mark.parametrize("d,M,Q", [
        (1, 6, 8), (2, 4, 6), (3, 2, 4), (4, 2, 3), (2, 5, 3),
    ])
    def test_matches_node_sum(self, d, M, Q):
        basis = enumerate_basis(d, M)
        rule = gauss_hermite_rule(d, Q)
        f = mixed_function(d, seed=100 + d)
        op = antiwick_quantize_function(basis, f(full_nodes(rule)), rule).mat
        ref = antiwick_quadrature_reference(basis, f, rule)
        assert np.abs(ref).max() > 0.1
        assert np.abs(op - ref).max() <= 1e-13

    def test_peak_memory_stays_near_node_values(self):
        # 10^6 nodes, 16 MB of values; no contraction step may outgrow them
        basis = enumerate_basis(3, 8)
        rule = gauss_hermite_rule(3, 10)
        values = coupled_quartic(modes=3).evaluate_grid(rule.mode_nodes)
        tracemalloc.start()
        try:
            antiwick_quantize_function(basis, values, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes

    def test_real_function_gives_hermitian_operator(self):
        basis = enumerate_basis(3, 2)
        rule = gauss_hermite_rule(3, 4)
        f = mixed_function(3, seed=7)
        op = antiwick_quantize_function(basis, f(full_nodes(rule)).real, rule)
        assert op.hermitian_defect() <= 1e-13
