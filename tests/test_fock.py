import math
import warnings

import numpy as np
import pytest

from fockprop.fock import (
    FockBasis,
    OperatorMatrix,
    annihilator,
    ccr_defect,
    coherent_overlap,
    coherent_tail_bound,
    coherent_vector,
    creator,
    dgamma,
    enumerate_basis,
    gamma_diag,
    gamma_of,
    min_quanta_for_tail,
)
from fockprop.quantize import wick_quantize
from fockprop.symbols import conj_variable, variable


def recursive_occupations(total, modes):
    """The graded order by its definition: the first mode takes the largest
    share first, (q, 0, ..), .., (0, .., q), and the rest recurse."""
    if modes == 1:
        return [(total,)]
    return [
        (head,) + rest
        for head in range(total, -1, -1)
        for rest in recursive_occupations(total - head, modes - 1)
    ]


class TestEnumerateBasis:
    def test_single_mode_ladder(self):
        basis = enumerate_basis(1, 3)
        assert basis.occupations.tolist() == [[0], [1], [2], [3]]
        assert basis.size == 4

    def test_two_modes_one_quantum(self):
        basis = enumerate_basis(2, 1)
        assert basis.occupations.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_size_is_binomial(self):
        assert enumerate_basis(3, 4).size == 35
        assert enumerate_basis(2, 10).size == math.comb(12, 2)

    def test_graded_order(self):
        basis = enumerate_basis(2, 2)
        assert basis.occupations.tolist() == [
            [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]
        ]

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("M", [0, 1, 2, 3, 4, 5, 6])
    def test_matches_recursive_definition(self, d, M):
        basis = enumerate_basis(d, M)
        expected = [s for q in range(M + 1) for s in recursive_occupations(q, d)]
        assert basis.occupations.tolist() == [list(s) for s in expected]
        assert basis.occupations.dtype == np.int64

    def test_more_modes_than_the_recursion_limit(self):
        # one frame per mode would exceed Python's default limit of 1000
        d = 1100
        basis = enumerate_basis(d, 1)
        np.testing.assert_array_equal(
            basis.occupations, np.vstack([np.zeros(d, dtype=int), np.eye(d, dtype=int)])
        )
        np.testing.assert_array_equal(basis.rank(basis.occupations), np.arange(d + 1))


class TestRank:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("M", [0, 1, 4, 7])
    def test_rank_of_enumeration_is_its_order(self, d, M):
        basis = enumerate_basis(d, M)
        np.testing.assert_array_equal(
            basis.rank(basis.occupations), np.arange(basis.size)
        )

    def test_index_matches_enumeration(self):
        basis = enumerate_basis(3, 4)
        states = basis.occupations.tolist()
        assert [basis.index(s) for s in states] == list(range(basis.size))
        assert basis.index([0, 2, 1]) == states.index([0, 2, 1])

    @pytest.mark.parametrize(
        "state", [(1, 0), (0, 0, 0, 0), (-1, 1, 0), (2, 2, 1), (0, 0, 5)]
    )
    def test_index_refuses_states_outside_basis(self, state):
        basis = enumerate_basis(3, 4)
        with pytest.raises(KeyError):
            basis.index(state)


class TestLadderOperators:
    def test_single_mode_matrix(self):
        basis = enumerate_basis(1, 2)
        a = annihilator(basis, 1).mat
        expected = np.array(
            [[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex
        )
        np.testing.assert_allclose(a, expected)

    def test_annihilates_vacuum(self):
        basis = enumerate_basis(2, 3)
        vac = np.zeros(basis.size)
        vac[0] = 1.0
        for mode in (1, 2):
            assert np.all(annihilator(basis, mode).mat @ vac == 0)

    def test_creator_is_adjoint(self):
        basis = enumerate_basis(2, 3)
        for mode in (1, 2):
            a = annihilator(basis, mode).mat
            np.testing.assert_array_equal(creator(basis, mode).mat, a.conj().T)

    def test_ladder_matrices_are_real(self):
        basis = enumerate_basis(2, 4)
        for op in (annihilator(basis, 2), creator(basis, 1)):
            assert op.mat.dtype == np.float64

    def test_mode_out_of_range(self):
        basis = enumerate_basis(2, 2)
        with pytest.raises(ValueError):
            annihilator(basis, 3)


class TestCcrDefect:
    @pytest.mark.parametrize("d,M", [(1, 4), (2, 5), (3, 4)])
    def test_protected_same_mode(self, d, M):
        basis = enumerate_basis(d, M)
        for i in range(1, d + 1):
            assert ccr_defect(basis, i, i).protected <= 1e-12

    def test_protected_distinct_modes(self):
        basis = enumerate_basis(3, 4)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert ccr_defect(basis, i, j).protected <= 1e-12

    def test_boundary_defect_is_cutoff_plus_one(self):
        # top state of the d=1, M=2 ladder: commutator entry -(M+1)
        defect = ccr_defect(enumerate_basis(1, 2), 1, 1)
        assert defect.full == pytest.approx(3.0, abs=1e-12)
        assert defect.protected <= 1e-12


class TestGammaDiag:
    def test_identity(self):
        basis = enumerate_basis(2, 3)
        np.testing.assert_array_equal(
            gamma_diag(basis, [1.0, 1.0]).mat, np.eye(basis.size)
        )

    def test_zero_is_vacuum_projector(self):
        basis = enumerate_basis(2, 2)
        mat = gamma_diag(basis, [0.0, 0.0]).mat
        expected = np.zeros((basis.size, basis.size))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(mat, expected)

    def test_free_evolution_phases(self):
        basis = enumerate_basis(1, 4)
        omega, t = 1.3, 0.7
        mat = gamma_diag(basis, [np.exp(-1j * omega * t)]).mat
        expected = np.diag([np.exp(-1j * omega * n * t) for n in range(5)])
        np.testing.assert_allclose(mat, expected, atol=1e-14)

    def test_product_law_entrywise(self):
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(4)
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mu = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = gamma_diag(basis, lam).mat @ gamma_diag(basis, mu).mat
        rhs = gamma_diag(basis, lam * mu).mat
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestGammaOf:
    def test_matches_diagonal_path(self):
        basis = enumerate_basis(2, 3)
        lam = np.array([0.5 + 0.1j, -0.3])
        np.testing.assert_allclose(
            gamma_of(basis, np.diag(lam)).mat, gamma_diag(basis, lam).mat,
            atol=1e-12,
        )

    def test_maps_coherent_to_transformed_coherent(self):
        basis = enumerate_basis(2, 10)
        rng = np.random.default_rng(7)
        o = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        alpha = np.array([0.3 + 0.1j, -0.2])
        lhs = gamma_of(basis, o).mat @ coherent_vector(basis, alpha).components
        rhs = coherent_vector(basis, o @ alpha).components
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_covariant_product_law(self):
        basis = enumerate_basis(2, 4)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = gamma_of(basis, a @ b).mat
        rhs = gamma_of(basis, a).mat @ gamma_of(basis, b).mat
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_unitary_lifts_to_unitary(self):
        basis = enumerate_basis(2, 4)
        theta = 0.4
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        g = gamma_of(basis, u).mat
        np.testing.assert_allclose(g.conj().T @ g, np.eye(basis.size), atol=1e-12)


class TestDgamma:
    def test_number_operator(self):
        basis = enumerate_basis(1, 5)
        mat = dgamma(basis, np.eye(1)).mat
        np.testing.assert_allclose(mat, np.diag(np.arange(6.0)), atol=1e-13)

    def test_vacuum_column_zero(self):
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(2)
        o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.abs(dgamma(basis, o).mat[:, 0]).max() == 0.0

    def test_number_grading_exact(self):
        basis = enumerate_basis(3, 4)
        mat = dgamma(basis, np.eye(3)).mat
        np.testing.assert_array_equal(np.diag(mat).real, basis.total_quanta)

    def test_positive_o_gives_psd(self):
        basis = enumerate_basis(2, 4)
        rng = np.random.default_rng(6)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        o = m.conj().T @ m
        eigs = np.linalg.eigvalsh(dgamma(basis, o).mat)
        assert eigs.min() >= -1e-10

    def test_hermitian_when_o_hermitian(self):
        basis = enumerate_basis(2, 4)
        rng = np.random.default_rng(61)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        o = 0.5 * (m + m.conj().T)
        assert dgamma(basis, o).is_hermitian

    def test_generates_multiplicative_semigroup(self):
        # exp(-t dG(o)) equals gamma(exp(-t o)) for Hermitian o: both are
        # grade-preserving, so the truncated identity is exact
        basis = enumerate_basis(2, 5)
        rng = np.random.default_rng(29)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        o = 0.5 * (m + m.conj().T)
        t = 0.6

        evals, evecs = np.linalg.eigh(dgamma(basis, o).mat)
        lifted = (evecs * np.exp(-t * evals)) @ evecs.conj().T

        oe, ov = np.linalg.eigh(o)
        small = (ov * np.exp(-t * oe)) @ ov.conj().T
        np.testing.assert_allclose(lifted, gamma_of(basis, small).mat, atol=1e-12)

    def test_commutator_is_lie_homomorphism(self):
        # [dG(o1), dG(o2)] = dG([o1, o2]), exact on the whole truncated
        # space because both sides preserve the grading
        basis = enumerate_basis(2, 5)
        rng = np.random.default_rng(17)
        for _ in range(3):
            m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            o1, o2 = 0.5 * (m1 + m1.conj().T), 0.5 * (m2 + m2.conj().T)
            lhs = (
                dgamma(basis, o1).mat @ dgamma(basis, o2).mat
                - dgamma(basis, o2).mat @ dgamma(basis, o1).mat
            )
            rhs = dgamma(basis, o1 @ o2 - o2 @ o1).mat
            assert np.abs(lhs - rhs).max() <= 1e-10


class TestWickQuantizations:
    """The ladder matrices and dGamma are Wick quantizations of z_i, z*_i
    and z* . o . z, entry for entry."""

    SIZES = [(1, 0), (1, 5), (2, 1), (2, 4), (3, 2), (3, 5)]

    @pytest.mark.parametrize("d,M", SIZES)
    def test_ladder_matrices(self, d, M):
        basis = enumerate_basis(d, M)
        for mode in range(1, d + 1):
            for op, symbol in ((annihilator, variable), (creator, conj_variable)):
                mat = op(basis, mode).mat
                wick = wick_quantize(basis, symbol(d, mode)).mat
                assert mat.dtype == wick.dtype == np.float64
                np.testing.assert_array_equal(mat, wick)

    @pytest.mark.parametrize("d,M", SIZES)
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_dgamma(self, d, M, kind):
        rng = np.random.default_rng(d * 10 + M)
        o = rng.standard_normal((d, d))
        if kind == "complex":
            o = o + 1j * rng.standard_normal((d, d))
        if d > 1:
            o[0, -1] = 0.0  # a zero entry, which adds no term
        symbol = sum(
            complex(o[i, j]) * conj_variable(d, i + 1) * variable(d, j + 1)
            for i in range(d) for j in range(d)
        )
        basis = enumerate_basis(d, M)
        mat = dgamma(basis, o).mat
        wick = wick_quantize(basis, symbol).mat
        assert mat.dtype == wick.dtype
        if kind == "real":
            assert mat.dtype == np.float64
        np.testing.assert_array_equal(mat, wick)


class TestCoherentVector:
    def test_vacuum(self):
        basis = enumerate_basis(2, 3)
        cv = coherent_vector(basis, [0.0, 0.0])
        expected = np.zeros(basis.size)
        expected[0] = 1.0
        np.testing.assert_array_equal(cv.components, expected)

    def test_vacuum_component_is_one(self):
        basis = enumerate_basis(2, 4)
        cv = coherent_vector(basis, [0.4 + 0.2j, -0.1j])
        assert cv.components[0] == 1.0

    def test_overlap_reaches_e(self):
        basis = enumerate_basis(1, 20)
        one = coherent_vector(basis, [1.0])
        assert coherent_overlap(one, one) == pytest.approx(math.e, abs=1e-12)

    def test_overlap_conjugate_symmetry(self):
        basis = enumerate_basis(2, 12)
        u = coherent_vector(basis, [0.3 + 0.2j, 0.1])
        v = coherent_vector(basis, [-0.2, 0.4 - 0.1j])
        assert coherent_overlap(u, v) == pytest.approx(
            np.conj(coherent_overlap(v, u))
        )

    def test_overlap_error_within_tail_bound(self):
        basis = enumerate_basis(1, 6)
        a, b = 0.9, 0.8 + 0.3j
        u, v = coherent_vector(basis, [a]), coherent_vector(basis, [b])
        err = abs(coherent_overlap(u, v) - np.exp(np.conj(a) * b))
        assert err <= coherent_tail_bound(abs(np.conj(a) * b), 6)

    def test_rejects_non_finite(self):
        basis = enumerate_basis(1, 3)
        with pytest.raises(ValueError):
            coherent_vector(basis, [np.inf])

    @pytest.mark.parametrize("d,alpha,norm", [
        (2, [1e200, 0.0], "nan"),  # inf components times 0 across modes
        (1, [1e100], "(inf|nan)"),  # the components overflow
        (1, [1e20], "inf"),  # the top component overflows, at 1e320 / sqrt(16!)
        # components up to 1.3e308, but 17 of them share the top shell
        (2, [3.5e19, 3.5e19], "inf"),
    ])
    def test_refuses_overflow(self, d, alpha, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"coherent norm {norm} is not finite"):
                coherent_vector(FockBasis(d, 16), alpha)

    def test_finite_norm_with_squares_past_the_doubles(self):
        # the largest component is 5.0e157: its square overflows, the norm does not
        cv = coherent_vector(FockBasis(1, 8), [1e20])
        top = 1e160 / math.sqrt(math.factorial(8))
        assert cv.norm == pytest.approx(top, rel=1e-15)
        np.testing.assert_allclose(np.linalg.norm(cv.components / cv.norm), 1.0,
                                   rtol=1e-15)
        with pytest.raises(ValueError, match="coherent norm inf is not finite"):
            coherent_vector(FockBasis(1, 8), [1e39])

    def test_norm_is_the_unscaled_norm_where_that_fits(self):
        # the power-of-two scaling is exact, so ordinary norms are unchanged
        for alpha in ([0.5], [0.4 + 0.2j, -0.3], [2.0, 1.5j, 0.1]):
            cv = coherent_vector(FockBasis(len(alpha), 8), alpha)
            assert cv.norm == np.linalg.norm(cv.components)

    def test_cutoff_past_the_float_factorial(self):
        # 171! overflows a double; a^n / sqrt(n!) at |a| = 3 stays above 1e-165
        a = 3.0 * np.exp(0.7j)
        cv = coherent_vector(enumerate_basis(1, 300), [a])
        n = np.arange(301)
        log_abs = n * math.log(abs(a)) - np.array([math.lgamma(k + 1) for k in n]) / 2
        expected = np.exp(log_abs + 1j * n * np.angle(a))
        assert np.all(np.isfinite(cv.components))
        assert np.abs(cv.components / expected - 1).max() <= 1e-12

    def test_components_are_the_product_formula(self):
        basis = enumerate_basis(3, 5)
        a = np.array([0.4 + 0.2j, -0.3, 0.5j])
        expected = [
            np.prod([a[i] ** n / math.sqrt(math.factorial(n)) for i, n in enumerate(s)])
            for s in basis.occupations.tolist()
        ]
        np.testing.assert_allclose(
            coherent_vector(basis, a).components, expected, rtol=1e-14, atol=0
        )


class TestTailBound:
    def test_monotone_in_cutoff(self):
        bounds = [coherent_tail_bound(1.5, m) for m in range(5, 15)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_bounds_actual_tail(self):
        x, M = 1.2, 8
        actual = math.exp(x) - sum(x**k / math.factorial(k) for k in range(M + 1))
        assert coherent_tail_bound(x, M) >= actual

    def test_min_quanta_hint(self):
        m = min_quanta_for_tail(2.25, 1e-10)
        assert coherent_tail_bound(2.25, m) <= 1e-10
        assert coherent_tail_bound(2.25, m - 1) > 1e-10

    def test_vector_reports_norm_tail(self):
        basis = enumerate_basis(2, 10)
        cv = coherent_vector(basis, [0.6, 0.3j])
        x = 0.6**2 + 0.3**2
        assert cv.norm_tail_bound == coherent_tail_bound(x, 10)
        # truncated squared norm is below the full one by at most the bound
        full = math.exp(x)
        trunc = float(np.vdot(cv.components, cv.components).real)
        assert 0 <= full - trunc <= cv.norm_tail_bound


class TestOperatorMatrix:
    def test_shape_validated(self):
        basis = enumerate_basis(1, 2)
        with pytest.raises(ValueError):
            OperatorMatrix(basis, np.eye(2))

    def test_matrix_is_readonly(self):
        basis = enumerate_basis(1, 2)
        op = OperatorMatrix(basis, np.eye(3))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_keeps_real_and_complex_dtypes(self):
        basis = enumerate_basis(1, 2)
        cases = [
            (np.eye(3), np.float64),
            (np.eye(3, dtype=complex), np.complex128),
            (np.eye(3, dtype=int), np.float64),
            (np.eye(3, dtype=bool), np.float64),
        ]
        for mat, dtype in cases:
            op = OperatorMatrix(basis, mat)
            assert op.mat.dtype == dtype
            assert op.mat.flags.c_contiguous and not op.mat.flags.writeable
            np.testing.assert_array_equal(op.mat, np.eye(3))
        # a transposed view is made contiguous
        assert OperatorMatrix(basis, np.triu(np.ones((3, 3))).T).mat.flags.c_contiguous

    def test_blocks_build_the_dense_matrix(self):
        basis = enumerate_basis(1, 3)
        op = OperatorMatrix(basis, blocks=[([0, 2], [[1.0, 2.0], [3.0, 4.0]]),
                                           ([1, 3], [[5j, 0], [0, 6]])])
        expected = np.array([[1, 0, 2, 0], [0, 5j, 0, 0], [3, 0, 4, 0], [0, 0, 0, 6]])
        assert op.mat.dtype == np.complex128 and not op.mat.flags.writeable
        np.testing.assert_array_equal(op.mat, expected)
        assert [b.dtype for _, b in op.blocks] == [np.float64, np.complex128]
        assert op.hermitian_defect() == np.abs(expected - expected.conj().T).max() == 10

    @pytest.mark.parametrize("states", [
        [[0, 1], [1, 2]],  # overlap, state 3 left out
        [[0, 1], [2]],  # state 3 left out
        [[1, 0], [2, 3]],  # not rising
    ])
    def test_blocks_partition_the_basis(self, states):
        basis = enumerate_basis(1, 3)
        with pytest.raises(ValueError, match="partition the basis of 4 states"):
            OperatorMatrix(basis, blocks=[(idx, np.eye(len(idx))) for idx in states])

    def test_block_shape_validated(self):
        with pytest.raises(ValueError, match="does not match its 2 states"):
            OperatorMatrix(enumerate_basis(1, 1), blocks=[([0, 1], np.eye(3))])

    def test_hermitian_flag(self):
        basis = enumerate_basis(1, 3)
        assert OperatorMatrix(basis, np.diag([1.0, 2, 3, 4])).is_hermitian
        assert not OperatorMatrix(basis, np.diag([1j, 0, 0, 0])).is_hermitian

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_hermitian_defect_matches_complex_formula(self, kind):
        # a perturbed Hermitian matrix, so the defect is not zero
        basis = enumerate_basis(2, 4)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((basis.size,) * 2)
        if kind == "complex":
            a = a + 1j * rng.standard_normal((basis.size,) * 2)
        mat = a + a.conj().T + 1e-13 * rng.standard_normal((basis.size,) * 2)
        op = OperatorMatrix(basis, mat)
        assert op.mat.imag.any() == (kind == "complex")
        defect = np.abs(op.mat - op.mat.conj().T).max()
        assert defect > 0
        assert op.hermitian_defect() == defect
