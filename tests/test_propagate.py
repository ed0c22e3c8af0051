import numpy as np
import pytest

from fockprop.benchmarks import coupled_quartic, quartic_oscillator
from fockprop.fock import OperatorMatrix, enumerate_basis
from fockprop.propagate import (
    ExactPropagator,
    SliceSchedule,
    chernoff_propagator,
    chernoff_step,
    coherent_matrix_element,
    feynman_convergence_table,
    halving_ratios,
    oracle_elements,
    records_to_csv,
    records_to_json,
)
from fockprop.quantize import antiwick_quantize_poly, gauss_hermite_rule, wick_quantize
from fockprop.symbols import PolySymbol, conj_variable, variable


def zz(d=1):
    return conj_variable(d, 1) * variable(d, 1)


class TestExactEvolution:
    def test_zero_time_is_identity(self):
        basis = enumerate_basis(1, 5)
        h = wick_quantize(basis, zz())
        np.testing.assert_allclose(
            ExactPropagator(h).operator(0.0).mat, np.eye(basis.size), atol=1e-12
        )

    def test_number_operator_phases(self):
        basis = enumerate_basis(1, 5)
        h = wick_quantize(basis, zz())
        t = 0.9
        expected = np.diag([np.exp(-1j * n * t) for n in range(6)])
        np.testing.assert_allclose(
            ExactPropagator(h).operator(t).mat, expected, atol=1e-12
        )

    def test_group_law(self):
        basis = enumerate_basis(1, 8)
        h = wick_quantize(basis, zz() + 0.2 * (zz() ** 2))
        prop = ExactPropagator(h)
        u1, u2 = prop.operator(0.4).mat, prop.operator(0.7).mat
        u12 = prop.operator(1.1).mat
        assert np.abs(u1 @ u2 - u12).max() <= 1e-9

    def test_unitarity(self):
        basis = enumerate_basis(2, 6)
        h = wick_quantize(basis, zz(2) + conj_variable(2, 2) * variable(2, 2))
        u = ExactPropagator(h).operator(1.7).mat
        assert np.abs(u.conj().T @ u - np.eye(basis.size)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        basis = enumerate_basis(1, 3)
        with pytest.raises(ValueError, match="Hermitian"):
            ExactPropagator(OperatorMatrix(basis, np.diag([1j, 0, 0, 0])))

    def test_apply_matches_operator(self):
        basis = enumerate_basis(1, 6)
        h = wick_quantize(basis, zz())
        prop = ExactPropagator(h)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        np.testing.assert_allclose(
            prop.apply(psi, 0.8), prop.operator(0.8).mat @ psi, atol=1e-12
        )


def complex_oracle(h, t):
    """exp(-i h t) from a complex Hermitian eigh of h.mat, the reference path."""
    lam, v = np.linalg.eigh(h.mat)
    return (v * np.exp(-1j * lam * t)) @ v.conj().T


REAL_HAMILTONIANS = {
    "wick-coupled-quartic": lambda: wick_quantize(
        enumerate_basis(3, 6), coupled_quartic(modes=3)),
    "antiwick-quartic": lambda: antiwick_quantize_poly(
        enumerate_basis(1, 10), quartic_oscillator()),
}


class TestRealArithmetic:
    @pytest.mark.parametrize("name", sorted(REAL_HAMILTONIANS))
    def test_real_h_has_real_eigenvectors(self, name):
        h = REAL_HAMILTONIANS[name]()
        assert not h.mat.imag.any()
        assert all(v.dtype == np.float64 for _, _, v in ExactPropagator(h).sectors)

    @pytest.mark.parametrize("name", sorted(REAL_HAMILTONIANS))
    def test_real_h_matches_complex_reference(self, name):
        self.check_against_reference(REAL_HAMILTONIANS[name]())

    def test_complex_hermitian_h_keeps_complex_path(self):
        # i z* - i z is real-valued, but its Wick matrix has imaginary entries
        a = zz() + 1j * conj_variable(1, 1) - 1j * variable(1, 1)
        h = wick_quantize(enumerate_basis(1, 8), a)
        assert h.mat.imag.any()
        assert all(v.dtype == np.complex128 for _, _, v in ExactPropagator(h).sectors)
        self.check_against_reference(h)

    @staticmethod
    def check_against_reference(h):
        prop = ExactPropagator(h)
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(h.basis.size) + 1j * rng.standard_normal(h.basis.size)
        psi /= np.linalg.norm(psi)
        for t in (0.0, 0.3, 1.7):
            ref = complex_oracle(h, t)
            assert np.abs(prop.operator(t).mat - ref).max() <= 1e-12
            assert np.abs(prop.apply(psi, t) - ref @ psi).max() <= 1e-12


def number_conserving(d=2):
    """Hopping plus a quartic number term: every term keeps the total quanta."""
    z1, z2 = variable(d, 1), variable(d, 2)
    c1, c2 = conj_variable(d, 1), conj_variable(d, 2)
    return c1 * z1 + 0.5 * c2 * z2 + 0.3 * (c1 * z2 + c2 * z1) + 0.1 * (c1 * z1) ** 2


# name -> (Hamiltonian, sector count); g is the gcd of the quanta changes
SECTOR_CASES = {
    # g = 2: the two parities
    "coupled-quartic": (
        lambda: wick_quantize(enumerate_basis(3, 6), coupled_quartic(modes=3)), 2),
    # g = 0: one sector per total quanta 0..M
    "number-conserving": (
        lambda: wick_quantize(enumerate_basis(2, 7), number_conserving()), 8),
    # g = 1, real and complex path
    "z-plus-zstar": (
        lambda: wick_quantize(
            enumerate_basis(1, 8), zz() + conj_variable(1, 1) + variable(1, 1)), 1),
    "i-zstar-minus-i-z": (
        lambda: wick_quantize(
            enumerate_basis(1, 8), 1j * conj_variable(1, 1) - 1j * variable(1, 1)), 1),
    # g = 4: N mod 4
    "z4": (
        lambda: wick_quantize(
            enumerate_basis(1, 10),
            zz() + variable(1, 1) ** 4 + conj_variable(1, 1) ** 4), 4),
    # no nonzero entry: g = 0 again
    "zero": (
        lambda: OperatorMatrix(enumerate_basis(2, 3), np.zeros((10, 10))), 4),
}


class TestSectors:
    @pytest.mark.parametrize("name", sorted(SECTOR_CASES))
    def test_matches_one_block_oracle(self, name):
        build, count = SECTOR_CASES[name]
        h = build()
        prop = ExactPropagator(h)
        assert len(prop.sectors) == count
        # the sectors partition the basis
        states = np.sort(np.concatenate([idx for idx, _, _ in prop.sectors]))
        np.testing.assert_array_equal(states, np.arange(h.basis.size))
        TestRealArithmetic.check_against_reference(h)

    def test_path_choice_is_per_matrix(self):
        real = ExactPropagator(SECTOR_CASES["z-plus-zstar"][0]())
        cplx = ExactPropagator(SECTOR_CASES["i-zstar-minus-i-z"][0]())
        assert [v.dtype for _, _, v in real.sectors] == [np.float64]
        assert [v.dtype for _, _, v in cplx.sectors] == [np.complex128]


class TestOracleElements:
    @pytest.mark.parametrize("name", ["coupled-quartic", "i-zstar-minus-i-z"])
    def test_match_dense_unitary_elements(self, name):
        # a real Hamiltonian of two parity sectors, and a complex Hermitian one
        h = SECTOR_CASES[name][0]()
        d = h.basis.modes
        alpha = np.array([0.3 + 0.1j] + [0.1j] * (d - 1))
        beta = np.array([0.2 - 0.1j] + [-0.1] * (d - 1))
        times = [0.0, 0.3, 1.7]
        prop = ExactPropagator(h)
        got = oracle_elements(h, alpha, beta, times)
        for t, value in zip(times, got):
            expected = coherent_matrix_element(prop.operator(t), alpha, beta)
            assert abs(value - expected) <= 1e-12


class TestChernoffPropagator:
    def test_zero_time_single_slice_is_identity(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        prop = chernoff_propagator(zz(), SliceSchedule(0.0, 1), basis, rule)
        assert np.abs(prop.mat - np.eye(basis.size)).max() <= 1e-8

    def test_quadratic_matches_closed_form(self):
        # antinormal z*z generates the shifted number operator a^dag a + 1,
        # whose coherent element is exp(-it) exp(a* e^{-it} b)
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        t = 0.5
        alpha, beta = np.array([0.3 + 0j]), np.array([0.2 + 0.1j])
        closed = np.exp(-1j * t) * np.exp(np.conj(alpha[0]) * np.exp(-1j * t) * beta[0])
        errors = {}
        for n in (8, 64):
            prop = chernoff_propagator(zz(), SliceSchedule(t, n), basis, rule)
            val = coherent_matrix_element(prop, alpha, beta)
            errors[n] = abs(val - closed)
        assert errors[64] <= errors[8] / 4

    def test_contractivity(self):
        basis = enumerate_basis(1, 10)
        rule = gauss_hermite_rule(1, 12)
        a = quartic_oscillator()
        for n in (1, 8, 64):
            prop = chernoff_propagator(a, SliceSchedule(0.5, n), basis, rule)
            assert np.linalg.norm(prop.mat, ord=2) <= 1 + 1e-6

    def test_step_adjoint_reverses_time(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        a = quartic_oscillator()
        fwd = chernoff_step(a, 0.05, basis, rule)
        bwd = chernoff_step(a, -0.05, basis, rule)
        assert np.abs(fwd.mat.conj().T - bwd.mat).max() <= 1e-8

    def test_rejects_complex_symbol(self):
        basis = enumerate_basis(1, 4)
        rule = gauss_hermite_rule(1, 6)
        with pytest.raises(ValueError, match="real"):
            chernoff_propagator(variable(1, 1), SliceSchedule(0.1, 2), basis, rule)

    def test_rejects_inadequate_rule(self):
        basis = enumerate_basis(1, 10)
        rule = gauss_hermite_rule(1, 6)
        with pytest.raises(ValueError, match="order"):
            chernoff_propagator(zz(), SliceSchedule(0.1, 2), basis, rule)


class TestSliceSchedule:
    def test_tau(self):
        sched = SliceSchedule(1.0, 4)
        assert sched.tau == 0.25
        assert sched.tau * sched.slices == sched.total_time

    def test_rejects_bad_slices(self):
        with pytest.raises(ValueError):
            SliceSchedule(1.0, 0)


class TestCoherentMatrixElement:
    def test_identity_at_origin(self):
        basis = enumerate_basis(1, 5)
        ident = OperatorMatrix(basis, np.eye(basis.size))
        assert coherent_matrix_element(ident, [0.0], [0.0]) == pytest.approx(1.0)

    def test_identity_gives_overlap_exponential(self):
        basis = enumerate_basis(1, 25)
        ident = OperatorMatrix(basis, np.eye(basis.size))
        alpha, beta = [1.2 + 0.5j], [0.9 - 1.0j]
        got = coherent_matrix_element(ident, alpha, beta)
        expected = np.exp(np.conj(alpha[0]) * beta[0])
        assert abs(got - expected) <= 1e-10

    def test_creator_element(self):
        basis = enumerate_basis(1, 25)
        op = wick_quantize(basis, conj_variable(1, 1))
        alpha, beta = [0.7 + 0.1j], [0.4]
        got = coherent_matrix_element(op, alpha, beta)
        expected = np.conj(alpha[0]) * np.exp(np.conj(alpha[0]) * beta[0])
        assert abs(got - expected) <= 1e-9

    def test_tail_violation_raises_with_hint(self):
        basis = enumerate_basis(1, 6)
        ident = OperatorMatrix(basis, np.eye(basis.size))
        with pytest.raises(ValueError, match="max_quanta >="):
            coherent_matrix_element(ident, [2.0], [2.0])


class TestConvergenceTable:
    def test_constant_symbol_is_pure_phase(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        c, t = 0.7, 0.9
        alpha, beta = np.array([0.3 + 0j]), np.array([0.1 - 0.2j])
        records = feynman_convergence_table(
            PolySymbol.constant(1, c), t, [1, 4, 16], alpha, beta, basis, rule
        )
        expected = np.exp(-1j * c * t) * np.exp(np.conj(alpha[0]) * beta[0])
        for r in records:
            assert abs(r.value - expected) <= 1e-6
            assert r.abs_error <= 1e-6

    def test_quartic_errors_decrease(self):
        basis = enumerate_basis(1, 10)
        rule = gauss_hermite_rule(1, 12)
        records = feynman_convergence_table(
            quartic_oscillator(), 0.5, [8, 16, 32, 64],
            np.array([0.3 + 0j]), np.array([0.2 + 0.1j]), basis, rule,
        )
        errors = [r.abs_error for r in records]
        assert all(e2 <= 1.1 * e1 for e1, e2 in zip(errors, errors[1:]))

    def test_empty_list(self):
        basis = enumerate_basis(1, 6)
        rule = gauss_hermite_rule(1, 8)
        assert feynman_convergence_table(
            zz(), 0.5, [], [0.1], [0.1], basis, rule
        ) == []

    def test_rejects_non_ascending(self):
        basis = enumerate_basis(1, 6)
        rule = gauss_hermite_rule(1, 8)
        with pytest.raises(ValueError, match="ascending"):
            feynman_convergence_table(
                zz(), 0.5, [8, 4], [0.1], [0.1], basis, rule
            )

    def test_halving_ratios_pairs_only_doublings(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        records = feynman_convergence_table(
            quartic_oscillator(), 0.4, [8, 16, 24, 48],
            np.array([0.2 + 0j]), np.array([0.1 + 0.1j]), basis, rule,
        )
        ratios = halving_ratios(records)
        assert [n for n, _ in ratios] == [8, 24]

    def test_csv_and_json_writers(self, tmp_path):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        records = feynman_convergence_table(
            zz(), 0.3, [2, 4], np.array([0.2 + 0j]), np.array([0.1 + 0j]),
            basis, rule,
        )
        path = tmp_path / "table.csv"
        records_to_csv(records, path)
        assert path.read_text().splitlines()[0] == "N,re,im,abs_error"

        payload = records_to_json(records, {"d": 1})
        assert payload["metadata"] == {"d": 1}
        assert "seconds" not in payload["records"][0]
