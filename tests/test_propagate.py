import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockprop.benchmarks import coupled_quartic, quartic_oscillator
from fockprop.fock import OperatorMatrix, enumerate_basis
from fockprop.galerkin import schrodinger_evolve
from fockprop.propagate import (
    ExactPropagator,
    SliceSchedule,
    _hermitian_blocks,
    chernoff_propagator,
    chernoff_slices,
    coherent_matrix_element,
    feynman_convergence_table,
    halving_ratios,
    oracle_elements,
)
from fockprop.quantize import (
    antiwick_quantize_function,
    antiwick_quantize_poly,
    gauss_hermite_rule,
    wick_quantize,
)
from fockprop.symbols import PolySymbol, conj_variable, variable


def zz(d=1):
    return conj_variable(d, 1) * variable(d, 1)


def slice_of(a, tau, basis, rule):
    [step] = chernoff_slices(a, [tau], basis, rule)
    return step


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

    @pytest.mark.parametrize("c,shift,dtype", [
        (0.3, 0.0, float),      # real, one sector per total quanta
        (0.3, 0.4, float),      # real, one sector
        (0.3j, 0.0, complex),   # complex Hermitian
    ])
    def test_apply_to_columns_matches_each_column(self, c, shift, dtype):
        z1, z2 = variable(2, 1), variable(2, 2)
        zs1, zs2 = conj_variable(2, 1), conj_variable(2, 2)
        symbol = zs1 * z1 + c * zs1 * z2 + np.conj(c) * zs2 * z1 + shift * (zs2 + z2)
        basis = enumerate_basis(2, 4)
        h = wick_quantize(basis, symbol)
        assert h.mat.dtype == dtype
        prop = ExactPropagator(h)
        rng = np.random.default_rng(5)
        states = rng.standard_normal((basis.size, 3)) + 1j * rng.standard_normal((basis.size, 3))
        columns = np.column_stack([prop.apply(states[:, k], 0.6) for k in range(3)])
        np.testing.assert_allclose(prop.apply(states, 0.6), columns, atol=1e-13)

    @pytest.mark.parametrize("name,columns", [
        ("two-sector-real", 1), ("complex-hermitian", 1), ("two-sector-real", 3),
    ])
    def test_apply_to_times_matches_each_time(self, name, columns):
        h = {
            # the quartic couples N to N +- 2 and N +- 4: two parity sectors
            "two-sector-real": lambda: wick_quantize(
                enumerate_basis(2, 6), coupled_quartic(modes=2)),
            "complex-hermitian": lambda: wick_quantize(
                enumerate_basis(1, 8),
                zz() + 1j * conj_variable(1, 1) - 1j * variable(1, 1)),
        }[name]()
        prop = ExactPropagator(h)
        assert len(prop.sectors) == (2 if name == "two-sector-real" else 1)
        rng = np.random.default_rng(7)
        shape = (h.basis.size, columns) if columns > 1 else (h.basis.size,)
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        times = np.array([0.3, -1.1, 0.0, 2.5])
        evolved = prop.apply(states, times)
        assert evolved.shape == (len(times),) + shape
        for k, t in enumerate(times):
            assert np.abs(evolved[k] - prop.apply(states, t)).max() <= 1e-14

    def test_scalar_time_keeps_state_shape(self):
        h = wick_quantize(enumerate_basis(2, 4), coupled_quartic(modes=2))
        prop = ExactPropagator(h)
        size = prop.basis.size
        assert prop.apply(np.ones(size), 0.4).shape == (size,)
        assert prop.apply(np.ones((size, 2)), 0.4).shape == (size, 2)
        assert prop.apply(np.ones(size), []).shape == (0, size)

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

    def test_single_real_sector_block_is_the_matrix(self):
        h = SECTOR_CASES["z-plus-zstar"][0]()
        [(states, block)] = _hermitian_blocks(h)
        assert h.mat.dtype == np.float64
        assert block is h.mat
        np.testing.assert_array_equal(states, np.arange(h.basis.size))

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


class TestOracleElementRoutes:
    """oracle_elements takes a sector and time by Lanczos or by eigh; both
    agree with the dense unitary, and an element ignores the other times."""

    @staticmethod
    def exact(h, alpha, beta, t):
        return coherent_matrix_element(ExactPropagator(h).operator(t), alpha, beta)

    @staticmethod
    def eigh_sizes(monkeypatch):
        # a Lanczos run decomposes only its small tridiagonal matrices
        sizes = []
        eigh = np.linalg.eigh

        def recording(a):
            sizes.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        return sizes

    @given(
        modes=st.sampled_from([1, 2]),
        size=st.integers(0, 3),
        g=st.sampled_from([1, 2, 3]),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        small=st.floats(0.01, 0.3),
        negative=st.floats(-3.0, -0.01),
        large=st.floats(5.0, 40.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_unitary(self, modes, size, g, real, seed, small,
                                   negative, large):
        # a random Hermitian matrix coupling only states of equal quanta
        # mod g; sectors of 70 to 160 states take small |t| by Lanczos
        M = (70, 100, 130, 160)[size] if modes == 1 else (11, 13, 15, 16)[size]
        basis = enumerate_basis(modes, M)
        n = basis.size
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        if not real:
            a = a + 1j * rng.standard_normal((n, n))
        quanta = basis.total_quanta
        a[(quanta[:, None] - quanta[None, :]) % g != 0] = 0
        h = OperatorMatrix(basis, (a + a.conj().T) / (2 * np.sqrt(n)))
        assert h.mat.dtype == (np.float64 if real else np.complex128)
        alpha, beta = rng.uniform(-0.4, 0.4, (2, modes, 2)) @ [1, 1j]
        times = [0.0, negative, small, large]
        for t, value in zip(times, oracle_elements(h, alpha, beta, times)):
            assert abs(value - self.exact(h, alpha, beta, t)) <= 1e-12

    def test_empty_times(self):
        h = SECTOR_CASES["coupled-quartic"][0]()
        assert oracle_elements(h, [0.1, 0, 0], [0.2, 0, 0], []) == []

    def test_beta_zero_on_a_sector(self, monkeypatch):
        # F_0 is the vacuum, so the odd sector adds nothing and is skipped;
        # the even sector (295 states) takes t = 0.3 by Lanczos
        h = wick_quantize(enumerate_basis(4, 8), coupled_quartic())
        alpha, beta = [0.35, 0.1j, 0, 0], [0, 0, 0, 0]
        sizes = self.eigh_sizes(monkeypatch)
        [value] = oracle_elements(h, alpha, beta, [0.3])
        assert max(sizes) < 100
        monkeypatch.undo()
        assert abs(value - self.exact(h, alpha, beta, 0.3)) <= 1e-12

    def test_breakdown_before_step_limit(self, monkeypatch):
        # three distinct eigenvalues: the Krylov space of any start has
        # dimension 3, and the recurrence stops there, exactly
        basis = enumerate_basis(1, 99)
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((100, 100)))
        lam = rng.choice([-1.0, 0.5, 2.0], 100)
        mat = (q * lam) @ q.T
        h = OperatorMatrix(basis, (mat + mat.T) / 2)
        alpha, beta = [0.6 + 0.2j], [0.4 - 0.3j]
        sizes = self.eigh_sizes(monkeypatch)
        values = oracle_elements(h, alpha, beta, [0.1, -0.1])
        assert sizes == [3]
        monkeypatch.undo()
        for t, value in zip([0.1, -0.1], values):
            assert abs(value - self.exact(h, alpha, beta, t)) <= 1e-12

    def test_rejects_non_hermitian(self):
        # the defect inside a sector block is the whole matrix's defect
        h = SECTOR_CASES["coupled-quartic"][0]()
        mat = h.mat.copy()
        mat[0, 4] += 1e-6  # states of 0 and 2 quanta: one parity sector
        bad = OperatorMatrix(h.basis, mat)
        message = f"matrix is not Hermitian: defect {bad.hermitian_defect():.3g}"
        with pytest.raises(ValueError, match=message):
            oracle_elements(bad, [0.1, 0, 0], [0.2, 0, 0], [0.3])
        with pytest.raises(ValueError, match=message):
            ExactPropagator(bad)

    def test_element_ignores_other_times(self, monkeypatch):
        # t = 0.3 takes both sectors by Lanczos; 1.7 takes the larger by eigh
        h = wick_quantize(enumerate_basis(4, 8), coupled_quartic())
        alpha, beta = [0.35, 0.1j, 0, 0], [0.25 + 0.15j, 0, -0.1, 0]
        sizes = self.eigh_sizes(monkeypatch)
        [single] = oracle_elements(h, alpha, beta, [0.3])
        assert max(sizes) < 100
        _, middle, _ = oracle_elements(h, alpha, beta, [0.05, 0.3, 1.7])
        assert 295 in sizes
        assert middle == single
        monkeypatch.undo()
        assert abs(single - self.exact(h, alpha, beta, 0.3)) <= 1e-12


class TestChernoffPropagator:
    def test_zero_time_single_slice_is_identity(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        sched = SliceSchedule(0.0, 1)
        prop = chernoff_propagator(slice_of(zz(), sched.tau, basis, rule), sched)
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
            sched = SliceSchedule(t, n)
            prop = chernoff_propagator(slice_of(zz(), sched.tau, basis, rule), sched)
            val = coherent_matrix_element(prop, alpha, beta)
            errors[n] = abs(val - closed)
        assert errors[64] <= errors[8] / 4

    def test_contractivity(self):
        basis = enumerate_basis(1, 10)
        rule = gauss_hermite_rule(1, 12)
        a = quartic_oscillator()
        for n in (1, 8, 64):
            sched = SliceSchedule(0.5, n)
            prop = chernoff_propagator(slice_of(a, sched.tau, basis, rule), sched)
            assert np.linalg.norm(prop.mat, ord=2) <= 1 + 1e-6

    def test_step_adjoint_reverses_time(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        a = quartic_oscillator()
        fwd, bwd = chernoff_slices(a, [0.05, -0.05], basis, rule)
        assert np.abs(fwd.mat.conj().T - bwd.mat).max() <= 1e-8

    def test_rejects_complex_symbol(self):
        basis = enumerate_basis(1, 4)
        rule = gauss_hermite_rule(1, 6)
        with pytest.raises(ValueError, match="real"):
            chernoff_slices(variable(1, 1), [0.05], basis, rule)

    def test_rejects_inadequate_rule(self):
        basis = enumerate_basis(1, 10)
        rule = gauss_hermite_rule(1, 6)
        with pytest.raises(ValueError, match="order"):
            chernoff_slices(zz(), [0.05], basis, rule)

    def test_step_rejects_inadequate_rule(self):
        # refused before the quadrature, so a table pays none for it
        with pytest.raises(ValueError, match="order"):
            chernoff_slices(zz(), [0.1], enumerate_basis(1, 10), gauss_hermite_rule(1, 6))


@pytest.fixture
def grid_evaluations(monkeypatch):
    """Counts PolySymbol.evaluate_grid calls."""
    calls = []
    original = PolySymbol.evaluate_grid

    def counting(self, mode_points):
        calls.append(1)
        return original(self, mode_points)

    monkeypatch.setattr(PolySymbol, "evaluate_grid", counting)
    return calls


class TestChernoffSlices:
    def test_each_slice_quantizes_its_phase(self):
        basis = enumerate_basis(2, 5)
        rule = gauss_hermite_rule(2, 7)
        a = coupled_quartic(modes=2)
        taus = [0.05, -0.2, 0.0, 0.7]
        values = a.evaluate_grid(rule.mode_nodes).real
        for tau, step in zip(taus, chernoff_slices(a, taus, basis, rule), strict=True):
            expected = antiwick_quantize_function(basis, np.exp(-1j * tau * values), rule)
            assert np.abs(step.mat - expected.mat).max() <= 4.5e-16

    def test_evaluates_symbol_once(self, grid_evaluations):
        basis = enumerate_basis(1, 6)
        rule = gauss_hermite_rule(1, 8)
        slices = chernoff_slices(quartic_oscillator(), [0.1, 0.2, 0.3], basis, rule)
        assert len(grid_evaluations) == 1
        assert len(list(slices)) == 3
        assert len(grid_evaluations) == 1

    def test_phase_bound_taken_at_largest_tau(self, grid_evaluations):
        # only the second slice's phase leaves the doubles; refused before
        # the symbol is evaluated
        basis = enumerate_basis(1, 4)
        rule = gauss_hermite_rule(1, 6)
        with pytest.raises(ValueError, match="past the double range"):
            chernoff_slices(zz(), [0.1, -1e308], basis, rule)
        assert grid_evaluations == []

    @pytest.mark.parametrize("Ns", [[4], [4, 8, 16, 32]])
    def test_table_evaluates_symbol_once(self, grid_evaluations, Ns):
        table = feynman_convergence_table(
            quartic_oscillator(), 0.4, Ns, [0.2], [0.1 + 0.1j],
            enumerate_basis(1, 8), gauss_hermite_rule(1, 10),
        )
        assert len(table) == len(Ns)
        assert len(grid_evaluations) == 1

    @pytest.mark.parametrize("t_grid", [[0.3], [0.0, 0.1, -0.2, 0.3, 0.4]])
    def test_evolve_evaluates_symbol_once(self, grid_evaluations, t_grid):
        basis = enumerate_basis(2, 4)
        psi0 = np.zeros(basis.size, dtype=complex)
        psi0[0] = 1.0
        result = schrodinger_evolve(
            coupled_quartic(modes=2), 2, psi0, t_grid, 4, method="chernoff", slices=4
        )
        assert len(result.states) == len(t_grid)
        assert len(grid_evaluations) == 1


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

    def test_table_carries_reference_and_slice_norm(self):
        basis = enumerate_basis(1, 8)
        rule = gauss_hermite_rule(1, 10)
        a, t, Ns = quartic_oscillator(), 0.4, [4, 8]
        alpha, beta = np.array([0.2 + 0j]), np.array([0.1 + 0.1j])
        table = feynman_convergence_table(a, t, Ns, alpha, beta, basis, rule)
        assert table.reference == oracle_elements(
            antiwick_quantize_poly(basis, a), alpha, beta, [t]
        )[0]
        assert table.slice_norm == np.linalg.norm(
            slice_of(a, t / Ns[-1], basis, rule).mat, 2
        )
        assert [r.abs_error for r in table] == [
            abs(r.value - table.reference) for r in table
        ]

    def test_empty_table_has_no_reference(self):
        table = feynman_convergence_table(
            zz(), 0.5, [], [0.1], [0.1], enumerate_basis(1, 6), gauss_hermite_rule(1, 8)
        )
        assert table.reference is None and table.slice_norm is None

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
