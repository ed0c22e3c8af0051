import numpy as np
import pytest

import fockprop.galerkin
from fockprop.benchmarks import coupled_quartic, standard_configs
from fockprop.cli import run_config
from fockprop.fock import coherent_vector, enumerate_basis
from fockprop.galerkin import (
    Flag,
    fit_rate,
    galerkin_sweeps,
    reduce_hamiltonian,
    schrodinger_evolve,
)
from fockprop.propagate import ExactPropagator, coherent_matrix_element
from fockprop.quantize import wick_quantize
from fockprop.symbols import conj_variable, variable


def zz(d, i=1):
    return conj_variable(d, i) * variable(d, i)


class TestFlag:
    def test_valid(self):
        flag = Flag(d_max=4, ns=(1, 2, 3))
        assert flag.ns == (1, 2, 3)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Flag(d_max=4, ns=(1, 1, 2))

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            Flag(d_max=2, ns=(1, 3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Flag(d_max=2, ns=())


class TestReduceHamiltonian:
    def test_full_reduction_is_identity(self):
        w = coupled_quartic(modes=2)
        basis = enumerate_basis(2, 5)
        np.testing.assert_array_equal(
            reduce_hamiltonian(w, 2, basis).mat, wick_quantize(basis, w).mat
        )

    def test_mode_one_symbol_insensitive_to_n(self):
        # a symbol touching only mode 1 reduces to the same operator on the
        # embedded block for every n
        w = zz(3) + 0.3 * (zz(3) ** 2)
        M = 5
        h1 = reduce_hamiltonian(w, 1, enumerate_basis(1, M)).mat
        for n in (2, 3):
            basis_n = enumerate_basis(n, M)
            h_n = reduce_hamiltonian(w, n, basis_n).mat
            embed = [
                basis_n.index((q,) + (0,) * (n - 1)) for q in range(M + 1)
            ]
            np.testing.assert_allclose(h_n[np.ix_(embed, embed)], h1, atol=0)

    def test_cross_term_example(self):
        w = (
            zz(2, 1)
            + zz(2, 2)
            + 0.5 * (conj_variable(2, 1) * variable(2, 2)
                     + conj_variable(2, 2) * variable(2, 1))
        )
        basis1 = enumerate_basis(1, 4)
        np.testing.assert_allclose(
            reduce_hamiltonian(w, 1, basis1).mat,
            np.diag(np.arange(5.0)),
            atol=0,
        )

    def test_projector_identity_at_probes(self):
        # reduced elements at embedded points equal full elements at the
        # projected points
        w = coupled_quartic(modes=3, coupling=0.05)
        M = 8
        basis_full = enumerate_basis(3, M)
        h_full = wick_quantize(basis_full, w)
        alpha = np.array([0.3 + 0.1j, 0.2, -0.1j])
        beta = np.array([0.1, -0.2 + 0.2j, 0.25])
        for n in (1, 2):
            basis_n = enumerate_basis(n, M)
            h_n = reduce_hamiltonian(w, n, basis_n)
            a_proj, b_proj = alpha.copy(), beta.copy()
            a_proj[n:] = 0.0
            b_proj[n:] = 0.0
            lhs = coherent_matrix_element(h_n, alpha[:n], beta[:n])
            rhs = coherent_matrix_element(h_full, a_proj, b_proj)
            assert abs(lhs - rhs) <= 1e-8

    def test_antiwick_route(self):
        basis = enumerate_basis(1, 4)
        got = reduce_hamiltonian(zz(2), 1, basis, route="antiwick").mat
        np.testing.assert_allclose(got, np.diag([1.0, 2, 3, 4, 5]), atol=1e-13)

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            reduce_hamiltonian(zz(2), 1, enumerate_basis(2, 3))


class TestRateFit:
    def test_recovers_power_law(self):
        samples = [(n, 2.0 * n**-1.2) for n in (1, 2, 3, 4)]
        fit = fit_rate(samples)
        assert fit.slope == pytest.approx(-1.2, abs=1e-10)

    def test_exact_when_all_below_floor(self):
        fit = fit_rate([(1, 0.0), (2, 1e-14), (3, 0.0)])
        assert fit.exact and fit.slope is None

    def test_needs_three_points(self):
        fit = fit_rate([(1, 0.1), (2, 0.05)])
        assert not fit.exact and fit.slope is None


class TestGalerkinSweep:
    def test_mode_one_symbol_is_exact(self):
        w = zz(3) + 0.1 * (zz(3) ** 2)
        flag = Flag(d_max=3, ns=(1, 2))
        [(records, fit)] = galerkin_sweeps(
            w, flag, [0.4], [0.3, 0, 0], [0.2, 0, 0], max_quanta=6
        )
        assert all(r.abs_error <= 1e-10 for r in records)
        assert fit.exact

    def test_benchmark_errors_decrease(self):
        w = coupled_quartic()
        flag = Flag(d_max=4, ns=(1, 2, 3))
        alpha = np.array([0.35, 0, 0, 0], dtype=complex)
        beta = np.array([0.25 + 0.15j, 0, 0, 0])
        [(records, fit)] = galerkin_sweeps(w, flag, [0.3], alpha, beta, max_quanta=6)
        errors = [r.abs_error for r in records]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        assert fit.slope is not None and fit.slope <= -0.8

    def test_budget_guard(self):
        w = coupled_quartic()
        flag = Flag(d_max=4, ns=(1, 2, 3))
        with pytest.raises(ValueError, match="exceeds"):
            galerkin_sweeps(w, flag, [0.1], [0.1] * 4, [0.1] * 4, max_quanta=60)


class TestGalerkinSweeps:
    def test_members_match_dense_unitary_elements(self):
        w = coupled_quartic()
        flag = Flag(d_max=4, ns=(1, 2, 3))
        alpha = np.array([0.35, 0.1j, 0, 0])
        beta = np.array([0.25 + 0.15j, 0, -0.1, 0])
        times = [0.05, 0.3, 0.1]
        M = 7
        sweeps = galerkin_sweeps(w, flag, times, alpha, beta, max_quanta=M)
        assert len(sweeps) == len(times)

        def element(n, t):
            h_n = reduce_hamiltonian(w, n, enumerate_basis(n, M))
            return coherent_matrix_element(
                ExactPropagator(h_n).operator(t), alpha[:n], beta[:n]
            )

        for t, (records, fit) in zip(times, sweeps):
            reference = element(4, t)
            assert [r.parameter for r in records] == list(flag.ns)
            for r in records:
                expected = element(r.parameter, t)
                assert abs(r.value - expected) <= 1e-12
                assert abs(r.abs_error - abs(expected - reference)) <= 1e-12
            [(single, single_fit)] = galerkin_sweeps(w, flag, [t], alpha, beta, M)
            assert [r.value for r in single] == [r.value for r in records]
            assert single_fit == fit

    def test_tail_checked_on_projected_probes(self):
        flag = Flag(d_max=2, ns=(1,))
        with pytest.raises(ValueError, match="max_quanta >="):
            galerkin_sweeps(zz(2), flag, [0.1, 0.2], [2.0, 0], [0.1, 0], 6)

    def test_cli_sweep_builds_each_hamiltonian_once(self, tmp_path, monkeypatch):
        cfg = dict(standard_configs()["galerkin_sweep"], M=6)
        assert cfg["t_scaling"]
        calls = []
        original = fockprop.galerkin.reduce_hamiltonian

        def counting(w, n, basis_n, route="wick"):
            calls.append(n)
            return original(w, n, basis_n, route=route)

        monkeypatch.setattr(fockprop.galerkin, "reduce_hamiltonian", counting)
        run_config(cfg, tmp_path)
        assert sorted(calls) == sorted(cfg["flag"] + [cfg["d"]])


class TestSchrodingerEvolve:
    def test_chernoff_evolve_builds_no_hamiltonian(self, tmp_path, monkeypatch):
        # the sliced method quantizes exp(-i f tau) and never reads H_n
        cfg = dict(standard_configs()["evolve"], M=6, method="chernoff", slices=4)
        calls = []
        original = fockprop.galerkin.reduce_hamiltonian

        def counting(w, n, basis_n, route="wick"):
            calls.append(n)
            return original(w, n, basis_n, route=route)

        monkeypatch.setattr(fockprop.galerkin, "reduce_hamiltonian", counting)
        run_config(cfg, tmp_path)
        assert calls == []

    def test_oracle_matches_per_time_apply(self):
        # all times go through one apply call; t == 0 is the initial state
        M, w = 6, coupled_quartic(modes=2)
        basis = enumerate_basis(2, M)
        comp = coherent_vector(basis, [0.3, 0.2j]).components
        psi0 = comp / np.linalg.norm(comp)
        t_grid = [0.0, 0.4, -0.9, 0.0, 1.6]
        result = schrodinger_evolve(w, 2, psi0, t_grid, M)
        prop = ExactPropagator(wick_quantize(basis, w))
        for t, state in zip(t_grid, result.states, strict=True):
            if t == 0.0:
                np.testing.assert_array_equal(state, psi0)
            else:
                assert np.abs(state - prop.apply(psi0, t)).max() <= 1e-14

    def test_vacuum_stationary_under_number_operator(self):
        basis = enumerate_basis(1, 8)
        psi0 = np.zeros(basis.size, dtype=complex)
        psi0[0] = 1.0
        result = schrodinger_evolve(zz(1), 1, psi0, [0.0, 0.5, 1.0], 8)
        for state in result.states:
            # eigenvector evolution: phase only (zero phase for the vacuum
            # under the normal route)
            assert abs(abs(np.vdot(psi0, state)) - 1.0) <= 1e-12

    def test_coherent_state_stays_coherent_under_quadratic(self):
        M, a0, t = 20, 0.5, 0.8
        basis = enumerate_basis(1, M)
        comp = coherent_vector(basis, [a0]).components
        psi0 = comp / np.linalg.norm(comp)
        result = schrodinger_evolve(zz(1), 1, psi0, [t], M)
        rotated = coherent_vector(basis, [a0 * np.exp(-1j * t)]).components
        rotated = rotated / np.linalg.norm(rotated)
        overlap = abs(np.vdot(rotated, result.states[0]))
        assert overlap >= 1 - 1e-6

    def test_zero_time_returns_initial(self):
        basis = enumerate_basis(1, 5)
        psi0 = np.zeros(basis.size, dtype=complex)
        psi0[2] = 1.0
        result = schrodinger_evolve(zz(1), 1, psi0, [0.0], 5)
        np.testing.assert_array_equal(result.states[0], psi0)

    def test_norm_conservation_oracle(self):
        M = 10
        basis = enumerate_basis(1, M)
        rng = np.random.default_rng(5)
        psi0 = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        psi0 /= np.linalg.norm(psi0)
        w = zz(1) + 0.1 * (conj_variable(1, 1) + variable(1, 1)) ** 2
        result = schrodinger_evolve(w * 0.5 + w.adjoint() * 0.5, 1, psi0,
                                    [0.3, 0.9, 1.5], M)
        assert max(result.norm_defects) <= 1e-8

    def test_chernoff_method_norm_drift(self):
        M = 8
        basis = enumerate_basis(1, M)
        comp = coherent_vector(basis, [0.3]).components
        psi0 = comp / np.linalg.norm(comp)
        result = schrodinger_evolve(
            zz(1), 1, psi0, [0.5], M, method="chernoff", slices=256
        )
        assert max(result.norm_defects) <= 1e-3

    def test_chernoff_order_zero_is_refused(self):
        # 0 is an order, not a request for the default M + 2
        basis = enumerate_basis(1, 4)
        psi0 = np.zeros(basis.size, dtype=complex)
        psi0[0] = 1.0
        with pytest.raises(ValueError, match="order must be >= 1"):
            schrodinger_evolve(zz(1), 1, psi0, [0.1], 4, order=0, method="chernoff")

    def test_rejects_unnormalized_initial(self):
        basis = enumerate_basis(1, 4)
        with pytest.raises(ValueError, match="norm"):
            schrodinger_evolve(
                zz(1), 1, np.ones(basis.size, dtype=complex), [0.1], 4
            )

    def test_rejects_norm_off_by_1e_7(self):
        # the tolerance validate applies to a start vector, 1e-8, not 1e-6
        basis = enumerate_basis(1, 4)
        psi0 = np.zeros(basis.size, dtype=complex)
        psi0[0] = 1 + 1e-7
        with pytest.raises(ValueError, match="is not 1 within 1e-8"):
            schrodinger_evolve(zz(1), 1, psi0, [0.1], 4)

    def test_reduces_before_evolving(self):
        # three-mode symbol, one-mode evolution
        M = 6
        basis = enumerate_basis(1, M)
        psi0 = np.zeros(basis.size, dtype=complex)
        psi0[1] = 1.0
        w = coupled_quartic(modes=3, coupling=0.0)
        result = schrodinger_evolve(w, 1, psi0, [0.7], M)
        # frequency of mode 1 is 1.0: number state picks up phase e^{-it}
        assert abs(result.states[0][1] - np.exp(-1j * 0.7)) <= 1e-10
