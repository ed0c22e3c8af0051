"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts the same condition, including the runtime budget.
"""

import time

import numpy as np

from fockprop.benchmarks import coupled_quartic, quartic_oscillator, standard_configs
from fockprop.cli import run_config
from fockprop.fock import (
    coherent_overlap,
    coherent_vector,
    enumerate_basis,
)
from fockprop.galerkin import Flag, galerkin_sweeps
from fockprop.propagate import (
    ExactPropagator,
    SliceSchedule,
    chernoff_propagator,
    coherent_matrix_element,
    feynman_convergence_table,
    halving_ratios,
)
from fockprop.quantize import (
    antiwick_quantize_function,
    antiwick_quantize_poly,
    gauss_hermite_rule,
    wick_quantize,
)
from fockprop.symbols import (
    PhaseGrid,
    antinormal_from_wick,
    infimum_estimate,
    max_coeff_difference,
    random_symbol,
    wick_from_antinormal,
)


def report(number: int, label: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {verdict} - {label}: {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def test_criterion_1_ccr_suite():
    start = time.perf_counter()
    from fockprop.fock import ccr_defect

    worst = 0.0
    for d in (1, 2, 3):
        for M in (4, 8, 12):
            basis = enumerate_basis(d, M)
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    worst = max(worst, ccr_defect(basis, i, j).protected)
    elapsed = time.perf_counter() - start
    report(
        1, "CCR protected defects",
        worst <= 1e-12 and elapsed < 5.0,
        f"max defect {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_symbol_conversion_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    degree_law_ok = True
    for _ in range(200):
        modes = int(rng.integers(1, 4))
        s = random_symbol(rng, modes, max_degree=8, n_terms=12)
        w = wick_from_antinormal(s)
        worst = max(worst, max_coeff_difference(antinormal_from_wick(w), s))
        diff = w - s
        if w.degree != s.degree:
            degree_law_ok = False
        if not diff.is_zero() and diff.degree > s.degree - 2:
            degree_law_ok = False
    elapsed = time.perf_counter() - start
    report(
        2, "symbol conversion round-trip",
        worst <= 1e-12 and degree_law_ok and elapsed < 10.0,
        f"max deviation {worst:.3e} (tol 1e-12), degree law "
        f"{'held' if degree_law_ok else 'violated'}, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_antiwick_lower_bound():
    start = time.perf_counter()
    d, M = 1, 10
    Q = M + 2
    basis = enumerate_basis(d, M)
    rule = gauss_hermite_rule(d, Q)
    grid = PhaseGrid(radius=6.0)
    rng = np.random.default_rng(3001)
    worst = np.inf
    for _ in range(50):
        s = random_symbol(rng, d, max_degree=4, n_terms=6, real=True)
        values = s.evaluate_grid(rule.mode_nodes).real
        shift = min(infimum_estimate(s, grid), float(values.min()))
        op = antiwick_quantize_function(basis, values - shift, rule)
        worst = min(worst, float(np.linalg.eigvalsh(op.mat).min()))
    elapsed = time.perf_counter() - start
    report(
        3, "anti-Wick lower bound",
        worst >= -1e-8 and elapsed < 60.0,
        f"min eigenvalue {worst:.3e} (tol -1e-8), {elapsed:.2f}s (< 60s)",
    )


def test_criterion_4_reproducing_kernel():
    worst_resolution = 0.0
    for M in range(1, 13):
        basis = enumerate_basis(1, M)
        rule = gauss_hermite_rule(1, M + 2)
        op = antiwick_quantize_function(basis, np.ones(rule.count), rule)
        worst_resolution = max(
            worst_resolution, float(np.abs(op.mat - np.eye(basis.size)).max())
        )

    basis25 = enumerate_basis(1, 25)
    rng = np.random.default_rng(41)
    worst_overlap = 0.0
    for _ in range(25):
        a = rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.uniform())
        b = rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.uniform())
        got = coherent_overlap(
            coherent_vector(basis25, [a]), coherent_vector(basis25, [b])
        )
        worst_overlap = max(worst_overlap, abs(got - np.exp(np.conj(a) * b)))
    for a, b in [(1.5, 1.5), (1.5, -1.5j)]:
        got = coherent_overlap(
            coherent_vector(basis25, [a]), coherent_vector(basis25, [b])
        )
        worst_overlap = max(worst_overlap, abs(got - np.exp(np.conj(a) * b)))
    report(
        4, "reproducing kernel",
        worst_resolution <= 1e-8 and worst_overlap <= 1e-10,
        f"resolution defect {worst_resolution:.3e} (tol 1e-8), "
        f"overlap error {worst_overlap:.3e} (tol 1e-10)",
    )


def test_criterion_5_chernoff_convergence():
    start = time.perf_counter()
    alpha, beta = np.array([0.3 + 0j]), np.array([0.2 + 0.1j])
    t = 0.5

    # quadratic case against the closed form
    basis8 = enumerate_basis(1, 8)
    rule8 = gauss_hermite_rule(1, 10)
    from fockprop.symbols import conj_variable, variable

    quad = conj_variable(1, 1) * variable(1, 1)
    closed = np.exp(-1j * t) * np.exp(np.conj(alpha[0]) * np.exp(-1j * t) * beta[0])
    errs = {}
    for n in (8, 64):
        prop = chernoff_propagator(quad, SliceSchedule(t, n), basis8, rule8)
        errs[n] = abs(coherent_matrix_element(prop, alpha, beta) - closed)
    quadratic_ok = errs[64] <= errs[8] / 4

    # quartic benchmark against the spectral oracle
    basis10 = enumerate_basis(1, 10)
    rule12 = gauss_hermite_rule(1, 12)
    records = feynman_convergence_table(
        quartic_oscillator(), t, [8, 16, 32, 64, 128], alpha, beta,
        basis10, rule12,
    )
    ratios = halving_ratios(records)
    quartic_ok = len(ratios) == 4 and all(1.6 <= r <= 2.4 for _, r in ratios)
    elapsed = time.perf_counter() - start
    report(
        5, "Chernoff convergence",
        quadratic_ok and quartic_ok and elapsed < 300.0,
        f"quadratic err(64)={errs[64]:.3e} <= err(8)/4={errs[8] / 4:.3e}; "
        f"quartic ratios {[round(r, 3) for _, r in ratios]} in [1.6, 2.4]; "
        f"{elapsed:.2f}s (< 300s)",
    )


def test_criterion_6_galerkin_convergence():
    start = time.perf_counter()
    w = coupled_quartic()  # d_max = 4, mode weights 1/i
    flag = Flag(d_max=4, ns=(1, 2, 3))
    alpha = np.array([0.35, 0, 0, 0], dtype=complex)
    beta = np.array([0.25 + 0.15j, 0, 0, 0])
    M = 8

    (records, fit), (base, _), (doubled, _) = galerkin_sweeps(
        w, flag, [0.3, 0.05, 0.10], alpha, beta, M
    )
    errors = [r.abs_error for r in records]
    decreasing = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    slope_ok = fit.slope is not None and fit.slope <= -0.8

    t_ratios = [d2.abs_error / d1.abs_error for d1, d2 in zip(base, doubled)]
    window_ok = all(2.5 <= r <= 6.0 for r in t_ratios)
    elapsed = time.perf_counter() - start
    report(
        6, "Galerkin convergence",
        decreasing and slope_ok and window_ok and elapsed < 600.0,
        f"errors {[f'{e:.3e}' for e in errors]} decreasing; "
        f"slope {fit.slope:.3f} <= -0.8; t-doubling ratios "
        f"{[round(r, 3) for r in t_ratios]} in [2.5, 6]; "
        f"{elapsed:.2f}s (< 600s)",
    )


def test_criterion_7_oracle_integrity():
    worst_unitarity = 0.0
    worst_group = 0.0
    cases = []

    basis10 = enumerate_basis(1, 10)
    cases.append(antiwick_quantize_poly(basis10, quartic_oscillator()))
    basis_dmax = enumerate_basis(4, 6)
    cases.append(wick_quantize(basis_dmax, coupled_quartic()))
    rng = np.random.default_rng(77)
    basis_r = enumerate_basis(2, 6)
    m = rng.standard_normal((basis_r.size, basis_r.size)) + 1j * rng.standard_normal(
        (basis_r.size, basis_r.size)
    )
    from fockprop.fock import OperatorMatrix

    cases.append(OperatorMatrix(basis_r, 0.5 * (m + m.conj().T)))

    for h in cases:
        prop = ExactPropagator(h)
        eye = np.eye(h.basis.size)
        for t in (0.3, 1.1):
            u = prop.operator(t).mat
            worst_unitarity = max(
                worst_unitarity, float(np.abs(u.conj().T @ u - eye).max())
            )
        u1, u2 = prop.operator(0.4).mat, prop.operator(0.9).mat
        u12 = prop.operator(1.3).mat
        worst_group = max(worst_group, float(np.abs(u1 @ u2 - u12).max()))
    report(
        7, "oracle integrity",
        worst_unitarity <= 1e-9 and worst_group <= 1e-9,
        f"unitarity defect {worst_unitarity:.3e}, group-law defect "
        f"{worst_group:.3e} (tol 1e-9)",
    )


def test_criterion_8_determinism(tmp_path):
    configs = standard_configs()
    # trim the heavy sweeps: any config with equal seeds must reproduce
    configs["chernoff_sweep"] = dict(configs["chernoff_sweep"], Ns=[8, 16], M=6, Q=8)
    configs["galerkin_sweep"] = dict(configs["galerkin_sweep"], M=6)
    configs["lower_bound"] = dict(configs["lower_bound"], count=5, M=6, Q=8)
    all_identical = True
    compared = 0
    for name, cfg in configs.items():
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        run_config(cfg, out1)
        run_config(cfg, out2)
        for artifact in sorted(out1.iterdir()):
            if artifact.name == "timings.json":
                continue
            twin = out2 / artifact.name
            compared += 1
            if artifact.read_bytes() != twin.read_bytes():
                all_identical = False
    report(
        8, "determinism",
        all_identical and compared > 0,
        f"{compared} artifacts byte-identical across reruns of "
        f"{len(configs)} configs",
    )
