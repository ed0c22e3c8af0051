import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockprop.symbols import (
    GRID_MAX_POINTS,
    PhaseGrid,
    PolySymbol,
    antinormal_from_wick,
    check_conversion_degree,
    conj_variable,
    from_term_list,
    gross_laplacian,
    infimum_estimate,
    max_coeff_difference,
    random_symbol,
    restrict_symbol,
    symbol_digest,
    to_term_list,
    truncate_modes,
    variable,
    wick_from_antinormal,
)


def zz(d=1):
    return conj_variable(d, 1) * variable(d, 1)


class TestEvaluate:
    def test_constant(self):
        s = PolySymbol.constant(1, 1.0)
        assert s.evaluate([0.7 + 0.2j]) == 1.0

    def test_number_symbol_at_two(self):
        assert zz().evaluate([2.0 + 0j]) == pytest.approx(4.0)

    def test_quartic_at_one_plus_i(self):
        # |1+i|^4 = 4 by direct arithmetic
        s = zz() * zz()
        assert s.evaluate([1.0 + 1.0j]) == pytest.approx(4.0)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        s = random_symbol(rng, 2, 5, 8)
        pts = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        batch = s.evaluate(pts)
        for i in range(6):
            assert batch[i] == pytest.approx(s.evaluate(pts[i]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            zz().evaluate([1.0, 2.0])


def product_node_list(mode_points, modes):
    """Reference: every tuple of mode points as an explicit (n, modes) array,
    in itertools.product order (the last mode fastest)."""
    return np.asarray(list(itertools.product(mode_points, repeat=modes)), dtype=complex)


class TestEvaluateGrid:
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["zero", "constant", "random"])
    def test_matches_evaluate_on_node_list(self, modes, kind):
        rng = np.random.default_rng(500 + modes)
        s = {
            "zero": PolySymbol.zero(modes),
            "constant": PolySymbol.constant(modes, 0.7 - 1.3j),
            "random": random_symbol(rng, modes, 6, 20),
        }[kind]
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        expected = s.evaluate(product_node_list(z, modes))
        got = s.evaluate_grid(z)
        assert got.shape == (5**modes,)
        scale = max(np.abs(expected).max(), 1e-300)
        assert np.abs(got - expected).max() <= 1e-14 * scale
        if kind == "zero":
            assert not got.any()

    def test_refuses_grid_over_limit(self):
        per_mode = int(GRID_MAX_POINTS ** 0.5) + 1
        with pytest.raises(ValueError, match=f"at most {GRID_MAX_POINTS}"):
            zz(2).evaluate_grid(np.zeros(per_mode))

    def test_rejects_point_array(self):
        with pytest.raises(ValueError):
            zz(2).evaluate_grid(np.zeros((3, 2)))

    def test_more_modes_than_recursion_limit(self):
        # one-point grid: a 1500-mode symbol evaluated at one phase point
        modes = 1500
        s = zz(modes) + 0.5 * variable(modes, modes)
        z = np.array([0.3 + 0.4j])
        expected = s.evaluate(np.full(modes, z[0]))
        assert s.evaluate_grid(z) == pytest.approx([expected], abs=1e-15)


class TestIsReal:
    def test_diagonal_term(self):
        assert zz().is_real()

    def test_missing_conjugate_partner(self):
        assert not variable(1, 1).is_real()

    def test_mixed_real_combination(self):
        s = zz() ** 2 + 3.0 * (conj_variable(1, 1) + variable(1, 1))
        assert s.is_real()


class TestGrossLaplacian:
    def test_number_symbol(self):
        assert gross_laplacian(zz()) == PolySymbol.constant(1, 1.0)

    def test_quartic(self):
        assert gross_laplacian(zz() ** 2) == 4.0 * zz()

    def test_constant(self):
        assert gross_laplacian(PolySymbol.constant(1, 5.0)).is_zero()

    def test_degree_drops_by_two(self):
        rng = np.random.default_rng(5)
        s = random_symbol(rng, 2, 6, 10)
        lap = gross_laplacian(s)
        if not lap.is_zero():
            assert lap.degree <= s.degree - 2

    def test_matches_finite_differences(self):
        # independent oracle: quarter of the real Laplacian per mode,
        # Richardson-extrapolated central differences
        def second_diff(s, z, step, h):
            zp, zm = z.copy(), z.copy()
            zp += step
            zm -= step
            return (s.evaluate(zp) + s.evaluate(zm) - 2 * s.evaluate(z)) / h**2

        rng = np.random.default_rng(11)
        h = 1e-3
        for _ in range(5):
            s = random_symbol(rng, 2, 6, 8)
            lap = gross_laplacian(s)
            z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            fd = 0j
            for i in range(2):
                for unit in (1.0, 1.0j):
                    e = np.zeros(2, dtype=complex)
                    e[i] = unit
                    coarse = second_diff(s, z, h * e, h)
                    fine = second_diff(s, z, (h / 2) * e, h / 2)
                    fd += (4.0 * fine - coarse) / 3.0
            fd /= 4.0
            expected = lap.evaluate(z)
            assert abs(fd - expected) <= 1e-8 * max(1.0, abs(expected))


class TestConversion:
    def test_number_symbol_gains_one(self):
        assert wick_from_antinormal(zz()) == zz() + 1.0

    def test_constant_fixed(self):
        one = PolySymbol.constant(1, 1.0)
        assert wick_from_antinormal(one) == one

    def test_quartic_forward(self):
        # finite series by hand: L(z*2 z2) = 4 z*z, L(4 z*z) = 4, so +4z*z +2
        expected = zz() ** 2 + 4.0 * zz() + 2.0
        assert max_coeff_difference(wick_from_antinormal(zz() ** 2), expected) == 0

    def test_number_symbol_inverse(self):
        assert antinormal_from_wick(zz()) == zz() - 1.0

    def test_quartic_inverse(self):
        expected = zz() ** 2 - 4.0 * zz() + 2.0
        assert max_coeff_difference(antinormal_from_wick(zz() ** 2), expected) == 0

    def test_cubic_roundtrip_exact(self):
        s = zz() ** 3
        back = antinormal_from_wick(wick_from_antinormal(s))
        assert max_coeff_difference(back, s) <= 1e-12


class TestConversionRange:
    # at degree 400 the largest weight j! C(200,j)^2 is an int past the
    # double range, which used to end in OverflowError
    @pytest.mark.parametrize("convert", [wick_from_antinormal, antinormal_from_wick])
    def test_weight_past_double_range_is_refused(self, convert):
        s = zz() + PolySymbol.monomial((200,), (200,), 1e-300)
        with pytest.raises(ValueError, match=r"term z\*1\^200·z1\^200"):
            convert(s)

    def test_coefficient_past_double_range_is_refused(self):
        # weights 1, 4, 2: the z*z coefficient 6e308 is not a double
        with pytest.raises(ValueError, match=r"coefficient of z\*1·z1 is \(inf"):
            wick_from_antinormal(PolySymbol.monomial((2,), (2,), 1.5e308))

    def test_degree_bound_is_where_weights_leave_the_doubles(self):
        def largest(a, b):
            return max(math.factorial(j) * math.comb(a, j) * math.comb(b, j)
                       for j in range(min(a, b) + 1))

        assert float(largest(166, 167)) < math.inf
        with pytest.raises(OverflowError):
            float(largest(167, 167))
        assert check_conversion_degree(333) == 333
        with pytest.raises(ValueError, match="degree 334 .* below total degree 334"):
            check_conversion_degree(334)

    def test_degree_333_converts_however_it_is_split(self):
        # one mode's balanced split has the largest weights; spreading the
        # degree over modes multiplies smaller ones
        keys = [((166, 0), (167, 0)), ((83, 83), (83, 84)), ((100, 66), (100, 67))]
        s = PolySymbol(2, {key: 1.0 for key in keys})
        assert max(map(abs, wick_from_antinormal(s).terms.values())) < math.inf


def laplacian_series(s, sign):
    """Reference: sum_m (sign L)^m s / m!, one gross_laplacian per order."""
    total = cur = s
    m = 0
    while not cur.is_zero():
        m += 1
        cur = gross_laplacian(cur) * (sign / m)
        total = total + cur
    return total


@st.composite
def symbols(draw, max_modes=3, max_degree=8, max_terms=6, min_modes=1):
    modes = draw(st.integers(min_modes, max_modes))
    n_terms = draw(st.integers(0, max_terms))
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    terms = {}
    for _ in range(n_terms):
        exps = draw(
            st.lists(st.integers(0, max_degree), min_size=2 * modes,
                     max_size=2 * modes)
        )
        if sum(exps) > max_degree:
            continue
        key = (tuple(exps[:modes]), tuple(exps[modes:]))
        terms[key] = complex(draw(coeff), draw(coeff))
    return PolySymbol(modes, terms)


class TestConversionProperties:
    @given(symbols())
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_identity(self, s):
        back = antinormal_from_wick(wick_from_antinormal(s))
        assert max_coeff_difference(back, s) <= 1e-12

    @given(symbols())
    @settings(max_examples=120, deadline=None)
    def test_degree_law(self, s):
        w = wick_from_antinormal(s)
        assert w.degree == s.degree
        diff = w - s
        assert diff.is_zero() or diff.degree <= s.degree - 2

    @given(symbols())
    @settings(max_examples=80, deadline=None)
    def test_reality_preserved(self, s):
        real = (s + s.adjoint()) * 0.5
        assert wick_from_antinormal(real).is_real()

    @given(symbols())
    @settings(max_examples=120, deadline=None)
    def test_closed_form_matches_laplacian_series(self, s):
        for convert, sign in ((wick_from_antinormal, 1.0), (antinormal_from_wick, -1.0)):
            got, expected = convert(s), laplacian_series(s, sign)
            for key in set(got.terms) | set(expected.terms):
                want = expected.terms.get(key, 0j)
                assert abs(got.terms.get(key, 0j) - want) <= 1e-12 * max(1.0, abs(want))

    @given(symbols(max_modes=2, max_degree=6), symbols(max_modes=2, max_degree=6))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, s1, s2):
        if s1.modes != s2.modes:
            return
        lhs = wick_from_antinormal(s1 + 2.0 * s2)
        rhs = wick_from_antinormal(s1) + 2.0 * wick_from_antinormal(s2)
        assert max_coeff_difference(lhs, rhs) <= 1e-12


class TestRestrict:
    def two_mode(self):
        return conj_variable(2, 1) * variable(2, 1) + conj_variable(2, 2) * variable(2, 2)

    def test_drops_second_mode(self):
        got = restrict_symbol(self.two_mode(), 1)
        assert got == conj_variable(2, 1) * variable(2, 1)

    def test_full_is_identity(self):
        s = self.two_mode()
        assert restrict_symbol(s, 2) == s

    def test_cross_terms_vanish(self):
        s = conj_variable(2, 1) * variable(2, 2) + conj_variable(2, 2) * variable(2, 1)
        assert restrict_symbol(s, 1).is_zero()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restrict_symbol(self.two_mode(), 3)

    def test_restriction_chain_idempotent(self):
        rng = np.random.default_rng(9)
        s = random_symbol(rng, 3, 6, 12)
        assert restrict_symbol(restrict_symbol(s, 2), 1) == restrict_symbol(s, 1)

    def test_eval_matches_zeroed_point(self):
        rng = np.random.default_rng(13)
        s = random_symbol(rng, 3, 6, 12)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z_cut = z.copy()
        z_cut[1:] = 0.0
        assert restrict_symbol(s, 1).evaluate(z) == s.evaluate(z_cut)

    def test_truncate_reindexes(self):
        s = self.two_mode()
        got = truncate_modes(s, 1)
        assert got.modes == 1
        assert got == zz()

    def test_truncate_to_every_mode_is_the_symbol(self):
        s = self.two_mode()
        assert truncate_modes(s, 2) is s


class TestInfimumEstimate:
    def test_number_symbol(self):
        grid = PhaseGrid(radius=2.0, radial=21, angular=8)
        assert infimum_estimate(zz(), grid) == pytest.approx(0.0, abs=1e-14)

    def test_mexican_hat(self):
        # (z*z - 1)^2 has its minimum 0 on |z| = 1; step 0.1 hits r = 1
        s = (zz() - 1.0) ** 2
        grid = PhaseGrid(radius=2.0, radial=21, angular=8)
        assert infimum_estimate(s, grid) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift(self):
        grid = PhaseGrid(radius=2.0, radial=21, angular=8)
        assert infimum_estimate(zz() + 5.0, grid) == pytest.approx(5.0)

    def test_rejects_non_real(self):
        grid = PhaseGrid(radius=1.0, radial=5, angular=4)
        with pytest.raises(ValueError):
            infimum_estimate(variable(1, 1), grid)

    @pytest.mark.parametrize("radius,radial,angular",
                             [(6.0, 25, 16), (1.5, 3, 4), (2.0, 1, 8), (0.7, 5, 1)])
    def test_mode_points_match_ring_loop(self, radius, radial, angular):
        radii = np.linspace(0.0, radius, radial)
        angles = 2.0 * np.pi * np.arange(angular) / angular
        pts = [0j]
        for r in radii[1:]:
            pts.extend(r * np.exp(1j * angles))
        expected = np.asarray(pts, dtype=complex)
        got = PhaseGrid(radius, radial, angular).mode_points()
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_grid_points_in_product_order(self, modes):
        grid = PhaseGrid(radius=1.5, radial=3, angular=4)
        per_mode = grid.mode_points()
        expected = np.asarray(
            list(itertools.product(per_mode, repeat=modes)), dtype=complex
        )
        for m in range(modes):
            got = variable(modes, m + 1).evaluate_grid(per_mode)
            assert np.array_equal(got, expected[:, m])


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = random_symbol(rng, int(rng.integers(1, 4)), 6, 8)
            data = json.dumps(to_term_list(s))
            back = from_term_list(json.loads(data), modes=s.modes)
            assert back == s
            assert json.dumps(to_term_list(back)) == data

    def test_canonical_order_is_graded_lex(self):
        s = zz() ** 2 + zz() + 1.0 + variable(1, 1)
        degrees = [sum(t["kstar"]) + sum(t["k"]) for t in to_term_list(s)]
        assert degrees == sorted(degrees)

    def test_digest_stable_under_construction_order(self):
        s1 = zz() + 1.0
        s2 = 1.0 + zz()
        assert symbol_digest(s1) == symbol_digest(s2)

    def test_from_term_list_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_term_list([{"k": [1]}], modes=1)
        with pytest.raises(ValueError):
            from_term_list("not a list")

    @pytest.mark.parametrize("data,message", [
        ([1], "term 0 is not an object"),
        ([{"kstar": 5, "k": [1]}], "integer list 'kstar'"),
    ])
    def test_inferred_modes_checks_terms_first(self, data, message):
        # with modes=None the mode count is read only from a checked term
        with pytest.raises(ValueError, match=message):
            from_term_list(data)


class TestAlgebraBasics:
    def test_zero_coefficients_dropped(self):
        s = zz() - zz()
        assert s.is_zero() and s.degree == -1

    def test_immutability(self):
        s = zz()
        with pytest.raises(AttributeError):
            s.modes = 2
        with pytest.raises(TypeError):
            s.terms[((0,), (0,))] = 1.0

    def test_power_matches_repeated_product(self):
        s = conj_variable(1, 1) + variable(1, 1)
        assert max_coeff_difference(s**4, s * s * s * s) <= 1e-12

    def test_adjoint_swaps_and_conjugates(self):
        s = PolySymbol.monomial((2,), (1,), 1.0 + 2.0j)
        adj = s.adjoint()
        assert adj.terms[((1,), (2,))] == 1.0 - 2.0j

    def test_constructor_rejects_bad_exponents(self):
        with pytest.raises(ValueError, match="length 2"):
            PolySymbol(2, {((1,), (0, 1)): 1.0})
        with pytest.raises(ValueError, match="non-negative"):
            PolySymbol(1, {((-1,), (0,)): 1.0})

    @pytest.mark.parametrize("exponent", [1.7, True, "2", np.float64(2.0), np.bool_(1)])
    def test_constructor_rejects_non_integer_exponents(self, exponent):
        # these used to be truncated by int() to z*z or z*^2 z
        with pytest.raises(ValueError, match="exponents must be integers"):
            PolySymbol(1, {((exponent,), (1,)): 1.0})

    def test_constructor_stores_python_ints(self):
        s = PolySymbol(1, {((np.int64(2),), (np.uint8(1),)): 1.0})
        [(ks, k)] = s.terms
        assert (ks, k) == ((2,), (1,))
        assert all(type(e) is int for e in ks + k)

    def test_negation_stores_no_signed_zero(self):
        (term,) = to_term_list(-zz())
        assert term["re"] == -1.0 and math.copysign(1.0, term["im"]) == 1.0


def assert_canonical(s):
    """s equals its validated rebuild, serialized byte for byte alike."""
    rebuilt = PolySymbol(s.modes, dict(s.terms))
    assert s == rebuilt
    assert json.dumps(to_term_list(s)) == json.dumps(to_term_list(rebuilt))


class TestTrustedConstruction:
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(symbols(d, 6, min_modes=d), symbols(d, 6, min_modes=d))
    ))
    @settings(max_examples=80, deadline=None)
    def test_algebra_matches_validated_rebuild(self, pair):
        s1, s2 = pair
        results = [s1 + s2, s1 - s2, -s1, s1 * s2, s1 * (0.5 - 2.0j), s1.adjoint(),
                   wick_from_antinormal(s1), antinormal_from_wick(s1)]
        results += [restrict_symbol(s1, n) for n in range(s1.modes + 1)]
        results += [truncate_modes(s1, n) for n in range(1, s1.modes + 1)]
        for r in results:
            assert_canonical(r)

    @pytest.mark.parametrize("real", [False, True])
    def test_random_symbol_matches_validated_rebuild(self, real):
        rng = np.random.default_rng(31)
        for _ in range(10):
            assert_canonical(random_symbol(rng, int(rng.integers(1, 4)), 6, 8, real=real))
