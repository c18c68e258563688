import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amproj.angmom import InvalidLabel, hypergeom_2f1_terminating
from amproj.config import DEFAULTS
from amproj.projector import (AxialStateVector, FockVector, GammaSeries, LabelMismatch,
                              LevelOutOfRange, TruncationTooSmall,
                              ho_gamma_triangular_solve, ho_projector_apply,
                              ho_series_eigenvalue, integral_projector_matrix,
                              lowdin_apply, lowdin_gamma, lowdin_gamma_series,
                              lowdin_series_diagonal, radial_projector_moment,
                              radial_projector_moment_exact, series_projector_matrix)
from tests.support import (exact_radial_integral, ladder_matrices,
                           oscillator_ladder_factors, rational_matrix_power)


def exact_lowdin_system_gamma(two_j: int, two_m: int, r_max: int):
    """Independent oracle: solve the annihilation system for the gammas.

    Requiring the series sum_{r} g_r lam_{j-m+r}(l) to vanish on every
    |l m> with l = j+1 .. j+r_max (Eq of the ladder eigenvalues), with
    g_0 = 1/lam_{j-m}(j) fixed by unit action on |j m>, then rescaling to
    the gamma normalization g_r / g_0.
    """
    def lam(two_l, k):
        lm = (two_l - two_m) // 2
        lp = (two_l + two_m) // 2
        if k > lm:
            return Fraction(0)
        return Fraction(math.factorial(lm) * math.factorial(lp + k),
                        math.factorial(lm - k) * math.factorial(lp))

    n = (two_j - two_m) // 2
    g = [Fraction(1)]
    for step in range(1, r_max + 1):
        two_l = two_j + 2 * step
        acc = Fraction(0)
        for r in range(step):
            acc += g[r] * lam(two_l, n + r)
        g.append(-acc / lam(two_l, n + step))
    return g


class TestOscillatorGammas:
    def test_gamma0_is_one(self):
        for n in (0, 1, 4):
            assert ho_gamma_triangular_solve(n, 5).gammas[0] == 1

    def test_n0_closed_form(self):
        got = ho_gamma_triangular_solve(0, 6).gammas
        want = tuple(Fraction((-1) ** i, math.factorial(i)) for i in range(7))
        assert got == want

    def test_n_independence(self):
        base = ho_gamma_triangular_solve(0, 8).gammas
        for n in (1, 2, 7):
            assert ho_gamma_triangular_solve(n, 8).gammas == base

    def test_row_equations_hold_exactly(self):
        for n in (0, 2, 5):
            g = ho_gamma_triangular_solve(n, 6).gammas
            for j in range(1, 7):
                acc = Fraction(0)
                for i in range(j + 1):
                    acc += g[i] * Fraction(math.factorial(n + j), math.factorial(j - i))
                assert acc == 0

    def test_alternating_sign_guard(self):
        with pytest.raises(ValueError):
            GammaSeries(kind="oscillator", label=(0,), gammas=(Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            GammaSeries(kind="oscillator", label=(0,), gammas=(Fraction(2),))


class TestOscillatorProjector:
    def test_extracts_ground_level(self):
        out = ho_projector_apply(0, FockVector(np.array([1.0, 1.0, 1.0])))
        assert np.array_equal(out.coefficients, [1.0, 0.0, 0.0])

    def test_extracts_interior_level(self):
        out = ho_projector_apply(2, FockVector(np.array([0.3, -0.7, 0.5, 0.2])))
        assert np.array_equal(out.coefficients, [0.0, 0.0, 0.5, 0.0])

    def test_idempotent(self, rng):
        phi = FockVector(rng.uniform(-1, 1, 13))
        for n in (0, 3, 8, 12):
            once = ho_projector_apply(n, phi)
            twice = ho_projector_apply(n, once)
            assert np.abs(twice.coefficients - once.coefficients).max() <= 1e-12

    def test_matrix_oracle(self, rng):
        """Dense operator sum_i gamma_i (a+)^{n+i} a^{n+i} / n! is exactly |n><n|.

        The oracle is exact ladder algebra: with S = diag(sqrt(l!)),
        (a+)^k a^k = S B^k diag(1/l!) (B^T)^k S (oscillator_ladder_factors),
        so M = sum_i gamma_i B^{n+i} diag(1/l!) (B^T)^{n+i} is a matrix of
        Fractions.  Once M is shown to be diagonal, S M S = diag(l! M_ll)
        holds exactly.  The same sum in float64 is no oracle: its terms
        alternate in sign and reach 3.5e4 (n = 4), so cancellation leaves
        about eps * 3.5e4 ~ 8e-12.
        """
        n_max = 12
        levels = range(n_max + 1)
        b, d = oscillator_ladder_factors(n_max)
        ladder_products = []
        for k in levels:
            bk = rational_matrix_power(b, k)
            ladder_products.append(bk @ d @ bk.T)
        for n in (0, 1, 4, 8):
            g = ho_gamma_triangular_solve(n, n_max - n).gammas
            m = sum(g[i] * ladder_products[n + i] for i in range(n_max - n + 1))
            assert all(m[r, c] == 0 for r in levels for c in levels if r != c)
            diag = [math.factorial(level) * m[level, level] / math.factorial(n)
                    for level in levels]
            assert diag == [int(level == n) for level in levels]
            op = np.diag(np.array(diag, dtype=float))
            phi = rng.uniform(-1, 1, n_max + 1)
            got = ho_projector_apply(n, FockVector(phi)).coefficients
            assert np.abs(got - op @ phi).max() <= 1e-12

    def test_level_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            ho_projector_apply(4, FockVector(np.array([1.0, 2.0])))

    def test_z_weighted_eigenvalue_is_binomial(self):
        # eigenvalue on |n+j> with weights z^i: ((n+j)!/(n! j!)) (1-z)^j
        for n in (0, 1, 3):
            for j in range(6):
                for z in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2)):
                    got = ho_series_eigenvalue(n, n + j, z)
                    pref = Fraction(math.factorial(n + j),
                                    math.factorial(n) * math.factorial(j))
                    assert got == pref * (1 - z) ** j

    def test_z_weighted_matches_2f1_pattern(self):
        # 2F1(-j, b; b; z) = (1-z)^j carries the same z dependence, exactly
        for j in range(1, 6):
            for z in (Fraction(1, 4), Fraction(1)):
                f21 = hypergeom_2f1_terminating(-j, Fraction(5, 2), Fraction(5, 2), z)
                scaled = ho_series_eigenvalue(2, 2 + j, z) * Fraction(
                    math.factorial(2) * math.factorial(j), math.factorial(2 + j))
                assert scaled == f21


class TestLowdinGammas:
    def test_r0(self):
        assert lowdin_gamma(5, 0) == 1.0

    def test_examples(self):
        assert lowdin_gamma(2, 1) == pytest.approx(-1 / 4)   # j = 1
        assert lowdin_gamma(1, 1) == pytest.approx(-1 / 3)   # j = 1/2

    def test_closed_form(self):
        for two_j in (0, 1, 2, 5, 9):
            for r in range(6):
                want = Fraction((-1) ** r * math.factorial(two_j + 1),
                                math.factorial(r) * math.factorial(two_j + r + 1))
                assert lowdin_gamma(two_j, r) == pytest.approx(float(want), rel=1e-15)

    def test_matches_annihilation_system_oracle(self):
        for two_j, two_m in [(2, 0), (3, 1), (5, 3), (4, 0)]:
            oracle = exact_lowdin_system_gamma(two_j, two_m, 5)
            series = lowdin_gamma_series(two_j, two_m, 5).gammas
            assert tuple(oracle) == series


class TestLowdinApply:
    def test_eigenstate_passthrough(self):
        phi = AxialStateVector(0, 8, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        out = lowdin_apply(2, 0, phi)
        assert np.array_equal(out.coefficients, phi.coefficients)

    def test_two_component_extraction(self):
        phi = AxialStateVector(0, 8, np.array([0.0, 0.6, 0.8, 0.0, 0.0]))
        out1 = lowdin_apply(2, 0, phi)
        assert np.array_equal(out1.coefficients, [0.0, 0.6, 0.0, 0.0, 0.0])
        out2 = lowdin_apply(4, 0, phi)
        assert np.array_equal(out2.coefficients, [0.0, 0.0, 0.8, 0.0, 0.0])

    def test_explicit_matrix_oracle(self, rng):
        """Series of ladder matrix powers on the full truncated space."""
        for two_j, two_m in [(2, 0), (4, 0), (3, 1), (2, 2)]:
            two_j_max = two_j + 6
            basis, jp, jm = ladder_matrices(two_m % 2, two_j_max)
            sector = [basis.index((tl, two_m)) for tl in range(two_m, two_j_max + 1, 2)]
            n = (two_j - two_m) // 2
            op = np.zeros_like(jp)
            r_max = (two_j_max - two_j) // 2
            pref = (two_j + 1) * math.factorial((two_j + two_m) // 2) / math.factorial(
                (two_j - two_m) // 2)
            for r in range(r_max + 1):
                k = n + r
                gamma = ((-1) ** r / (math.factorial(r) * math.factorial(two_j + r + 1))
                         * math.factorial(two_j + 1))
                term = (np.linalg.matrix_power(jm, k) @ np.linalg.matrix_power(jp, k)
                        / math.factorial(two_j + 1) * gamma)
                op += term
            op *= pref
            block = op[np.ix_(sector, sector)]
            coeffs = rng.uniform(-1, 1, len(sector))
            got = lowdin_apply(two_j, two_m,
                               AxialStateVector(two_m, two_j_max, coeffs)).coefficients
            assert np.abs(got - block @ coeffs).max() <= 1e-9

    def test_idempotence_and_completeness(self, rng):
        for two_m in (0, 1, 2, 3):
            two_j_max = two_m + 16
            nslots = (two_j_max - two_m) // 2 + 1
            phi = AxialStateVector(two_m, two_j_max, rng.uniform(-1, 1, nslots))
            total = np.zeros(nslots)
            for two_j in phi.two_j_values():
                once = lowdin_apply(two_j, two_m, phi)
                twice = lowdin_apply(two_j, two_m, once)
                assert np.abs(twice.coefficients - once.coefficients).max() <= 1e-9
                total += once.coefficients
            assert np.abs(total - phi.coefficients).max() <= 1e-9

    def test_annihilation(self):
        for two_m in (0, 1):
            two_j_max = two_m + 10
            nslots = (two_j_max - two_m) // 2 + 1
            for two_j in range(two_m, two_j_max + 1, 2):
                for two_l in range(two_m, two_j_max + 1, 2):
                    if two_l == two_j:
                        continue
                    unit = np.zeros(nslots)
                    unit[(two_l - two_m) // 2] = 1.0
                    out = lowdin_apply(two_j, two_m,
                                       AxialStateVector(two_m, two_j_max, unit))
                    assert np.abs(out.coefficients).max() <= 1e-10

    def test_negative_m_via_symmetry(self, rng):
        coeffs = rng.uniform(-1, 1, 5)
        neg = lowdin_apply(6, -2, AxialStateVector(-2, 10, coeffs))
        pos = lowdin_apply(6, 2, AxialStateVector(2, 10, coeffs))
        assert np.array_equal(neg.coefficients, pos.coefficients)
        assert neg.two_m == -2

    def test_errors(self):
        phi = AxialStateVector(0, 4, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(LabelMismatch):
            lowdin_apply(2, 2, phi)
        with pytest.raises(TruncationTooSmall):
            lowdin_apply(6, 0, phi)


class TestSeriesDiagonal:
    def test_projector_normalization(self):
        for two_j, two_m in [(0, 0), (3, 1), (6, 2), (5, 5)]:
            assert lowdin_series_diagonal(two_j, two_m, two_j) == 1.0

    def test_annihilates_neighbors(self):
        for two_j, two_m in [(2, 0), (3, 1), (8, 0)]:
            assert lowdin_series_diagonal(two_j, two_m, two_j + 2) == 0.0
            assert abs(lowdin_series_diagonal(two_j, two_m, two_j + 8)) <= 1e-12

    def test_below_target_vanishes(self):
        assert lowdin_series_diagonal(6, 0, 4) == 0.0

    @given(st.integers(0, 5), st.integers(0, 4))
    def test_z_series_matches_2f1(self, n_j, extra):
        """Partial z-weighted sums follow the terminating-2F1 pattern."""
        two_m = n_j % 2
        two_j = two_m + 2 * n_j
        two_l = two_j + 2 * (extra + 1)
        z = Fraction(1, 2)
        got = lowdin_series_diagonal(two_j, two_m, two_l, z)
        npar = (two_l - two_j) // 2
        f21 = hypergeom_2f1_terminating(-npar, Fraction((two_l + two_j) // 2 + 1),
                                        Fraction(two_j + 2), z)
        # same z-polynomial up to the r = 0 term (isolated exactly at z = 0)
        leading = lowdin_series_diagonal(two_j, two_m, two_l, 0)
        assert got == pytest.approx(leading * float(f21), rel=1e-12, abs=1e-15)
        # and both vanish at z = 1
        assert hypergeom_2f1_terminating(-npar, Fraction((two_l + two_j) // 2 + 1),
                                         Fraction(two_j + 2), 1) == 0
        assert lowdin_series_diagonal(two_j, two_m, two_l, 1) == 0.0


class TestIntegralRepresentation:
    def test_radial_identity_against_exact_rational_oracle(self):
        for two_j in range(0, 9):
            for two_m in range(two_j % 2, two_j + 1, 2):
                n = (two_j - two_m) // 2
                if n > 4:
                    continue
                for r in range(5):
                    i = n + r
                    pref = Fraction(math.factorial(n),
                                    math.factorial((two_j + two_m) // 2))
                    exact = pref * exact_radial_integral(i, n, two_m) / Fraction(
                        math.factorial(i)) ** 2
                    assert exact == radial_projector_moment_exact(two_j, two_m, r)
                    quad = radial_projector_moment(two_j, two_m, r)
                    assert abs(quad - float(exact)) <= 1e-10 * abs(float(exact))

    def test_m0_j0_projects_onto_lowest(self):
        mat = integral_projector_matrix(0, 0, 6)
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.abs(mat - want).max() <= DEFAULTS.integral_vs_series

    def test_matches_series_projector(self):
        for two_j, two_m in [(0, 0), (2, 0), (4, 0), (2, 2), (3, 1)]:
            two_j_max = two_j + 6
            mat = integral_projector_matrix(two_j, two_m, two_j_max, 40, 64)
            series = series_projector_matrix(two_j, two_m, two_j_max)
            assert np.abs(mat - series).max() <= DEFAULTS.integral_vs_series
            # the folded constant pi/(2j+1) leaves the J component at 1
            slot = (two_j - two_m) // 2
            assert mat[slot, slot] == pytest.approx(1.0, rel=1e-10)

    def test_angular_aliasing_detected(self):
        with pytest.raises(ArithmeticError):
            integral_projector_matrix(2, 0, 8, 40, 3)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            integral_projector_matrix(4, 0, 2)
        with pytest.raises(InvalidLabel):
            integral_projector_matrix(2, -2, 8)

    @pytest.mark.parametrize("points", [0, -3])
    def test_point_counts_below_one_refused(self, points):
        # 0 is refused, not replaced by the default
        with pytest.raises(ValueError):
            integral_projector_matrix(2, 0, 8, radial_points=points)
        with pytest.raises(ValueError):
            integral_projector_matrix(2, 0, 8, angular_points=points)
        with pytest.raises(ValueError):
            radial_projector_moment(2, 0, 1, radial_points=points)
