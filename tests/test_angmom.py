import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amproj.angmom import (SMALL_D_MAX_TWO_J, AngMomLabel, InvalidLabel, clebsch_gordan,
                           gauss_legendre_cos, jacobi_polynomial, jacobi_polynomials, ladder_apply,
                           rotation_matrix, small_d_diagonal, small_d_matrices)
from tests.support import (PoleInC, hypergeom_2f1_terminating, legendre_beta_rule,
                           small_d_expm, wigner_small_d)

HALF_JS = [1, 2, 3, 4, 5, 7, 9, 12]


class TestWignerSmallD:
    def test_identity_rotation(self):
        for two_j in (0, 1, 2, 5):
            for two_mp in range(-two_j, two_j + 1, 2):
                for two_m in range(-two_j, two_j + 1, 2):
                    want = 1.0 if two_mp == two_m else 0.0
                    assert wigner_small_d(two_j, two_mp, two_m, 0.0) == pytest.approx(
                        want, abs=1e-15)

    def test_spin_half_diagonal(self):
        for beta in (0.1, 0.7, 2.2, 3.0):
            assert wigner_small_d(1, 1, 1, beta) == pytest.approx(
                math.cos(beta / 2), abs=1e-15)

    def test_matches_matrix_exponential(self):
        for two_j in (1, 2, 3, 5, 8):
            for beta in (0.3, 1.1, 2.7):
                d_ref = small_d_expm(two_j, beta)
                ms = list(range(two_j, -two_j - 1, -2))
                for a, two_mp in enumerate(ms):
                    for b, two_m in enumerate(ms):
                        assert wigner_small_d(two_j, two_mp, two_m, beta) == pytest.approx(
                            d_ref[a, b], abs=1e-13)

    def test_j1_mm0_is_cos(self):
        for beta in (0.2, 1.5, 2.9):
            assert wigner_small_d(2, 0, 0, beta) == pytest.approx(math.cos(beta), abs=1e-14)

    def test_unitarity(self):
        for two_j in HALF_JS:
            ms = list(range(two_j, -two_j - 1, -2))
            d = np.array([[wigner_small_d(two_j, a, b, 1.234) for b in ms] for a in ms])
            assert np.abs(d.T @ d - np.eye(two_j + 1)).max() <= 1e-12

    def test_transpose_symmetry(self):
        for two_j in HALF_JS:
            for beta in (0.4, 2.0):
                for two_mp in range(-two_j, two_j + 1, 2):
                    for two_m in range(-two_j, two_j + 1, 2):
                        lhs = wigner_small_d(two_j, two_mp, two_m, beta)
                        rhs = wigner_small_d(two_j, two_m, two_mp, beta)
                        sign = -1.0 if ((two_mp - two_m) // 2) % 2 else 1.0
                        assert lhs == pytest.approx(sign * rhs, abs=1e-12)

    def test_orthogonality_under_quadrature(self):
        nodes, weights = legendre_beta_rule(64)
        sinb = np.sin(nodes)
        for two_m in (0, 1, 2):
            js = [tj for tj in range(two_m, 13, 2)]
            vals = {tj: np.array([wigner_small_d(tj, two_m, two_m, b) for b in nodes])
                    for tj in js}
            for tj1 in js:
                for tj2 in js:
                    got = float(np.sum(weights * sinb * vals[tj1] * vals[tj2]))
                    want = 2.0 / (tj1 + 1) if tj1 == tj2 else 0.0
                    assert abs(got - want) <= 1e-10

    def test_invalid_labels(self):
        with pytest.raises(InvalidLabel):
            wigner_small_d(2, 1, 0, 0.5)  # parity mismatch
        with pytest.raises(InvalidLabel):
            wigner_small_d(2, 4, 0, 0.5)  # |m'| > j


# cos(beta/2) = 3/5, sin(beta/2) = 4/5: every power in the factorial sum is
# an exact rational, so d^J_{M'M} = sqrt(integer) * Fraction exactly
EXACT_COS, EXACT_SIN = Fraction(3, 5), Fraction(4, 5)
EXACT_BETA = 2 * math.atan2(4, 3)


def exact_small_d(two_j: int, two_mp: int, two_m: int) -> float:
    """The factorial sum at EXACT_BETA in rational arithmetic, rounded once."""
    f = math.factorial
    jpm, jmm = (two_j + two_m) // 2, (two_j - two_m) // 2
    jpmp, jmmp = (two_j + two_mp) // 2, (two_j - two_mp) // 2
    dm = (two_mp - two_m) // 2
    num = f(jpm) * f(jmm) * f(jpmp) * f(jmmp)
    total = Fraction(0)
    for k in range(max(0, -dm), min(jpm, jmmp) + 1):
        den = f(k) * f(jpm - k) * f(jmmp - k) * f(dm + k)
        term = EXACT_COS ** (two_j - dm - 2 * k) * EXACT_SIN ** (dm + 2 * k) / den
        total += -term if (dm + k) % 2 else term
    # d = sqrt(num) * total; num * total^2 is an exact rational in [0, 1]
    mag = math.sqrt(float(num * total * total))
    return -mag if total < 0 else mag


class TestProductionSmallD:
    def test_blocks_match_matrix_exponential(self):
        for two_j in (0, 1, 2, 3, 5, 8):
            betas = [0.3, 1.1, 2.7, -0.4]
            got = small_d_matrices(two_j, betas)
            for beta, block in zip(betas, got):
                # small_d_expm orders m descending, the blocks ascending
                ref = small_d_expm(two_j, beta)[::-1, ::-1]
                assert np.abs(block - ref).max() <= 1e-14

    def test_identity_at_zero_is_exact(self):
        for two_j in (1, 4, 15):
            assert np.array_equal(small_d_matrices(two_j, [0.0])[0], np.eye(two_j + 1))

    def test_blocks_match_exact_sum_up_to_2j_90(self):
        # rows sampled across each block; every column of those rows
        for two_j in (15, 40, 61, 90):
            block = small_d_matrices(two_j, [EXACT_BETA])[0]
            for two_mp in range(-two_j, two_j + 1, 2 * max(1, two_j // 8)):
                row = (two_mp + two_j) // 2
                ref = [exact_small_d(two_j, two_mp, two_m)
                       for two_m in range(-two_j, two_j + 1, 2)]
                assert np.abs(block[row] - ref).max() <= 1e-13

    def test_weights_match_exact_sum_up_to_2j_90(self):
        for two_m in (0, 1, -8, 15, -30):
            two_js = list(range(abs(two_m), 91, 2))
            got = small_d_diagonal(two_m, two_js, [EXACT_BETA, 0.0])
            ref = [exact_small_d(two_j, two_m, two_m) for two_j in two_js]
            assert np.abs(got[:, 0] - ref).max() <= 1e-13
            assert np.array_equal(got[:, 1], np.ones(len(two_js)))

    def test_weights_match_factorial_sum_at_small_j(self):
        nodes, _ = legendre_beta_rule(16)
        for two_m in (-3, 0, 2):
            two_js = list(range(abs(two_m), 13, 2))
            got = small_d_diagonal(two_m, two_js, nodes)
            ref = [[wigner_small_d(two_j, two_m, two_m, b) for b in nodes]
                   for two_j in two_js]
            assert np.abs(got - ref).max() <= 1e-13

    def test_weights_reject_incompatible_j(self):
        with pytest.raises(InvalidLabel):
            small_d_diagonal(1, [2], [0.5])

    def test_matrices_refused_above_validated_range(self):
        # the exact-oracle checks above stop at 2j = 90; one step beyond is
        # refused before anything is allocated
        assert SMALL_D_MAX_TWO_J == 90
        with pytest.raises(InvalidLabel, match="two_j = 91 exceeds 90"):
            small_d_matrices(SMALL_D_MAX_TWO_J + 1, [0.5])

    @pytest.mark.parametrize("two_j", [-1, -3])
    def test_matrices_refused_below_zero(self, two_j):
        with pytest.raises(InvalidLabel, match=f"two_j = {two_j} must be non-negative"):
            small_d_matrices(two_j, [0.5])

    @pytest.mark.parametrize("two_j", [40, 90])
    def test_group_property_at_large_j(self, two_j):
        # d(a) is orthogonal and d(a) d(b) = d(a + b), far above the
        # matrix-exponential check's 2j = 8
        a, b = 0.7, 1.9
        da, db, dab = small_d_matrices(two_j, [a, b, a + b])
        assert np.abs(da @ da.T - np.eye(two_j + 1)).max() <= 1e-14
        assert np.abs(da @ db - dab).max() <= 1e-14


class TestRotationMatrix:
    def test_identity_at_zero(self):
        labels = [AngMomLabel(3, m) for m in (3, 1, -1, -3)] + [AngMomLabel(1, 1)]
        assert np.array_equal(rotation_matrix(labels, 0.0), np.eye(5))

    def test_single_shell_block(self):
        labels = [AngMomLabel(1, 1), AngMomLabel(1, -1)]
        got = rotation_matrix(labels, math.pi / 2)
        ref = small_d_expm(1, math.pi / 2)
        assert np.abs(got - ref).max() <= 1e-14

    def test_two_shells_block_diagonal(self):
        labels = [AngMomLabel(1, 1), AngMomLabel(1, -1), AngMomLabel(1, 1), AngMomLabel(1, -1)]
        shells = ["a", "a", "b", "b"]
        got = rotation_matrix(labels, 0.8, shells=shells)
        assert np.array_equal(got[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(got[2:, :2], np.zeros((2, 2)))
        # same j but different shell tags stay uncoupled even with defaults absent
        assert got[0, 2] == 0.0

    def test_stack_matches_single_angles(self):
        labels = [AngMomLabel(3, m) for m in (1, -3, 3)] + [AngMomLabel(1, -1), AngMomLabel(1, 1)]
        betas = np.array([0.0, 0.4, 1.9, 3.0])
        stack = rotation_matrix(labels, betas)
        assert stack.shape == (4, 5, 5)
        for beta, mat in zip(betas, stack):
            assert np.array_equal(mat, rotation_matrix(labels, float(beta)))
            want = [[wigner_small_d(a.two_j, a.two_m, b.two_m, beta) if a.two_j == b.two_j
                     else 0.0 for b in labels] for a in labels]
            assert np.abs(mat - want).max() <= 1e-14


class TestLadder:
    def test_annihilation_edges(self):
        assert ladder_apply("+", AngMomLabel(2, 2)) == (0.0, None)
        assert ladder_apply("-", AngMomLabel(2, -2)) == (0.0, None)

    def test_raising_example(self):
        coeff, label = ladder_apply("+", AngMomLabel(2, 0))
        assert coeff == pytest.approx(math.sqrt(2))
        assert label == AngMomLabel(2, 2)

    def test_lowering_spin_half(self):
        coeff, label = ladder_apply("-", AngMomLabel(1, 1))
        assert coeff == pytest.approx(1.0)
        assert label == AngMomLabel(1, -1)

    @given(st.integers(0, 12), st.integers())
    def test_lower_after_raise_coefficient(self, two_j, m_seed):
        if two_j == 0:
            return
        two_m = (m_seed % (two_j + 1)) * 2 - two_j
        two_m += (two_j + two_m) % 2  # fix parity
        if abs(two_m) > two_j:
            return
        up, lab = ladder_apply("+", AngMomLabel(two_j, two_m))
        if lab is None:
            assert two_m == two_j
            return
        down, back = ladder_apply("-", lab)
        assert back == AngMomLabel(two_j, two_m)
        want = ((two_j - two_m) // 2) * ((two_j + two_m) // 2 + 1)
        assert up * down == pytest.approx(want, rel=1e-13)


class TestClebschGordan:
    def test_stretched(self):
        assert clebsch_gordan(1, 1, 1, 1, 2, 2) == pytest.approx(1.0)

    def test_singlet_component(self):
        assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2))
        assert clebsch_gordan(1, -1, 1, 1, 0, 0) == pytest.approx(-1 / math.sqrt(2))

    def test_selection_rules(self):
        assert clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0       # M != m1+m2
        assert clebsch_gordan(1, 1, 1, 1, 6, 2) == 0.0       # triangle
        with pytest.raises(InvalidLabel):
            clebsch_gordan(1, 0, 1, 1, 2, 2)                 # parity

    def test_two_spin_half_coupling_matches_diagonalization(self):
        # diagonalize (J1 + J2)^2 on the M = 0 product space
        jsq = np.array([[1.0, 1.0], [1.0, 1.0]])  # (J1+J2)^2/hbar^2 - 1 on {up dn, dn up}
        w, v = np.linalg.eigh(jsq)
        triplet = v[:, np.argmax(w)]
        if triplet[0] < 0:
            triplet = -triplet
        assert clebsch_gordan(1, 1, 1, -1, 2, 0) == pytest.approx(triplet[0])
        assert clebsch_gordan(1, -1, 1, 1, 2, 0) == pytest.approx(triplet[1])

    def test_column_orthonormality(self):
        for two_j1 in (1, 2, 3, 5):
            for two_j2 in (1, 2, 3, 5):
                two_m = (two_j1 + two_j2) % 2
                js = range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
                for tja in js:
                    if abs(two_m) > tja:
                        continue
                    for tjb in js:
                        if abs(two_m) > tjb:
                            continue
                        acc = 0.0
                        for two_m1 in range(-two_j1, two_j1 + 1, 2):
                            two_m2 = two_m - two_m1
                            if abs(two_m2) > two_j2:
                                continue
                            acc += (clebsch_gordan(two_j1, two_m1, two_j2, two_m2, tja, two_m)
                                    * clebsch_gordan(two_j1, two_m1, two_j2, two_m2, tjb, two_m))
                        want = 1.0 if tja == tjb else 0.0
                        assert acc == pytest.approx(want, abs=1e-12)


class TestJacobi:
    def test_all_degrees_from_one_pass(self):
        x = np.linspace(-1, 1, 7)
        table = jacobi_polynomials(9, 0, 5, x)
        assert table.shape == (10, 7)
        for n in range(10):
            assert np.array_equal(table[n], jacobi_polynomial(n, 0, 5, x))
        exact = jacobi_polynomials(4, 1, 2, Fraction(1, 3))
        assert exact[-1] == jacobi_polynomial(4, 1, 2, Fraction(1, 3))

    def test_degree_zero(self):
        assert jacobi_polynomial(0, 0.3, 1.7, 0.25) == 1

    def test_degree_one_example(self):
        # P_1^{(0,2)}(x) = 2x - 1 at x = 1
        assert jacobi_polynomial(1, 0, 2, 1.0) == pytest.approx(1.0)
        assert jacobi_polynomial(1, 0, 2, 0.25) == pytest.approx(-0.5)

    def test_legendre_special_case(self):
        # P_2^{(0,0)} is Legendre P2 = (3x^2-1)/2
        for x in (-0.7, 0.0, 0.4, 1.0):
            assert jacobi_polynomial(2, 0, 0, x) == pytest.approx((3 * x * x - 1) / 2)

    def test_series_definition_oracle(self):
        # P_n^{(a,b)}(x) = sum_s C(n+a, n-s) C(n+b, s) ((x-1)/2)^s ((x+1)/2)^(n-s)
        def series(n, a, b, x):
            acc = Fraction(0)
            for s in range(n + 1):
                acc += (Fraction(math.comb(n + a, n - s)) * math.comb(n + b, s)
                        * Fraction(x - 1, 2) ** s * Fraction(x + 1, 2) ** (n - s))
            return acc

        for n in range(6):
            for a, b in [(0, 0), (0, 2), (1, 3), (2, 1)]:
                for x in (Fraction(-1, 2), Fraction(0), Fraction(3, 4), Fraction(1)):
                    got = jacobi_polynomial(n, Fraction(a), Fraction(b), x)
                    assert got == series(n, a, b, x)


class TestHypergeometric:
    def test_binomial_collapse(self):
        # 2F1(-j, b; b; z) = (1-z)^j, zero at z = 1
        for j in range(1, 7):
            assert hypergeom_2f1_terminating(-j, 3.5, 3.5, 1.0) == pytest.approx(0.0, abs=1e-15)
            z = Fraction(1, 3)
            assert hypergeom_2f1_terminating(-j, Fraction(7, 2), Fraction(7, 2), z) == (
                (1 - z) ** j)

    def test_empty_series(self):
        assert hypergeom_2f1_terminating(0, 4.2, -9.9, 0.77) == 1

    def test_ladder_pattern_at_unity(self):
        # the pattern 2F1(-(j-m), 2j+(j-m)+1; 2j+2; 1) vanishes, exactly
        for two_j, two_m in [(2, 0), (3, 1), (4, 2), (6, 0)]:
            n = (two_j - two_m) // 2
            if n == 0:
                continue
            val = hypergeom_2f1_terminating(-n, two_j + n + 1, two_j + 2, 1)
            assert val == 0

    def test_pole_detection(self):
        with pytest.raises(PoleInC):
            hypergeom_2f1_terminating(-4, 1.5, -2, 0.3)
        # pole beyond termination is harmless
        assert hypergeom_2f1_terminating(-2, 1.0, -5, 1.0) is not None

    def test_requires_nonpositive_integer(self):
        with pytest.raises(ValueError):
            hypergeom_2f1_terminating(1, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            hypergeom_2f1_terminating(-1.5, 1.0, 2.0, 0.5)


class TestGaussLegendreCos:
    @pytest.mark.parametrize("npoints", [1, 2, 3, 4, 19, 31, 46])
    def test_integrates_every_power_of_cos_exactly(self, npoints):
        rule = gauss_legendre_cos(npoints)
        x = np.cos(rule.nodes)
        for k in range(2 * npoints):
            exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
            assert abs(float(np.sum(rule.weights * x ** k)) - exact) <= 1e-15

    def test_nodes_ascend_inside_the_interval(self):
        # a Newton step that lands on a neighbouring root would repeat a node
        for npoints in (1, 2, 5, 19, 46, 128, 256):
            rule = gauss_legendre_cos(npoints)
            assert np.all(np.diff(rule.nodes) > 0)
            assert rule.nodes[0] > 0 and rule.nodes[-1] < math.pi
            assert np.array_equal(rule.weights, rule.weights[::-1])

    def test_single_point(self):
        rule = gauss_legendre_cos(1)
        assert (rule.nodes[0], rule.weights[0]) == (math.pi / 2, 2.0)

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            gauss_legendre_cos(0)
