import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from amproj.lalg import (DimensionMismatch, DuplicateColumn, SingularMatrix,
                         SizeLimitExceeded, brute_force_determinant,
                         eliminate_columns, replaced_determinant, solution_table)
from amproj.config import DEFAULTS
from tests.support import adjugate, cofactors, near_singular


def _det(a) -> float:
    """det(A) from one eliminate_columns of A^T."""
    a = np.asarray(a, dtype=float)
    return float(eliminate_columns(a.T[None], range(len(a)))[0][0])


def test_lu_identity_is_trivial():
    det, flagged, smallest, x = eliminate_columns(np.eye(3)[None], range(3))
    assert np.array_equal(x[0], np.eye(3))
    # smallest is the bound |det A| / ||A||_F^(n-1) on s_min, which is 1/3 for I_3
    assert det[0] == 1.0 and not flagged[0] and smallest[0] == pytest.approx(1 / 3, rel=1e-15)
    det, table = solution_table(np.eye(3), np.eye(3))
    assert det == 1.0 and np.array_equal(table.values, np.eye(3))


def test_lu_pivoting_swaps_rows():
    det, table = solution_table(np.array([[0.0, 1.0], [1.0, 0.0]]), [[2.0, 3.0]])
    assert det == -1.0
    assert np.array_equal(table.values, [[3.0, 2.0]])


def test_lu_det_via_factors():
    det = _det([[2.0, 1.0], [4.0, 3.0]])
    assert det == pytest.approx(2.0, abs=1e-14)
    assert det == pytest.approx(brute_force_determinant([[2.0, 1.0], [4.0, 3.0]]), abs=1e-14)


def test_lu_reconstruction_residual(rng):
    # the pivot block's own rows of C A^-1 reconstruct the identity
    for n in (2, 5, 9, 17):
        a = rng.uniform(-1, 1, (n, n))
        x = eliminate_columns(a[None], range(n))[3][0]
        resid = np.abs(x - np.eye(n)).max()
        assert resid <= 1e-12 * n * np.abs(a).max()


def test_lu_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        solution_table(np.array([[np.nan, 0.0], [0.0, 1.0]]), [[1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        solution_table(np.eye(2), [[1.0, np.inf]])
    with pytest.raises(DimensionMismatch):
        solution_table(np.ones((2, 3)), [[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        solution_table(np.eye(2), [[1.0, 0.0, 0.0]])


def test_singular_raises_unless_allowed():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix, match="below"):
        solution_table(a, np.array([[1.0, 0.0]]))
    # the factor itself flags the matrix instead: det 0, and the `rows` rows of
    # C A^-1 (here all of them) exactly the identity
    det, flagged, smallest, x = eliminate_columns(a.T[None], range(2))
    assert flagged[0] and det[0] == 0.0 and np.array_equal(x[0], np.eye(2))


def test_near_singular_matrix_is_flagged_on_its_singular_values(rng):
    # s_min / s_max = 5e-14: a pivot test (pivot < tau max|A|) let most such
    # matrices through, with x entries up to about 1e13; 1e-12 is regular
    for _ in range(20):
        with pytest.raises(SingularMatrix, match="smallest singular value"):
            solution_table(near_singular(rng, 5e-14), rng.uniform(-1, 1, (2, 4)))
        det, table = solution_table(near_singular(rng, 1e-12), rng.uniform(-1, 1, (2, 4)))
        assert det != 0.0 and np.isfinite(table.values).all()


def test_determinant_examples():
    assert _det(np.eye(4)) == 1.0
    assert _det(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0)
    assert _det(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(-2.0, abs=1e-14)


def test_solution_table_examples():
    assert np.allclose(solution_table(np.eye(2), [[3.0, 4.0]])[1].values, [[3, 4]])
    x = solution_table([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]])[1]
    assert np.allclose(x.values, [[-4.0, 4.5]], atol=1e-13)
    x = solution_table(np.diag([2.0, 3.0, 4.0]), [[1, 1, 1], [2, 0, 1]])[1]
    assert np.allclose(x.values, [[0.5, 1 / 3, 0.25], [1.0, 0.0, 0.25]])
    # a single right-hand side may be a vector
    assert solution_table(np.eye(2), [3.0, 4.0])[1].values.shape == (1, 2)


def test_solution_table_residual_invariant(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, 4))
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (s, n))
        table = solution_table(a, b)[1]
        resid = np.abs(a @ table.values.T - b.T).max()
        xmax = max(np.abs(table.values).max(), 1.0)
        assert resid <= 1e-10 * n * np.abs(a).max() * xmax


def test_replaced_determinant_examples():
    det, t = solution_table(np.eye(3), [[0.0, 5.0, 0.0]])
    assert replaced_determinant(det, t, [0], [1]) == pytest.approx(5.0)

    det, t = solution_table(np.array([[1.0, 2.0], [3.0, 4.0]]), [[5.0, 6.0]])
    got = replaced_determinant(det, t, [0], [1])
    assert got == pytest.approx(-9.0, abs=1e-12)
    assert got == pytest.approx(brute_force_determinant([[1.0, 5.0], [3.0, 6.0]]), abs=1e-12)

    a = np.diag([2.0, 3.0, 4.0])
    det, t = solution_table(a, [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
    got = replaced_determinant(det, t, [0, 1], [0, 2])
    sub = a.copy()
    sub[:, 0] = [1, 1, 1]
    sub[:, 2] = [2, 0, 1]
    assert got == pytest.approx(-3.0, abs=1e-12)
    assert got == pytest.approx(brute_force_determinant(sub), abs=1e-12)


def test_replaced_determinant_errors():
    t = solution_table(np.eye(3), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])[1]
    with pytest.raises(DimensionMismatch):
        replaced_determinant(1.0, t, [0], [0, 1])
    with pytest.raises(DuplicateColumn):
        replaced_determinant(1.0, t, [0, 1], [2, 2])
    with pytest.raises(IndexError):
        replaced_determinant(1.0, t, [0, 2], [0, 1])


def test_brute_force_examples():
    assert brute_force_determinant(np.eye(4)) == pytest.approx(1.0)
    assert brute_force_determinant([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)
    with pytest.raises(SizeLimitExceeded):
        brute_force_determinant(np.eye(11))


def test_brute_force_matches_lu(rng):
    a = rng.uniform(-1, 1, (5, 5))
    bf = brute_force_determinant(a)
    assert abs(bf - _det(a)) <= 1e-10 * max(abs(bf), 1e-2)


def _substituted(a, b, rows, cols):
    sub = np.array(a, dtype=float, copy=True)
    for r, c in zip(rows, cols):
        sub[:, c] = b[r]
    return sub


def test_replaced_vs_bruteforce_batch(rng):
    """The randomized generalized-Cramer property at unit-test scale."""
    for _ in range(60):
        n = int(rng.integers(2, 8))
        s = min(int(rng.integers(1, 4)), n)
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (s, n))
        try:
            det, table = solution_table(a, b)
        except SingularMatrix:
            continue
        cols = sorted(rng.choice(n, size=s, replace=False).tolist())
        got = replaced_determinant(det, table, list(range(s)), cols)
        want = brute_force_determinant(_substituted(a, b, range(s), cols))
        tol = 1e-10 * abs(want) if abs(want) >= 1.0 else 1e-12
        assert abs(got - want) <= max(tol, 1e-12)


def test_full_replacement_gives_det_b(rng):
    """Replacing every column turns det(A)*minor into det(B)."""
    n = 5
    a = rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n))
    det, table = solution_table(a, b)
    got = replaced_determinant(det, table, list(range(n)), list(range(n)))
    want = brute_force_determinant(b)
    assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


@given(st.integers(0, 2 ** 31 - 1))
def test_classical_cramer_reduction(seed):
    """s = 1: det(A) x(k, i) equals the column-substituted determinant."""
    r = np.random.default_rng(seed)
    n = int(r.integers(2, 7))
    a = r.uniform(-1, 1, (n, n))
    assume(_det(a) != 0.0)  # det = 0 exactly when A is flagged singular
    b = r.uniform(-1, 1, (1, n))
    det, table = solution_table(a, b)
    i = int(r.integers(0, n))
    want = brute_force_determinant(_substituted(a, b, [0], [i]))
    assert abs(det * table.values[0, i] - want) <= max(1e-10 * abs(want), 1e-12)


@given(st.integers(0, 2 ** 31 - 1))
def test_minor_antisymmetry(seed):
    """Paired swaps leave the result unchanged; row-only swaps flip the sign."""
    r = np.random.default_rng(seed)
    n = int(r.integers(3, 7))
    a = r.uniform(-1, 1, (n, n))
    assume(_det(a) != 0.0)
    b = r.uniform(-1, 1, (2, n))
    det, table = solution_table(a, b)
    cols = sorted(r.choice(n, size=2, replace=False).tolist())
    base = replaced_determinant(det, table, [0, 1], cols)
    paired = replaced_determinant(det, table, [1, 0], [cols[1], cols[0]])
    assert paired == pytest.approx(base, abs=1e-12, rel=1e-12)
    flipped = replaced_determinant(det, table, [1, 0], cols)
    assert flipped == pytest.approx(-base, abs=1e-12, rel=1e-12)


def test_adjugate_regular_and_singular():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    adj = adjugate(a)
    assert np.allclose(adj, [[4.0, -2.0], [-3.0, 1.0]], atol=1e-12)
    # rank-deficient: adjugate stays finite and satisfies A adj(A) = 0
    s = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
    adj = adjugate(s)
    assert np.isfinite(adj).all()
    assert np.abs(s @ adj).max() <= 1e-12
    # adjugate of a random matrix times the matrix gives det * I
    r = np.random.default_rng(3)
    m = r.uniform(-1, 1, (4, 4))
    det = _det(m)
    assert np.allclose(m @ adjugate(m), det * np.eye(4), atol=1e-12)


class TestStacks:
    def _stack(self, rng):
        stack = rng.uniform(-1, 1, (5, 4, 4))
        stack[2] = np.outer([1.0, 2.0, 0.5, -1.0], [1.0, -1.0, 3.0, 2.0])  # rank one
        stack[4] = 0.0
        return stack

    def test_stack_matches_single_calls(self, rng):
        stack = self._stack(rng)
        got = eliminate_columns(stack.transpose(0, 2, 1), range(4))
        assert got[1].tolist() == [False, False, True, False, True]
        for q, a in enumerate(stack):
            one = eliminate_columns(a.T[None], range(4))
            _assert_member_equal(one, got, q)
            assert one[0][0] == _det(a)
        assert got[0][2] == 0.0 and got[0][4] == 0.0

    def test_stack_solve_matches_single_calls(self, rng):
        regular = self._stack(rng)[[0, 1, 3]]
        rhs = rng.uniform(-1, 1, (3, 2, 4))
        det, flagged, _, x = eliminate_columns(
            np.concatenate((regular.transpose(0, 2, 1), rhs), axis=1), range(4))
        assert not flagged.any()
        for q in range(3):
            one_det, one = solution_table(regular[q], rhs[q])
            assert one_det == det[q]
            assert np.abs(one.values - x[q, 4:]).max() <= 1e-14

    def test_flagged_member_rules(self, rng):
        stack = self._stack(rng)
        det, flagged, smallest, x = eliminate_columns(stack.transpose(0, 2, 1), range(4))
        assert flagged.tolist() == [False, False, True, False, True]
        assert np.array_equal(x[flagged], np.broadcast_to(np.eye(4), (2, 4, 4)))
        assert not det[flagged].any()
        for q in np.flatnonzero(flagged):
            with pytest.raises(SingularMatrix, match=re.escape(f"{smallest[q]:.3e}")):
                solution_table(stack[q], np.zeros((1, 4)))


def _assert_member_equal(one, stack, q):
    """A member factored alone equals its stack member: det, flag and C A^-1 bitwise.

    `smallest` reads ||A||_F, whose summation order follows the stack's memory
    layout, so it agrees to rounding; at a member that took an SVD it is exact.
    """
    det, flagged, smallest, x = stack
    assert one[0][0] == det[q] and one[1][0] == flagged[q]
    assert np.array_equal(one[3][0], x[q])
    assert one[2][0] == pytest.approx(smallest[q], rel=1e-15, abs=0.0)


class TestEliminateColumns:
    """The stacked LAPACK factor against an SVD rank test, Laplace expansion and a solve."""

    def _stack(self, rng):
        c = rng.uniform(-1, 1, (8, 7, 4))
        c[1] = rng.integers(-1, 2, (7, 4))  # exact |.| ties
        c[2] = rng.integers(-2, 3, (7, 4))
        c[3, :, 1] = 0.0  # an exactly zero column
        c[4, :, 3] = c[4, :, 0] - 2.0 * c[4, :, 2]  # rank n - 1
        c[5] = rng.integers(-2, 3, (7, 2)) @ rng.integers(-2, 3, (2, 4))  # rank n - 2
        c[6] = 0.0
        return c, rng.permutation(7)[:4]

    def test_matches_svd_and_solve_oracle(self, rng):
        tau, tiny = DEFAULTS.singular_pivot_factor, np.finfo(float).smallest_subnormal
        for _ in range(20):
            c, rows = self._stack(rng)
            det, flagged, smallest, x = eliminate_columns(c, rows)
            a = c[:, rows]
            s = np.linalg.svd(a, compute_uv=False)
            assert np.array_equal(flagged, s[:, -1] < np.maximum(tau * s[:, 0], tiny))
            assert flagged[3:7].all() and not flagged[[0, 7]].any()
            # a lower bound on s_min, exact at a flagged member
            assert np.all(smallest <= s[:, -1] * (1 + 1e-12))
            assert np.all(np.abs(smallest - s[:, -1])[flagged] <= 1e-15 * s[flagged, 0])
            assert not det[flagged].any()
            others = np.setdiff1d(np.arange(7), rows)
            assert not x[flagged][:, others].any()
            assert np.array_equal(x[:, rows], np.broadcast_to(np.eye(4), (8, 4, 4)))
            regular = np.flatnonzero(~flagged)
            for q in regular:
                want = brute_force_determinant(a[q])
                assert abs(det[q] - want) <= 1e-12 * max(1.0, abs(want))
            # x A = C, so A^T x^T = C^T
            want = np.linalg.solve(c[regular][:, rows].transpose(0, 2, 1),
                                   c[regular].transpose(0, 2, 1)).transpose(0, 2, 1)
            assert np.all(np.abs(x[regular] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            # each member is factored on its own
            for q in range(len(c)):
                _assert_member_equal(eliminate_columns(c[q:q + 1], rows), (det, flagged,
                                                                           smallest, x), q)

    def test_input_rules(self):
        c = np.ones((2, 3, 2))
        with pytest.raises(DimensionMismatch):
            eliminate_columns(c, [0])
        with pytest.raises(DimensionMismatch):
            eliminate_columns(c[0], [0, 1])
        c[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            eliminate_columns(c, [0, 1])
        c[1, 2, 0] = 1.0
        eliminate_columns(c, [0, 1])
        assert np.array_equal(c, np.ones((2, 3, 2)))  # the input is not touched


def test_cofactors_match_brute_force(rng):
    a = rng.uniform(-1, 1, (5, 5))
    subsets, first = cofactors(a, 1)
    assert np.abs(first.T - adjugate(a)).max() <= 1e-12
    subsets, second = cofactors(a, 2)
    assert len(subsets) == 10
    for r, rows in enumerate(subsets):
        for c, cols in enumerate(subsets):
            keep_r = [i for i in range(5) if i not in rows]
            keep_c = [i for i in range(5) if i not in cols]
            want = brute_force_determinant(a[np.ix_(keep_r, keep_c)])
            sign = (-1) ** (sum(rows) + sum(cols))
            assert second[r, c] == pytest.approx(sign * want, abs=1e-12)
    # deleting every row leaves the empty minor, 1, with its sign
    assert cofactors(a[:2, :2], 2)[1].tolist() == [[1.0]]
    with pytest.raises(DimensionMismatch):
        cofactors(a[:1, :1], 2)
