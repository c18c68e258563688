import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from amproj import lalg
from amproj.lalg import (DimensionMismatch, DuplicateColumn, SingularMatrix,
                         SizeLimitExceeded, adjugate, brute_force_determinant, cofactors,
                         determinant, eliminate_columns, lu_factor, replaced_determinant,
                         solve_columns)


def test_lu_identity_is_trivial():
    lu = lu_factor(np.eye(3))
    assert np.array_equal(lu.lu, np.eye(3))
    assert lu.parity == 1
    assert determinant(lu) == 1.0


def test_lu_pivoting_swaps_rows():
    lu = lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lu.parity == -1
    assert determinant(lu) == -1.0


def test_lu_det_via_factors():
    lu = lu_factor(np.array([[2.0, 1.0], [4.0, 3.0]]))
    assert determinant(lu) == pytest.approx(2.0, abs=1e-14)
    assert determinant(lu) == pytest.approx(
        brute_force_determinant([[2.0, 1.0], [4.0, 3.0]]), abs=1e-14)


def test_lu_reconstruction_residual(rng):
    for n in (2, 5, 9, 17):
        a = rng.uniform(-1, 1, (n, n))
        lu = lu_factor(a)
        lower = np.tril(lu.lu, -1) + np.eye(n)
        upper = np.triu(lu.lu)
        resid = np.abs(a[lu.piv] - lower @ upper).max()
        assert resid <= 1e-12 * n * np.abs(a).max()


def test_lu_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((2, 3)))


def test_singular_raises_unless_allowed():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        lu_factor(a)
    lu = lu_factor(a, allow_singular=True)
    assert lu.singular
    assert determinant(lu) == 0.0
    with pytest.raises(SingularMatrix):
        solve_columns(lu, np.array([[1.0, 0.0]]))


def test_determinant_examples():
    assert determinant(lu_factor(np.eye(4))) == 1.0
    assert determinant(lu_factor(np.diag([2.0, 3.0, 4.0]))) == pytest.approx(24.0)
    assert determinant(lu_factor(np.array([[1.0, 2.0], [3.0, 4.0]]))) == pytest.approx(
        -2.0, abs=1e-14)


def test_solve_columns_examples():
    assert np.allclose(solve_columns(lu_factor(np.eye(2)), [[3.0, 4.0]]).values, [[3, 4]])
    x = solve_columns(lu_factor([[1.0, 2.0], [3.0, 4.0]]), [[5.0, 6.0]])
    assert np.allclose(x.values, [[-4.0, 4.5]], atol=1e-13)
    x = solve_columns(lu_factor(np.diag([2.0, 3.0, 4.0])), [[1, 1, 1], [2, 0, 1]])
    assert np.allclose(x.values, [[0.5, 1 / 3, 0.25], [1.0, 0.0, 0.25]])


def test_solve_columns_residual_invariant(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, 4))
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (s, n))
        table = solve_columns(lu_factor(a), b)
        resid = np.abs(a @ table.values.T - b.T).max()
        xmax = max(np.abs(table.values).max(), 1.0)
        assert resid <= 1e-10 * n * np.abs(a).max() * xmax


def test_replaced_determinant_examples():
    lu = lu_factor(np.eye(3))
    t = solve_columns(lu, [[0.0, 5.0, 0.0]])
    assert replaced_determinant(determinant(lu), t, [0], [1]) == pytest.approx(5.0)

    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    lu = lu_factor(a)
    t = solve_columns(lu, [[5.0, 6.0]])
    got = replaced_determinant(determinant(lu), t, [0], [1])
    assert got == pytest.approx(-9.0, abs=1e-12)
    assert got == pytest.approx(brute_force_determinant([[1.0, 5.0], [3.0, 6.0]]), abs=1e-12)

    a = np.diag([2.0, 3.0, 4.0])
    lu = lu_factor(a)
    t = solve_columns(lu, [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
    got = replaced_determinant(determinant(lu), t, [0, 1], [0, 2])
    sub = a.copy()
    sub[:, 0] = [1, 1, 1]
    sub[:, 2] = [2, 0, 1]
    assert got == pytest.approx(-3.0, abs=1e-12)
    assert got == pytest.approx(brute_force_determinant(sub), abs=1e-12)


def test_replaced_determinant_errors():
    lu = lu_factor(np.eye(3))
    t = solve_columns(lu, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
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
    assert abs(bf - determinant(lu_factor(a))) <= 1e-10 * max(abs(bf), 1e-2)


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
        lu = lu_factor(a, allow_singular=True)
        if lu.singular:
            continue
        det = determinant(lu)
        table = solve_columns(lu, b)
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
    lu = lu_factor(a)
    table = solve_columns(lu, b)
    got = replaced_determinant(determinant(lu), table, list(range(n)), list(range(n)))
    want = brute_force_determinant(b)
    assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


@given(st.integers(0, 2 ** 31 - 1))
def test_classical_cramer_reduction(seed):
    """s = 1: det(A) x(k, i) equals the column-substituted determinant."""
    r = np.random.default_rng(seed)
    n = int(r.integers(2, 7))
    a = r.uniform(-1, 1, (n, n))
    lu = lu_factor(a, allow_singular=True)
    assume(not lu.singular)
    b = r.uniform(-1, 1, (1, n))
    det = determinant(lu)
    table = solve_columns(lu, b)
    i = int(r.integers(0, n))
    want = brute_force_determinant(_substituted(a, b, [0], [i]))
    assert abs(det * table.values[0, i] - want) <= max(1e-10 * abs(want), 1e-12)


@given(st.integers(0, 2 ** 31 - 1))
def test_minor_antisymmetry(seed):
    """Paired swaps leave the result unchanged; row-only swaps flip the sign."""
    r = np.random.default_rng(seed)
    n = int(r.integers(3, 7))
    a = r.uniform(-1, 1, (n, n))
    lu = lu_factor(a, allow_singular=True)
    assume(not lu.singular)
    b = r.uniform(-1, 1, (2, n))
    det = determinant(lu)
    table = solve_columns(lu, b)
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
    det = determinant(lu_factor(m))
    assert np.allclose(m @ adjugate(m), det * np.eye(4), atol=1e-12)


class TestStacks:
    def _stack(self, rng):
        stack = rng.uniform(-1, 1, (5, 4, 4))
        stack[2] = np.outer([1.0, 2.0, 0.5, -1.0], [1.0, -1.0, 3.0, 2.0])  # rank one
        stack[4] = 0.0
        return stack

    def test_stack_matches_single_calls(self, rng):
        stack = self._stack(rng)
        lu = lu_factor(stack, allow_singular=True)
        assert lu.flagged.tolist() == [False, False, True, False, True]
        assert lu.singular
        dets = determinant(lu)
        for q, a in enumerate(stack):
            one = lu_factor(a, allow_singular=True)
            assert one.singular == lu.flagged[q]
            assert np.array_equal(one.lu, lu.lu[q]) and np.array_equal(one.piv, lu.piv[q])
            assert one.parity == lu.parity[q]
            assert one.smallest_pivot == lu.smallest_pivot[q]
            assert determinant(one) == dets[q]
        assert dets[2] == 0.0 and dets[4] == 0.0

    def test_stack_solve_matches_single_calls(self, rng):
        regular = self._stack(rng)[[0, 1, 3]]
        lu = lu_factor(regular)
        assert not lu.singular
        rhs = rng.uniform(-1, 1, (3, 2, 4))
        table = solve_columns(lu, rhs)
        assert table.values.shape == (3, 2, 4)
        for q in range(3):
            one = solve_columns(lu_factor(regular[q]), rhs[q]).values
            assert np.abs(one - table.values[q]).max() <= 1e-14

    def test_flagged_member_rules(self, rng):
        stack = self._stack(rng)
        with pytest.raises(SingularMatrix, match="of the stack"):
            lu_factor(stack)
        with pytest.raises(SingularMatrix):
            solve_columns(lu_factor(stack, allow_singular=True), np.zeros((5, 1, 4)))


class TestEliminateColumns:
    """One column Gauss-Jordan pass against lu_factor(A^T) and solve_columns."""

    def _stack(self, rng):
        c = rng.uniform(-1, 1, (8, 7, 4))
        c[1] = rng.integers(-1, 2, (7, 4))  # exact |.| ties
        c[2] = rng.integers(-2, 3, (7, 4))
        c[3, :, 1] = 0.0  # an exactly zero column
        c[4, :, 3] = c[4, :, 0] - 2.0 * c[4, :, 2]  # rank n - 1
        c[5] = rng.integers(-2, 3, (7, 2)) @ rng.integers(-2, 3, (2, 4))  # rank n - 2
        c[6] = 0.0
        return c, rng.permutation(7)[:4]

    def test_matches_lu_factor_bit_for_bit(self, rng):
        for _ in range(20):
            c, rows = self._stack(rng)
            det, flagged, smallest, x = eliminate_columns(c, rows)
            lu = lu_factor(c[:, rows].transpose(0, 2, 1), allow_singular=True)
            assert np.array_equal(det, determinant(lu))
            assert np.array_equal(flagged, lu.flagged)
            assert np.array_equal(smallest, lu.smallest_pivot)
            assert flagged[3:7].all() and not flagged[[0, 7]].any()
            assert not x[flagged].any()
            regular = np.flatnonzero(~flagged)
            want = solve_columns(lu_factor(c[regular][:, rows].transpose(0, 2, 1)),
                                 c[regular]).values
            assert np.all(np.abs(x[regular] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            # each member is eliminated on its own
            for q in range(len(c)):
                one = eliminate_columns(c[q:q + 1], rows)
                assert all(np.array_equal(a[0], b[q]) for a, b in zip(one, (det, flagged,
                                                                             smallest, x)))

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
