"""Dense real linear algebra with a shared-factorization replaced-column engine.

One factorization of A answers every "determinant of A with some columns
replaced" query: if x(k, .) solves A x = b_k, then the determinant of A with
columns i_1..i_s replaced by b_1..b_s equals

    det(A) * det[ x(k_a, i_b) ]_{a,b=1..s}

so after one O(n^3) factorization (`eliminate_columns` gives det(A), the
singularity flag and the whole table at once; `solution_table` wraps it for
one A and its right-hand sides) each replaced determinant costs an s x s
minor.  Every solve, determinant and singularity decision of the package,
the kernel sweep's included, reads that one factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS

__all__ = [
    "SingularMatrix",
    "DimensionMismatch",
    "DuplicateColumn",
    "SizeLimitExceeded",
    "SolutionTable",
    "as_square_matrix",
    "eliminate_columns",
    "solution_table",
    "replaced_determinant",
    "brute_force_determinant",
    "canonical_form",
]

BRUTE_FORCE_LIMIT = 10


class SingularMatrix(ValueError):
    """A matrix's s_min / s_max fell below the singularity threshold."""


class DimensionMismatch(ValueError):
    """Shapes of the inputs are inconsistent."""


class DuplicateColumn(ValueError):
    """The same column position was requested twice."""


class SizeLimitExceeded(ValueError):
    """Input above the brute-force oracle's size, or a state whose exact beta rule needs more
    than spectrum.MAX_POINTS nodes (`project spectrum` exit 4)."""


def as_square_matrix(a) -> np.ndarray:
    """Validate and return a as a float square matrix, or a stack of them.

    A stack carries its matrices on the last two axes (shape (Q, n, n));
    the copy is not guaranteed.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class SolutionTable:
    """Solutions x(k, i) of A x(k, .) = b_k for right-hand sides k = 0..s-1."""

    s: int
    n: int
    values: np.ndarray  # shape (s, n)

    def __post_init__(self):
        if self.values.shape != (self.s, self.n):
            raise DimensionMismatch(
                f"solution table shape {self.values.shape} != ({self.s}, {self.n})")


def eliminate_columns(c, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(det, flagged, smallest, C A^{-1}) of a (Q, N, n) stack C and A = C[:, rows].

    One batched LAPACK det and inverse.  As ||A||_F >= s_max, `smallest` =
    |det A| / ||A||_F^(n-1) <= s_min, so |det A| >= tau ||A||_F^n (tau =
    singular_pivot_factor) certifies s_min >= tau s_max; the other members take
    an SVD, which makes `smallest` exact and flags s_min < tau s_max (at least
    the smallest subnormal).  A flagged member has det 0 and zero rows outside
    `rows`; the `rows` rows are exactly the identity.  Overflows are silent.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 3 or c.shape[-1] != len(rows) or not len(rows):
        raise DimensionMismatch(f"{len(rows)} rows do not select a square block of {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("matrix entries must be finite")
    a, n, flagged = c[:, rows], len(rows), np.zeros(len(c), dtype=bool)
    tau, tiny = DEFAULTS.singular_pivot_factor, np.finfo(float).smallest_subnormal
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = np.linalg.det(a)
        norm = np.sqrt(np.einsum("qab,qab->q", a, a))
        smallest = np.abs(det) / norm ** (n - 1)
        check = np.flatnonzero(np.abs(det) < np.maximum(tau * norm ** n, tiny))
        if len(check):  # a stack whose determinants certify every member makes no SVD
            s = np.linalg.svd(a[check], compute_uv=False)
            smallest[check] = s[:, -1]
            flagged[check] = s[:, -1] < np.maximum(tau * s[:, 0], tiny)
        if flagged.any():  # a flagged member is inverted as I
            a = np.where(flagged[:, None, None], np.eye(n), a)
        x = c @ np.linalg.inv(a)
    det[flagged] = 0.0
    x[flagged] = 0.0
    x[:, rows] = np.eye(n)
    return det, flagged, smallest, x


def solution_table(a, b) -> tuple[float, SolutionTable]:
    """(det(A), x) with A x(k, .) = b_k for every row b_k of b, from one factorization.

    b is an (s, n) array or a single n-vector.  The rows of C A^{-T} below the
    identity, for C = [A^T; B], are (A^{-1} b_k)^T.  Raises SingularMatrix
    when `eliminate_columns` flags A (s_min < tau s_max).
    """
    a = as_square_matrix(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a single matrix, got shape {a.shape}")
    n = a.shape[0]
    rhs = np.atleast_2d(np.asarray(b, dtype=float))
    if rhs.ndim != 2 or rhs.shape[1] != n:
        raise DimensionMismatch(f"right-hand sides of shape {rhs.shape} do not fit "
                                f"a matrix of order {n}")
    det, flagged, smallest, x = eliminate_columns(np.concatenate((a.T, rhs))[None], range(n))
    if flagged[0]:
        raise SingularMatrix(f"smallest singular value {smallest[0]:.3e} below "
                             f"{DEFAULTS.singular_pivot_factor:g} times the largest")
    return float(det[0]), SolutionTable(s=len(rhs), n=n, values=x[0, n:])


def _minor_det(sub: np.ndarray) -> float:
    s = sub.shape[0]
    if s == 1:
        return float(sub[0, 0])
    if s == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    return float(eliminate_columns(sub.T[None], range(s))[0][0])


def replaced_determinant(det_a: float, x: SolutionTable, rhs_rows, col_positions) -> float:
    """det(A) with columns col_positions replaced by right-hand sides rhs_rows.

    Evaluated as det(A) times the s x s minor x[rhs_rows, col_positions] of
    the solution table; positions are 0-based.  Column positions must be
    distinct (canonically increasing; a swapped order is the correspondingly
    reordered replacement).
    """
    rows = list(rhs_rows)
    cols = list(col_positions)
    if len(rows) != len(cols):
        raise DimensionMismatch(f"{len(rows)} right-hand sides but {len(cols)} column positions")
    if len(set(cols)) != len(cols):
        raise DuplicateColumn(f"repeated column position in {cols}")
    if any(not 0 <= r < x.s for r in rows) or any(not 0 <= c < x.n for c in cols):
        raise IndexError("row or column position out of range")
    if not rows:
        return det_a
    return det_a * _minor_det(x.values[np.ix_(rows, cols)])


def brute_force_determinant(a) -> float:
    """Laplace (cofactor) expansion, for test oracles only.

    Expands row by row, sharing minors across column subsets; still
    exponential (O(2^n n)) and limited to n <= 10.
    """
    a = as_square_matrix(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a single matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitExceeded(f"brute-force determinant limited to n <= {BRUTE_FORCE_LIMIT}")
    rows = a.tolist()
    level = {0: 1.0}  # column-subset mask -> minor of the first popcount(mask) rows
    for r in range(n):
        nxt: dict[int, float] = {}
        row = rows[r]
        for mask, minor in level.items():
            pos = 0  # insertion position of the new column within the subset
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    pos += 1
                    continue
                term = row[j] * minor
                if (r + pos) % 2:
                    term = -term
                key = mask | bit
                nxt[key] = nxt.get(key, 0.0) + term
        level = nxt
    return level[(1 << n) - 1]


def canonical_form(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, w) with A = U diag(s) V^T and weights w, for a matrix or each of a stack.

    w_ab = sgn prod_{c not in {a, b}} s_c and w_aa = sgn prod_{c != a} s_c,
    with sgn = det(U) det(V).  Then det(A) A^{-1} = V diag(w_aa) U^T, and the
    pair part det(A) (A^{-1}_{ca} A^{-1}_{db} - A^{-1}_{cb} A^{-1}_{da}) is
    sum_{e != f} w_ef V_ce V_df (U_ae U_bf - U_be U_af); both stay finite at
    any rank (the canonical basis of Doenau, PRC 58, 872 (1998)).
    """
    a = as_square_matrix(a)
    u, s, vt = np.linalg.svd(a)
    eye = np.eye(a.shape[-1], dtype=bool)
    others = ~(eye[:, None, :] | eye[None, :, :])  # [a, b, c]: c is neither a nor b
    sgn = np.sign(np.linalg.det(u) * np.linalg.det(vt))[..., None, None]
    return u, vt.swapaxes(-1, -2), sgn * np.where(others, s[..., None, None, :], 1.0).prod(-1)
