"""Angular-momentum special functions on doubled-integer labels.

Half-integer quantum numbers are carried as doubled integers (two_j, two_m)
so label arithmetic is exact.  The rotation convention is
R(beta) = exp(-i beta J_y) with Condon-Shortley phases, which makes every
small-d matrix element real.  Factorial ratios are evaluated with exact
Python integers and converted to float once per term.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np

__all__ = [
    "InvalidLabel",
    "AngMomLabel",
    "QuadratureRule",
    "SMALL_D_MAX_TWO_J",
    "small_d_matrices",
    "small_d_diagonal",
    "rotation_matrix",
    "ladder_apply",
    "clebsch_gordan",
    "gauss_legendre_cos",
]


class InvalidLabel(ValueError):
    """two_j/two_m fail the parity or range constraints."""


# The largest 2j whose small-d matrices the exact-oracle tests cover.
SMALL_D_MAX_TWO_J = 90


def check_label(two_j: int, two_m: int) -> None:
    if two_j < 0:
        raise InvalidLabel(f"two_j = {two_j} must be non-negative")
    if (two_j + two_m) % 2 != 0:
        raise InvalidLabel(f"two_j = {two_j} and two_m = {two_m} differ in parity")
    if abs(two_m) > two_j:
        raise InvalidLabel(f"|two_m| = {abs(two_m)} exceeds two_j = {two_j}")


def check_small_d(two_j: int) -> None:
    """InvalidLabel below 0 and above 2j = SMALL_D_MAX_TWO_J, where no small-d matrix is built."""
    if two_j < 0:
        raise InvalidLabel(f"two_j = {two_j} must be non-negative")
    if two_j > SMALL_D_MAX_TWO_J:
        raise InvalidLabel(f"two_j = {two_j} exceeds {SMALL_D_MAX_TWO_J}, the largest "
                           f"2j with validated small-d matrices")


@dataclass(frozen=True)
class AngMomLabel:
    """A |j m> label with j, m stored doubled."""

    two_j: int
    two_m: int

    def __post_init__(self):
        check_label(self.two_j, self.two_m)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes on (0, pi), ascending, and their weights.

    The weights of `gauss_legendre_cos` integrate sin(beta) d(beta) and sum
    to 2.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return len(self.nodes)


@functools.lru_cache(maxsize=None)
def _delta(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """(Delta, phase): Delta = d^j(pi/2), and (-i)^(m' - m) split as (re, im).

    At beta = pi/2 every power in Wigner's sum is 2^-j, which leaves
    Delta_{m'm} = (-1)^(m'-m) c sqrt(C(2j, j+m) / (C(2j, j+m') 4^j)), c the
    x^(j-m') coefficient of (1 - x)^(j+m) (1 + x)^(j-m).  The c are exact
    integers, each column's from the last by one factor (1 - x)/(1 + x);
    each squared entry is rounded once, then square-rooted.
    """
    dim = two_j + 1
    binom = [math.comb(two_j, k) for k in range(dim)]
    poly = binom  # (1 + x)^(2j), the column m = -j
    delta = np.empty((dim, dim))
    for b in range(dim):
        for a in range(dim):
            c = poly[two_j - a]
            mag = math.sqrt(c * c * binom[b] / (binom[a] << two_j))
            delta[a, b] = mag if (c >= 0) == ((a - b) % 2 == 0) else -mag
        quotient = list(itertools.accumulate(poly, lambda q, p: p - q))  # poly / (1 + x)
        poly = [q - r for q, r in zip(quotient, [0] + quotient)]  # times (1 - x)
    shift = np.subtract.outer(np.arange(dim), np.arange(dim))
    phase = np.stack((np.cos(np.pi / 2 * shift).round(), -np.sin(np.pi / 2 * shift).round()))
    delta.flags.writeable = phase.flags.writeable = False
    return delta, phase


def small_d_matrices(two_j: int, betas) -> np.ndarray:
    """d^j(beta) at every beta: shape (Q, 2j+1, 2j+1), m' and m ascending.

    One matrix per j serves every node (Feng, Wang, Yang and Jin, PRE 92,
    043307 (2015)): Delta = d^j(pi/2) gives J_x = Delta diag(m) Delta^T, so
    d^j(beta) = Re (-i)^(m'-m) [Delta (cos(beta m) - i sin(beta m)) Delta^T],
    which takes two real matrix products per node.  Delta is built from
    exact integers, so unlike the factorial sum in floats this loses no
    digits to cancellation at large j.  beta = 0 gives the identity exactly.
    Raises InvalidLabel for 2j < 0 and above 2j = SMALL_D_MAX_TWO_J.
    """
    check_small_d(two_j)
    betas = np.asarray(betas, dtype=float).reshape(-1)
    delta, (re, im) = _delta(two_j)
    angle = betas[:, None] * (np.arange(-two_j, two_j + 1, 2) / 2.0)
    cos_part = (delta * np.cos(angle)[:, None, :]) @ delta.T
    sin_part = (delta * np.sin(angle)[:, None, :]) @ delta.T
    out = re * cos_part + im * sin_part
    out[betas == 0.0] = np.eye(two_j + 1)
    return out


def small_d_diagonal(two_m: int, two_j_list, betas) -> np.ndarray:
    """d^J_{MM}(beta) for every 2J of two_j_list at every beta: shape (len, Q).

    d^J_{MM}(beta) = cos(beta/2)^{2|M|} P^{(0, 2|M|)}_{J-|M|}(cos beta); one
    upward pass of the Jacobi recurrence, run in s = sin(beta/2)^2 so that
    no digit of 1 - cos(beta) is lost near beta = 0, serves the whole list.
    """
    two_j_list = list(two_j_list)
    for two_j in two_j_list:
        check_label(two_j, two_m)
    betas = np.asarray(betas, dtype=float).reshape(-1)
    b = abs(two_m)
    degrees = [(two_j - b) // 2 for two_j in two_j_list]
    poly = _jacobi_in_s(max(degrees, default=0), 0, b, np.sin(0.5 * betas) ** 2)
    return np.cos(0.5 * betas) ** b * poly[degrees]


def rotation_matrix(labels, beta, shells=None) -> np.ndarray:
    """Matrix of exp(-i beta J_y) over a list of AngMomLabel orbitals.

    J_y is block-diagonal in shells: entry (i, j) is a small-d element when
    the two orbitals share a shell tag and a j value, else exactly 0.  With
    shells omitted, orbitals are grouped by j alone.  A scalar beta gives one
    (N, N) matrix; an array of Q angles gives the (Q, N, N) stack, built
    from one small_d_matrices call per distinct j.
    """
    labels = list(labels)
    if not labels:
        raise InvalidLabel("orbital list must be non-empty")
    if shells is None:
        shells = [None] * len(labels)
    shells = list(shells)
    if len(shells) != len(labels):
        raise InvalidLabel("shells list must match the orbital list")
    betas = np.asarray(beta, dtype=float)
    groups: dict = {}
    for i, (label, shell) in enumerate(zip(labels, shells)):
        groups.setdefault((shell, label.two_j), []).append(i)
    blocks = {two_j: small_d_matrices(two_j, betas) for two_j in {k[1] for k in groups}}
    n = len(labels)
    out = np.zeros((betas.size, n, n))
    for (_, two_j), members in groups.items():
        rows = np.array(members)
        slots = np.array([(labels[i].two_m + two_j) // 2 for i in members])
        out[:, rows[:, None], rows] = blocks[two_j][:, slots[:, None], slots]
    return out[0] if betas.ndim == 0 else out


def ladder_apply(direction: str, state: AngMomLabel) -> tuple[float, AngMomLabel | None]:
    """Apply J_+ or J_- to |j m>.

    Returns (coefficient, new label); the label is None and the coefficient
    0 when the state is annihilated (m = +j under J_+, m = -j under J_-).
    """
    if direction not in ("+", "-"):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    two_j, two_m = state.two_j, state.two_m
    if direction == "+":
        if two_m == two_j:
            return 0.0, None
        # (j - m)(j + m + 1)
        coeff = ((two_j - two_m) // 2) * ((two_j + two_m) // 2 + 1)
        return math.sqrt(coeff), AngMomLabel(two_j, two_m + 2)
    if two_m == -two_j:
        return 0.0, None
    coeff = ((two_j + two_m) // 2) * ((two_j - two_m) // 2 + 1)
    return math.sqrt(coeff), AngMomLabel(two_j, two_m - 2)


def clebsch_gordan(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                   two_j: int, two_m: int) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1 j2 m2 | J M>.

    Racah's closed-form sum over exact integers.  Returns 0 for M != m1+m2
    or a violated triangle condition.
    """
    check_label(two_j1, two_m1)
    check_label(two_j2, two_m2)
    check_label(two_j, two_m)
    if two_m1 + two_m2 != two_m:
        return 0.0
    if not abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2:
        return 0.0
    if (two_j1 + two_j2 - two_j) % 2 != 0:
        return 0.0
    f = math.factorial
    a = (two_j1 + two_j2 - two_j) // 2
    b = (two_j1 - two_j2 + two_j) // 2
    c = (-two_j1 + two_j2 + two_j) // 2
    pref = Fraction(
        (two_j + 1) * f(a) * f(b) * f(c)
        * f((two_j + two_m) // 2) * f((two_j - two_m) // 2)
        * f((two_j1 - two_m1) // 2) * f((two_j1 + two_m1) // 2)
        * f((two_j2 - two_m2) // 2) * f((two_j2 + two_m2) // 2),
        f((two_j1 + two_j2 + two_j) // 2 + 1),
    )
    t1 = (two_j - two_j2 + two_m1) // 2
    t2 = (two_j - two_j1 - two_m2) // 2
    k_lo = max(0, -t1, -t2)
    k_hi = min(a, (two_j1 - two_m1) // 2, (two_j2 + two_m2) // 2)
    total = Fraction(0)
    for k in range(k_lo, k_hi + 1):
        den = (f(k) * f(a - k) * f((two_j1 - two_m1) // 2 - k)
               * f((two_j2 + two_m2) // 2 - k) * f(t1 + k) * f(t2 + k))
        total += Fraction(-1 if k % 2 else 1, den)
    if total == 0:
        return 0.0
    mag = math.sqrt(float(pref * total * total))
    return mag if total > 0 else -mag


def _jacobi_in_s(n_max: int, alpha, beta_param, s):
    """[P_0, ..., P_{n_max}]^{(alpha, beta)}(1 - 2s) from one pass of the recurrence, in s.

    Exact over Fractions; an array s gives a (n_max + 1,) + s.shape array, else a list.
    """
    if n_max < 0:
        raise ValueError("degree must be non-negative")
    out = [s * 0 + 1]
    ab = alpha + beta_param
    if n_max >= 1:
        out.append((alpha + 1) - (ab + 2) * s)
    for m in range(2, n_max + 1):
        c1 = 2 * m * (m + ab) * (2 * m + ab - 2)
        k = (2 * m + ab) * (2 * m + ab - 2)
        c2 = (2 * m + ab - 1) * ((k + alpha * alpha - beta_param * beta_param) - 2 * k * s)
        c3 = 2 * (m + alpha - 1) * (m + beta_param - 1) * (2 * m + ab)
        out.append((c2 * out[-1] - c3 * out[-2]) / c1)
    return np.array(out) if isinstance(s, np.ndarray) else out


# pi to 50 digits, for the 34-digit node solve below
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _cos_sin(t: Decimal) -> tuple[Decimal, Decimal]:
    """(cos t, sin t) for 0 <= t <= pi/2, by their Taylor series at the context precision."""
    cos, sin, term = Decimal(1), Decimal(0), Decimal(1)
    tiny = Decimal(10) ** -(getcontext().prec + 2)
    n = 0
    while term > tiny:
        n += 1
        term = term * t / n
        signed = -term if n % 4 in (2, 3) else term
        if n % 2:
            sin += signed
        else:
            cos += signed
    return cos, sin


@functools.lru_cache(maxsize=32)
def gauss_legendre_cos(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule in x = cos(beta), its nodes held as the angles beta.

    sum_q w_q f(beta_q) equals the integral of f(beta) sin(beta) over
    [0, pi] whenever f is a polynomial of degree <= 2 npoints - 1 in
    cos(beta): the sin(beta) measure is in the weights, which sum to 2.
    Nodes ascend in beta.  Every angle and weight is the correctly rounded
    float of a 34-digit solve: Newton on P_n(x) = 0 from Tricomi's estimate,
    then one Newton step on cos(beta) = x from the float arccos; the nodes
    with x < 0 mirror the others as beta -> pi - beta.  Built once per
    size; the arrays are read-only.
    """
    if npoints < 1:
        raise ValueError("need at least one quadrature point")
    half = []
    with localcontext() as ctx:
        ctx.prec = 34
        for i in range((npoints + 1) // 2):
            # Tricomi's estimate of the i-th largest root
            x = Decimal((1 - (npoints - 1) / (8 * npoints ** 3))
                        * math.cos(math.pi * (4 * i + 3) / (4 * npoints + 2)))
            for _ in range(10):
                p_prev, p = Decimal(1), x  # P_{k-1}(x), P_k(x)
                for k in range(2, npoints + 1):
                    p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
                # (1 - x^2) P_n'(x) = n (P_{n-1} - x P_n)
                slope = npoints * (p_prev - x * p)
                step = p * (1 - x * x) / slope
                x -= step
                if abs(step) < Decimal("1e-30"):  # so x is now good to the last digit
                    break
            beta = Decimal(math.acos(float(x)))
            cos, sin = _cos_sin(beta)
            half.append((beta + (cos - x) / sin, 2 * (1 - x * x) / (slope * slope)))
        mirrored = [(_PI - beta, w) for beta, w in reversed(half[:npoints // 2])]
        nodes = np.array([float(beta) for beta, _ in half + mirrored])
        weights = np.array([float(w) for _, w in half + mirrored])
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)
