"""Infinitesimal projection operators built from ladder-operator series.

Two families: the number-state extractor for the oscillator, and the
angular-momentum extractor P_{jm} acting on axially symmetric states
(fixed J_z eigenvalue m, expanded over |j m>).  Both are power series in
raising/lowering operators whose coefficients solve a triangular system;
the series truncate structurally on a finite space, so the per-level
scalars are evaluated in exact rational arithmetic.

The disk-integral representation is the independent cross-check: a 2-D
quadrature of Jacobi-weighted products of exponentials of explicit ladder
matrices reproduces the series projector up to a uniform constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .angmom import (AngMomLabel, InvalidLabel, _jacobi_in_s, check_label, gauss_legendre_cos,
                     ladder_apply)
from .config import DEFAULTS

__all__ = [
    "LevelOutOfRange",
    "LabelMismatch",
    "TruncationTooSmall",
    "FockVector",
    "AxialStateVector",
    "GammaSeries",
    "ho_gamma_triangular_solve",
    "ho_series_eigenvalue",
    "ho_projector_apply",
    "lowdin_gamma_series",
    "lowdin_series_diagonal",
    "lowdin_apply",
    "series_projector_matrix",
    "integral_projector_matrix",
    "radial_projector_moment",
    "radial_projector_moment_exact",
]


class LevelOutOfRange(ValueError):
    """Requested oscillator level exceeds the vector's cutoff."""


class LabelMismatch(ValueError):
    """State vector carries a different J_z eigenvalue than requested."""


class TruncationTooSmall(ValueError):
    """The truncated space cannot hold the requested j."""


@dataclass(frozen=True)
class FockVector:
    """Oscillator expansion coefficients C_n for n = 0..n_max."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
            raise ValueError("coefficients must be a nonempty finite 1-D array")
        object.__setattr__(self, "coefficients", c)

    @property
    def n_max(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class AxialStateVector:
    """Coefficients C_j of a fixed-m state over |j m>, j = |m| .. j_max.

    Slots step by one unit of j (two units doubled); index 0 is j = |m|.
    """

    two_m: int
    two_j_max: int
    coefficients: np.ndarray

    def __post_init__(self):
        if (self.two_j_max + self.two_m) % 2 != 0 or self.two_j_max < abs(self.two_m):
            raise InvalidLabel(
                f"two_j_max = {self.two_j_max} incompatible with two_m = {self.two_m}")
        c = np.asarray(self.coefficients, dtype=float)
        nslots = (self.two_j_max - abs(self.two_m)) // 2 + 1
        if c.shape != (nslots,) or not np.isfinite(c).all():
            raise ValueError(f"expected {nslots} finite coefficients, got shape {c.shape}")
        object.__setattr__(self, "coefficients", c)

    def two_j_values(self) -> range:
        return range(abs(self.two_m), self.two_j_max + 1, 2)

    def slot(self, two_j: int) -> int:
        if not abs(self.two_m) <= two_j <= self.two_j_max or (two_j - self.two_m) % 2:
            raise InvalidLabel(f"two_j = {two_j} not in this vector's range")
        return (two_j - abs(self.two_m)) // 2


@dataclass(frozen=True)
class GammaSeries:
    """Solved series coefficients gamma_r, exact rationals with gamma_0 = 1."""

    kind: str  # "oscillator" or "angular"
    label: tuple
    gammas: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.gammas or self.gammas[0] != 1:
            raise ValueError("gamma_0 must be exactly 1")
        for r, g in enumerate(self.gammas):
            if g != 0 and (g > 0) != (r % 2 == 0):
                raise ValueError(f"gamma_{r} = {g} breaks the alternating sign pattern")


def ho_gamma_triangular_solve(n: int, r_max: int) -> GammaSeries:
    """Coefficients of the oscillator extractor for level n.

    Forward substitution on the triangular system
        sum_{i=0..j} gamma_i (n+j)!/(j-i)! = 0,   j = 1..r_max,  gamma_0 = 1,
    with every factorial ratio built by iterative multiplication.  The
    solution is n-independent: gamma_i = (-1)^i / i!.
    """
    if n < 0 or r_max < 0:
        raise ValueError("n and r_max must be non-negative")
    gammas = [Fraction(1)]
    for j in range(1, r_max + 1):
        acc = Fraction(0)
        c = Fraction(1)
        for t in range(j + 1, n + j + 1):
            c *= t  # c = (n+j)!/j!, the gamma_0 coefficient of row j
        for i in range(j):
            acc += gammas[i] * c
            c *= (j - i)  # (n+j)!/(j-i)! -> (n+j)!/(j-i-1)!
        # loop left c = (n+j)!/0!, the gamma_j coefficient
        gammas.append(-acc / c)
    return GammaSeries(kind="oscillator", label=(n,), gammas=tuple(gammas))


def ho_series_eigenvalue(n: int, level: int, z=1) -> Fraction:
    """Eigenvalue of the z-weighted level-n extractor on |level>.

    (1/n!) sum_i gamma_i z^i (a+)^{n+i} a^{n+i} acts diagonally; the ladder
    eigenvalue level!/(level-n-i)! is grown as a falling product.
    """
    if level < n:
        return Fraction(0)
    gam = ho_gamma_triangular_solve(n, level - n).gammas
    falling = Fraction(1)
    for t in range(level, level - n, -1):
        falling *= t  # level!/(level-n)!
    total = Fraction(0)
    for i in range(0, level - n + 1):
        total += gam[i] * falling * Fraction(z) ** i
        falling *= (level - n - i)
    nfact = Fraction(1)
    for t in range(1, n + 1):
        nfact *= t
    return total / nfact


def ho_projector_apply(n: int, phi: FockVector) -> FockVector:
    """Extract the level-n component: returns C_n at slot n, zero elsewhere.

    Applies the operator series level by level; the series truncates once
    a^{n+i} annihilates every populated level, and the per-level scalars are
    exact, so extraction and idempotence hold to the last bit.
    """
    if n > phi.n_max:
        raise LevelOutOfRange(f"level {n} exceeds n_max = {phi.n_max}")
    out = np.zeros_like(phi.coefficients)
    for level in range(phi.n_max + 1):
        eig = ho_series_eigenvalue(n, level)
        if eig:
            out[level] = float(eig) * phi.coefficients[level]
    return FockVector(out)


def lowdin_gamma_series(two_j: int, two_m: int, r_max: int) -> GammaSeries:
    """gamma_r = (-1)^r (2j+1)! / (r! (2j+r+1)!): the analogue of ho_gamma_triangular_solve."""
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    check_label(two_j, two_m)
    gammas = [Fraction(1)]
    for t in range(r_max):
        gammas.append(gammas[-1] * Fraction(-1, (t + 1) * (two_j + t + 2)))
    return GammaSeries(kind="angular", label=(two_j, two_m), gammas=tuple(gammas))


def _diag_scalar(two_j: int, two_m: int, two_l: int, z=1) -> Fraction:
    """Exact action of P_{jm} (z-weighted) on |l m>: delta_{lj} at z = 1.

    Term r carries gamma-type coefficient (-1)^r/(r!(2j+r+1)!) times the
    ladder eigenvalue (l-m)!(l+m+k)!/((l-m-k)!(l+m)!) at k = (j-m)+r, under
    the prefactor (2j+1)(j+m)!/(j-m)!.  Everything is grown by term ratios.
    """
    if two_l < two_j:
        return Fraction(0)
    r_stop = (two_l - two_j) // 2  # beyond this J_+^k annihilates |l m>
    # term r = 0 assembled from factorial ratios
    t0 = Fraction(two_j + 1)
    for t in range((two_j - two_m) // 2 + 1, (two_j + two_m) // 2 + 1):
        t0 *= t  # (j+m)!/(j-m)!
    for t in range((two_j + two_m) // 2 + 1, (two_j - two_m) // 2 + 1):
        t0 /= t  # the other direction when m < 0
    for t in range(1, two_j + 2):
        t0 /= t  # 1/(2j+1)!
    for t in range((two_l - two_j) // 2 + 1, (two_l - two_m) // 2 + 1):
        t0 *= t  # (l-m)!/(l-j)!
    for t in range((two_l + two_m) // 2 + 1, (two_l + two_j) // 2 + 1):
        t0 *= t  # (l+j)!/(l+m)!
    zf = Fraction(z)
    total = Fraction(0)
    term = t0
    for r in range(r_stop + 1):
        total += term * zf ** r
        term *= Fraction(
            -((two_l + two_j) // 2 + r + 1) * ((two_l - two_j) // 2 - r),
            (r + 1) * (two_j + r + 2),
        )
    return total


def lowdin_series_diagonal(two_j_target: int, two_m: int, two_l: int, z=1) -> float:
    """Scalar of the ladder-series extractor on |l m>: 1 at l = j, else 0."""
    check_label(two_l, two_m)
    check_label(two_j_target, two_m)
    return float(_diag_scalar(two_j_target, two_m, two_l, z))


def lowdin_apply(two_j: int, two_m: int, phi: AxialStateVector) -> AxialStateVector:
    """Extract the C_j |j m> component of an axial state: series_projector_matrix applied."""
    if phi.two_m != two_m:
        raise LabelMismatch(f"state has two_m = {phi.two_m}, requested {two_m}")
    out = series_projector_matrix(two_j, two_m, phi.two_j_max) @ phi.coefficients
    return AxialStateVector(two_m, phi.two_j_max, out)


def series_projector_matrix(two_j: int, two_m: int, two_j_max: int) -> np.ndarray:
    """Diagonal matrix of the ladder-series extractor on the truncated axial space.

    A negative m reads the scalars of |m|: the y-rotation symmetry of the axial
    space maps one extractor onto the other with identical per-l scalars.
    """
    check_label(two_j, two_m)
    if two_j_max < two_j:
        raise TruncationTooSmall(f"cutoff {two_j_max} below two_j = {two_j}")
    two_ls = list(range(abs(two_m), two_j_max + 1, 2))
    return np.diag([float(_diag_scalar(two_j, abs(two_m), l)) for l in two_ls])


def _full_space(two_m: int, two_j_max: int):
    """All |l mu> with two_m <= two_l <= two_j_max (blocks that touch the sector)."""
    basis = []
    for two_l in range(two_m, two_j_max + 1, 2):
        for two_mu in range(-two_l, two_l + 1, 2):
            basis.append((two_l, two_mu))
    index = {lm: i for i, lm in enumerate(basis)}
    jp = np.zeros((len(basis), len(basis)))
    for i, (two_l, two_mu) in enumerate(basis):
        coeff, new = ladder_apply("+", AngMomLabel(two_l, two_mu))
        if new is not None:
            jp[index[(new.two_j, new.two_m)], i] = coeff
    return basis, index, jp


def integral_projector_matrix(two_j: int, two_m: int, two_j_max: int,
                              radial_points: int | None = None,
                              angular_points: int | None = None) -> np.ndarray:
    """Unit-disk quadrature of the integral representation of P_{jm}.

    Integrand: P^{(0,2m)}_{j-m}(1-2t) (1-t)^{2m} e^{-zbar J_-} e^{z J_+}
    with z = rho e^{-i phi}, t = rho^2, built from explicit ladder matrices
    on the truncated space (Gauss-Legendre in t, uniform trapezoid in phi).
    The off-sector and imaginary parts cancel under the phi sum and are
    checked.  The quadrature of the disk measure leaves the uniform
    constant pi/(2j+1) (measured: 1.047198, 0.628319 and 0.448799 at
    2j = 2, 4, 6); it is divided out, so the returned real matrix is the
    series extractor itself.
    """
    if two_m < 0:
        raise InvalidLabel("the integral representation is stated for m >= 0")
    check_label(two_j, two_m)
    if two_j_max < two_j:
        raise TruncationTooSmall(f"cutoff {two_j_max} below two_j = {two_j}")
    if radial_points is None:
        radial_points = DEFAULTS.radial_points
    if angular_points is None:
        angular_points = DEFAULTS.angular_points
    if angular_points < 1:
        raise ValueError("need at least one angular point")

    basis, index, jp = _full_space(two_m, two_j_max)
    dim = len(basis)
    sector = [index[(two_l, two_m)] for two_l in range(two_m, two_j_max + 1, 2)]
    nsec = len(sector)

    # P_k = J_+^k / k!, truncated where nilpotency makes them vanish
    powers = [np.eye(dim)]
    k = 0
    while True:
        k += 1
        nxt = jp @ powers[-1] / k
        if not nxt.any():
            break
        powers.append(nxt)
    # G[a][b] = (J_+^a/a!)^T (J_+^b/b!) restricted to sector columns
    slabs = [p[:, sector] for p in powers]
    gram = [[p.T @ s for s in slabs] for p in powers]

    # quadrature grid: Gauss-Legendre in t on [0,1], equispaced phi on [0, 2pi)
    rule = gauss_legendre_cos(radial_points)
    t = np.sin(rule.nodes / 2) ** 2  # t = (1 - cos(beta)) / 2 maps the rule onto (0, 1)
    wt = rule.weights / 2
    n_jac = (two_j - two_m) // 2
    radial = 0.5 * wt * (1 - t) ** two_m
    radial *= _jacobi_in_s(n_jac, 0.0, float(two_m), t)[-1]
    phi = 2 * np.pi * np.arange(angular_points) / angular_points
    z = np.sqrt(t)[:, None] * np.exp(-1j * phi)[None, :]      # (Q, A)
    wgrid = radial[:, None] * (2 * np.pi / angular_points)

    zpow = [np.ones_like(z)]
    mzpow = [np.ones_like(z)]
    for _ in range(len(powers) - 1):
        zpow.append(zpow[-1] * z)
        mzpow.append(mzpow[-1] * (-np.conj(z)))

    # pre-cancellation coefficient magnitudes sum_grid |w| t^{(a+b)/2}; their
    # roundoff, scaled by the Gram magnitudes, floors the cancellation check
    wabs = np.abs(wgrid) * np.ones_like(z.real)
    tpow_abs = []
    acc = wabs.copy()
    zabs = np.abs(z)
    for _ in range(2 * len(powers) - 1):
        tpow_abs.append(float(np.sum(acc)))
        acc = acc * zabs

    out = np.zeros((dim, nsec), dtype=complex)
    accumulated = 0.0
    for a in range(len(powers)):
        for b in range(len(powers)):
            coeff = np.sum(wgrid * mzpow[a] * zpow[b])
            accumulated += tpow_abs[a + b] * float(np.abs(gram[a][b]).max())
            if coeff != 0:
                out += coeff * gram[a][b]

    # the phi sum must kill every imaginary part and every row outside the
    # fixed-m sector; a residual above roundoff means the angular rule
    # aliased a harmonic
    tol = max(DEFAULTS.integral_imag_max, 32 * np.finfo(float).eps * accumulated)
    imag_max = float(np.abs(out.imag).max())
    off = np.delete(out.real, sector, axis=0)
    off_max = float(np.abs(off).max()) if off.size else 0.0
    if max(imag_max, off_max) > tol:
        raise ArithmeticError(
            f"angular cancellation failed: max |Im| = {imag_max:.3e}, "
            f"max off-sector residual = {off_max:.3e}, tolerance {tol:.3e}")
    return out.real[sector, :] * ((two_j + 1) / np.pi)


def radial_projector_moment(two_j: int, two_m: int, r: int,
                            radial_points: int | None = None) -> float:
    """Quadrature of the radial factor that multiplies J_-^i J_+^i, i = j-m+r.

    ((j-m)!/(j+m)!) * int_0^1 (t^i/(i!)^2) (1-t)^{2m} P^{(0,2m)}_{j-m}(1-2t) dt,
    evaluated with the same Gauss-Legendre nodes as the disk integral.
    """
    if two_m < 0:
        raise InvalidLabel("stated for m >= 0")
    check_label(two_j, two_m)
    if radial_points is None:
        radial_points = DEFAULTS.radial_points
    n = (two_j - two_m) // 2
    i = n + r
    rule = gauss_legendre_cos(radial_points)
    t = np.sin(rule.nodes / 2) ** 2
    wt = rule.weights / 2
    vals = _jacobi_in_s(n, 0.0, float(two_m), t)[-1]
    integral = float(np.sum(wt * t ** i * (1 - t) ** two_m * vals))
    pref = Fraction(math.factorial(n), math.factorial((two_j + two_m) // 2))
    pref /= Fraction(math.factorial(i)) ** 2
    return float(pref) * integral


def radial_projector_moment_exact(two_j: int, two_m: int, r: int) -> Fraction:
    """Closed form of the radial moment: (-1)^{j-m} / (r! (2j+r+1)!)."""
    if two_m < 0:
        raise InvalidLabel("stated for m >= 0")
    check_label(two_j, two_m)
    n = (two_j - two_m) // 2
    val = Fraction(1, math.factorial(r) * math.factorial(two_j + r + 1))
    return -val if n % 2 else val
