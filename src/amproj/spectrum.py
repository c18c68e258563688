"""Projected energy spectra: beta-quadrature of rotation kernels.

For an axially symmetric intrinsic state with J_z eigenvalue M, the weight
and energy of its J component are ratios of sin(beta)-weighted integrals of
small-d-modulated kernels.  When T and V conserve J_z, the overlap and
energy kernels are sums of d^{J'}_{MM}(beta) with J' <= J_max, so every
integrand is a polynomial of degree <= 2 J_max in x = cos(beta), and
Gauss-Legendre in x with Q = 2J_max // 2 + 1 nodes (J doubled, as
everywhere here) integrates it exactly.  That rule is the default; an explicit
node count may exceed Q but not fall below it.  Two routes to the energy
numerator:

  * the stability-conditioned route: E_J = E_HF plus 2p-2h kernels
    contracted with the interaction (valid when every particle-hole matrix
    element of H vanishes), and
  * the direct route: full one- plus two-body kernels, valid always.

Both read one kernel sweep over all beta nodes: the rotated occupied blocks
take one batched LAPACK determinant and inverse (an SVD only where the
determinant cannot certify the rank), and every J and both routes reuse the
transition density they yield.  The sweep, the norm row and its largest |n_J| depend on
the state and the node count alone, so the last ones built are kept for the
next request with an equal state, found by equality with no hash (the kept
object itself by identity), which then only contracts its interaction.
The rule, the J weight rows (by 2M and 2J_max) and the rotation stack (by
basis, in `manybody`) do not depend on which orbitals are occupied, so they
are kept across states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .angmom import check_small_d, gauss_legendre_cos, small_d_diagonal
from .config import DEFAULTS
from .lalg import SizeLimitExceeded
from .manybody import (KernelSweep, Model, SlaterState, brillouin_check, hf_energy,
                       kernel_sweep, one_body_numerators, two_body_numerators)

__all__ = [
    "NormTooSmall",
    "BadNodeCount",
    "MAX_POINTS",
    "SpectrumRequest",
    "JEntry",
    "SpectrumResult",
    "RouteComparison",
    "allowed_two_j",
    "exact_points",
    "norm_kernel",
    "energy_spectrum",
    "compare_routes",
]


class NormTooSmall(ValueError):
    """Every requested J component is absent from the intrinsic state."""


class BadNodeCount(ValueError):
    """An explicit beta node count below the exact rule of the state, or above MAX_POINTS."""


# The largest beta rule built (2J_max up to 510): the rule's 34-digit solve
# takes O(Q^2) steps and the rotation stack Q N^2 floats.
MAX_POINTS = 256


def allowed_two_j(state, two_m: int | None = None) -> tuple[int, ...]:
    """All 2J from |2M| to the Pauli 2J_max, in steps of 2.

    2J_max is the largest 2M any determinant of the same shell occupations
    reaches: per (shell, 2j) group holding n_s particles, the sum of the top
    n_s values of 2m, 2j + (2j - 2) + ... .  No J component lies above it.
    """
    if two_m is None:
        two_m = state.total_two_m()
    count: dict[tuple[str, int], int] = {}
    for oid in state.occupied:
        group = (state.orbitals[oid - 1].shell, state.orbitals[oid - 1].two_j)
        count[group] = count.get(group, 0) + 1
    top = sum(two_j - 2 * k for (_, two_j), n in count.items() for k in range(n))
    return tuple(range(abs(two_m), top + 1, 2))


def exact_points(state) -> int:
    """Q = 2J_max // 2 + 1, the beta nodes of the rule in cos(beta) exact for this state."""
    return allowed_two_j(state)[-1] // 2 + 1


@dataclass(frozen=True)
class SpectrumRequest:
    model: Model
    two_j_list: tuple[int, ...] | None = None  # None means every allowed value
    points: int | None = None  # None means the exact rule, exact_points(state)
    route: str = "both"
    norm_floor_factor: float = DEFAULTS.norm_floor_factor
    brillouin_warn: float = DEFAULTS.brillouin_warn

    def __post_init__(self):
        # the exact rule, and the projection itself, assume H conserves J_z
        if (message := self.model.jz_message) is not None:
            raise ValueError(message)
        if self.points is not None and self.points < (q := exact_points(self.model.state)):
            raise BadNodeCount(f"{self.points} beta nodes under-resolve this state: "
                               f"the exact rule needs {q}")
        if self.points is not None and self.points > MAX_POINTS:
            raise BadNodeCount(f"{self.points} beta nodes exceed the limit {MAX_POINTS}")
        if self.route not in ("brillouin", "lowdin", "both"):
            raise ValueError(f"unknown route {self.route!r}")
        for name in ("norm_floor_factor", "brillouin_warn"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.two_j_list is not None:
            two_m = self.model.state.total_two_m()
            if not self.two_j_list or len(set(self.two_j_list)) < len(self.two_j_list):
                raise ValueError("requested 2J values must be distinct and at least one, "
                                 f"got {tuple(self.two_j_list)}")
            for two_j in self.two_j_list:
                if two_j < abs(two_m) or (two_j - two_m) % 2:
                    raise ValueError(
                        f"2J = {two_j} incompatible with intrinsic 2M = {two_m}")


class JEntry(NamedTuple):
    """One row of a spectrum: 2J, the norm n_J and the energy of each route run.

    An energy is None where its route did not run or n_J is at or below the
    norm floor.  A tuple, so that a request builds its rows in one pass.
    """

    two_j: int
    norm: float
    energy_brillouin: float | None = None
    energy_lowdin: float | None = None


@dataclass(frozen=True)
class SpectrumResult:
    """The rows of a request, in request order (auto: 2J ascending), and its route.

    `brillouin_residual_max` is the largest stability residual, None unless
    the particle-hole route ran; `warnings` holds its warning, if any.
    """

    entries: tuple[JEntry, ...]
    route: str
    brillouin_residual_max: float | None = None
    warnings: tuple[str, ...] = ()

    def entry(self, two_j: int) -> JEntry:
        for e in self.entries:
            if e.two_j == two_j:
                return e
        raise KeyError(f"no entry for 2J = {two_j}")

    def norms(self) -> dict[int, float]:
        return {e.two_j: e.norm for e in self.entries}


@dataclass(frozen=True)
class RouteComparison:
    deltas: dict[int, float]
    brillouin_residual_max: float
    result: SpectrumResult


@functools.lru_cache(maxsize=64)
def _weight_rows(two_m: int, two_j_max: int, points: int) -> tuple[range, np.ndarray]:
    """(2J values, rows) for 2J in |2M|..2J_max, rows[J] = w_q d^J_{MM}(beta_q).

    Over the cos(beta) rule of `points` nodes, as one read-only (J, Q) array.
    """
    rule = gauss_legendre_cos(points)
    js = range(abs(two_m), two_j_max + 1, 2)
    rows = rule.weights * small_d_diagonal(two_m, js, rule.nodes)
    rows.flags.writeable = False
    return js, rows


# (state, points, projection) of the last request, read and set whole
_kept_projection: tuple = (None, None, None)


def _projection(state: SlaterState, points: int | None
                ) -> tuple[KernelSweep, tuple[range, np.ndarray], tuple[np.ndarray, float]]:
    """The part of a spectrum that depends on the state and the rule alone.

    (sweep, wj, (norm, top)): the kernel sweep over the cos(beta) rule of
    `points` nodes (None: exact_points), the J weight rows of every allowed
    2J (see _weight_rows), the norms n_J of those 2J as one row and the
    largest |n_J|, which the absence floor references.  The interaction
    enters only through the contractions of the sweep, so requests that
    repeat a state reuse the last projection built; the state is matched by
    equality, never hashed, and every kept array is read-only.
    """
    global _kept_projection
    kept_state, kept_points, kept = _kept_projection  # one read: a concurrent call sets it whole
    if points == kept_points and (state is kept_state or state == kept_state):
        return kept
    # a rule is built only for a state whose rotations can be built
    check_small_d(max(o.two_j for o in state.orbitals))
    # the absence floor references every J component the state can hold,
    # not only the requested subset; a requested J above 2J_max holds none
    two_j_max = allowed_two_j(state)[-1]
    rule_points = two_j_max // 2 + 1 if points is None else points  # None: exact_points
    if rule_points > MAX_POINTS:
        raise SizeLimitExceeded(f"the exact beta rule of this state needs {rule_points} "
                                f"nodes, above the limit {MAX_POINTS}")
    sweep = kernel_sweep(state, gauss_legendre_cos(rule_points).nodes)
    wj = _weight_rows(state.total_two_m(), two_j_max, rule_points)
    norm = wj[1] @ sweep.overlap
    norm.flags.writeable = False
    projection = sweep, wj, (norm, max(map(abs, norm.tolist())))
    _kept_projection = (state, points, projection)
    return projection


def energy_spectrum(request: SpectrumRequest) -> SpectrumResult:
    """Dispatch on the requested route; "both" fills both energy columns.

    Every row at once: an auto request reads the kept norm row as it is, an
    explicit 2J list gathers it (a 2J above 2J_max has norm 0, so its
    clipped numerator row is unread).
    """
    want_b = request.route in ("brillouin", "both")
    want_l = request.route in ("lowdin", "both")
    model = request.model
    sweep, (span, rows), (norm, top) = _projection(model.state, request.points)
    js, at = span, slice(None)
    if request.two_j_list is not None:
        js = request.two_j_list
        at = (np.array(js) - span.start) // 2
        inside = at < len(span)
        at = np.minimum(at, len(span) - 1)
        norm = np.where(inside, norm[at], 0.0)
    corr = ham = None
    if want_b:
        corr = two_body_numerators(sweep, model.v, particle_hole=True)
    if want_l:
        ham = one_body_numerators(sweep, model.t) + two_body_numerators(sweep, model.v)

    warnings: list[str] = []
    residual_max = None
    e_hf = None
    if want_b:
        # a filled basis has no particle-hole pair: its residual is 0
        residual_max = float(brillouin_check(model.state, model.t, model.v).max(initial=0.0))
        e_hf = hf_energy(model.state, model.t, model.v)
        if residual_max > request.brillouin_warn:
            warnings.append(
                f"stability residual {residual_max:.3e} exceeds "
                f"{request.brillouin_warn:.1e}: the particle-hole route assumes it vanishes")

    norms, floor = norm.tolist(), request.norm_floor_factor * top
    above = [n > floor for n in norms]
    if not any(above):
        raise NormTooSmall("every requested J component is below the norm floor")
    eb = el = repeat(None)
    with np.errstate(all="ignore"):  # quotients at or below the floor are dropped for None
        if want_b:
            eb = _masked((e_hf + (rows @ corr)[at] / norm).tolist(), above)
        if want_l:
            el = _masked(((rows @ ham)[at] / norm).tolist(), above)
    # a list first: a tuple grown from an iterator raised the process's RSS with every request;
    # tuple.__new__ makes each row in C, with no Python call per row
    entries = list(map(tuple.__new__, repeat(JEntry), zip(js, norms, eb, el)))
    return SpectrumResult(entries=tuple(entries), route=request.route,
                          brillouin_residual_max=residual_max, warnings=tuple(warnings))


def _masked(values: list, above: list) -> list:
    """The values, with None where `above` is false."""
    return [value if keep else None for value, keep in zip(values, above)]


def norm_kernel(request: SpectrumRequest) -> dict[int, float]:
    """n_J = sum_q w_q d^J_{MM}(beta_q) <Phi|R(beta_q)|Phi> over the cos(beta) rule.

    Every allowed 2J, and each requested 2J above 2J_max as 0.
    """
    _, (span, _), (norm, _) = _projection(request.model.state, request.points)
    norms = dict(zip(span, norm.tolist()))
    norms.update((two_j, 0.0) for two_j in request.two_j_list or () if two_j not in norms)
    return norms


def compare_routes(request: SpectrumRequest) -> RouteComparison:
    """Both routes off one kernel sweep; per-J |E_brillouin - E_lowdin|."""
    result = energy_spectrum(replace(request, route="both"))
    deltas = {e.two_j: abs(e.energy_brillouin - e.energy_lowdin)
              for e in result.entries
              if e.energy_brillouin is not None and e.energy_lowdin is not None}
    return RouteComparison(deltas=deltas,
                           brillouin_residual_max=result.brillouin_residual_max,
                           result=result)
