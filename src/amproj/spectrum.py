"""Projected energy spectra: beta-quadrature of rotation kernels.

For an axially symmetric intrinsic state with J_z eigenvalue M, the weight
and energy of its J component are ratios of sin(beta)-weighted integrals of
small-d-modulated kernels.  Two routes to the energy numerator:

  * the stability-conditioned route: E_J = E_HF plus 2p-2h kernels
    contracted with the interaction (valid when every particle-hole matrix
    element of H vanishes), and
  * the direct route: full one- plus two-body kernels, valid always.

Both read one kernel sweep over all beta nodes: the rotated occupied blocks
are factored as one stack, and every J and both routes reuse the transition
density it yields.  The sweep, the J weights and the norms depend on the
state and the node count alone, so the last ones built are kept for the next
request with an equal state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .angmom import gauss_legendre, small_d_diagonal
from .config import DEFAULTS
from .manybody import (KernelSweep, Model, SlaterState, brillouin_check, hf_energy,
                       kernel_sweep, one_body_numerators, two_body_numerators)

__all__ = [
    "NormTooSmall",
    "SpectrumRequest",
    "JEntry",
    "SpectrumResult",
    "RouteComparison",
    "allowed_two_j",
    "norm_kernel",
    "energy_spectrum_brillouin",
    "energy_spectrum_lowdin",
    "energy_spectrum",
    "compare_routes",
]


class NormTooSmall(ValueError):
    """Every requested J component is absent from the intrinsic state."""


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


@dataclass(frozen=True)
class SpectrumRequest:
    model: Model
    two_j_list: tuple[int, ...] | None = None  # None means every allowed value
    points: int = DEFAULTS.quadrature_points
    route: str = "both"
    norm_floor_factor: float = DEFAULTS.norm_floor_factor
    brillouin_warn: float = DEFAULTS.brillouin_warn

    def __post_init__(self):
        if self.points < DEFAULTS.min_quadrature_points:
            raise ValueError(f"need at least {DEFAULTS.min_quadrature_points} points")
        if self.route not in ("brillouin", "lowdin", "both"):
            raise ValueError(f"unknown route {self.route!r}")
        for name in ("norm_floor_factor", "brillouin_warn"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        two_m = self.model.state.total_two_m()
        if self.two_j_list is not None:
            for two_j in self.two_j_list:
                if two_j < abs(two_m) or (two_j - two_m) % 2:
                    raise ValueError(
                        f"2J = {two_j} incompatible with intrinsic 2M = {two_m}")

    @property
    def two_m(self) -> int:
        return self.model.state.total_two_m()

    def js(self) -> tuple[int, ...]:
        if self.two_j_list is not None:
            return tuple(self.two_j_list)
        return allowed_two_j(self.model.state)


@dataclass(frozen=True)
class JEntry:
    two_j: int
    norm: float
    energy_brillouin: float | None = None
    energy_lowdin: float | None = None


@dataclass(frozen=True)
class SpectrumResult:
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


def _integrate(weights_per_j: dict[int, np.ndarray], values: np.ndarray) -> dict[int, float]:
    return {two_j: float(np.dot(w, values)) for two_j, w in weights_per_j.items()}


@functools.lru_cache(maxsize=1)
def _projection(state: SlaterState,
                points: int) -> tuple[KernelSweep, dict[int, np.ndarray], dict[int, float]]:
    """The part of a spectrum that depends on the state and the rule alone.

    (sweep, wj, norms): the kernel sweep, one J weight row
    w_q sin(beta_q) d^J_{MM}(beta_q) per allowed 2J, and the norms n_J.
    The interaction enters only through the contractions of the sweep, so
    requests that repeat a state reuse the last projection built; the
    state is a key by value, and every kept array is read-only.
    """
    rule = gauss_legendre(points)
    sweep = kernel_sweep(state, rule.nodes)
    # the absence floor references every J component the state can hold,
    # not only the requested subset; a requested J above 2J_max holds none
    js = allowed_two_j(state)
    two_m = state.total_two_m()
    rows = rule.weights * np.sin(rule.nodes) * small_d_diagonal(two_m, js, rule.nodes)
    rows.flags.writeable = False
    wj = dict(zip(js, rows))
    return sweep, wj, _integrate(wj, sweep.overlap)


def _assemble(request: SpectrumRequest, want_brillouin: bool, want_lowdin: bool):
    """Norms, J weights and both energy numerators, off the kept projection."""
    model = request.model
    sweep, wj, kept = _projection(model.state, request.points)
    norms = dict(kept)
    norms.update((two_j, 0.0) for two_j in request.js() if two_j not in norms)
    corr = ham = None
    if want_brillouin:
        corr = two_body_numerators(sweep, model.v, particle_hole=True)
    if want_lowdin:
        ham = one_body_numerators(sweep, model.t) + two_body_numerators(sweep, model.v)
    return norms, wj, corr, ham


def _floor(norms: dict[int, float], factor: float) -> float:
    top = max(abs(v) for v in norms.values())
    return factor * top


def energy_spectrum(request: SpectrumRequest) -> SpectrumResult:
    """Dispatch on the requested route; "both" fills both energy columns."""
    want_b = request.route in ("brillouin", "both")
    want_l = request.route in ("lowdin", "both")
    model = request.model
    norms, wj, corr, ham = _assemble(request, want_b, want_l)

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

    floor = _floor(norms, request.norm_floor_factor)
    num_b = _integrate(wj, corr) if want_b else None
    num_l = _integrate(wj, ham) if want_l else None
    entries = []
    for two_j in request.js():
        n_j = norms[two_j]
        eb = el = None
        if n_j > floor:
            if want_b:
                eb = e_hf + num_b[two_j] / n_j
            if want_l:
                el = num_l[two_j] / n_j
        entries.append(JEntry(two_j=two_j, norm=n_j,
                              energy_brillouin=eb, energy_lowdin=el))
    if all(e.energy_brillouin is None and e.energy_lowdin is None for e in entries):
        raise NormTooSmall("every requested J component is below the norm floor")
    return SpectrumResult(entries=tuple(entries), route=request.route,
                          brillouin_residual_max=residual_max, warnings=tuple(warnings))


def norm_kernel(request: SpectrumRequest) -> dict[int, float]:
    """n_J = sum_q w_q sin(beta_q) d^J_{MM}(beta_q) <Phi|R(beta_q)|Phi>."""
    norms, _, _, _ = _assemble(request, want_brillouin=False, want_lowdin=False)
    return norms


def energy_spectrum_brillouin(request: SpectrumRequest) -> SpectrumResult:
    """E_J = E_HF + 2p-2h correction ratio (requires the stability condition)."""
    return energy_spectrum(replace(request, route="brillouin"))


def energy_spectrum_lowdin(request: SpectrumRequest) -> SpectrumResult:
    """E_J from the full one- plus two-body kernel (no stability assumption)."""
    return energy_spectrum(replace(request, route="lowdin"))


def compare_routes(request: SpectrumRequest) -> RouteComparison:
    """Both routes off one kernel sweep; per-J |E_brillouin - E_lowdin|."""
    result = energy_spectrum(replace(request, route="both"))
    deltas = {e.two_j: abs(e.energy_brillouin - e.energy_lowdin)
              for e in result.entries
              if e.energy_brillouin is not None and e.energy_lowdin is not None}
    return RouteComparison(deltas=deltas,
                           brillouin_residual_max=result.brillouin_residual_max,
                           result=result)
