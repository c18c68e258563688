"""Timing harness: shared elimination vs from-scratch replaced determinants.

The point of the solution-table engine is that after one O(n^3)
elimination every 2p-2h kernel is a 2x2 minor; the naive alternative
rebuilds and eliminates an n x n matrix per kernel.  The harness measures
both on the same synthetic model and reports the ratio.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import lalg
from .manybody import kernel_sweep, make_slater_state, sweep_from_rotations, two_ph_kernel

__all__ = ["BenchResult", "kernel_speedup_benchmark"]


@dataclass(frozen=True)
class BenchResult:
    n_orbitals: int
    n_particles: int
    n_kernels: int
    shared_seconds: float
    naive_seconds: float
    max_abs_difference: float

    @property
    def speedup(self) -> float:
        return self.naive_seconds / self.shared_seconds


def _single_shell_state(n_orbitals: int, n_particles: int):
    """One high-j shell: n_orbitals = 2j+1 states, lowest-m orbitals occupied."""
    two_j = n_orbitals - 1
    labels = [("shell", two_j, two_m) for two_m in range(-two_j, two_j + 1, 2)]
    return make_slater_state(labels, occupied=tuple(range(1, n_particles + 1)))


def kernel_speedup_benchmark(n_orbitals: int = 20, n_particles: int = 8,
                             beta: float = 0.7, repeats: int = 3) -> BenchResult:
    """Time all 2p-2h kernels at one beta, both ways; best of `repeats`; ValueError if none."""
    if not (2 <= n_particles <= n_orbitals - 2 and repeats >= 1):
        raise ValueError(f"nothing to time: need 2 <= particles ({n_particles}) <= orbitals "
                         f"({n_orbitals}) - 2 and repeats ({repeats}) >= 1")
    phi = _single_shell_state(n_orbitals, n_particles)
    occ = phi.occupied
    unocc = phi.unoccupied
    pairs_occ = list(itertools.combinations(occ, 2))
    pairs_unocc = list(itertools.combinations(unocc, 2))

    # both routes consume the same prebuilt rotation matrix; the comparison
    # covers kernel evaluation only
    rots = kernel_sweep(phi, [beta]).rotation
    rot = rots[0]
    occ_idx = [oid - 1 for oid in occ]
    pos = {oid: p for p, oid in enumerate(occ)}

    def shared():
        sweep = sweep_from_rotations(phi, rots, [beta])
        return [two_ph_kernel(sweep, 0, i, j, k, l)
                for i, j in pairs_occ for k, l in pairs_unocc]

    def naive():
        out = []
        a_occ = rot[np.ix_(occ_idx, occ_idx)]
        for i, j in pairs_occ:
            for k, l in pairs_unocc:
                b = a_occ.copy()
                b[pos[i], :] = rot[k - 1, occ_idx]
                b[pos[j], :] = rot[l - 1, occ_idx]
                out.append(float(lalg.eliminate_columns(b.T[None], range(len(b)))[0][0]))
        return out

    t_shared = min(_timed(shared) for _ in range(repeats))
    t_naive = min(_timed(naive) for _ in range(repeats))
    diff = float(np.abs(np.asarray(shared()) - np.asarray(naive())).max())
    return BenchResult(n_orbitals=n_orbitals, n_particles=n_particles,
                       n_kernels=len(pairs_occ) * len(pairs_unocc),
                       shared_seconds=t_shared, naive_seconds=t_naive,
                       max_abs_difference=diff)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
