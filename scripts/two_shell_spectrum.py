#!/usr/bin/env python3
"""Projected spectrum of the bundled two-shell model, checked against coupling.

Builds the (j = 3/2) x (j = 1/2), M = 1 model whose interaction is a sum of
coupled-pair projectors, runs both energy routes, and compares against the
exactly known answers: n_J = (2/(2J+1)) CG^2 and E_J = eps_sum + g_J.  Exits 1
when any row's norm or either energy misses its exact value by more than TOL.
"""

import argparse
import math
import sys

import numpy as np

from amproj.angmom import clebsch_gordan
from amproj.manybody import (Model, OneBodyOperator, TwoBodyOperator, hf_energy,
                             make_slater_state)
from amproj.spectrum import BadNodeCount, SpectrumRequest, energy_spectrum

EPS = {"d32": 1.1, "s12": -0.4}
G = {2: -1.3, 4: 0.45}
TOL = 1e-10


def build_model() -> Model:
    labels = [("d32", 3, 3), ("d32", 3, 1), ("d32", 3, -1), ("d32", 3, -3),
              ("s12", 1, 1), ("s12", 1, -1)]
    phi = make_slater_state(labels, occupied=(2, 5))
    tmat = np.diag([EPS[shell] for shell, _, _ in labels])
    m_of = {1: 3, 2: 1, 3: -1, 4: -3, 5: 1, 6: -1}
    entries = {}
    for two_j_pair, g_j in G.items():
        for two_m_tot in range(-two_j_pair, two_j_pair + 1, 2):
            amps = {(p, q): clebsch_gordan(3, m_of[p], 1, m_of[q], two_j_pair, two_m_tot)
                    for p in (1, 2, 3, 4) for q in (5, 6)}
            amps = {k: v for k, v in amps.items() if v}
            for (p, q), a in amps.items():
                for (r, s), b in amps.items():
                    key = (p, q, r, s)
                    entries[key] = entries.get(key, 0.0) + g_j * a * b
    return Model(state=phi, t=OneBodyOperator(tmat),
                 v=TwoBodyOperator(list(entries.items())), name="two_shell_M1")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=None,
                        help="beta nodes, at least the exact rule's 3 (default: that rule)")
    args = parser.parse_args()

    model = build_model()
    try:
        request = SpectrumRequest(model=model, points=args.points)
    except BadNodeCount as err:  # a usage error (exit 2), not a missed row (exit 1)
        parser.error(str(err))
    print(f"intrinsic state: M = 1, E_HF = {hf_energy(model.state, model.t, model.v):.6f}")
    result = energy_spectrum(request)
    print(f"max stability residual: {result.brillouin_residual_max:.2e}")
    print(f"{'2J':>4} {'norm':>14} {'E p-h route':>14} {'E kernel route':>14} "
          f"{'exact norm':>12} {'exact E':>10}")
    worst = 0.0
    for e in result.entries:
        n_exact, e_exact = exact_row(e.two_j)
        print(f"{e.two_j:>4} {e.norm:>14.10f} {e.energy_brillouin:>14.10f} "
              f"{e.energy_lowdin:>14.10f} {n_exact:>12.10f} {e_exact:>10.4f}")
        worst = max(worst, row_miss(e))
    delta = max(abs(e.energy_brillouin - e.energy_lowdin) for e in result.entries)
    print(f"route deltas: {delta:.2e}")
    print(f"largest miss of the exact answers: {worst:.2e} (tolerance {TOL:.0e})")
    return 0 if worst <= TOL else 1


def exact_row(two_j: int) -> tuple[float, float]:
    """(n_J, E_J) of the coupled answer at 2J."""
    c = clebsch_gordan(3, 1, 1, 1, two_j, 2)
    return 2 * c * c / (two_j + 1), EPS["d32"] + EPS["s12"] + G[two_j]


def row_miss(entry) -> float:
    """The largest |computed - exact| over the norm and both energies of a row; NaN is inf."""
    n_exact, e_exact = exact_row(entry.two_j)
    misses = (abs(entry.norm - n_exact), abs(entry.energy_brillouin - e_exact),
              abs(entry.energy_lowdin - e_exact))
    return math.inf if any(map(math.isnan, misses)) else max(misses)


if __name__ == "__main__":
    sys.exit(main())
