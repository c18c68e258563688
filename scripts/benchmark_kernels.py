#!/usr/bin/env python3
"""Time the shared-elimination 2p-2h kernels against per-kernel determinants."""

import argparse

from amproj.bench import kernel_speedup_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orbitals", type=int, default=20)
    parser.add_argument("--particles", type=int, default=8)
    parser.add_argument("--beta", type=float, default=0.7)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    try:
        r = kernel_speedup_benchmark(n_orbitals=args.orbitals, n_particles=args.particles,
                                     beta=args.beta, repeats=args.repeats)
    except ValueError as err:  # no kernel to time, or a shell above the small-d cap
        parser.error(str(err))
    print(f"model: {r.n_orbitals} orbitals, {r.n_particles} particles, "
          f"{r.n_kernels} 2p-2h kernels at one beta node")
    print(f"shared elimination + 2x2 minors   : {r.shared_seconds * 1e3:9.2f} ms")
    print(f"fresh n x n determinant per kernel: {r.naive_seconds * 1e3:9.2f} ms")
    print(f"speedup: {r.speedup:.1f}x   (max |difference| = {r.max_abs_difference:.2e})")


if __name__ == "__main__":
    main()
