#!/usr/bin/env python3
"""Radial exterior minimal graphs across dimensions.

For each N, builds the graph over r > R, verifies the flux identity,
and reports the boundary value alpha(R), the fitted decay exponent of
the dilation field zeta_0 (always 2 - N, the dilation-degenerate rate)
and the limiting coefficient r^{N-2} zeta_0 -> (N-1) R^{N-1} / (N-2).
"""

import argparse

import numpy as np

from cjlab import minimal_graph_residual, plateau_profile, plateau_zeta0


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=float, default=1.0)
    ap.add_argument("--r-max", type=float, default=2000.0)
    args = ap.parse_args(argv)

    print(f"{'N':>3} {'alpha(R)':>12} {'flux residual':>14} {'zeta0 exp':>10} "
          f"{'coeff':>10} {'expected':>10}")
    for N in range(3, 9):
        graph = plateau_profile(N, args.R, args.r_max * args.R, num=900)
        zeta0, fit = plateau_zeta0(graph)
        i = np.searchsorted(graph.r, 1.0e3 * args.R)
        coeff = graph.r[i] ** (N - 2) * zeta0[i]
        expected = (N - 1) * graph.R ** (N - 1) / (N - 2)
        print(f"{N:>3} {graph.alphaR:>12.6f} {minimal_graph_residual(graph):>14.2e} "
              f"{fit.exponent:>10.4f} {coeff:>10.5f} {expected:>10.5f}")


if __name__ == "__main__":
    main()
