#!/usr/bin/env python3
"""Fitted versus predicted decay across the standard spec sweep.

Prints one row per cone: the predicted decay exponent of the dilation
Jacobi field, the exponent fitted from the integrated profile, the
nearest indicial root, and the cone-crossing count up to s = 1e3.
Equivalent to `cjl report` but keeps everything in memory.
"""

import argparse

from cjlab.decay import DEFAULT_SWEEP, parse_sweep, sweep_config, sweep_row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--specs", default=DEFAULT_SWEEP, type=parse_sweep,
                    help="semicolon-separated m,n pairs")
    args = ap.parse_args()
    print(f"{'spec':>7} {'N':>3} {'predicted':>10} {'fitted':>10} "
          f"{'nearest':>8} {'gap':>9} {'crossings':>9}")
    for spec in args.specs:
        row, _, _ = sweep_row(sweep_config(spec))
        print(f"  ({spec.m},{spec.n}) {row['N']:>3} {row['predicted_nu_bar']:>10.4f} "
              f"{row['fitted_exponent']:>10.4f} {row['nearest_root']:>8.3f} "
              f"{row['gap']:>9.2e} {row['crossings']:>9d}")


if __name__ == "__main__":
    main()
