#!/usr/bin/env python3
"""Scan the two-cone surface and check the resonance string law.

Locates every zero of the characteristic function in a strip, fits the
logarithmic curve through them, and prints how far slope, spacing and
the string constants sit from their closed-form values.  With --csv the
zeros go to disk for plotting.
"""

import argparse
import csv
import math
import sys
import time

import numpy as np

from coneres import (SearchRegion, build_two_cone_surface, coset_deviations,
                     ladder_model_from_spec, scan_strip, verify_scan)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--re-min", type=float, default=50.0)
    p.add_argument("--re-max", type=float, default=500.0)
    p.add_argument("--nu-min", type=float, default=0.28)
    p.add_argument("--nu-max", type=float, default=0.42)
    p.add_argument("--length", type=float, default=math.pi,
                   help="edge length of the two-cone surface")
    p.add_argument("--csv", type=str, default=None,
                   help="write re,im,residual,winding rows here")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = build_two_cone_surface(length=args.length)
    model = ladder_model_from_spec(spec)
    region = SearchRegion(args.re_min, args.re_max, args.nu_min, args.nu_max)

    t0 = time.perf_counter()
    result = scan_strip(spec, region)
    elapsed = time.perf_counter() - t0
    lams = result.lambdas()
    print(f"found {len(result.items)} zeros in {elapsed:.2f}s "
          f"(audited winding {result.total_winding_audited})")

    report = verify_scan(result, model)
    print(report.fit.to_text())
    print()
    print(report.to_text())

    # drift of the Re cosets toward the ladder: should shrink up the strip
    dev = np.abs(coset_deviations(lams, model))
    thirds = np.array_split(dev, 3)
    print("max |coset deviation| by thirds:",
          "  ".join(f"{t.max():.2e}" for t in thirds))

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["re", "im", "residual", "winding"])
            for r in result.items:
                w.writerow([f"{r.lam.real:.16g}", f"{r.lam.imag:.16g}",
                            f"{r.residual:.3e}", r.winding])
        print(f"wrote {args.csv}")

    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
