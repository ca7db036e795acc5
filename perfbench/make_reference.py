#!/usr/bin/env python3
"""Regenerate the reference outputs the correctness gates compare against.

    python3 perfbench/make_reference.py

Run it only on a commit whose results are trusted: the files record that
commit, and every later run of the benchmark is checked against them.

- ``tri345_zeros.json``: every zero of the doubled 3-4-5 triangle in
  Re [100, 300], nu [0.05, 0.35], as located by ``scan_strip``.
- ``gap_pool.json``: the triangle pool of the gap survey.  Triangles are
  drawn as in acceptance criterion 3 (``default_rng(345)``, rejected
  unless the hypotheses hold) until there are ``POOL`` of them; each
  entry has its vertices, L0, and the gap-band and string-band windings
  of ``gap_report`` over Re [100, 1100] at delta 0.02.
"""
from __future__ import annotations

import json
import sys

import run

POOL = 100


def _gap_entry(vertices, window, delta) -> dict:
    import coneres
    spec = coneres.build_polygon_double(vertices)
    model = coneres.ladder_model_from_spec(spec)
    rep = coneres.gap_report(spec, window, delta=delta, im_offset=model.c_im)
    return {"vertices": [list(v) for v in vertices], "L0": rep.scales.L0,
            "gap_band_empty": rep.gap_band_empty,
            "gap_winding": rep.gap_winding,
            "string_winding": rep.string_winding}


def main() -> int:
    run._import_package()
    import numpy as np
    import coneres
    from workloads import REFERENCE, TRI345, GapSurvey

    commit = run._git_commit()
    rs = coneres.scan_strip(coneres.build_polygon_double(TRI345),
                            coneres.SearchRegion(100.0, 300.0, 0.05, 0.35))
    zeros = [[z.real, z.imag] for z in rs.lambdas()]
    with open(REFERENCE / "tri345_zeros.json", "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "region": [100.0, 300.0, 0.05, 0.35],
                   "zeros": zeros}, fh, indent=0)
    print(f"tri345: {len(zeros)} zeros")

    window, delta = GapSurvey.window, GapSurvey.delta
    rng = np.random.default_rng(345)
    pool = []
    while len(pool) < POOL:
        bx = rng.uniform(2.5, 5.5)
        cx = rng.uniform(0.2, bx - 0.2)
        cy = rng.uniform(1.0, 4.0)
        vertices = [(0.0, 0.0), (float(bx), 0.0), (float(cx), float(cy))]
        if coneres.validate_hypotheses(coneres.build_polygon_double(vertices)).passed:
            pool.append(_gap_entry(vertices, window, delta))
    with open(REFERENCE / "gap_pool.json", "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "window": list(window), "delta": delta,
                   "tri345": _gap_entry(TRI345, window, delta),
                   "pool": pool}, fh, indent=1)
    print(f"gap pool: {len(pool)} triangles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
