#!/usr/bin/env python3
"""SHA-256 digests of reference scans, gap reports and the statphase battery.

    python3 scripts/scan_digest.py [CHECKOUT] [--short]

Imports ``coneres`` from ``CHECKOUT/src`` (default: the checkout this
script lives in), runs four scans through ``coneres.cli.main`` into a
temporary directory, and prints one ``sha256  file`` line per output
file, sixteen in all (each scan's ``fit_summary.txt``, ``plot_data.csv``,
``report.json`` and ``resonances.csv``, in that order), then one each for
``gap/reports.json`` and ``statphase/check.txt``:

- ``tri345/``: the doubled 3-4-5 triangle,
  ``--re 100 300 --nu 0.05 0.35 --jobs 1``
- ``tri345-runs/``: the same scan with ``CONERES_TOL_OVERRIDES`` naming a
  file of ``winding_max_points: 512`` for this scan alone, so its columns
  are taken in runs of 4; its four digests equal those of ``tri345/``
- ``twocone/``: ``build_two_cone_surface()`` written as a surface file,
  ``--re 50 500 --nu 0.28 0.42 --jobs 2 --verify``
- ``flatcone/``: ``build_two_cone_surface(cone_angle=2*pi)`` written as
  a surface file, ``--re 50 60 --nu 0.02 0.3``; a 2*pi cone does not
  diffract, so the scan has no ladder model and writes no fit
- ``gap/reports.json``: ``json.dumps`` (sorted keys) of the ``to_dict()``
  list of two ``gap_report`` calls with ``im_offset`` the model's C_im,
  the doubled 3-4-5 triangle over Re [100, 1100] and
  ``build_two_cone_surface()``, whose gap band is not empty, over
  Re [100, 300]; the digest is of that string, not of a file
- ``statphase/check.txt``: the stdout of ``coneres statphase-check``,
  the printed remainder slopes and verdicts of the battery

Two checkouts produce byte-identical scans, reports and battery output
exactly when ``diff`` finds no difference between the outputs of this
script run on each.  ``--short`` cuts the first three strips to a few
units of Re and both gap windows to Re [100, 120], for smoke tests; the
fourth strip is that short already, and the battery always runs in full.
The scans' own stdout goes to stderr; the exit code is the first
nonzero exit code of a scan or of the battery, or 0.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock


# the tolerance overrides file of a scan, by output name
OVERRIDES = {"tri345-runs": "winding_max_points: 512\n"}


def scans(surface: Path, flat: Path, short: bool) -> dict[str, list[str]]:
    """``coneres scan`` arguments of each reference scan, by output name."""
    tri345 = ["--polygon", "0,0 3,0 0,4", "--re", "100",
              "104" if short else "300", "--nu", "0.05", "0.35", "--jobs", "1"]
    return {
        "tri345": tri345,
        "tri345-runs": tri345,
        "twocone": ["--input", str(surface), "--re", "50",
                    "70" if short else "500", "--nu", "0.28", "0.42",
                    "--jobs", "2", "--verify"],
        "flatcone": ["--input", str(flat), "--re", "50", "60",
                     "--nu", "0.02", "0.3"],
    }


def gap_reports(short: bool) -> str:
    """The ``gap/reports.json`` string of the two reference gap reports."""
    from coneres import build_polygon_double, build_two_cone_surface
    from coneres.asymptotics import gap_report, ladder_model_from_spec

    triangle = build_polygon_double([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    reports = []
    for spec, re_hi in ((triangle, 1100.0), (build_two_cone_surface(), 300.0)):
        model = ladder_model_from_spec(spec)
        window = (100.0, 120.0 if short else re_hi)
        reports.append(gap_report(spec, window, im_offset=model.c_im).to_dict())
    return json.dumps(reports, sort_keys=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", nargs="?",
                   default=str(Path(__file__).resolve().parents[1]))
    p.add_argument("--short", action="store_true",
                   help="scan short strips (smoke test)")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from coneres import build_two_cone_surface, cli, serialize_surface

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        surface = root / "two_cone.yaml"
        surface.write_text(serialize_surface(build_two_cone_surface()))
        flat = root / "flat_two_cone.yaml"
        flat.write_text(serialize_surface(
            build_two_cone_surface(cone_angle=2 * math.pi)))
        runs = scans(surface, flat, args.short)
        for name, scan_args in runs.items():
            env = {}
            if name in OVERRIDES:
                env["CONERES_TOL_OVERRIDES"] = str(root / f"{name}.yaml")
                (root / f"{name}.yaml").write_text(OVERRIDES[name])
            with contextlib.redirect_stdout(sys.stderr), mock.patch.dict(os.environ, env):
                rc = cli.main(["scan", *scan_args, "--out", str(root / name)])
            if rc:
                print(f"error: {name} scan exited {rc}", file=sys.stderr)
                return rc
        for name in runs:
            for path in sorted((root / name).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{path.name}")
    digest = hashlib.sha256(gap_reports(args.short).encode()).hexdigest()
    print(f"{digest}  gap/reports.json")
    battery = io.StringIO()
    with contextlib.redirect_stdout(battery):
        rc = cli.main(["statphase-check"])
    digest = hashlib.sha256(battery.getvalue().encode()).hexdigest()
    print(f"{digest}  statphase/check.txt")
    if rc:
        print(f"error: statphase-check exited {rc}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
