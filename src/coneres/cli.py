"""Command line front end.

Subcommands:
  scan             locate resonances in a strip, write csv/json reports
  validate         check a surface file against the model hypotheses
  diffraction      evaluate one diffraction coefficient
  statphase-check  run the stationary-phase order battery

Exit codes: 0 success, 1 input or usage error (any other OSError or
ValueError) or out of memory (such as a strip too wide to lay out), 2
hypothesis or verification failure, or a numerical failure of any
command: one of NUMERICAL_FAILURES (ZeroNearBoundary, AuditError,
NoConvergence, EscapedBox, CostBudgetExceeded, InsufficientData), which
main alone maps to its exit code.  Scan outputs are byte-deterministic
for a fixed surface, region and seed.
--jobs is accepted and ignored, because scans run in one process.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from . import tolerances as tol_mod
from .errors import (AuditError, CostBudgetExceeded, EscapedBox,
                     InsufficientData, NoConvergence, SurfaceValidationError,
                     ZeroNearBoundary)
from .geometry import (build_polygon_double, length_scales, load_surface,
                       validate_hypotheses)
from .diffraction import DiffractionEvaluator, diffraction_coefficient
from .resonances import ResonanceSet, SearchRegion, scan_strip
from .asymptotics import (LadderModel, fit_log_curve, ladder_model_from_spec,
                          verify_scan)
from . import statphase as sp

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2

# a numerical failure of any command: main prints it with its type, exit 2
NUMERICAL_FAILURES = (ZeroNearBoundary, AuditError, NoConvergence, EscapedBox,
                      CostBudgetExceeded, InsufficientData)


def _fail(msg: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_polygon(text: str):
    pts = []
    for tok in text.replace(";", " ").split():
        a, _, b = tok.partition(",")
        pts.append((float(a), float(b)))
    return pts


def _load_spec(args):
    polygon = getattr(args, "polygon", None)
    path = getattr(args, "input", None)
    if polygon and path:
        raise SurfaceValidationError("give either --input or --polygon, not both")
    if polygon:
        return build_polygon_double(_parse_polygon(polygon))
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return load_surface(fh.read())
    raise SurfaceValidationError("no surface given: use --input or --polygon")


def _f(x) -> str:
    # repr round-trips and is stable across runs, good for byte-identical csv
    return repr(float(x))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _resonance_row(r) -> tuple:
    # fields by name: astuple deep-copies, and wrote these rows 1.7x slower
    b = r.box
    return (_f(r.lam.real), _f(r.lam.imag), _f(r.residual), str(r.winding),
            _f(r.nu), _f(b.re_lo), _f(b.re_hi), _f(b.im_lo), _f(b.im_hi))


def _plot_row(r, model: LadderModel | None) -> tuple:
    """(re, im, nu, predicted_im, deviation); no prediction without a model."""
    cells = _f(r.lam.real), _f(r.lam.imag), _f(r.nu)
    if model is None:
        return (*cells, "", "")
    pred = model.slope * math.log(abs(r.lam)) + model.c_im
    return (*cells, _f(pred), _f(r.lam.imag - pred))


def _surface_summary(spec) -> dict:
    return {
        "dimension": 2,
        "cone_points": [{"id": p.id, "angle": p.cone_angle}
                        for p in spec.cone_points],
        "edges": [{"id": e.id, "from": e.from_point, "to": e.to_point,
                   "length": e.length} for e in spec.edges],
    }


def _write_outputs(out: str, spec, scales, region: SearchRegion, seed,
                   model: LadderModel | None, rs: ResonanceSet, fit,
                   verification) -> None:
    """Write the four scan files into the directory ``out``."""
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "resonances.csv"),
               "re_lambda,im_lambda,residual,winding,nu,"
               "box_re_lo,box_re_hi,box_im_lo,box_im_hi",
               map(_resonance_row, rs.items))
    _write_csv(os.path.join(out, "plot_data.csv"),
               "re,im,nu,predicted_im,deviation",
               (_plot_row(r, model) for r in rs.items))
    report = {
        "surface": _surface_summary(spec),
        "scales": dict(asdict(scales),
                       maximal_edges=sorted(scales.maximal_edges)),
        "region": asdict(region),
        "seed": seed,
        "model": None if model is None else {
            "n": 2, "L0": model.L0,
            "c_prod_re": model.c_prod.real,
            "c_prod_im": model.c_prod.imag,
            "spacing": model.spacing, "slope": model.slope,
            "c_re": model.c_re, "c_im": model.c_im,
        },
        "audit": {"total_winding": rs.total_winding_audited,
                  "resonance_count": len(rs.items)},
        "resonances": [
            {"re": r.lam.real, "im": r.lam.imag,
             "residual": r.residual, "winding": r.winding, "nu": r.nu,
             "null_mass": None if r.null_mass is None
             else dict(r.null_mass)}
            for r in rs.items
        ],
        "fit": None if fit is None else fit.to_dict(),
        "verification": None if verification is None
        else verification.to_dict(),
    }
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        # streamed: json.dumps' whole string raised a tri345 scan's peak by 1 MB
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out, "fit_summary.txt"), "w", encoding="utf-8") as fh:
        if fit is not None:
            fh.write(fit.to_text() + "\n")
        else:
            fh.write("no fit: insufficient points or no ladder model\n")
        if verification is not None:
            fh.write(verification.to_text() + "\n")


def _cmd_scan(args, tol: tol_mod.Tolerances) -> int:
    spec = _load_spec(args)
    hyp = validate_hypotheses(spec, tol)
    if not hyp.passed:
        print(hyp.to_text(), file=sys.stderr)
        print("hypothesis check failed; not scanning", file=sys.stderr)
        return EXIT_VERIFY

    scales = length_scales(spec, tol)
    try:
        model = ladder_model_from_spec(spec, tol)
    except ValueError as exc:
        model, no_model = None, str(exc)

    region = SearchRegion(re_min=args.re[0], re_max=args.re[1],
                          nu_min=args.nu[0], nu_max=args.nu[1])
    if args.verify and model is None:
        print(f"cannot verify: {no_model}", file=sys.stderr)
        return EXIT_VERIFY
    rs = scan_strip(spec, region, tol=tol, jobs=args.jobs,
                    with_null_vectors=not args.no_null_vectors, seed=args.seed)

    min_re = max(region.re_min, tol.fit_min_re)
    fit = verification = None
    if args.verify:
        try:
            verification = verify_scan(rs, model, min_re=min_re, tol=tol)
        except InsufficientData as exc:
            print(f"cannot verify: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        fit = verification.fit
    elif model is not None:
        try:
            fit = fit_log_curve(rs.lambdas(), model.L0, min_re=min_re, tol=tol)
        except InsufficientData:
            pass

    if args.out:
        try:
            _write_outputs(args.out, spec, scales, region, args.seed, model, rs,
                           fit, verification)
        except OSError as exc:
            return _fail(f"cannot write --out {args.out}: {exc}")

    print(f"{len(rs.items)} resonances, audited winding "
          f"{rs.total_winding_audited}, Re in [{region.re_min}, "
          f"{region.re_max}]" + (f" -> {args.out}" if args.out else ""))
    if verification is not None:
        print(verification.to_text())
        if not verification.passed:
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_validate(args, tol: tol_mod.Tolerances) -> int:
    spec = _load_spec(args)
    scales = length_scales(spec, tol)
    print(f"dimension 2, {len(spec.cone_points)} cone points, "
          f"{len(spec.edges)} directed edges")
    print(f"L0 = {scales.L0!r}, L' = {scales.Lprime!r}, "
          f"Lambda = {scales.Lambda!r}")
    hyp = validate_hypotheses(spec, tol)
    print(hyp.to_text())
    return EXIT_OK if hyp.passed else EXIT_VERIFY


def _cmd_diffraction(args, tol: None) -> int:
    """One coefficient; main reads no tolerances for it, so tol is None."""
    val = diffraction_coefficient(DiffractionEvaluator(cone_angle=args.angle),
                                  args.dtheta)
    print(f"{val.real:.15g} {val.imag:.15g}")
    return EXIT_OK


_BATTERY = (
    # (n, order, h grid) chosen so the oracle stays cheap but above noise
    (1, 1, (0.1, 0.075, 0.056, 0.042, 0.032)),
    (1, 2, (0.14, 0.105, 0.079, 0.059, 0.044)),
    (2, 1, (0.2, 0.15, 0.112, 0.084, 0.063)),
)


def _battery_problem(n: int, h: float) -> sp.StatPhaseProblem:
    if n == 1:
        quad = sp.QuadraticPhase.from_array([[2.0]])
        coeffs = (1.0, 0.0, 1.0, 0.0, 1.0)          # 1 + x^2 + x^4
    else:
        quad = sp.QuadraticPhase.from_array([[2.0, 0.6], [0.6, 2.0]])
        coeffs = ((1.0, 0.0, 1.0),                   # 1 + x^2 + y^2 + x^2 y^2
                  (0.0, 0.0, 0.0),
                  (1.0, 0.0, 1.0))
    return sp.StatPhaseProblem(quadratic=quad, amplitude_coeffs=coeffs,
                               w=1.0, h=h, cutoff_radius=3.0)


def _cmd_statphase(args, tol: tol_mod.Tolerances) -> int:
    ok = True
    for n, order, hs in _BATTERY:
        if args.order is not None and order != args.order:
            continue
        rep = sp.order_check(lambda h, n=n: _battery_problem(n, h), order, hs,
                             tol=tol)
        print(rep.to_text())
        ok = ok and rep.passed()
    if args.order is None:
        slope = sp.nonstationary_decay((0.012, 0.008, 0.005, 0.003, 0.002),
                                       tol=tol)
        passed = slope > 3.0
        print(f"nonstationary decay slope {slope:.2f} "
              f"(require > 3) [{'ok' if passed else 'OFF'}]")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1 with one error: line."""

    def error(self, message):
        sys.exit(_fail(message))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="coneres",
        description="resonances of cone surfaces via the edge-transfer model",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scan", help="locate resonances in a strip")
    sc.add_argument("--input", help="surface file (yaml)")
    sc.add_argument("--polygon",
                    help="convex polygon vertices, e.g. '0,0 3,0 0,4'")
    sc.add_argument("--re", nargs=2, type=float, required=True,
                    metavar=("LO", "HI"))
    sc.add_argument("--nu", nargs=2, type=float, required=True,
                    metavar=("LO", "HI"))
    sc.add_argument("--out", help="output directory")
    sc.add_argument("--jobs", type=int, default=1,
                    help="accepted and ignored: scans run in one process")
    sc.add_argument("--seed", type=int, default=7)
    sc.add_argument("--verify", action="store_true",
                    help="check the scan against the string law")
    sc.add_argument("--no-null-vectors", action="store_true",
                    help="skip per-resonance null vector computation")
    sc.set_defaults(func=_cmd_scan)

    va = sub.add_parser("validate", help="check hypotheses for a surface")
    va.add_argument("--input")
    va.add_argument("--polygon")
    va.set_defaults(func=_cmd_validate)

    df = sub.add_parser("diffraction", help="one diffraction coefficient")
    df.add_argument("--angle", type=float, required=True,
                    help="cone angle (total angle at the point)")
    df.add_argument("--dtheta", type=float, required=True,
                    help="direction difference at the cone point")
    df.set_defaults(func=_cmd_diffraction)

    st = sub.add_parser("statphase-check",
                        help="empirical order checks for the expansion")
    st.add_argument("--order", type=int, default=None,
                    choices=sorted({order for _, order, _ in _BATTERY}),
                    help="restrict the battery to one expansion order")
    st.set_defaults(func=_cmd_statphase)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol = None
    if args.command != "diffraction":       # the one command without tolerances
        try:
            tol = tol_mod.from_environment()
        except (OSError, KeyError, TypeError, ValueError) as exc:
            # str() of a KeyError is the repr of its message, quotes included
            msg = exc.args[0] if isinstance(exc, KeyError) else exc
            return _fail(f"bad tolerance override: {msg}")
    try:
        return args.func(args, tol)
    except NUMERICAL_FAILURES as exc:   # before ValueError: InsufficientData is one
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_VERIFY)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:
        return _fail(f"out of memory: {str(exc) or 'allocation failed'}")


if __name__ == "__main__":
    sys.exit(main())
