"""Resonance string asymptotics for the edge-transfer model.

When a surface has a unique longest closed geodesic (an edge and its
reversal), the large-Re zeros of det(I - M) organise into a string

    Im(lam) = -1/(2 L0) * log|lam| + C_im + o(1),
    Re(lam) = C_re + (pi / L0) * k + o(1),  k integer,

with constants set by the product of the two diffraction couplings
around the maximal cycle.  The slope is the paper's -(n-1)/(2 L0) at
n = 2, the only dimension the package models.  This module predicts
individual string zeros by Newton on the quantization condition, fits
scans against the law, and counts zeros in log-curve bands via the
argument principle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientData, NoConvergence
from . import tolerances as tol_mod
from .geometry import (TWO_PI, CheckResult, ConeSurfaceSpec, LengthScales,
                       length_scales, link_distance)
from .monodromy import coupling_coefficient, char_function
from .resonances import (ResonanceSet, _checked, _polylines, _zero_count,
                         winding_number)


@dataclass(frozen=True)
class LadderModel:
    """One-cycle reduction of the characteristic function.

    det(I - M) ~ 1 - c_prod * lam^{-1} * exp(2i*lam*L0) when a single
    edge pair dominates.  All string constants derive from (L0, c_prod).
    """
    L0: float
    c_prod: complex

    @property
    def spacing(self) -> float:
        return math.pi / self.L0

    @property
    def slope(self) -> float:
        return -1 / (2.0 * self.L0)

    @property
    def c_im(self) -> float:
        return math.log(abs(self.c_prod)) / (2.0 * self.L0)

    @property
    def c_re(self) -> float:
        # real coset, reduced into [0, spacing)
        raw = -cmath.phase(self.c_prod) / (2.0 * self.L0)
        return raw % self.spacing


def ladder_model_from_spec(spec: ConeSurfaceSpec,
                           tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> LadderModel:
    """Build the one-cycle model from the unique maximal edge pair.

    Raises ValueError, with the reason, when no single cycle dominates:
    the maximal geodesic is not unique (more than one unoriented edge
    attains L0 within tol.length_tie_rel), its edges are not a reversal
    pair, or the couplings around it vanish.
    """
    scales = length_scales(spec, tol)
    maximal = set(scales.maximal_edges)
    if len(maximal) != 2:
        raise ValueError(
            f"maximal geodesic is not unique: {sorted(maximal)} all attain L0"
        )
    e_id = sorted(maximal)[0]
    e = spec.edge(e_id)
    r_id = e.reversal
    if r_id not in maximal:
        raise ValueError("maximal edges are not a reversal pair")
    c1 = coupling_coefficient(spec, r_id, e_id)   # arrive along e, leave as rbar
    c2 = coupling_coefficient(spec, e_id, r_id)
    if c1 * c2 == 0:
        raise ValueError("no diffractive coupling around the maximal cycle")
    return LadderModel(L0=scales.L0, c_prod=c1 * c2)


def predicted_ladder(model: LadderModel, ks,
                     tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> np.ndarray:
    """Exact one-cycle zeros near Re = c_re + spacing*k, by Newton.

    Solves 2i*lam*L0 - Log(lam) + c_log = 2*pi*i*k on the principal
    branch, where c_log is anchored so index k lands in coset k.  Requires
    every requested index to predict Re(lam) > 1.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    x0 = model.c_re + model.spacing * ks
    if np.any(x0 <= 1.0):
        raise ValueError("ladder indices must predict Re(lam) > 1")
    c_log = complex(math.log(abs(model.c_prod)), -2.0 * model.L0 * model.c_re)
    lam = x0 - 1j * (1 / (2.0 * model.L0)) * np.log(x0)
    target = TWO_PI * 1j * ks
    for _ in range(60):
        g = 2j * lam * model.L0 - np.log(lam) + c_log - target
        step = g / (2j * model.L0 - 1 / lam)
        lam = lam - step
        # relative step test: g itself carries rounding noise ~ ulp(lam*L0),
        # so an absolute residual floor is unreachable for large lam
        if np.all(np.abs(step) < tol.ladder_newton_tol * (1.0 + np.abs(lam))):
            return lam
    raise NoConvergence("quantization Newton stalled")


def ladder_in_window(model: LadderModel, re_lo: float, re_hi: float,
                     tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> np.ndarray:
    """All predicted string zeros with Re(lam) inside [re_lo, re_hi]."""
    c_re, spacing = model.c_re, model.spacing
    k_lo = math.ceil((re_lo - c_re) / spacing) - 1
    k_hi = math.floor((re_hi - c_re) / spacing) + 1
    ks = [k for k in range(k_lo, k_hi + 1) if c_re + spacing * k > 1.0]
    if not ks:
        return np.array([], dtype=complex)
    lams = predicted_ladder(model, np.asarray(ks), tol)
    keep = (lams.real >= re_lo) & (lams.real <= re_hi)
    return lams[keep]


def coset_deviations(lambdas, model: LadderModel) -> np.ndarray:
    """Signed distance of Re(lam) from the nearest predicted coset point."""
    re = np.asarray([z.real for z in np.atleast_1d(lambdas)], dtype=float)
    s = model.spacing
    return (re - model.c_re + 0.5 * s) % s - 0.5 * s


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitReport:
    slope: float
    slope_expected: float
    intercept: float            # fitted C_im
    spacing_mean: float
    spacing_expected: float
    c_re_empirical: float       # circular mean of the Re cosets, in [0, spacing)
    residual_rms: float
    count: int
    re_range: tuple[float, float]

    def to_dict(self) -> dict:
        return dict(asdict(self), re_range=list(self.re_range))

    def to_text(self) -> str:
        lines = [
            f"points fitted        {self.count} over Re in "
            f"[{self.re_range[0]:.3f}, {self.re_range[1]:.3f}]",
            f"log-curve slope      {self.slope: .8f}  "
            f"(expected {self.slope_expected: .8f})",
            f"intercept C_im       {self.intercept: .8f}",
            f"mean spacing         {self.spacing_mean: .8f}  "
            f"(expected {self.spacing_expected: .8f})",
            f"Re coset (circular)  {self.c_re_empirical: .8f}",
            f"residual rms         {self.residual_rms: .3e}",
        ]
        return "\n".join(lines)


def fit_log_curve(lambdas, L0: float, *,
                  min_re: float | None = None,
                  tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> FitReport:
    """Least-squares fit of Im(lam) against log|lam|, plus spacing stats.

    Points with Re below min_re (default tol.fit_min_re) are dropped;
    fewer than tol.fit_min_points surviving points raises InsufficientData.
    """
    if min_re is None:
        min_re = tol.fit_min_re
    lam = np.asarray(np.atleast_1d(lambdas), dtype=complex)
    lam = lam[np.argsort(lam.real)]
    lam = lam[lam.real >= min_re]
    if lam.size < tol.fit_min_points:
        raise InsufficientData(
            f"{lam.size} points above Re={min_re}, "
            f"need {tol.fit_min_points}"
        )
    x = np.log(np.abs(lam))
    y = lam.imag
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    spacing_expected = math.pi / L0
    diffs = np.diff(lam.real)
    ok = np.abs(diffs - spacing_expected) < 0.5 * spacing_expected
    if not np.any(ok):
        raise InsufficientData("no consecutive pair at the expected spacing")
    spacing_mean = float(np.mean(diffs[ok]))
    # circular mean of the Re cosets
    ang = TWO_PI * (lam.real % spacing_expected) / spacing_expected
    mean_dir = complex(np.mean(np.cos(ang)), np.mean(np.sin(ang)))
    c_re_emp = (cmath.phase(mean_dir) / TWO_PI * spacing_expected) % spacing_expected
    return FitReport(
        slope=float(slope),
        slope_expected=-1 / (2.0 * L0),
        intercept=float(intercept),
        spacing_mean=spacing_mean,
        spacing_expected=spacing_expected,
        c_re_empirical=float(c_re_emp),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        count=int(lam.size),
        re_range=(float(lam.real.min()), float(lam.real.max())),
    )


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    fit: FitReport
    model: LadderModel

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [c.detail for c in self.checks]
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "fit": self.fit.to_dict(),
        }


def verify_scan(result: ResonanceSet, model: LadderModel,
                min_re: float | None = None,
                tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> VerificationReport:
    """Check a scan against the string law at standard tolerances."""
    fit = fit_log_curve(result.lambdas(), model.L0, min_re=min_re, tol=tol)
    rows = (
        # name, label, fitted, predicted, error kind, error, allowance
        ("log_curve_slope", "slope", fit.slope, model.slope, "rel",
         abs(fit.slope - model.slope) / abs(model.slope), tol.verify_slope_rel),
        ("mean_spacing", "spacing", fit.spacing_mean, model.spacing, "abs",
         abs(fit.spacing_mean - model.spacing), tol.verify_spacing_abs),
        ("intercept_c_im", "C_im", fit.intercept, model.c_im, "abs",
         abs(fit.intercept - model.c_im), tol.verify_const_abs),
        ("coset_c_re", "C_re", fit.c_re_empirical, model.c_re, "circular",
         link_distance(fit.c_re_empirical - model.c_re, model.spacing),
         tol.verify_const_abs),
    )
    checks = [
        CheckResult(name=name, passed=err <= allow, witnesses=(),
                    detail=f"{label} {fitted:.6f} vs {predicted:.6f} "
                           f"({kind} err {err:.2e}, allow {allow:.0e})")
        for name, label, fitted, predicted, kind, err, allow in rows
    ]
    return VerificationReport(checks=tuple(checks), fit=fit, model=model)


# ---------------------------------------------------------------------------
# gap bands


def log_band_path(re_lo: float, re_hi: float, nu_lo: float, nu_hi: float,
                  im_offset: float = 0.0):
    """Closed contour bounding {nu_lo <= nu <= nu_hi} over a Re window.

    The contour is the rectangle re_lo <= x <= re_hi, nu_lo <= nu <= nu_hi
    of the (Re, nu) chart, held as the points x + i nu and walked by the
    scan's polyline builder (resonances._polylines), each sample mapped to
    z = x + i (im_offset - nu log x).  The path runs along the lower
    curve (nu_hi) left to right, up the right edge, along the upper curve
    (nu_lo) right to left and down the left edge: counterclockwise.  Returns
    (path_fn, nseg) for winding_number; bounds not finite or not ordered
    raise ValueError.
    """
    if not all(map(math.isfinite, (re_lo, re_hi, nu_lo, nu_hi, im_offset))):
        raise ValueError("band bounds and offset must be finite")
    if not (0.0 <= nu_lo < nu_hi):
        raise ValueError("need 0 <= nu_lo < nu_hi")
    if not (1.0 < re_lo < re_hi):
        raise ValueError("need 1 < re_lo < re_hi")
    chart = _polylines(np.array([[complex(re_lo, nu_hi), complex(re_hi, nu_hi),
                                  complex(re_hi, nu_lo), complex(re_lo, nu_lo),
                                  complex(re_lo, nu_hi)]]))

    def path(t):
        w = chart(np.asarray(t, dtype=float), 0)
        x = w.real
        return x + 1j * (im_offset - w.imag * np.log(x))

    return path, 4


def _band_counts(re_lo: float, re_hi: float, nu_lo: float, nu_hi: float,
                 L0: float, tol: tol_mod.Tolerances) -> tuple[int, int, int, int]:
    """Initial samples per segment of a gap_report band (see gap_report)."""
    per_seg = max(tol.winding_initial_per_segment,
                  int(math.ceil((re_hi - re_lo) * L0 * 8.0 / math.pi)))
    right, left = (max(tol.winding_initial_per_segment,
                       math.ceil((nu_hi - nu_lo) * math.log(x) * L0 * 8.0 / math.pi))
                   for x in (re_hi, re_lo))
    return per_seg, right, per_seg, left


@dataclass(frozen=True)
class GapReport:
    re_window: tuple[float, float]
    delta: float
    im_offset: float
    gap_nu_lo: float
    gap_nu_hi: float
    gap_band_empty: bool
    gap_winding: int
    string_winding: int
    string_expected: float
    eps_prime: float | None
    scales: LengthScales

    def to_dict(self) -> dict:
        d = dict(asdict(self), re_window=list(self.re_window))
        s = d.pop("scales")
        return dict(d, L0=s["L0"], Lprime=s["Lprime"], Lambda=s["Lambda"])


def gap_report(spec: ConeSurfaceSpec, re_window: tuple[float, float],
               delta: float = 0.02, im_offset: float = 0.0,
               tol: tol_mod.Tolerances = tol_mod.DEFAULT,
               char_fn=None) -> GapReport:
    """Count zeros in the expected resonance-free band and around the string.

    The gap band is nu in [1/(2 L0) + delta, Lambda - delta]; when the
    surface's length gap makes that interval empty the band is reported as
    empty with winding zero.  The string band is nu in [nu0 - delta,
    nu0 + delta] around the string slope, with curves shifted vertically by
    im_offset (use the model's C_im to centre the band on the string).

    Each band is walked with an initial grid sampled by length: L0 8/pi
    samples per unit of Re along the two curves, 8 a turn of the dominant
    phase rate 2*L0, else full turns can alias away near the string, and
    the same density per unit length along the two vertical edges, but at
    least tol.winding_initial_per_segment samples a side.  That suffices
    on an edge, where the dominant term e^{2 i lam L0} does not turn (its
    phase depends on Re lam only), so the phase moves fast only near a
    zero, which adaptive refinement catches at the density of a scan's box
    sides.  A band over a narrow window costs about the grid of a box.

    ``char_fn`` replaces the spec's lru-cached characteristic function
    with any object having ``values``, as in ``scan_strip``; a fresh
    ``CharFunction(spec)`` counts the points of this report alone.

    A band whose initial grid (about ``2 (re_hi - re_lo) L0 8/pi``
    samples) passes half of tol.winding_max_points is cut along Re into
    the fewest equal pieces whose grids take about that half each, which
    leaves the other half to refinement.  Each piece is walked as its own
    band contour, and the windings add, since neighbouring pieces run
    their shared edge in opposite directions.  Cost grows with the
    window, as a scan's does.

    Each piece is walked counterclockwise, so for a char function analytic
    there a negative piece winding means phase tracking failed: it raises
    ZeroNearBoundary, naming the band and the winding.  Raises ValueError,
    before any evaluation, unless 1 < re_lo < re_hi, delta > 0 and
    im_offset are finite.
    """
    re_lo, re_hi = float(re_window[0]), float(re_window[1])
    if not (1.0 < re_lo < re_hi < math.inf and 0.0 < delta < math.inf
            and math.isfinite(im_offset)):
        raise ValueError(
            f"gap_report needs finite 1 < re_lo < re_hi, delta > 0 and "
            f"im_offset, got Re [{re_lo:g}, {re_hi:g}], delta = {delta:g} "
            f"and im_offset = {im_offset:g}")
    scales = length_scales(spec, tol)
    nu0 = 1 / (2.0 * scales.L0)
    f = char_function(spec) if char_fn is None else char_fn

    def winding(band: str, lo: float, hi: float, offset: float) -> int:
        """Winding of the band nu in [lo, hi], summed over its Re pieces."""
        size = 1 + sum(_band_counts(re_lo, re_hi, lo, hi, scales.L0, tol))
        pieces = 1 + (size - 1) // (tol.winding_max_points // 2)
        cuts = np.linspace(re_lo, re_hi, pieces + 1).tolist()
        total = 0
        for a, b in zip(cuts[:-1], cuts[1:]):
            w = winding_number(f, *log_band_path(a, b, lo, hi, offset), tol,
                               per_segment=_band_counts(a, b, lo, hi, scales.L0, tol))
            region = f"the {band} band over Re [{a}, {b}]"
            total += _checked([_zero_count(w, region)])[0]
        return total

    gap_lo, gap_hi = nu0 + delta, scales.Lambda - delta
    empty = gap_lo >= gap_hi
    gap_w = 0 if empty else winding("gap", gap_lo, gap_hi, 0.0)
    string_w = winding("string", max(nu0 - delta, 0.0), nu0 + delta, im_offset)

    eps_prime: float | None
    t1 = 1.5 - 2.0 * scales.L0 * (scales.Lambda - delta)
    if scales.Lprime is not None:
        t0 = 1 - 2.0 * scales.Lprime * (scales.Lambda - delta)
        eps_prime = min(t0, t1)
    else:
        eps_prime = t1
    return GapReport(
        re_window=(re_lo, re_hi),
        delta=delta,
        im_offset=im_offset,
        gap_nu_lo=gap_lo,
        gap_nu_hi=gap_hi,
        gap_band_empty=empty,
        gap_winding=gap_w,
        string_winding=string_w,
        string_expected=(re_hi - re_lo) * scales.L0 / math.pi,
        eps_prime=eps_prime,
        scales=scales,
    )
