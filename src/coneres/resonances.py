"""Argument-principle zero location for the characteristic function.

Winding numbers are computed by phase continuation: walk a closed
contour, refine the sampling until consecutive phase increments stay
below a safe step, and sum.  Boxes with positive winding are bisected
(with guarded split lines) until each holds a single zero, which Newton
then polishes using the analytic derivative.  A strip scan does this in
rounds over the boxes of all its columns, with one Newton batch a round;
each box is decided on its own samples and iterates alone.  Every
subdivision and the final scan are audited: windings must be conserved
exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AuditError, EscapedBox, NoConvergence, ZeroNearBoundary)
from . import tolerances as tol_mod
from .geometry import ConeSurfaceSpec, length_scales
from .monodromy import char_function

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# function handles


class FunctionHandle:
    """Gives plain callables the ``values``/``values_and_derivs`` pair that
    every zero finder here takes; CharFunction has the pair natively."""

    def __init__(self, values, derivs=None):
        self._values = values
        self._derivs = derivs

    def values(self, lam):
        return np.atleast_1d(np.asarray(self._values(lam)))

    def values_and_derivs(self, lam):
        if self._derivs is None:
            raise NoConvergence("no derivative available for Newton refinement")
        return self.values(lam), np.atleast_1d(np.asarray(self._derivs(lam)))


# ---------------------------------------------------------------------------
# boxes and regions


@dataclass(frozen=True)
class Box:
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi),
                       0.5 * (self.im_lo + self.im_hi))

    @property
    def width(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def height(self) -> float:
        return self.im_hi - self.im_lo

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, z: complex) -> bool:
        return (self.re_lo <= z.real <= self.re_hi
                and self.im_lo <= z.imag <= self.im_hi)

    def boundary_distance(self, z: complex) -> float:
        return min(z.real - self.re_lo, self.re_hi - z.real,
                   z.imag - self.im_lo, self.im_hi - z.imag)

    def inflate(self, factor: float) -> "Box":
        cx, cy = 0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi)
        hw, hh = 0.5 * self.width * factor, 0.5 * self.height * factor
        return Box(cx - hw, cx + hw, cy - hh, cy + hh)

    def split(self, axis: int, frac: float) -> tuple["Box", "Box"]:
        if axis == 0:
            cut = self.re_lo + frac * self.width
            return (Box(self.re_lo, cut, self.im_lo, self.im_hi),
                    Box(cut, self.re_hi, self.im_lo, self.im_hi))
        cut = self.im_lo + frac * self.height
        return (Box(self.re_lo, self.re_hi, self.im_lo, cut),
                Box(self.re_lo, self.re_hi, cut, self.im_hi))

    def corners(self) -> np.ndarray:
        return np.array([
            complex(self.re_lo, self.im_lo), complex(self.re_hi, self.im_lo),
            complex(self.re_hi, self.im_hi), complex(self.re_lo, self.im_hi),
            complex(self.re_lo, self.im_lo),
        ])


@dataclass(frozen=True)
class SearchRegion:
    """Strip {nu_min <= -Im(lam)/log(Re(lam)) <= nu_max} over a Re window."""
    re_min: float
    re_max: float
    nu_min: float
    nu_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.nu_min, self.nu_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("strip bounds must be finite")
        if not (1.0 < self.re_min < self.re_max):
            raise ValueError("need 1 < re_min < re_max (log Re must be positive)")
        if not (0.0 <= self.nu_min < self.nu_max):
            raise ValueError("need 0 <= nu_min < nu_max")


@dataclass(frozen=True)
class Resonance:
    lam: complex
    residual: float
    winding: int
    box: Box
    null_mass: tuple[tuple[str, float], ...] | None = None

    @property
    def nu(self) -> float:
        return -self.lam.imag / math.log(self.lam.real)


@dataclass(frozen=True)
class ResonanceSet:
    items: tuple[Resonance, ...]
    region: SearchRegion
    total_winding_audited: int

    def lambdas(self) -> np.ndarray:
        return np.array([r.lam for r in self.items])


# ---------------------------------------------------------------------------
# phase continuation


def polyline_path(vertices: np.ndarray):
    """Closed piecewise-linear path; parameter t in [0, nseg]."""
    v = np.asarray(vertices, dtype=complex)
    nseg = v.size - 1

    def path(t):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.floor(t).astype(int), 0, nseg - 1)
        fr = t - seg
        return v[seg] * (1.0 - fr) + v[seg + 1] * fr

    return path, nseg


def winding_number(f, path_fn, nseg: int,
                   tol: tol_mod.Tolerances = tol_mod.DEFAULT,
                   per_segment: int | None = None) -> int:
    """Winding of f along the closed path, by adaptive phase continuation.

    Sampling is refined until every consecutive phase increment is below
    tol.winding_max_phase_step.  Raises ZeroNearBoundary when refinement
    stalls (a zero on or hugging the contour) or the winding fails to come
    out near an integer.

    per_segment sets the initial sample count per path segment.  Phase
    tracking is only sound when the initial grid already resolves the
    function's systematic phase drift along the path (adaptive refinement
    alone cannot detect aliased full turns), so callers walking long
    contours must scale this with path length times phase rate.
    """
    per_seg = per_segment or tol.winding_initial_per_segment
    t = np.linspace(0.0, float(nseg), nseg * per_seg + 1)
    pts = path_fn(t)
    vals = f.values(pts)
    # force exact closure so the increments telescope to a clean multiple
    vals[-1] = vals[0]
    if np.any(np.abs(vals) < tol.value_floor) or np.any(~np.isfinite(vals)):
        raise ZeroNearBoundary("contour value underflow: zero on the path?")
    span = float(nseg)
    for _ in range(tol.winding_max_rounds):
        dphi = np.angle(vals[1:] / vals[:-1])
        # a sharp magnitude dip between samples can hide an aliased full
        # turn (zero pair hugging the path), so refine on |f| jumps too
        mag = np.abs(vals)
        ratio = mag[1:] / mag[:-1]
        suspicious = ((np.abs(dphi) >= tol.winding_max_phase_step)
                      | (ratio >= tol.winding_max_mag_step)
                      | (ratio <= 1.0 / tol.winding_max_mag_step))
        bad = np.flatnonzero(suspicious)
        if bad.size == 0:
            total = float(dphi.sum())
            w = total / TWO_PI
            frac = abs(w - round(w))
            if frac > tol.winding_reject_frac:
                raise ZeroNearBoundary(
                    f"winding {w:.4f} too far from an integer; phase tracking "
                    "is unreliable on this contour"
                )
            return int(round(w))
        if t.size + bad.size > tol.winding_max_points:
            raise ZeroNearBoundary("contour refinement exceeded point budget")
        tm = 0.5 * (t[bad] + t[bad + 1])
        if np.any(tm - t[bad] < 1e-13 * span):
            raise ZeroNearBoundary("contour refinement below resolution floor")
        vm = f.values(path_fn(tm))
        if np.any(np.abs(vm) < tol.value_floor) or np.any(~np.isfinite(vm)):
            raise ZeroNearBoundary("contour value underflow: zero on the path?")
        t = np.insert(t, bad + 1, tm)
        vals = np.insert(vals, bad + 1, vm)
    raise ZeroNearBoundary("phase continuation did not settle")


def count_zeros(f, box: Box, tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> int:
    """Number of zeros (with multiplicity) of f inside an axis-aligned box."""
    path_fn, nseg = polyline_path(box.corners())
    return winding_number(f, path_fn, nseg, tol)


# ---------------------------------------------------------------------------
# Newton refinement


def refine_root(f, lam0: complex, box: Box, multiplicity: int = 1,
                tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> tuple[complex, float]:
    """Damped Newton from lam0; the final iterate must stay inside ``box``.

    Steps are scaled by the declared multiplicity and capped at the box
    diameter.  Stops when |f| < newton_residual * (1 + |f'|).  Raises
    NoConvergence or EscapedBox.
    """
    (result,) = _refine_roots(f, [(lam0, box, multiplicity)], tol)
    if isinstance(result, Exception):
        raise result
    return result


def _refine_roots(f, starts, tol: tol_mod.Tolerances) -> list:
    """refine_root on every (lam0, box, multiplicity) start at once.

    One values_and_derivs call per iteration serves all live starts.  The
    step runs on Python complex scalars, as numpy's complex division can
    differ in the last bit.  Returns (lam, |f(lam)|) or the exception per
    start; a NoConvergence from f fails every live start.
    """
    lams = {i: complex(lam0) for i, (lam0, _, _) in enumerate(starts)}
    roams = [box.inflate(3.0) for _, box, _ in starts]
    done: dict = {}
    for _ in range(tol.newton_max_iter):
        if not lams:
            break
        try:
            vs, ds = f.values_and_derivs(np.asarray(list(lams.values()), dtype=complex))
        except NoConvergence as exc:
            return [done.get(i, exc) for i in range(len(starts))]
        for (i, lam), v, d in zip(list(lams.items()), vs, ds):
            _, box, multiplicity = starts[i]
            v, d = complex(v), complex(d)
            if abs(v) < tol.newton_residual * (1.0 + abs(d)):
                done[i] = ((lam, abs(v)) if box.contains(lam) else
                           EscapedBox(f"root {lam} left its box {box}"))
            elif d == 0 or not math.isfinite(abs(d)) or not math.isfinite(abs(v)):
                done[i] = NoConvergence("degenerate derivative during Newton")
            else:
                step = multiplicity * v / d
                mag = abs(step)
                if mag > box.diameter:
                    step *= box.diameter / mag
                lams[i] = lam = lam - step
                if roams[i].contains(lam):
                    continue
                done[i] = EscapedBox(f"Newton iterate {lam} escaped near {box}")
            del lams[i]
    stalled = NoConvergence(f"no convergence within {tol.newton_max_iter} iterations")
    return [done.get(i, stalled) for i in range(len(starts))]


# ---------------------------------------------------------------------------
# subdivision


_SPLIT_FRACTIONS = (0.5, 0.57, 0.43, 0.65, 0.35)


def _split_line_clear(f, box: Box, axis: int, frac: float,
                      tol: tol_mod.Tolerances) -> bool:
    """Probe a candidate split line for zeros hugging it.

    A zero within a small fraction of the box scale of the line shows up
    as a deep dip of |f| along it; phase tracking on the two halves can
    alias a full turn there, so such lines are rejected up front.
    """
    m = tol.split_line_samples
    if axis == 0:
        x = box.re_lo + frac * box.width
        pts = x + 1j * np.linspace(box.im_lo, box.im_hi, m)
    else:
        y = box.im_lo + frac * box.height
        pts = np.linspace(box.re_lo, box.re_hi, m) + 1j * y
    v = np.abs(f.values(pts))
    if np.any(~np.isfinite(v)) or np.any(v <= tol.value_floor):
        return False
    return float(v.min()) > tol.split_dip_rel_floor * float(np.median(v))


def _guarded_split(f, box: Box, w: int,
                   tol: tol_mod.Tolerances) -> tuple[tuple[Box, int], tuple[Box, int]]:
    axis = 0 if box.width >= box.height else 1
    last_exc: Exception | None = None
    for frac in _SPLIT_FRACTIONS:
        if not _split_line_clear(f, box, axis, frac, tol):
            continue
        b1, b2 = box.split(axis, frac)
        try:
            w1 = count_zeros(f, b1, tol)
            w2 = count_zeros(f, b2, tol)
        except ZeroNearBoundary as exc:
            last_exc = exc
            continue
        if w1 + w2 != w:
            raise AuditError(
                f"winding not conserved under split: {w} -> {w1} + {w2} "
                f"(box {box}, axis {axis}, frac {frac})"
            )
        return (b1, w1), (b2, w2)
    raise ZeroNearBoundary(
        f"all split lines rejected for box {box}"
    ) from last_exc


def _scan_columns(f, boxes: list[Box], newton_scale: float,
                  tol: tol_mod.Tolerances) -> list[tuple[Box, int, list[Resonance]]]:
    """(box, winding, refined zeros) of every column box, in rounds."""
    counts = [count_zeros(f, box, tol) for box in boxes]
    found: list[list[Resonance]] = [[] for _ in boxes]
    work = [(col, box, w) for col, (box, w) in enumerate(zip(boxes, counts)) if w]
    while work:
        ready = [(col, b) for col, b, wb in work
                 if wb == 1 and max(b.width, b.height) <= 1.6 * newton_scale]
        refined = _refine_roots(f, [(b.center, b, 1) for _, b in ready], tol)
        results = dict(zip(ready, refined))
        split: list[tuple[int, Box, int]] = []
        for col, b, wb in work:
            if isinstance(results.get((col, b)), tuple):
                lam, resid = results[col, b]
                found[col].append(Resonance(lam=lam, residual=resid, winding=1, box=b))
                continue
            # a failed Newton start falls through to a further split
            if wb > 1 and b.diameter < tol.multiplicity_diameter:
                # refuses to separate below the multiplicity scale: report as one
                lam, resid = refine_root(f, b.center, b.inflate(4.0), wb, tol)
                found[col].append(Resonance(lam=lam, residual=resid, winding=wb, box=b))
                continue
            if b.diameter < tol.min_box_diameter:
                raise NoConvergence(f"cannot localise zero inside {b}")
            split.extend((col, sb, sw) for sb, sw in _guarded_split(f, b, wb, tol) if sw)
        work = split
    return list(zip(boxes, counts, found))


# ---------------------------------------------------------------------------
# the strip scan


def _column_boxes(region: SearchRegion, width_hint: float,
                  shift: float) -> list[Box]:
    """Cover the strip with full-height column boxes of ~width_hint.

    Column y-ranges follow the strip's log-curves per column, so the union
    is a staircase superset of the strip with no interior overlap.
    """
    span = region.re_max - region.re_min
    ncols = max(1, int(round(span / width_hint)))
    w = span / ncols
    cuts = [region.re_min + w * k for k in range(ncols + 1)]
    if shift:
        s = shift % w
        shifted = [region.re_min + s + w * k for k in range(ncols)]
        cuts = [region.re_min] + [x for x in shifted
                                  if region.re_min + 1e-9 * w < x < region.re_max - 1e-9 * w]
        cuts.append(region.re_max)
    boxes = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        boxes.append(Box(
            re_lo=lo, re_hi=hi,
            im_lo=-region.nu_max * math.log(hi),
            im_hi=-region.nu_min * math.log(lo),
        ))
    return boxes


def _staircase_vertices(boxes: list[Box]) -> np.ndarray:
    """Counterclockwise outline of the union of column boxes."""
    pts: list[complex] = [complex(boxes[0].re_lo, boxes[0].im_lo)]
    for i, b in enumerate(boxes):
        pts.append(complex(b.re_hi, b.im_lo))
        if i + 1 < len(boxes):
            pts.append(complex(b.re_hi, boxes[i + 1].im_lo))
    for b in reversed(boxes):
        pts.append(complex(b.re_hi, b.im_hi))
        pts.append(complex(b.re_lo, b.im_hi))
    pts.append(pts[0])
    # drop consecutive duplicates (zero-length joints); the path stays closed
    cleaned = [pts[0]]
    for p in pts[1:]:
        if p != cleaned[-1]:
            cleaned.append(p)
    return np.asarray(cleaned, dtype=complex)


def scan_strip(spec: ConeSurfaceSpec | None, region: SearchRegion,
               tol: tol_mod.Tolerances = tol_mod.DEFAULT,
               jobs: int = 1,
               grid_offset: float = 0.0,
               char_fn=None,
               with_null_vectors: bool = False,
               seed: int = 7) -> ResonanceSet:
    """Locate all zeros of det(I - M) in the strip; audit winding totals.

    ``char_fn`` replaces the spec's characteristic function with any
    object having ``values`` and ``values_and_derivs``.  ``jobs`` is
    accepted and ignored, since the scan runs in one process.

    The strip is covered by full-height columns about half the expected
    ladder spacing wide, aligned so predicted zeros sit near column
    centres when a ladder model is available.  Any boundary conflict
    restarts the scan on a shifted grid (deterministic shifts).  The sum
    of located windings must equal the winding of the staircase outline of
    the scanned union, else AuditError.
    """
    if char_fn is not None:
        f = char_fn
    elif spec is not None:
        f = char_function(spec)
    else:
        raise ValueError("need a spec or an explicit char_fn")

    seed_shift = 0.0
    if spec is None:
        width = (region.re_max - region.re_min) / 16.0
    else:
        from .asymptotics import ladder_model_from_spec
        try:
            model = ladder_model_from_spec(spec, tol)
        except ValueError:   # no single dominant cycle, hence no ladder
            width = math.pi / (2.0 * length_scales(spec, tol).L0)
        else:
            width = math.pi / (2.0 * model.L0)
            # put the predicted coset mid-column: boundaries at c_re + w/2 (mod w)
            seed_shift = (model.c_re + 0.5 * width - region.re_min) % width

    last_exc: Exception | None = None
    for attempt in range(tol.grid_retry_shifts):
        shift = seed_shift + grid_offset + attempt * 0.137 * width
        boxes = _column_boxes(region, width, shift)
        try:
            results = _scan_columns(f, boxes, width, tol)
            return _assemble_set(spec, f, boxes, results, region, tol,
                                 with_null_vectors, seed)
        except ZeroNearBoundary as exc:
            last_exc = exc
    raise ZeroNearBoundary(
        f"scan failed after {tol.grid_retry_shifts} grid shifts"
    ) from last_exc


def _assemble_set(spec, f, boxes, results, region, tol,
                  with_null_vectors, seed) -> ResonanceSet:
    total_cols = sum(w for _, w, _ in results)
    outline = _staircase_vertices(boxes)
    path_fn, nseg = polyline_path(outline)
    outer = winding_number(f, path_fn, nseg, tol)
    if outer != total_cols:
        raise AuditError(
            f"winding audit failed: columns total {total_cols}, "
            f"outer contour {outer}"
        )
    items: list[Resonance] = []
    for b, w, found in results:
        got = sum(r.winding for r in found)
        if got != w:
            raise AuditError(f"column at [{b.re_lo}, {b.re_hi}] lost zeros")
        for r in found:
            # guard against zeros hugging an audit line of the tiling
            if b.boundary_distance(r.lam) < tol.boundary_guard:
                raise ZeroNearBoundary(
                    f"refined zero {r.lam} violates the boundary guard"
                )
        items.extend(found)
    items.sort(key=lambda r: (r.lam.real, r.lam.imag))
    if with_null_vectors and spec is not None:
        from .monodromy import null_vector
        for k, r in enumerate(items):
            try:
                mv = null_vector(spec, r.lam, residual_threshold=1e-4, seed=seed)
                mass = tuple(sorted(mv.null_mass().items()))
            except NoConvergence:   # residual too large for a null vector
                mass = None
            items[k] = replace(r, null_mass=mass)
    return ResonanceSet(items=tuple(items), region=region,
                        total_winding_audited=outer)
