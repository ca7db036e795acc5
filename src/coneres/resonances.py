"""Argument-principle zero location for the characteristic function.

Winding numbers are computed by phase continuation: walk a closed
contour, refine the sampling until consecutive phase increments stay
below a safe step, and sum.  Boxes with positive winding are bisected
(with guarded split lines) until each holds a single zero, which Newton
then polishes using the analytic derivative.  A strip scan does this in
rounds over the boxes of all its columns, with one Newton batch a round.
The scan takes its columns in runs that bound the work in flight, and
its winding walks run in lock-step: one walk counts every column box of
a run, and each split pass probes the split lines of every box it splits
in one evaluation and walks all the halves together, so each refinement
round evaluates the new points of every live contour at once, and
re-tests only the steps it split.  Each box is still decided on its own
samples and iterates alone.  Initial samples that an earlier walk of
the scan took at the same points are handed on, not evaluated again: a
half takes the values of the side it keeps whole from its box's walk and
those of its split side from the split-line probe, and a run's outline
takes its bottom and top from the column walk, each at a point bit for
bit equal to the one evaluated.  As values is batch-invariant, every walk
consumes the very samples and values it would evaluate alone.  Every
subdivision, every run and every cut between two runs are audited:
windings must be conserved exactly.

A round's work is arrays, not objects: each box is a row of bounds
(re_lo, re_hi, im_lo, im_hi) with its column and winding, and the array
forms of Box's centre, split, inflate and contains compute its bits.
Box objects are made for Resonance.box and for error messages only.
Newton steps every start of a round on float64 arrays, emulating
CPython's complex arithmetic (Smith's division, the (s, 0.0) operand of
a real factor, hypot for abs), with math.hypot box diameters; so every
iterate, and every zero, has the bits a loop over Python complex
numbers would give.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AuditError, EscapedBox, NoConvergence, ZeroNearBoundary)
from . import tolerances as tol_mod
from .geometry import TWO_PI, ConeSurfaceSpec, length_scales
from . import monodromy


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


# Most points in one f.values call (see _values).  values holds one array
# of the points per slot of its product chain: uncapped, the 3-4-5 scan
# over Re [100, 300] peaks at 52 MB of process RSS, not 41 MB.  The
# samples a walk holds are bounded by column runs.
MAX_BATCH_POINTS = 4096


def _values(f, pts: np.ndarray) -> np.ndarray:
    """f.values(pts) in calls of at most MAX_BATCH_POINTS points."""
    if pts.size <= MAX_BATCH_POINTS:
        return f.values(pts)
    return np.concatenate([f.values(pts[i:i + MAX_BATCH_POINTS])
                           for i in range(0, pts.size, MAX_BATCH_POINTS)])


def _fill(f, out: np.ndarray, path, t: np.ndarray, owner: np.ndarray,
          todo: np.ndarray) -> None:
    """out[todo] = f.values(path(t[todo], owner[todo])) in the values calls
    _values would make, each call's points computed as it is made."""
    for i in range(0, todo.size, MAX_BATCH_POINTS):
        at = todo[i:i + MAX_BATCH_POINTS]
        out[at] = f.values(path(t[at], owner[at]))


def _checked(results: list) -> list:
    """``results`` of a batch call, or the first exception among them raised."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def polyline_path(vertices: np.ndarray):
    """Closed piecewise-linear path; parameter t in [0, nseg]."""
    v = np.asarray(vertices, dtype=complex)
    path = _polylines(v[None, :])
    return (lambda t: path(np.asarray(t, dtype=float), 0)), v.size - 1


def _polylines(v: np.ndarray):
    """path(t, owner): the closed polyline through the vertices v[owner].

    Row k of v holds nseg + 1 vertices; t runs over [0, nseg].
    """
    nseg = v.shape[1] - 1

    def path(t, owner):
        seg = np.clip(np.floor(t).astype(int), 0, nseg - 1)
        fr = t - seg
        return v[owner, seg] * (1.0 - fr) + v[owner, seg + 1] * fr

    return path


def winding_number(f, path_fn, nseg: int,
                   tol: tol_mod.Tolerances = tol_mod.DEFAULT,
                   per_segment: int | Sequence[int] | None = None) -> int:
    """Winding of f along the closed path, by adaptive phase continuation.

    Sampling is refined until every consecutive phase increment is below
    tol.winding_max_phase_step.  Raises ZeroNearBoundary when refinement
    stalls (a zero on or hugging the contour): a sample underflows
    tol.value_floor, the walk exceeds tol.winding_max_points, or a step
    falls below 1e-13 of the path's parameter span, which a step still
    suspicious after 44 rounds always does.  It also raises when the
    winding comes out more than 0.1 from an integer.

    per_segment sets the initial sample count of the path segments: one
    int for every segment (default tol.winding_initial_per_segment), or a
    sequence of nseg ints, one per segment; a count below 1, a non-int or
    a sequence of another length raises ValueError.  Phase tracking is
    only sound when the initial grid already resolves the function's
    systematic phase drift along the path (adaptive refinement alone
    cannot detect aliased full turns), so callers walking long contours
    must scale the counts with segment length times phase rate.

    Cost: one pass over the initial grid, then per refinement round only
    the steps still suspicious (see _winding_numbers), so a long contour that
    needs a few local refinements costs about its grid, not grid times
    rounds.
    """
    return _checked(_winding_numbers(f, lambda t, owner: path_fn(t),
                                     [_initial_grid(nseg, per_segment, tol)],
                                     tol))[0]


def _is_count(p, least: int = 1) -> bool:
    """p is an int (not a bool) of at least ``least``."""
    return isinstance(p, numbers.Integral) and not isinstance(p, bool) and p >= least


def _initial_grid(nseg: int, per_segment, tol: tol_mod.Tolerances) -> np.ndarray:
    """The samples t in [0, nseg] a walk starts from (see winding_number)."""
    if not _is_count(nseg):
        raise ValueError(f"nseg must be an int >= 1, got {nseg!r}")
    p = tol.winding_initial_per_segment if per_segment is None else per_segment
    if _is_count(p):
        return np.linspace(0.0, float(nseg), nseg * p + 1)
    counts = list(p) if isinstance(p, Iterable) else []
    if len(counts) != nseg or not all(map(_is_count, counts)):
        raise ValueError(f"per_segment must be an int >= 1 or a sequence of "
                         f"{nseg} such ints, got {per_segment!r}")
    return np.concatenate([np.linspace(k, k + 1.0, c, endpoint=False)
                           for k, c in enumerate(counts)] + [[float(nseg)]])


def count_zeros(f, box: Box, tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> int:
    """Number of zeros (with multiplicity) of f inside an axis-aligned box."""
    path_fn, nseg = polyline_path(box.corners())
    return winding_number(f, path_fn, nseg, tol)


def _count_zeros(f, bounds: np.ndarray, tol: tol_mod.Tolerances,
                 f0: np.ndarray | None = None) -> list:
    """count_zeros of every box, given as the rows (re_lo, re_hi, im_lo,
    im_hi) of ``bounds``, in lock-step: the int or exception of each.

    f0, if given, receives the round-0 values (see _winding_numbers): box
    k's samples are row k of a (len(bounds), 4 p + 1) grid, side s at
    entries s p to s p + p (p = tol.winding_initial_per_segment).
    """
    grid = _initial_grid(4, None, tol)
    return _winding_numbers(f, _polylines(_corners(bounds)), [grid] * len(bounds),
                            tol, f0)


def _bounds(boxes: list[Box]) -> np.ndarray:
    """(re_lo, re_hi, im_lo, im_hi) of every box, as the rows of one array."""
    return np.array([(b.re_lo, b.re_hi, b.im_lo, b.im_hi) for b in boxes],
                    dtype=float).reshape(-1, 4)


def _box(row: np.ndarray) -> Box:
    """The Box of one row of bounds, with Python floats."""
    return Box(*row.tolist())


def _corners(b: np.ndarray) -> np.ndarray:
    """Box.corners() of every row of bounds, bit for bit."""
    c = np.empty((len(b), 5), dtype=complex)
    c.real, c.imag = b[:, [0, 1, 1, 0, 0]], b[:, [2, 2, 3, 3, 2]]
    return c


def _along(b: np.ndarray) -> np.ndarray:
    """Whether each box is at least as wide as high, hence cut at a Re
    (axis 0) when it is split; else it is cut at an Im (axis 1)."""
    return b[:, 1] - b[:, 0] >= b[:, 3] - b[:, 2]


def _diameters(b: np.ndarray) -> np.ndarray:
    """Box.diameter of every box.  It is math.hypot, one box at a time:
    np.hypot differs from it in the last bit on a few pairs in a thousand,
    and Newton's step cap reads the diameter."""
    return np.array([math.hypot(w, h) for w, h in
                     zip((b[:, 1] - b[:, 0]).tolist(), (b[:, 3] - b[:, 2]).tolist())])


def _centers(b: np.ndarray) -> np.ndarray:
    """Box.center of every box, bit for bit."""
    c = np.empty(len(b), dtype=complex)
    c.real, c.imag = 0.5 * (b[:, 0] + b[:, 1]), 0.5 * (b[:, 2] + b[:, 3])
    return c


def _inflated(b: np.ndarray, factor: float) -> np.ndarray:
    """Box.inflate(factor) of every box, bit for bit."""
    c = _centers(b)
    hw, hh = 0.5 * (b[:, 1] - b[:, 0]) * factor, 0.5 * (b[:, 3] - b[:, 2]) * factor
    return np.column_stack((c.real - hw, c.real + hw, c.imag - hh, c.imag + hh))


def _inside(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Box.contains(z[k]) of every box k."""
    return ((b[:, 0] <= z.real) & (z.real <= b[:, 1])
            & (b[:, 2] <= z.imag) & (z.imag <= b[:, 3]))


def _halves(b: np.ndarray, frac: float) -> np.ndarray:
    """Box.split(axis, frac) of every box along the axis _along gives it,
    bit for bit: the bounds of its first and second half, (len(b), 2, 4)."""
    rows = np.arange(len(b))
    lo = np.where(_along(b), 0, 2)
    cut = b[rows, lo] + frac * (b[rows, lo + 1] - b[rows, lo])
    out = np.repeat(b[:, None, :], 2, axis=1)
    out[rows, 0, lo + 1] = cut
    out[rows, 1, lo] = cut
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where the complex arrays a and b hold the same number bit for bit
    (== would take -0.0 for 0.0)."""
    def bits(z):
        return np.ascontiguousarray(z).view(np.uint64).reshape(z.shape + (2,))
    return (bits(a) == bits(b)).all(axis=-1)


def _winding_numbers(f, path, grids: list[np.ndarray],
                     tol: tol_mod.Tolerances, f0: np.ndarray | None = None,
                     known: np.ndarray | None = None) -> list:
    """winding_number of several closed contours, walked in lock-step.

    Contour k is t -> path(t, k) for t in [0, grids[k][-1]], sampled first
    at grids[k] and refined as winding_number walks it alone: the same
    points and the same checks in the same order.  Returns the winding or
    the ZeroNearBoundary of each contour.  All contours walk together, so
    the caller bounds the samples in flight (a scan walks one run of
    columns at a time); no values call takes more than MAX_BATCH_POINTS
    points.

    f0, if given, is the round-0 buffer: one entry per sample of the
    concatenated grids.  The walk evaluates the entries that ``known`` does
    not mark (every entry if known is None) into it, and the caller may
    read the values there afterwards; a caller marks an entry known only
    when it holds f at a point bit for bit equal to that sample's, so the
    walk consumes exactly the values it would evaluate.  The last entry of
    each contour ends up holding its first entry's value, as the walk
    closes every contour on its first sample.

    The walk holds steps (t0, t1, f0, f1, owner) in contour-then-t order,
    and one loop body runs every round.  It takes the phase increment and
    the |f| ratio of every step: the increments of the steps that pass go
    into a running total per contour, and only the suspicious steps are
    kept.  A contour settles once it has no suspicious step, and leaves
    the walk when it settles or fails.  The round then splits every kept
    step of a walking contour at its midpoint and evaluates the midpoints
    in one call; the two halves are the next round's steps.  Round 0's
    steps are views of the evaluated initial grids, where the ``seams``
    (the steps from one contour to the next) count for nothing, so round 0
    costs a pass over the grids and a later round the split steps only;
    settled samples are never touched again.  Every initial step is at
    most 1 in t and the grids end at t = nseg >= 1, so a step kept through
    44 rounds is below the 1e-13 * span resolution floor: the loop ends.
    """
    n = len(grids)
    out = np.full(n, None, dtype=object)
    if not n:
        return []
    span = np.array([g[-1] for g in grids])
    counts = np.array([g.size for g in grids])
    t0 = np.concatenate(grids)
    owner = np.repeat(np.arange(n), counts)
    # a walk that is handed no values computes its points at once, which
    # costs a gap report's long contours fewer path calls; one handed a
    # buffer (a scan's) computes each call's points as it makes the call,
    # which bounds the path temporaries of a run's many contours
    if f0 is None:
        f0 = _values(f, path(t0, owner))
    else:
        _fill(f, f0, path, t0, owner,
              np.arange(t0.size) if known is None else np.flatnonzero(~known))
    # force exact closure so the increments telescope to a clean multiple
    ends = np.cumsum(counts)
    f0[ends - 1] = f0[ends - counts]
    walking = np.ones(n, dtype=bool)
    total = np.zeros(n)

    def stop(hit: np.ndarray, message: str) -> None:
        """End the walks of the contours ``hit``."""
        for c in np.unique(hit[walking[hit]]):
            out[c] = ZeroNearBoundary(message)
        walking[hit] = False

    def underflow(v: np.ndarray, owners: np.ndarray) -> np.ndarray:
        return owners[(np.abs(v) < tol.value_floor) | ~np.isfinite(v)]

    stop(underflow(f0, owner), "contour value underflow: zero on the path?")
    if not walking.all():
        t0, f0, owner = _kept((t0, f0, owner), walking[owner])
    seams = np.cumsum(counts[walking])[:-1] - 1
    steps = (t0[:-1], t0[1:], f0[:-1], f0[1:], owner[:-1])
    while True:
        t0, t1, f0, f1, owner = steps
        dphi = np.angle(f1 / f0)
        # a sharp magnitude dip between samples can hide an aliased full
        # turn (zero pair hugging the path), so refine on |f| jumps too
        ratio = np.abs(f1)
        ratio /= np.abs(f0)
        suspicious = ((np.abs(dphi) >= tol.winding_max_phase_step)
                      | (ratio >= tol.winding_max_mag_step)
                      | (ratio <= 1.0 / tol.winding_max_mag_step))
        suspicious[seams] = False
        dphi[suspicious] = 0.0
        dphi[seams] = 0.0
        total += np.bincount(owner, weights=dphi, minlength=n)
        steps = _kept(steps, suspicious)
        seams = seams[:0]   # only round 0's steps join two contours
        nbad = np.bincount(steps[4], minlength=n)
        settled = np.flatnonzero(walking & (nbad == 0))
        if settled.size:
            w = total[settled] / TWO_PI
            near = np.rint(w)   # half to even, as round does
            whole = np.abs(w - near) <= 0.1
            out[settled[whole]] = near[whole].astype(int).tolist()
            for j, wj in zip(settled[~whole].tolist(), w[~whole].tolist()):
                out[j] = ZeroNearBoundary(
                    f"winding {wj:.4f} too far from an integer; phase tracking "
                    "is unreliable on this contour"
                )
            walking[settled] = False
        stop(np.flatnonzero(counts + nbad > tol.winding_max_points),
             "contour refinement exceeded point budget")
        t0, t1, f0, f1, owner = steps
        tm = 0.5 * (t0 + t1)
        stop(owner[tm - t0 < 1e-13 * span[owner]],
             "contour refinement below resolution floor")
        if not walking.any():
            return out.tolist()
        t0, t1, f0, f1, owner, tm = _kept((t0, t1, f0, f1, owner, tm),
                                          walking[owner])
        fm = _values(f, path(tm, owner))
        stop(underflow(fm, owner), "contour value underflow: zero on the path?")
        counts += np.bincount(owner, minlength=n)
        t0, t1, f0, f1, owner, tm, fm = _kept((t0, t1, f0, f1, owner, tm, fm),
                                              walking[owner])
        # the two halves of every split step, still in contour-then-t order
        steps = (_interleave(t0, tm), _interleave(tm, t1),
                 _interleave(f0, fm), _interleave(fm, f1), np.repeat(owner, 2))


def _kept(arrays: tuple, keep: np.ndarray) -> tuple:
    """Every array of ``arrays`` at the positions where ``keep`` holds."""
    return tuple(a[keep] for a in arrays)


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ..."""
    out = np.empty(2 * a.size, dtype=np.result_type(a, b))
    out[0::2], out[1::2] = a, b
    return out


# ---------------------------------------------------------------------------
# Newton refinement


def refine_root(f, lam0: complex, box: Box, multiplicity: int = 1,
                tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> tuple[complex, float]:
    """Damped Newton from lam0; the final iterate must stay inside ``box``.

    Steps are scaled by the declared multiplicity and capped at the box
    diameter.  Stops when |f| < newton_residual * (1 + |f'|).  Raises
    NoConvergence or EscapedBox.  This is _refine_roots on one start, so
    its iterates are bit for bit those of Python complex arithmetic.
    """
    lam, resid, outcome = _refine_roots(f, np.array([lam0], dtype=complex),
                                        _bounds([box]), np.array([multiplicity]), tol)
    if outcome[0] != _CONVERGED:
        raise _newton_failure(int(outcome[0]), complex(lam[0]), box, tol)
    return complex(lam[0]), float(resid[0])


def _py_quot(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """(ar + i ai) / (br + i bi) on float64 arrays, bit for bit as CPython
    divides complex numbers (_Py_c_quot: Smith's method, dividing by the
    larger part of the denominator).  numpy's complex division rounds
    otherwise on about 4 pairs in 10.  A zero denominator, where Python
    raises ZeroDivisionError, gives nan."""
    with np.errstate(all="ignore"):
        by_re = np.abs(br) >= np.abs(bi)
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        return (np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _py_scaled(s, re, im) -> tuple[np.ndarray, np.ndarray]:
    """(re + i im) * s for a real s on float64 arrays, bit for bit as
    CPython before 3.14 multiplies a complex by an int or a float: as the
    complex (s, 0.0), whose 0.0 enters the products and can flip the sign
    of a zero or turn an infinity into nan."""
    with np.errstate(all="ignore"):
        return s * re - 0.0 * im, s * im + 0.0 * re


# what became of a Newton start (_refine_roots)
_CONVERGED, _LEFT_BOX, _ESCAPED, _DEGENERATE, _STALLED = range(5)


def _refine_roots(f, lam0: np.ndarray, bounds: np.ndarray,
                  multiplicity: np.ndarray,
                  tol: tol_mod.Tolerances) -> tuple[np.ndarray, ...]:
    """refine_root from every start lam0[k] in the box bounds[k] (a row of
    re_lo, re_hi, im_lo, im_hi) with multiplicity[k], all at once.

    Returns, per start, its last iterate, |f| there (nan unless it
    converged) and its outcome: _CONVERGED inside its box, _LEFT_BOX
    (converged outside it), _ESCAPED (an iterate left the box inflated
    3x), _DEGENERATE (f' is 0, or f or f' not finite) or _STALLED (no
    convergence within tol.newton_max_iter).  _newton_failure gives the
    exception refine_root raises for each outcome but the first.

    One values_and_derivs call per iteration serves all live starts, and
    each iteration steps them on float64 arrays as Python steps one
    complex number: _py_scaled for multiplicity * v and the cap,
    _py_quot for the division, np.hypot for abs (which is C's hypot, as
    abs of a complex is), and math.hypot for the box diameter (_diameters).
    So every iterate keeps the bits of the scalar loop.  An exception
    raised by f.values_and_derivs itself (say, a NoConvergence: no
    derivative, or I - M singular after its nudge) is the whole batch's
    and propagates.
    """
    lam = np.array(lam0, dtype=complex).reshape(-1)
    resid = np.full(lam.size, np.nan)
    outcome = np.full(lam.size, _STALLED)
    diameter = _diameters(bounds)
    roam = _inflated(bounds, 3.0)
    live = np.arange(lam.size)
    for _ in range(tol.newton_max_iter):
        if not live.size:
            break
        v, d = (np.asarray(a, dtype=complex) for a in f.values_and_derivs(lam[live]))
        av, ad = np.hypot(v.real, v.imag), np.hypot(d.real, d.imag)
        small = av < tol.newton_residual * (1.0 + ad)
        stuck = ~small & (((d.real == 0) & (d.imag == 0))
                          | ~np.isfinite(ad) | ~np.isfinite(av))
        k = live[small]
        resid[k] = av[small]
        outcome[k] = np.where(_inside(bounds[k], lam[k]), _CONVERGED, _LEFT_BOX)
        outcome[live[stuck]] = _DEGENERATE
        go = ~(small | stuck)
        k, v, d = live[go], v[go], d[go]
        sr, si = _py_quot(*_py_scaled(multiplicity[k], v.real, v.imag), d.real, d.imag)
        mag = np.hypot(sr, si)
        cap = mag > diameter[k]
        sr[cap], si[cap] = _py_scaled(diameter[k][cap] / mag[cap], sr[cap], si[cap])
        new = np.empty(k.size, dtype=complex)
        new.real, new.imag = lam[k].real - sr, lam[k].imag - si
        lam[k] = new
        out = ~_inside(roam[k], new)
        outcome[k[out]] = _ESCAPED
        live = k[~out]
    return lam, resid, outcome


def _newton_failure(outcome: int, lam: complex, box: Box,
                    tol: tol_mod.Tolerances) -> Exception:
    """The exception of a Newton start in ``box`` that ended as ``outcome``
    (not _CONVERGED) with the iterate lam (_refine_roots)."""
    if outcome == _LEFT_BOX:
        return EscapedBox(f"root {lam} left its box {box}")
    if outcome == _ESCAPED:
        return EscapedBox(f"Newton iterate {lam} escaped near {box}")
    if outcome == _DEGENERATE:
        return NoConvergence("degenerate derivative during Newton")
    return NoConvergence(f"no convergence within {tol.newton_max_iter} iterations")


# ---------------------------------------------------------------------------
# subdivision


_SPLIT_FRACTIONS = (0.5, 0.57, 0.43, 0.65, 0.35)


def _lines_clear(f, bounds: np.ndarray, frac,
                 tol: tol_mod.Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether the split line of each box (_halves at frac) is clear of
    zeros hugging it, probed for all lines in one values call; and the
    probe's points and values, one row of tol.split_line_samples per line.

    A zero within a small fraction of the box scale of the line shows up
    as a deep dip of |f| along it; phase tracking on the two halves can
    alias a full turn there, so such lines are rejected up front.

    The probe walks each line as a one-segment path made as the walk makes
    its paths (_polylines), at t = j / (split_line_samples - 1), from the
    first to the second corner of the split side of the line's first half:
    the side its second half keeps whole (_whole_sides), the left half's
    right side 1 or the bottom half's top side 2.  So at the defaults
    (t = j/32) its even samples are bit for bit the points where both
    halves sample their split side, the first half forward and the second
    backward (IEEE addition commutes), and _split_boxes hands them on.
    """
    rows = np.arange(len(bounds))[:, None]
    side = _whole_sides(bounds)[:, 1:]
    ends = _corners(_halves(bounds, frac)[:, 0])[rows, side + [0, 1]]
    pts = _polylines(ends)(np.linspace(0.0, 1.0, tol.split_line_samples), rows)
    values = _values(f, pts.ravel()).reshape(pts.shape)
    v = np.abs(values)
    sound = np.isfinite(v).all(axis=1) & (v > tol.value_floor).all(axis=1)
    clear = sound & (v.min(axis=1) > tol.split_dip_rel_floor * np.median(v, axis=1))
    return clear, pts, values


def _whole_sides(bounds: np.ndarray) -> np.ndarray:
    """The side of each box that its first and its second half keep whole.

    A box cut at a Re (_along) keeps side 3 in its left half and side 1 in
    its right half; one cut at an Im keeps side 0 in its bottom half and
    side 2 in its top half.  Each half's split side is the side the other
    half keeps.  A kept side has the box's two corners and grid, so its
    points are the box's bit for bit.
    """
    return np.where(_along(bounds)[:, None], [3, 1], [0, 2]).reshape(-1, 2)


def _kept_values(f0: np.ndarray, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """What the boxes hand their halves: the round-0 values of the sides the
    halves keep whole (_whole_sides), (len(bounds), 2, p + 1), copied out of
    the given rows of f0, a round-0 buffer of one row of 4 p + 1 per box
    walked (_count_zeros)."""
    p = (f0.shape[1] - 1) // 4
    e = _whole_sides(bounds)[:, :, None] * p + np.arange(p + 1)
    return f0[np.asarray(rows, dtype=int)[:, None, None], e]


def _split_boxes(f, bounds: np.ndarray, windings: np.ndarray,
                 tol: tol_mod.Tolerances, sides: np.ndarray) -> tuple:
    """Split every box (a row of bounds) of the given winding in two along a
    clear line, in lock-step passes; the halves' windings must add up to
    the box's.

    Each pass probes the current split line of every unsplit box in one
    values call and walks the halves of every clear line in one lock-step
    walk; a box whose line or walk fails tries its next _SPLIT_FRACTIONS
    entry in the next pass.  Returns the bounds (len(bounds), 2, 4) and the
    windings (len(bounds), 2) of the two halves of every box, the exception
    of every box that could not be split (None where it could), and the
    _kept_values of every half that winds, in box-then-half order.

    A half's walk does not evaluate again the samples its split side shares
    with the probe (bit for bit, which one compare checks), nor the side it
    keeps whole: sides[i] is box i's _kept_values.  Every box must lie
    right of the imaginary axis, as a scan's do, so that a corner sampled
    as the start of the next side, c*1 + d*0, is the same bits for any
    such neighbour d.
    """
    n = len(bounds)
    halves = np.zeros((n, 2, 4))
    half_windings = np.zeros((n, 2), dtype=int)
    failed: list = [None] * n
    last_exc: list[Exception | None] = [None] * n
    pending = np.arange(n)
    p, m = tol.winding_initial_per_segment, tol.split_line_samples
    grid = _initial_grid(4, None, tol)
    r = np.arange(p + 1)
    # the split-side samples k/p that the probe takes, at j/(m - 1): the
    # first half walks the line forward, the second backward
    k = r[r * (m - 1) % p == 0]
    j = np.stack((k * (m - 1) // p, m - 1 - k * (m - 1) // p))
    keys, kept = [np.zeros(0, dtype=int)], [np.zeros((0, 2, p + 1), dtype=complex)]
    for frac in _SPLIT_FRACTIONS:
        if not pending.size:
            break
        clear, probe, probed = _lines_clear(f, bounds[pending], frac, tol)
        go = np.flatnonzero(clear)
        split = pending[go]
        cut = _halves(bounds[split], frac)
        whole = _whole_sides(bounds[split])
        f0 = np.empty((go.size, 2, grid.size), dtype=complex)
        known = np.zeros(f0.shape, dtype=bool)
        row, half = np.arange(go.size)[:, None, None], np.arange(2)[None, :, None]
        at = (row, half, whole[:, :, None] * p + r)
        f0[at], known[at] = sides[split], True
        # the split side: every probe sample is written, the equal ones known
        path = _polylines(_corners(cut.reshape(-1, 4)))
        at = (row, half, whole[:, ::-1, None] * p + k)
        f0[at] = probed[go[:, None, None], j]
        known[at] = _same_bits(path(grid[at[2]], 2 * row + half),
                               probe[go[:, None, None], j])
        del probe, probed, at   # only f0 and known go into the walk
        counts = _winding_numbers(f, path, [grid] * (2 * go.size), tol,
                                  f0.reshape(-1), known.reshape(-1))
        bad = np.array([isinstance(c, Exception) for c in counts],
                       dtype=bool).reshape(-1, 2)
        w = np.array([0 if isinstance(c, Exception) else c for c in counts],
                     dtype=int).reshape(-1, 2)
        walked = ~bad.any(axis=1)
        for q in np.flatnonzero(~walked).tolist():
            # the first half's exception, else the second's
            last_exc[split[q]] = counts[2 * q + int(not bad[q, 0])]
        halves[split[walked]], half_windings[split[walked]] = cut[walked], w[walked]
        conserved = walked & (w.sum(axis=1) == windings[split])
        for i in split[walked & ~conserved].tolist():
            failed[i] = AuditError(
                f"winding not conserved under split: {windings[i]} -> "
                f"{half_windings[i, 0]} + {half_windings[i, 1]} (box {_box(bounds[i])}, "
                f"axis {int(not _along(bounds[[i]])[0])}, frac {frac})"
            )
        live = np.flatnonzero((w != 0) & conserved[:, None])
        keys.append(2 * split[live // 2] + live % 2)
        kept.append(_kept_values(f0.reshape(-1, grid.size), live,
                                 cut.reshape(-1, 4)[live]))
        retry = ~clear
        retry[go[~walked]] = True
        pending = pending[retry]
    for i in pending.tolist():
        failed[i] = ZeroNearBoundary(f"all split lines rejected for box {_box(bounds[i])}")
        failed[i].__cause__ = last_exc[i]
    return (halves, half_windings, failed,
            np.concatenate(kept)[np.argsort(np.concatenate(keys))])


def _scan_columns(f, bounds: np.ndarray, counts: np.ndarray, sides: np.ndarray,
                  newton_scale: float, tol: tol_mod.Tolerances) -> tuple:
    """The refined zeros of the column boxes, found in rounds: arrays of
    their column, zero, residual, winding and box bounds, in the order they
    were found.

    ``counts`` are the column boxes' windings and ``sides`` what each hands
    its halves (_kept_values).  The work of a round is arrays too: the
    column, bounds, winding and kept sides of every box.  Each round makes
    one Newton batch: from the centre of every one-zero box at Newton
    scale, and of every box below tol.multiplicity_diameter that still
    winds more than once (one zero of that multiplicity, within its 4x
    box).  Every other box, and every one-zero box whose start failed, is
    split, and hands its halves the values of the sides they keep whole.
    Box objects and Newton exceptions are made only for what is raised;
    _split_boxes makes one exception for each box it cannot split.
    """
    col = np.flatnonzero(counts)
    b, w, sides = bounds[col], np.asarray(counts)[col], sides[col]
    found = [(np.zeros(0, dtype=int), np.zeros(0, dtype=complex), np.zeros(0),
              np.zeros(0, dtype=int), np.zeros((0, 4)))]
    while col.size:
        diameter = _diameters(b)
        one = (w == 1) & (np.maximum(b[:, 1] - b[:, 0], b[:, 3] - b[:, 2])
                          <= 1.6 * newton_scale)
        multi = (w > 1) & (diameter < tol.multiplicity_diameter)
        start = np.flatnonzero(one | multi)
        boxes = np.where(multi[start, None], _inflated(b[start], 4.0), b[start])
        lam, resid, outcome = _refine_roots(f, _centers(b[start]), boxes, w[start],
                                            tol)
        ok = outcome == _CONVERGED
        at = start[ok]
        found.append((col[at], lam[ok], resid[ok], w[at], b[at]))
        failed = np.full(col.size, -1)   # each row's failed start, if any
        failed[start[~ok]] = np.flatnonzero(~ok)
        split = np.ones(col.size, dtype=bool)
        split[at] = False
        # a multiple zero is not split any further, nor a box too small
        stop = np.flatnonzero((multi & (failed >= 0))
                              | (split & (diameter < tol.min_box_diameter)))
        if stop.size:
            q, s = stop[0], failed[stop[0]]
            newton = None if s < 0 else _newton_failure(
                int(outcome[s]), complex(lam[s]), _box(boxes[s]), tol)
            if multi[q]:
                raise newton
            raise NoConvergence(f"cannot localise zero inside {_box(b[q])}") from newton
        halves, windings, errors, sides = _split_boxes(f, b[split], w[split], tol,
                                                       sides[split])
        for exc in errors:
            if exc is not None:
                raise exc
        more = windings.reshape(-1) != 0
        col = np.repeat(col[split], 2)[more]
        b, w = halves.reshape(-1, 4)[more], windings.reshape(-1)[more]
    return tuple(np.concatenate(a) for a in zip(*found))


# ---------------------------------------------------------------------------
# the strip scan


def _column_boxes(region: SearchRegion, width_hint: float,
                  shift: float) -> np.ndarray:
    """Cover the strip with full-height column boxes of ~width_hint, as the
    rows (re_lo, re_hi, im_lo, im_hi) of one array, left to right.

    Column y-ranges follow the strip's log-curves per column, so the union
    is a staircase superset of the strip with no interior overlap.  The
    columns span the strip's width divided evenly, w; the cuts between
    them lie at re_min + (shift mod w) + k w, less any within 1e-9 w of
    re_min or re_max, which end the first and the last column.  The logs
    are math.log's, whose bits np.log need not share.
    """
    span = region.re_max - region.re_min
    ncols = max(1, int(round(span / width_hint)))
    w = span / ncols
    s = shift % w
    inner = [region.re_min + s + w * k for k in range(ncols)]
    cuts = [region.re_min, *(x for x in inner
                             if region.re_min + 1e-9 * w < x < region.re_max - 1e-9 * w),
            region.re_max]
    return np.array([(lo, hi, -region.nu_max * math.log(hi),
                      -region.nu_min * math.log(lo))
                     for lo, hi in zip(cuts[:-1], cuts[1:])], dtype=float)


def _staircase(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counterclockwise outline of the union of column boxes, given their
    corners (rows of Box.corners(), left to right): the bottom corners left
    to right, then the top corners right to left, closed, without
    consecutive duplicates (zero-length joints).  Also, for each column,
    the index of the outline segment along its bottom and its top side."""
    n = len(corners)
    pts = np.concatenate((corners[:, :2].ravel(), corners[::-1, 2:4].ravel(),
                          corners[:1, 0]))
    keep = np.r_[True, pts[1:] != pts[:-1]]
    # the listed corner that ends each column's bottom and top side
    ends = np.column_stack((2 * np.arange(n) + 1, 4 * n - 1 - 2 * np.arange(n)))
    return pts[keep], np.cumsum(keep)[ends] - 2


def _staircase_vertices(bounds: np.ndarray) -> np.ndarray:
    """The vertices of the staircase outline of column boxes (_staircase)."""
    return _staircase(_corners(bounds))[0]


def _outline_samples(bounds: np.ndarray, sides: np.ndarray,
                     tol: tol_mod.Tolerances) -> tuple[np.ndarray, ...]:
    """The vertices, initial grid, round-0 buffer and known mask of the walk
    of a run's staircase outline, given what its columns hand their halves
    (_kept_values).

    The outline's bottom and top segments run along the columns' sides 0
    and 2, which a column cut across keeps for its halves.  The walk takes
    the values of those sides from ``sides`` wherever its sample is bit for
    bit the column's, which one compare checks, and evaluates the rest:
    the joints, the end sides, the sides of wider columns, and any sample
    whose grid point differs from the column's.
    """
    p = tol.winding_initial_per_segment
    corners = _corners(bounds)
    vertices, segments = _staircase(corners)
    grid = _initial_grid(vertices.size - 1, None, tol)
    f0 = np.empty(grid.size, dtype=complex)
    known = np.zeros(grid.size, dtype=bool)
    cols = np.flatnonzero((_whole_sides(bounds) == [0, 2]).all(axis=1))
    r = np.arange(p + 1)
    at = segments[cols][:, :, None] * p + r
    column = _initial_grid(4, None, tol)[np.array([[0], [2 * p]]) + r]
    same = _same_bits(_polylines(vertices[None, :])(grid[at], 0),
                      _polylines(corners)(column, cols[:, None, None]))
    f0[at[same]], known[at[same]] = sides[cols][same], True
    return vertices, grid, f0, known


def _scan_run(f, bounds: np.ndarray, newton_scale: float,
              tol: tol_mod.Tolerances) -> tuple[list[Resonance], int, list[int]]:
    """The zeros of one run of column boxes (rows of bounds), in the order
    _scan_columns found them, the audited winding of the run, and the
    winding of each column.

    One lock-step walk counts every column box; of its round-0 values only
    what the columns hand their halves (_kept_values) lives on, through
    the rounds, for the run's outline, and it is dropped before that walk.
    The column windings must add up to the winding of the outline, and
    each column must hold its winding in zeros clear of the boundary guard;
    the leftmost column failing either check decides the error, and a
    column failing both raises the AuditError of its lost zeros.
    """
    p = tol.winding_initial_per_segment
    f0 = np.empty((len(bounds), 4 * p + 1), dtype=complex)
    counts = np.array(_checked(_count_zeros(f, bounds, tol, f0.reshape(-1))),
                      dtype=int)
    sides = _kept_values(f0, np.arange(len(bounds)), bounds)
    del f0
    col, lam, resid, winding, boxes = _scan_columns(f, bounds, counts, sides,
                                                    newton_scale, tol)
    total_cols = int(counts.sum())
    vertices, grid, f0, known = _outline_samples(bounds, sides, tol)
    del sides
    outer = _checked(_winding_numbers(f, _polylines(vertices[None, :]), [grid],
                                      tol, f0, known))[0]
    if outer != total_cols:
        raise AuditError(
            f"winding audit failed on the columns over Re [{float(bounds[0, 0])}, "
            f"{float(bounds[-1, 1])}]: columns total {total_cols}, outer contour {outer}"
        )
    # each column, left to right: its zeros' windings, then the guard
    # against zeros hugging an audit line of the tiling
    lost = np.flatnonzero(np.bincount(col, weights=winding, minlength=len(bounds))
                          != counts)
    c = bounds[col]
    near = np.flatnonzero(np.minimum.reduce((lam.real - c[:, 0], c[:, 1] - lam.real,
                                             lam.imag - c[:, 2], c[:, 3] - lam.imag))
                          < tol.boundary_guard)
    near = near[np.argsort(col[near], kind="stable")]
    if lost.size and not (near.size and col[near[0]] < lost[0]):
        raise AuditError(f"column at [{float(bounds[lost[0], 0])}, "
                         f"{float(bounds[lost[0], 1])}] lost zeros")
    if near.size:
        raise ZeroNearBoundary(f"refined zero {complex(lam[near[0]])} violates the "
                               "boundary guard")
    return ([Resonance(lam=z, residual=r, winding=w, box=Box(*b))
             for z, r, w, b in zip(lam.tolist(), resid.tolist(), winding.tolist(),
                                   boxes.tolist())],
            outer, counts.tolist())


def _audit_seams(f, bounds: np.ndarray, run: int, windings: list[int],
                 tol: tol_mod.Tolerances) -> None:
    """Where two runs of column boxes (rows of bounds) meet, the two columns
    beside the cut must wind as much as the staircase outline of their
    union, else AuditError.

    Each run's outline walks the cut side with the samples of the column
    beside it, so no run audit covers that side; the union's outline
    leaves the shared stretch of the cut inside and walks on samples of
    its own.
    """
    for i in range(run, len(bounds), run):
        union = winding_number(f, *polyline_path(_staircase_vertices(bounds[i - 1:i + 1])),
                               tol)
        if union != windings[i - 1] + windings[i]:
            raise AuditError(
                f"winding audit failed where two runs meet at Re {float(bounds[i, 0])}: "
                f"columns {windings[i - 1]} + {windings[i]}, their outline {union}"
            )


def scan_strip(spec: ConeSurfaceSpec | None, region: SearchRegion,
               tol: tol_mod.Tolerances = tol_mod.DEFAULT,
               jobs: int = 1,
               char_fn=None,
               with_null_vectors: bool = False,
               seed: int = 7) -> ResonanceSet:
    """Locate all zeros of det(I - M) in the strip; audit winding totals.

    ``char_fn`` replaces the spec's characteristic function with any
    object having ``values`` and ``values_and_derivs``.  ``jobs`` is
    accepted and ignored, since the scan runs in one process.  A ``seed``
    that is not an int >= 0 raises ValueError before any evaluation.

    The strip is covered by full-height columns about half the expected
    ladder spacing wide, aligned so predicted zeros sit near column
    centres when a ladder model is available.  Columns are scanned in
    runs of tol.winding_max_points // (8 * winding_initial_per_segment),
    3,125 at the defaults, so that a run's staircase outline (about 64
    initial samples a column) takes half the point budget, as gap_report's
    band pieces do; but at least 2, as the outline of one column is that
    column's own contour, walked again.  The column windings of each run
    must add up to the winding of its outline, and where two runs meet,
    the windings of the two columns beside the cut must add up to the
    winding of their union's outline, else AuditError.  That outline is
    walked on samples of its own; the split halves and the run outlines
    take over the values earlier walks of their run took at the same
    points (see the module docstring).  Any boundary conflict restarts the
    whole scan on a shifted grid (deterministic shifts).
    """
    if not _is_count(seed, least=0):
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    if char_fn is not None:
        f = char_fn
    elif spec is not None:
        f = monodromy.char_function(spec)
    else:
        raise ValueError("need a spec or an explicit char_fn")

    seed_shift = 0.0
    if spec is None:
        width = (region.re_max - region.re_min) / 16.0
    else:
        from .asymptotics import ladder_model_from_spec
        width = math.pi / (2.0 * length_scales(spec, tol).L0)
        try:
            model = ladder_model_from_spec(spec, tol)
        except ValueError:   # no single dominant cycle, hence no ladder
            pass
        else:
            # put the predicted coset mid-column: boundaries at c_re + w/2 (mod w)
            seed_shift = (model.c_re + 0.5 * width - region.re_min) % width

    run = max(2, tol.winding_max_points // (8 * tol.winding_initial_per_segment))
    last_exc: Exception | None = None
    for attempt in range(tol.grid_retry_shifts):
        shift = seed_shift + attempt * 0.137 * width
        boxes = _column_boxes(region, width, shift)
        try:
            runs = [_scan_run(f, boxes[i:i + run], width, tol)
                    for i in range(0, len(boxes), run)]
            _audit_seams(f, boxes, run, [w for _, _, ws in runs for w in ws], tol)
            break
        except ZeroNearBoundary as exc:
            last_exc = exc
    else:
        raise ZeroNearBoundary(
            f"scan failed after {tol.grid_retry_shifts} grid shifts"
        ) from last_exc
    items = sorted((r for found, _, _ in runs for r in found),
                   key=lambda r: (r.lam.real, r.lam.imag))
    if with_null_vectors and spec is not None:
        vectors = monodromy.null_vectors(spec, [r.lam for r in items],
                                         residual_threshold=1e-4, seed=seed)
        # a NoConvergence: the residual is too large for a null vector
        items = [replace(r, null_mass=None if isinstance(mv, NoConvergence)
                         else tuple(sorted(mv.null_mass().items())))
                 for r, mv in zip(items, vectors)]
    return ResonanceSet(items=tuple(items), region=region,
                        total_winding_audited=sum(outer for _, outer, _ in runs))
