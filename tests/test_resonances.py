import math
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from coneres import (DEFAULT, AuditError, Box, CharFunction, EscapedBox,
                     FunctionHandle, NoConvergence, SearchRegion,
                     ZeroNearBoundary, char_function, count_zeros,
                     polyline_path, refine_root, scan_strip, winding_number,
                     with_overrides)
from coneres.asymptotics import log_band_path
from coneres import resonances
from coneres.resonances import (_CONVERGED, _SPLIT_FRACTIONS, MAX_BATCH_POINTS,
                                TWO_PI, _bounds, _count_zeros, _checked,
                                _halves, _kept_values, _lines_clear,
                                _newton_failure, _py_quot, _py_scaled,
                                _refine_roots, _split_boxes, _values)


def poly_handle(*zeros):
    """FunctionHandle for prod (lam - z_j) with its exact derivative."""
    zs = tuple(zeros)

    def values(lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.ones_like(lam)
        for z in zs:
            out = out * (lam - z)
        return out

    def derivs(lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.zeros_like(lam)
        for i in range(len(zs)):
            term = np.ones_like(lam)
            for j, z in enumerate(zs):
                if j != i:
                    term = term * (lam - z)
            out = out + term
        return out

    return FunctionHandle(values, derivs)


class Counted:
    """A zero finder's f that tallies its values calls and points."""

    def __init__(self, f):
        self.f, self.calls, self.points = f, 0, 0
        self.newton_calls, self.newton_points = 0, 0

    def values(self, lam):
        lam = np.atleast_1d(np.asarray(lam))
        self.calls += 1
        self.points += lam.size
        return self.f.values(lam)

    def values_and_derivs(self, lam):
        lam = np.atleast_1d(np.asarray(lam))
        self.newton_calls += 1
        self.newton_points += lam.size
        return self.f.values_and_derivs(lam)


class Recorded:
    """A zero finder's f that keeps a copy of every values batch."""

    def __init__(self, f):
        self.f, self.batches = f, []

    def values(self, lam):
        self.batches.append(np.array(lam, copy=True))
        return self.f.values(lam)


def reference_winding_numbers(f, path, grids, tol, f0=None, known=None):
    """resonances._winding_numbers as a full recompute: every round re-tests
    every sample of every live contour and inserts the midpoints into
    full-length arrays.  The step walk must reproduce its windings, its
    exceptions and its values batches.  A round-0 buffer f0, if given,
    receives the initial values, as in the step walk; ``known`` is taken,
    as _count_zeros passes it, and not read."""
    n = len(grids)
    out = [None] * n
    span = np.array([g[-1] for g in grids])
    t = np.concatenate(grids)
    order = np.arange(n)
    counts = np.array([g.size for g in grids])
    vals = _values(f, path(t, np.repeat(order, counts)))
    if f0 is not None:
        f0[:] = vals
        vals = f0
    ends = np.cumsum(counts)
    vals[ends - 1] = vals[ends - counts]
    walking = np.ones(n, dtype=bool)

    def stop(hit, message):
        for c in np.unique(hit[walking[hit]]):
            out[c] = ZeroNearBoundary(message)
        walking[hit] = False

    def underflow(v, owners):
        return owners[(np.abs(v) < tol.value_floor) | ~np.isfinite(v)]

    stop(underflow(vals, np.repeat(order, counts)),
         "contour value underflow: zero on the path?")
    while walking.any():
        kept = walking[order]
        if not kept.all():
            keep = np.repeat(kept, counts)
            t, vals = t[keep], vals[keep]
            order, counts = order[kept], counts[kept]
            if order.size == 0:
                return out
        ends = np.cumsum(counts)
        dphi = np.angle(vals[1:] / vals[:-1])
        mag = np.abs(vals)
        ratio = mag[1:] / mag[:-1]
        suspicious = ((np.abs(dphi) >= tol.winding_max_phase_step)
                      | (ratio >= tol.winding_max_mag_step)
                      | (ratio <= 1.0 / tol.winding_max_mag_step))
        suspicious[ends[:-1] - 1] = False
        bad = np.flatnonzero(suspicious)
        slot = np.searchsorted(ends, bad, side="right")
        nbad = np.bincount(slot, minlength=order.size)
        for j in np.flatnonzero(nbad == 0):
            w = float(dphi[ends[j] - counts[j]:ends[j] - 1].sum()) / TWO_PI
            if abs(w - round(w)) > 0.1:
                out[order[j]] = ZeroNearBoundary(
                    f"winding {w:.4f} too far from an integer; phase tracking "
                    "is unreliable on this contour")
            else:
                out[order[j]] = int(round(w))
        walking[order[nbad == 0]] = False
        stop(order[counts + nbad > tol.winding_max_points],
             "contour refinement exceeded point budget")
        sampled = walking[order[slot]]
        bad, slot = bad[sampled], slot[sampled]
        tm = 0.5 * (t[bad] + t[bad + 1])
        owner = order[slot]
        stop(owner[tm - t[bad] < 1e-13 * span[owner]],
             "contour refinement below resolution floor")
        sampled = walking[owner]
        bad, slot, tm, owner = bad[sampled], slot[sampled], tm[sampled], owner[sampled]
        if bad.size:
            vm = _values(f, path(tm, owner))
            stop(underflow(vm, owner), "contour value underflow: zero on the path?")
            t = np.insert(t, bad + 1, tm)
            vals = np.insert(vals, bad + 1, vm)
            counts = counts + np.bincount(slot, minlength=order.size)
    stop(np.flatnonzero(walking), "phase continuation did not settle")
    return out


# the boxes of the lock-step test: every way a walk can end
CASE_ZEROS = ((-1e-15 + 0j, 1.3 - 0.2j, 3.4 + 0.3j, 5.6 - 0.1j, 5.8 + 0.2j,
               7.0 + 0j) + (9.5 + 0j,) * 32)
CASE_BOXES = [Box(0, 1, -0.5, 0.5),      # zero 1e-15 off the left wall: floor
              Box(3, 4, -0.5, 0.5),      # one zero
              Box(5, 6.5, -0.5, 0.5),    # two zeros
              Box(6.5, 7.0, -0.5, 0.5),  # right wall through a zero: underflow
              Box(9, 10, -0.5, 0.5),     # 32-fold zero: over the point budget
              Box(11, 12, -0.5, 0.5),    # no zero, one refinement round
              Box(1.0, 1.6, -0.5, 0.1)]  # one zero


def seeded_boxes(seed, nzeros, nboxes):
    """nzeros random zeros in [0, 10] x [-1, 1] and nboxes random boxes there."""
    rng = np.random.default_rng(seed)
    zeros = rng.uniform(0, 10, nzeros) + 1j * rng.uniform(-1, 1, nzeros)
    lo = np.column_stack((rng.uniform(0, 9, nboxes), rng.uniform(-1, 0.5, nboxes)))
    size = rng.uniform(0.05, 1.0, (nboxes, 2))
    return zeros, [Box(x, x + w, y, y + h) for (x, y), (w, h) in zip(lo, size)]


def assert_same_walks(monkeypatch, walk, f, *args):
    """walk(f, *args) with the step walk and with the reference as
    resonances._winding_numbers gives the same windings, the same exception
    messages and the same values batches."""
    results, batches = [], []
    for walks in (resonances._winding_numbers, reference_winding_numbers):
        monkeypatch.setattr(resonances, "_winding_numbers", walks)
        recorded = Recorded(f)
        results.append(walk(recorded, *args))
        batches.append(recorded.batches)
    got, want = results
    assert [type(g) for g in got] == [type(w) for w in want]
    assert [str(g) for g in got] == [str(w) for w in want]
    assert len(batches[0]) == len(batches[1])
    for a, b in zip(*batches):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got, batches[0]


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_simple_zero():
    h = poly_handle(0.0j)
    path, nseg = polyline_path(np.array([1, 1j, -1, -1j, 1], dtype=complex))
    assert winding_number(h, path, nseg) == 1


def test_winding_triple_zero():
    h = poly_handle(0.2 + 0.1j, 0.2 + 0.1j, 0.2 + 0.1j)
    assert count_zeros(h, Box(-1, 1, -1, 1)) == 3


def test_winding_no_zero():
    h = poly_handle(5.0 + 0j)
    assert count_zeros(h, Box(-1, 1, -1, 1)) == 0


def test_winding_zero_on_edge_rejected():
    h = poly_handle(5.0 - 1.0j)
    with pytest.raises(ZeroNearBoundary):
        count_zeros(h, Box(5.0, 6.0, -2.0, -0.5))


def test_count_zeros_conjugate_pair():
    h = poly_handle(3.0 - 0.5j, 3.2 - 1.1j)
    assert count_zeros(h, Box(2.5, 3.5, -1.5, 0.0)) == 2
    assert count_zeros(h, Box(2.5, 3.5, -1.0, 0.0)) == 1


@pytest.mark.parametrize("case", ["pole", "tri345-101-zeros"])
def test_negative_winding_is_no_zero_count(case, triangle_345):
    # the walk goes counterclockwise round the box, so a winding below 0
    # (a pole inside, or phase tracking that lost turns on a 3-4-5 box of
    # 101 zeros) is a failure, not a count of -1
    if case == "pole":
        f, box = FunctionHandle(lambda lam: 1.0 / (lam - (2.0 + 1.0j))), Box(1, 3, 0, 2)
    else:
        f, box = char_function(triangle_345), Box(20, 70, -1.050, 0.5)
    with pytest.raises(ZeroNearBoundary, match="^winding -1 round a box"):
        count_zeros(f, box)
    (got,) = _count_zeros(f, _bounds([box]), DEFAULT)
    assert type(got) is ZeroNearBoundary and str(got).startswith("winding -1 ")


# a 3-4-5 box 10 wide and 1.8 deep: its zeros, counted on 20 slices
DEEP_BOX, DEEP_BOX_ZEROS = Box(1000.0, 1010.0, -1.317, 0.5), 16


def test_slices_of_the_deep_box_count_its_zeros(triangle_345):
    f = char_function(triangle_345)
    assert sum(count_zeros(f, Box(1000.0 + 0.5 * k, 1000.5 + 0.5 * k,
                                  DEEP_BOX.im_lo, DEEP_BOX.im_hi))
               for k in range(20)) == DEEP_BOX_ZEROS


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4's gate: count_zeros starts from 16 samples a side, so "
    "whole turns along the deep box's sides alias away and it counts 0"))
def test_count_zeros_counts_every_zero_of_a_deep_box(triangle_345):
    assert count_zeros(char_function(triangle_345), DEEP_BOX) == DEEP_BOX_ZEROS


def test_lockstep_walk_matches_count_zeros_box_by_box():
    zeros, boxes = CASE_ZEROS, CASE_BOXES
    tol = with_overrides({"winding_max_points": 150})
    lockstep = Counted(poly_handle(*zeros))
    got = _count_zeros(lockstep, _bounds(boxes), tol)
    alone = Counted(poly_handle(*zeros))
    messages = []
    for box, g in zip(boxes, got):
        try:
            want = count_zeros(alone, box, tol)
        except ZeroNearBoundary as exc:
            assert type(g) is ZeroNearBoundary and str(g) == str(exc)
            messages.append(str(exc))
        else:
            assert type(g) is int and g == want
    assert [g for g in got if type(g) is int] == [1, 2, 0, 1]
    assert messages == ["contour refinement below resolution floor",
                        "contour value underflow: zero on the path?",
                        "contour refinement exceeded point budget"]
    # the same points, as the one-contour walk evaluated them before the
    # walks ran in lock-step, in fewer values calls
    assert lockstep.points == alone.points == 601
    assert lockstep.calls < alone.calls


@pytest.mark.parametrize("overrides", [{"winding_max_points": 150}, {}])
def test_step_walk_matches_full_recompute_on_every_way_a_walk_ends(
        monkeypatch, overrides):
    tol = with_overrides(overrides)
    got, batches = assert_same_walks(monkeypatch, _count_zeros,
                                     poly_handle(*CASE_ZEROS), _bounds(CASE_BOXES),
                                     tol)
    # without the budget the 32-fold zero is counted
    assert [g for g in got if type(g) is int] == ([1, 2, 0, 1] if overrides
                                                  else [1, 2, 32, 0, 1])
    assert sum(b.size for b in batches) == (601 if overrides else 667)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_walk_matches_full_recompute_on_seeded_polynomials(monkeypatch, seed):
    # 150 random boxes walk in one lock-step walk: their 150 * 65 initial
    # samples in values calls of at most MAX_BATCH_POINTS, then one call a
    # refinement round
    zeros, boxes = seeded_boxes(seed, 40, 150)
    got, batches = assert_same_walks(monkeypatch, _count_zeros,
                                     poly_handle(*zeros), _bounds(boxes), DEFAULT)
    assert all(type(g) is int for g in got) and sum(got) > 50
    sizes = [b.size for b in batches]
    assert sizes[:3] == [4096, 4096, 1558]
    assert 3 < len(sizes) <= 3 + 44
    assert all(0 < size < MAX_BATCH_POINTS for size in sizes[3:])


def test_walk_hits_the_resolution_floor_within_44_rounds():
    # every round halves every kept step, and an initial step is at most 1
    # in t, so a zero on the wall stops the walk at the 1e-13 * span floor
    # after at most 44 values calls: no cap on the rounds is needed
    h = Counted(poly_handle(1.0 + 0.1j))
    path, nseg = polyline_path(Box(0, 1, -0.5, 0.5).corners())
    with pytest.raises(ZeroNearBoundary,
                       match="contour refinement below resolution floor"):
        winding_number(h, path, nseg, per_segment=1)
    assert h.calls <= 44


def test_step_walk_matches_full_recompute_on_long_contours(monkeypatch):
    # contours longer than MAX_BATCH_POINTS walk in one walk with short ones
    zeros = (5.13 - 0.8j, 7.02 - 1.2j, complex(6.0, -0.8 * math.log(6.0) + 0.01),
             4.5 - 0.1j)
    band, _ = log_band_path(4.0, 8.0, 0.3, 0.8)
    square = polyline_path(Box(4.0, 5.0, -0.5, 0.5).corners())[0]

    def path(t, owner):
        return np.where(owner % 2 == 0, band(t), square(t))

    grids = [np.linspace(0.0, 4.0, c) for c in (5001, 65, 3000, 17, 2000)]
    # through the module, so the walk called is the one patched in
    got, batches = assert_same_walks(
        monkeypatch, lambda *args: resonances._winding_numbers(*args),
        poly_handle(*zeros), path, grids, DEFAULT)
    assert got == [3, 1, 3, 1, 3]
    assert [b.size for b in batches[:3]] == [4096, 4096, 10_083 - 2 * 4096]


def test_winding_number_walks_a_log_band():
    # one zero 0.01 above the band's lower curve takes four refinement rounds
    zeros = (5.13 - 0.8j, 7.02 - 1.2j, complex(6.0, -0.8 * math.log(6.0) + 0.01),
             4.5 - 0.1j)   # the last lies above the band
    h = Counted(poly_handle(*zeros))
    path, nseg = log_band_path(4.0, 8.0, 0.3, 0.8)
    assert winding_number(h, path, nseg) == 3
    assert (h.points, h.calls) == (73, 5)


def test_per_segment_sequence_of_equal_counts_walks_the_int_grid():
    zeros = (5.13 - 0.8j, 7.02 - 1.2j, complex(6.0, -0.8 * math.log(6.0) + 0.01),
             4.5 - 0.1j)
    path, nseg = log_band_path(4.0, 8.0, 0.3, 0.8)
    for per_segment in (16, (16, 16, 16, 16)):
        h = Counted(poly_handle(*zeros))
        assert winding_number(h, path, nseg, per_segment=per_segment) == 3
        assert h.points == 73


def test_per_segment_counts_sample_each_segment():
    # the walk starts from 3 samples on the first side, 1 on each other
    first = []
    h = poly_handle(0.0j)
    f = FunctionHandle(lambda lam: first.append(lam) or h.values(lam))
    square = np.array([1, 1j, -1, -1j, 1], dtype=complex)
    path, nseg = polyline_path(square)
    assert winding_number(f, path, nseg, per_segment=[3, 1, 1, 1]) == 1
    t = np.array([0, 1 / 3, 2 / 3, 1, 2, 3, 4])
    np.testing.assert_allclose(first[0], path(t), atol=1e-15)
    assert winding_number(h, path, nseg, per_segment=np.array([2, 2, 2, 2])) == 1


@pytest.mark.parametrize("per_segment", [
    0, -3,                     # an int below 1
    2.5, 16.0, True, "16",     # not an int
    (16, 16, 16),              # a sequence of the wrong length
    (16, 0, 16, 16),           # an entry below 1
    (16, 16.0, 16, 16),        # an entry that is not an int
])
def test_per_segment_rejects_bad_counts(per_segment):
    h = Counted(poly_handle(0.0j))
    path, nseg = polyline_path(np.array([1, 1j, -1, -1j, 1], dtype=complex))
    with pytest.raises(ValueError, match="per_segment"):
        winding_number(h, path, nseg, per_segment=per_segment)
    assert h.calls == 0


@pytest.mark.parametrize("nseg", [0, -1, 4.0, True, "4"])
def test_winding_number_rejects_bad_segment_counts(nseg):
    h = Counted(poly_handle(0.0j))
    path, _ = polyline_path(np.array([1, 1j, -1, -1j, 1], dtype=complex))
    with pytest.raises(ValueError, match="nseg"):
        winding_number(h, path, nseg)
    assert h.calls == 0


# ---------------------------------------------------------------------------
# Newton refinement


def test_refine_root_polishes():
    z = 4.31 - 0.77j
    h = poly_handle(z, 9.0 + 0j)
    box = Box(4.0, 4.6, -1.0, -0.5)
    lam, resid = refine_root(h, box.center, box)
    assert abs(lam - z) < 1e-12
    assert resid < 1e-10


def test_refine_root_escapes():
    h = poly_handle(10.0 + 10.0j)
    with pytest.raises(EscapedBox):
        refine_root(h, 0.5 + 0.5j, Box(0.0, 1.0, 0.0, 1.0))


def test_refine_root_needs_derivative():
    h = FunctionHandle(lambda lam: np.asarray(lam, dtype=complex) - 2.0)
    with pytest.raises(NoConvergence):
        refine_root(h, 1.9 + 0j, Box(1.5, 2.5, -0.5, 0.5))


def reference_refine_roots(f, starts, tol):
    """resonances._refine_roots as the loop over Python complex scalars it
    replaced: refine_root on every (lam0, box, multiplicity) start, one
    values_and_derivs call per iteration for all live starts.  The array
    core must reproduce its (lam, residual) bit for bit, or its exception
    type and message."""
    lams = {i: complex(lam0) for i, (lam0, _, _) in enumerate(starts)}
    roams = [box.inflate(3.0) for _, box, _ in starts]
    done = {}
    for _ in range(tol.newton_max_iter):
        if not lams:
            break
        vs, ds = f.values_and_derivs(np.asarray(list(lams.values()), dtype=complex))
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


def refine_roots(f, starts, tol):
    """_refine_roots on the (lam0, box, multiplicity) starts: per start,
    (lam, residual) or the exception refine_root would raise."""
    lam, resid, outcome = _refine_roots(
        f, np.array([lam0 for lam0, _, _ in starts], dtype=complex),
        _bounds([box for _, box, _ in starts]),
        np.array([m for _, _, m in starts], dtype=int), tol)
    return [(z, r) if o == _CONVERGED else _newton_failure(o, z, box, tol)
            for z, r, o, (_, box, _) in zip(lam.tolist(), resid.tolist(),
                                            outcome.tolist(), starts)]


def result_bits(result):
    """A Newton result as comparable bits: (lam, residual) as hex floats,
    an exception as its type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    lam, resid = result
    return tuple(float.hex(x) for x in (lam.real, lam.imag, resid))


def test_batched_newton_matches_refine_root_per_start():
    h = poly_handle(4.31 - 0.77j, 9.0 + 0j, 6.5 - 0.5j, 6.5 - 0.5j)
    tol = with_overrides({"newton_max_iter": 6})
    starts = [
        (4.3 - 0.75j, Box(4.0, 4.6, -1.0, -0.5), 1),          # converges
        (4.7 - 0.75j, Box(4.5, 4.9, -1.0, -0.5), 1),          # escapes roam box
        (4.46 - 0.75j, Box(4.32, 4.6, -1.0, -0.5), 1),        # leaves its box
        (6.45 - 0.45j, Box(6.3, 6.7, -0.7, -0.3), 2),         # double zero
        (0j, Box(-50.0, 50.0, -50.0, 50.0), 1),               # out of iterations
        (4.0 - 0.77j, Box(3.5, 4.5, -1.0, -0.5), 1),          # converges
    ]
    batch = refine_roots(h, starts, tol)
    messages = []
    for start, got in zip(starts, batch):
        try:
            want = refine_root(h, *start, tol=tol)
        except (EscapedBox, NoConvergence) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            messages.append(str(exc))
        else:
            assert got == want   # lam and residual, bit for bit
    assert len(messages) == 3
    for fragment in ("escaped near", "left its box", "no convergence within 6"):
        assert any(fragment in m for m in messages)


def newton_cases(seed):
    """(f, starts) batches that end a Newton start in every way, 1,230
    starts in all: boxes around zeros of multiplicity 1 to 3 and around no
    zero, small boxes whose math.hypot and np.hypot diameters differ in the
    last bit and whose step cap binds, starts on an exact critical point,
    and starts where f is nan."""
    rng = np.random.default_rng(seed)
    zs = rng.uniform(0, 10, 6) + 1j * rng.uniform(-1, 1, 6)
    mult = [1, 1, 2, 2, 3, 3]
    f = poly_handle(*[z for z, m in zip(zs, mult) for _ in range(m)])
    starts = []
    for _ in range(400):   # a box near a zero, declared its multiplicity
        z, m = zs[rng.integers(6)], mult[rng.integers(6)]
        size = 10.0 ** rng.uniform(-3, 0, 2)
        lo = z - size * rng.uniform(0, 1, 2) @ [1, 1j] + rng.normal(0, 0.05, 2) @ [1, 1j]
        box = Box(lo.real, lo.real + size[0], lo.imag, lo.imag + size[1])
        starts.append((box.center, box, m))
    for _ in range(400):   # a box anywhere
        x, y = rng.uniform(-1, 11), rng.uniform(-2, 2)
        w, h = 10.0 ** rng.uniform(-2, 0.5, 2)
        box = Box(x, x + w, y, y + h)
        starts.append((box.center, box, int(rng.integers(1, 4))))
    # small boxes 0.05 to 0.3 off a simple zero, of sides whose two hypots
    # differ: the first step is about the distance, so the cap binds
    n = 200_000
    z = zs[rng.integers(2, size=n)] + (rng.uniform(0.05, 0.3, n)
                                       * np.exp(1j * rng.uniform(0, TWO_PI, n)))
    b = np.column_stack((z.real, z.real + 10.0 ** rng.uniform(-3, -1.5, n),
                         z.imag, z.imag + 10.0 ** rng.uniform(-3, -1.5, n)))
    w, h = b[:, 1] - b[:, 0], b[:, 3] - b[:, 2]
    odd = np.hypot(w, h) != [math.hypot(*wh) for wh in zip(w.tolist(), h.tolist())]
    for row in b[odd][:400].tolist():
        box = Box(*row)
        starts.append((box.center, box, 1))
    # f' = (lam - 1) + (lam - 3) is exactly 0 at 2, where f is -1
    critical = (poly_handle(1 + 0j, 3 + 0j),
                [(2 + 0j, Box(1.5, 2.5, -0.5, 0.5), m) for m in (1, 2, 3)] * 5)

    def nan_right_of_50(lam):
        lam = np.asarray(lam, dtype=complex)
        return np.where(lam.real < 50, lam - 49.0, np.nan)

    blind = (FunctionHandle(nan_right_of_50, lambda lam: np.ones_like(lam)),
             [(x + 0j, Box(x - 0.5, x + 0.5, -0.5, 0.5), 1)
              for x in (49.2, 49.6, 49.8, 50.1, 51.0)] * 3)
    return [(f, starts), critical, blind]


@pytest.mark.parametrize("max_iter", [8, 50])
def test_newton_core_matches_the_scalar_loop(max_iter):
    # the array core against the scalar loop it replaced, start by start:
    # (lam, residual) bit for bit, or the same exception and message
    tol = with_overrides({"newton_max_iter": max_iter})
    messages, capped, nstarts, mults = [], 0, 0, set()
    for f, starts in newton_cases(18):
        want = reference_refine_roots(f, starts, tol)
        got = refine_roots(f, starts, tol)
        assert [result_bits(g) for g in got] == [result_bits(w) for w in want]
        messages += [str(w) for w in want if isinstance(w, Exception)]
        nstarts += len(starts)
        mults |= {m for _, _, m in starts}
        for lam0, box, m in starts:
            v, d = f.values_and_derivs(np.array([lam0]))
            diameter = box.diameter
            if (diameter != np.hypot(box.width, box.height)
                    and abs(m * complex(v[0]) / complex(d[0])) > diameter):
                capped += 1
    converged = nstarts - len(messages)
    assert nstarts >= 1000 and mults == {1, 2, 3}
    assert capped >= 100
    kinds = [sum(fragment in m for m in messages)
             for fragment in ("left its box", "escaped near",
                              "degenerate derivative", "no convergence within")]
    assert converged > 0 and all(kinds), kinds


def test_complex_arithmetic_emulation_matches_python():
    # _py_quot against Python's complex /, _py_scaled against int * complex
    # and complex * float, np.hypot against abs: bit for bit (nan equals
    # nan), on seeded pairs at scales 1e-12 to 1e6 and on every combination
    # of special parts.  A Python whose complex arithmetic rounds otherwise
    # (3.14 changes mixed-mode arithmetic) fails here, instead of moving
    # the scan's zeros.
    rng = np.random.default_rng(18)
    parts = rng.normal(size=(4, 20_000)) * 10.0 ** rng.uniform(-12, 6, (4, 20_000))
    special = [0.0, -0.0, 5e-324, -1e-310, 1e-300, -1e300, math.inf, -math.inf,
               math.nan]
    corners = np.array(np.meshgrid(*[special] * 4)).reshape(4, -1)
    ar, ai, br, bi = np.concatenate((parts, corners), axis=1)

    def same(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return (x.view(np.uint64) == y.view(np.uint64)) | (np.isnan(x) & np.isnan(y))

    def python(op, *columns):
        """op on Python complex numbers, row by row: real, imag and where
        Python raised."""
        out, failed = [], []
        for args in zip(*(c.tolist() for c in columns)):
            try:
                out.append(op(*args))
            except (ZeroDivisionError, OverflowError):
                out.append(complex(math.nan, math.nan))
                failed.append(True)
            else:
                failed.append(False)
        z = np.array(out, dtype=complex)
        return z.real, z.imag, np.array(failed)

    want_re, want_im, raised = python(
        lambda ar, ai, br, bi: complex(ar, ai) / complex(br, bi), ar, ai, br, bi)
    got_re, got_im = _py_quot(ar, ai, br, bi)
    assert np.array_equal(raised, (br == 0) & (bi == 0))
    assert (same(got_re, want_re) & same(got_im, want_im))[~raised].all()
    for s in (1, 2, 3):
        want_re, want_im, _ = python(lambda re, im: s * complex(re, im), ar, ai)
        got_re, got_im = _py_scaled(np.full(ar.size, s), ar, ai)
        assert (same(got_re, want_re) & same(got_im, want_im)).all()
    want_re, want_im, _ = python(lambda re, im, s: complex(re, im) * s, ar, ai, br)
    got_re, got_im = _py_scaled(br, ar, ai)
    assert (same(got_re, want_re) & same(got_im, want_im)).all()
    want, _, raised = python(lambda re, im: abs(complex(re, im)), ar, ai)
    assert not raised.any()
    assert same(np.hypot(ar, ai), want).all()


def test_batched_newton_without_derivative_raises():
    # a Newton call that cannot run fails the whole batch, not each start
    h = FunctionHandle(lambda lam: np.asarray(lam, dtype=complex) - 2.0)
    box = Box(1.5, 2.5, -0.5, 0.5)
    with pytest.raises(NoConvergence,
                       match="^no derivative available for Newton refinement$"):
        refine_roots(h, [(1.9 + 0j, box, 1), (2.1 + 0.1j, box, 1)], DEFAULT)


# ---------------------------------------------------------------------------
# guarded splits


def split_boxes(f, items, tol=DEFAULT):
    """_split_boxes of the (box, winding) items, each box handing its halves
    the sides they keep whole from its own count_zeros walk: per item, its
    two (half, winding) pairs or its exception."""
    bounds = _bounds([box for box, _ in items])
    f0 = np.empty((len(items), 4 * tol.winding_initial_per_segment + 1), complex)
    _count_zeros(f, bounds, tol, f0.reshape(-1))
    sides = _kept_values(f0, np.arange(len(items)), bounds)
    halves, windings, failed, _ = _split_boxes(
        f, bounds, np.array([w for _, w in items]), tol, sides)
    return [exc or tuple((Box(*h), w) for h, w in zip(hs, ws))
            for exc, hs, ws in zip(failed, halves.tolist(), windings.tolist())]


def test_guarded_split_skips_a_line_through_a_zero():
    # the mid line x=1 runs through the zero; the next candidate cuts at 0.57
    h = poly_handle(1.0 + 0j)
    [((b1, w1), (b2, w2))] = _checked(split_boxes(h, [(Box(0, 2, -0.5, 0.5), 1)]))
    assert (b1.re_lo, b1.re_hi, w1) == (0.0, pytest.approx(1.14), 1)
    assert (b2.re_lo, b2.re_hi, w2) == (pytest.approx(1.14), 2.0, 0)
    assert b1.re_hi == b2.re_lo


def test_guarded_split_all_lines_rejected():
    # one zero on each candidate line x = 2*frac
    h = poly_handle(1.0 + 0j, 1.14 + 0j, 0.86 + 0j, 1.3 + 0j, 0.7 + 0j)
    with pytest.raises(ZeroNearBoundary, match="all split lines rejected"):
        _checked(split_boxes(h, [(Box(0, 2, -0.5, 0.5), 5)]))


def test_guarded_split_walk_failure_tries_next_line():
    # every split line is clear, but a zero on the left wall stops the
    # walk around each left half: every fraction is tried, then rejected
    h = poly_handle(-1e-15 + 0j, 1.3 - 0.2j)
    box = Box(0, 2, -0.5, 0.5)
    assert _lines_clear(h, _bounds([box] * len(_SPLIT_FRACTIONS)),
                        np.array(_SPLIT_FRACTIONS), DEFAULT)[0].all()
    with pytest.raises(ZeroNearBoundary,
                       match="all split lines rejected") as info:
        _checked(split_boxes(h, [(box, 1)]))
    assert isinstance(info.value.__cause__, ZeroNearBoundary)


def test_split_half_of_negative_winding_fails_its_line():
    # two zeros and a pole in a box of winding 1: every split line leaves
    # the zeros on one side and the pole on the other, a half that winds
    # -1, which fails its line as a column count of -1 fails; so the box
    # is not split into (2, -1), and the scan's rounds end at once in a
    # boundary failure, which a scan retries on a shifted grid
    a, b, p = 5.2 - 1j, 5.3 - 1j, 5.8 - 1j
    h = FunctionHandle(lambda z: (z - a) * (z - b) / (z - p),
                       lambda z: ((2 * z - a - b) * (z - p) - (z - a) * (z - b))
                       / (z - p) ** 2)
    box = Box(5, 6, -1.3, -0.7)
    assert count_zeros(h, box) == 1
    with pytest.raises(ZeroNearBoundary, match="all split lines rejected") as info:
        _checked(split_boxes(h, [(box, 1)]))
    assert str(info.value.__cause__).startswith("winding -1 round a box")
    bounds = _bounds([box])
    f0 = np.empty((1, 4 * DEFAULT.winding_initial_per_segment + 1), complex)
    counts = np.array(_checked(_count_zeros(h, bounds, DEFAULT, f0.reshape(-1))))
    with pytest.raises(ZeroNearBoundary, match="all split lines rejected"):
        resonances._scan_columns(h, bounds, counts, _kept_values(f0, [0], bounds),
                                 0.1, DEFAULT)


def test_lockstep_split_matches_guarded_split_box_by_box():
    h = poly_handle(1.0 + 0j, 10.5 - 0.1j, 11.5 + 0.1j,
                    21.0 + 0j, 21.14 + 0j, 20.86 + 0j, 21.3 + 0j, 20.7 + 0j,
                    30.0 - 1e-14 + 0j, 31.3 - 0.2j, 40.6 + 0j, 50.5 - 0.5j)
    items = [(Box(0, 2, -0.5, 0.5), 1),     # first line through a zero
             (Box(10, 12, -0.5, 0.5), 2),   # split on the first line
             (Box(20, 22, -0.5, 0.5), 5),   # a zero on every line
             (Box(30, 32, -0.5, 0.5), 1),   # every left-half walk fails
             (Box(40, 42, -0.5, 0.5), 2),   # winding not conserved
             (Box(50, 51, -1.0, 1.0), 1)]   # taller than wide: cut across
    got = split_boxes(h, items)
    for (box, w), g in zip(items, got):
        try:
            want = _checked(split_boxes(h, [(box, w)]))[0]
        except (ZeroNearBoundary, AuditError) as exc:
            assert type(g) is type(exc) and str(g) == str(exc)
            assert type(g.__cause__) is type(exc.__cause__)
        else:
            assert g == want
    assert [b.re_hi for (b, _), _ in got[:2]] == [pytest.approx(1.14), 11.0]
    assert [type(g) for g in got[2:5]] == [ZeroNearBoundary, ZeroNearBoundary,
                                           AuditError]
    assert got[2].__cause__ is None
    assert str(got[3].__cause__) == "contour refinement below resolution floor"
    assert got[5] == ((Box(50, 51, -1.0, 0.0), 1), (Box(50, 51, 0.0, 1.0), 0))


# ---------------------------------------------------------------------------
# samples handed down


SHARING = [{}, {"winding_initial_per_segment": 8}, {"split_line_samples": 21}]


@pytest.mark.parametrize("overrides", SHARING)
def test_probe_samples_are_the_halves_split_side_points(overrides):
    # probe sample j = k (m - 1) / p is the first half's split-side sample
    # k and the second half's sample p - k, bit for bit: at the defaults
    # every even probe sample, on every side the halves split
    tol = with_overrides(overrides)
    p, m = tol.winding_initial_per_segment, tol.split_line_samples
    k = np.array([k for k in range(p + 1) if k * (m - 1) % p == 0])
    j = k * (m - 1) // p
    assert k.size == (17 if not overrides else 9 if p == 8 else 5)
    grid = np.linspace(0.0, 4.0, 4 * p + 1)
    axes = set()
    for region in (SearchRegion(100.0, 120.0, 0.05, 0.35),
                   SearchRegion(100.0, 120.0, 0.0, 0.35)):    # tops at Im -0.0
        for width, shift in ((0.157, 0.0), (0.157, 0.137), (3.0, 0.0), (3.0, 0.137)):
            bounds = resonances._column_boxes(region, width, shift * width)
            for frac in _SPLIT_FRACTIONS:
                _, probe, _ = _lines_clear(poly_handle(0j), bounds, frac, tol)
                for row, cut, pts in zip(bounds.tolist(), _halves(bounds, frac), probe):
                    box = Box(*row)
                    axis = 0 if box.width >= box.height else 1
                    axes.add(axis)
                    first, second = box.split(axis, frac)
                    # _halves is Box.split, bit for bit
                    assert np.array([astuple(first), astuple(second)]).tobytes() == cut.tobytes()
                    # left half's side 1 and right half's side 3, or the
                    # bottom half's side 2 and top half's side 0
                    for half, side, at in ((first, 1 + axis, j),
                                           (second, 3 * (1 - axis), m - 1 - j)):
                        path, _ = polyline_path(half.corners())
                        got = path(grid[side * p + k])
                        assert got.tobytes() == pts[at].tobytes()
    assert axes == {0, 1}


def bit_multiset(batches):
    """The complex points of ``batches`` as a sorted list of bit patterns."""
    pts = np.concatenate([np.ravel(b) for b in batches] + [np.zeros(0, complex)])
    return sorted(np.ascontiguousarray(pts, dtype=complex)
                  .view(np.uint64).reshape(-1, 2).tolist())


def checked_walks(monkeypatch):
    """Make every walk that is handed samples also walk fresh, with nothing
    handed down: both give the same windings and exception messages, each
    handed-down value is f at its sample bit for bit, and the points the
    walk evaluates plus the points it is handed are the fresh walk's
    points, as multisets of bit patterns.  Returns the count of points
    handed down, to split halves and to run outlines."""
    walk = resonances._winding_numbers
    handed = {"halves": 0, "outline": 0}

    def checked(f, path, grids, tol, f0=None, known=None):
        if known is None:
            return walk(f, path, grids, tol, f0, known)
        t = np.concatenate(grids)
        owner = np.repeat(np.arange(len(grids)), [g.size for g in grids])
        given = path(t[known], owner[known])
        assert f0[known].tobytes() == f.values(given).tobytes()
        fresh, alone = Recorded(f), Recorded(f)
        want = walk(fresh, path, grids, tol)
        got = walk(alone, path, grids, tol, f0, known)
        assert [type(g) for g in got] == [type(w) for w in want]
        assert [str(g) for g in got] == [str(w) for w in want]
        assert (bit_multiset(alone.batches + [given])
                == bit_multiset(fresh.batches))
        handed["outline" if len(grids) == 1 else "halves"] += given.size
        return got

    monkeypatch.setattr(resonances, "_winding_numbers", checked)
    return handed


@pytest.mark.parametrize("overrides", SHARING + [{"winding_initial_per_segment": 12,
                                                   "split_line_samples": 37}])
def test_handed_down_samples_are_the_samples_a_fresh_walk_evaluates(
        monkeypatch, overrides):
    # every split pass and run outline of a scan, with a flat top at
    # nu_min = 0 too (dropped joints): halves inherit their box's kept side
    # and the probe's samples, outlines the columns' sides; with 12 samples
    # a side (1/12 inexact) the probe (at j/36) and the outline's grid share
    # fewer points than the index relations name, and only those are handed
    tol = with_overrides(overrides)
    handed = checked_walks(monkeypatch)
    zs = (4.41 - 0.9j, 5.13 - 0.8j, 5.87 - 1.1j, 6.61 - 0.02j, 6.93 - 1.3j,
          6.95 - 1.28j, 7.02 - 1.2j)
    for region in (SearchRegion(4.0, 8.0, 0.3, 0.9),
                   SearchRegion(4.0, 8.0, 0.0, 0.9),
                   SearchRegion(4.0, 8.0, 0.5, 0.56)):   # wider than high
        want = [z for z in zs
                if region.nu_min <= -z.imag / math.log(z.real) <= region.nu_max]
        rs = scan_strip(None, region, tol=tol, char_fn=poly_handle(*zs))
        assert np.allclose(rs.lambdas(), sorted(want, key=lambda z: z.real),
                           atol=1e-9)
    assert handed["halves"] > 0 and handed["outline"] > 0


def test_handed_down_samples_of_a_characteristic_function(monkeypatch,
                                                           triangle_345):
    handed = checked_walks(monkeypatch)
    region = SearchRegion(100.0, 104.0, 0.05, 0.35)
    rs = scan_strip(triangle_345, region, char_fn=CharFunction(triangle_345))
    assert len(rs.items) == rs.total_winding_audited > 4
    assert handed["halves"] > 0 and handed["outline"] > 0


# ---------------------------------------------------------------------------
# region plumbing


def test_search_region_validation():
    with pytest.raises(ValueError):
        SearchRegion(0.5, 10.0, 0.1, 0.5)     # log Re must stay positive
    with pytest.raises(ValueError):
        SearchRegion(10.0, 5.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        SearchRegion(5.0, 10.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        SearchRegion(5.0, 10.0, -0.1, 0.5)
    for bounds in ((100.0, math.inf, 0.1, 0.5), (100.0, 104.0, 0.05, math.inf),
                   (100.0, math.nan, 0.1, 0.5), (100.0, 104.0, math.nan, 0.5)):
        with pytest.raises(ValueError):
            SearchRegion(*bounds)


def test_resonance_nu(two_cone):
    rs = scan_strip(two_cone, SearchRegion(100.0, 103.0, 0.30, 0.37))
    for r in rs.items:
        assert r.nu == pytest.approx(-r.lam.imag / math.log(r.lam.real))
        assert 0.30 <= r.nu <= 0.37


# ---------------------------------------------------------------------------
# strip scans on synthetic functions


def test_scan_finds_synthetic_zeros():
    z0, z1 = 5.13 - 0.8j, 7.02 - 1.2j
    h = poly_handle(z0, z1)
    region = SearchRegion(4.0, 8.0, 0.3, 0.8)
    rs = scan_strip(None, region, char_fn=h)
    got = rs.lambdas()
    assert got.size == 2
    assert abs(got[0] - z0) < 1e-9
    assert abs(got[1] - z1) < 1e-9
    assert rs.total_winding_audited == 2
    assert all(r.winding == 1 for r in rs.items)
    assert all(r.residual < 1e-9 for r in rs.items)


def test_scan_reports_double_zero_as_one_item(monkeypatch):
    # the double zero's start rides in the round's one Newton batch
    batches, alone = [], []
    refine_roots = resonances._refine_roots

    def spy(f, lam0, bounds, multiplicity, tol):
        batches.append(multiplicity.tolist())
        return refine_roots(f, lam0, bounds, multiplicity, tol)

    monkeypatch.setattr(resonances, "_refine_roots", spy)
    monkeypatch.setattr(resonances, "refine_root",
                        lambda *args, **kwargs: alone.append(args))
    z0 = 5.53 - 1.0j
    h = poly_handle(z0, z0)
    region = SearchRegion(4.0, 7.0, 0.3, 0.9)
    rs = scan_strip(None, region, char_fn=h)
    assert len(rs.items) == 1
    item = rs.items[0]
    assert item.winding == 2
    assert abs(item.lam - z0) < 1e-6
    assert rs.total_winding_audited == 2
    assert alone == []
    assert [2] in batches


@pytest.mark.parametrize("zs, region, overrides, message, cause", [
    # a column box too small to split, with no Newton start
    ((4.41 - 0.9j, 5.87 - 1.1j), SearchRegion(4.0, 8.0, 0.3, 0.9),
     {"min_box_diameter": 10.0},
     "cannot localise zero inside Box(re_lo=4.25, re_hi=4.5, "
     "im_lo=-1.3536696570986468, im_hi=-0.4340756948808976)", None),
    # the same after its one-zero start failed, which is the cause
    ((4.41 - 0.9j, 5.87 - 1.0j), SearchRegion(4.0, 8.0, 0.5, 0.56),
     {"min_box_diameter": 10.0, "newton_max_iter": 1},
     "cannot localise zero inside Box(re_lo=5.75, re_hi=6.0, "
     "im_lo=-1.0033853027677109, im_hi=-0.8745999274046296)",
     "no convergence within 1 iterations"),
    # a box winding twice is started as one double zero and never split,
    # so its failed start ends the scan
    ((5.53 - 1.0j, 5.5301 - 1.0j, 5.9 - 1.0j), SearchRegion(4.0, 7.0, 0.3, 0.9),
     {"multiplicity_diameter": 0.5}, "no convergence within 50 iterations", None),
])
def test_scan_raises_for_a_box_it_cannot_resolve(zs, region, overrides, message,
                                                 cause):
    with pytest.raises(NoConvergence) as info:
        scan_strip(None, region, tol=with_overrides(overrides),
                   char_fn=poly_handle(*zs))
    assert str(info.value) == message
    assert (cause if info.value.__cause__ is None
            else str(info.value.__cause__)) == cause


@pytest.mark.parametrize("drop, guard, reverse", [
    (0, None, False), (0, 0.2, False), (-1, 0.2, False), (-1, 0.2, True),
], ids=["0-None", "0-0.2", "-1-0.2", "-1-0.2-reversed"])
def test_scan_audits_the_zeros_of_every_column(monkeypatch, drop, guard, reverse):
    # a column whose found zeros wind less than the column fails the audit;
    # with a guard that every zero violates, the first column to fail
    # either check decides which error the scan raises, in whatever order
    # _scan_columns found the zeros.  ``reverse`` turns that order around
    # and puts a second zero in the last column: the one left there after
    # the drop then comes before the first column's zero, and the guard
    # error of the first column must still win over the lost zero
    scan_columns = resonances._scan_columns

    def drop_one(f, bounds, *args):
        found = scan_columns(f, bounds, *args)
        if reverse:
            found = tuple(a[::-1] for a in found)
        # the zero of the first or the last column
        pick = (np.argmin if drop == 0 else np.argmax)(found[0])
        dropped.append(bounds[found[0][pick]].tolist())
        keep = np.ones(found[0].size, dtype=bool)
        keep[pick] = False
        return tuple(a[keep] for a in found)

    dropped = []
    monkeypatch.setattr(resonances, "_scan_columns", drop_one)
    tol = with_overrides({} if guard is None else {"boundary_guard": guard})
    zs = (4.41 - 0.9j, 5.87 - 1.1j, 6.93 - 1.3j) + ((6.98 - 1.3j,) if reverse else ())
    with pytest.raises((AuditError, ZeroNearBoundary)) as info:
        scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.9), tol=tol,
                   char_fn=poly_handle(*zs))
    if drop == 0:
        re_lo, re_hi, _, _ = dropped[0]
        assert type(info.value) is AuditError
        assert str(info.value) == f"column at [{re_lo}, {re_hi}] lost zeros"
    else:
        assert str(info.value) == "scan failed after 5 grid shifts"
        assert "violates the boundary guard" in str(info.value.__cause__)


def reference_staircase_vertices(boxes):
    """The staircase outline as a loop over the joints between columns:
    _staircase must give these vertices byte for byte."""
    pts = [complex(boxes[0].re_lo, boxes[0].im_lo)]
    for i, b in enumerate(boxes):
        pts.append(complex(b.re_hi, b.im_lo))
        if i + 1 < len(boxes):
            pts.append(complex(b.re_hi, boxes[i + 1].im_lo))
    for b in reversed(boxes):
        pts.append(complex(b.re_hi, b.im_hi))
        pts.append(complex(b.re_lo, b.im_hi))
    pts.append(pts[0])
    cleaned = [pts[0]]
    for p in pts[1:]:
        if p != cleaned[-1]:
            cleaned.append(p)
    return np.asarray(cleaned, dtype=complex)


@pytest.mark.parametrize("region", [SearchRegion(4.0, 8.0, 0.3, 0.9),
                                    SearchRegion(4.0, 8.0, 0.0, 0.9),
                                    SearchRegion(100.0, 120.0, 0.05, 0.35),
                                    SearchRegion(100.0, 120.0, 0.0, 0.35)])
@pytest.mark.parametrize("shift", [0.0, 0.137, 0.5])
def test_staircase_outline_matches_joint_loop(region, shift):
    # shifted and unshifted columns, a flat top at nu_min = 0 (where the
    # top corners sit at Im -0.0), one column, and a run cut from the middle
    for width in (0.2, 0.31, 1.7, 50.0):
        bounds = resonances._column_boxes(region, width, shift * width)
        for run in (bounds, bounds[1:4]):
            if not len(run):
                continue
            got = resonances._staircase(resonances._corners(run))[0]
            want = reference_staircase_vertices([Box(*row) for row in run.tolist()])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_scan_of_a_strip_down_to_the_real_axis():
    # nu_min = 0: the columns' tops lie on Im 0; a zero just below the axis
    # is found, and one just above it is not counted
    z0, z1 = 5.13 - 0.8j, 6.61 - 0.02j
    h = poly_handle(z0, z1, 4.7 + 0.05j)
    rs = scan_strip(None, SearchRegion(4.0, 8.0, 0.0, 0.8), char_fn=h)
    got = rs.lambdas()
    assert got.size == 2 and rs.total_winding_audited == 2
    assert abs(got[0] - z0) < 1e-9 and abs(got[1] - z1) < 1e-9


def test_scan_retries_a_negative_column_count_on_a_shifted_grid(monkeypatch):
    # a column winding below 0 is a boundary failure: the scan starts again
    # on the next grid shift instead of failing its winding audit
    h = poly_handle(5.13 - 0.8j, 7.02 - 1.2j)
    region = SearchRegion(4.0, 8.0, 0.3, 0.8)
    clean = scan_strip(None, region, char_fn=h)
    walks = resonances._winding_numbers
    calls = []

    def first_column_negative(*args, **kwargs):
        out = walks(*args, **kwargs)
        if not calls:   # the first run's column counts
            out[0] = -1
        calls.append(len(out))
        return out

    monkeypatch.setattr(resonances, "_winding_numbers", first_column_negative)
    rs = scan_strip(None, region, char_fn=h)
    assert np.allclose(rs.lambdas(), clean.lambdas(), atol=1e-9)
    assert rs.total_winding_audited == 2
    assert all(a.box != b.box for a, b in zip(rs.items, clean.items))


def test_scan_zeros_do_not_depend_on_the_column_grid():
    # strips of different widths are cut into different columns
    zs = (4.41 - 0.9j, 5.87 - 1.1j, 6.93 - 1.3j)
    a = scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.9), char_fn=poly_handle(*zs))
    b = scan_strip(None, SearchRegion(3.9, 8.0, 0.3, 0.9), char_fn=poly_handle(*zs))
    assert a.lambdas().size == b.lambdas().size == 3
    assert all(ra.box != rb.box for ra, rb in zip(a.items, b.items))
    assert np.allclose(a.lambdas(), b.lambdas(), atol=1e-8)


def test_scan_without_derivative_names_the_newton_failure():
    # the first Newton batch cannot run, and that ends the scan at once
    # instead of splitting every box down to the smallest
    h = Counted(FunctionHandle(poly_handle(5.13 - 0.8j).values))
    with pytest.raises(NoConvergence) as info:
        scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.8), char_fn=h)
    assert f"{type(info.value).__name__}: {info.value}" == (
        "NoConvergence: no derivative available for Newton refinement")
    assert h.calls <= 5


@pytest.mark.parametrize("seed", [-1, 2.0, True, "7", None])
def test_scan_rejects_bad_seed_before_evaluating(seed):
    h = Counted(poly_handle(5.13 - 0.8j))
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.8), char_fn=h, seed=seed)
    assert h.calls == 0


def test_scan_refuses_more_than_max_columns_before_evaluating(monkeypatch):
    # without a spec the strip is cut into 16 columns; the cap is checked
    # before any column is built, so a strip too wide to lay out fails
    # at once instead of growing the process
    h = Counted(poly_handle(5.13 - 0.8j))
    monkeypatch.setattr(resonances, "MAX_COLUMNS", 15)
    with pytest.raises(MemoryError, match=r"^the strip needs 16 columns, "
                                          r"more than MAX_COLUMNS = 15$"):
        scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.8), char_fn=h)
    assert h.calls == 0
    monkeypatch.setattr(resonances, "MAX_COLUMNS", 16)
    assert len(scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.8), char_fn=h).items) == 1


def test_scan_requires_function_or_spec():
    with pytest.raises(ValueError):
        scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.8))


def test_scan_empty_region():
    h = poly_handle(100.0 - 50.0j)
    rs = scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.8), char_fn=h)
    assert rs.items == ()
    assert rs.total_winding_audited == 0


# ---------------------------------------------------------------------------
# scans of the characteristic function


def test_scan_two_cone_counts(two_cone):
    # one string zero per unit of Re
    rs = scan_strip(two_cone, SearchRegion(100.0, 110.0, 0.30, 0.37))
    assert len(rs.items) == 10
    spacings = np.diff(sorted(r.lam.real for r in rs.items))
    assert np.all(np.abs(spacings - 1.0) < 0.01)


def test_scan_workload_scales_linearly(two_cone):
    cf_a = CharFunction(two_cone)
    rs_a = scan_strip(two_cone, SearchRegion(100.0, 110.0, 0.30, 0.37),
                      char_fn=cf_a)
    cf_b = CharFunction(two_cone)
    rs_b = scan_strip(two_cone, SearchRegion(100.0, 120.0, 0.30, 0.37),
                      char_fn=cf_b)
    assert len(rs_a.items) == 10 and len(rs_b.items) == 20
    # doubling the window should not much more than double the work
    assert cf_b.n_evals < 3.0 * cf_a.n_evals
    # and the per-zero cost stays modest
    assert cf_a.n_evals / len(rs_a.items) < 2000


def test_scan_parallel_matches_serial(two_cone):
    region = SearchRegion(60.0, 70.0, 0.28, 0.40)
    serial = scan_strip(two_cone, region, jobs=1)
    parallel = scan_strip(two_cone, region, jobs=4)
    assert len(serial.items) > 0
    # lambdas, residuals, windings and boxes, all bit for bit
    assert parallel.items == serial.items
    assert parallel.total_winding_audited == serial.total_winding_audited


def test_scan_counts_every_evaluation_whatever_jobs(two_cone):
    # the whole scan runs in this process, so the shared evaluator sees
    # every point whatever jobs says
    region = SearchRegion(60.0, 70.0, 0.28, 0.40)
    cf = char_function(two_cone)
    counts = []
    for jobs in (1, 4):
        before = cf.n_evals
        scan_strip(two_cone, region, jobs=jobs)
        counts.append(cf.n_evals - before)
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_scan_null_vector_failures(two_cone, monkeypatch):
    import coneres.monodromy as monodromy

    region = SearchRegion(100.0, 103.0, 0.30, 0.37)

    def too_large(spec, lams, *args, **kwargs):
        return [NoConvergence("residual too large") for _ in lams]

    monkeypatch.setattr(monodromy, "null_vectors", too_large)
    rs = scan_strip(two_cone, region, with_null_vectors=True)
    assert len(rs.items) == 3
    assert all(r.null_mass is None for r in rs.items)

    def broken(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(monodromy, "null_vectors", broken)
    with pytest.raises(RuntimeError, match="unexpected"):
        scan_strip(two_cone, region, with_null_vectors=True)


def test_scan_boundary_guard_retries_then_fails(two_cone):
    # a guard wider than any zero's clearance fails on every grid shift
    region = SearchRegion(100.0, 103.0, 0.30, 0.37)
    tol = with_overrides({"boundary_guard": 0.2})
    with pytest.raises(ZeroNearBoundary,
                       match="scan failed after 5 grid shifts") as info:
        scan_strip(two_cone, region, tol=tol)
    assert isinstance(info.value.__cause__, ZeroNearBoundary)
    assert "violates the boundary guard" in str(info.value.__cause__)


def test_scan_audit_total(triangle_345):
    rs = scan_strip(triangle_345, SearchRegion(100.0, 104.0, 0.05, 0.35))
    assert rs.total_winding_audited == sum(r.winding for r in rs.items)
    assert rs.total_winding_audited > 4   # several interleaved families
    lams = rs.lambdas()
    assert np.all(np.diff(lams.real) >= 0)


def spy_runs(monkeypatch, doctor_run=None):
    """The column boxes of every run the scan takes; ``doctor_run`` (a run
    index) adds one to the winding of that run's first column once its
    zeros are found (the run reads its column windings from the counts
    it handed _scan_columns)."""
    runs = []
    scan_columns = resonances._scan_columns

    def spy(f, bounds, counts, *args):
        found = scan_columns(f, bounds, counts, *args)
        if len(runs) == doctor_run:
            counts[0] += 1
        runs.append([Box(*row) for row in bounds.tolist()])
        return found

    monkeypatch.setattr(resonances, "_scan_columns", spy)
    return runs


@pytest.mark.parametrize("budget, run, nruns", [(8 * 16 * 40, 40, 2),
                                                 (8 * 16 * 13, 13, 5),
                                                 (8 * 16 * 2 - 1, 2, 33)])
def test_scan_in_runs_matches_one_run(triangle_345, monkeypatch, budget, run,
                                      nruns):
    # 65 columns: one run at the defaults, runs of budget // (8 * 16)
    # columns, but at least 2, under a smaller point budget; each run is
    # audited on its own
    region = SearchRegion(100.0, 120.0, 0.05, 0.35)
    whole = scan_strip(triangle_345, region)
    runs = spy_runs(monkeypatch)
    tol = with_overrides({"winding_max_points": budget})
    cut = scan_strip(triangle_345, region, tol=tol)
    assert [len(r) for r in runs] == [run] * (nruns - 1) + [65 - (nruns - 1) * run]
    assert cut.items == whole.items
    assert cut.total_winding_audited == whole.total_winding_audited == 77


def spy_run_counts(monkeypatch):
    """(bounds, own, counts) of every run the scan takes: its rows, the next
    run's first column included, how many of them are its own, and the
    windings its count walk gave them."""
    runs = []
    scan_run, count_zeros = resonances._scan_run, resonances._count_zeros

    def spy_run(f, bounds, own, *args):
        runs.append((bounds.copy(), own, None))
        return scan_run(f, bounds, own, *args)

    def spy_count(f, bounds, *args):
        counts = count_zeros(f, bounds, *args)
        if runs and runs[-1][2] is None:   # the run's first walk counts its columns
            runs[-1] = runs[-1][:2] + (list(counts),)
        return counts

    monkeypatch.setattr(resonances, "_scan_run", spy_run)
    monkeypatch.setattr(resonances, "_count_zeros", spy_count)
    return runs


def test_scan_audits_every_run(triangle_345, monkeypatch):
    # a column winding one too high in the second run fails that run's
    # audit, whose outline ends at the right side of the next run's first
    # column
    runs = spy_runs(monkeypatch, doctor_run=1)
    counted = spy_run_counts(monkeypatch)
    tol = with_overrides({"winding_max_points": 8 * 16 * 13})
    with pytest.raises(AuditError, match="winding audit failed") as info:
        scan_strip(triangle_345, SearchRegion(100.0, 120.0, 0.05, 0.35), tol=tol)
    assert len(runs) == len(counted) == 2
    bounds, own, _ = counted[1]
    assert (own, len(bounds)) == (13, 14)
    assert str(info.value).startswith(
        f"winding audit failed on the columns over Re [{runs[1][0].re_lo}, "
        f"{float(bounds[-1, 1])}]: columns total ")


def test_run_lookahead_column_is_counted_alike_by_both_runs(triangle_345,
                                                            monkeypatch):
    # each run but the last counts the next run's first column too, on the
    # same bounds, so with the same samples and winding; its zeros are found
    # once, by the run that owns it
    runs = spy_run_counts(monkeypatch)
    tol = with_overrides({"winding_max_points": 8 * 16 * 13})
    rs = scan_strip(triangle_345, SearchRegion(100.0, 120.0, 0.05, 0.35), tol=tol)
    assert [(len(b), own) for b, own, _ in runs] == [(14, 13)] * 4 + [(13, 13)]
    for (b, _, counts), (b_next, _, counts_next) in zip(runs, runs[1:]):
        assert b[-1].tobytes() == b_next[0].tobytes()
        assert counts[-1] == counts_next[0]
    assert sum(counts[-1] for _, _, counts in runs[:-1]) > 0
    assert rs.total_winding_audited == sum(sum(c[:own]) for _, own, c in runs)
    assert rs.total_winding_audited == len(rs.items) == 77


@pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("sign", [1, -1])
def test_scan_does_not_lose_a_zero_pair_hugging_a_run_cut(gap, sign):
    # runs of 4 columns cut the strip at Re 5, 6 and 7; two zeros sit just
    # right or just left of the cut at Re 6.  The scan finds every zero or
    # raises AuditError.  With both zeros right of the cut by 1e-3, the
    # columns walk the cut with the same samples and lose a zero; the
    # outline of the run left of the cut walks round the next run's first
    # column, with the cut inside, and sees it.
    zs = (6.0 + sign * gap - 1.0j, 6.0 + sign * 2 * gap - 1.0j, 4.41 - 0.9j)
    tol = with_overrides({"winding_max_points": 8 * 16 * 4})
    try:
        rs = scan_strip(None, SearchRegion(4.0, 8.0, 0.3, 0.9), tol=tol,
                        char_fn=poly_handle(*zs))
    except AuditError as exc:
        if (gap, sign) == (1e-3, 1):
            assert str(exc) == ("winding audit failed on the columns over "
                                "Re [5.0, 6.25]: columns total 1, outer contour 2")
    else:
        assert (gap, sign) != (1e-3, 1)
        assert np.allclose(rs.lambdas(), sorted(zs, key=lambda z: z.real),
                           atol=1e-9)


def test_scan_evaluates_the_same_points_in_few_values_calls(triangle_345):
    # 330,808 points: the 515,224 the scan evaluated when it walked one
    # contour per values call (11,139 calls), less the samples a half, the
    # probe or the run outline would evaluate again (the halves' kept and
    # split sides, the outline's bottom and top); one lock-step walk for the
    # columns of the scan's one run and one a split pass take them in 147
    cf = char_function(triangle_345)
    counted = Counted(cf)
    before = cf.n_evals
    rs = scan_strip(triangle_345, SearchRegion(100.0, 300.0, 0.05, 0.35),
                    char_fn=counted)
    assert len(rs.items) == 764
    assert cf.n_evals - before == 330_808
    assert counted.calls <= 200


def test_scan_newton_decisions(triangle_345, monkeypatch):
    # the flagship scan's Newton batches, one a round, and what became of
    # each start: every failed one-zero start is split again
    batches, outcomes = [], []
    refine_roots = resonances._refine_roots

    def spy(f, lam0, bounds, multiplicity, tol):
        out = refine_roots(f, lam0, bounds, multiplicity, tol)
        if lam0.size:
            batches.append(lam0.size)
            outcomes.append(out[2])
        return out

    monkeypatch.setattr(resonances, "_refine_roots", spy)
    counted = Counted(char_function(triangle_345))
    rs = scan_strip(triangle_345, SearchRegion(100.0, 300.0, 0.05, 0.35),
                    char_fn=counted)
    assert len(rs.items) == 764
    assert batches == [642, 523, 433, 137, 45, 27] and sum(batches) == 1807
    kinds = np.bincount(np.concatenate(outcomes), minlength=5)
    assert dict(zip(("converged", "left its box", "escaped", "degenerate",
                     "stalled"), kinds.tolist())) == {
        "converged": 764, "left its box": 280, "escaped": 763, "degenerate": 0,
        "stalled": 0}
    assert (resonances._CONVERGED, resonances._LEFT_BOX, resonances._ESCAPED,
            resonances._DEGENERATE, resonances._STALLED) == tuple(range(5))
    assert (counted.newton_calls, counted.newton_points) == (97, 12_159)


def test_scan_decisions_do_not_depend_on_values_kernel(triangle_345):
    # values by the dense LU of I - M instead of the exponential sum: the
    # same windings, split lines and Newton starts, hence the same zeros
    # from the same number of evaluated points
    region = SearchRegion(100.0, 120.0, 0.05, 0.35)
    cf = char_function(triangle_345)
    before = cf.n_evals
    default = scan_strip(triangle_345, region)
    default_evals = cf.n_evals - before

    lu = CharFunction(triangle_345)
    points = []

    def lu_values(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        points.append(lam.size)
        return np.linalg.det(np.eye(lu.size) - lu.matrices(lam))

    # Newton steps take the LU value and derivative from one call, as the
    # default scan does; lu.n_evals counts their points
    handle = SimpleNamespace(values=lu_values, values_and_derivs=lu.values_and_derivs)
    by_lu = scan_strip(triangle_345, region, char_fn=handle)
    assert by_lu.items == default.items
    assert sum(points) + lu.n_evals == default_evals
