import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from coneres import (DEFAULT, CharFunction, GapReport, InsufficientData,
                     LadderModel, LengthScales, SearchRegion, coset_deviations, fit_log_curve,
                     gap_report, ladder_in_window, ladder_model_from_spec,
                     log_band_path, predicted_ladder, scan_strip, verify_scan,
                     build_polygon_double, winding_number, with_overrides)

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# model constants


def test_two_cone_model_constants(two_cone):
    m = ladder_model_from_spec(two_cone)
    assert [f.name for f in dataclasses.fields(m)] == ["L0", "c_prod"]
    assert m.L0 == pytest.approx(math.pi)
    assert m.c_prod == pytest.approx(-1.0 / (16 * math.pi ** 2), rel=1e-14)
    assert m.spacing == pytest.approx(1.0, abs=1e-15)
    assert m.slope == pytest.approx(-1.0 / TWO_PI, abs=1e-15)
    assert m.c_im == pytest.approx(-0.8056500399812094, abs=1e-13)
    assert m.c_re == pytest.approx(0.5, abs=1e-13)


def test_triangle_model_constants(triangle_345):
    m = ladder_model_from_spec(triangle_345)
    assert m.L0 == 5.0
    assert m.spacing == pytest.approx(math.pi / 5)
    # both couplings turn by half the cone angle at a base angle of the
    # triangle; their product is real and negative
    assert m.c_prod.imag == pytest.approx(0.0, abs=1e-18)
    assert m.c_prod.real == pytest.approx(-0.00524807024312219, rel=1e-12)
    assert m.c_re == pytest.approx(math.pi / 10, rel=1e-12)
    assert m.c_im == pytest.approx(-0.5249894842688654, rel=1e-12)


def test_model_requires_unique_maximal_pair():
    h = math.sqrt(3) / 2
    eq = build_polygon_double([(0, 0), (1, 0), (0.5, h)])
    with pytest.raises(ValueError, match="not unique"):
        ladder_model_from_spec(eq)


def test_model_reads_tie_from_tol(triangle_345):
    # a loose tie makes the 4-side count as maximal next to the 5-side
    assert ladder_model_from_spec(triangle_345).L0 == 5.0
    with pytest.raises(ValueError, match="not unique"):
        ladder_model_from_spec(triangle_345,
                               with_overrides({"length_tie_rel": 0.25}))


# ---------------------------------------------------------------------------
# predicted ladder


def test_ladder_unit_coupling_reference():
    # with c_prod = 1 and L0 = pi the k-th zero sits near k with
    # Im = -log(k)/(2 pi)
    m = LadderModel(L0=math.pi, c_prod=1.0 + 0j)
    lam = predicted_ladder(m, [100])[0]
    assert lam.real == pytest.approx(100.0, abs=2e-3)
    assert lam.imag == pytest.approx(-math.log(100) / TWO_PI, abs=1e-3)


def test_ladder_zeros_satisfy_characteristic_equation(two_cone):
    m = ladder_model_from_spec(two_cone)
    cf = CharFunction(two_cone)
    lams = predicted_ladder(m, np.arange(30, 200, 7))
    vals = cf.values(lams)
    # the two-cone determinant is exactly the one-cycle model
    assert np.max(np.abs(vals)) < 1e-10


def test_ladder_rejects_small_indices():
    m = LadderModel(L0=math.pi, c_prod=1.0 + 0j)
    with pytest.raises(ValueError):
        predicted_ladder(m, [0])


def test_ladder_in_window(two_cone):
    m = ladder_model_from_spec(two_cone)
    lams = ladder_in_window(m, 50.0, 60.0)
    assert lams.size in (10, 11)
    assert np.all((lams.real >= 50.0) & (lams.real <= 60.0))
    assert np.all(np.diff(lams.real) > 0)


def test_coset_deviations_small_on_ladder(two_cone):
    m = ladder_model_from_spec(two_cone)
    lams = ladder_in_window(m, 100.0, 140.0)
    dev = coset_deviations(lams, m)
    assert np.max(np.abs(dev)) < 5e-3
    # shifting by half a spacing moves the deviation to the coset edge
    dev2 = coset_deviations(lams + 0.5 * m.spacing, m)
    assert np.min(np.abs(np.abs(dev2) - 0.5 * m.spacing)) < 5e-3


# ---------------------------------------------------------------------------
# fitting


def synthetic_ladder(n_points=60, slope=-1.0 / TWO_PI, c_im=0.3, c_re=0.3):
    k = np.arange(n_points)
    x = 100.0 + c_re + k * 1.0
    # impose Im = slope*log|lam| + c_im exactly (fixed point in Im)
    y = np.zeros_like(x)
    for _ in range(40):
        y = slope * np.log(np.hypot(x, y)) + c_im
    return x + 1j * y


def test_fit_recovers_synthetic_string():
    lam = synthetic_ladder()
    rep = fit_log_curve(lam, math.pi)
    assert rep.slope == pytest.approx(-1.0 / TWO_PI, abs=1e-10)
    assert rep.intercept == pytest.approx(0.3, abs=1e-9)
    assert rep.spacing_mean == pytest.approx(1.0, abs=1e-12)
    assert rep.c_re_empirical == pytest.approx(0.3, abs=1e-6)
    assert rep.residual_rms < 1e-10
    assert rep.count == 60


def test_fit_requires_enough_points():
    lam = synthetic_ladder(n_points=5)
    with pytest.raises(InsufficientData):
        fit_log_curve(lam, math.pi)


def test_fit_min_re_filter():
    lam = synthetic_ladder(n_points=40)
    rep = fit_log_curve(lam, math.pi, min_re=120.0)
    assert rep.count == 20
    assert rep.re_range[0] >= 120.0


def test_fit_options_are_keyword_only():
    # an old call with a dimension in second place must not fit with L0 = 2
    with pytest.raises(TypeError):
        fit_log_curve(synthetic_ladder(), 2, math.pi)
    with pytest.raises(TypeError):
        fit_log_curve(synthetic_ladder(), math.pi, 120.0)


def test_fit_report_serialization():
    rep = fit_log_curve(synthetic_ladder(), math.pi)
    d = rep.to_dict()
    assert set(d) >= {"slope", "intercept", "spacing_mean", "c_re_empirical"}
    text = rep.to_text()
    assert "slope" in text and "spacing" in text


def test_ladder_stays_accurate_at_high_index(two_cone):
    # the quantization Newton must not stall where rounding noise in
    # 2i*lam*L0 dwarfs any absolute residual floor
    m = ladder_model_from_spec(two_cone)
    cf = CharFunction(two_cone)
    lams = predicted_ladder(m, [3000, 3001, 10000])
    assert np.max(np.abs(cf.values(lams))) < 1e-9
    assert lams[1].real - lams[0].real == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# verification of a real scan


def test_verify_scan_two_cone(two_cone):
    m = ladder_model_from_spec(two_cone)
    rs = scan_strip(two_cone, SearchRegion(100.0, 140.0, 0.28, 0.40))
    rep = verify_scan(rs, m)
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 4
    assert "PASSED" in rep.to_text()
    assert rep.to_dict()["passed"] is True


# ---------------------------------------------------------------------------
# band contours


def test_log_band_path_closes():
    path, nseg = log_band_path(50.0, 80.0, 0.1, 0.3)
    assert path(0.0) == path(float(nseg))
    z = path(0.5)
    assert 50.0 <= z.real <= 80.0


def test_log_band_path_follows_the_band_curves():
    # a rectangle of the (Re, nu) chart, mapped onto the two log curves
    re_lo, re_hi, nu_lo, nu_hi, off = 50.0, 80.0, 0.1, 0.3, -0.7
    path, nseg = log_band_path(re_lo, re_hi, nu_lo, nu_hi, im_offset=off)
    s = np.sort(np.random.default_rng(23).uniform(0.0, 1.0, 1000))
    for seg, nu, step in ((0, nu_hi, 1), (2, nu_lo, -1)):
        z = path(seg + s)
        curve = off - nu * np.log(z.real)
        assert np.all(np.abs(z.imag - curve) <= 2 * np.spacing(np.abs(curve)))
        assert np.all(step * np.diff(z.real) > 0)
    for seg, x, step in ((1, re_hi, 1), (3, re_lo, -1)):
        z = path(seg + s)
        assert np.all(z.real == x)
        assert np.all(step * np.diff(z.imag) > 0)
        assert np.all((off - nu_hi * math.log(x) <= z.imag)
                      & (z.imag <= off - nu_lo * math.log(x)))
    # counterclockwise: positive signed area
    z = path(np.linspace(0.0, nseg, 4001))
    assert np.sum(z[:-1].real * z[1:].imag - z[1:].real * z[:-1].imag) > 0


@pytest.mark.parametrize("bounds", [
    (50.0, math.inf, 0.1, 0.3, 0.0), (50.0, 80.0, 0.1, math.inf, 0.0),
    (math.nan, 80.0, 0.1, 0.3, 0.0), (50.0, 80.0, math.nan, 0.3, 0.0),
    (50.0, 80.0, 0.1, 0.3, math.nan), (50.0, 80.0, 0.1, 0.3, -math.inf)])
def test_log_band_path_rejects_non_finite_bounds(bounds):
    # the walk would otherwise fail far from the cause, in a value underflow
    with pytest.raises(ValueError, match="must be finite"):
        log_band_path(*bounds[:4], im_offset=bounds[4])


@pytest.mark.parametrize("bounds, message", [
    ((50.0, 80.0, 0.3, 0.3), "need 0 <= nu_lo < nu_hi"),
    ((50.0, 80.0, -0.1, 0.3), "need 0 <= nu_lo < nu_hi"),
    ((80.0, 50.0, 0.1, 0.3), "need 1 < re_lo < re_hi"),
    ((1.0, 80.0, 0.1, 0.3), "need 1 < re_lo < re_hi"),
])
def test_log_band_path_rejects_unordered_bounds(bounds, message):
    with pytest.raises(ValueError) as info:
        log_band_path(*bounds)
    assert str(info.value) == message


def test_band_winding_counts_enclosed_ladder(two_cone):
    # a band hugging the string (shifted by C_im) catches one zero per
    # spacing; the count must match the enclosed ladder exactly
    m = ladder_model_from_spec(two_cone)
    cf = CharFunction(two_cone)
    # string slope is 1/(2 pi) ~ 0.159; bracket it and shift by C_im
    path, nseg = log_band_path(100.25, 110.25, 0.14, 0.18, im_offset=m.c_im)
    per_seg = int(math.ceil(10.0 * m.L0 * 8.0 / math.pi))
    w = winding_number(cf, path, nseg, per_segment=per_seg)
    assert w == 10


def test_gap_report_two_cone(two_cone):
    m = ladder_model_from_spec(two_cone)
    rep = gap_report(two_cone, (100.0, 120.0))
    assert not rep.gap_band_empty
    assert rep.gap_winding == 0
    # the literal (unshifted) string band misses the string at desk scale:
    # the curve Im = slope*log Re passes above the actual zeros by |C_im|
    assert rep.string_winding == 0
    shifted = gap_report(two_cone, (100.0, 120.0), im_offset=m.c_im)
    assert shifted.string_winding == 20
    assert shifted.string_expected == pytest.approx(20.0)


def _counted_gap_report(spec, re_window, tol=DEFAULT):
    """gap_report on a fresh CharFunction, centred on the string; its points."""
    cf = CharFunction(spec)
    rep = gap_report(spec, re_window, tol=tol,
                     im_offset=ladder_model_from_spec(spec).c_im, char_fn=cf)
    return rep, cf.n_evals


@pytest.mark.parametrize("surface, empty, gap, string, points", [
    ("triangle_345", True, 0, 318, 5_206),
    ("two_cone", False, 0, 200, 6_626),
])
def test_gap_report_samples_band_edges_by_length(request, surface, empty, gap,
                                                 string, points):
    spec = request.getfixturevalue(surface)
    rep, n = _counted_gap_report(spec, (100.0, 300.0))
    assert (rep.gap_band_empty, rep.gap_winding, rep.string_winding) == (
        empty, gap, string)
    assert n == points


GAP_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "gap_pool.json"


def test_gap_report_keeps_the_gap_pool_windings():
    # the 3-4-5 double and 100 random triangle doubles: every gap band
    # winds 0, and every string band its recorded count
    with open(GAP_POOL, encoding="utf-8") as fh:
        ref = json.load(fh)
    assert (ref["window"], ref["delta"]) == ([100.0, 1100.0], 0.02)
    entries = [ref["tri345"], *ref["pool"]]
    assert len(entries) == 101
    for entry in entries:
        spec = build_polygon_double(entry["vertices"])
        rep = gap_report(spec, (100.0, 1100.0), delta=0.02,
                         im_offset=ladder_model_from_spec(spec).c_im)
        assert (rep.gap_winding, rep.string_winding, rep.gap_band_empty) == (
            0, entry["string_winding"], entry["gap_band_empty"]), entry["vertices"]


@pytest.mark.parametrize("width", [1e-4, 1e-6, 1e-9])
def test_gap_report_narrow_window_costs_a_box(triangle_345, width):
    # the band edges get L0 8/pi samples per unit length at any width, so a
    # narrow window walks a box's floor grid; edges that took the curves'
    # count per unit of Re cost 58,981 points at width 1e-4
    rep, n = _counted_gap_report(triangle_345, (100.0, 100.0 + width))
    assert rep.gap_band_empty and rep.string_winding == 0
    assert n == 4 * DEFAULT.winding_initial_per_segment + 1


@pytest.mark.parametrize("eps, gap", [(0.02, 70), (0.005, 70),
                                      (-0.005, 69), (-0.02, 69)])
def test_gap_report_counts_zeros_near_sparse_edges(two_cone, eps, gap):
    # window ends eps inside (or -eps outside) the ladder zeros z[3] and
    # z[-4]: the zeros sit 0.005 to 0.02 from the edges sampled at the floor
    # density.  The gap windings count string zeros: at finite Re the
    # string's offset c_im = -0.81 puts them inside the unshifted gap band.
    m = ladder_model_from_spec(two_cone)
    z = ladder_in_window(m, 100.0, 400.0)
    lo, hi = z[3].real - eps, z[-4].real + eps
    rep, _ = _counted_gap_report(two_cone, (lo, hi))
    assert rep.string_winding == len(ladder_in_window(m, lo, hi))
    assert rep.string_winding == (294 if eps > 0 else 292)
    assert rep.gap_winding == gap


def test_gap_report_walks_a_long_window_in_pieces(triangle_345):
    # the string band's grid over Re [100, 17100] is 432,935 samples, over
    # half of winding_max_points: it is walked as 3 pieces whose windings add
    m = ladder_model_from_spec(triangle_345)
    rep, n = _counted_gap_report(triangle_345, (100.0, 17100.0))
    assert rep.gap_band_empty and rep.gap_winding == 0
    assert abs(rep.string_winding - len(ladder_in_window(m, 100.0, 17100.0))) <= 1
    assert rep.string_winding == pytest.approx(rep.string_expected, abs=1)
    assert n == 433_098
    tol = with_overrides({"winding_max_points": 20_000})
    rep, n = _counted_gap_report(triangle_345, (100.0, 700.0), tol)
    assert rep.string_winding == 955 and n < 20_000


@pytest.mark.parametrize("surface, budget, empty, string, points", [
    ("triangle_345", 4_000, True, 318, 5_272),
    ("triangle_345", 1_000, True, 318, 5_522),
    ("two_cone", 4_000, False, 200, 6_692),
    ("two_cone", 1_000, False, 200, 7_004),
])
def test_gap_report_pieces_add_to_the_single_contour(request, surface, budget,
                                                     empty, string, points):
    # the windings of the one-contour walk at the default budget (see
    # test_gap_report_samples_band_edges_by_length); each cut adds an edge
    spec = request.getfixturevalue(surface)
    tol = with_overrides({"winding_max_points": budget})
    rep, n = _counted_gap_report(spec, (100.0, 300.0), tol)
    assert (rep.gap_band_empty, rep.gap_winding, rep.string_winding) == (
        empty, 0, string)
    assert n == points


@pytest.mark.parametrize("window, delta, im_offset", [
    ((100.0, math.inf), 0.02, 0.0),     # used to end in OverflowError
    ((math.nan, 200.0), 0.02, 0.0),
    ((1.0, 200.0), 0.02, 0.0),
    ((200.0, 100.0), 0.02, 0.0),
    # bands are walked one by one, so the string band's own path check
    # would catch delta <= 0 only after the gap band's walk
    ((100.0, 120.0), 0.0, 0.0),
    ((100.0, 120.0), -0.01, 0.0),
    ((100.0, 120.0), math.nan, 0.0),
    ((100.0, 120.0), 0.02, math.nan),   # used to blame a zero on the path
])
def test_gap_report_checks_its_inputs_before_evaluating(two_cone, window, delta,
                                                        im_offset):
    cf = CharFunction(two_cone)
    with pytest.raises(ValueError, match="^gap_report needs finite 1 < re_lo"):
        gap_report(two_cone, window, delta=delta, im_offset=im_offset,
                   char_fn=cf)
    assert cf.n_evals == 0


def test_gap_report_to_dict():
    rep = GapReport(re_window=(100.0, 150.0), delta=0.02, im_offset=-0.75,
                    gap_nu_lo=0.12, gap_nu_hi=0.09, gap_band_empty=True,
                    gap_winding=0, string_winding=17, string_expected=16.5,
                    eps_prime=None,
                    scales=LengthScales(L0=5.0, Lprime=9.0, Lambda=0.125,
                                        maximal_edges=("e2", "e1")))
    assert rep.to_dict() == {
        "re_window": [100.0, 150.0], "delta": 0.02, "im_offset": -0.75,
        "gap_nu_lo": 0.12, "gap_nu_hi": 0.09, "gap_band_empty": True,
        "gap_winding": 0, "string_winding": 17, "string_expected": 16.5,
        "eps_prime": None, "L0": 5.0, "Lprime": 9.0, "Lambda": 0.125,
    }


def test_gap_report_triangle_band_inverted(triangle_345):
    # Lambda = 1/9 < nu0 + delta = 0.12: the nominal gap band is empty
    rep = gap_report(triangle_345, (100.0, 150.0))
    assert rep.gap_band_empty
    assert rep.gap_winding == 0
    assert rep.scales.Lambda == pytest.approx(1 / 9)
    assert rep.eps_prime is not None
    d = rep.to_dict()
    assert d["gap_band_empty"] is True


def test_gap_report_eps_prime_sign(two_cone):
    # two-cone: no two-step refinement, eps' = n - 1 + 1/2 - 2 L0 (Lambda - d)
    rep = gap_report(two_cone, (60.0, 80.0))
    expected = 1.5 - TWO_PI * (1 / math.pi - 0.02)
    assert rep.eps_prime == pytest.approx(expected)
