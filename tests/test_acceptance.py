"""End-to-end checks of the advertised guarantees, one test per criterion.

Each test prints one ACCEPTANCE line (also echoed in the terminal summary)
and then asserts.  Shared large scans are module fixtures so the wall-time
budgets cover the actual computation once.
"""
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from coneres import (DiffractionEvaluator, SearchRegion, build_polygon_double,
                     build_two_cone_surface, char_function,
                     diffraction_coefficient, diffraction_series_oracle,
                     fit_log_curve, gap_report, is_geometric,
                     ladder_in_window, ladder_model_from_spec, length_scales,
                     log_band_path, scan_strip, serialize_surface,
                     validate_hypotheses, winding_number)

TWO_PI = 2 * math.pi
SLOPE_TARGET = -1.0 / TWO_PI


@pytest.fixture(scope="module")
def big_scan(two_cone):
    """Two-cone strip scan over Re in [50, 500], with its wall time."""
    t0 = time.monotonic()
    rs = scan_strip(two_cone, SearchRegion(50.0, 500.0, 0.28, 0.42))
    return rs, time.monotonic() - t0


@pytest.fixture(scope="module")
def low_scan(two_cone):
    """Two-cone strip scan over Re in [20, 120] for the ladder matching."""
    return scan_strip(two_cone, SearchRegion(20.0, 120.0, 0.28, 0.50))


def test_criterion_01_string_slope(two_cone, big_scan, acceptance_log):
    rs, elapsed = big_scan
    lam = rs.lambdas()
    slope = np.polyfit(np.log(lam.real), lam.imag, 1)[0]
    rel = abs(slope - SLOPE_TARGET) / abs(SLOPE_TARGET)
    ok = rel <= 0.02 and elapsed < 120.0
    acceptance_log(
        "1", "log_curve_slope", ok,
        f"{len(rs.items)} zeros in Re [50,500], slope {slope:.9f} vs "
        f"{SLOPE_TARGET:.9f} (rel err {rel:.2e}, allow 2e-2), "
        f"scan {elapsed:.1f}s (allow 120s)")
    assert rel <= 0.02
    assert elapsed < 120.0


def test_criterion_02_spacing_and_coset(two_cone, big_scan, acceptance_log):
    rs, _ = big_scan
    model = ladder_model_from_spec(two_cone)
    re = np.sort(rs.lambdas().real)
    mean_spacing = float(np.mean(np.diff(re)))
    spacing_err = abs(mean_spacing - 1.0)
    dev = np.abs((re - model.c_re + 0.5) % 1.0 - 0.5)
    thirds = np.array_split(dev, 3)
    maxima = [float(np.max(t)) for t in thirds]
    decreasing = maxima[0] > maxima[1] > maxima[2]
    ok = spacing_err <= 1e-3 and decreasing
    acceptance_log(
        "2", "spacing_and_coset_drift", ok,
        f"mean spacing {mean_spacing:.8f} (err {spacing_err:.2e}, allow "
        f"1e-3); max |coset dev| by thirds "
        f"{maxima[0]:.2e} > {maxima[1]:.2e} > {maxima[2]:.2e}")
    assert spacing_err <= 1e-3
    assert decreasing


def test_criterion_03_resonance_free_band(triangle_345, acceptance_log):
    t0 = time.monotonic()
    specs = [triangle_345]
    rng = np.random.default_rng(345)
    attempts = 0
    while len(specs) < 21 and attempts < 60:
        attempts += 1
        bx = rng.uniform(2.5, 5.5)
        cx = rng.uniform(0.2, bx - 0.2)
        cy = rng.uniform(1.0, 4.0)
        spec = build_polygon_double([(0.0, 0.0), (bx, 0.0), (cx, cy)])
        if validate_hypotheses(spec).passed:
            specs.append(spec)
    windings = []
    nonempty = 0
    for spec in specs:
        rep = gap_report(spec, (100.0, 200.0), delta=0.02)
        windings.append(rep.gap_winding)
        if not rep.gap_band_empty:
            nonempty += 1
    elapsed = time.monotonic() - t0
    ok = (len(specs) == 21 and all(w == 0 for w in windings)
          and elapsed < 300.0)
    acceptance_log(
        "3", "gap_band_winding", ok,
        f"21 triangle doubles (20 random scalene), gap-band winding over "
        f"Re [100,200] all zero ({nonempty} bands non-empty), "
        f"{elapsed:.1f}s (allow 300s)")
    assert len(specs) == 21
    assert all(w == 0 for w in windings)
    assert elapsed < 300.0


def test_criterion_04_ladder_matches_scan(two_cone, low_scan, acceptance_log):
    model = ladder_model_from_spec(two_cone)
    predicted = np.sort_complex(ladder_in_window(model, 20.0, 120.0))
    found = np.sort_complex(low_scan.lambdas())
    ok = predicted.size == found.size
    worst = float(np.max(np.abs(predicted - found))) if ok else math.inf
    ok = ok and worst < 1e-8
    acceptance_log(
        "4", "ladder_bijection", ok,
        f"{found.size} scanned vs {predicted.size} predicted in Re "
        f"[20,120], max |delta| {worst:.2e} (allow 1e-8)")
    assert predicted.size == found.size
    assert worst < 1e-8


def test_criterion_05_string_constants(two_cone, big_scan, acceptance_log):
    rs, _ = big_scan
    model = ladder_model_from_spec(two_cone)
    fit = fit_log_curve(rs.lambdas(), model.L0, min_re=100.0)
    # targets: C_im + i C_re ~ log(c_prod) / (2 L0) up to the coset period
    err_im = abs(fit.intercept - model.c_im)
    d = (fit.c_re_empirical - model.c_re) % model.spacing
    err_re = min(d, model.spacing - d)
    ok = err_im <= 5e-2 and err_re <= 5e-2
    acceptance_log(
        "5", "string_constants", ok,
        f"C_im {fit.intercept:.6f} vs {model.c_im:.6f} (err {err_im:.2e}), "
        f"C_re {fit.c_re_empirical:.6f} vs {model.c_re:.6f} "
        f"(err {err_re:.2e}), allow 5e-2 each")
    assert err_im <= 5e-2
    assert err_re <= 5e-2


def test_criterion_06_mode_sum_literal_pairing(acceptance_log):
    K, radius = 10 ** 6, 1.0 - 1e-6
    # closed form: exactly zero and exactly even at the plane angle
    ev_plane = DiffractionEvaluator(TWO_PI)
    plane_exact_ok = all(diffraction_coefficient(ev_plane, dt) == 0j
                         for dt in (0.4, 1.1, 2.3))
    worst_plane = max(abs(diffraction_series_oracle(ev_plane, dt, K, radius))
                      for dt in (0.4, 1.1, 2.3))
    rng = np.random.default_rng(6)
    worst = 0.0
    even_ok = True
    for angle in (3 * math.pi, 4 * math.pi, 5.0):
        ev = DiffractionEvaluator(angle)
        count = 0
        while count < 20:
            dt = float(rng.uniform(0.0, angle))
            if is_geometric(ev, dt, guard=0.2):
                continue
            count += 1
            exact = diffraction_coefficient(ev, dt)
            even_ok = even_ok and diffraction_coefficient(ev, -dt) == exact
            series = diffraction_series_oracle(ev, dt, K, radius)
            worst = max(worst, abs(series - exact) / abs(exact))
    ok = plane_exact_ok and even_ok and worst < 1e-4 and worst_plane < 1e-3
    acceptance_log(
        "6", "mode_sum_agreement", ok,
        f"closed form vs Abel sum at K=1e6, r=1-1e-6: max rel err "
        f"{worst:.2e} (allow 1e-4), plane-angle residue {worst_plane:.2e} "
        f"(allow 1e-3); evenness and exact plane-angle zero hold; the "
        f"pairing K*(1-r)=1 truncates the sum while the damped tail still "
        f"carries e^-1 of its weight, so these bounds are not reachable "
        f"at this K and r")
    assert plane_exact_ok and even_ok
    assert worst < 1e-4 and worst_plane < 1e-3, (
        f"series vs closed form: max rel err {worst:.3e} (bound 1e-4), "
        f"plane-angle residue {worst_plane:.3e} (bound 1e-3): with "
        "K*(1-r) = 1 the truncated Abel sum is still e^-1 away from its "
        "limit; the companion test runs the same oracle at a convergent "
        "pairing and meets the bound")


def test_criterion_06_companion_convergent_pairing(acceptance_log):
    # same oracle and angles; K raised so a radius exists where both the
    # truncation tail e^{-K(1-r)} and the Abel bias O(1-r) clear the bound
    rng = np.random.default_rng(6)
    worst = 0.0
    for angle in (3 * math.pi, 4 * math.pi, 5.0):
        ev = DiffractionEvaluator(angle)
        count = 0
        while count < 20:
            dt = float(rng.uniform(0.0, angle))
            if is_geometric(ev, dt, guard=0.2):
                continue
            count += 1
            exact = diffraction_coefficient(ev, dt)
            series = diffraction_series_oracle(ev, dt, 4 * 10 ** 6,
                                               1.0 - 1e-5)
            worst = max(worst, abs(series - exact) / abs(exact))
    ok = worst < 1e-4
    acceptance_log(
        "6-companion", "mode_sum_convergent_pairing", ok,
        f"same check at K=4e6, r=1-1e-5 (tail e^-40): max rel err "
        f"{worst:.2e} (allow 1e-4)")
    assert worst < 1e-4


def test_criterion_07_smooth_surface_has_no_band_zeros(acceptance_log):
    flat = build_two_cone_surface(cone_angle=TWO_PI)
    scales = length_scales(flat)
    nu_hi = scales.Lambda - 0.02
    path, nseg = log_band_path(50.0, 200.0, 0.02, nu_hi)
    per_seg = max(16, int(math.ceil(150.0 * scales.L0 * 8.0 / math.pi)))
    w = winding_number(char_function(flat), path, nseg, per_segment=per_seg)
    rs = scan_strip(flat, SearchRegion(50.0, 200.0, 0.02, nu_hi))
    ok = w == 0 and len(rs.items) == 0
    acceptance_log(
        "7", "plane_angles_no_resonances", ok,
        f"all cone angles 2*pi: band winding {w}, strip scan found "
        f"{len(rs.items)} zeros over Re [50,200], nu [0.02, {nu_hi:.3f}]")
    assert w == 0
    assert len(rs.items) == 0


def test_criterion_08_expansion_orders(acceptance_log):
    from coneres import QuadraticPhase, StatPhaseProblem, nonstationary_decay, order_check

    def p1(h):
        return StatPhaseProblem(QuadraticPhase.from_array([[2.0]]),
                                (1.0, 0.0, 1.0, 0.0, 1.0), h=h)

    def p2(h):
        return StatPhaseProblem(
            QuadraticPhase.from_array([[2.0, 0.6], [0.6, 2.0]]),
            ((1.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 1.0)), h=h)

    t0 = time.monotonic()
    reports = (
        order_check(p1, 1, (0.1, 0.075, 0.056, 0.042, 0.032)),
        order_check(p1, 2, (0.14, 0.105, 0.079, 0.059, 0.044)),
        order_check(p2, 1, (0.2, 0.15, 0.112, 0.084, 0.063)),
    )
    ns_slope = nonstationary_decay((0.012, 0.008, 0.005, 0.003, 0.002))
    elapsed = time.monotonic() - t0
    ok = (all(r.passed(0.3) for r in reports) and ns_slope > 3.0
          and elapsed < 180.0)
    detail = ", ".join(
        f"(N={r.order},n={r.n}) slope {r.slope:.2f} vs {r.slope_expected}"
        for r in reports)
    acceptance_log(
        "8", "remainder_orders", ok,
        f"{detail} (tol 0.3); nonstationary decay slope {ns_slope:.1f} "
        f"(need > 3); {elapsed:.1f}s (allow 180s)")
    for r in reports:
        assert r.passed(0.3), r.to_text()
    assert ns_slope > 3.0
    assert elapsed < 180.0


def test_criterion_09_audits_and_determinism(two_cone, triangle_345,
                                             big_scan, tmp_path,
                                             acceptance_log):
    # (a) winding conservation on the shared scans
    rs, _ = big_scan
    audits_ok = rs.total_winding_audited == sum(r.winding for r in rs.items)

    # (b) analytic derivative vs the Cauchy-integral derivative
    # mean_k f(lam + r e^{it_k}) e^{-it_k} / r on 32 points at r = 0.02,
    # which reads f at distance r, not at the rounding of a step-1e-6
    # difference quotient
    cf = char_function(triangle_345)
    rng = np.random.default_rng(9)
    pts = (rng.uniform(50.0, 200.0, 100)
           + 1j * rng.uniform(-1.5, -0.1, 100))
    _, dv = cf.values_and_derivs(pts)
    r, turn = 0.02, np.exp(2j * math.pi * np.arange(32) / 32)
    cauchy = np.mean(cf.values(pts[:, None] + r * turn).reshape(pts.size, 32)
                     / turn, axis=1) / r
    cauchy_rel = float(np.max(np.abs(dv - cauchy) / np.abs(cauchy)))

    # (c) byte-identical rerun of the CLI pipeline
    env = dict(os.environ)
    env.pop("CONERES_TOL_OVERRIDES", None)
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        r = subprocess.run(
            [sys.executable, "-m", "coneres.cli", "scan",
             "--polygon", "0,0 3,0 0,4", "--re", "100", "103",
             "--nu", "0.05", "0.35", "--jobs", "1", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    names = ("resonances.csv", "plot_data.csv", "report.json",
             "fit_summary.txt")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    report = json.loads((outs[0] / "report.json").read_text())
    audit = report["audit"]
    audits_ok = audits_ok and (audit["total_winding"]
                               == audit["resonance_count"])

    ok = audits_ok and cauchy_rel < 1e-9 and identical
    acceptance_log(
        "9", "audits_and_determinism", ok,
        f"winding audits conserved: {audits_ok}; derivative vs Cauchy integral "
        f"max rel {cauchy_rel:.2e} on 100 strip points (allow 1e-9); CLI rerun "
        f"byte-identical: {identical}")
    assert audits_ok
    assert cauchy_rel < 1e-9
    assert identical
