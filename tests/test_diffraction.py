import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from coneres import (DiffractionEvaluator, GeometricRaySingularity,
                     diffraction_coefficient, diffraction_series_oracle,
                     is_geometric)

FOUR_PI = 4 * math.pi

# pairing with terms*(1-radius) >> 1 so the Abel tail is actually summed
ORACLE_TERMS = 1_000_000
ORACLE_RADIUS = 1.0 - 3.0e-5


def D(angle, dtheta):
    return diffraction_coefficient(DiffractionEvaluator(angle), dtheta)


# ---------------------------------------------------------------------------
# frozen closed-form values


def test_backscatter_value_4pi():
    # (i/(2A))(cot(-pi/4) - cot(pi/4)) = -i/(4 pi)
    v = D(FOUR_PI, 0.0)
    assert v.real == 0.0
    assert v.imag == pytest.approx(-0.0795774715459477, abs=1e-15)
    assert v == pytest.approx(-1j / FOUR_PI, abs=1e-15)


def test_corner_turn_value_4pi():
    # half-way around the link: (i/A) tan(pi*beta/2)
    v = D(FOUR_PI, 2 * math.pi)
    assert v == pytest.approx(1j / FOUR_PI, abs=1e-15)


def test_backscatter_value_3pi():
    a = 3 * math.pi
    beta = 2.0 / 3.0
    expected = (1j / (2 * a)) * (-2.0 / math.tan(beta * math.pi / 2))
    assert D(a, 0.0) == pytest.approx(expected, abs=1e-15)
    assert expected.imag < 0


def test_plane_point_vanishes_exactly():
    ev = DiffractionEvaluator(2 * math.pi)
    for dt in (0.3, 1.1, 2.0, -0.7):
        assert diffraction_coefficient(ev, dt) == 0j


# ---------------------------------------------------------------------------
# symmetries


def test_evenness_is_exact():
    ev = DiffractionEvaluator(FOUR_PI)
    rng = random.Random(11)
    for _ in range(50):
        dt = rng.uniform(0.2, 2 * math.pi - 0.2)
        assert diffraction_coefficient(ev, dt) == diffraction_coefficient(ev, -dt)


def test_periodicity():
    ev = DiffractionEvaluator(FOUR_PI)
    for dt in (0.4, 1.7, 2.9):
        a = diffraction_coefficient(ev, dt)
        b = diffraction_coefficient(ev, dt + FOUR_PI)
        assert b == pytest.approx(a, abs=1e-12)


@given(st.floats(2.5, 20.0), st.floats(-30.0, 30.0))
@settings(max_examples=80, deadline=None)
def test_symmetry_properties(angle, dtheta):
    ev = DiffractionEvaluator(angle)
    assume(not is_geometric(ev, dtheta, guard=1e-3))
    v = diffraction_coefficient(ev, dtheta)
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    assert diffraction_coefficient(ev, -dtheta) == v
    w = diffraction_coefficient(ev, dtheta + angle)
    assert w == pytest.approx(v, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# singular set


def test_geometric_ray_raises():
    with pytest.raises(GeometricRaySingularity):
        D(3 * math.pi, math.pi)
    with pytest.raises(GeometricRaySingularity):
        D(math.pi, 0.0)    # pi and -pi coincide mod A = pi


@pytest.mark.parametrize("angle, dtheta, message", [
    (math.inf, 1.0, "cone angle must be finite"),   # was a geometric ray
    (math.nan, 1.0, "cone angle must be finite"),
    (0.0, 1.0, "cone angle must be finite"),
    (FOUR_PI, math.nan, "dtheta must be finite"),   # was nan + nan i
    (FOUR_PI, -math.inf, "dtheta must be finite"),
])
def test_non_finite_input_raises_value_error(angle, dtheta, message):
    with pytest.raises(ValueError, match=message):
        D(angle, dtheta)


def test_is_geometric_guard_boundary():
    ev = DiffractionEvaluator(3 * math.pi)
    assert is_geometric(ev, math.pi + 1e-12)
    assert not is_geometric(ev, math.pi + 1e-3)
    assert is_geometric(ev, -math.pi)
    assert not is_geometric(ev, 0.0)


def test_near_singular_values_blow_up():
    ev = DiffractionEvaluator(3 * math.pi)
    close = abs(diffraction_coefficient(ev, math.pi + 1e-6))
    far = abs(diffraction_coefficient(ev, math.pi + 1e-2))
    assert close > 1e3 * far


# ---------------------------------------------------------------------------
# mode-sum oracle


def test_series_matches_closed_form():
    rng = random.Random(4)
    for angle in (3 * math.pi, FOUR_PI, 5.0):
        ev = DiffractionEvaluator(angle)
        for _ in range(20):
            dt = rng.uniform(0.0, angle)
            if is_geometric(ev, dt, guard=0.3):
                continue
            exact = diffraction_coefficient(ev, dt)
            series = diffraction_series_oracle(ev, dt, ORACLE_TERMS, ORACLE_RADIUS)
            assert abs(series - exact) <= 1e-4 * max(1.0, abs(exact))


def test_series_vanishes_at_plane_angle():
    ev = DiffractionEvaluator(2 * math.pi)
    for dt in (0.5, 1.3, 2.4):
        assert abs(diffraction_series_oracle(ev, dt, ORACLE_TERMS,
                                             ORACLE_RADIUS)) < 1e-3


def test_series_truncation_needs_room():
    # with terms*(1-radius) ~ 1 the discarded tail still carries weight
    # e^{-1}; agreement with the closed form is then poor.  This pins the
    # pairing sensitivity down so the convergent choice above stays honest.
    ev = DiffractionEvaluator(FOUR_PI)
    dt = 1.0
    exact = diffraction_coefficient(ev, dt)
    tight = diffraction_series_oracle(ev, dt, 100_000, 1.0 - 1e-5)
    assert abs(tight - exact) > 0.05 * abs(exact)


def test_series_input_validation():
    ev = DiffractionEvaluator(FOUR_PI)
    with pytest.raises(ValueError):
        diffraction_series_oracle(ev, 0.1, -1, 0.5)
    with pytest.raises(ValueError):
        diffraction_series_oracle(ev, 0.1, 100, 1.0)
