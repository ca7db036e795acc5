import math
import warnings

import numpy as np
import pytest

from coneres import (CostBudgetExceeded, InsufficientData, QuadraticPhase,
                     StatPhaseProblem, nonstationary_decay, order_check,
                     quadratic_expansion, quadratic_expansion_terms,
                     quadrature_oracle, radial_cutoff)
from coneres.statphase import _bump_profile, _compose_rotation, _panel_nodes


def problem_1d(h, coeffs=(1.0, 0.0, 1.0, 0.0, 1.0), w=1.0, q=2.0):
    return StatPhaseProblem(QuadraticPhase.from_array([[q]]), coeffs,
                            w=w, h=h)


def problem_2d(h, w=1.0):
    q = QuadraticPhase.from_array([[2.0, 0.6], [0.6, 2.0]])
    coeffs = ((1.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 1.0))
    return StatPhaseProblem(q, coeffs, w=w, h=h)


# ---------------------------------------------------------------------------
# quadratic form plumbing


def test_quadratic_phase_validation():
    with pytest.raises(ValueError):
        QuadraticPhase.from_array([[1.0, 0.5], [0.3, 1.0]])   # not symmetric
    with pytest.raises(ValueError):
        QuadraticPhase.from_array([[1.0, 1.0], [1.0, 1.0]])   # degenerate
    with pytest.raises(ValueError):
        QuadraticPhase(((1.0, 2.0),))                          # not square
    # off by 4e-6, within a relative 1e-5: inverse, eigvalsh and the
    # oracle's eigh would each read a different form
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticPhase.from_array([[2.0, 0.6], [0.600004, 2.0]])
    for a in ([[2.0, 0.6], [0.6, 2.0]], [[1.0, 0.8], [0.8, -1.5]],
              [[3e8, -1e8], [-1e8, 2e8]], [[3e-6, 1e-6], [1e-6, -2e-6]],
              [[0.5]]):
        assert QuadraticPhase.from_array(a).array.tolist() == a


def test_quadratic_phase_properties():
    q = QuadraticPhase.from_array([[1.0, 0.0], [0.0, -1.0]])
    assert q.signature == 0
    assert q.abs_det == pytest.approx(1.0)
    assert q.n == 2
    scalar = QuadraticPhase.from_array(3.0)
    assert scalar.n == 1
    assert scalar.signature == 1
    assert scalar.norm == pytest.approx(3.0)


def test_problem_validation():
    q = QuadraticPhase.from_array([[1.0]])
    with pytest.raises(ValueError):
        StatPhaseProblem(q, (1.0,), w=0.0)
    with pytest.raises(ValueError):
        StatPhaseProblem(q, (1.0,), h=-0.1)
    with pytest.raises(ValueError):
        # 2-d coefficient array against a 1-d phase
        StatPhaseProblem(q, ((1.0, 0.0), (0.0, 1.0)))
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError) as info:
            StatPhaseProblem(q, (1.0,), cutoff_radius=radius)
        assert str(info.value) == "cutoff radius must be positive"


@pytest.mark.parametrize("order", [0, -1])
def test_expansion_terms_need_an_order_of_at_least_1(order):
    with pytest.raises(ValueError) as info:
        quadratic_expansion_terms(problem_1d(0.1), order)
    assert str(info.value) == "order must be at least 1"


@pytest.mark.parametrize("center, radius", [(0.4, 0.4), (0.3, 0.4)])
def test_nonstationary_decay_needs_a_support_off_zero(center, radius):
    with pytest.raises(ValueError) as info:
        nonstationary_decay((0.01, 0.005), center=center, radius=radius)
    assert str(info.value) == "support must stay away from the stationary point"


def test_radial_cutoff_shape():
    x = np.linspace(-4.0, 4.0, 401)
    chi = radial_cutoff(x, 3.0)
    assert np.all(chi[np.abs(x) <= 1.5] == 1.0)
    assert np.all(chi[np.abs(x) >= 3.0] == 0.0)
    inside = chi[(np.abs(x) > 1.5) & (np.abs(x) < 3.0)]
    assert np.all((0.0 <= inside) & (inside <= 1.0))


def _two_exponential_bump(u):
    """The cutoff profile as g / (f + g), f = exp(-1/u), g = exp(-1/(1-u))."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        g = np.where(u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    return g / (f + g)


def test_bump_profile_is_the_two_exponential_glue():
    u = np.linspace(-0.5, 1.5, 200_001)
    u = np.concatenate([u, [5e-324, 1e-300, np.nextafter(1.0, 0.0)]])
    r = np.linspace(0.0, 4.5, 4_001)
    t = np.linspace(0.0, 40.0, r.size)
    x = r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no RuntimeWarning may escape
        b = _bump_profile(u)
        chi = radial_cutoff(x, 3.0)
    assert np.max(np.abs(b - _two_exponential_bump(u))) <= 4.5e-16
    assert np.all(b[u <= 0.0] == 1.0) and np.all(b[u >= 1.0] == 0.0)
    assert np.all(chi[r <= 1.5] == 1.0) and np.all(chi[r >= 3.0] == 0.0)
    annulus = chi[(r > 1.5) & (r < 3.0)]
    assert np.all((0.0 <= annulus) & (annulus <= 1.0))


# ---------------------------------------------------------------------------
# the expansion: exact identities


def test_worked_example_first_correction():
    # Q = identity, a = x^2, w = 1: the k=0 term dies at the origin and the
    # k=1 term is exactly i*h*prefactor
    p = StatPhaseProblem(QuadraticPhase.from_array([[1.0]]),
                         (0.0, 0.0, 1.0), w=1.0, h=0.05)
    terms = quadratic_expansion_terms(p, 6)
    pref = math.sqrt(2 * math.pi * p.h) * np.exp(1j * math.pi / 4)
    assert terms[0] == 0.0
    assert terms[1] / (1j * p.h * pref) == pytest.approx(1.0, abs=1e-12)
    # the transport operator annihilates x^2 after one application
    assert np.all(terms[2:] == 0.0)
    ora = quadrature_oracle(p)
    assert abs(ora - terms.sum()) / abs(ora) < 2e-2


def test_leading_term_is_gaussian_prefactor():
    p = problem_1d(0.02, coeffs=(1.0,), q=2.0)
    t0 = quadratic_expansion_terms(p, 1)[0]
    want = math.sqrt(2 * math.pi * p.h / 2.0) * np.exp(1j * math.pi / 4)
    assert t0 == pytest.approx(want, rel=1e-14)


def test_frequency_homogeneity():
    # each term scales as w^{-n/2 - k}
    for make, n in ((problem_1d, 1), (problem_2d, 2)):
        t1 = quadratic_expansion_terms(make(0.05, w=1.0), 4)
        t2 = quadratic_expansion_terms(make(0.05, w=2.0), 4)
        for k in range(4):
            expect = t1[k] * 2.0 ** -(n / 2.0 + k)
            assert t2[k] == pytest.approx(expect, rel=1e-13)


def test_sign_flip_conjugates():
    p_plus = problem_1d(0.04)
    p_minus = problem_1d(0.04, q=-2.0)
    a = quadratic_expansion(p_plus, 3)
    b = quadratic_expansion(p_minus, 3)
    assert b == pytest.approx(a.conjugate(), rel=1e-14)


# ---------------------------------------------------------------------------
# oracle vs expansion


def test_expansion_matches_oracle_seeded():
    rng = np.random.default_rng(42)
    for _ in range(10):
        qv = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        coeffs = tuple(rng.uniform(-1, 1, size=5))
        p = StatPhaseProblem(QuadraticPhase.from_array([[qv]]), coeffs,
                             w=1.0, h=0.03)
        ora = quadrature_oracle(p)
        app = quadratic_expansion(p, 3)
        assert abs(ora - app) <= 1e-3 * abs(ora)


def _tensor_grid_oracle(p, amplitude=None):
    """The 2-d oracle summed on the grid of the original coordinates."""
    R = p.cutoff_radius
    freq = abs(p.w) / p.h * p.quadratic.norm * R
    nodes, weights = _panel_nodes(-R, R, min(2 * math.pi / freq, R / 8.0), 12)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    qa = p.quadratic.array
    quad_form = qa[0, 0] * X * X + 2.0 * qa[0, 1] * X * Y + qa[1, 1] * Y * Y
    if amplitude is None:
        amp = np.polynomial.polynomial.polyval2d(X, Y, p.amplitude_array)
    else:
        amp = amplitude(pts)
    vals = (amp * radial_cutoff(pts, R)
            * np.exp(0.5j * p.w / p.h * quad_form))
    return complex(np.sum(vals * weights[:, None] * weights[None, :]))


def _indefinite_problem(h):
    coeffs = np.zeros((4, 3))
    coeffs[0, 0], coeffs[1, 1], coeffs[3, 0], coeffs[0, 2] = 1.0, 0.7, -0.4, 0.5
    return StatPhaseProblem(QuadraticPhase.from_array([[1.0, 0.8], [0.8, -1.5]]),
                            coeffs.tolist(), w=1.3, h=h)


def _bump_amplitude(x):
    return np.exp(-np.sum((x - (0.3, -0.2)) ** 2, axis=-1)) * (1.0 + x[..., 0])


@pytest.mark.parametrize("make, amplitude", [
    (problem_2d, None),
    (_indefinite_problem, None),
    (_indefinite_problem, _bump_amplitude),
])
def test_eigen_coordinate_oracle_matches_tensor_grid(make, amplitude):
    p = make(0.2)
    want = _tensor_grid_oracle(p, amplitude)
    got = quadrature_oracle(p, amplitude=amplitude)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_rotated_amplitude_coefficients():
    rng = np.random.default_rng(11)
    c = rng.uniform(-1.0, 1.0, size=(4, 3))
    _, eig_rot = np.linalg.eigh([[1.0, 0.8], [0.8, -1.5]])
    reflection = np.array([[0.6, 0.8], [0.8, -0.6]])
    for rot in (eig_rot, reflection):
        c_rot = _compose_rotation(c, rot)
        u = rng.uniform(-3.0, 3.0, size=(2, 50))
        x = rot @ u
        want = np.polynomial.polynomial.polyval2d(x[0], x[1], c)
        got = np.polynomial.polynomial.polyval2d(u[0], u[1], c_rot)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_expansion_matches_oracle_2d():
    p = problem_2d(0.05)
    ora = quadrature_oracle(p)
    app = quadratic_expansion(p, 3)
    assert abs(ora - app) <= 5e-3 * abs(ora)


def test_oracle_guards():
    with pytest.raises(InsufficientData):
        quadrature_oracle(problem_1d(5e-5))
    with pytest.raises(CostBudgetExceeded):
        quadrature_oracle(problem_2d(2e-4))
    q3 = QuadraticPhase.from_array(np.eye(3))
    p3 = StatPhaseProblem(q3, np.zeros((1, 1, 1)), h=0.05)
    with pytest.raises(ValueError):
        quadrature_oracle(p3)


# ---------------------------------------------------------------------------
# empirical orders


def test_order_check_1d_first_order():
    rep = order_check(problem_1d, 1, (0.1, 0.075, 0.056, 0.042, 0.032))
    assert rep.slope_expected == pytest.approx(1.5)
    assert rep.passed(), rep.to_text()


def test_order_check_1d_second_order():
    rep = order_check(problem_1d, 2, (0.14, 0.105, 0.079, 0.059, 0.044))
    assert rep.slope_expected == pytest.approx(2.5)
    assert rep.passed(), rep.to_text()


def test_order_check_2d_first_order():
    rep = order_check(problem_2d, 1, (0.2, 0.15, 0.112, 0.084, 0.063))
    assert rep.slope_expected == pytest.approx(2.0)
    assert rep.passed(), rep.to_text()


def test_order_check_needs_data():
    with pytest.raises(InsufficientData):
        order_check(problem_1d, 1, (0.1,))


def test_nonstationary_integral_decays_fast():
    # amplitude supported away from the critical point: superpolynomial
    slope = nonstationary_decay((0.012, 0.008, 0.005, 0.003, 0.002))
    assert slope > 3.0
