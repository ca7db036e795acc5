import cmath
import math
import random

import numpy as np
import pytest

from coneres import (CharFunction, ConePoint, ConeSurfaceSpec, GeodesicEdge,
                     GeometricRaySingularity, NoConvergence, NotAdjacent,
                     SearchRegion, build_polygon_double, char_function,
                     coupling_coefficient, ladder_model_from_spec, null_vector,
                     predicted_ladder, scan_strip, transfer_entry)
from coneres.monodromy import MAX_SUM_EDGES, null_vectors

FOUR_PI = 4 * math.pi
C_PROD_TWO_CONE = -1.0 / (16 * math.pi ** 2)


# ---------------------------------------------------------------------------
# single entries


def test_coupling_two_cone(two_cone):
    c = coupling_coefficient(two_cone, "fbar", "f")
    assert c == pytest.approx(-1j / FOUR_PI, abs=1e-15)
    assert coupling_coefficient(two_cone, "f", "fbar") == pytest.approx(c)


def test_coupling_rejects_non_adjacent(two_cone):
    with pytest.raises(NotAdjacent):
        coupling_coefficient(two_cone, "f", "f")    # f does not feed itself


def test_transfer_entry_two_cone(two_cone):
    lam = 10.0
    got = transfer_entry(two_cone, "fbar", "f", lam)
    expected = (-1j / FOUR_PI) * lam ** -0.5 * cmath.exp(1j * lam * math.pi)
    assert got == pytest.approx(expected, rel=1e-12)


def test_assemble_matches_entries(triangle_345):
    lam = 35.0 - 0.2j
    cf = CharFunction(triangle_345)
    entries = cf.matrices(np.asarray([lam]))[0]
    pos = {eid: i for i, eid in enumerate(cf.edge_index)}
    for f, e in triangle_345.adjacent_pairs():
        want = transfer_entry(triangle_345, e.id, f.id, lam)
        assert entries[pos[e.id], pos[f.id]] == pytest.approx(want, rel=1e-12)
    # non-adjacent entries are exactly zero
    nz = np.count_nonzero(entries)
    assert nz == sum(1 for _ in triangle_345.adjacent_pairs())


# ---------------------------------------------------------------------------
# determinant


def test_two_cone_scalar_reduction(two_cone):
    # with one 2-cycle the determinant collapses to
    #   1 - c_prod * lam^{-1} * e^{2 i lam pi}
    cf = CharFunction(two_cone)
    rng = random.Random(3)
    lams = np.array([complex(rng.uniform(5, 300), rng.uniform(-1.5, 0.5))
                     for _ in range(100)])
    got = cf.values(lams)
    want = 1.0 - C_PROD_TWO_CONE * lams ** -1.0 * np.exp(2j * lams * math.pi)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_char_values_match_dense_determinant(triangle_345):
    cf = CharFunction(triangle_345)
    for lam in (60.0, 80.0 - 0.11j, 123.4 - 0.4j):
        m = np.zeros((6, 6), dtype=complex)
        pos = {eid: i for i, eid in enumerate(cf.edge_index)}
        for f, e in triangle_345.adjacent_pairs():
            m[pos[e.id], pos[f.id]] = transfer_entry(triangle_345, e.id,
                                                     f.id, lam)
        want = np.linalg.det(np.eye(6) - m)
        got = cf.values(np.asarray([lam]))[0]
        assert got == pytest.approx(want, rel=1e-12)


# irregular convex polygons: no side ties, no turning angle on a geometric ray
QUADRILATERAL = [(0, 0), (4, 0.3), (4.6, 3.1), (0.7, 3.9)]
PENTAGON = [(0, 0), (4, -0.5), (5.5, 2.7), (2.6, 5.0), (-0.8, 3.1)]
HEXAGON = [(0, 0), (3.7, -0.6), (6.1, 1.4), (6.4, 4.3), (3.0, 6.0), (-0.7, 3.4)]
HEPTAGON = [(0, 0), (3.1, -0.9), (5.8, 0.4), (7.0, 3.2), (5.3, 6.1),
            (1.9, 6.6), (-0.9, 3.5)]


def _strip_points(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(5, 2200, n) + 1j * rng.uniform(-1.5, 0.5, n)


# steps: complex multiplies a point costs in values beyond its terms' sum,
# one per distinct length's lam^{-1/2} scaling and one per plan step
SURFACES = pytest.mark.parametrize("vertices, edges, terms, steps", [
    (None, 2, 2, 2), ([(0, 0), (3, 0), (0, 4)], 6, 9, 12),
    (QUADRILATERAL, 8, 17, 22), (PENTAGON, 10, 33, 40), (HEXAGON, 12, 65, 74),
], ids=["two-cone", "3-4-5", "quadrilateral", "pentagon", "hexagon"])


@SURFACES
def test_exponential_sum_matches_lu(two_cone, vertices, edges, terms, steps):
    spec = two_cone if vertices is None else build_polygon_double(vertices)
    cf = CharFunction(spec)
    assert cf.size == edges <= MAX_SUM_EDGES
    # nonzero length-multiset groups, each a term
    # c_S prod_l (lam^{-1/2} e^{i lam u_l})^{m_{S,l}}
    assert len(cf.terms.coeff) == terms
    lam = _strip_points(200, seed=edges)
    want = np.linalg.det(np.eye(edges) - cf.matrices(lam))
    got = cf.values(lam)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


@SURFACES
def test_exponential_sum_record(two_cone, vertices, edges, terms, steps):
    spec = two_cone if vertices is None else build_polygon_double(vertices)
    cf = CharFunction(spec)
    t = cf.terms
    assert np.array_equal(t.lengths, np.unique(cf.ell))
    assert t.size.shape == t.ell.shape == t.coeff.shape == (terms,)
    assert t.mult.shape == (terms, t.lengths.size)
    # one group per length multiset; the empty set's term is exactly 1
    assert len({tuple(m) for m in t.mult.tolist()}) == terms
    assert (t.size[0], t.ell[0], t.coeff[0]) == (0, 0.0, 1.0)
    assert np.all(t.coeff != 0)
    assert np.array_equal(t.mult.sum(axis=1), t.size)
    for ell, m in zip(t.ell, t.mult):
        assert math.fsum(m * t.lengths) == pytest.approx(ell, rel=1e-14, abs=0.0)
    assert len(cf._steps) + t.lengths.size == steps


def test_hexagon_values_match_lu_deep_in_the_strip():
    # at Im lam in [-1.5, -1.3] the largest term is 3-14 times |det|, so a
    # term's rounding, say in its phase, shows that much larger in the sum
    cf = CharFunction(build_polygon_double(HEXAGON))
    rng = np.random.default_rng(12)
    lam = rng.uniform(1200, 2200, 20_000) + 1j * rng.uniform(-1.5, -1.3, 20_000)
    want = np.linalg.det(np.eye(12) - cf.matrices(lam))
    assert np.max(np.abs(cf.values(lam) - want) / np.abs(want)) <= 1e-12


TRI345_STRINGS = ((0.1, -0.525), (0.125, -0.668), (1 / 6, -0.444))   # nu, Im offset


def _mp_determinant(cf, lam, mpmath):
    """det(I - M(lam)) in 40 digits, from the float couplings, lengths and lam."""
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam.real, lam.imag)
        root = mpmath.sqrt(lam)
        m = mpmath.matrix(cf.size, cf.size)
        for (e, f), a in np.ndenumerate(cf.A):
            m[e, f] = int(e == f) - (mpmath.mpc(a.real, a.imag) / root
                                     * mpmath.exp(1j * lam * mpmath.mpf(cf.ell[f])))
        return complex(mpmath.det(m))


@pytest.mark.parametrize("re, bound", [(1e4, 1e-10), (1e6, 2e-8)])
def test_values_at_large_re_against_mpmath(triangle_345, re, bound):
    # 40 seeded points within 0.05 of the three strings of the 3-4-5
    # double; the float phase lam * u_l carries an error of about
    # 1e-16 * |lam| u_l, which sets the precision at large Re
    mpmath = pytest.importorskip("mpmath")
    cf = CharFunction(triangle_345)
    rng = np.random.default_rng(int(re))
    nu, off = np.array([TRI345_STRINGS[i % 3] for i in range(40)]).T
    x = re + rng.uniform(0.0, 100.0, 40)
    lam = x + 1j * (off - nu * np.log(x) + rng.uniform(-0.05, 0.05, 40))
    want = np.array([_mp_determinant(cf, z, mpmath) for z in lam])
    err = np.max(np.abs(cf.values(lam) - want) / np.abs(want))
    print(f"Re {re:.0e}: max relative error {err:.2e} (bound {bound:.0e})")
    assert err <= bound


def test_values_take_lu_above_edge_cap():
    cf = CharFunction(build_polygon_double(HEPTAGON))
    assert cf.size == 14 > MAX_SUM_EDGES
    lam = _strip_points(100, seed=14)
    assert np.array_equal(cf.values(lam), cf.values_and_derivs(lam)[0])


@pytest.mark.parametrize("vertices", [None, [(0, 0), (3, 0), (0, 4)], HEXAGON],
                         ids=["two-cone", "3-4-5", "hexagon"])
def test_values_do_not_depend_on_the_batch(two_cone, vertices):
    # each point's value, bit for bit: alone, in batches of 2, 7 and 33,
    # and all at once
    cf = CharFunction(two_cone if vertices is None else build_polygon_double(vertices))
    lam = _strip_points(462, seed=3)
    whole = cf.values(lam)
    for b in (1, 2, 7, 33):
        parts = np.concatenate([cf.values(lam[i:i + b])
                                for i in range(0, lam.size, b)])
        assert parts.tobytes() == whole.tobytes()


def test_derivative_against_cauchy_integral(triangle_345):
    # the LU derivative against f'(lam) = mean_k f(lam + r e^{it_k}) e^{-it_k} / r,
    # the trapezoid rule on a circle of radius r; where |f'| is small
    # (2e-4 at 20 + 0.1j) a difference quotient of step 1e-6 reads its
    # own rounding, while this one reads f at distance r
    cf = CharFunction(triangle_345)
    r, t = 0.02, 2 * math.pi * np.arange(32) / 32
    for lam in (20.0 + 0.1j, 57.0 - 0.3j, 140.0 - 0.05j):
        _, dv = cf.values_and_derivs(np.asarray([lam]))
        cauchy = np.mean(cf.values(lam + r * np.exp(1j * t)) * np.exp(-1j * t)) / r
        assert dv[0] == pytest.approx(cauchy, rel=1e-9)


def test_char_function_cached(two_cone):
    assert char_function(two_cone) is char_function(two_cone)


def test_eval_counter(two_cone):
    cf = CharFunction(two_cone)
    cf.values(np.linspace(10, 11, 7).astype(complex))
    cf.values_and_derivs(np.asarray([12.0 + 0j]))
    assert cf.n_evals == 8


# ---------------------------------------------------------------------------
# analyticity


def test_closed_contour_integral_vanishes(two_cone):
    # trapezoid rule around a circle; analytic integrand integrates to ~0
    cf = CharFunction(two_cone)
    center, radius, nseg = 40.25 - 0.3j, 0.45, 4000
    t = np.linspace(0.0, 2 * math.pi, nseg + 1)
    z = center + radius * np.exp(1j * t)
    vals = cf.values(z)
    integral = np.trapezoid(vals * 1j * (z - center), t)
    scale = 2 * math.pi * radius * np.max(np.abs(vals))
    assert abs(integral) < 1e-8 * scale


def test_log_derivative_winding_counts_one_zero(two_cone):
    model = ladder_model_from_spec(two_cone)
    zero = predicted_ladder(model, [100])[0]
    t = np.linspace(0.0, 2 * math.pi, 1200 + 1)
    z = zero + 0.3 * np.exp(1j * t)
    cf = char_function(two_cone)
    v, dv = cf.values_and_derivs(z)
    winding = np.trapezoid(dv / v * 1j * (z - zero), t) / (2j * math.pi)
    assert round(winding.real) == 1
    assert abs(winding - 1) < 1e-3


def test_reflection_identity_two_cone(two_cone):
    # lam -> -conj(lam) conjugates the matrix entries up to a factor -i;
    # around the even cycle the determinant obeys
    #   det(I - M)(-conj(lam)) = 2 - conj(det(I - M)(lam))
    cf = CharFunction(two_cone)
    rng = random.Random(8)
    for _ in range(25):
        lam = complex(rng.uniform(10, 200), rng.uniform(-1.0, 0.0))
        left = cf.values(np.asarray([-lam.conjugate()]))[0]
        right = 2.0 - cf.values(np.asarray([lam]))[0].conjugate()
        assert left == pytest.approx(right, rel=1e-12)


# ---------------------------------------------------------------------------
# degenerate specs (built directly; CharFunction does not re-validate)


def _isolated_edge_spec():
    p = (ConePoint("P1", FOUR_PI), ConePoint("P2", FOUR_PI))
    e = (GeodesicEdge("g", "P1", "P2", 1.0, 0.0, 0.0, "g"),)
    return ConeSurfaceSpec(p, e)


def test_no_adjacency_means_unit_determinant():
    cf = CharFunction(_isolated_edge_spec())
    v, dv = cf.values_and_derivs(np.asarray([17.0 - 0.9j, 150.0 + 0j]))
    assert np.all(v == 1.0 + 0.0j)
    assert np.all(dv == 0.0 + 0.0j)


def test_geometric_coupling_fails_at_build():
    # fbar -> f turns by exactly pi, a geometric ray of the 4*pi cone
    p = (ConePoint("P1", FOUR_PI), ConePoint("P2", FOUR_PI))
    edges = (
        GeodesicEdge("f", "P1", "P2", 1.0, math.pi, 0.0, "fbar"),
        GeodesicEdge("fbar", "P2", "P1", 1.0, 0.0, 0.0, "f"),
    )
    bad = ConeSurfaceSpec(p, edges)
    with pytest.raises(GeometricRaySingularity):
        CharFunction(bad)


# ---------------------------------------------------------------------------
# null vectors


def test_null_vector_two_cone_splits_mass_evenly(two_cone):
    model = ladder_model_from_spec(two_cone)
    lam = predicted_ladder(model, [150])[0]
    mv = null_vector(two_cone, lam)
    assert mv.residual < 1e-8
    mass = mv.null_mass()
    assert mass["f"] == pytest.approx(0.5, abs=1e-9)
    assert mass["fbar"] == pytest.approx(0.5, abs=1e-9)
    assert np.linalg.norm(mv.components) == pytest.approx(1.0)


def test_null_vector_rejects_non_resonant_point(two_cone):
    with pytest.raises(NoConvergence):
        null_vector(two_cone, 100.0 - 5.0j)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lam", [complex(math.nan, 0.0), complex(math.inf, -1.0)])
def test_null_vector_rejects_a_non_finite_value(two_cone, lam):
    # |det| is NaN there, and a NaN is never above the threshold
    with pytest.raises(NoConvergence):
        null_vector(two_cone, lam)
    model = ladder_model_from_spec(two_cone)
    good = predicted_ladder(model, [150])[0]
    out = null_vectors(two_cone, [good, lam, good])
    assert isinstance(out[1], NoConvergence)
    assert [mv.lam for mv in (out[0], out[2])] == [good, good]


def test_null_vectors_triangle(triangle_345):
    rs = scan_strip(triangle_345, SearchRegion(100.0, 102.0, 0.05, 0.35),
                    with_null_vectors=True)
    assert rs.items
    hypotenuse_weight = []
    for item in rs.items:
        assert item.null_mass is not None
        mass = dict(item.null_mass)
        assert sum(mass.values()) == pytest.approx(1.0, abs=1e-9)
        hypotenuse_weight.append(mass["s1"] + mass["s1r"])
    # at least one zero rides the longest closed geodesic
    assert max(hypotenuse_weight) > 0.1


def _short_tri345_zeros(triangle_345):
    return [r.lam for r in scan_strip(triangle_345,
                                      SearchRegion(100.0, 110.0, 0.05, 0.35)).items]


def test_batched_null_vectors_match_null_vector_bit_for_bit(triangle_345):
    lams = _short_tri345_zeros(triangle_345)
    assert len(lams) > 30
    batched = null_vectors(triangle_345, lams, residual_threshold=1e-4)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    cf = char_function(triangle_345)
    for lam, mv in zip(lams, batched):
        one = null_vector(triangle_345, lam, residual_threshold=1e-4)
        assert mv.lam == one.lam == lam
        assert np.array_equal(mv.components, one.components)
        assert mv.residual == one.residual
        # the matrix-by-matrix iteration a scan ran per zero before batching
        a = np.eye(6, dtype=complex) - cf.matrices(np.asarray([lam]))[0]
        components = v
        for _ in range(2):
            w = np.linalg.solve(a, components)
            components = w / np.linalg.norm(w)
        assert np.array_equal(mv.components, components)
        assert mv.residual == float(np.linalg.norm(a @ components))


def test_batched_null_vectors_gate_each_lambda(triangle_345):
    lams = _short_tri345_zeros(triangle_345)[:3]
    out = null_vectors(triangle_345, [lams[0], 105.0 - 5.0j, lams[2]],
                       residual_threshold=1e-4)
    assert isinstance(out[1], NoConvergence) and "exceeds" in str(out[1])
    assert [mv.lam for mv in (out[0], out[2])] == [lams[0], lams[2]]
    assert null_vectors(triangle_345, []) == []


def test_null_vectors_nudge_an_exactly_singular_member_alone(triangle_345,
                                                            monkeypatch):
    import coneres.monodromy as monodromy

    lams = _short_tri345_zeros(triangle_345)[:5]
    want = null_vectors(triangle_345, lams[:2] + lams[3:], residual_threshold=1e-4)
    cf = char_function(triangle_345)
    matrices, solve = cf.matrices, np.linalg.solve
    singular = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 0.0])

    def third_singular(lam):
        m = matrices(lam)
        m[2] = np.eye(6) - singular     # so I - M is exactly `singular`
        return m

    ndims = []

    def recorded(a, b):
        ndims.append(np.ndim(a))
        return solve(a, b)

    monkeypatch.setattr(cf, "matrices", third_singular)
    monkeypatch.setattr(monodromy.np.linalg, "solve", recorded)
    got = null_vectors(triangle_345, lams, residual_threshold=1e-4)
    # the first stacked solve raises, the nudged stack is solved again, then
    # the second step: no member is solved on its own
    assert ndims == [3, 3, 3]
    for g, w in zip(got[:2] + got[3:], want):
        assert np.array_equal(g.components, w.components)
        assert g.residual == w.residual
    # the nudged member (singular + 1e-14 I) gives the null vector e_6 of
    # `singular` at a residual of the nudge
    v = got[2].components
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.abs(v[:5]) < 1e-13) and abs(v[5]) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(singular @ v) < 1e-13
    assert 0.0 < got[2].residual < 1e-13


def test_singular_derivative_solve_is_bounded(two_cone, monkeypatch):
    import coneres.monodromy as monodromy

    def always_singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(monodromy.np.linalg, "solve", always_singular)
    with pytest.raises(NoConvergence):
        CharFunction(two_cone).values_and_derivs(np.array([100.0 - 1.0j]))


def test_singular_member_nudges_only_itself(two_cone, monkeypatch):
    # member 0 reads as exactly singular; member 1 keeps its solo values
    import coneres.monodromy as monodromy

    cf = CharFunction(two_cone)
    lams = np.array([100.0 - 1.0j, 101.3 - 0.7j])
    solo = cf.values_and_derivs(lams[1:])
    nudged = cf.values_and_derivs(lams[:1] * (1.0 + 1e-15) + 1e-300)
    singular = cf._lu(lams[:1])[1][0]
    det, solve = np.linalg.det, np.linalg.solve

    def is_singular(a):
        return np.array([np.array_equal(m, singular) for m in a])

    def fake_det(a):
        return np.where(is_singular(a), 0.0, det(a))

    def fake_solve(a, b):
        if is_singular(a).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(monodromy.np.linalg, "det", fake_det)
    monkeypatch.setattr(monodromy.np.linalg, "solve", fake_solve)
    value, deriv = cf.values_and_derivs(lams)
    assert (value[1], deriv[1]) == (solo[0][0], solo[1][0])
    assert (value[0], deriv[0]) == (nudged[0][0], nudged[1][0])
