import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from coneres import (ConePoint, ConeSurfaceSpec, GeodesicEdge, PolygonError,
                     SurfaceValidationError, build_polygon_double,
                     build_two_cone_surface, length_scales, link_distance,
                     load_surface, serialize_surface, validate_hypotheses,
                     validate_spec, with_overrides)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# link distance


@given(st.floats(-50, 50), st.floats(0.1, 40))
def test_link_distance_range(delta, a):
    d = link_distance(delta, a)
    assert 0.0 <= d <= a / 2 + 1e-12


@given(st.floats(-50, 50), st.floats(0.1, 40))
def test_link_distance_symmetry(delta, a):
    assert link_distance(delta, a) == pytest.approx(
        link_distance(-delta, a), abs=1e-9)


def test_link_distance_values():
    assert link_distance(0.0, TWO_PI) == 0.0
    assert link_distance(math.pi, TWO_PI) == pytest.approx(math.pi)
    assert link_distance(1.5 * TWO_PI, TWO_PI) == pytest.approx(math.pi)
    assert link_distance(-0.3, TWO_PI) == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# canonical builders


def test_two_cone_structure(two_cone):
    assert [f.name for f in dataclasses.fields(two_cone)] == ["cone_points",
                                                              "edges"]
    assert len(two_cone.cone_points) == 2
    assert len(two_cone.edges) == 2
    for p in two_cone.cone_points:
        assert p.cone_angle == pytest.approx(4 * math.pi)
    f = two_cone.edge("f")
    fbar = two_cone.edge("fbar")
    assert f.length == pytest.approx(math.pi)
    assert f.reversal == "fbar" and fbar.reversal == "f"
    assert f.from_point == fbar.to_point
    validate_spec(two_cone)


def test_two_cone_custom_parameters():
    s = build_two_cone_surface(cone_angle=3 * math.pi, length=2.5)
    assert s.cone_points[0].cone_angle == pytest.approx(3 * math.pi)
    assert s.edges[0].length == 2.5
    validate_spec(s)


def test_triangle_345_structure(triangle_345):
    assert len(triangle_345.cone_points) == 3
    assert len(triangle_345.edges) == 6
    lengths = sorted(e.length for e in triangle_345.edges)
    assert lengths == pytest.approx([3, 3, 4, 4, 5, 5])
    # doubling: cone angle 2*(2*pi - interior), interiors sum to pi
    interiors = [2 * math.pi - p.cone_angle / 2 for p in triangle_345.cone_points]
    assert sum(interiors) == pytest.approx(math.pi)
    # right angle at the origin vertex
    assert max(interiors) == pytest.approx(math.pi / 2)
    validate_spec(triangle_345)


def test_unit_square_double():
    sq = build_polygon_double([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(sq.cone_points) == 4
    assert len(sq.edges) == 8
    for p in sq.cone_points:
        assert p.cone_angle == pytest.approx(3 * math.pi)
    assert all(e.length == pytest.approx(1.0) for e in sq.edges)


def test_polygon_edge_angles(triangle_345):
    # each directed side leaves at half the cone angle and arrives at zero;
    # the reversed side does the opposite
    for e in triangle_345.edges:
        a = triangle_345.cone_point(e.from_point).cone_angle
        assert e.theta_from in (pytest.approx(a / 2), pytest.approx(0.0))


def test_polygon_rejects_degenerate():
    with pytest.raises(PolygonError):
        build_polygon_double([(0, 0), (1, 0)])
    with pytest.raises(PolygonError):
        build_polygon_double([(0, 0), (1, 0), (1, 0 + 1e-15)])
    with pytest.raises(PolygonError):
        build_polygon_double([(0, 0), (1, 0), (2, 0)])          # collinear
    with pytest.raises(PolygonError):
        build_polygon_double([(0, 0), (0, 4), (3, 0)])          # clockwise
    with pytest.raises(PolygonError):
        build_polygon_double([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])


@pytest.mark.parametrize("vertices, index", [
    ([(0, 0), (3, 0), (0, math.nan)], 2),
    ([(0, 0), (math.inf, 0), (0, 4)], 1),
    ([(-math.inf, 0), (3, 0), (0, math.inf)], 0),
])
def test_polygon_rejects_non_finite_vertex(vertices, index):
    # nan used to give 19 angle and theta problems, inf a repeated vertex
    with pytest.raises(PolygonError, match=f"^vertex {index} is not finite"):
        build_polygon_double(vertices)


@given(st.floats(2.0, 6.0), st.floats(0.5, 5.0), st.floats(-1.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_random_triangle_doubles_validate(base, height, apex_x):
    spec = build_polygon_double([(0.0, 0.0), (base, 0.0), (apex_x, height)])
    validate_spec(spec)
    interiors = [2 * math.pi - p.cone_angle / 2 for p in spec.cone_points]
    assert sum(interiors) == pytest.approx(math.pi)
    assert all(0 < g < math.pi for g in interiors)


# ---------------------------------------------------------------------------
# serialization


def test_round_trip(two_cone, triangle_345):
    for spec in (two_cone, triangle_345):
        text = serialize_surface(spec)
        back = load_surface(text)
        assert back == spec


def test_load_polygon_shorthand():
    text = "version: 1\npolygon: [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]\n"
    spec = load_surface(text)
    assert len(spec.edges) == 6
    assert max(e.length for e in spec.edges) == pytest.approx(5.0)


def test_load_rejects_bad_input():
    with pytest.raises(SurfaceValidationError):
        load_surface("version: 99\npolygon: [[0,0],[1,0],[0,1]]\n")
    with pytest.raises(SurfaceValidationError):
        load_surface("version: 1\n")
    with pytest.raises(SurfaceValidationError):
        load_surface("not yaml: [unclosed")
    with pytest.raises(SurfaceValidationError):
        load_surface("- a\n- b\n")


def test_validate_catches_broken_reversal(two_cone):
    bad = ConeSurfaceSpec(
        cone_points=two_cone.cone_points,
        edges=(
            two_cone.edges[0],
            GeodesicEdge(id="fbar", from_point="P2", to_point="P1",
                         length=1.0, theta_from=0.0, theta_to=0.0,
                         reversal="f"),
        ),
    )
    with pytest.raises(SurfaceValidationError, match="length"):
        validate_spec(bad)


def _edited(spec, **edge_fields):
    """spec with the given fields of its edges replaced (a keyword per edge
    id: a dict of fields)."""
    return dataclasses.replace(spec, edges=tuple(
        dataclasses.replace(e, **edge_fields.get(e.id, {})) for e in spec.edges))


@pytest.mark.parametrize("edit, message", [
    (lambda s: dataclasses.replace(s, cone_points=s.cone_points + s.cone_points[:1]),
     "duplicate cone point id 'P1'"),
    (lambda s: dataclasses.replace(s, edges=s.edges + s.edges[:1]),
     "duplicate edge id 'f'"),
    # an edge to an unknown point used to end in a KeyError from cone_point
    (lambda s: _edited(s, f={"to_point": "Q"}),
     "edge 'f': unknown cone point 'Q'; "
     "edge 'fbar': reversal does not swap endpoints"),
    (lambda s: _edited(s, f={"reversal": "g"}),
     "edge 'f': unknown reversal 'g'; edge 'fbar': reversal is not an involution"),
    (lambda s: _edited(s, fbar={"reversal": "fbar"}),
     "edge 'f': reversal is not an involution; "
     "edge 'fbar': reversal does not swap endpoints"),
    (lambda s: _edited(s, fbar={"from_point": "P1", "to_point": "P2"}),
     "edge 'f': reversal does not swap endpoints; "
     "edge 'fbar': reversal does not swap endpoints"),
    (lambda s: _edited(s, f={"theta_to": 1.0}),
     "edge 'f': arrival direction differs from the departure direction of "
     "its reversal at 'P2'"),
], ids=["duplicate-point", "duplicate-edge", "unknown-point", "unknown-reversal",
        "not-an-involution", "endpoints-not-swapped", "direction-mismatch"])
def test_validate_names_each_structural_defect(two_cone, edit, message):
    with pytest.raises(SurfaceValidationError) as info:
        validate_spec(edit(two_cone))
    assert str(info.value) == message


def test_validate_catches_bad_angles():
    with pytest.raises(SurfaceValidationError):
        validate_spec(ConeSurfaceSpec(
            cone_points=(ConePoint(id="P", cone_angle=-1.0),),
            edges=(),
        ))


@pytest.mark.parametrize("field, values, problem", [
    ("cone_angle", (math.inf, math.inf), "angle must be finite"),
    ("cone_angle", (math.nan, 4 * math.pi), "angle must be finite"),
    ("length", (math.inf, math.inf), "length must be finite"),
    ("length", (math.inf, math.pi), "length must be finite"),
])
def test_validate_requires_finite_numbers(two_cone, field, values, problem):
    # both lengths inf used to pass (L0 = inf, Lambda = 0), one gave only
    # "reversal length mismatch"; an inf angle passed too
    parts = two_cone.cone_points if field == "cone_angle" else two_cone.edges
    changed = tuple(dataclasses.replace(p, **{field: v})
                    for p, v in zip(parts, values))
    key = "cone_points" if field == "cone_angle" else "edges"
    with pytest.raises(SurfaceValidationError, match=problem):
        validate_spec(dataclasses.replace(two_cone, **{key: changed}))


def test_rejects_higher_dimension(two_cone):
    # a spec cannot hold a dimension; a document naming one must say 2
    with pytest.raises(TypeError):
        ConeSurfaceSpec(dimension=3, cone_points=two_cone.cone_points,
                        edges=two_cone.edges)
    assert "dimension: 2" in serialize_surface(two_cone)
    text = serialize_surface(two_cone).replace("dimension: 2", "dimension: 3")
    with pytest.raises(SurfaceValidationError, match="two-dimensional"):
        load_surface(text)
    with pytest.raises(SurfaceValidationError, match="two-dimensional"):
        load_surface("version: 1\ndimension: 3\npolygon: [[0,0],[3,0],[0,4]]\n")


@pytest.mark.parametrize("polygon", ["5", "", "[[0,0], 1, [0,4]]",
                                     "[[0,0], [3,0,1], [0,4]]", "abc"])
def test_load_rejects_malformed_polygon(polygon):
    with pytest.raises(SurfaceValidationError,
                       match="^malformed surface document: "):
        load_surface(f"version: 1\npolygon: {polygon}\n")


def test_load_keeps_polygon_error_messages():
    # well-formed vertex lists still fail on the polygon itself
    with pytest.raises(PolygonError, match="^need at least 3 vertices$"):
        load_surface("version: 1\npolygon: [[0,0],[1,0]]\n")
    with pytest.raises(PolygonError, match="strictly convex"):
        load_surface("version: 1\npolygon: [[0,0],[0,4],[3,0]]\n")


# ---------------------------------------------------------------------------
# length scales


def test_length_scales_two_cone(two_cone):
    sc = length_scales(two_cone)
    assert sc.L0 == pytest.approx(math.pi)
    # only two-step paths double the maximal edge, so L' is undefined
    assert sc.Lprime is None
    assert sc.Lambda == pytest.approx(1 / math.pi)
    assert set(sc.maximal_edges) == {"f", "fbar"}


def test_length_scales_345(triangle_345):
    sc = length_scales(triangle_345)
    assert sc.L0 == 5.0
    assert sc.Lprime == pytest.approx(4.5)      # (4 + 5) / 2
    assert sc.Lambda == pytest.approx(1 / 9)
    assert set(sc.maximal_edges) == {"s1", "s1r"}


def test_length_scales_equilateral():
    h = math.sqrt(3) / 2
    eq = build_polygon_double([(0, 0), (1, 0), (0.5, h)])
    sc = length_scales(eq)
    assert len(sc.maximal_edges) == 6
    assert sc.Lprime is None
    assert sc.Lambda == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# hypothesis checks


def test_hypotheses_pass(two_cone, triangle_345):
    for spec in (two_cone, triangle_345):
        rep = validate_hypotheses(spec)
        assert rep.passed, rep.to_text()


def test_hypotheses_fail_on_square():
    sq = build_polygon_double([(0, 0), (1, 0), (1, 1), (0, 1)])
    rep = validate_hypotheses(sq)
    assert not rep.passed
    names = {c.name for c in rep.failures()}
    assert "unique_maximal_geodesic" in names
    failing = next(c for c in rep.failures()
                   if c.name == "unique_maximal_geodesic")
    assert failing.witnesses


def test_hypotheses_text_output(two_cone):
    text = validate_hypotheses(two_cone).to_text()
    assert "[pass]" in text
    assert "unique_maximal_geodesic" in text


def test_length_scales_reads_tie_from_tol(triangle_345):
    # a loose tie makes the 4-side count as maximal next to the 5-side
    sc = length_scales(triangle_345, with_overrides({"length_tie_rel": 0.25}))
    assert set(sc.maximal_edges) == {"s1", "s1r", "s2", "s2r"}
    rep = validate_hypotheses(triangle_345,
                              with_overrides({"length_tie_rel": 0.25}))
    assert {c.name for c in rep.failures()} == {"unique_maximal_geodesic"}


def test_hypotheses_read_pi_tolerance_from_tol(triangle_345):
    # a tolerance wider than half of every link circle relates every pair
    rep = validate_hypotheses(triangle_345,
                              with_overrides({"pi_relation_tol": 7.0}))
    assert {c.name for c in rep.failures()} == {"no_pi_related_directions"}
