"""Conic surface descriptions and their geodesic digraph.

A surface is a finite set of cone points together with the directed
geodesic edges that join them.  Each cone point carries its total link
angle; each directed edge carries a length and the link coordinates of
its departure and arrival directions.  Two directed edges that traverse
the same geodesic in opposite senses are marked as reversals of each
other.

Edges e, f are adjacent (written f -> e) when f terminates at the cone
point from which e emanates.  Every model matrix in this package is
indexed by directed edges and respects that adjacency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import yaml

from .errors import PolygonError, SurfaceValidationError
from . import tolerances as tol_mod

TWO_PI = 2.0 * math.pi

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ConePoint:
    id: str
    cone_angle: float


@dataclass(frozen=True)
class GeodesicEdge:
    id: str
    from_point: str
    to_point: str
    length: float
    theta_from: float   # link coordinate of the departure direction
    theta_to: float     # link coordinate of the arrival direction
    reversal: str       # id of the reversed edge


@dataclass(frozen=True)
class ConeSurfaceSpec:
    """A two-dimensional cone surface: its cone points and directed edges."""
    cone_points: tuple[ConePoint, ...]
    edges: tuple[GeodesicEdge, ...]

    def cone_point(self, pid: str) -> ConePoint:
        for p in self.cone_points:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def edge(self, eid: str) -> GeodesicEdge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def adjacent_pairs(self):
        """Yield (f, e) for every adjacency f -> e."""
        by_tail = {}
        for e in self.edges:
            by_tail.setdefault(e.from_point, []).append(e)
        for f in self.edges:
            for e in by_tail.get(f.to_point, ()):
                yield f, e


@dataclass(frozen=True)
class LengthScales:
    L0: float
    Lprime: float | None       # None when no two-step path shorter than 2*L0 exists
    Lambda: float
    maximal_edges: tuple[str, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witnesses: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.detail}")
            for w in c.witnesses:
                lines.append(f"         witness: {w}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# link-circle helpers


def link_distance(delta: float, cone_angle: float) -> float:
    """Distance from ``delta`` to 0 on a circle of circumference ``cone_angle``."""
    d = delta % cone_angle
    return min(d, cone_angle - d)


def pi_related(delta: float, cone_angle: float, tol: float) -> bool:
    """True when ``delta`` is congruent to +pi or -pi modulo the link circle.

    Two link points at such an angle difference are joined by a link
    geodesic of length pi, which is the geometric-propagation condition.
    """
    return (
        link_distance(delta - math.pi, cone_angle) <= tol
        or link_distance(delta + math.pi, cone_angle) <= tol
    )


# ---------------------------------------------------------------------------
# validation


def validate_spec(spec: ConeSurfaceSpec) -> None:
    """Raise SurfaceValidationError on any structural defect."""
    problems = []
    seen_p = set()
    for p in spec.cone_points:
        if p.id in seen_p:
            problems.append(f"duplicate cone point id {p.id!r}")
        seen_p.add(p.id)
        if not (0.0 < p.cone_angle < math.inf):
            problems.append(
                f"cone point {p.id!r}: angle must be finite and positive")
    seen_e = set()
    for e in spec.edges:
        if e.id in seen_e:
            problems.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        if not (0.0 < e.length < math.inf):
            problems.append(f"edge {e.id!r}: length must be finite and positive")
        for pid in (e.from_point, e.to_point):
            if pid not in seen_p:
                problems.append(f"edge {e.id!r}: unknown cone point {pid!r}")
    # the angle checks below read the cone angles at an edge's ends
    placed = [e for e in spec.edges if {e.from_point, e.to_point} <= seen_p]
    for e in placed:
        if e.reversal not in seen_e:
            problems.append(f"edge {e.id!r}: unknown reversal {e.reversal!r}")
            continue
        r = spec.edge(e.reversal)
        if r.reversal != e.id:
            problems.append(f"edge {e.id!r}: reversal is not an involution")
        if (r.from_point, r.to_point) != (e.to_point, e.from_point):
            problems.append(f"edge {e.id!r}: reversal does not swap endpoints")
        if abs(r.length - e.length) > 1e-12 * max(1.0, e.length):
            problems.append(f"edge {e.id!r}: reversal length mismatch")
        # departure/arrival directions of an edge and its reversal coincide
        # in the link: a geodesic leaves along the same ray it arrives on.
        a = spec.cone_point(e.to_point).cone_angle
        if link_distance(e.theta_to - r.theta_from, a) > 1e-9:
            problems.append(
                f"edge {e.id!r}: arrival direction differs from the departure "
                f"direction of its reversal at {e.to_point!r}"
            )
    for e in placed:
        a = spec.cone_point(e.from_point).cone_angle
        if not (0.0 <= e.theta_from < a + 1e-12):
            problems.append(f"edge {e.id!r}: theta_from outside [0, cone angle)")
        a = spec.cone_point(e.to_point).cone_angle
        if not (0.0 <= e.theta_to < a + 1e-12):
            problems.append(f"edge {e.id!r}: theta_to outside [0, cone angle)")
    if problems:
        raise SurfaceValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# construction and serialisation


def build_two_cone_surface(cone_angle: float = 2 * TWO_PI,
                           length: float = math.pi) -> ConeSurfaceSpec:
    """Two cone points joined by a single geodesic (directed edges f, fbar).

    The link coordinates put the arrival of each edge on the same ray as
    the departure of its reversal, so both turning angles vanish.
    """
    p1 = ConePoint("P1", cone_angle)
    p2 = ConePoint("P2", cone_angle)
    f = GeodesicEdge("f", "P1", "P2", length, 0.0, 0.0, "fbar")
    fbar = GeodesicEdge("fbar", "P2", "P1", length, 0.0, 0.0, "f")
    spec = ConeSurfaceSpec((p1, p2), (f, fbar))
    validate_spec(spec)
    return spec


def build_polygon_double(vertices) -> ConeSurfaceSpec:
    """Double a convex polygon across its boundary.

    ``vertices`` lists the corners counterclockwise.  Each corner becomes a
    cone point of angle 2*(2*pi - interior angle); each side becomes one
    unoriented geodesic, i.e. two directed edges.  Link coordinates at a
    corner measure from the side toward the previous vertex (theta = 0);
    the side toward the next vertex sits at half the cone angle.
    """
    pts = [(float(x), float(y)) for x, y in vertices]
    m = len(pts)
    if m < 3:
        raise PolygonError("need at least 3 vertices")
    for i, (x, y) in enumerate(pts):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PolygonError(f"vertex {i} is not finite: ({x!r}, {y!r})")
    scale = max(max(abs(x), abs(y)) for x, y in pts) or 1.0
    for i in range(m):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % m]
        if math.hypot(bx - ax, by - ay) <= 1e-12 * scale:
            raise PolygonError(f"repeated vertex at index {i}")
    # strict convexity, counterclockwise
    for i in range(m):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % m]
        cx, cy = pts[(i + 2) % m]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross <= 1e-12 * scale * scale:
            raise PolygonError(
                "vertices must be strictly convex and counterclockwise "
                f"(violation at index {(i + 1) % m})"
            )

    cone_points = []
    interior = []
    for i in range(m):
        px, py = pts[i]
        qx, qy = pts[(i - 1) % m]
        rx, ry = pts[(i + 1) % m]
        d_prev = (qx - px, qy - py)
        d_next = (rx - px, ry - py)
        dot = d_prev[0] * d_next[0] + d_prev[1] * d_next[1]
        crs = d_prev[0] * d_next[1] - d_prev[1] * d_next[0]
        gamma = math.atan2(abs(crs), dot)
        interior.append(gamma)
        cone_points.append(ConePoint(f"V{i}", 2.0 * (TWO_PI - gamma)))

    edges = []
    for i in range(m):
        j = (i + 1) % m
        ax, ay = pts[i]
        bx, by = pts[j]
        ell = math.hypot(bx - ax, by - ay)
        half_i = TWO_PI - interior[i]   # = cone_angle/2 at V_i
        half_j = TWO_PI - interior[j]
        # forward edge departs V_i along the side to the next vertex
        edges.append(GeodesicEdge(f"s{i}", f"V{i}", f"V{j}", ell,
                                  theta_from=half_i, theta_to=0.0,
                                  reversal=f"s{i}r"))
        edges.append(GeodesicEdge(f"s{i}r", f"V{j}", f"V{i}", ell,
                                  theta_from=0.0, theta_to=half_i,
                                  reversal=f"s{i}"))
    spec = ConeSurfaceSpec(tuple(cone_points), tuple(edges))
    validate_spec(spec)
    return spec


def serialize_surface(spec: ConeSurfaceSpec) -> str:
    """Dump a spec to the versioned text format (YAML)."""
    cps = [{"id": p.id, "angle": p.cone_angle} for p in spec.cone_points]
    eds = [{"id": e.id, "from": e.from_point, "to": e.to_point,
            "length": e.length, "theta_from": e.theta_from,
            "theta_to": e.theta_to, "reversal": e.reversal}
           for e in spec.edges]
    return yaml.safe_dump({"version": FORMAT_VERSION, "dimension": 2,
                           "cone_points": cps, "edges": eds}, sort_keys=False)


def load_surface(text: str) -> ConeSurfaceSpec:
    """Parse the versioned text format (YAML; JSON is a subset).

    Accepts either explicit cone_points/edges or a ``polygon`` key holding
    counterclockwise vertices, which is doubled via build_polygon_double.
    ``dimension``, if present, must be 2.
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SurfaceValidationError(f"unparseable surface document: {exc}") from exc
    if not isinstance(data, dict):
        raise SurfaceValidationError("surface document must be a mapping")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SurfaceValidationError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        dim = int(data.get("dimension", 2))
        if "polygon" in data:
            vertices = [(float(x), float(y)) for x, y in data["polygon"]]
        else:
            cps = tuple(ConePoint(str(p["id"]), float(p["angle"]))
                        for p in data["cone_points"])
            eds = tuple(
                GeodesicEdge(
                    str(e["id"]), str(e["from"]), str(e["to"]), float(e["length"]),
                    float(e["theta_from"]), float(e["theta_to"]), str(e["reversal"]),
                )
                for e in data["edges"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SurfaceValidationError(f"malformed surface document: {exc}") from exc
    if dim != 2:
        raise SurfaceValidationError("only two-dimensional surfaces are supported, "
                                     f"got dimension {dim}")
    if "polygon" in data:
        return build_polygon_double(vertices)
    spec = ConeSurfaceSpec(cps, eds)
    validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# length scales and hypothesis checks


def length_scales(spec: ConeSurfaceSpec,
                  tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> LengthScales:
    """Maximal geodesic length L0, second two-step scale L', and Lambda.

    L' is defined through the longest two-step path f -> e whose total
    length falls short of 2*L0; ties at the top are reported through
    maximal_edges, never broken silently.  Lambda = min(1/L0, 1/(2 L')),
    the paper's min(n/(2 L0), (n-1)/(2 L')) at n = 2, with the first term
    alone when L' is undefined.  Lengths within tol.length_tie_rel
    (relative) of L0 count as ties.
    """
    if not spec.edges:
        raise SurfaceValidationError("surface has no edges")
    tie_rel = tol.length_tie_rel
    L0 = max(e.length for e in spec.edges)
    maximal = tuple(e.id for e in spec.edges if e.length >= L0 * (1 - tie_rel))
    two_step_best = None
    for f, e in spec.adjacent_pairs():
        total = f.length + e.length
        if total >= 2 * L0 * (1 - tie_rel):
            continue   # the doubled maximal scale is excluded by definition
        if two_step_best is None or total > two_step_best:
            two_step_best = total
    lprime = None if two_step_best is None else two_step_best / 2.0
    lam = 1.0 / L0
    if lprime is not None:
        lam = min(lam, 1.0 / (2.0 * lprime))
    return LengthScales(L0=L0, Lprime=lprime, Lambda=lam, maximal_edges=maximal)


def validate_hypotheses(spec: ConeSurfaceSpec,
                        tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> HypothesisReport:
    """Check the geometric hypotheses behind the single-ladder asymptotics.

    (a) no cone point receives two distinct maximal oriented geodesics;
    (b) no two edge incidences at a cone point are pi-related in the link;
    (c) no geodesic loop attains the maximal length L0.

    The maximal geodesics of (a) and (c) are length_scales' maximal_edges,
    ties within tol.length_tie_rel; the pi relation of (b) uses
    tol.pi_relation_tol.
    """
    maximal = set(length_scales(spec, tol).maximal_edges)
    checks = []

    arrivals: dict[str, list[str]] = {}
    for e in spec.edges:
        if e.id in maximal:
            arrivals.setdefault(e.to_point, []).append(e.id)
    offenders = tuple(
        (pid, tuple(ids)) for pid, ids in sorted(arrivals.items()) if len(ids) > 1
    )
    checks.append(CheckResult(
        name="unique_maximal_geodesic",
        passed=not offenders,
        witnesses=offenders,
        detail="no cone point receives two maximal oriented geodesics"
        if not offenders else
        f"{len(offenders)} cone point(s) receive several maximal geodesics",
    ))

    pi_pairs = []
    for p in spec.cone_points:
        incidences = []
        for e in spec.edges:
            if e.from_point == p.id:
                incidences.append((e.id, "from", e.theta_from))
            if e.to_point == p.id:
                incidences.append((e.id, "to", e.theta_to))
        for i in range(len(incidences)):
            for j in range(i + 1, len(incidences)):
                a = incidences[i]
                b = incidences[j]
                if pi_related(a[2] - b[2], p.cone_angle, tol.pi_relation_tol):
                    pi_pairs.append((p.id, a[:2], b[:2]))
    checks.append(CheckResult(
        name="no_pi_related_directions",
        passed=not pi_pairs,
        witnesses=tuple(pi_pairs),
        detail="no pair of edge directions at a cone point is pi-related"
        if not pi_pairs else f"{len(pi_pairs)} pi-related pair(s) found",
    ))

    loops = tuple(
        e.id for e in spec.edges
        if e.from_point == e.to_point and e.id in maximal
    )
    checks.append(CheckResult(
        name="no_maximal_loop",
        passed=not loops,
        witnesses=loops,
        detail="no geodesic loop attains the maximal length"
        if not loops else f"{len(loops)} maximal loop(s) found",
    ))

    return HypothesisReport(checks=tuple(checks))
