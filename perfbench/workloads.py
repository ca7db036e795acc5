"""The four benchmark workloads and their correctness gates.

Each workload has three steps:

- ``setup(seed)`` builds every input the timed phase reuses (specs,
  hypothesis checks, lru-cached char functions, ladder models);
- ``solve(jobs)`` is the timed phase, one closed-loop unit of work;
- ``check(raw)`` compares the outputs against independent references and
  returns an ``Outcome``.

An operation is one strip scan, one surface's gap report, one oracle
comparison or one statphase battery line.  A numerical failure of the
program (``ZeroNearBoundary``, ``AuditError``, ``NoConvergence``,
``EscapedBox``) fails that operation and is recorded, it does not stop
the run.  The seed only shapes the inputs; see README.md for what it
varies in each workload.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import coneres
from coneres import cli
from coneres.errors import AuditError, EscapedBox, NoConvergence, ZeroNearBoundary

NUMERICAL_ERRORS = (ZeroNearBoundary, AuditError, NoConvergence, EscapedBox)

REFERENCE = Path(__file__).resolve().parent / "reference"

TRI345 = ((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
ZERO_TOL = 1e-8          # max |delta lambda| when matching zeros 1:1
ORACLE_REL_TOL = 1e-4
ORACLE_TERMS = 4_000_000  # the convergent pairing: K (1 - r) = 40
ORACLE_RADIUS = 1.0 - 1e-5
ORACLE_PAIRS = ((3 * math.pi, 0.7), (3 * math.pi, 2.1), (4 * math.pi, 0.5),
                (4 * math.pi, 5.3), (5.0, 0.9), (5.0, 4.1))
BATTERY_LINES = 4        # three order checks and the nonstationary decay


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    zeros: int = 0                      # zeros located or counted by winding
    problems: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.zeros += other.zeros
        self.problems.extend(other.problems)


def match_zeros(found, reference, tol: float = ZERO_TOL) -> str | None:
    """None when ``found`` and ``reference`` pair up 1:1 within ``tol``.

    Both are sorted by (Re, Im) and paired in order; otherwise the message
    says what differs.
    """
    a = np.sort_complex(np.asarray(found, dtype=complex))
    b = np.sort_complex(np.asarray(reference, dtype=complex))
    if a.size != b.size:
        return f"{a.size} zeros, reference has {b.size}"
    if a.size == 0:
        return None
    worst = float(np.max(np.abs(a - b)))
    if not worst < tol:
        return f"max |delta| {worst:.3e} to the reference (allow {tol:.0e})"
    return None


def place_triangle(pts, seed: int):
    """The triangle under a seeded rigid motion and start vertex.

    The doubled surface, and so every zero, is the same for every seed;
    the program sees different vertex coordinates and edge order.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(len(pts)))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    tx, ty = (float(v) for v in rng.uniform(-10.0, 10.0, size=2))
    c, s = math.cos(angle), math.sin(angle)
    pts = pts[k:] + pts[:k]
    return [(c * x - s * y + tx, s * x + c * y + ty) for x, y in pts]


@functools.cache
def _load(name: str):
    with open(REFERENCE / name, encoding="utf-8") as fh:
        return json.load(fh)


def _prepare(spec):
    """The per-spec inputs every solve reuses; raises if hypotheses fail."""
    hyp = coneres.validate_hypotheses(spec)
    if not hyp.passed:
        raise ValueError("benchmark surface fails the model hypotheses:\n"
                         + hyp.to_text())
    coneres.char_function(spec)          # lru-cached: the solve hits it
    return coneres.ladder_model_from_spec(spec)


class Tri345Scan:
    """`coneres scan` in-process on the doubled 3-4-5 triangle, null vectors on."""
    name = "tri345-scan"
    jobs = 1

    def setup(self, seed: int, workdir: Path) -> None:
        pts = place_triangle(list(TRI345), seed)
        polygon = " ".join(f"{x!r},{y!r}" for x, y in pts)
        _prepare(coneres.build_polygon_double(pts))
        self.out = workdir / self.name
        self.argv = ["scan", "--polygon", polygon, "--re", "100", "300",
                     "--nu", "0.05", "0.35", "--jobs", "1", "--out", str(self.out)]

    def solve(self, jobs: int):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(self.argv)
        except NUMERICAL_ERRORS as exc:
            return exc

    def check(self, raw) -> Outcome:
        out = Outcome(attempted=1)
        if isinstance(raw, Exception):
            out.fail(f"scan raised {type(raw).__name__}: {raw}")
            return out
        if raw != 0:
            out.fail(f"coneres scan exited {raw}")
            return out
        with open(self.out / "resonances.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(self.out / "report.json", encoding="utf-8") as fh:
            audit = json.load(fh)["audit"]
        found = [complex(float(r["re_lambda"]), float(r["im_lambda"])) for r in rows]
        windings = sum(int(r["winding"]) for r in rows)
        out.zeros = len(found)
        ref = [complex(re, im) for re, im in _load("tri345_zeros.json")["zeros"]]
        problem = match_zeros(found, ref)
        if problem:
            out.fail(f"zeros differ from the reference: {problem}")
        elif not (audit["total_winding"] == audit["resonance_count"]
                  == windings == len(found)):
            out.fail(f"audit mismatch: {audit}, {windings} windings in csv")
        return out


def gap_pool_strata(pool, seed: int, strata: int = 20):
    """Indices of one triangle per L0 stratum of the reference pool.

    Sorting the pool by L0 and drawing one per band keeps every seed's
    survey over the same spread of sizes, so the work per run varies
    little across seeds.
    """
    order = sorted(range(len(pool)), key=lambda i: (pool[i]["L0"], i))
    size = len(order) // strata
    rng = np.random.default_rng(seed)
    return [order[b * size + int(rng.integers(size))] for b in range(strata)]


class GapSurvey:
    """Gap-band and string-band winding counts over 21 triangle doubles."""
    name = "gap-survey"
    jobs = 1
    window = (100.0, 1100.0)
    delta = 0.02

    def setup(self, seed: int, workdir: Path) -> None:
        ref = _load("gap_pool.json")
        entries = [ref["tri345"]] + [ref["pool"][i]
                                     for i in gap_pool_strata(ref["pool"], seed)]
        self.cases = []
        for entry in entries:
            spec = coneres.build_polygon_double(entry["vertices"])
            self.cases.append((spec, _prepare(spec), entry))

    def solve(self, jobs: int):
        reports = []
        for spec, model, _ in self.cases:
            try:
                reports.append(coneres.gap_report(spec, self.window,
                                                  delta=self.delta,
                                                  im_offset=model.c_im))
            except NUMERICAL_ERRORS as exc:
                reports.append(exc)
        return reports

    def check(self, raw) -> Outcome:
        out = Outcome(attempted=len(raw))
        for rep, (_, _, entry) in zip(raw, self.cases):
            label = entry["vertices"]
            if isinstance(rep, Exception):
                out.fail(f"gap_report raised {type(rep).__name__} on {label}")
                continue
            out.zeros += abs(rep.gap_winding) + abs(rep.string_winding)
            if rep.gap_winding != 0:
                out.fail(f"{rep.gap_winding} zeros in the gap band of {label}")
            elif (rep.string_winding, rep.gap_band_empty) != (
                    entry["string_winding"], entry["gap_band_empty"]):
                out.fail(f"string winding {rep.string_winding} on {label}, "
                         f"reference {entry['string_winding']}")
        return out


class TwoConePool:
    """The two-cone strip over a 1450-wide Re window, with the process pool."""
    name = "twocone-pool"
    jobs = 2
    nu = (0.22, 0.42)

    def setup(self, seed: int, workdir: Path) -> None:
        # whole-spacing shifts keep the window ends half way between zeros
        shift = float(np.random.default_rng(seed).integers(10))
        self.spec = coneres.build_two_cone_surface()
        self.model = _prepare(self.spec)
        self.region = coneres.SearchRegion(50.0 + shift, 1500.0 + shift, *self.nu)

    def solve(self, jobs: int):
        try:
            rs = coneres.scan_strip(self.spec, self.region, jobs=jobs)
            report = coneres.verify_scan(rs, self.model)
            ladder = coneres.ladder_in_window(self.model, self.region.re_min,
                                              self.region.re_max)
        except NUMERICAL_ERRORS as exc:
            return exc
        return rs, report, ladder

    def check(self, raw) -> Outcome:
        out = Outcome(attempted=1)
        if isinstance(raw, Exception):
            out.fail(f"scan raised {type(raw).__name__}: {raw}")
            return out
        rs, report, ladder = raw
        out.zeros = len(rs.items)
        problem = match_zeros(rs.lambdas(), ladder)
        if problem:
            out.fail(f"scan differs from the ladder prediction: {problem}")
        elif not report.passed:
            out.fail("verify_scan failed:\n" + report.to_text())
        elif rs.total_winding_audited != len(rs.items):
            out.fail(f"audited winding {rs.total_winding_audited} "
                     f"for {len(rs.items)} zeros")
        return out


class OracleBattery:
    """The mode-sum oracle on six pairs, then `coneres statphase-check`."""
    name = "oracle-battery"
    jobs = 1

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.pairs = []
        for angle, dtheta in ORACLE_PAIRS:
            ev = coneres.DiffractionEvaluator(angle)
            dtheta += float(rng.uniform(-0.05, 0.05))
            if coneres.is_geometric(ev, dtheta, guard=0.1):
                raise ValueError(f"oracle pair ({angle}, {dtheta}) is geometric")
            self.pairs.append((ev, dtheta))

    def solve(self, jobs: int):
        series = [coneres.diffraction_series_oracle(ev, dtheta, ORACLE_TERMS,
                                                    ORACLE_RADIUS)
                  for ev, dtheta in self.pairs]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["statphase-check"])
        return series, code, text.getvalue()

    def check(self, raw) -> Outcome:
        series, code, text = raw
        lines = text.splitlines()
        out = Outcome(attempted=len(series) + max(len(lines), BATTERY_LINES))
        for (ev, dtheta), value in zip(self.pairs, series):
            exact = coneres.diffraction_coefficient(ev, dtheta)
            rel = abs(value - exact) / abs(exact)
            if not rel < ORACLE_REL_TOL:
                out.fail(f"oracle at ({ev.cone_angle}, {dtheta}) rel err {rel:.2e}")
        for line in lines:
            if not line.endswith("[ok]"):
                out.fail(f"battery line: {line}")
        if len(lines) != BATTERY_LINES:
            out.fail(f"{len(lines)} battery lines, expected {BATTERY_LINES}")
        elif code != 0 and not out.failed:
            out.fail(f"statphase-check exited {code}")
        return out


WORKLOADS = {w.name: w for w in (Tri345Scan, GapSurvey, TwoConePool, OracleBattery)}


def sweep_specs():
    """Specs of the char-function batch sweep."""
    return {"tri345": coneres.build_polygon_double(TRI345),
            "twocone": coneres.build_two_cone_surface()}


def sweep_points(size: int) -> np.ndarray:
    """``size`` points across the 3-4-5 scan strip (Re 100-300, nu 0.2)."""
    re = 100.0 + 200.0 * (np.arange(size) + 0.5) / size
    return re - 0.2j * np.log(re)

