"""Spans recorded from outside the program, and the per-layer numbers built on them.

``Tracer.install`` replaces every public function of each coneres layer
module (plus ``CharFunction.values`` and ``values_and_derivs``) with a
wrapper that records one span per call: name, start, end, parent span,
the exception that ended it, and for char-function calls the number of
points evaluated.  ``cli`` and ``asymptotics`` import functions by name,
so every coneres module namespace holding the original object gets the
wrapper.  Spans stay in memory until the benchmark writes them out.

Worker processes of a process pool are invisible to the parent, so a
traced run must keep every call in-process (jobs=1).
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = ("geometry", "diffraction", "monodromy", "resonances",
          "asymptotics", "statphase", "cli")

CHAR_SPANS = ("monodromy.CharFunction.values",
              "monodromy.CharFunction.values_and_derivs")
GEOMETRY_BUILD = ("geometry.build_polygon_double",
                  "geometry.build_two_cone_surface",
                  "geometry.validate_hypotheses", "geometry.length_scales")
LADDER = ("asymptotics.ladder_model_from_spec", "asymptotics.ladder_in_window",
          "asymptotics.predicted_ladder")
EXPANSION = ("statphase.quadratic_expansion",
             "statphase.quadratic_expansion_terms")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into the span list, -1 for a root
    exc: str | None = None    # exception type that ended the call
    points: int = 0           # lambda values, for char-function calls


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_points: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            if count_points:
                # bound method: args = (self, lam, ...)
                span.points = int(getattr(args[1], "size", 1))
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.exc = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere they are bound."""
        import coneres  # noqa: F401  (loads every layer module)
        from coneres.monodromy import CharFunction

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"coneres.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj, False)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "coneres" and not mod_name.startswith("coneres."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for meth in ("values", "values_and_derivs"):
            orig = CharFunction.__dict__[meth]
            self._patches.append((CharFunction, meth, orig))
            setattr(CharFunction, meth,
                    self._wrap(f"monodromy.CharFunction.{meth}", orig, True))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def mark(self) -> int:
        """Position in the span list, to cut it into phases."""
        return len(self.spans)


def join_phases(spans: list[Span], phases) -> list[Span]:
    """Concatenate slices ``spans[lo:hi]`` into one closed list.

    Each slice must start with the span stack empty, so its parents lie
    inside it; parent indices are shifted to the new positions.
    """
    out: list[Span] = []
    for lo, hi in phases:
        shift = len(out) - lo
        for s in spans[lo:hi]:
            out.append(Span(s.name, s.start, s.end,
                            s.parent + shift if s.parent >= 0 else -1,
                            s.exc, s.points))
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _outer_total(spans: list[Span], names) -> float:
    """Wall time under spans named in ``names``, nested ones counted once."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def layer_metrics(spans: list[Span], zeros: int) -> dict[str, float]:
    """Per-layer counts and times for one traced unit of work.

    ``spans`` must be a closed list: every parent index points into it.
    ``zeros`` is the number of zeros the unit located by Newton.
    """
    own = self_times(spans)

    def count(name, exc=False):
        return sum(1 for s in spans if s.name == name and (not exc or s.exc))

    def self_s(names):
        return sum(t for s, t in zip(spans, own) if s.name in names)

    char = [s for s in spans if s.name in CHAR_SPANS]
    char_points = sum(s.points for s in char)
    char_self = self_s(CHAR_SPANS)
    walk_points = sum(s.points for s in char if s.parent >= 0
                      and spans[s.parent].name == "resonances.winding_number")
    walks = count("resonances.winding_number")
    starts = count("resonances.refine_root")
    newton_iters = sum(
        1 for s in char if s.name.endswith("values_and_derivs") and s.parent >= 0
        and spans[s.parent].name == "resonances.refine_root")
    return {
        "monodromy.char_calls": len(char),
        "monodromy.char_points": char_points,
        "monodromy.points_per_call": char_points / len(char) if char else 0.0,
        "monodromy.char_self_s": char_self,
        "monodromy.us_per_point": 1e6 * char_self / char_points if char_points else 0.0,
        "monodromy.deriv_calls": count("monodromy.CharFunction.values_and_derivs"),
        "monodromy.null_vector_calls": count("monodromy.null_vector"),
        "monodromy.null_vector_s": _outer_total(spans, ("monodromy.null_vector",)),
        "resonances.scan_self_s": self_s(("resonances.scan_strip",)),
        "resonances.winding_walks": walks,
        "resonances.points_per_walk": walk_points / walks if walks else 0.0,
        "resonances.winding_self_s": self_s(("resonances.winding_number",)),
        "resonances.box_counts": count("resonances.count_zeros"),
        "resonances.boundary_rejections": sum(
            1 for s in spans if s.name == "resonances.count_zeros"
            and s.exc == "ZeroNearBoundary"),
        "resonances.newton_starts": starts,
        "resonances.newton_failed": count("resonances.refine_root", exc=True),
        "resonances.newton_iters": newton_iters,
        "resonances.zeros_per_start": zeros / starts if starts else 0.0,
        "asymptotics.gap_report_calls": count("asymptotics.gap_report"),
        "asymptotics.gap_report_self_s": self_s(("asymptotics.gap_report",)),
        "asymptotics.verify_s": _outer_total(spans, ("asymptotics.verify_scan",)),
        "asymptotics.ladder_s": _outer_total(spans, LADDER),
        "geometry.build_s": _outer_total(spans, GEOMETRY_BUILD),
        "diffraction.coefficient_calls": count("diffraction.diffraction_coefficient"),
        "diffraction.oracle_calls": count("diffraction.diffraction_series_oracle"),
        "diffraction.oracle_s": _outer_total(spans, ("diffraction.diffraction_series_oracle",)),
        "statphase.quadrature_calls": count("statphase.quadrature_oracle"),
        "statphase.quadrature_s": _outer_total(spans, ("statphase.quadrature_oracle",)),
        "statphase.expansion_s": _outer_total(spans, EXPANSION),
        "cli.self_s": sum(t for s, t in zip(spans, own)
                          if s.name.startswith("cli.")),
    }


def is_time(key: str) -> bool:
    """Time metrics are named ``*_s`` or ``*us_per_point*``; the rest are counts."""
    return key.endswith("_s") or "us_per_point" in key


def scale_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Multiply every time-based metric by ``factor``; counts stay."""
    return {k: v * factor if is_time(k) else v for k, v in metrics.items()}


def combine_units(units: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced unit (they repeat), times as the median."""
    out = {}
    for key in units[0]:
        if is_time(key):
            out[key] = statistics.median(u[key] for u in units)
        else:
            out[key] = units[0][key]
    return out
