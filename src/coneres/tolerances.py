"""Central tolerance record.

Every numerical tolerance that a run's configuration can change is a
field of ``Tolerances``.  Functions that use one take a ``tol`` record
and read the field from it when called, so a run can be reproduced from
its configuration alone.  Call arguments that pose the question itself
(a band's ``delta``, an oracle's term count, ``is_geometric``'s guard)
are not tolerances, and fixed constants that no configuration should
change (the cotangent guard of the diffraction coefficient, structural
slack in surface validation) stay with the code that uses them.  The CLI honours the environment
variable ``CONERES_TOL_OVERRIDES``: it names a YAML file whose keys are a
subset of the field names below; any other key, a value that is not a
number of the field's type, an int field below 1 or above 2**31 - 1, or
a float field that is not finite or lies outside its range
(``with_overrides``), is an error.
"""
from __future__ import annotations

import dataclasses
import math
import os

import yaml


@dataclasses.dataclass(frozen=True)
class Tolerances:
    # --- winding walks -------------------------------------------------
    winding_max_phase_step: float = math.pi / 2   # refine until |dphi| below this
    winding_max_mag_step: float = 3.0             # ... and |f| ratios below this
    winding_initial_per_segment: int = 16
    winding_max_points: int = 400_000
    value_floor: float = 1e-280                   # |f| below this on a contour = zero on path

    # --- strip scan ----------------------------------------------------
    grid_retry_shifts: int = 5        # whole-grid reseeds after a boundary hit
    multiplicity_diameter: float = 1e-6
    min_box_diameter: float = 1e-9
    boundary_guard: float = 1e-9      # reported zeros must clear box walls by this
    split_line_samples: int = 33      # probe points on a candidate split line
    split_dip_rel_floor: float = 0.03 # reject split lines whose |f| dips below
                                      # this fraction of the line median

    # --- Newton refinement ----------------------------------------------
    newton_residual: float = 1e-10    # stop at |f| < newton_residual * (1 + |f'|)
    newton_max_iter: int = 50

    # --- ladder solves ---------------------------------------------------
    ladder_newton_tol: float = 1e-12

    # --- geometry / diffraction ------------------------------------------
    pi_relation_tol: float = 1e-9     # hypothesis (b): pi-related link directions
    length_tie_rel: float = 1e-12     # relative tie when naming the maximal edges

    # --- fits and verification thresholds ---------------------------------
    fit_min_points: int = 10
    fit_min_re: float = 50.0
    verify_slope_rel: float = 0.02
    verify_spacing_abs: float = 1e-3
    verify_const_abs: float = 5e-2

    # --- stationary-phase quadrature ---------------------------------------
    quad_points_per_panel: int = 12
    quad_budget_points: float = 6e7
    quad_min_h: float = 1e-4


DEFAULT = Tolerances()

ENV_VAR = "CONERES_TOL_OVERRIDES"

_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(Tolerances)}

# float fields whose range is narrower than "positive", with its wording
_FLOAT_RANGES = {
    "winding_max_phase_step": (lambda v: 0.0 < v <= math.pi, "in (0, pi]"),
    "winding_max_mag_step": (lambda v: v > 1.0, "above 1"),
    "split_dip_rel_floor": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
}
_POSITIVE = (lambda v: v > 0.0, "positive")
INT_MAX = 2**31 - 1


def with_overrides(mapping: dict, base: Tolerances = DEFAULT) -> Tolerances:
    """Return ``base`` with the given fields replaced.

    Unknown keys raise KeyError; they include the former fields
    ``winding_max_rounds`` and ``winding_reject_frac``, which could not
    bind.  A value must be a number, and an int for an int field; bools
    and strings raise TypeError.  Int fields count samples, points,
    iterations or retries, so a value below 1 raises ValueError, and so
    does one above INT_MAX = 2**31 - 1, which keeps the product of two
    counts within the int64 that numpy sizes and indexes with.  A float
    field raises ValueError too when it is not finite or lies outside its
    range: ``winding_max_phase_step`` in (0, pi], ``winding_max_mag_step``
    above 1, ``split_dip_rel_floor`` in (0, 1), every other float field
    positive.
    A step or ratio bound outside its range makes every walk refine until
    it fails, or switches its guard off.
    """
    unknown = set(mapping) - _FIELD_TYPES.keys()
    if unknown:
        raise KeyError(f"unknown tolerance fields: {sorted(unknown)}")
    for key, value in mapping.items():
        kind = _FIELD_TYPES[key]
        allowed = int if kind is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise TypeError(f"{key} must be {kind.__name__}, got {value!r}")
        if kind is int and not 1 <= value <= INT_MAX:
            raise ValueError(f"{key} must be at least 1 and at most "
                             f"{INT_MAX}, got {value!r}")
        if kind is float:
            in_range, wording = _FLOAT_RANGES.get(key, _POSITIVE)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            if not in_range(value):
                raise ValueError(f"{key} must be {wording}, got {value!r}")
    return dataclasses.replace(base, **mapping)


def load_overrides_file(path: str, base: Tolerances = DEFAULT) -> Tolerances:
    """``base`` with the overrides of a YAML file; ValueError if unparseable."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = "" if mark is None else f" at line {mark.line + 1}"
            raise ValueError(f"{path}: not valid YAML{where}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a mapping of tolerance fields")
    return with_overrides(data, base)


def from_environment(base: Tolerances = DEFAULT) -> Tolerances:
    """Apply CONERES_TOL_OVERRIDES if set, else return ``base`` unchanged."""
    path = os.environ.get(ENV_VAR)
    if not path:
        return base
    return load_overrides_file(path, base)
