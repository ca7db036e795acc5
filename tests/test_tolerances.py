import dataclasses
import math
import pathlib
import re

import pytest

import coneres
from coneres import Tolerances, with_overrides
from coneres.tolerances import load_overrides_file

SRC = pathlib.Path(coneres.__file__).parent
FIELDS = [f.name for f in dataclasses.fields(Tolerances)]


def _sources():
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(SRC.glob("*.py"))}


def test_every_field_is_read_from_a_tol_record():
    # a field nothing reads as tol.<field> is a knob no override reaches
    text = "\n".join(_sources().values())
    unread = [name for name in FIELDS
              if not re.search(rf"\btol\.{name}\b", text)]
    assert not unread, f"Tolerances fields never read as tol.<field>: {unread}"


def test_no_default_record_outside_tolerances_module():
    # DEFAULT.<field> freezes a value at import, past any tol passed in
    offenders = [(name, m.group(0))
                 for name, text in _sources().items()
                 if name != "tolerances.py"
                 for m in re.finditer(r"\bDEFAULT\.\w+", text)]
    assert not offenders, offenders


@pytest.mark.parametrize("key", ["cot_singularity_guard", "geometric_guard",
                                 "winding_max_rounds", "winding_reject_frac"])
def test_removed_fields_are_unknown_override_keys(key):
    with pytest.raises(KeyError):
        with_overrides({key: 1.0})


@pytest.mark.parametrize("mapping", [
    {"newton_max_iter": "abc"}, {"newton_max_iter": 50.0},
    {"newton_max_iter": True}, {"boundary_guard": "1e-9"},
    {"boundary_guard": False}, {"boundary_guard": None},
])
def test_override_values_must_be_numbers_of_the_field_type(mapping):
    with pytest.raises(TypeError):
        with_overrides(mapping)


INT_FIELDS = [f.name for f in dataclasses.fields(Tolerances)
              if type(f.default) is int]


@pytest.mark.parametrize("key", INT_FIELDS)
@pytest.mark.parametrize("value", [0, -1])
def test_int_override_below_one_names_the_field(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be at least 1"):
        with_overrides({key: value})


@pytest.mark.parametrize("key", INT_FIELDS)
def test_int_override_above_int_max_names_the_field(key):
    # a count this large overflowed numpy's index ints inside a scan
    with pytest.raises(ValueError,
                       match=rf"^{key} must be at least 1 and at most "
                             rf"2147483647, got 100000000000000000000$"):
        with_overrides({key: 10**20})


def test_int_override_at_int_max_applies():
    # only the record is built: a scan at this size would not fit in memory
    tol = with_overrides({key: 2**31 - 1 for key in INT_FIELDS})
    assert all(getattr(tol, key) == 2**31 - 1 for key in INT_FIELDS)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(Tolerances)
                if type(f.default) is float]


@pytest.mark.parametrize("key", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_float_override_must_be_finite(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be finite"):
        with_overrides({key: value})


@pytest.mark.parametrize("key,value,wording", [
    # every phase increment or |f| ratio counts as suspicious: each walk
    # refines until it fails, and the scan reports a numerical failure
    ("winding_max_phase_step", 0, "in (0, pi]"),
    ("winding_max_phase_step", 3.2, "in (0, pi]"),
    ("winding_max_mag_step", 0.5, "above 1"),
    ("winding_max_mag_step", 1, "above 1"),
    # the guard can never fire
    ("split_dip_rel_floor", -1, "in (0, 1)"),
    ("split_dip_rel_floor", 1.0, "in (0, 1)"),
] + [(key, value, "positive") for key in FLOAT_FIELDS
     if key not in ("winding_max_phase_step", "winding_max_mag_step",
                    "split_dip_rel_floor")
     for value in (0, -1e-9)])
def test_float_override_out_of_range_names_the_field(key, value, wording):
    with pytest.raises(ValueError,
                       match=rf"^{key} must be {re.escape(wording)}, got "):
        with_overrides({key: value})


def test_float_overrides_at_the_edge_of_their_range_apply():
    tol = with_overrides({"winding_max_phase_step": math.pi,
                          "winding_max_mag_step": 1.01,
                          "split_dip_rel_floor": 0.99, "value_floor": 1e-300})
    assert tol.winding_max_phase_step == math.pi
    assert with_overrides({}) == Tolerances()


def test_override_values_of_the_field_type_apply():
    tol = with_overrides({"newton_max_iter": 7, "boundary_guard": 1,
                          "newton_residual": 1e-12})
    assert (tol.newton_max_iter, tol.boundary_guard, tol.newton_residual) \
        == (7, 1, 1e-12)


@pytest.mark.parametrize("text", [": : :", "- 1\n- 2\n"])
def test_override_file_must_hold_a_mapping(tmp_path, text):
    cfg = tmp_path / "tol.yaml"
    cfg.write_text(text)
    with pytest.raises(ValueError) as info:
        load_overrides_file(str(cfg))
    assert "\n" not in str(info.value)
