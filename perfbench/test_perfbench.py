"""Tests of the benchmark itself: the correctness gate and span arithmetic.

    python3 -m pytest -q perfbench
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from spans import (Span, Tracer, is_time, join_phases,  # noqa: E402
                   layer_metrics, self_times)
from workloads import (Outcome, TwoConePool, gap_pool_strata,  # noqa: E402
                       match_zeros, place_triangle)


@pytest.fixture(scope="module")
def reference_zeros():
    import json
    from workloads import REFERENCE
    with open(REFERENCE / "tri345_zeros.json", encoding="utf-8") as fh:
        return np.array([complex(re, im) for re, im in json.load(fh)["zeros"]])


def test_gate_accepts_the_reference(reference_zeros):
    assert match_zeros(reference_zeros[::-1], reference_zeros) is None


def test_gate_counts_a_dropped_zero(reference_zeros):
    assert "zeros, reference has" in match_zeros(reference_zeros[1:], reference_zeros)


@pytest.mark.parametrize("direction", [1.0, 1j, -1.0, -1j])
def test_gate_counts_a_zero_moved_by_1e_6(reference_zeros, direction):
    moved = reference_zeros.copy()
    moved[len(moved) // 2] += 1e-6 * direction
    assert "max |delta|" in match_zeros(moved, reference_zeros)


def test_twocone_check_fails_on_a_moved_zero():
    """The gate's verdict reaches fail_frac through Outcome.failed."""
    import coneres
    w = TwoConePool()
    w.setup(0, Path("."))
    w.region = coneres.SearchRegion(50.0, 80.0, *w.nu)
    rs, report, ladder = w.solve(1)
    assert w.check((rs, report, ladder)).failed == 0
    ladder = ladder.copy()
    ladder[3] += 1e-6
    out = w.check((rs, report, ladder))
    assert (out.attempted, out.failed) == (1, 1)


def test_numerical_errors_fail_the_operation():
    from coneres import ZeroNearBoundary
    out = TwoConePool().check(ZeroNearBoundary("hug"))
    assert isinstance(out, Outcome) and (out.attempted, out.failed) == (1, 1)


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping: union 5)
    # and [8, 9]; the first child has a grandchild [1.5, 2.5]
    spans = [Span("cli.main", 0.0, 10.0),
             Span("resonances.scan_strip", 1.0, 3.0, parent=0),
             Span("resonances.count_zeros", 1.5, 2.5, parent=1),
             Span("resonances.scan_strip", 2.0, 6.0, parent=0),
             Span("asymptotics.verify_scan", 8.0, 9.0, parent=0),
             Span("resonances.count_zeros", 12.0, 13.0)]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 4.0, 1.0, 1.0])
    m = layer_metrics(spans, zeros=0)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["resonances.scan_self_s"] == pytest.approx(5.0)
    assert m["asymptotics.verify_s"] == pytest.approx(1.0)
    assert m["resonances.box_counts"] == 2


def test_every_metric_is_a_time_or_a_count():
    import json
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    for m in declared:
        assert is_time(m["name"]) == (m["unit"] in ("s", "us")), m


def test_join_phases_reindexes_parents():
    spans = [Span("a", 0, 1), Span("b", 0.2, 0.5, parent=0),
             Span("c", 2, 3), Span("d", 4, 5), Span("e", 4.1, 4.2, parent=3)]
    joined = join_phases(spans, [(0, 2), (3, 5)])
    assert [s.name for s in joined] == ["a", "b", "d", "e"]
    assert [s.parent for s in joined] == [-1, 0, -1, 2]


def test_tracer_counts_nested_calls_and_restores():
    import coneres
    from coneres import resonances
    original = resonances.count_zeros
    spec = coneres.build_two_cone_surface()
    tracer = Tracer()
    tracer.install()
    try:
        assert resonances.count_zeros is not original
        f = coneres.char_function(spec)
        w = resonances.count_zeros(f, resonances.Box(10.0, 11.0, -2.0, 0.0))
    finally:
        tracer.uninstall()
    assert resonances.count_zeros is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["monodromy.char_function", "resonances.count_zeros",
                         "resonances.polyline_path"]
    m = layer_metrics(tracer.spans, zeros=w)
    assert m["resonances.winding_walks"] == 1
    assert m["monodromy.char_calls"] >= 1
    assert m["resonances.points_per_walk"] == m["monodromy.char_points"]


def test_seeded_inputs_repeat_and_vary():
    pts = [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)]
    assert place_triangle(pts, 5) == place_triangle(pts, 5)
    assert place_triangle(pts, 5) != place_triangle(pts, 6)
    pool = [{"L0": float(i % 7) + i / 1000} for i in range(100)]
    picks = gap_pool_strata(pool, 3)
    assert picks == gap_pool_strata(pool, 3) and len(set(picks)) == 20
