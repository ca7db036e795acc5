import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args", [
    ("two_cone_scan.py", ("--re-min", "50", "--re-max", "60")),
    ("triangle_gap_survey.py", ("--count", "2", "--re-min", "50",
                                "--re-max", "60")),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env.pop("CONERES_TOL_OVERRIDES", None)
    r = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr


def test_scan_digest_prints_one_line_per_output():
    # every byte-identity claim between checkouts rests on these 18 lines;
    # this is also the test that the script runs.  The scan taken in runs
    # of 4 columns writes the bytes of the one-run scan
    env = dict(os.environ)
    env.pop("CONERES_TOL_OVERRIDES", None)
    r = subprocess.run([sys.executable, str(SCRIPTS / "scan_digest.py"), "--short"],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    files = ("fit_summary.txt", "plot_data.csv", "report.json", "resonances.csv")
    names = [f"{scan}/{name}" for scan in ("tri345", "tri345-runs", "twocone",
                                           "flatcone") for name in files]
    names += ["gap/reports.json", "statphase/check.txt"]
    lines = r.stdout.splitlines()
    assert [line[66:] for line in lines] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert [line[:64] for line in lines[4:8]] == [line[:64] for line in lines[:4]]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_states_the_verdicts():
    benchmark = {"end_to_end": [{"name": "solve_s", "better": "lower", "bound": 0.25},
                                {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}],
                 "per_layer": [{"name": "monodromy.points_per_call", "better": "higher"},
                               {"name": "resonances.boundary_rejections", "better": "lower"}]}
    rows = {  # ten (base, head) pairs per metric
        # head wins 9 of 10 pairs, its median 0.5 below and the base IQR 0.45
        "solve_s": [(1.0 + 0.1 * i, 0.4 + 0.1 * i) for i in range(9)] + [(1.0, 1.2)],
        # head wins every pair, by less than the base IQR
        "cpu_s": [(1.0 + 0.1 * i, 0.99 + 0.1 * i) for i in range(10)],
        # head loses every pair; +10.5 % is past the 10 % bound
        "peak_rss_mb": [(100.0 + i, 110.5 + i) for i in range(10)],
        # higher is better: head wins 10 of 10 by more than the IQR
        "monodromy.points_per_call": [(40.0 + i % 2, 900.0) for i in range(10)],
        # all ties, base median 0
        "resonances.boundary_rejections": [(0, 0)] * 10,
    }
    pairs = [{side: {"metrics": {name: {"value": row[i][k]} for name, row in rows.items()}}
              for k, side in enumerate(("base", "head"))} for i in range(10)]
    out = _bench_pairs().summarise(pairs, benchmark)

    solve = out["solve_s"]
    assert (solve["head_wins"], solve["pairs"]) == (9, 10)
    assert solve["base_iqr"] == pytest.approx(0.45)
    assert solve["median_change"] == pytest.approx((0.85 - 1.35) / 1.35)
    assert solve["claim_met"] and solve["within_bound"]

    cpu = out["cpu_s"]
    assert cpu["head_wins"] == 10 and not cpu["claim_met"]

    rss = out["peak_rss_mb"]
    assert rss["head_wins"] == 0 and not rss["claim_met"]
    assert rss["median_change"] == pytest.approx(10.5 / 104.5)
    assert rss["within_bound"] is False

    ppc = out["monodromy.points_per_call"]
    assert ppc["head_wins"] == 10 and ppc["claim_met"]
    assert "within_bound" not in ppc    # per-layer metrics carry no bound

    ties = out["resonances.boundary_rejections"]
    assert ties["head_wins"] == 0 and ties["median_change"] is None
    assert not ties["claim_met"]
