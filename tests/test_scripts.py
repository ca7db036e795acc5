import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args", [
    ("two_cone_scan.py", ("--re-min", "50", "--re-max", "60")),
    ("triangle_gap_survey.py", ("--count", "2", "--re-min", "50",
                                "--re-max", "60")),
    ("scan_digest.py", ("--short",)),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env.pop("CONERES_TOL_OVERRIDES", None)
    r = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
