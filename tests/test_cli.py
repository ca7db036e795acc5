import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from coneres import (AuditError, Box, CharFunction, LadderModel, NoConvergence,
                     Resonance, ResonanceSet, SearchRegion, ZeroNearBoundary,
                     build_two_cone_surface, cli, length_scales,
                     serialize_surface)


def run_cli(*args, env_extra=None, cwd=None):
    """coneres.cli.main on ``args`` in this process, as a CompletedProcess.

    stdout and stderr are captured and a SystemExit becomes the return
    code.  CONERES_TOL_OVERRIDES is removed unless ``env_extra`` gives it,
    and the environment and cwd are restored after the call.
    """
    saved_env, saved_cwd = dict(os.environ), os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.environ.pop("CONERES_TOL_OVERRIDES", None)
        os.environ.update(env_extra or {})
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
    return subprocess.CompletedProcess(list(args), code, out.getvalue(),
                                       err.getvalue())


def run_cli_process(*args, env_extra=None, cwd=None):
    """``python -m coneres.cli`` on ``args`` in a new process: for what only
    a fresh process shows (the entry point, start-up, cross-process bytes)."""
    env = dict(os.environ)
    env.pop("CONERES_TOL_OVERRIDES", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "coneres.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# scan


def test_scan_polygon_writes_outputs(tmp_path):
    out = tmp_path / "run1"
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "100", "104", "--nu", "0.05", "0.35",
                "--jobs", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    for name in ("resonances.csv", "plot_data.csv", "report.json",
                 "fit_summary.txt"):
        assert (out / name).is_file()
    report = json.loads((out / "report.json").read_text())
    assert report["audit"]["resonance_count"] == report["audit"]["total_winding"]
    assert report["model"]["L0"] == 5.0
    header = (out / "resonances.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["re_lambda", "im_lambda"]


def test_scan_reruns_are_byte_identical(tmp_path):
    # --jobs is accepted and ignored: the rerun in another process changes
    # no byte
    args = ("scan", "--polygon", "0,0 3,0 0,4",
            "--re", "100", "103", "--nu", "0.05", "0.35")
    a, b = tmp_path / "a", tmp_path / "b"
    ra = run_cli_process(*args, "--jobs", "1", "--out", str(a))
    rb = run_cli_process(*args, "--jobs", "2", "--out", str(b))
    assert ra.returncode == 0 and rb.returncode == 0
    for name in ("resonances.csv", "plot_data.csv", "report.json",
                 "fit_summary.txt"):
        assert read_bytes(a / name) == read_bytes(b / name), name


def test_scan_verify_two_cone(tmp_path):
    spec_file = tmp_path / "two_cone.yaml"
    spec_file.write_text(serialize_surface(build_two_cone_surface()))
    r = run_cli("scan", "--input", str(spec_file),
                "--re", "100", "140", "--nu", "0.28", "0.40",
                "--jobs", "1", "--verify")
    assert r.returncode == 0, r.stderr + r.stdout
    assert "verification PASSED" in r.stdout


def test_scan_verify_failure_writes_outputs_and_exits_2(tmp_path):
    # a spacing allowance no scan meets: the outputs still record the verdict
    cfg = tmp_path / "tol.yaml"
    cfg.write_text("verify_spacing_abs: 1.0e-9\n")
    spec_file = tmp_path / "two_cone.yaml"
    spec_file.write_text(serialize_surface(build_two_cone_surface()))
    out = tmp_path / "run"
    r = run_cli("scan", "--input", str(spec_file),
                "--re", "100", "140", "--nu", "0.28", "0.40", "--verify",
                "--out", str(out), env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 2, r.stderr
    assert r.stdout.splitlines()[-1] == "verification FAILED"
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["passed"] is False
    assert [c["passed"] for c in report["verification"]["checks"]] == [
        True, False, True, True]
    summary = (out / "fit_summary.txt").read_text()
    assert summary.endswith("verification FAILED\n")


def _flat_two_cone_file(tmp_path):
    # passes the hypotheses, but a 2*pi cone does not diffract
    spec_file = tmp_path / "flat_two_cone.yaml"
    spec_file.write_text(serialize_surface(
        build_two_cone_surface(cone_angle=2 * math.pi)))
    return str(spec_file)


def test_scan_without_ladder_model_writes_no_fit(tmp_path):
    out = tmp_path / "run"
    r = run_cli("scan", "--input", _flat_two_cone_file(tmp_path),
                "--re", "50", "60", "--nu", "0.02", "0.3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["model"] is None and report["fit"] is None
    assert (out / "fit_summary.txt").read_text().startswith("no fit: ")


# _write_outputs on a hand-built set: one resonance with a null mass and
# one without, written with the two-cone's ladder model and without a model
_REPORT_JSON = """{
  "audit": {
    "resonance_count": 2,
    "total_winding": 3
  },
  "fit": null,
  "model": MODEL,
  "region": {
    "nu_max": 0.35,
    "nu_min": 0.05,
    "re_max": 105.0,
    "re_min": 100.0
  },
  "resonances": [
    {
      "im": -1.25,
      "nu": 0.27114039776640936,
      "null_mass": {
        "f": 0.625,
        "fbar": 0.375
      },
      "re": 100.5,
      "residual": 3.5e-12,
      "winding": 1
    },
    {
      "im": -1.5,
      "nu": 0.32313768177255725,
      "null_mass": null,
      "re": 103.75,
      "residual": 1e-11,
      "winding": 2
    }
  ],
  "scales": {
    "L0": 3.141592653589793,
    "Lambda": 0.3183098861837907,
    "Lprime": null,
    "maximal_edges": [
      "f",
      "fbar"
    ]
  },
  "seed": 7,
  "surface": {
    "cone_points": [
      {
        "angle": 12.566370614359172,
        "id": "P1"
      },
      {
        "angle": 12.566370614359172,
        "id": "P2"
      }
    ],
    "dimension": 2,
    "edges": [
      {
        "from": "P1",
        "id": "f",
        "length": 3.141592653589793,
        "to": "P2"
      },
      {
        "from": "P2",
        "id": "fbar",
        "length": 3.141592653589793,
        "to": "P1"
      }
    ]
  },
  "verification": null
}
"""

_MODEL_JSON = """{
    "L0": 3.141592653589793,
    "c_im": -0.8056500399812094,
    "c_prod_im": 0.0,
    "c_prod_re": -0.0063325739776461136,
    "c_re": 0.5,
    "n": 2,
    "slope": -0.15915494309189535,
    "spacing": 1.0
  }"""


@pytest.mark.parametrize("with_model", [True, False],
                         ids=["model", "no-model"])
def test_write_outputs_bytes(tmp_path, with_model):
    spec = build_two_cone_surface()
    # ladder_model_from_spec(spec), written out
    model = LadderModel(L0=3.141592653589793,
                        c_prod=complex(-0.0063325739776461136, 0.0))
    region = SearchRegion(re_min=100.0, re_max=105.0, nu_min=0.05, nu_max=0.35)
    rs = ResonanceSet(items=(
        Resonance(lam=complex(100.5, -1.25), residual=3.5e-12, winding=1,
                  box=Box(100.25, 100.75, -1.5, -1.0),
                  null_mass=(("f", 0.625), ("fbar", 0.375))),
        Resonance(lam=complex(103.75, -1.5), residual=1e-11, winding=2,
                  box=Box(103.5, 104.0, -1.75, -1.25)),
    ), region=region, total_winding_audited=3)
    cli._write_outputs(str(tmp_path), spec, length_scales(spec), region, 7,
                       model if with_model else None, rs, None, None)
    predicted = ([",-1.539391740360376,0.28939174036037607",
                  ",-1.5444613969099978,0.04446139690999784"] if with_model
                 else [",,", ",,"])
    expected = {
        "resonances.csv":
            "re_lambda,im_lambda,residual,winding,nu,"
            "box_re_lo,box_re_hi,box_im_lo,box_im_hi\n"
            "100.5,-1.25,3.5e-12,1,0.27114039776640936,"
            "100.25,100.75,-1.5,-1.0\n"
            "103.75,-1.5,1e-11,2,0.32313768177255725,"
            "103.5,104.0,-1.75,-1.25\n",
        "plot_data.csv":
            "re,im,nu,predicted_im,deviation\n"
            f"100.5,-1.25,0.27114039776640936{predicted[0]}\n"
            f"103.75,-1.5,0.32313768177255725{predicted[1]}\n",
        "report.json": _REPORT_JSON.replace(
            "MODEL", _MODEL_JSON if with_model else "null"),
        "fit_summary.txt": "no fit: insufficient points or no ladder model\n",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert read_bytes(tmp_path / name) == text.encode(), name


def test_scan_verify_without_ladder_model_gives_the_reason(tmp_path,
                                                          monkeypatch):
    # the refusal comes before the scan: no point is evaluated
    points = []
    values = CharFunction.values

    def counted(self, lam):
        points.append(np.size(lam))
        return values(self, lam)

    monkeypatch.setattr(CharFunction, "values", counted)
    r = run_cli("scan", "--input", _flat_two_cone_file(tmp_path),
                "--re", "50", "60", "--nu", "0.02", "0.3", "--verify")
    assert r.returncode == 2
    assert r.stderr == ("cannot verify: no diffractive coupling around "
                        "the maximal cycle\n")
    assert sum(points) == 0


def test_scan_square_fails_hypotheses():
    r = run_cli("scan", "--polygon", "0,0 1,0 1,1 0,1",
                "--re", "50", "60", "--nu", "0.1", "0.3")
    assert r.returncode == 2
    assert "hypothesis check failed" in r.stderr


def test_scan_missing_input_file():
    r = run_cli("scan", "--input", "/nonexistent/surface.yaml",
                "--re", "50", "60", "--nu", "0.1", "0.3")
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_scan_rejects_both_sources(tmp_path):
    spec_file = tmp_path / "s.yaml"
    spec_file.write_text(serialize_surface(build_two_cone_surface()))
    r = run_cli("scan", "--input", str(spec_file), "--polygon", "0,0 3,0 0,4",
                "--re", "50", "60", "--nu", "0.1", "0.3")
    assert r.returncode == 1


def test_scan_bad_polygon_string():
    r = run_cli("scan", "--polygon", "0,0 1,0",
                "--re", "50", "60", "--nu", "0.1", "0.3")
    assert r.returncode == 1


def test_scan_bad_strip_is_one_line():
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "0.5", "101", "--nu", "0.05", "0.35")
    assert r.returncode == 1
    assert r.stderr.startswith("error:")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("strip", [("--re", "100", "inf", "--nu", "0.05", "0.35"),
                                   ("--re", "100", "104", "--nu", "0.05", "inf")])
def test_scan_infinite_strip_is_one_line(strip):
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4", *strip, "--jobs", "1")
    assert r.returncode == 1
    assert r.stderr == "error: strip bounds must be finite\n"


def test_scan_negative_seed_is_one_line():
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4", "--re", "100", "104",
                "--nu", "0.05", "0.35", "--seed", "-1")
    assert r.returncode == 1
    assert r.stderr == "error: seed must be an int >= 0, got -1\n"


def test_scan_numerical_failure_is_one_line(tmp_path):
    # a contour point budget too small for any refinement
    cfg = tmp_path / "tol.yaml"
    cfg.write_text("winding_max_points: 20\n")
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "100", "102", "--nu", "0.05", "0.35", "--jobs", "1",
                env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 2
    assert r.stderr.startswith("error: ZeroNearBoundary:")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("exc, reason", [
    (MemoryError("Unable to allocate 256. GiB for an array with shape "
                 "(6442450944, 5) and data type complex128"),
     "Unable to allocate 256. GiB for an array with shape (6442450944, 5) "
     "and data type complex128"),
    (MemoryError(), "allocation failed"),
])
def test_scan_out_of_memory_is_one_line(monkeypatch, exc, reason):
    # a huge winding_initial_per_segment or a very wide strip used to end in
    # a numpy _ArrayMemoryError / MemoryError traceback
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "scan_strip", out_of_memory)
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "100", "101", "--nu", "0.05", "0.35")
    assert r.returncode == 1
    assert r.stderr == f"error: out of memory: {reason}\n"


def test_scan_too_wide_strip_is_one_line():
    # 3.2e8 columns, some 70 GB laid out: refused before any is built
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "100", "1e8", "--nu", "0.05", "0.35")
    assert r.returncode == 1
    assert r.stderr == ("error: out of memory: the strip needs 318309568 "
                        "columns, more than MAX_COLUMNS = 4194304\n")


@pytest.mark.parametrize("out", ["a_file", "a_file/run"])
def test_scan_unwritable_out_is_one_line(tmp_path, out):
    # an existing file as --out, or a directory under one: this used to end
    # in a FileExistsError / NotADirectoryError traceback after the scan
    (tmp_path / "a_file").write_text("")
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "100", "102", "--nu", "0.05", "0.35",
                "--out", str(tmp_path / out))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: cannot write --out {tmp_path / out}: ")
    assert len(r.stderr.splitlines()) == 1


# ---------------------------------------------------------------------------
# tolerance overrides


def test_tolerance_override_applies(tmp_path):
    # demand far more fit points than the window holds: verify must abstain
    cfg = tmp_path / "tol.yaml"
    cfg.write_text("fit_min_points: 500\n")
    spec_file = tmp_path / "two_cone.yaml"
    spec_file.write_text(serialize_surface(build_two_cone_surface()))
    r = run_cli("scan", "--input", str(spec_file),
                "--re", "100", "120", "--nu", "0.28", "0.40",
                "--jobs", "1", "--verify",
                env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 2
    assert "cannot verify" in r.stderr


def test_tolerance_override_unknown_key(tmp_path):
    cfg = tmp_path / "tol.yaml"
    cfg.write_text("definitely_not_a_knob: 1\n")
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "100", "102", "--nu", "0.05", "0.35",
                env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 1


def test_tolerance_override_unknown_key_message_is_bare(tmp_path):
    # read from the environment when a new process starts
    cfg = tmp_path / "tol.yaml"
    cfg.write_text("definitely: 1\n")
    r = run_cli_process("validate", "--polygon", "0,0 3,0 0,4",
                env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 1
    assert r.stderr == ("error: bad tolerance override: "
                        "unknown tolerance fields: ['definitely']\n")


def test_tolerance_override_boundary_guard_reaches_scan(tmp_path):
    # no zero clears every column wall by 0.2, on any grid shift
    cfg = tmp_path / "tol.yaml"
    cfg.write_text("boundary_guard: 0.2\n")
    r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                "--re", "100", "103", "--nu", "0.05", "0.35", "--jobs", "1",
                env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 2
    assert r.stderr.startswith("error: ZeroNearBoundary:")
    assert len(r.stderr.splitlines()) == 1


def test_tolerance_override_removed_field_rejected(tmp_path):
    # the cotangent guard is a fixed constant, not a tolerance field; the
    # walk's round cap and winding rejection fraction could never bind
    cfg = tmp_path / "tol.yaml"
    for text in ("cot_singularity_guard: 10.0\n", "winding_max_rounds: 60\n",
                 "winding_reject_frac: 0.1\n"):
        cfg.write_text(text)
        r = run_cli("scan", "--polygon", "0,0 3,0 0,4",
                    "--re", "100", "103", "--nu", "0.05", "0.35", "--jobs", "1",
                    env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
        assert r.returncode == 1, text
        assert r.stderr.startswith("error: bad tolerance override:"), text
        assert text.split(":")[0] in r.stderr
        assert len(r.stderr.splitlines()) == 1, text


@pytest.mark.parametrize("content", [None, ": : :\n", "- 1\n- 2\n",
                                     'newton_max_iter: "abc"\n',
                                     "winding_initial_per_segment: 0\n",
                                     "winding_max_phase_step: 0\n"])
def test_tolerance_override_bad_file_is_one_line(tmp_path, content):
    # a missing file, unparseable YAML, a list, a string for an int field,
    # an int field below 1 (one sample per side would lose every zero), a
    # float field out of range (every walk would refine until it fails)
    cfg = tmp_path / "tol.yaml"
    if content is not None:
        cfg.write_text(content)
    for args in (("scan", "--polygon", "0,0 3,0 0,4", "--re", "100", "102",
                  "--nu", "0.05", "0.35", "--jobs", "1"),
                 ("validate", "--polygon", "0,0 3,0 0,4")):
        r = run_cli(*args, env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
        assert r.returncode == 1, args
        assert r.stderr.startswith("error: bad tolerance override:"), r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr


@pytest.mark.parametrize("key, args", [
    ("split_line_samples", ("scan", "--polygon", "0,0 3,0 0,4",
                            "--re", "100", "101", "--nu", "0.05", "0.35")),
    ("quad_points_per_panel", ("statphase-check", "--order", "1")),
])
def test_tolerance_override_huge_int_is_one_line(tmp_path, key, args):
    # 10**20 samples used to end in an OverflowError traceback inside numpy
    cfg = tmp_path / "tol.yaml"
    cfg.write_text(f"{key}: 100000000000000000000\n")
    r = run_cli(*args, env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 1
    assert r.stderr == (f"error: bad tolerance override: {key} must be at "
                        "least 1 and at most 2147483647, got "
                        "100000000000000000000\n")


# ---------------------------------------------------------------------------
# other commands


def test_validate_triangle():
    # through the python -m coneres.cli entry point
    r = run_cli_process("validate", "--polygon", "0,0 3,0 0,4")
    assert r.returncode == 0
    assert "[pass]" in r.stdout
    assert "L0 = 5.0" in r.stdout


def test_higher_dimension_rejected(tmp_path):
    text = serialize_surface(build_two_cone_surface())
    spec_file = tmp_path / "dim3.yaml"
    spec_file.write_text(text.replace("dimension: 2", "dimension: 3"))
    for args in (("validate",),
                 ("scan", "--re", "50", "60", "--nu", "0.1", "0.3")):
        r = run_cli(*args, "--input", str(spec_file))
        assert r.returncode == 1, args
        assert r.stderr.startswith("error:"), args
        assert "two-dimensional" in r.stderr
        assert len(r.stderr.splitlines()) == 1, args


@pytest.mark.parametrize("text", [
    "version: 1\ndimension: 3\npolygon: [[0,0],[3,0],[0,4]]\n",
    "version: 1\npolygon: 5\n", "version: 1\npolygon:\n",
    "version: 1\npolygon: [[0,0], 1, [0,4]]\n",
])
def test_bad_polygon_document_is_one_line(tmp_path, text):
    spec_file = tmp_path / "surface.yaml"
    spec_file.write_text(text)
    want = "two-dimensional" if "dimension" in text else "malformed surface document"
    for args in (("validate",),
                 ("scan", "--re", "50", "60", "--nu", "0.1", "0.3")):
        r = run_cli(*args, "--input", str(spec_file))
        assert r.returncode == 1, args
        assert r.stderr.startswith("error:"), r.stderr
        assert want in r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr


def _two_cone_text(first_length="3.141592653589793"):
    """The two-cone surface document, with its first edge length replaced."""
    text = serialize_surface(build_two_cone_surface())
    return text.replace("length: 3.141592653589793", f"length: {first_length}", 1)


@pytest.mark.parametrize("text, message", [
    # an inf angle and two inf lengths used to pass validate, then end scan
    # in a GeometricRaySingularity / ZeroDivisionError traceback
    (_two_cone_text().replace("angle: 12.566370614359172", "angle: .inf"),
     "angle must be finite and positive"),
    (_two_cone_text().replace("length: 3.141592653589793", "length: .inf"),
     "length must be finite and positive"),
    (_two_cone_text(".inf"), "length must be finite and positive"),
    ("version: 1\npolygon: [[0,0],[3,0],[0,.nan]]\n", "vertex 2 is not finite"),
    ("version: 1\npolygon: [[0,0],[.inf,0],[0,4]]\n", "vertex 1 is not finite"),
], ids=["inf-angles", "inf-lengths", "one-inf-length", "nan-vertex",
        "inf-vertex"])
def test_non_finite_surface_is_one_line(tmp_path, text, message):
    spec_file = tmp_path / "surface.yaml"
    spec_file.write_text(text)
    for args in (("validate",),
                 ("scan", "--re", "50", "60", "--nu", "0.1", "0.3")):
        r = run_cli(*args, "--input", str(spec_file))
        assert r.returncode == 1, args
        assert r.stderr.startswith("error:") and message in r.stderr, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr


def test_validate_without_a_surface_is_one_line():
    r = run_cli("validate")
    assert r.returncode == 1
    assert r.stderr == "error: no surface given: use --input or --polygon\n"


def test_validate_surface_without_edges_is_one_line(tmp_path):
    spec_file = tmp_path / "surface.yaml"
    spec_file.write_text("version: 1\ndimension: 2\ncone_points:\n"
                         "- id: P1\n  angle: 12.566370614359172\nedges: []\n")
    r = run_cli("validate", "--input", str(spec_file))
    assert r.returncode == 1
    assert r.stderr == "error: surface has no edges\n"


def test_validate_square_exit_code():
    r = run_cli("validate", "--polygon", "0,0 1,0 1,1 0,1")
    assert r.returncode == 2
    assert "[FAIL]" in r.stdout


def test_diffraction_value():
    r = run_cli("diffraction", "--angle", str(4 * 3.141592653589793),
                "--dtheta", "0")
    assert r.returncode == 0
    re_s, im_s = r.stdout.split()
    assert float(re_s) == 0.0
    assert float(im_s) == pytest.approx(-0.0795774715459477, abs=1e-15)


def test_diffraction_singular_direction():
    r = run_cli("diffraction", "--angle", str(3 * 3.141592653589793),
                "--dtheta", str(3.141592653589793))
    assert r.returncode == 1


@pytest.mark.parametrize("angle, dtheta, message", [
    ("12.5", "nan", "dtheta must be finite"),       # printed "nan nan", exit 0
    ("12.5", "inf", "dtheta must be finite"),
    ("inf", "1", "cone angle must be finite"),      # blamed a geometric ray
])
def test_diffraction_non_finite_input_is_one_line(angle, dtheta, message):
    r = run_cli("diffraction", "--angle", angle, "--dtheta", dtheta)
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {message}")
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


def test_statphase_check_first_order():
    r = run_cli("statphase-check", "--order", "1")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "slope" in r.stdout


def test_statphase_check_runs_the_whole_battery():
    r = run_cli("statphase-check")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 4
    assert all(line.endswith("[ok]") for line in lines)
    assert lines[-1].startswith("nonstationary decay slope ")


@pytest.mark.parametrize("override, message", [
    ("quad_budget_points: 1000.0\n", "error: CostBudgetExceeded: oracle would need "),
    ("quad_min_h: 0.5\n", "error: InsufficientData: h="),
])
def test_statphase_check_out_of_reach_oracle_is_one_line(tmp_path, override,
                                                         message):
    # an override that puts the oracle out of reach used to end in a traceback
    cfg = tmp_path / "tol.yaml"
    cfg.write_text(override)
    r = run_cli("statphase-check",
                env_extra={"CONERES_TOL_OVERRIDES": str(cfg)})
    assert r.returncode == 2
    assert r.stderr.startswith(message), r.stderr
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, where, name, exc, stderr, code", [
    (("validate", "--polygon", "0,0 3,0 0,4"), cli, "validate_hypotheses",
     NoConvergence("x"), "error: NoConvergence: x\n", 2),
    (("diffraction", "--angle", "12.5", "--dtheta", "1"), cli,
     "diffraction_coefficient", AuditError("x"), "error: AuditError: x\n", 2),
    (("statphase-check",), cli.sp, "order_check", ZeroNearBoundary("x"),
     "error: ZeroNearBoundary: x\n", 2),
    (("validate", "--polygon", "0,0 3,0 0,4"), cli, "validate_hypotheses",
     OSError("x"), "error: x\n", 1),
], ids=["validate-NoConvergence", "diffraction-AuditError",
        "statphase-ZeroNearBoundary", "validate-OSError"])
def test_failure_table_gives_one_line_and_its_exit_code(monkeypatch, capsys, argv,
                                                        where, name, exc, stderr,
                                                        code):
    # main maps a failure of any command once; the first two were tracebacks
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(where, name, fail)
    monkeypatch.delenv("CONERES_TOL_OVERRIDES", raising=False)
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().err == stderr


def test_no_command_shows_usage():
    r = run_cli()
    assert r.returncode == 1
    assert r.stderr == "error: the following arguments are required: command\n"


@pytest.mark.parametrize("args,message", [
    # exit 2 is a failed check, so a usage error must not look like one
    (("scan", "--polygon", "0,0 3,0 0,4", "--re", "100"),
     "error: argument --re: expected 2 arguments"),
    (("scan", "--polygon", "0,0 3,0 0,4", "--nu", "0.05", "0.35"),
     "error: the following arguments are required: --re"),
    # the battery has orders 1 and 2: --order 3 used to check nothing,
    # print nothing and exit 0
    (("statphase-check", "--order", "3"),
     "error: argument --order: invalid choice: 3"),
])
def test_usage_error_is_one_line_with_exit_1(args, message):
    r = run_cli(*args)
    assert r.returncode == 1
    assert r.stderr.startswith(message)
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""
