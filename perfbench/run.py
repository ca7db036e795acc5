#!/usr/bin/env python3
"""Benchmark runner for coneres.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` it runs one workload closed-loop (one caller, units of
work back to back) for ``--seconds`` of timed work, checks every output,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Without ``--workload`` it runs every workload, each in a fresh process,
and prints one table.  Run from the repository root; the package is
imported from ``src/`` next to this directory.  Full records, and the
spans of traced runs, go to ``perfbench/out/``.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()     # setup_s counts from here: imports included

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# one BLAS thread, so jobs=2 never puts more threads to work than cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONERES_TOL_OVERRIDES", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
SWEEP_SIZES = (1, 22, 200, 2000)
# Calibration kernel time on the reference machine (2-vCPU Intel Xeon,
# uncontended).  Timed metrics are scaled by CAL_REF_S / (calibration time
# measured next to them), i.e. reported in seconds of that machine.
CAL_REF_S = 0.055
# reported next to the bounded metrics, in the records and the tables
EXTRA_UNITS = {"zeros_per_s": "1/s", "fail_frac": "ratio", "raw_solve_s": "s",
               "raw_cpu_s": "s", "raw_setup_s": "s", "speed": "ratio"}


def _import_package():
    if not (SRC / "coneres" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'coneres'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import coneres
    if Path(coneres.__file__).resolve().parent != (SRC / "coneres").resolve():
        sys.exit(f"error: imported coneres from {coneres.__file__}, not {SRC}")


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0     # ru_maxrss is in KiB on Linux


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "git_commit": _git_commit(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


class Calibration:
    """Machine speed from a fixed kernel that does not touch coneres.

    On the 2-vCPU reference machine the CPU speed switches between
    regimes for milliseconds to minutes at a time (about 1.5x apart;
    see README.md).  Timing this kernel next to every unit of work and
    scaling by it removes most of that drift.  The kernel mixes interpreter work with batched small LU,
    as the workloads do.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._a = (rng.standard_normal((2000, 6, 6))
                   + 1j * rng.standard_normal((2000, 6, 6)))
        self.measure()               # first call pays one-off costs
        self.last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        for _ in range(15):
            self._np.linalg.det(self._a)
        return time.perf_counter() - t0

    def timed(self, workload, jobs: int):
        """Run one unit of work: (raw output, wall s, cpu s, speed factor)."""
        before = self.last
        c0, w0 = _cpu_seconds(), time.perf_counter()
        raw = workload.solve(jobs)
        wall, cpu = time.perf_counter() - w0, _cpu_seconds() - c0
        self.last = self.measure()
        return raw, wall, cpu, CAL_REF_S / (0.5 * (before + self.last))


def setup_probe(name: str, seed: int) -> None:
    """Import the package and build the workload's inputs.

    Prints the seconds taken and the speed factor measured right after.
    """
    _import_package()
    from workloads import WORKLOADS
    WORKLOADS[name]().setup(seed, OUT)
    elapsed = time.perf_counter() - _T0
    print(f"{elapsed!r} {CAL_REF_S / Calibration().last!r}")


def _setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, speed) of fresh interpreters, each importing and building anew."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        elapsed, speed = proc.stdout.split()[-2:]
        out.append((float(elapsed), float(speed)))
    return out


def run_plain(workload, seed: int, seconds: float, tally) -> dict:
    workload.setup(seed, OUT / f"work-{os.getpid()}")
    cal = Calibration()
    walls, cpus, speeds = [], [], []
    while not walls or sum(walls) < seconds:
        raw, wall, cpu, speed = cal.timed(workload, workload.jobs)
        tally.add(workload.check(raw))
        walls.append(wall)
        cpus.append(cpu)
        speeds.append(speed)
    peak = _peak_rss_mb()          # before the set-up probes add children
    setups = _setup_seconds(workload.name, seed)
    scaled = [w * v for w, v in zip(walls, speeds)]
    return {
        "metrics": {"solve_s": statistics.median(scaled),
                    "cpu_s": statistics.median(c * v for c, v in zip(cpus, speeds)),
                    "setup_s": statistics.median(t * v for t, v in setups),
                    "peak_rss_mb": peak},
        "extra": {"zeros_per_s": tally.zeros / sum(scaled),
                  "fail_frac": tally.failed / tally.attempted,
                  "raw_solve_s": statistics.median(walls),
                  "raw_cpu_s": statistics.median(cpus),
                  "raw_setup_s": statistics.median(t for t, _ in setups),
                  "speed": statistics.median(speeds)},
        "samples": {"wall_s": walls, "cpu_s": cpus, "speed": speeds,
                    "setup": setups},
    }


def batch_sweep(cal: Calibration, budget: float = 0.04) -> dict[str, float]:
    """Microseconds per point of the char function at fixed batch sizes."""
    import coneres
    from workloads import sweep_points, sweep_specs
    out = {}
    for label, spec in sweep_specs().items():
        cf = coneres.char_function(spec)
        for meth in ("values", "values_and_derivs"):
            fn = getattr(cf, meth)
            for size in SWEEP_SIZES:
                lam = sweep_points(size)
                fn(lam)
                before = cal.measure()
                blocks = []
                for _ in range(3):
                    calls, t0 = 0, time.perf_counter()
                    while calls < 3 or time.perf_counter() - t0 < budget:
                        fn(lam)
                        calls += 1
                    blocks.append((time.perf_counter() - t0) / (calls * size))
                key = f"monodromy.us_per_point.{label}.{meth}.b{size}"
                speed = CAL_REF_S / (0.5 * (before + cal.measure()))
                out[key] = 1e6 * speed * statistics.median(blocks)
    return out


def run_traced(workload, seed: int, seconds: float, tally) -> dict:
    from spans import Tracer, combine_units, join_phases, layer_metrics, scale_times
    tracer = Tracer()
    tracer.install()
    lo = tracer.mark()
    workload.setup(seed, OUT / f"work-{os.getpid()}")
    setup_phase = (lo, tracer.mark())
    tracer.uninstall()
    cal = Calibration()
    units, traced, plain, pooled = [], [], [], []
    first_rep = None
    try:
        while not traced or sum(traced) + sum(plain) + sum(pooled) < seconds:
            # worker processes are invisible to the tracer: trace at jobs=1
            raw, wall, _, speed = cal.timed(workload, 1)
            tally.add(workload.check(raw))
            plain.append(wall * speed)
            if workload.jobs > 1:
                raw, wall, _, speed = cal.timed(workload, workload.jobs)
                tally.add(workload.check(raw))
                pooled.append(wall * speed)
            tracer.install()
            lo = tracer.mark()
            raw, wall, _, speed = cal.timed(workload, 1)
            tracer.uninstall()
            rep = (lo, tracer.mark())
            outcome = workload.check(raw)
            tally.add(outcome)
            traced.append(wall * speed)
            unit = join_phases(tracer.spans, [setup_phase, rep])
            units.append(scale_times(layer_metrics(unit, outcome.zeros), speed))
            first_rep = first_rep or rep
    finally:
        tracer.uninstall()
    metrics = combine_units(units)
    metrics["resonances.pool_speedup"] = (
        statistics.median(plain) / statistics.median(pooled) if pooled else 0.0)
    metrics["bench.trace_overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics.update(batch_sweep(cal))
    spans = join_phases(tracer.spans, [setup_phase, first_rep])
    return {"metrics": metrics,
            "samples": {"traced_s": traced, "untraced_s": plain,
                        "pooled_s": pooled},
            "spans": spans}


def _declared(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for the run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    from workloads import WORKLOADS, Outcome
    if name not in WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]()
    tally = Outcome()      # every operation the run checks
    try:
        result = (run_traced if trace else run_plain)(workload, seed, seconds, tally)
    finally:
        shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)
    units = _declared(trace)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "attempted": tally.attempted, "failed": tally.failed,
              "zeros": tally.zeros, "problems": tally.problems,
              "metrics": metrics, "extra": result.get("extra", {}),
              "samples": result["samples"]}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{name}.seed{seed}.trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for i, s in enumerate(result["spans"]):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "exc": s.exc, "points": s.points}) + "\n")
    print(f"# {name} seed {seed}: {tally.attempted} operations, "
          f"{tally.failed} failed, {tally.zeros} zeros")
    print("# environment " + json.dumps(record["environment"]))
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    for key, value in {**metrics, **record["extra"]}.items():
        print(f"# {key:48s} {value:.6g} {units.get(key, EXTRA_UNITS.get(key))}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; one table of the records."""
    _import_package()
    from workloads import WORKLOADS
    rows, ok = [], True
    for name in WORKLOADS:
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(int(trace))],
                       check=True, stdout=subprocess.DEVNULL, timeout=600)
        with open(OUT / f"{name}.seed{seed}.trace{int(trace)}.json",
                  encoding="utf-8") as fh:
            rows.append(json.load(fh))
        ok = ok and rows[-1]["failed"] == 0
    units = {**_declared(trace), **EXTRA_UNITS}
    keys = list(rows[0]["metrics"]) + list(rows[0]["extra"])
    print(f"{'metric':48s} " + " ".join(f"{r['workload']:>15s}" for r in rows))
    for key in keys:
        cells = []
        for r in rows:
            value = {**r["metrics"], **r["extra"]}.get(key)
            if key == "zeros_per_s" and r["zeros"] == 0:
                value = None           # nothing is located on this workload
            cells.append(f"{value:15.6g}" if value is not None else f"{'-':>15s}")
        print(f"{key + ' [' + units[key] + ']':48s} " + " ".join(cells))
    return 0 if ok else 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=345)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
