#!/usr/bin/env python3
"""Alternating base/head runs of perfbench, collected into one BENCH file.

    python3 scripts/bench_pairs.py --base DIR --head DIR --out BENCH_N.json
        [--workload W ...] [--pairs 10] [--seconds 10] [--seed 345]

``--base`` and ``--head`` are two checkouts of the repository, for
example ``git archive`` of the parent commit and of the change, each
unpacked in its own directory.  For every workload, pair ``i`` runs
``python3 perfbench/run.py --workload W --seconds S --seed SEED`` in both
checkouts, base first when ``i`` is even and head first when it is odd,
and keeps the JSON object of the last stdout line of each run (``json.dumps``
of it gives that line back byte for byte).  After the pairs, one
``--trace 1`` run per workload and checkout gives the per-layer counts and
the ``monodromy.us_per_point`` batch sweep.  The output holds those lines,
the environment the runs printed (``nproc``, CPU model, commits), and per
metric the medians and quartiles of both sides, the pairs head won, and
the verdicts of ``summarise`` against the head checkout's
``BENCHMARK.json`` (read, never written).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tri345-scan", "gap-survey", "twocone-pool", "oracle-battery")


def run(checkout: Path, workload: str, seconds: float, seed: int,
        trace: int) -> tuple[dict, dict]:
    """(last-line JSON, environment) of one perfbench run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# environment "):]) for line in lines
               if line.startswith("# environment "))
    return json.loads(lines[-1]), env


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarise(pairs: list[dict], benchmark: dict) -> dict:
    """Per metric: both sides' quartiles, the pairs head won, and verdicts.

    ``benchmark`` is the parsed BENCHMARK.json; a metric is better lower
    unless it declares ``"better": "higher"``.  Besides the quartiles:

    - ``head_wins``: pairs where head was better (ties count for neither)
    - ``base_iqr``: q3 - q1 of the base runs
    - ``median_change``: (head - base) / base of the medians, or None
      when the base median is 0
    - ``claim_met``: head won at least 9 pairs in 10 and its median is
      better than the base median by more than ``base_iqr``
    - ``within_bound``, for end-to-end metrics: the head median is worse
      than the base median by at most the metric's ``bound`` of it
    """
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        metric = declared.get(name, {})
        sign = -1.0 if metric.get("better") == "higher" else 1.0
        b, h = quartiles(base), quartiles(head)
        wins = sum(sign * (y - x) < 0 for x, y in zip(base, head))
        iqr = b["q3"] - b["q1"]
        out[name] = {"base": b, "head": h, "head_wins": wins, "pairs": len(pairs),
                     "base_iqr": iqr,
                     "median_change": ((h["median"] - b["median"]) / b["median"]
                                       if b["median"] else None),
                     "claim_met": (10 * wins >= 9 * len(pairs)
                                   and sign * (b["median"] - h["median"]) > iqr)}
        if "bound" in metric:
            out[name]["within_bound"] = (sign * (h["median"] - b["median"])
                                         <= metric["bound"] * abs(b["median"]))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=345)
    args = p.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    benchmark = json.loads((sides["head"] / "BENCHMARK.json").read_text())
    record = {"command": f"python3 perfbench/run.py --workload W "
                         f"--seconds {args.seconds:g} --seed {args.seed}",
              "environment": {}, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side], record["environment"][side] = run(
                    sides[side], workload, args.seconds, args.seed, 0)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}", file=sys.stderr)
        traced = {side: run(path, workload, args.seconds, args.seed, 1)[0]
                  for side, path in sides.items()}
        record["workloads"][workload] = {"pairs": pairs,
                                         "summary": summarise(pairs, benchmark),
                                         "trace": traced}
        # rewritten after every workload, so a late failure keeps the rest
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
