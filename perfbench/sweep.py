"""Run every workload over several seeds and summarize each metric.

Run from the repository root::

    python3 perfbench/sweep.py --seeds 10 --out perfbench/results/sweep.json

For each workload this runs ``run.py`` untraced once per seed, then traced
twice on the first seed, each run as its own process with the
``run_seconds`` of BENCHMARK.json.  It prints every end-to-end metric by
name and unit with its median, quartiles and spread (quartile distance over
median), plus ``fail_ratio`` (failed jobs over attempted jobs), then the
per-layer metrics of the traced runs.  The two traced runs must agree on
every per-layer count.  All run results, with their environment lines, go to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    produced = {"workloads": list(WORKLOADS), "end_to_end": END_TO_END, "per_layer": PER_LAYER}
    if declared != produced:
        raise SystemExit("BENCHMARK.json does not match the metrics run.py produces")
    return bench


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2].removeprefix("env "))
    result["elapsed_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--out", type=Path)
    opts = parser.parse_args()

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(1, opts.seeds + 1)
    report: dict = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        untraced = [run_once(name, seed, seconds, 0) for seed in seeds]
        traced = [run_once(name, seeds[0], seconds, 1) for _ in range(2)]
        attempted = sum(r["attempted"] for r in untraced + traced)
        failed = sum(r["failed"] for r in untraced + traced)
        correct = all(r["correct"] for r in untraced + traced)
        summary = {
            metric: dict(spread([r["metrics"][metric]["value"] for r in untraced]), unit=unit)
            for metric, unit in END_TO_END.items()
        }
        print(f"{name}: {len(untraced)} untraced runs, {len(traced)} traced runs, "
              f"correct {correct}")
        for metric, s in summary.items():
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  (spread above bound/3)"
            print(f"  {metric:<40s} {s['median']:>12.6g} {s['unit']:<6s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[metric]}{flag}")
        print(f"  {'fail_ratio':<40s} {failed / max(attempted, 1):>12.6g} ratio  "
              f"({failed} of {attempted} jobs)")
        first, second = (r["metrics"] for r in traced)
        for metric, unit in PER_LAYER.items():
            value = first[metric]["value"]
            if unit != "s" and value != second[metric]["value"]:
                print(f"  count {metric} differs between traced runs")
                correct = False
            print(f"  {metric:<40s} {value:>12.6g} {unit}")
        ok &= correct and failed == 0
        report["workloads"][name] = {
            "untraced": untraced, "traced": traced, "summary": summary,
            "fail_ratio": failed / max(attempted, 1), "correct": correct,
        }
    if opts.out:
        opts.out.parent.mkdir(parents=True, exist_ok=True)
        opts.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
