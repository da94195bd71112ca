"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, the median, the quartiles and the spread: the distance
between the first and third quartile as a share of the median.

    python3 benchmarks/steadiness.py --seeds 101-110 [--workload build ...] \\
        [--seconds S] [--out .bench_out/steadiness.json]

``--seconds`` defaults to ``run_seconds`` from BENCHMARK.json.  A spread above
a third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("101-110"))
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "steadiness.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    steady = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            flag = spread > bounds[name] / 3
            steady &= not flag
            summary[workload][name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            print(f"  {workload:7s} {name:18s} median {statistics.median(vals):10.4f} "
                  f"spread {spread:.3f} (bound {bounds[name]}){'  WIDE' if flag else ''}")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "workloads": summary},
                  handle, indent=1)
    print(f"{'steady' if steady else 'NOT steady'}; written to {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
