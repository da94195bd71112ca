"""Layered benchmark of friezeinv.

    python3 benchmarks/run.py --workload build|check|census|cli|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh single-threaded worker process as a closed
loop (one caller; each operation starts when the previous one returned) over
a seeded operation list, and every result is checked against a known answer.
Set-up time is sampled in several fresh workers, before and after the
measuring one, and reported as the median.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which wraps the library's public functions with timing spans and
alternates traced and untraced passes over the same operation list.

The lines before it are a readable report, including the error rate, the
sample count, the input-generation time and, for traced runs, self time per
layer against the window N and the degree k.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# this process never imports the library, so these mirror workloads.py
WORKLOADS = ("build", "check", "census", "cli")
DEFAULT_SEED = 1
# fresh set-up-only workers before and after the measuring one; set-up time is
# the median of these and the measuring worker's own, so that a slow spell of
# a second or two on a shared machine moves fewer than half of the samples
SETUP_SAMPLES_EACH_SIDE = 4
RUN_BUDGET_S = 170  # one workload must finish inside three minutes
REFERENCE_MS = 2.5  # worker.REFERENCE_NS, the speed probe's time at the reference speed

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, workdir: str,
          deadline: float, *extra: str) -> dict:
    """Run one fresh worker and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the worker started")
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv + ["--spawn-ns", str(spawn_ns), *extra], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up samples plus one measuring worker; returns the merged report."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(ROOT, ".bench_out", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    def setup_only() -> dict:
        return spawn(workload, seed, seconds, trace, workdir, deadline, "--setup-only")

    try:
        setups = [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        report = spawn(workload, seed, seconds, trace, workdir, deadline)
        setups += [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = [s["setup_s"] for s in setups] + [report["setup_s"]]
    report["setup_samples"] = samples
    report["setup_s"] = statistics.median(samples)
    report["setup_wall_s"] = statistics.median([s["setup_wall_s"] for s in setups + [report]])
    for s in setups:
        report["failed"] += s["warmup_failed"]
        report["wrong"] += s["warmup_failed"]
        report["reasons"] += s["reasons"]
    return report


def metrics_of(report: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": value, "unit": layer_unit(name)}
                for name, value in report["trace"]["metrics"].items()}
    return {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}


def print_report(workload: str, seed: int, report: dict, trace: int) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"== {workload} (seed {seed}): {report['ops_per_pass']} ops per pass, "
          f"inputs generated in {report['generate_s']:.2f} s")
    print(f"   error_rate {failed / max(attempted, 1):.4f} ({failed} of {attempted} failed; "
          f"{report['probes_failed']} of {report['probes']} malformed requests did not exit 2 "
          f"cleanly; {report['wrong']} wrong answers)")
    if not trace:
        print(f"   samples {report['samples']} in {report['passes']} passes, "
              f"operation CPU time {report['busy_s']:.2f} s, "
              f"digests checked: {report['digests_checked']}")
        low, mid, high = report["speed_probe_ms"]
        print(f"   {report['speed_probes']} speed probes: {mid:.3f} ms median ({low:.3f}-{high:.3f}); "
              f"times below are scaled to {REFERENCE_MS} ms per probe")
        print(f"   wall time: throughput {report['samples'] / report['wall_s']:.4f} 1/s, "
              f"p50 {report['wall_latency_p50_ms']:.4f} ms, p90 {report['wall_latency_p90_ms']:.4f} ms, "
              f"set-up {report['setup_wall_s']:.4f} s")
    for name, metric in metrics_of(report, trace).items():
        print(f"   {name:44s} {metric['value']:14.4f} {metric['unit']}")
    if trace:
        info = report["trace"]
        print(f"   {info['passes']} traced passes, {info['spans_per_pass']} spans per pass")
        table = info["scaling"]
        columns = sorted({c for row in table.values() for c in row},
                         key=lambda c: (c[0], int(c[2:])))
        if columns:
            print("   self ms per op by size:" + "".join(f"{c:>10s}" for c in columns))
            for layer in sorted(table):
                row = table[layer]
                print(f"   {layer:24s}" + "".join(f"{row.get(c, 0.0):10.3f}" for c in columns))
    for reason in report["reasons"][:10]:
        print(f"   failure: {reason}")


def record_digests() -> None:
    """Write the first-pass output digests of the default seed for every
    library workload (the cli workload is checked against the library instead)."""
    out = {}
    for workload in ("build", "check", "census"):
        workdir = os.path.join(ROOT, ".bench_out", f"digests-{workload}")
        os.makedirs(workdir, exist_ok=True)
        try:
            report = spawn(workload, DEFAULT_SEED, 0, 0, workdir,
                           time.monotonic() + 600, "--digests")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out[workload] = report["digests"]
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the library at this commit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "friezeinv", "__init__.py")):
        print(f"error: no friezeinv sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for workload, report in results.items():
        print_report(workload, args.seed, report, args.trace)

    if len(names) == 1:
        metrics = metrics_of(results[names[0]], args.trace)
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in metrics_of(r, args.trace).items()}
    print(json.dumps({
        # a wrong answer to a well-formed request makes the run incorrect;
        # malformed requests that do not exit 2 cleanly count in ``failed``
        "correct": all(r["wrong"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
