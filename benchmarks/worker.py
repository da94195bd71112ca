"""One benchmark worker: a fresh single-threaded process running one workload.

It imports the library from ``src/``, warms up one small call of each
operation kind, generates the seeded operation list, and runs it as a closed
loop: one caller, each operation starting when the previous one returned.
Results are checked against known answers outside the timed region.  The last
line of stdout is one JSON object for ``run.py``.

Times are CPU time of the worker: the thread's for operations, the
process's for set-up.  Time in which the host takes the virtual CPU away
(steal) or another process runs does not count, and no operation here waits
on anything but the CPU (the cli workload reads small files from the page
cache).

They are also reported at a reference speed.  A shared host's speed drifts
(other tenants' load slows every instruction, by up to 2x over seconds to
minutes), and that drift moves all timings of a run together.  Between
operations, outside their timing, the loop times a fixed unit of pure-Python
work that calls nothing in the library (``speed_probe``) about every 0.1 s;
each pass over the operation list is scaled by ``REFERENCE_NS`` over the
median probe time of that pass.  A change to the library moves the scaled
times as it moves the raw ones, while a slow spell of the host moves the
probe too and cancels out.  The report prints wall-time figures beside them.

Set-up time is the worker's CPU time from its start to the end of the
warm-up, scaled by probes taken right after it; input generation comes after
it and is timed apart.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports friezeinv: part of set-up)
from tracer import Tracer, layer_metrics, scaling_table  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
MIN_OPS = 100  # p90 needs at least ten samples beyond it
MIN_PASSES = 3  # throughput is the median over passes
WALL_CAP_S = 140  # the whole run must end well inside three minutes
REFERENCE_NS = 2_500_000  # time of one speed probe at the reference speed
PROBE_EVERY_NS = 100_000_000  # wall time from one speed probe to the next


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Outcomes:
    """Counts of attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures on well-formed requests
        self.probes = 0
        self.probes_failed = 0
        self.reasons: list[str] = []

    def record(self, op, result, error) -> None:
        self.attempted += 1
        self.probes += op.probe
        if error is None:
            try:
                op.check(result)
                return
            except workloads.Mismatch as exc:
                error = exc
        self.failed += 1
        if op.probe:
            self.probes_failed += 1
        else:
            self.wrong += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{op.text}: {type(error).__name__}: {error}")


def run_op(op):
    try:
        return op.call(), None
    except Exception as exc:  # an escaped exception is a failed operation
        return None, exc


def load_digests(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def check_digest(recorded, i, op, result, outcomes) -> None:
    """Compare the first pass against the outputs recorded at the default seed."""
    if recorded is None or i >= len(recorded) or op.probe:
        return
    got = workloads.digest(result)
    if got != recorded[i]:
        outcomes.failed += 1
        outcomes.wrong += 1
        outcomes.reasons.append(f"{op.text}: digest {got} differs from recorded {recorded[i]}")


def speed_probe() -> int:
    """A fixed unit of pure-Python work of the kind the library does: a dict
    of 2000 small tuple keys, then its items sorted.  It calls nothing in the
    library and leaves nothing behind; the collector is off while it runs,
    so that its time does not depend on the size of the library's heap.  Of
    the probes tried, this one tracked the workloads' slowdowns closest: over
    passes in fast and slow spells of a 2-vCPU Xeon VM, the log of a pass's
    operation time against the log of its median probe time had a slope of
    0.77 (check) to 0.96 (census), where a Fraction-heavy or a smaller probe
    gave 0.54 to 0.77."""
    gc.disable()
    try:
        counts: dict = {}
        for i in range(2000):
            key = ((i * 7919) % 101 - 50, (i * 31) % 53, i % 7)
            counts[key] = counts.get(key, 0) + i
        return len(sorted(counts.items()))
    finally:
        gc.enable()


def time_probe() -> int:
    t0 = time.thread_time_ns()
    speed_probe()
    return time.thread_time_ns() - t0


def current_scale(count: int = 15) -> float:
    """Reference over the median of ``count`` back-to-back probes."""
    for _ in range(5):  # warm the probe's code paths before timing it
        speed_probe()
    return REFERENCE_NS / statistics.median(time_probe() for _ in range(count))


class SpeedProbes:
    """Speed-probe times taken between operations, grouped by pass."""

    def __init__(self) -> None:
        for _ in range(20):  # warm the probe's code paths before timing it
            speed_probe()
        self.passes: list[list[int]] = []
        self.last = 0

    def new_pass(self) -> None:
        self.passes.append([])
        self.take(force=True)

    def take(self, force: bool = False) -> None:
        """Time one probe if PROBE_EVERY_NS have passed since the last one."""
        if force or time.perf_counter_ns() - self.last >= PROBE_EVERY_NS:
            self.passes[-1].append(time_probe())
            self.last = time.perf_counter_ns()

    def scale(self) -> float:
        """Scale of the current pass: reference over its median probe time."""
        return REFERENCE_NS / statistics.median(self.passes[-1])


def closed_loop(ops, seconds, outcomes, recorded):
    """Run whole passes over the op list until ``seconds`` of operation time
    (and at least MIN_PASSES passes and MIN_OPS operations) have been spent.
    Returns every latency (CPU time scaled to the reference speed), every wall
    latency, the CPU time of each pass (raw and scaled) and the probes."""
    scaled: list[float] = []
    walls: list[int] = []
    passes: list[int] = []
    scaled_passes: list[float] = []
    probes = SpeedProbes()
    deadline = monotonic_ns() + WALL_CAP_S * 10**9

    def after_op(i, op, result):
        if not passes:
            check_digest(recorded, i, op, result, outcomes)
        probes.take()

    while (sum(passes) < seconds * 1e9 or len(passes) < MIN_PASSES
           or len(scaled) < MIN_OPS) and monotonic_ns() < deadline:
        probes.new_pass()
        pass_latencies: list[int] = []
        busy = one_pass(ops, outcomes, latencies=pass_latencies, walls=walls, after_op=after_op)
        probes.take(force=True)
        scale = probes.scale()
        passes.append(busy)
        scaled_passes.append(busy * scale)
        scaled += [dt * scale for dt in pass_latencies]
    return scaled, walls, passes, scaled_passes, [t for p in probes.passes for t in p]


def one_pass(ops, outcomes, tracer=None, latencies=None, walls=None, after_op=None):
    """Run every op once; returns the summed operation CPU time in ns.  Each
    op's CPU time is appended to ``latencies``, its wall time to ``walls``,
    and ``after_op(i, op, result)`` is called after its check, all when given."""
    busy = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            root = tracer.begin_op(i, op.kind)
        w0 = time.perf_counter_ns()
        t0 = time.thread_time_ns()
        result, error = run_op(op)
        dt = time.thread_time_ns() - t0
        wall = time.perf_counter_ns() - w0
        busy += dt
        if latencies is not None:
            latencies.append(dt)
        if walls is not None:
            walls.append(wall)
        if tracer is not None:
            tracer.end_op(root)
            if op.kind.startswith("cli.") and result is not None:
                tracer.counters["cli.stdout_bytes"] += len(result[1].encode())
                tracer.counters["cli.exit2"] += result[0] == 2
            op.sizes["terms_out"] = workloads.terms_out(result)
        outcomes.record(op, result, error)
        if after_op is not None:
            after_op(i, op, result)
    return busy


def traced_run(ops, seconds, outcomes, workload):
    """Alternate untraced and traced passes over the op list until ``seconds``
    have passed (at least one of each); the per-layer numbers are per pass."""
    tracer = Tracer()
    plain, traced, summaries = [], [], []
    start = monotonic_ns()
    while not plain or (monotonic_ns() - start < seconds * 1e9 and len(plain) < 50):
        plain.append(one_pass(ops, outcomes))
        tracer.reset()
        tracer.install()
        try:
            traced.append(one_pass(ops, outcomes, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summarize())
        if len(summaries) == 1:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"trace-{workload}.spans"),
                        [{"id": i, "kind": op.kind, "text": op.text, **op.sizes}
                         for i, op in enumerate(ops)])
    return {
        "passes": len(plain),
        "spans_per_pass": summaries[0]["spans"],
        "metrics": layer_metrics(summaries, plain, traced),
        "scaling": scaling_table(summaries[0], [op.sizes for op in ops]),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--digests", action="store_true", help="print first-pass digests")
    args = parser.parse_args()

    warm = Outcomes()
    for op in workloads.warmup_ops(args.workload, args.workdir):
        result, error = run_op(op)
        if not op.probe:  # malformed requests are judged in the timed phase only
            warm.record(op, result, error)
    setup_wall_s = (monotonic_ns() - args.spawn_ns) / 1e9
    setup_cpu_s = time.process_time()
    report = {"setup_s": setup_cpu_s * current_scale(), "setup_wall_s": setup_wall_s,
              "warmup_failed": warm.failed, "reasons": warm.reasons}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    t0 = time.perf_counter()
    ops = workloads.make_ops(args.workload, args.seed, args.workdir)
    report["generate_s"] = time.perf_counter() - t0
    report["ops_per_pass"] = len(ops)
    outcomes = Outcomes()

    if args.digests:
        report["texts"] = [op.text for op in ops]
        report["digests"] = [workloads.digest(run_op(op)[0]) for op in ops]
    elif args.trace:
        report["trace"] = traced_run(ops, args.seconds, outcomes, args.workload)
    else:
        recorded = load_digests(args.workload, args.seed)
        report["digests_checked"] = recorded is not None
        scaled, walls, passes, scaled_passes, probes = closed_loop(
            ops, args.seconds, outcomes, recorded)
        n = len(ops)
        wall = statistics.quantiles(walls, n=10, method="inclusive")
        deciles = statistics.quantiles(scaled, n=10, method="inclusive")
        report.update(
            samples=len(scaled),
            passes=len(passes),
            busy_s=sum(passes) / 1e9,
            wall_s=sum(walls) / 1e9,
            speed_probes=len(probes),
            speed_probe_ms=[min(probes) / 1e6, statistics.median(probes) / 1e6, max(probes) / 1e6],
            wall_latency_p50_ms=wall[4] / 1e6,
            wall_latency_p90_ms=wall[8] / 1e6,
            cpu_throughput_ops_s=n / (statistics.median(passes) / 1e9),
            throughput_ops_s=n / (statistics.median(scaled_passes) / 1e9),
            latency_p50_ms=deciles[4] / 1e6,
            latency_p90_ms=deciles[8] / 1e6,
        )
    report.update(
        attempted=outcomes.attempted,
        failed=outcomes.failed + warm.failed,
        wrong=outcomes.wrong + warm.failed,
        probes=outcomes.probes,
        probes_failed=outcomes.probes_failed,
        reasons=warm.reasons + outcomes.reasons,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
