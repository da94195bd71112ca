"""Tests of the benchmark itself:  python -m pytest benchmarks"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def run_worker(workload, seed, workdir, *extra):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--workdir", str(workdir),
            "--spawn-ns", "0", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, os.path.join("benchmarks", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["census", "cli"])
def test_same_seed_same_ops_and_digests_across_processes(workload, tmp_path):
    first = run_worker(workload, 5, tmp_path, "--digests")
    second = run_worker(workload, 5, tmp_path, "--digests")
    assert first["texts"] == second["texts"]
    assert first["digests"] == second["digests"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_different_ops(workload, tmp_path):
    one = [op.text for op in workloads.make_ops(workload, 1, str(tmp_path))]
    two = [op.text for op in workloads.make_ops(workload, 2, str(tmp_path))]
    assert one != two


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_checker_flags_wrong_answers(tmp_path):
    check = workloads.make_ops("check", 3, str(tmp_path))
    build = workloads.make_ops("build", 3, str(tmp_path))
    census = workloads.make_ops("census", 3, str(tmp_path))
    cli = workloads.make_ops("cli", 3, str(tmp_path))

    expand = _first(check, "expand_in_basis")
    answer = expand.call()
    wrong = dict(answer)
    key = next(iter(wrong))
    wrong[key] += Fraction(1, 7)
    invariant = next(op for op in check if op.kind == "is_invariant")
    sym = _first(build, "symfunc")
    series = sym.call()
    monomial = series.terms()[0][0]
    dropped = series.add(type(series)(series.alphabet, series.degree, series.window, {monomial: -1}))
    product = _first(build, "multiply")
    enumerate_op = next(op for op in census if op.kind == "enumerate" and "F1" in op.text)
    cli_op = _first(cli, "cli.canon")
    code, out, err, escaped = cli_op.call()

    outcomes = worker.Outcomes()
    outcomes.record(expand, answer, None)
    assert outcomes.failed == 0
    cases = [
        (expand, wrong),
        (invariant, not invariant.call()),
        (sym, dropped),
        (product, product.call().scale(2)),
        (enumerate_op, enumerate_op.call()[:-1]),
        (cli_op, (code, out.replace("f", "g", 1), err, escaped)),
        (cli_op, (1, out, err, escaped)),
    ]
    for op, bad in cases:
        with pytest.raises(workloads.Mismatch):
            op.check(bad)
        outcomes.record(op, bad, None)
    assert outcomes.failed == outcomes.wrong == len(cases)


def test_malformed_probe_needs_clean_exit_2(tmp_path):
    probe = next(op for op in workloads.make_ops("cli", 1, str(tmp_path)) if op.probe)
    probe.check((2, "", "parse error: bad\n", None))
    for bad in ((1, "", "error\n", None), (2, "", "", None),
                (None, "", "", KeyError("monomial")), (0, "{}", "", None)):
        with pytest.raises(workloads.Mismatch):
            probe.check(bad)


def test_speed_probes_scale_each_pass_by_its_median_probe():
    probes = worker.SpeedProbes()
    probes.new_pass()
    probes.passes[-1] = [2 * worker.REFERENCE_NS] * 5 + [worker.REFERENCE_NS // 2] * 2
    assert probes.scale() == 0.5  # a slow pass is scaled down, by its majority
    probes.new_pass()
    probes.passes[-1] = [worker.REFERENCE_NS // 2] * 3
    assert probes.scale() == 2.0  # and a fast one up, regardless of the pass before


def test_traced_cli_stdout_is_byte_identical(tmp_path):
    ops = workloads.make_ops("cli", 4, str(tmp_path))
    plain = [op.call()[:2] for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(ops):
            root = tracer.begin_op(i, op.kind)
            traced.append(op.call()[:2])
            tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert tracer.summarize()["calls"]["cli.main"] == len(ops)
    assert traced == plain


def test_tiny_run_finishes_in_seconds():
    proc = run_bench("--workload", "all", "--seed", "2", "--seconds", "0.05", timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for workload in workloads.WORKLOADS:
        for name in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s",
                     "peak_rss_mib"):
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        proc = run_bench("--workload", "census", "--seed", "7", "--seconds", "0.05",
                         "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in COUNT_UNITS} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["basis.enumerate.raw_labels"] > counts[0]["basis.enumerate.labels_out"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
