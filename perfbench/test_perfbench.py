"""Self-tests of the benchmark: seeded inputs, output checks and span accounting.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys

import pytest

import run
import speed
import workloads
from tracer import Tracer, covered_time, self_times
from workloads import WORKLOADS, make_pass


def _specs(name, seed, pass_index, tiny=False):
    return [op.spec for op in make_pass(WORKLOADS[name], seed, pass_index, tiny)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_always_gives_the_same_inputs(name):
    wl = WORKLOADS[name]
    first = _specs(name, 11, 0)
    assert json.dumps(first) == json.dumps(_specs(name, 11, 0))
    assert len(first) == wl.slots
    assert _specs(name, 11, 1) != first  # every pass draws new values
    assert _specs(name, 12, 0) != first


def _run_tiny(name, ctx, seed=5):
    wl = WORKLOADS[name]
    ops = make_pass(wl, seed, 0, tiny=True)
    run._prepare(wl, ops, ctx)
    run._execute(wl, ops, ctx)
    run._check(wl, ops, ctx)
    return ops


@pytest.fixture
def ctx(tmp_path):
    return {"tmp": tmp_path, "env": workloads.cli_env()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name, ctx):
    ops = _run_tiny(name, ctx)
    assert [op.error for op in ops] == [None] * len(ops)
    if name in ("figures-cli", "scan-emit"):
        assert all(op.digest for op in ops)
        assert not list(ctx["tmp"].glob("*.csv")) and not list(ctx["tmp"].glob("*.json"))


def test_checks_catch_a_wrong_output(ctx):
    wl = WORKLOADS["peak-search"]
    op = make_pass(wl, 5, 0, tiny=True)[0]
    op.args = wl.prepare(op.spec, ctx)
    op.result = wl.run(op.args, ctx)
    object.__setattr__(op.result, "with_interaction", op.result.with_interaction * 0.5)
    with pytest.raises(workloads.CheckFailed):
        wl.check(op, ctx)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_seconds_cancel_host_speed(name):
    # the same pass on a host twice as slow: twice the time, twice the kernel time
    wl = WORKLOADS[name]
    fast = make_pass(wl, 5, 0, tiny=True)
    for n, op in enumerate(fast):
        op.seconds, op.ref_s = 0.1 * (n + 1), 0.005
    slow = make_pass(wl, 5, 0, tiny=True)
    for op, ref in zip(slow, fast):
        op.seconds, op.ref_s = 2 * ref.seconds, 2 * ref.ref_s
    assert run._reference_seconds(wl, slow) == pytest.approx(run._reference_seconds(wl, fast))
    assert run._reference_seconds(wl, fast) == pytest.approx(
        [op.seconds * speed.NOMINAL_S[wl.pooled(op.spec)] / 0.005 for op in fast])


def test_kernel_runs_serial_and_pooled():
    assert speed.kernel(pooled=False) > 0.0 and speed.kernel(pooled=True) > 0.0


def test_self_times_partition_overlapping_threads():
    # parent [0, 10] with two pool children [1, 5] and [2, 6] in other threads
    spans = [(0, None, "p", 0.0, 10.0), (1, 0, "a", 1.0, 5.0), (2, 0, "b", 2.0, 6.0)]
    own, calls = self_times(spans)
    assert own == pytest.approx({"p": 5.0, "a": 2.5, "b": 2.5})
    assert calls == {"p": 1, "a": 1, "b": 1}
    assert covered_time(spans) == pytest.approx(10.0)


@pytest.mark.parametrize("name", ["peak-search", "scan-emit", "crosscheck"])
def test_traced_self_times_and_unaccounted_add_up_to_wall(name, ctx):
    wl = WORKLOADS[name]
    ops = make_pass(wl, 5, 0, tiny=True)
    run._prepare(wl, ops, ctx)
    tracer = Tracer()
    with tracer.installed():
        run._execute(wl, ops, ctx)
    run._check(wl, ops, ctx)
    assert [op.error for op in ops] == [None] * len(ops)
    wall = sum(op.seconds for op in ops)
    metrics, detail = run._per_layer(tracer.spans, tracer.counters, (0, 0),
                                     (wall, wall, wall), 1.0, [(0.5, 0.3)], 2)
    assert detail["self_s_total"] + metrics["trace.unaccounted_s"] == pytest.approx(wall, abs=1e-9)
    assert 0.0 <= metrics["trace.unaccounted_s"] < wall
    layer = {"peak-search": "sweeps.max_concurrence.calls", "scan-emit": "cli.emit.calls",
             "crosscheck": "oracle.integrate.calls"}[name]
    assert metrics[layer] > 0
    # uninstalled: the package's own functions are back
    assert workloads.sweeps.max_concurrence.__module__ == "unruh_pair.sweeps"
    assert not hasattr(workloads.cli.main, "__wrapped__")


def test_traced_cli_subprocess_spans_merge(ctx):
    wl = WORKLOADS["figures-cli"]
    ops = make_pass(wl, 5, 0, tiny=True)[-1:]  # the oracle command
    trace_ctx = dict(ctx, trace_dir=ctx["tmp"])
    run._prepare(wl, ops, trace_ctx)
    run._execute(wl, ops, trace_ctx)
    spans, counters, cache = run._spans_of(wl, ops, None, None)
    run._check(wl, ops, trace_ctx)
    assert ops[0].error is None
    own, calls = self_times(spans)
    assert calls["cli.main"] == 1 and calls["oracle.integrate"] == 8
    assert counters["oracle.integrate.rk4_steps"] > 0 and sum(cache) > 0
    assert sum(own.values()) == pytest.approx(covered_time(spans), abs=1e-9)
    assert covered_time(spans) < ops[0].seconds


def test_setup_probe_reports_kernel_from_the_same_interpreter(ctx):
    seconds, kernel, pooled = run._setup_probe(WORKLOADS["figures-cli"], 1, ctx)
    assert len(seconds) == len(kernel) == run.SETUP_REPEATS and not pooled
    assert all(t > 0.0 for t in seconds) and all(0.0 < k < 1.0 for k in kernel)


def test_import_probe_separates_scipy():
    total, scipy = run._importtime(workloads.cli_env())
    assert 0.0 < scipy < total


def test_missing_package_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py", "speed.py"):
        (bench / name).write_bytes((workloads.BENCH_DIR / name).read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
