"""unruh-pair benchmark: one seeded workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this directory.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same passes untraced, traced and single-threaded and
reports the per-layer metrics of the traced pass.  Every operation's output
is checked; failures are counted, never fatal.  A readable summary goes to
stdout, the full record (machine, inputs, digests, per-function table) to
``.perfbench/results/``, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
from tracer import Tracer, covered_time, self_times

try:  # imports the package from src/; main() reports a checkout without it
    import workloads
except ImportError as exc:
    workloads, _IMPORT_ERROR = None, exc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "pass_wall_s": "s",
    "points_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
_CALLS_AND_SELF = ("params.coefficients", "sweeps.max_concurrence", "xstate.evolve",
                   "entanglement.numerical_initial_rate", "entanglement.concurrence_x",
                   "entanglement.concurrence_general", "oracle.integrate", "cli.emit")
_SELF_ONLY = ("sweeps.max_concurrence_sweep", "sweeps.rate_sweep", "sweeps.region_scan",
              "oracle.build_gkls", "cli.main", "cli.parse_cli")
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    **{f"{f}.{k}": u for f in _CALLS_AND_SELF for k, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{f}.self_s": "s" for f in _SELF_ONLY},
    "sweeps.pool.workers": "count",
    "sweeps.pool.speedup": "ratio",
    "xstate.flow_cache.hit_ratio": "ratio",
    "oracle.integrate.rk4_steps": "count",
    "cli.emit.bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# running passes


def _execute(wl, ops, ctx) -> None:
    for op in ops:
        op.ref_s = speed.kernel(wl.pooled(op.spec))
        start = time.perf_counter()
        try:
            op.result = wl.run(op.args, ctx)
        except Exception as exc:  # a failing operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start


def _prepare(wl, ops, ctx) -> None:
    for op in ops:
        try:
            op.args = wl.prepare(op.spec, ctx)
        except Exception as exc:
            op.error = f"prepare: {type(exc).__name__}: {exc}"


def _check(wl, ops, ctx) -> None:
    for op in ops:
        if op.error is not None:
            continue
        try:
            wl.check(op, ctx)
        except workloads.CheckFailed as exc:
            op.error = f"check: {exc}"
        except Exception as exc:
            op.error = f"check raised {type(exc).__name__}: {exc}"


def _run_pass(wl, seed, pass_index, ctx, tracer=None) -> list:
    """One pass: prepared before, run (inside `tracer` if given), checked after."""
    ops = workloads.make_pass(wl, seed, pass_index)
    _prepare(wl, ops, ctx)
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        _execute(wl, [op for op in ops if op.error is None], ctx)
    _check(wl, ops, ctx)
    return ops


def _wall(passes) -> float:
    return sum(op.seconds for ops in passes for op in ops)


def _reference_seconds(wl, ops) -> list[float]:
    """The pass's latencies in reference seconds (speed.py): each scaled by the pass's
    samples of the kernel that runs the way the operation does, serial or pooled."""
    pooled = [wl.pooled(op.spec) for op in ops]
    factor = {kind: speed.scale([op.ref_s for op, p in zip(ops, pooled) if p == kind], kind)
              for kind in set(pooled)}
    return [op.seconds * factor[p] for op, p in zip(ops, pooled)]


def _reference_wall(wl, passes) -> float:
    return sum(sum(_reference_seconds(wl, ops)) for ops in passes)


@contextlib.contextmanager
def _single_thread():
    saved = os.environ.get("UNRUH_PAIR_THREADS")
    os.environ["UNRUH_PAIR_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["UNRUH_PAIR_THREADS"]
        else:
            os.environ["UNRUH_PAIR_THREADS"] = saved


# ---------------------------------------------------------------------------
# set-up and import probes (fresh interpreters)


def _setup_once(cmd, env) -> tuple[float, float]:
    """(set-up seconds, kernel seconds) of one probe interpreter, which prints the
    time its kernel runs took in all and the fastest of them."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    kernel_total, kernel = map(float, proc.stdout.split())
    return seconds - kernel_total, kernel


def _setup_probe(wl, seed, ctx) -> tuple[list[float], list[float], bool]:
    """Fresh interpreter: import, plus the first operation for in-process workloads.
    The same interpreter then runs the reference kernel three times (pooled if
    that operation is): samples taken in this process beside the child do not
    track its speed.  Returns set-up seconds, kernel seconds and the kernel kind."""
    pooled = wl.pooled(workloads.make_pass(wl, seed, 0)[0].spec)
    work = ("import workloads; workloads.warm_up(sys.argv[1], int(sys.argv[2]), Path(sys.argv[4]))"
            if wl.in_process else "import unruh_pair.cli")
    code = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[3]); " + work +
            "; import speed; ks = [speed.kernel(sys.argv[5] == '1') for _ in range(3)]; "
            "print(sum(ks), min(ks))")
    cmd = [sys.executable, "-c", code, wl.name, str(seed), str(BENCH_DIR), str(ctx["tmp"]),
           "1" if pooled else "0"]
    probes = [_setup_once(cmd, ctx["env"]) for _ in range(SETUP_REPEATS)]
    return [seconds for seconds, _ in probes], [kernel for _, kernel in probes], pooled


def _importtime(env) -> tuple[float, float]:
    """(unruh_pair, scipy) cumulative import seconds from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import unruh_pair"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, field = line[len("import time:"):].split("|")
            level = (len(field) - len(field.lstrip()) - 1) // 2
            rows.append((level, field.strip(), int(cumulative)))
    total = next(us for level, name, us in rows if name == "unruh_pair")
    # a scipy module counts once, where no scipy module encloses it; children
    # are printed before their parent, so walk backwards keeping the ancestors
    scipy, ancestors = 0, []
    for level, name, us in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not (ancestors and ancestors[-1][1].split(".")[0] == "scipy"):
            scipy += us
        ancestors.append((level, name))
    return total / 1e6, scipy / 1e6


# ---------------------------------------------------------------------------
# metrics


def _end_to_end(wl, passes, setup) -> tuple[dict, dict]:
    ops = [op for ops in passes for op in ops]
    # every timing in reference seconds: the host's speed drift cancels out
    per_pass = [_reference_seconds(wl, ops) for ops in passes]
    latencies = [t for seconds in per_pass for t in seconds]
    walls = [sum(seconds) for seconds in per_pass]
    setup_seconds, setup_kernel, setup_pooled = setup  # each probe scaled by its own kernel
    setup_ref = [t * speed.NOMINAL_S[setup_pooled] / k for t, k in zip(setup_seconds, setup_kernel)]
    total_points = sum(op.points for op in ops)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max((op.result[1] for op in ops if op.result is not None), default=0)
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "pass_wall_s": sum(walls) / len(walls),
        "points_per_s": total_points / sum(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": float(np.percentile(latencies, wl.tail_percentile)),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "ops": len(ops),
        "points_per_pass": [sum(op.points for op in ops) for ops in passes],
        "pass_walls_s": walls,
        "pass_walls_measured_s": [sum(op.seconds for op in ops) for ops in passes],
        "op_seconds_measured": [[op.seconds for op in ops] for ops in passes],
        "kernel_s": [[op.ref_s for op in ops] for ops in passes],
        "setup_samples_measured_s": setup_seconds,
        "setup_kernel_s": setup_kernel,
        "kernel_pooled": [[wl.pooled(op.spec) for op in ops] for ops in passes],
        "setup_kernel_pooled": setup_pooled,
        "kernel_nominal_s": {"serial": speed.NOMINAL_S[False], "pooled": speed.NOMINAL_S[True]},
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": sum(x > metrics["op_tail_s"] for x in latencies),
    }
    return metrics, detail


def _spans_of(wl, phase_ops, tracer, cache) -> tuple[list, dict, tuple[int, int]]:
    """Spans, counters and (hits, misses) of the flow cache for the traced phase;
    a subprocess writes its own, `cache` is this process's."""
    if wl.in_process:
        return tracer.spans, dict(tracer.counters), cache
    spans, counters, hits, misses = [], {}, 0, 0
    for n, op in enumerate(phase_ops):
        path = op.args[2] if op.args else None
        if path is None or not path.exists():
            continue
        record = json.loads(path.read_text())
        for sid, parent, name, start, end in record["spans"]:
            spans.append(((n, sid), None if parent is None else (n, parent), name, start, end))
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
        hits, misses = hits + record["cache"][0], misses + record["cache"][1]
    return spans, counters, (hits, misses)


def _per_layer(spans, counters, cache, walls, speedup, imports, workers) -> tuple[dict, dict]:
    own, calls = self_times(spans)
    wall_a, wall_b, wall_c = walls
    hits, misses = cache
    metrics = {name: 0 for name in PER_LAYER}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls.get(base, 0)
        elif kind == "self_s" and not name.startswith(("import.", "trace.")):
            metrics[name] = own.get(base, 0.0)
    metrics.update({
        "import.total_s": statistics.median(t for t, _ in imports),
        "import.scipy_s": statistics.median(s for _, s in imports),
        "sweeps.pool.workers": workers,
        "sweeps.pool.speedup": speedup,
        "xstate.flow_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "oracle.integrate.rk4_steps": counters.get("oracle.integrate.rk4_steps", 0),
        "cli.emit.bytes": counters.get("cli.emit.bytes", 0),
        "trace.wall_s": wall_b,
        "trace.overhead_s": wall_b - wall_a,
        "trace.unaccounted_s": wall_b - covered_time(spans),
    })
    table = {name: {"calls": calls[name], "self_s": own.get(name, 0.0)} for name in sorted(calls)}
    detail = {"functions": table, "untraced_wall_s": wall_a, "single_thread_wall_s": wall_c,
              "self_s_total": sum(own.values()), "spans": len(spans),
              "flow_cache": {"hits": hits, "misses": misses},
              "rk4_steps_note": "computed from integrate() arguments, not counted inside"}
    return metrics, detail


# ---------------------------------------------------------------------------
# machine record


def _machine(workers: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "sweep_workers": workers,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.endswith("_NUM_THREADS") or k == "UNRUH_PAIR_THREADS"},
        "bench_processes": "one at a time; threads only in the pooled reference kernel, "
                           "one per core",
    }


# ---------------------------------------------------------------------------


def _measure(wl, seed, seconds, trace, ctx):
    workers = workloads.sweeps.worker_count()
    machine = _machine(workers)
    setup = None if trace else _setup_probe(wl, seed, ctx)
    if wl.in_process:  # the warm-up op, in this process too, before timing
        warm = workloads.make_pass(wl, seed, 0)[:1]
        _prepare(wl, warm, ctx)
        _execute(wl, warm, ctx)
        _check(wl, warm, ctx)
    if not trace:
        passes = []
        while len(passes) < wl.min_passes or _wall(passes) < seconds:
            passes.append(_run_pass(wl, seed, len(passes), ctx))
        metrics, detail = _end_to_end(wl, passes, setup)
        return machine, passes, metrics, detail

    # each pass runs untraced (a), traced (b) and single-threaded (c), in an
    # order that flips from pass to pass so drift in host speed cancels out
    imports = [_importtime(ctx["env"]) for _ in range(IMPORT_REPEATS)]
    tracer = Tracer()
    flow_cache = workloads.xstate._population_flow
    ctx_b = dict(ctx, trace_dir=ctx["tmp"])
    ctx_c = dict(ctx, env=workloads.cli_env(single_thread=True))
    phases = {"a": [], "b": [], "c": []}
    hits = misses = 0
    while not phases["a"] or _wall(phases["a"]) < seconds / 3.0:
        p = len(phases["a"])
        for phase in ("a", "b", "c") if p % 2 == 0 else ("c", "b", "a"):
            if phase == "a":
                phases["a"].append(_run_pass(wl, seed, p, ctx))
            elif phase == "b":
                before = flow_cache.cache_info()
                phases["b"].append(_run_pass(wl, seed, p, ctx_b, tracer=tracer))
                after = flow_cache.cache_info()
                hits, misses = hits + after.hits - before.hits, misses + after.misses - before.misses
            elif wl.in_process:
                with _single_thread():
                    phases["c"].append(_run_pass(wl, seed, p, ctx))
            else:
                phases["c"].append(_run_pass(wl, seed, p, ctx_c))
    spans, counters, cache = _spans_of(wl, [op for ops in phases["b"] for op in ops], tracer,
                                       (hits, misses))
    walls = [_wall(phases[k]) for k in "abc"]
    speedup = _reference_wall(wl, phases["c"]) / _reference_wall(wl, phases["a"])
    metrics, detail = _per_layer(spans, counters, cache, walls, speedup, imports, workers)
    detail["passes_per_phase"] = len(phases["a"])
    return machine, phases["a"] + phases["b"] + phases["c"], metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unruh_pair" / "__init__.py").is_file():
        return _fail(f"no unruh_pair package under {ROOT / 'src'}")
    if workloads is None:
        return _fail(f"cannot import the package: {_IMPORT_ERROR}")
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be > 0")

    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = {"tmp": tmp, "env": workloads.cli_env(), "serial": itertools.count(1)}
    try:
        machine, passes, metrics, detail = _measure(wl, args.seed, args.seconds,
                                                    bool(args.trace), ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [op for ops in passes for op in ops]
    failed = [op for op in ops if op.error is not None]
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": metrics, "detail": detail,
        "failed_frac": len(failed) / len(ops),
        "failures": [{"spec": op.spec, "error": op.error} for op in failed[:20]],
        "inputs_pass0": [op.spec for op in passes[0]],
        "digests": [op.digest for op in ops if op.digest is not None],
    }
    out = ROOT / ".perfbench" / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    runs = (f"{detail['passes_per_phase']} passes each untraced, traced and single-threaded"
            if args.trace else f"{len(passes)} passes")
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {runs}, {wl.slots} ops a pass, "
          f"{sum(op.points for op in passes[0])} points in pass 0; nproc {machine['nproc']}, "
          f"sweep workers {machine['sweep_workers']}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':42s} {record['failed_frac']:>14.6g} ({len(failed)} of {len(ops)} ops)")
    if not args.trace:
        print(f"  op_tail_s is p{detail['tail_percentile']} of {detail['ops']} ops "
              f"({detail['tail_samples_beyond']} beyond)")
        if wl.name == "figures-cli":
            print("  figures_wall_s = pass_wall_s, command_p50_s = op_p50_s")
        measured = detail["pass_walls_measured_s"]
        print(f"  timings in reference seconds (speed.py); measured pass wall "
              f"{sum(measured) / len(measured):.6g} s")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure['error']}")
    print(f"  machine: {json.dumps(machine)}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
