"""Seeded inputs, the timed operation and the output check of each workload.

Every workload is a closed loop with one caller.  Its inputs come in passes:
pass ``p`` of seed ``s`` is a fixed list of slots (which layer, which size
class, which window stratum) whose values are drawn from an RNG keyed by
(workload, s, p), so one seed always gives the same inputs, each pass is new
to the program's caches, and the mix of work is the same in every pass and
every seed.  Stratifying the draws this way is what keeps the figures of two
seeds comparable; the values within a stratum are still log-uniform.

An operation is one library or CLI call; ``prepare`` builds its arguments
outside the timed region and ``check`` verifies its output afterwards through
a route independent of the code path that produced it.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from unruh_pair import cli, entanglement, oracle, params, sweeps, xstate  # noqa: E402

ACCEL_WINDOW = (0.01, 20.0)  # published a/omega window
SEP_WINDOW = (0.05, 50.0)  # published omega*L window
TAU_MAX = 20.0  # max_concurrence default horizon
ORACLE_TOL = 1e-8  # the threshold `unruh-pair oracle` applies
CONCURRENCE_TOL = 1e-8
PEAK_TOL = 1e-12
PASS_SEED_TAG = {"figures-cli": 1, "peak-search": 2, "scan-emit": 3, "crosscheck": 4}


@dataclass
class Op:
    """One timed operation of a pass; ``result`` and ``error`` are filled in."""

    spec: dict
    points: int
    args: object = None
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    ref_s: float = 0.0  # reference kernel time taken right before the operation
    digest: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    slots: int  # operations per pass
    min_passes: int  # passes every run completes, whatever --seconds says
    in_process: bool
    pooled: Callable  # (spec) -> whether the operation runs in the sweep pool (speed.py)
    make_pass: Callable  # (rng, tiny) -> list of (spec, points)
    prepare: Callable  # (spec, ctx) -> args
    run: Callable  # (args, ctx) -> result
    check: Callable  # (op, ctx) -> None, raises CheckFailed

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten samples beyond it in the shortest run."""
        n = self.slots * self.min_passes
        return math.floor(100.0 * (n - 10) / n)


class CheckFailed(Exception):
    pass


def make_pass(workload: Workload, seed: int, pass_index: int, tiny: bool = False) -> list[Op]:
    """The operations of one pass; `tiny` shrinks every size for the self-tests."""
    rng = np.random.default_rng([PASS_SEED_TAG[workload.name], seed, pass_index])
    return [Op(spec=spec, points=points) for spec, points in workload.make_pass(rng, tiny)]


def _log_stratum(rng, window, stratum: int, strata: int) -> float:
    lo, hi = window
    return float(lo * (hi / lo) ** ((stratum + rng.uniform()) / strata))


def _superposition(rng, min_concurrence: float = 0.2) -> dict:
    """Seeded superposition angles whose initial concurrence is not tiny."""
    while True:
        theta, phi = rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi)
        c0 = math.hypot(math.cos(2 * theta), math.sin(2 * theta) * math.sin(phi))
        if c0 >= min_concurrence:
            return {"init": "superposition", "theta": float(theta), "phi": float(phi)}


def _explicit_xstate(rng) -> dict:
    p = rng.dirichlet(np.ones(4))
    as_mag = math.sqrt(p[2] * p[3]) * rng.uniform(0.0, 0.95)
    ge_mag = math.sqrt(p[0] * p[1]) * rng.uniform(0.0, 0.95)
    as_ph, ge_ph = rng.uniform(-math.pi, math.pi, 2)
    return {"init": "xstate", "state": {
        "p_gg": float(p[0]), "p_ee": float(p[1]), "p_aa": float(p[2]),
        "p_ss": float(1.0 - p[0] - p[1] - p[2]),
        "re_as": as_mag * math.cos(as_ph), "im_as": as_mag * math.sin(as_ph),
        "re_ge": ge_mag * math.cos(ge_ph), "im_ge": ge_mag * math.sin(ge_ph)}}


def start_state(start: dict) -> xstate.XState:
    if start["init"] == "product-eg":
        return xstate.initial_product_eg()
    if start["init"] == "superposition":
        return xstate.initial_superposition(start["theta"], start["phi"])
    s = start["state"]
    return xstate.XState(p_gg=s["p_gg"], p_ee=s["p_ee"], p_aa=s["p_aa"], p_ss=s["p_ss"],
                         c_as=complex(s["re_as"], s["im_as"]),
                         c_ge=complex(s["re_ge"], s["im_ge"]))


def _coeffs(accel: float, sep: float, with_d: bool) -> params.Coefficients:
    return params.coefficients(params.SimConfig(
        accel_ratio=accel, separation=sep, include_interaction=with_d))


def _point(axis: str, value: float, fixed: float) -> tuple[float, float]:
    """(a/omega, omega*L) of a sweep node; ``axis`` is the swept variable."""
    return (value, fixed) if axis == "accel_ratio" else (fixed, value)


def _fixed_window(fixed_axis: str):
    return SEP_WINDOW if fixed_axis == "separation" else ACCEL_WINDOW


# columns each command writes (README "CSV columns", plus rate and oracle)
_COLUMNS = {
    "region": ["omega_l", "a_over_omega", "with_d", "without_d"],
    "sweep": ["x", "value_with_d", "value_without_d"],
    "evolve": ["tau", "c", "k1", "k2", "p_gg", "p_ee", "p_aa", "p_ss", "re_as", "im_as"],
    "rate": ["analytic_with_d", "clamped_with_d", "numerical_with_d", "analytic_without_d",
             "clamped_without_d", "numerical_without_d", "formula_singular"],
    "oracle": ["tau", "max_abs_diff"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# peak-search: in-process max_concurrence_sweep calls

# (fixed axis, stratum of 6 over its published window, resolution, start kind).
# Most sweeps are small so that per-call overhead shows and a run holds enough
# of them for a tail; one default-size sweep per pass shows per-sample cost,
# placed on the cheap a/omega strata so a pass stays a few seconds.
_PEAK_SLOTS = (
    ("separation", 0, 16, "product-eg"),
    ("separation", 1, 24, "superposition"),
    ("accel_ratio", 1, 16, "superposition"),
    ("separation", 2, 16, "product-eg"),
    ("accel_ratio", 2, 32, "product-eg"),
    ("separation", 3, 16, "superposition"),
    ("accel_ratio", 3, 24, "superposition"),
    ("separation", 4, 32, "product-eg"),
    ("accel_ratio", 4, 16, "product-eg"),
    ("separation", 5, 16, "superposition"),
    ("accel_ratio", 5, 16, "superposition"),
    ("accel_ratio", 0, 200, "product-eg"),
)


def _peak_pass(rng, tiny):
    ops = []
    for fixed_axis, stratum, resolution, kind in _PEAK_SLOTS:
        resolution = 4 if tiny else resolution
        start = {"init": "product-eg"} if kind == "product-eg" else _superposition(rng)
        ops.append(({
            "fixed_axis": fixed_axis,
            "fixed_value": _log_stratum(rng, _fixed_window(fixed_axis), stratum, 6),
            "resolution": resolution,
            "start": start,
            "check_nodes": [int(i) for i in rng.choice(resolution, 2, replace=False)],
        }, resolution))
    return ops


def _peak_prepare(spec, ctx):
    return (spec["fixed_axis"], spec["fixed_value"], spec["resolution"], start_state(spec["start"]))


def _peak_run(args, ctx):
    fixed_axis, fixed_value, resolution, state0 = args
    return sweeps.max_concurrence_sweep(fixed_axis, fixed_value, resolution=resolution,
                                        state0=state0)


def _peak_check(op, ctx):
    spec, result = op.spec, op.result
    on, off = result.with_interaction, result.without_interaction
    if len(result.values) != spec["resolution"]:
        raise CheckFailed("sweep length differs from the requested resolution")
    if not (np.all(np.isfinite(on)) and np.all(np.isfinite(off))):
        raise CheckFailed("non-finite peak concurrence")
    if min(on.min(), off.min()) < 0.0 or max(on.max(), off.max()) > 1.0 + PEAK_TOL:
        raise CheckFailed("peak concurrence outside [0, 1]")
    state0 = op.args[3]
    if spec["start"]["init"] == "product-eg" and np.any(on < off - PEAK_TOL):
        raise CheckFailed("product-eg peak with the exchange below the peak without it")
    # brute force on midpoints of a uniform grid, never aligned with the
    # sweep's own samples; a refined peak must not be beaten by it
    taus = (np.arange(200) + 0.5) * (TAU_MAX / 200)
    for node in spec["check_nodes"]:
        accel, sep = _point(result.axis, float(result.values[node]), spec["fixed_value"])
        for peak, with_d in ((on[node], True), (off[node], False)):
            c = _coeffs(accel, sep, with_d)
            brute = max(entanglement.concurrence_x(xstate.evolve(state0, c, float(t))).c
                        for t in taus)
            if brute > peak + PEAK_TOL:
                raise CheckFailed(f"brute force {brute!r} beats the refined peak {peak!r} "
                                  f"at a/w={accel!r}, wL={sep!r}, with_d={with_d}")


# ---------------------------------------------------------------------------
# scan-emit: in-process cli.main(argv) for region masks and rate sweeps

# grid ranges per region slot: a spread of sizes, each drawn from a narrow
# range since a region's cost grows with the square of its grid
_REGION_GRIDS = ((56, 64), (100, 110), (140, 152), (276, 300))
# slot kinds; regions sit at 0, 5, 10, 15 so they alternate csv and json too.
# The largest region and the three fallback sweeps are the slowest quarter of
# a pass, so the tail percentile falls among operations of like cost
_SCAN_SLOTS = ("region", "product-eg", "superposition", "singular", "product-eg",
               "region", "superposition", "product-eg", "superposition", "singular",
               "region", "product-eg", "superposition", "product-eg", "singular",
               "region")


def _scan_pass(rng, tiny):
    ops, region, sweep = [], 0, 0
    for k, kind in enumerate(_SCAN_SLOTS):
        fmt = "csv" if k % 2 == 0 else "json"
        if kind == "region":
            lo, hi = _REGION_GRIDS[region]
            grid = 6 if tiny else int(rng.integers(lo, hi + 1))
            region += 1
            ops.append(({"command": "region", "format": fmt, "grid": grid,
                         "argv": ["region", "--grid", str(grid)],
                         "check_nodes": [int(i) for i in rng.choice(grid * grid, 24)],
                         }, grid * grid))
            continue
        fixed_axis = "separation" if sweep % 2 == 0 else "accel_ratio"
        value = _log_stratum(rng, _fixed_window(fixed_axis), sweep // 2, 6)
        sweep += 1
        points = 5 if tiny else 200
        argv = ["sweep", "--quantity", "rate", "--points", str(points),
                "--sep" if fixed_axis == "separation" else "--accel", repr(value)]
        if kind == "product-eg":
            start = {"init": "product-eg"}
        else:
            # theta = pi/4, phi = 0 is |10> again: the closed form is singular
            # and the whole sweep takes the finite-difference fallback
            start = ({"init": "superposition", "theta": math.pi / 4, "phi": 0.0}
                     if kind == "singular" else _superposition(rng))
            argv += ["--init", "superposition", "--theta", repr(start["theta"]),
                     "--phi", repr(start["phi"])]
        ops.append(({"command": "rate", "format": fmt, "fixed_axis": fixed_axis,
                     "fixed_value": value, "points": points, "start": start, "argv": argv,
                     "check_rows": [int(i) for i in rng.choice(points, 4, replace=False)],
                     }, points))
    return ops


def _serial(ctx) -> int:
    """A number unique within the run (copies of ctx share the counter)."""
    return next(ctx.setdefault("serial", itertools.count(1)))


def _scan_prepare(spec, ctx):
    path = ctx["tmp"] / f"scan-{_serial(ctx)}.{spec['format']}"
    return spec["argv"] + ["--format", spec["format"], "--out", str(path)], path


def _scan_run(args, ctx):
    return cli.main(args[0])


def _read_table(path: Path, fmt: str, columns: list[str]) -> dict:
    """Columns of a CSV or JSON table; raises unless exactly `columns` are there
    (in order for CSV; JSON keys are sorted)."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)["data"]
        if sorted(data) != sorted(columns):
            raise CheckFailed(f"columns {sorted(data)}, expected {columns}")
        return {k: np.asarray(v, dtype=float) for k, v in data.items()}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != columns:
        raise CheckFailed(f"columns {rows[0]}, expected {columns}")
    body = np.asarray(rows[1:], dtype=float).reshape(-1, len(columns))
    return {name: body[:, i] for i, name in enumerate(columns)}


def _scan_check(op, ctx):
    spec, path = op.spec, op.args[1]
    if op.result != 0:
        raise CheckFailed(f"exit code {op.result}")
    op.digest = _sha256(path)
    try:
        if spec["command"] == "region":
            _check_region(spec, _read_table(path, spec["format"], _COLUMNS["region"]))
        else:
            _check_rate(spec, _read_table(path, spec["format"], _COLUMNS["sweep"]))
    finally:
        path.unlink()


def _check_region(spec, cols):
    if len(cols["with_d"]) != spec["grid"] ** 2:
        raise CheckFailed("region row count")
    on, off = cols["with_d"].astype(bool), cols["without_d"].astype(bool)
    if np.any(off & ~on):
        raise CheckFailed("exchange-on region is not a superset of the exchange-off one")
    for node in spec["check_nodes"]:
        accel, sep = float(cols["a_over_omega"][node]), float(cols["omega_l"][node])
        for got, with_d in ((on[node], True), (off[node], False)):
            c = _coeffs(accel, sep, with_d)
            margin = c.a2 ** 2 + c.d ** 2 - (c.a1 ** 2 - c.b1 ** 2)
            if abs(margin) < 1e-9:
                continue  # too close to the boundary to decide
            if bool(got) != entanglement.generation_possible(c):
                raise CheckFailed(f"region verdict at a/w={accel!r}, wL={sep!r}, "
                                  f"with_d={with_d}")


def _check_rate(spec, cols):
    if len(cols["x"]) != spec["points"]:
        raise CheckFailed("sweep row count")
    state0 = start_state(spec["start"])
    k1_0 = entanglement.concurrence_x(state0).k1
    axis = "accel_ratio" if spec["fixed_axis"] == "separation" else "separation"
    for row in spec["check_rows"]:
        accel, sep = _point(axis, float(cols["x"][row]), spec["fixed_value"])
        for name, with_d in (("value_with_d", True), ("value_without_d", False)):
            c = _coeffs(accel, sep, with_d)
            expected = entanglement.clamped_rate(k1_0, float(cols[name][row]))
            numeric = entanglement.numerical_initial_rate(state0, c)
            scale = 4.0 * (c.a1 + c.b1 + abs(c.d))
            if abs(numeric - expected) > 1e-6 * scale:
                raise CheckFailed(f"rate {expected!r} vs finite difference {numeric!r} at "
                                  f"a/w={accel!r}, wL={sep!r}, with_d={with_d}")


# ---------------------------------------------------------------------------
# crosscheck: the dense GKLS oracle against the closed-form flow


def _cross_pass(rng, tiny):
    # the RK4 step count grows with a1 (large a/omega) and |d| (small omega*L);
    # twelve narrow strata on each axis keep the work of a pass within a few
    # percent from seed to seed
    ops = []
    for stratum in range(12):
        start = (lambda _: {"init": "product-eg"}, _superposition, _explicit_xstate)[stratum % 3]
        ops.append(({"accel": _log_stratum(rng, ACCEL_WINDOW, stratum, 12),
                     "sep": _log_stratum(rng, SEP_WINDOW, stratum, 12),
                     "start": start(rng),
                     "tau_max": 0.5 if tiny else 4.0, "samples": 9}, 1))
    return ops


def _cross_prepare(spec, ctx):
    return spec, start_state(spec["start"])


def _cross_run(args, ctx):
    """What `unruh-pair oracle` does, for both switch settings, plus concurrences."""
    spec, state0 = args
    taus = np.linspace(0.0, spec["tau_max"], spec["samples"])
    out = []
    for with_d in (True, False):
        c = _coeffs(spec["accel"], spec["sep"], with_d)
        data = oracle.build_gkls(c)
        dt = oracle.step_bound(c) / 32.0
        rho = oracle.from_xstate(state0)
        worst, pairs = 0.0, []
        for k, tau in enumerate(taus):
            if k > 0:
                rho = oracle.integrate(rho, data, float(tau - taus[k - 1]), dt)
            ref = xstate.evolve(state0, c, float(tau))
            got = oracle.to_xstate(rho)
            worst = max(worst, abs(got.p_gg - ref.p_gg), abs(got.p_ee - ref.p_ee),
                        abs(got.p_aa - ref.p_aa), abs(got.p_ss - ref.p_ss),
                        abs(got.c_as - ref.c_as), abs(got.c_ge - ref.c_ge))
            pairs.append((entanglement.concurrence_x(ref).c,
                          entanglement.concurrence_general(oracle.from_xstate(ref))))
        out.append((worst, pairs))
    return out


def _cross_check(op, ctx):
    for (worst, pairs), with_d in zip(op.result, (True, False)):
        if not worst <= ORACLE_TOL:
            raise CheckFailed(f"dense oracle deviates by {worst!r} (with_d={with_d})")
        for cx, cg in pairs:
            if not abs(cx - cg) <= CONCURRENCE_TOL:
                raise CheckFailed(f"X-state concurrence {cx!r} vs general {cg!r}")


# ---------------------------------------------------------------------------
# figures-cli: the README figure commands as fresh subprocesses

_THETA, _PHI = math.pi / 6, math.pi / 4


def _figures_pass(rng, tiny):
    def near(v):  # seeded perturbation of a published parameter value
        return repr(float(v * math.exp(rng.uniform(-0.05, 0.05))))

    def angle(v):
        return repr(float(v + rng.uniform(-0.05, 0.05)))

    grid, points, samples = (6, 5, 11) if tiny else (300, 200, 201)
    size = [] if not tiny else ["--points", str(points)]
    evolve = ["evolve", "--accel", near(0.1), "--sep", near(0.5), "--init", "product-eg",
              "--tau-max", "20"] + ([] if not tiny else ["--samples", str(samples)])
    sup = ["--sep", near(0.3), "--init", "superposition", "--theta", angle(_THETA)]
    theta = sup[-1]
    commands = [
        (["region", "--grid", str(grid)], grid * grid),
        (["sweep", "--quantity", "rate", "--sep", near(0.3)] + size, points),
        (["sweep", "--quantity", "rate", "--sep", near(3.0)] + size, points),
        (["sweep", "--quantity", "rate", "--sep", near(30.0)] + size, points),
        (["sweep", "--quantity", "rate", "--accel", near(0.1)] + size, points),
        (evolve, samples),
        (evolve + ["--no-d"], samples),
        (["sweep", "--quantity", "maxc", "--sep", near(0.3)] + size, points),
        (["sweep", "--quantity", "maxc", "--accel", near(0.1)] + size, points),
        (["sweep", "--quantity", "rate"] + sup + ["--phi", angle(_PHI)] + size, points),
        (["sweep", "--quantity", "rate"] + sup + ["--phi", angle(-_PHI)] + size, points),
        (["rate", "--accel", near(0.5), "--sep", near(0.3), "--init", "superposition",
          "--theta", theta, "--phi", angle(-_PHI)], 1),
        (["oracle", "--accel", near(0.5), "--sep", near(0.8), "--tau-max", "4",
          "--samples", "9"], 9),
    ]
    return [({"argv": argv, "rows": rows}, rows) for argv, rows in commands]


def cli_env(single_thread: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if single_thread:
        env["UNRUH_PAIR_THREADS"] = "1"
    return env


def _figures_prepare(spec, ctx):
    serial = _serial(ctx)
    path = ctx["tmp"] / f"fig-{serial}.csv"
    argv = spec["argv"] + ["--out", str(path)]
    if ctx.get("trace_dir") is not None:
        spans = ctx["trace_dir"] / f"spans-{serial}.json"
        cmd = [sys.executable, str(BENCH_DIR / "tracecli.py"), str(spans)] + argv
    else:
        spans = None
        cmd = [sys.executable, "-m", "unruh_pair.cli"] + argv
    return cmd, path, spans


def _figures_run(args, ctx):
    cmd, path, spans = args
    with open(ctx["tmp"] / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ctx["env"], stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace").strip()
    return proc.returncode, usage.ru_maxrss, message


def _figures_check(op, ctx):
    rc, _, message = op.result
    path = op.args[1]
    if rc != 0:
        raise CheckFailed(f"exit code {rc}: {message}")
    op.digest = _sha256(path)
    try:
        cols = _read_table(path, "csv", _COLUMNS[op.spec["argv"][0]])
    finally:
        path.unlink()
    rows = len(next(iter(cols.values())))
    if rows != op.spec["rows"]:
        raise CheckFailed(f"{rows} rows, expected {op.spec['rows']}")


WORKLOADS = {w.name: w for w in (
    Workload("figures-cli", 13, 2, False, lambda spec: False,
             _figures_pass, _figures_prepare, _figures_run, _figures_check),
    Workload("peak-search", 12, 3, True, lambda spec: True,
             _peak_pass, _peak_prepare, _peak_run, _peak_check),
    Workload("scan-emit", 16, 3, True, lambda spec: spec["command"] == "rate",
             _scan_pass, _scan_prepare, _scan_run, _scan_check),
    Workload("crosscheck", 12, 3, True, lambda spec: False,
             _cross_pass, _cross_prepare, _cross_run, _cross_check),
)}


def warm_up(name: str, seed: int, tmp: Path) -> None:
    """Run the first operation of pass 0 once (the set-up probe's warm-up op)."""
    workload = WORKLOADS[name]
    ctx = {"tmp": tmp, "env": cli_env()}
    op = make_pass(workload, seed, 0)[0]
    op.args = workload.prepare(op.spec, ctx)
    op.result = workload.run(op.args, ctx)
    if name == "scan-emit":
        op.args[1].unlink(missing_ok=True)
