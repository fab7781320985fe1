"""Parameter scans: generation region, rate sweeps, maximal concurrence.

These are the figure-level analyses: a boolean phase diagram of where
entanglement can be generated from |10> (with and without the coherent
exchange), initial-rate curves against acceleration or separation, the
maximum concurrence reached during evolution, and a monotonicity classifier
that detects whether the "more acceleration can mean more entanglement"
behaviour survives once the exchange term is kept (it does not).

All sweep outputs are deterministic: grid points are independent, results are
written into index-ordered slots, and the worker count of the rate-sweep pool
(capped by the UNRUH_PAIR_THREADS environment variable) never changes them.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entanglement import (
    concurrence_x,
    generation_rate_product,
    initial_rate_superposition,
    numerical_initial_rate,
)
from .errors import (
    FormulaSingularError,
    HorizonError,
    InvalidParameterError,
)
from .params import (
    Coefficients,
    SimConfig,
    _exchange_factors,
    coefficients,
    thermal_ratio,
)
from .xstate import (
    XState,
    _population_flow,
    initial_product_eg,
    initial_superposition,
    steady_state,
)

HORIZON_THRESHOLD = 1e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# dense-sampling and grid ceilings: beyond these the request is a parameter
# mistake (e.g. wL ~ 1e-9 makes the exchange phase spin ~1e8 times per 1/Gamma0)
_MAX_SAMPLES = 2_000_000
# times per array pass of the peak search: bounds its temporaries at any grid size
_SAMPLE_BLOCK = 1 << 14
_MAX_REGION_NODES = 4_000_000

# default windows mirroring the published curves
DEFAULT_ACCEL_SWEEP = (0.01, 20.0)
DEFAULT_SEP_SWEEP = (0.05, 50.0)
DEFAULT_SWEEP_POINTS = 200
DEFAULT_REGION_WINDOW = ((0.0, 6.0), (0.0, 10.0))  # (omega_l, accel), zero excluded
DEFAULT_REGION_RESOLUTION = 300


def worker_count() -> int:
    """Worker cap from UNRUH_PAIR_THREADS; 0 or unset means all cores."""
    raw = os.environ.get("UNRUH_PAIR_THREADS", "").strip()
    if raw == "":
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise InvalidParameterError(
            f"UNRUH_PAIR_THREADS must be an integer, got {raw!r}", code="threads-invalid"
        ) from exc
    if n <= 0:
        return os.cpu_count() or 1
    return n


def _map_indexed(fn, values):
    """Map fn over values, preserving index order regardless of worker count."""
    workers = min(worker_count(), len(values))
    if workers <= 1:
        return [fn(v) for v in values]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, values))


@dataclass(frozen=True)
class SweepResult:
    """One scalar quantity per grid point, for both exchange settings."""

    axis: str  # name of the swept variable: "accel_ratio" or "separation"
    values: np.ndarray
    with_interaction: np.ndarray
    without_interaction: np.ndarray
    quantity: str  # "initial-rate" or "max-concurrence"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # copy: frozen result owns it
        if values.ndim != 1 or np.any(np.diff(values) <= 0):
            raise InvalidParameterError(
                "sweep axis must be strictly increasing", code="axis-not-increasing"
            )
        for name in ("with_interaction", "without_interaction"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != values.shape:
                raise InvalidParameterError(
                    "sweep output length must match the axis", code="sweep-shape"
                )
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RegionMask:
    """Boolean generation verdicts over an (omega_l, accel) grid.

    with_interaction[i, j] answers the point (accel[i], omega_l[j]).  The
    exchange term only ever adds d^2 >= 0 to the generation inequality, so
    the D-on region must contain the D-off region pointwise; this is checked
    on construction.
    """

    omega_l: np.ndarray
    accel: np.ndarray
    with_interaction: np.ndarray
    without_interaction: np.ndarray

    def __post_init__(self):
        shape = (len(self.accel), len(self.omega_l))
        for name in ("omega_l", "accel"):
            axis = np.array(getattr(self, name), dtype=float)
            axis.flags.writeable = False
            object.__setattr__(self, name, axis)
        for name in ("with_interaction", "without_interaction"):
            arr = np.array(getattr(self, name), dtype=bool)
            if arr.shape != shape:
                raise InvalidParameterError("mask shape mismatch", code="mask-shape")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.without_interaction & ~self.with_interaction):
            raise InvalidParameterError(
                "exchange-on region must contain the exchange-off region",
                code="region-not-superset",
            )


def region_scan(
    l_range: tuple[float, float],
    a_range: tuple[float, float],
    resolution: int | tuple[int, int],
) -> RegionMask:
    """Evaluate the generation condition on a rectangular grid.

    The condition a2^2 + d^2 > a1^2 - b1^2 is evaluated vectorially from the
    closed forms at every node, once with d and once without.
    """
    if isinstance(resolution, tuple):
        n_l, n_a = resolution
    else:
        n_l = n_a = resolution
    if n_l < 2 or n_a < 2:
        raise InvalidParameterError(
            "resolution must be >= 2 per axis", code="resolution-too-small"
        )
    if n_l * n_a > _MAX_REGION_NODES:
        raise InvalidParameterError(
            f"region grid of {n_l}x{n_a} nodes exceeds the {_MAX_REGION_NODES} ceiling",
            code="resolution-too-large",
        )
    if not (l_range[0] > 0 and l_range[1] > l_range[0]):
        raise InvalidParameterError(
            "separation range must be positive and increasing", code="range-invalid"
        )
    if not (a_range[0] > 0 and a_range[1] > a_range[0]):
        raise InvalidParameterError(
            "acceleration range must be positive and increasing", code="range-invalid"
        )
    omega_l = np.linspace(l_range[0], l_range[1], n_l)
    accel = np.linspace(a_range[0], a_range[1], n_a)
    ll, aa = np.meshgrid(omega_l, accel)
    a1 = thermal_ratio(aa) / 4.0
    b1 = 0.25
    f, d = _exchange_factors(aa, ll)
    a2 = f * a1
    rhs = a1 ** 2 - b1 ** 2
    return RegionMask(
        omega_l=omega_l,
        accel=accel,
        with_interaction=(a2 ** 2 + d ** 2) > rhs,
        without_interaction=(a2 ** 2) > rhs,
    )


def default_region_scan(resolution: int = DEFAULT_REGION_RESOLUTION) -> RegionMask:
    """Region scan over the standard window omega_l in (0, 6], a/omega in (0, 10]."""
    if resolution < 2:
        raise InvalidParameterError(
            "resolution must be >= 2 per axis", code="resolution-too-small"
        )
    (l_lo, l_hi), (a_lo, a_hi) = DEFAULT_REGION_WINDOW
    return region_scan(
        (l_lo + (l_hi - l_lo) / resolution, l_hi),
        (a_lo + (a_hi - a_lo) / resolution, a_hi),
        resolution,
    )


def _sweep_axis(fixed_axis: str, sweep_range, resolution: int) -> tuple[str, np.ndarray]:
    """Name and log-spaced values of the axis a sweep holding ``fixed_axis`` runs along."""
    if fixed_axis not in ("separation", "accel_ratio"):
        raise InvalidParameterError(f"unknown axis {fixed_axis!r}", code="axis-unknown")
    axis = "accel_ratio" if fixed_axis == "separation" else "separation"
    if sweep_range is None:
        sweep_range = DEFAULT_ACCEL_SWEEP if axis == "accel_ratio" else DEFAULT_SEP_SWEEP
    lo, hi = sweep_range
    if not (0 < lo < hi):
        raise InvalidParameterError(
            "sweep range must be positive and increasing", code="range-invalid"
        )
    if resolution < 2:
        raise InvalidParameterError(
            "resolution must be >= 2", code="resolution-too-small"
        )
    return axis, np.logspace(math.log10(lo), math.log10(hi), resolution)


def _config_pair(axis: str, value: float, fixed_value: float, gamma0: float):
    accel, sep = (value, fixed_value) if axis == "accel_ratio" else (fixed_value, value)
    return tuple(coefficients(SimConfig(accel, sep, gamma0, with_d)) for with_d in (True, False))


def rate_sweep(
    fixed_axis: str,
    fixed_value: float,
    sweep_range: tuple[float, float] | None = None,
    resolution: int = DEFAULT_SWEEP_POINTS,
    initial: str = "product-eg",
    theta: float = 0.0,
    phi: float = 0.0,
    gamma0: float = 1.0,
) -> SweepResult:
    """Initial concurrence rate C'(0) along one log-spaced axis.

    ``fixed_axis`` names the variable held constant ("separation" sweeps the
    acceleration and vice versa).  The rate is the raw branch rate, which is
    what the published curves plot (it goes negative where generation fails
    or the initial entanglement degrades).  For the superposition start the
    closed form falls back to the finite-difference rate at its singular
    point.
    """
    axis, values = _sweep_axis(fixed_axis, sweep_range, resolution)
    if initial not in ("product-eg", "superposition"):
        raise InvalidParameterError(
            f"unknown initial state kind {initial!r}", code="init-unknown"
        )

    def rate_for(coeffs: Coefficients) -> float:
        if initial == "product-eg":
            return generation_rate_product(coeffs)
        try:
            return initial_rate_superposition(coeffs, theta, phi)
        except FormulaSingularError:
            return numerical_initial_rate(initial_superposition(theta, phi), coeffs)

    def point(value: float) -> tuple[float, float]:
        on, off = _config_pair(axis, value, fixed_value, gamma0)
        return rate_for(on), rate_for(off)

    on, off = np.array(_map_indexed(point, values)).T
    return SweepResult(
        axis=axis,
        values=values,
        with_interaction=on,
        without_interaction=off,
        quantity="initial-rate",
        meta={
            "fixed_axis": fixed_axis,
            "fixed_value": fixed_value,
            "gamma0": gamma0,
            "initial": initial,
            "theta": theta,
            "phi": phi,
        },
    )


def _sampling_step(coeffs: Coefficients) -> float:
    step = 1.0 / (40.0 * coeffs.a1)
    if coeffs.d != 0.0:
        step = min(step, math.pi / (20.0 * abs(coeffs.d)))
    return step


def _flow_concurrence(state0: XState, sets, owner):
    """Array concurrence: C(taus)[k] is that of the flow of sets[owner[k]] at taus[k].

    Populations come from one einsum over the stacked eigen-decompositions of
    ``_population_flow`` (a set on its expm route goes through
    ``flow.propagate``); radicands negative by round-off are clipped to zero.
    """
    p0 = state0.populations
    flows = [_population_flow(c) for c in sets]
    eig = [f._eig or (np.zeros(4), np.zeros((4, 4)), np.zeros((4, 4))) for f in flows]
    w, v = np.array([e[0] for e in eig])[owner], np.array([e[1] for e in eig])[owner]
    q = np.array([e[2] @ p0 for e in eig])[owner]
    a1, d = np.array([(c.a1, c.d) for c in sets])[owner].T
    expm = [s for s, f in enumerate(flows) if f._eig is None]
    slow = np.flatnonzero(np.isin(owner, expm)) if expm else ()

    def c_of(taus):
        p = np.einsum("kij,kj->ik", v, np.exp(w * taus[:, None]) * q).real
        for k in slow:
            p[:, k] = flows[owner[k]].propagate(p0, taus[k])
        c_as = state0.c_as * np.exp(-4.0 * (a1 + 1j * d) * taus)
        c_ge = abs(state0.c_ge) * np.exp(-4.0 * a1 * taus)
        r1 = (p[2] - p[3]) ** 2 + 4.0 * c_as.imag ** 2
        r2 = (p[2] + p[3]) ** 2 - 4.0 * c_as.real ** 2
        k1 = np.sqrt(np.maximum(r1, 0.0)) - 2.0 * np.sqrt(np.maximum(p[0] * p[1], 0.0))
        k2 = 2.0 * c_ge - np.sqrt(np.maximum(r2, 0.0))
        return np.maximum(np.maximum(k1, k2), 0.0)

    return c_of


def max_concurrence(
    state0: XState,
    coeffs: Coefficients | Sequence[Coefficients],
    tau_max: float = 20.0,
    auto_extend: bool = True,
):
    """Largest concurrence reached during evolution and the time it occurs.

    Samples the closed-form flow densely (at least 40 samples per decay time
    and 20 per half-turn of the exchange phase), then refines the best sample
    and every strict local sample maximum with C > 0 by golden-section search.
    If the concurrence is still above 1e-6 and rising at the horizon, the
    horizon is doubled up to three times (when auto_extend is set) before the
    condition is reported as an error.  A sequence of coefficient sets gives
    two arrays; the brackets of all sets are refined together, in lockstep.
    """
    if not math.isfinite(tau_max) or tau_max <= 0:
        raise InvalidParameterError("tau_max must be > 0", code="tau-max-nonpositive")
    single = isinstance(coeffs, Coefficients)
    sets = [coeffs] if single else list(coeffs)
    attempts = 4 if auto_extend else 1  # initial horizon plus up to three doublings
    owner, brackets = [np.empty(0, dtype=int)], [np.empty((0, 4))]
    for s, c in enumerate(sets):
        horizon = tau_max
        step = _sampling_step(c)
        if horizon / step > _MAX_SAMPLES:
            raise InvalidParameterError(
                f"dense sampling would need {horizon / step:.1e} points "
                f"(exchange phase step {step:.1e}); reduce tau_max or the exchange strength",
                code="sampling-too-fine",
            )
        for attempt in range(attempts):
            n = int(math.ceil(horizon / step)) + 1
            taus = np.linspace(0.0, horizon, n)
            cs = np.concatenate([_flow_concurrence(state0, [c], np.zeros(len(t), dtype=int))(t)
                                 for t in np.split(taus, range(_SAMPLE_BLOCK, n, _SAMPLE_BLOCK))])
            still_rising = cs[-1] >= HORIZON_THRESHOLD and cs[-1] > cs[-2]
            if not still_rising:
                break
            if attempt == attempts - 1:
                raise HorizonError(
                    f"concurrence still rising at tau = {horizon:g}; increase tau_max"
                )
            horizon *= 2.0
        best = int(np.argmax(cs))
        padded = np.concatenate(([-np.inf], cs, [-np.inf]))
        peaks = np.flatnonzero((cs > padded[:-2]) & (cs > padded[2:]) & (cs > 0.0))
        peaks = np.concatenate(([best], peaks[peaks != best]))  # first, so it wins ties
        owner.append(np.full(len(peaks), s))
        brackets.append(np.stack([taus[np.maximum(peaks - 1, 0)], taus[np.minimum(peaks + 1, n - 1)],
                                  taus[peaks], cs[peaks]], 1))
    owner, (lo, hi, tau_s, c_s) = np.concatenate(owner), np.concatenate(brackets).T
    tau_k, c_k = np.empty(len(lo)), np.empty(len(lo))
    for i in range(0, len(lo), _SAMPLE_BLOCK):
        part = slice(i, i + _SAMPLE_BLOCK)
        f = _flow_concurrence(state0, sets, owner[part])
        tau_k[part], c_k[part] = _golden_max_lockstep(f, lo[part], hi[part])
    # the brackets are not guaranteed unimodal; never return less than a sample
    tau_k, c_k = np.where(c_k >= c_s, tau_k, tau_s), np.maximum(c_k, c_s)
    order = np.lexsort((-c_k, owner))  # stable: the earliest bracket wins ties
    top = order[np.flatnonzero(np.diff(owner[order], prepend=-1))]
    return (float(c_k[top[0]]), float(tau_k[top[0]])) if single else (c_k[top], tau_k[top])


def _golden_max_lockstep(f, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-10):
    """Golden-section maximisation of an array function f on every [lo[k], hi[k]].

    Each bracket runs exactly the iterations of a scalar search to width tol
    (at least one) and is carried along unchanged once done.
    """
    a, b = lo, hi
    h = b - a
    c, d = b - _INV_PHI * h, a + _INV_PHI * h
    fc, fd = f(c), f(d)
    runs = np.maximum(np.ceil(np.log(tol / h) / math.log(_INV_PHI)), 1)
    for i in range(int(runs.max(initial=0))):
        left, right = (i < runs) & (fc > fd), (i < runs) & ~(fc > fd)  # keep [a, d] / [c, b]
        b = np.where(left, d, b)
        d, fd = np.where(left, c, d), np.where(left, fc, fd)
        a = np.where(right, c, a)
        c, fc = np.where(right, d, c), np.where(right, fd, fc)
        h = b - a
        probe = np.where(left, b - _INV_PHI * h, a + _INV_PHI * h)
        fp = f(probe)
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
    return np.where(fc > fd, c, d), np.maximum(fc, fd)


def max_concurrence_sweep(
    fixed_axis: str,
    fixed_value: float,
    sweep_range: tuple[float, float] | None = None,
    resolution: int = DEFAULT_SWEEP_POINTS,
    state0: XState | None = None,
    tau_max: float = 20.0,
    gamma0: float = 1.0,
) -> SweepResult:
    """Maximum concurrence during evolution along one log-spaced axis."""
    axis, values = _sweep_axis(fixed_axis, sweep_range, resolution)
    sets = [c for value in values for c in _config_pair(axis, value, fixed_value, gamma0)]
    peaks, _ = max_concurrence(state0 or initial_product_eg(), sets, tau_max)
    return SweepResult(
        axis=axis,
        values=values,
        with_interaction=peaks[0::2],
        without_interaction=peaks[1::2],
        quantity="max-concurrence",
        meta={
            "fixed_axis": fixed_axis,
            "fixed_value": fixed_value,
            "gamma0": gamma0,
            "tau_max": tau_max,
        },
    )


def asymptotic_concurrence(coeffs: Coefficients, state0: XState | None = None) -> float:
    """Concurrence of the asymptotic state.

    The coherences decay to zero and the populations reach the thermal
    nullspace, whose concurrence vanishes for every acceleration; and the
    nullspace does not involve the exchange strength at all, so the
    asymptotic entanglement cannot depend on the exchange switch.  The
    initial state is irrelevant away from the degenerate |f| = 1 limits
    (where the error from ``steady_state`` propagates).
    """
    return concurrence_x(steady_state(coeffs)).c


@dataclass(frozen=True)
class CurveClassification:
    """Monotonicity verdict for one sweep curve."""

    kind: str  # "monotone-decreasing" | "monotone-increasing" | "non-monotone"
    argmax: int | None = None


@dataclass(frozen=True)
class MonotonicityReport:
    with_interaction: CurveClassification
    without_interaction: CurveClassification


def _classify(values: np.ndarray) -> CurveClassification:
    tol = 1e-9 * max(float(np.max(np.abs(values))), 1e-300)
    diffs = np.diff(values)
    if np.all(diffs <= tol):
        return CurveClassification("monotone-decreasing")
    if np.all(diffs >= -tol):
        return CurveClassification("monotone-increasing")
    return CurveClassification("non-monotone", argmax=int(np.argmax(values)))


def monotonicity_report(sweep: SweepResult) -> MonotonicityReport:
    """Classify both curves of a sweep as monotone or not.

    A curve counts as monotone-decreasing when every successive difference is
    below +tol, with tol = 1e-9 of the curve's largest magnitude (absorbing
    golden-section jitter); analogously for increasing.  Non-monotone curves
    carry the index of their interior maximum.
    """
    if len(sweep.values) < 8:
        raise InvalidParameterError(
            "need at least 8 points to classify a curve", code="too-few-points"
        )
    return MonotonicityReport(
        with_interaction=_classify(sweep.with_interaction),
        without_interaction=_classify(sweep.without_interaction),
    )
