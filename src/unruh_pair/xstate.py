"""Two-atom density matrix in the coupled basis and its exact propagation.

The coupled basis is {|G>, |A>, |S>, |E>} with |G> = |00>, |E> = |11> and
|A>, |S> = (|10> -/+ |01>)/sqrt(2) the antisymmetric/symmetric one-excitation
states.  An X-form density matrix in this basis has four populations, the
antisymmetric-symmetric coherence rho_AS, and the ground-doubly-excited
coherence rho_GE; this form is preserved by the dissipative dynamics.

The populations obey a closed linear system p' = M p with the constant rate
matrix M built from the coefficients (a1, a2, b1, b2); the two coherences
decouple completely and decay in closed form:

    rho_AS(tau) = rho_AS(0) * exp(-4*(a1 + i*d)*tau)
    rho_GE(tau) = rho_GE(0) * exp(-4*a1*tau)

so the whole flow is evaluated exactly (matrix exponential of M via
eigendecomposition, scaling-and-squaring fallback), with no step-to-step
integration error anywhere.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateGeneratorError,
    InvalidParameterError,
    InvalidStateError,
)
from .params import Coefficients, RateConstants

TRACE_TOL = 1e-10
POPULATION_TOL = 1e-12
COHERENCE_TOL = 1e-10

# eigenvector-matrix condition number beyond which evolve() falls back to expm
_EIG_COND_LIMIT = 1e8
# sample ceiling of trajectories, the oracle and the peak search: beyond it the request
# is a parameter mistake (e.g. wL ~ 1e-9 makes the exchange phase spin ~1e8 times per
# 1/Gamma0), rejected before anything is allocated
_MAX_SAMPLES = 2_000_000


def _check_sample_count(n) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidParameterError("need at least 2 samples", code="samples-too-few")
    if n > _MAX_SAMPLES:
        raise InvalidParameterError(
            f"{n} samples exceed the ceiling of {_MAX_SAMPLES}", code="samples-too-many"
        )


def _fail(bad, code: str, message: str, value=None) -> None:
    """Raise InvalidStateError if any entry of the mask ``bad`` is set; ``value`` at the
    first set entry fills the message."""
    if bad is not False and np.any(bad):  # a Python bool for one state's float entries
        if value is not None:
            message = message.format(np.ravel(value)[np.argmax(np.ravel(bad))])
        raise InvalidStateError(message, code=code)


def _check_entries(p_gg, p_ee, p_aa, p_ss, c_as, c_ge) -> None:
    """XState's checks, on one state's entries or on arrays of them, one state per sample.

    Trace, population positivity and the positivity of the two 2x2 X blocks;
    the first failed check is raised, with the value of its first failing
    sample.  Passing entries cost only plain arithmetic, which a non-finite
    entry never passes.
    """
    trace = p_gg + p_ee + p_aa + p_ss - 1.0
    abs_as, abs_ge = abs(c_as), abs(c_ge)
    ok = ((abs(trace) <= TRACE_TOL) & (p_gg >= -POPULATION_TOL) & (p_ee >= -POPULATION_TOL)
          & (p_aa >= -POPULATION_TOL) & (p_ss >= -POPULATION_TOL)
          & (abs_as * abs_as <= p_aa * p_ss + COHERENCE_TOL)
          & (abs_ge * abs_ge <= p_gg * p_ee + COHERENCE_TOL))
    if ok is True or (ok is not False and ok.all()):  # a Python bool for Python floats
        return
    with np.errstate(over="ignore", invalid="ignore"):
        pops = np.array([p_gg, p_ee, p_aa, p_ss], dtype=float)
        _fail(~(np.isfinite(pops).all(0) & np.isfinite(abs_as) & np.isfinite(abs_ge)),
              "state-not-finite", "state entries must be finite")
        _fail(abs(trace) > TRACE_TOL, "trace-deviant", "trace deviates from 1 by {:.3e}", trace)
        low = pops.min(0)
        _fail(low < -POPULATION_TOL, "population-negative", "negative population {:.3e}", low)
        _fail(abs_as ** 2 > p_aa * p_ss + COHERENCE_TOL, "coherence-as-too-large",
              "|rho_AS|^2 exceeds p_aa*p_ss")
        _fail(abs_ge ** 2 > p_gg * p_ee + COHERENCE_TOL, "coherence-ge-too-large",
              "|rho_GE|^2 exceeds p_gg*p_ee")


@dataclass(frozen=True)
class XState:
    """X-form two-atom state in the coupled basis.

    p_gg, p_ee, p_aa, p_ss are the populations of |G>, |E>, |A>, |S>;
    c_as is rho_AS (rho_SA is its conjugate by construction) and c_ge is
    rho_GE.  Construction validates trace, population positivity, and the
    positivity of the two 2x2 X blocks.
    """

    p_gg: float
    p_ee: float
    p_aa: float
    p_ss: float
    c_as: complex = 0j
    c_ge: complex = 0j

    def __post_init__(self):
        _check_entries(self.p_gg, self.p_ee, self.p_aa, self.p_ss, self.c_as, self.c_ge)

    @property
    def populations(self) -> np.ndarray:
        """Population vector in the order (p_gg, p_ee, p_aa, p_ss)."""
        return np.array([self.p_gg, self.p_ee, self.p_aa, self.p_ss])

    @property
    def trace(self) -> float:
        return self.p_gg + self.p_ee + self.p_aa + self.p_ss


def initial_product_eg() -> XState:
    """Product state |10> (one atom excited, one in the ground state).

    In the coupled basis: p_aa = p_ss = 1/2 and rho_AS = 1/2.  Separable, so
    the concurrence starts at zero.
    """
    return XState(p_gg=0.0, p_ee=0.0, p_aa=0.5, p_ss=0.5, c_as=0.5 + 0j)


def initial_superposition(theta: float, phi: float) -> XState:
    """One-excitation superposition cos(theta)|A> + sin(theta)e^{i*phi}|S>.

    Angles in radians, unrestricted (periodic).  The stored coherence is
    rho_AS(0) = cos(theta)*sin(theta)*e^{+i*phi}; this phase convention is the
    one for which the closed-form initial concurrence rate (see
    ``entanglement.initial_rate_superposition``) agrees with finite
    differences of the propagated concurrence, which is how the convention is
    pinned down and tested.
    """
    _check_finite_angle(theta, "theta")
    _check_finite_angle(phi, "phi")
    c, s = math.cos(theta), math.sin(theta)
    return XState(
        p_gg=0.0,
        p_ee=0.0,
        p_aa=c * c,
        p_ss=s * s,
        c_as=c * s * cmath.exp(1j * phi),
    )


def _check_finite_angle(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite", code=f"{name}-not-finite")


@dataclass(frozen=True)
class DiagonalGenerator:
    """Rate matrix M of the closed population system p' = M p.

    Acts on the population vector ordered (p_gg, p_ee, p_aa, p_ss).  Columns
    sum to zero (trace preservation) and off-diagonal entries are
    nonnegative (classical rate matrix); both are checked on construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise InvalidStateError("generator must be 4x4", code="generator-shape")
        _check_generators(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


_DIAGONAL = np.eye(4, dtype=bool)


def _check_generators(m: np.ndarray) -> None:
    """DiagonalGenerator's checks on one rate matrix or a stack (..., 4, 4) of them."""
    if not np.isfinite(m).all():
        raise InvalidStateError(
            "generator entries overflow the float range", code="generator-not-finite"
        )
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m.sum(axis=-2)).max(axis=-1) > 1e-12 * scale):
        raise InvalidStateError(
            "generator columns must sum to zero", code="generator-not-tracefree"
        )
    off = np.where(_DIAGONAL, 0.0, m)
    if np.any(off.min(axis=(-2, -1)) < -1e-12 * scale):
        raise InvalidStateError(
            "off-diagonal rates must be nonnegative", code="generator-negative-rate"
        )


def _rate_matrices(a1, a2, b1, b2) -> np.ndarray:
    """The rate matrix M of ``diagonal_generator``, (..., 4, 4) over arrays of rate constants."""
    zero = a1 * 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # _check_generators rejects overflow
        return np.array([  # by columns: .T puts the stack axes first and M's rows before columns
            [-4 * (a1 - b1), zero, 2 * (a1 - b1 - a2 + b2), 2 * (a1 - b1 + a2 - b2)],
            [zero, -4 * (a1 + b1), 2 * (a1 + b1 - a2 - b2), 2 * (a1 + b1 + a2 + b2)],
            [2 * (a1 + b1 - a2 - b2), 2 * (a1 - b1 - a2 + b2), -4 * (a1 - a2), zero],
            [2 * (a1 + b1 + a2 + b2), 2 * (a1 - b1 + a2 - b2), zero, -4 * (a1 + a2)],
        ], dtype=float).T


def diagonal_generator(coeffs: Coefficients) -> DiagonalGenerator:
    """Population rate matrix from the coefficients.

    Transcribes the four coupled-basis population equations: the ground and
    doubly-excited populations exchange with |A> and |S> at rates
    2*(a1 -/+ b1)*(1 -/+ f), i.e. the collective emission/absorption cascades
    through the sub- and superradiant channels.
    """
    return DiagonalGenerator(matrix=_rate_matrices(coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2))


class _FlowStack(namedtuple("_FlowStack", "w v q a1 d expm")):
    """Flow data of a start under one coefficient set, or stacked on a leading axis.

    Eigenvalues w and eigenvectors v of the rate matrix, q = v^-1 p0, and the
    coherence rates a1, d; ``expm`` maps each entry on the scaling-and-squaring
    route (zeros in w, v, q) to its rate matrix.
    """

    def rows(self, owner: np.ndarray) -> _FlowStack:
        """Row k is entry owner[k] of this stack."""
        slow = np.flatnonzero(np.isin(owner, list(self.expm))) if self.expm else ()
        return _FlowStack(*(x[owner] for x in self[:5]), {k: self.expm[owner[k]] for k in slow})


def _eigen_flow(m: np.ndarray, force_expm: bool = False):
    """(w, v, v^-1, slow) of a stack m (n, 4, 4) of rate matrices, after DiagonalGenerator's checks.

    Eigenvalues w and eigenvectors v of every matrix, in one batched pass; slow
    marks the matrices whose eigenvector matrix is too ill-conditioned (or
    fails to decompose), which take the expm route and get zeros in w, v, v^-1.
    """
    _check_generators(m)
    if not force_expm:
        try:
            w, v = np.linalg.eig(m)
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            if len(m) > 1:  # one by one: only the failing matrices take the expm route
                return tuple(np.concatenate(x) for x in zip(*(_eigen_flow(m[k:k + 1])
                                                              for k in range(len(m)))))
        else:
            # spectral norms, the largest singular values, of v and v^-1
            cond = (np.linalg.svd(v, compute_uv=False)[..., 0]
                    * np.linalg.svd(vinv, compute_uv=False)[..., 0])
            slow = ~(cond < _EIG_COND_LIMIT)
            if slow.any():
                w[slow], v[slow], vinv[slow] = 0.0, 0.0, 0.0
            return w, v, vinv, slow
    n = len(m)
    return np.zeros((n, 4)), np.zeros((n, 4, 4)), np.zeros((n, 4, 4)), np.ones(n, dtype=bool)


@lru_cache(maxsize=512)
def _population_flow(coeffs: Coefficients, force_expm: bool = False):
    """(w, v, v^-1, None) of one set's rate matrix M, or zeros and M itself on the
    expm route: the one-set case of ``_eigen_flow``."""
    m = _rate_matrices(coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2)[None]
    w, v, vinv, slow = _eigen_flow(m, force_expm)
    return w[0], v[0], vinv[0], (m[0] if slow[0] else None)


def _flow_rows(state0: XState, coeffs: Coefficients) -> _FlowStack:
    """The flow data of state0 under one set."""
    w, v, vinv, m = _population_flow(coeffs)
    return _FlowStack(w, v, vinv @ state0.populations, coeffs.a1, coeffs.d,
                      {} if m is None else {(): m})


def _flow_stack(state0: XState, sets) -> _FlowStack:
    """The flow data of state0 under every set, stacked: entry s for set s.

    ``sets`` is a sequence of Coefficients, each through the cached one-set
    flow, or the 1-d arrays of ``params.rate_constants``, all through one pass
    of the eigen core.
    """
    if isinstance(sets, RateConstants):
        m = _rate_matrices(sets.a1, sets.a2, sets.b1, sets.b2)
        w, v, vinv, slow = _eigen_flow(m)
        return _FlowStack(w, v, vinv @ state0.populations, sets.a1, sets.d,
                          {s: m[s] for s in np.flatnonzero(slow).tolist()})
    one = [_flow_rows(state0, c) for c in sets]
    return _FlowStack(*(np.array([r[i] for r in one]) for i in range(5)),
                      expm={s: r.expm[()] for s, r in enumerate(one) if r.expm})


def _x_flow(state0: XState, rows: _FlowStack, tau: np.ndarray):
    """Populations (..., 4), rho_AS and rho_GE of the exact flow at proper times tau.

    ``rows`` holds one set (tau 0-d) or one set per sample (tau of the same
    shape); entries on the expm route are propagated one by one.
    """
    p = np.einsum("...ij,...j->...i", rows.v, np.exp(rows.w * tau[..., None]) * rows.q).real
    for k, m in rows.expm.items():
        p[k] = scipy.linalg.expm(m * tau[k]) @ state0.populations
    c_as = state0.c_as * np.exp(-4.0 * (rows.a1 + 1j * rows.d) * tau)
    c_ge = state0.c_ge * np.exp(-4.0 * rows.a1 * tau)
    return p, c_as, c_ge


def evolve(state0: XState, coeffs: Coefficients, tau: float) -> XState:
    """Propagate an X state for a proper-time interval tau >= 0.

    Populations move under the exact matrix-exponential flow of the constant
    rate matrix; the coherences decay in closed form, the AS one with the
    extra phase rotation e^{-4i*d*tau} driven by the coherent exchange.  The
    exchange never changes |rho_AS|, only its phase.
    """
    if not math.isfinite(tau) or tau < 0:
        raise InvalidParameterError("tau must be >= 0", code="tau-negative")
    if tau == 0.0:
        return state0
    if tau * (16.0 * coeffs.a1 + 4.0 * abs(coeffs.d)) > 1e300:  # |w| <= 16*a1
        raise InvalidParameterError(f"tau = {tau:g} overflows the exponents of the flow",
                                    code="tau-overflow")
    p, c_as, c_ge = _x_flow(state0, _flow_rows(state0, coeffs), np.asarray(tau))
    return XState(
        p_gg=float(p[0]), p_ee=float(p[1]), p_aa=float(p[2]), p_ss=float(p[3]),
        c_as=complex(c_as), c_ge=complex(c_ge),
    )


def trajectory(
    state0: XState, coeffs: Coefficients, tau_max: float, n: int
) -> list[tuple[float, XState]]:
    """n uniformly spaced samples of the flow on [0, tau_max], endpoints included.

    Every sample is evolve(state0, coeffs, tau_k) itself: the flow is closed
    form, so there is no step-to-step error accumulation to worry about.
    """
    _check_sample_count(n)
    if not math.isfinite(tau_max) or tau_max <= 0:
        raise InvalidParameterError("tau_max must be > 0", code="tau-max-nonpositive")
    return [(float(t), evolve(state0, coeffs, float(t))) for t in np.linspace(0.0, tau_max, n)]


def steady_state(coeffs: Coefficients) -> XState:
    """Asymptotic state: the trace-one nullspace of the population generator.

    For |f| < 1 the nullspace is one-dimensional and the populations settle
    into the thermal form (1, r^2, r, r)/(1+r)^2 over (G, E, A, S) with
    r = e^{-2*pi*omega/a}; coherences decay to zero.  At the formal limits
    f = +/-1 one collective channel decouples, the nullspace becomes
    degenerate and the asymptotic state is no longer unique, reported as
    DegenerateGeneratorError rather than silently picking a vector.
    """
    m = diagonal_generator(coeffs).matrix
    _, s, vh = np.linalg.svd(m)
    if s[2] <= 1e-10 * max(s[0], 1e-300):
        raise DegenerateGeneratorError(
            "population generator nullspace is degenerate (|f| = 1)"
        )
    v = vh[3].real
    p = v / v.sum()
    return XState(p_gg=float(p[0]), p_ee=float(p[1]), p_aa=float(p[2]), p_ss=float(p[3]))
