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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateGeneratorError,
    InvalidParameterError,
    InvalidStateError,
)
from .params import Coefficients

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
        pops = (self.p_gg, self.p_ee, self.p_aa, self.p_ss)
        if not all(math.isfinite(p) for p in pops) or not all(
            math.isfinite(abs(c)) for c in (self.c_as, self.c_ge)
        ):
            raise InvalidStateError("state entries must be finite", code="state-not-finite")
        if abs(sum(pops) - 1.0) > TRACE_TOL:
            raise InvalidStateError(
                f"trace deviates from 1 by {sum(pops) - 1.0:.3e}", code="trace-deviant"
            )
        if min(pops) < -POPULATION_TOL:
            raise InvalidStateError(
                f"negative population {min(pops):.3e}", code="population-negative"
            )
        if abs(self.c_as) ** 2 > self.p_aa * self.p_ss + COHERENCE_TOL:
            raise InvalidStateError(
                "|rho_AS|^2 exceeds p_aa*p_ss", code="coherence-as-too-large"
            )
        if abs(self.c_ge) ** 2 > self.p_gg * self.p_ee + COHERENCE_TOL:
            raise InvalidStateError(
                "|rho_GE|^2 exceeds p_gg*p_ee", code="coherence-ge-too-large"
            )

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
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m.sum(axis=0))) > 1e-12 * scale:
            raise InvalidStateError(
                "generator columns must sum to zero", code="generator-not-tracefree"
            )
        off = m - np.diag(np.diag(m))
        if off.min() < -1e-12 * scale:
            raise InvalidStateError(
                "off-diagonal rates must be nonnegative", code="generator-negative-rate"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def diagonal_generator(coeffs: Coefficients) -> DiagonalGenerator:
    """Population rate matrix from the coefficients.

    Transcribes the four coupled-basis population equations: the ground and
    doubly-excited populations exchange with |A> and |S> at rates
    2*(a1 -/+ b1)*(1 -/+ f), i.e. the collective emission/absorption cascades
    through the sub- and superradiant channels.
    """
    a1, a2, b1, b2 = coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2
    return DiagonalGenerator(
        matrix=np.array(
            [
                [-4 * (a1 - b1), 0.0, 2 * (a1 + b1 - a2 - b2), 2 * (a1 + b1 + a2 + b2)],
                [0.0, -4 * (a1 + b1), 2 * (a1 - b1 - a2 + b2), 2 * (a1 - b1 + a2 - b2)],
                [2 * (a1 - b1 - a2 + b2), 2 * (a1 + b1 - a2 - b2), -4 * (a1 - a2), 0.0],
                [2 * (a1 - b1 + a2 - b2), 2 * (a1 + b1 + a2 + b2), 0.0, -4 * (a1 + a2)],
            ]
        )
    )


class _PopulationFlow:
    """Exact propagator p(tau) = exp(M*tau) p0 for one coefficient set."""

    def __init__(self, coeffs: Coefficients, force_expm: bool = False):
        self.matrix = diagonal_generator(coeffs).matrix
        self._eig = None
        if not force_expm:
            try:
                w, v = np.linalg.eig(self.matrix)
                vinv = np.linalg.inv(v)
                cond = np.linalg.norm(v, 2) * np.linalg.norm(vinv, 2)
                if cond < _EIG_COND_LIMIT:
                    self._eig = (w, v, vinv)
            except np.linalg.LinAlgError:
                pass

    def propagate(self, p0: np.ndarray, tau: float) -> np.ndarray:
        if self._eig is not None:
            w, v, vinv = self._eig
            return (v @ (np.exp(w * tau) * (vinv @ p0))).real
        return scipy.linalg.expm(self.matrix * tau) @ p0


@lru_cache(maxsize=512)
def _population_flow(coeffs: Coefficients) -> _PopulationFlow:
    return _PopulationFlow(coeffs)


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
    flow = _population_flow(coeffs)
    p = flow.propagate(state0.populations, tau)
    c_as = state0.c_as * cmath.exp(-4.0 * (coeffs.a1 + 1j * coeffs.d) * tau)
    c_ge = state0.c_ge * math.exp(-4.0 * coeffs.a1 * tau)
    return XState(
        p_gg=float(p[0]), p_ee=float(p[1]), p_aa=float(p[2]), p_ss=float(p[3]),
        c_as=c_as, c_ge=c_ge,
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
