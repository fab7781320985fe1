"""Concurrence and its closed-form initial rates.

For an X-form state the Wootters concurrence reduces to C = max{0, K1, K2}
with

    K1 = sqrt((p_aa - p_ss)^2 + 4*Im(rho_AS)^2) - 2*sqrt(p_gg*p_ee)
    K2 = 2*|rho_GE| - sqrt((p_aa + p_ss)^2 - 4*Re(rho_AS)^2)

(the first radicand uses rho_AS - rho_SA = 2i*Im(rho_AS), the second
rho_AS + rho_SA = 2*Re(rho_AS)).  The general-state Wootters formula is kept
alongside as an independent cross-check.

Starting from the separable |10> state, entanglement appears at a rate

    K1'(0) = 4*sqrt(a2^2 + d^2) - 4*sqrt(a1^2 - b1^2)

so generation is possible iff a2^2 + d^2 > a1^2 - b1^2; the exchange term d
only ever helps.  For a one-excitation superposition
cos(theta)|A> + sin(theta)e^{i*phi}|S> the rate acquires a phase-sensitive
term -2*d*sin^2(2*theta)*sin(2*phi), which can flip degradation into
enhancement; the term vanishes with d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormulaSingularError, InvalidParameterError, InvalidStateError
from .params import Coefficients, _scalar_or_array
from .xstate import XState, evolve

# radicand more negative than this signals a genuinely non-positive state
RADICAND_TOL = -1e-12

_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)  # sigma_y (x) sigma_y in the product basis {|11>,|10>,|01>,|00>}


@dataclass(frozen=True)
class ConcurrenceBreakdown:
    """Concurrence c = max(0, k1, k2) together with its two branches."""

    k1: float
    k2: float
    c: float


def concurrence_x(state: XState) -> ConcurrenceBreakdown:
    """Concurrence of an X-form state from its two branch functions.

    Radicands negative by round-off (within 1e-12) are clipped to zero;
    anything more negative means the state is not positive semidefinite and
    is rejected.
    """
    r1 = (state.p_aa - state.p_ss) ** 2 + 4.0 * state.c_as.imag ** 2
    r2 = (state.p_aa + state.p_ss) ** 2 - 4.0 * state.c_as.real ** 2
    pge = state.p_gg * state.p_ee
    for radicand in (r1, r2, pge):
        if radicand < RADICAND_TOL:
            raise InvalidStateError(
                f"concurrence radicand {radicand:.3e} < {RADICAND_TOL}: state not positive",
                code="radicand-negative",
            )
    k1 = math.sqrt(max(r1, 0.0)) - 2.0 * math.sqrt(max(pge, 0.0))
    k2 = 2.0 * abs(state.c_ge) - math.sqrt(max(r2, 0.0))
    return ConcurrenceBreakdown(k1=k1, k2=k2, c=max(0.0, k1, k2))


def concurrence_general(rho: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasingly sorted
    square roots of the eigenvalues of rho * rho_tilde, and
    rho_tilde = (sy (x) sy) rho^* (sy (x) sy) is the spin-flipped state.
    The l_i are computed as the singular values of
    sqrt(rho) (sy (x) sy) conj(sqrt(rho)), which has the same spectrum but
    avoids the sqrt-of-eigenvalue noise amplification on rank-deficient
    states (pure states would otherwise only come out to ~1e-8).  Agrees
    with ``concurrence_x`` on X states; used as the independent validation
    route.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError("density matrix must be 4x4", code="rho-shape")
    if not np.isfinite(rho).all():
        raise InvalidStateError("density matrix must be finite", code="state-not-finite")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise InvalidStateError("density matrix must be Hermitian", code="rho-not-hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise InvalidStateError("density matrix trace must be 1", code="trace-deviant")
    evals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    if evals.min() < -1e-7:
        raise InvalidStateError("density matrix must be positive", code="rho-not-positive")
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    lam = np.linalg.svd(root @ _SY_SY @ root.conj(), compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _hypot(x, y):
    """sqrt(x^2 + y^2), as hypot only past 1e150, where a square could overflow."""
    x, y = np.abs(x), np.abs(y)
    plain = np.sqrt(np.minimum(x, 1e150) ** 2 + np.minimum(y, 1e150) ** 2)
    return np.where(np.maximum(x, y) > 1e150, np.hypot(x, y), plain)


def _local_root(coeffs):
    """sqrt(a1^2 - b1^2) as a product of roots: no overflow at huge a1, no cancellation."""
    return np.sqrt(np.maximum(coeffs.a1 - coeffs.b1, 0.0)) * np.sqrt(coeffs.a1 + coeffs.b1)


def generation_possible(coeffs: Coefficients):
    """Whether entanglement grows out of |10> right after tau = 0.

    Strict inequality a2^2 + d^2 > a1^2 - b1^2.  With the exchange switched
    off this reduces to a2^2 > a1^2 - b1^2, a strictly smaller region.  Takes
    a Coefficients (gives a bool) or the arrays of ``params.rate_constants``;
    past a1 or |d| = 1e150, where a square could overflow, the roots of both
    sides are compared instead.
    """
    a1, a2, b1, d = (np.minimum(np.abs(v), 1e150)
                     for v in (coeffs.a1, coeffs.a2, coeffs.b1, coeffs.d))
    plain = a2 ** 2 + d ** 2 > a1 ** 2 - b1 ** 2
    roots = _hypot(coeffs.a2, coeffs.d) > _local_root(coeffs)
    big = np.maximum(coeffs.a1, np.abs(coeffs.d)) > 1e150  # a square could overflow
    return _scalar_or_array(np.where(big, roots, plain))


def generation_rate_product(coeffs: Coefficients):
    """Closed-form initial concurrence rate K1'(0) for the |10> start.

    4*sqrt(a2^2 + d^2) - 4*sqrt(a1^2 - b1^2); positive exactly when
    ``generation_possible``.  This is the raw branch rate: the measured
    concurrence is clamped at zero, so a negative value means the state
    simply stays separable.  Takes a Coefficients (gives a float) or the
    arrays of ``params.rate_constants``.
    """
    return _scalar_or_array(4.0 * _hypot(coeffs.a2, coeffs.d) - 4.0 * _local_root(coeffs))


def initial_rate_superposition(coeffs: Coefficients, theta: float, phi: float):
    """Closed-form C'(0) for the cos(theta)|A> + sin(theta)e^{i*phi}|S> start.

    C'(0) = [ -4*a1*(cos^2(2θ) + sin^2(2θ)sin^2(φ)) + 4*a2*cos(2θ)
              - 2*d*sin^2(2θ)*sin(2φ) ] / sqrt(cos^2(2θ) + sin^2(2θ)sin^2(φ))
            - 4*sqrt((a1 - a2*cos(2θ))^2 - (b1 - b2*cos(2θ))^2)

    The denominator is the initial concurrence itself; where it vanishes
    (e.g. θ = π/4, φ = 0, which is just |10> again) the formula is singular
    and callers must fall back to ``numerical_initial_rate``.  With d = 0 the
    φ-odd term disappears and the rate is insensitive to the sign of φ.
    Takes a Coefficients (gives a float) or the arrays of
    ``params.rate_constants``, with scalar angles.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise InvalidParameterError("angles must be finite", code="angle-not-finite")
    c2t, s2t = math.cos(2.0 * theta), math.sin(2.0 * theta)
    denom_sq = c2t ** 2 + (s2t * math.sin(phi)) ** 2
    if denom_sq < 1e-24:
        raise FormulaSingularError(
            "initial concurrence vanishes here; use numerical_initial_rate"
        )
    r0 = math.sqrt(denom_sq)
    num = (
        -4.0 * coeffs.a1 * denom_sq
        + 4.0 * coeffs.a2 * c2t
        - 2.0 * coeffs.d * s2t ** 2 * math.sin(2.0 * phi)
    )
    # the root is sqrt(a1^2 - b1^2)*|1 - f*cos2theta| (a2 = f*a1, b2 = f*b1), taken as a
    # product: no square to overflow and no cancellation between the two squares
    root = _local_root(coeffs) * np.abs(1.0 - coeffs.f * c2t)
    return _scalar_or_array(num / r0 - 4.0 * root)


def numerical_initial_rate(
    state0: XState, coeffs: Coefficients, h: float | None = None
) -> float:
    """Finite-difference dC/dtau at tau = 0+, the oracle for the rate formulas.

    One-sided differences (the concurrence is clamped at zero from below for
    separable starts, so a two-sided stencil would straddle the kink) with
    Richardson extrapolation over steps h, h/2, h/4; the evaluations use the
    exact closed-form flow, so the only error left is the Taylor remainder.
    By default h is scaled to the fastest rate in the problem.
    """
    if h is None:
        fastest = max(4.0 * (coeffs.a1 + coeffs.b1), 4.0 * abs(coeffs.d), coeffs.gamma0)
        h = 5e-3 / fastest
    if not math.isfinite(h) or h <= 0:
        raise InvalidParameterError("step h must be > 0", code="step-nonpositive")
    c0 = concurrence_x(state0).c
    d1, d2, d3 = (
        (concurrence_x(evolve(state0, coeffs, h / k)).c - c0) / (h / k) for k in (1, 2, 4)
    )
    e1 = 2.0 * d2 - d1
    e2 = 2.0 * d3 - d2
    return (4.0 * e2 - e1) / 3.0


def clamped_rate(k1_at_zero: float, raw_rate: float) -> float:
    """Rate of the clamped concurrence max(0, K1).

    When the state starts separable (K1(0) = 0) and the branch rate is
    negative, the concurrence just stays at zero, so the observable rate is
    zero; otherwise the raw rate is the observable one.
    """
    if abs(k1_at_zero) <= 1e-12 and raw_rate < 0.0:
        return 0.0
    return raw_rate
