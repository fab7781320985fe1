"""Field-correlation spectra and rate constants for a pair of accelerated atoms.

Two identical two-level atoms (transition frequency omega) ride parallel
uniformly accelerated trajectories with the same proper acceleration a,
separated by a distance L perpendicular to the acceleration, and couple
linearly to a massless scalar field in the Minkowski vacuum.  After the
Born-Markov reduction the entire dissipative dynamics is controlled by five
rate constants and one geometric factor, all closed-form in the two
dimensionless combinations a/omega and omega*L:

    a1 = (Gamma0/4) * coth(pi*omega/a)          single-atom rate sum
    b1 =  Gamma0/4                              single-atom rate difference
    a2 = f * a1,   b2 = f * b1                  cross-atom rates
    d  = (Gamma0/4) * cos(x) / (wL*sqrt(1 + (aL)^2/4))   coherent exchange
    f  =              sin(x) / (wL*sqrt(1 + (aL)^2/4))
    x  = (2*omega/a) * asinh(a*L/2)

with Gamma0 the spontaneous-emission rate of a single inertial atom.  The
detector on each trajectory sees a thermal spectrum at temperature a/(2*pi),
which is where the coth comes from; the factor f and the exchange strength d
encode how much of the field fluctuation is shared between the two
trajectories.

Dimensionless convention used everywhere in this package: omega = 1, rates in
units of Gamma0, time in units of 1/Gamma0.  The inertial case a = 0 is
handled by dedicated limit branches, never by a small-epsilon substitute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * math.pi

# Switch to the Laurent form of coth(pi/alpha) above this acceleration ratio.
_COTH_LAURENT_CUTOFF = 1.0e6
# Below this value of a*L the phase x is evaluated by series to avoid cancellation.
_PHASE_SERIES_CUTOFF = 1.0e-6


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise InvalidParameterError(f"{name} must be finite", code=f"{name}-not-finite")


@dataclass(frozen=True)
class SimConfig:
    """Dimensionless physical inputs of a single simulation point.

    accel_ratio
        a/omega >= 0.  Zero selects the inertial limit (evaluated by analytic
        limit formulas, not by a tiny acceleration).
    separation
        omega*L > 0, strictly.  L = 0 is rejected because the exchange
        strength diverges like 1/(4*omega*L).
    gamma0
        Inertial spontaneous-emission rate Gamma0 > 0; sets the time unit.
    include_interaction
        Whether the environment-induced coherent exchange d enters the
        dynamics.  When False, d is forced to exactly zero.
    """

    accel_ratio: float
    separation: float
    gamma0: float = 1.0
    include_interaction: bool = True

    def __post_init__(self):
        _require_finite("accel", self.accel_ratio)
        _require_finite("separation", self.separation)
        _require_finite("gamma0", self.gamma0)
        if self.accel_ratio < 0:
            raise InvalidParameterError(
                "acceleration ratio a/omega must be >= 0", code="accel-negative"
            )
        if self.separation <= 0:
            raise InvalidParameterError(
                "separation omega*L must be > 0 (the exchange strength diverges at L = 0)",
                code="separation-nonpositive",
            )
        if self.gamma0 <= 0:
            raise InvalidParameterError("gamma0 must be > 0", code="gamma0-nonpositive")


@dataclass(frozen=True)
class Coefficients:
    """Rate constants of the pair master equation, in absolute units.

    a1, a2, b1, b2, d are rates (proportional to gamma0); f is the
    dimensionless geometric factor.  Identities enforced on construction:
    b1 = gamma0/4 exactly, a2 = f*a1, b2 = f*b1, |f| <= 1, a1 >= b1.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    d: float
    f: float
    gamma0: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2", "d", "f", "gamma0"):
            _require_finite(name, getattr(self, name))
        if self.gamma0 <= 0:
            raise InvalidParameterError("gamma0 must be > 0", code="gamma0-nonpositive")
        scale = self.gamma0
        if abs(self.b1 - self.gamma0 / 4.0) > 1e-12 * scale:
            raise InvalidParameterError("b1 must equal gamma0/4", code="b1-inconsistent")
        if self.a1 < self.b1 * (1.0 - 1e-12):
            raise InvalidParameterError("a1 must be >= b1", code="a1-too-small")
        if abs(self.f) > 1.0 + 1e-12:
            raise InvalidParameterError("|f| must be <= 1", code="f-out-of-range")
        if abs(self.a2 - self.f * self.a1) > 1e-12 * scale:
            raise InvalidParameterError("a2 must equal f*a1", code="a2-inconsistent")
        if abs(self.b2 - self.f * self.b1) > 1e-12 * scale:
            raise InvalidParameterError("b2 must equal f*b1", code="b2-inconsistent")


def spectral_density_same(lam: float, accel: float) -> float:
    """Fourier transform of the field correlation along one trajectory.

    Returns (1/2pi) * lam / (1 - exp(-2*pi*lam/accel)), the thermal Planck
    kernel at the acceleration temperature accel/(2*pi).  For accel = 0 the
    zero-temperature limit applies: lam/(2pi) for lam > 0, zero for lam < 0.
    Obeys detailed balance G(-lam) = exp(-2*pi*lam/accel) * G(lam).

    Stable for accel/lam anywhere in [1e-6, 1e6] and beyond: the two half
    lines use algebraically equivalent forms that avoid overflow of the
    exponential and cancellation in the denominator.
    """
    _require_finite("lambda", lam)
    _require_finite("accel", accel)
    if accel < 0:
        raise InvalidParameterError("acceleration must be >= 0", code="accel-negative")
    if accel == 0.0:
        return lam / TWO_PI if lam > 0 else 0.0
    if lam == 0.0:
        return accel / (TWO_PI * TWO_PI)
    s = TWO_PI * lam / accel
    if s > 0:
        kernel = lam / (-math.expm1(-s))
    else:
        # multiply numerator and denominator by e^s so nothing overflows
        kernel = lam * math.exp(s) / math.expm1(s)
    return kernel / TWO_PI


def spectral_density_cross(lam: float, accel: float, sep: float) -> float:
    """Fourier transform of the cross-trajectory field correlation.

    Equals ``spectral_density_same(lam, accel)`` times an even-in-lam
    geometric factor sin(lam*psi)/(lam*L*sqrt(1 + (a*L)^2/4)), where psi is
    the phase length (2/a)*asinh(a*L/2).  Because the factor is even in lam,
    the detailed-balance relation of the same-trajectory spectrum is
    inherited unchanged.
    """
    _require_finite("lambda", lam)
    if sep <= 0:
        raise InvalidParameterError(
            "separation must be > 0", code="separation-nonpositive"
        )
    base = spectral_density_same(lam, accel)
    psi = _phase_length(accel, sep)
    t = accel * sep / 2.0
    denom = sep * (math.sqrt(1.0 + t * t) if t < 1e150 else t)  # may be inf: f -> 0
    if lam == 0.0:
        factor = psi / denom
    else:
        factor = math.sin(lam * psi) / (lam * denom)
    return base * factor


def _phase_length(accel, sep):
    """Phase length psi = (2/a)*asinh(a*L/2); the a -> 0 limit is L itself.

    For a*L below the series cutoff the direct form suffers cancellation in
    the 2/a prefactor, so the expansion L*(1 - (aL)^2/24 + 3(aL)^4/640) is
    used; its truncation error is far below double precision there.
    Accepts scalars or arrays (broadcast together).
    """
    accel = np.asarray(accel, dtype=float)
    sep = np.asarray(sep, dtype=float)
    u = accel * sep
    small = u < _PHASE_SERIES_CUTOFF
    safe_accel = np.where(small, 1.0, accel)
    with np.errstate(invalid="ignore"):
        direct = (2.0 / safe_accel) * np.arcsinh(safe_accel * sep / 2.0)
    us = np.where(small, u, 0.0)  # the series only where it is used: no overflow
    series = sep * (1.0 - us * us / 24.0 + 3.0 * us ** 4 / 640.0)
    out = np.where(small, series, direct)
    return float(out) if out.ndim == 0 else out


def _exchange_factors(accel_ratio, separation):
    """Validated f and d/gamma0: (sin(x), cos(x)/4) / (wL*sqrt(1 + (aL)^2/4)).

    Past aL/2 = 1e150 the root is aL/2 itself to double precision, so nothing is
    squared there.  Overflow is left to IEEE arithmetic without a warning: a
    denominator past the float range makes f = d = 0, and an infinite d is
    rejected where Coefficients are built.
    """
    accel_ratio = np.asarray(accel_ratio, dtype=float)
    separation = np.asarray(separation, dtype=float)
    _require_finite("accel", accel_ratio)
    _require_finite("separation", separation)
    if np.any(accel_ratio < 0):
        raise InvalidParameterError("acceleration must be >= 0", code="accel-negative")
    if np.any(separation <= 0):
        raise InvalidParameterError(
            "separation must be > 0", code="separation-nonpositive"
        )
    x = _phase_length(accel_ratio, separation)
    t = accel_ratio * separation / 2.0
    with np.errstate(over="ignore"):  # below the cap sqrt(1 + t^2) >= t in floats too
        denom = separation * np.maximum(np.sqrt(1.0 + np.minimum(t, 1e150) ** 2), t)
        return np.sin(x) / denom, np.cos(x) / 4.0 / denom  # = cos(x)/(4*denom) bitwise


def geometric_factor(accel_ratio, separation):
    """Dimensionless factor f = sin(x)/(wL*sqrt(1+(aL)^2/4)), |f| <= 1.

    x is the phase length evaluated at omega = 1.  At zero acceleration this
    is the familiar sinc: sin(wL)/(wL).  Accepts scalars or arrays.
    """
    out = _exchange_factors(accel_ratio, separation)[0]
    return float(out) if np.ndim(out) == 0 else out


def interaction_strength(accel_ratio, separation):
    """Coherent exchange strength d/gamma0 = cos(x)/(4*wL*sqrt(1+(aL)^2/4)).

    Shares the phase x and the denominator with ``geometric_factor``; the
    sign oscillates with the cosine and is kept as produced (no absolute
    value), since it sets the rotation sense of the antisymmetric-symmetric
    coherence.  Grows like 1/(4*wL) as wL -> 0, which is why L = 0 is
    rejected.  Accepts scalars or arrays.
    """
    out = _exchange_factors(accel_ratio, separation)[1]
    return float(out) if np.ndim(out) == 0 else out


def thermal_ratio(accel_ratio):
    """coth(pi/alpha) = a1/b1, the thermal enhancement of the local rates.

    Evaluated as 1 + 2*e^{-2y}/(1 - e^{-2y}) with y = pi/alpha so nothing
    overflows at small alpha; above the Laurent cutoff the expansion
    alpha/pi + pi/(3*alpha) is used.  Returns exactly 1.0 at alpha = 0.
    Accepts scalars or arrays.
    """
    alpha_in = np.asarray(accel_ratio, dtype=float)
    _require_finite("accel", alpha_in)
    if np.any(alpha_in < 0):
        raise InvalidParameterError("acceleration must be >= 0", code="accel-negative")
    alpha = np.atleast_1d(alpha_in)
    out = np.ones_like(alpha)
    hot = alpha > _COTH_LAURENT_CUTOFF
    warm = (alpha > 0) & ~hot
    if np.any(warm):
        y = math.pi / alpha[warm]
        e = np.exp(-2.0 * y)
        out[warm] = 1.0 + 2.0 * e / (-np.expm1(-2.0 * y))
    if np.any(hot):
        out[hot] = alpha[hot] / math.pi + math.pi / (3.0 * alpha[hot])
    return float(out[0]) if alpha_in.ndim == 0 else out.reshape(alpha_in.shape)


def coefficients(config: SimConfig) -> Coefficients:
    """All rate constants for one parameter point.

    With omega = 1: a1 = (gamma0/4)*coth(pi/alpha), b1 = gamma0/4,
    a2 = f*a1, b2 = f*b1, and d = gamma0 * interaction_strength, forced to
    exactly 0.0 when the exchange switch is off.
    """
    g0 = config.gamma0
    b1 = g0 / 4.0
    a1 = b1 * thermal_ratio(config.accel_ratio)
    f, d = (float(v) for v in _exchange_factors(config.accel_ratio, config.separation))
    d = g0 * d if config.include_interaction else 0.0
    return Coefficients(a1=a1, a2=f * a1, b1=b1, b2=f * b1, d=d, f=f, gamma0=g0)
