"""Full 4x4 master-equation integrator in the product basis.

This module is the independent cross-check for the closed-form propagation in
``xstate``: it transcribes the master equation literally, effective
Hamiltonian commutator plus the double-sum dissipator,

    drho/dtau = i * sum_ij Omega_ij [sigma_i (x) sigma_j, rho]
                + (1/2) * sum_{ab,ij} C_ij^{(ab)} ( 2 s_j^{(b)} rho s_i^{(a)}
                  - s_i^{(a)} s_j^{(b)} rho - rho s_i^{(a)} s_j^{(b)} )

and integrates it with a plain fixed-step classical Runge-Kutta scheme,
self-verified by step halving.  Nothing here shares code with the coupled
basis route, so agreement between the two is a real consistency check.

Product basis ordering is fixed once and used everywhere:
{|11>, |10>, |01>, |00>} with |1> the excited single-atom level.  The
equations are written in the frame co-rotating with the free atomic
Hamiltonian (the printed coherence equations carry no bare-frequency
oscillation); pass include_free=True to put the free commutator
-i[(omega/2)(s3 (x) 1 + 1 (x) s3), rho] back in for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError, NonConvergenceError
from .params import Coefficients
from .xstate import XState

OFF_X_TOL = 1e-8
HALVING_TOL = 1e-8

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)
_PAULIS = (_S1, _S2, _S3)

# sigma_i acting on atom 1 / atom 2 in the product basis
_SIGMA = {
    (1, i): np.kron(_PAULIS[i], _ID) for i in range(3)
} | {
    (2, i): np.kron(_ID, _PAULIS[i]) for i in range(3)
}

# exchange operator sigma_1(x)sigma_1 + sigma_2(x)sigma_2 entering H_eff
_EXCHANGE = np.kron(_S1, _S1) + np.kron(_S2, _S2)

# free atomic Hamiltonian at omega = 1
_H_FREE = 0.5 * (np.kron(_S3, _ID) + np.kron(_ID, _S3))

# coupled-basis vectors as columns (G, A, S, E) in the product basis
_SQ2 = 1.0 / math.sqrt(2.0)
_V_COUPLED = np.array(
    [
        [0, 0, 0, 1],
        [0, _SQ2, _SQ2, 0],
        [0, -_SQ2, _SQ2, 0],
        [1, 0, 0, 0],
    ],
    dtype=complex,
)

# indices of product-basis elements that must vanish for an X-form matrix
_OFF_X_INDICES = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (2, 3), (3, 1), (3, 2)]


def _coefficient_block(a: float, b: float) -> np.ndarray:
    """3x3 block a*delta_ij - i*b*eps_ij3 - a*delta_3i*delta_3j."""
    return np.array(
        [
            [a, -1j * b, 0],
            [1j * b, a, 0],
            [0, 0, 0],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class GklsData:
    """Precomputed ingredients of the dense master equation.

    c_same / c_cross are the 3x3 coefficient blocks for same-atom and
    cross-atom index pairs (the (1,1) block equals the (2,2) one, and (1,2)
    equals (2,1)); omega_cross is the coherent-exchange block
    d*(delta_ij - delta_3i*delta_3j).  ``generator`` is the 16x16 linear map
    acting on the flattened density matrix, assembled column by column from
    the literal right-hand side; ``generator_free`` is the extra piece from
    the free atomic Hamiltonian.
    """

    coeffs: Coefficients
    c_same: np.ndarray
    c_cross: np.ndarray
    omega_cross: np.ndarray
    generator: np.ndarray
    generator_free: np.ndarray

    def __post_init__(self):
        for name in ("c_same", "c_cross", "omega_cross", "generator", "generator_free"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def build_gkls(coeffs: Coefficients) -> GklsData:
    """Assemble the dense generator for one coefficient set."""
    c_same = _coefficient_block(coeffs.a1, coeffs.b1)
    c_cross = _coefficient_block(coeffs.a2, coeffs.b2)
    omega_cross = coeffs.d * np.diag([1.0, 1.0, 0.0]).astype(complex)
    # column k is the right-hand side at the k-th unit matrix
    basis = np.eye(16, dtype=complex).reshape(16, 4, 4)
    generator, with_free = (
        _term_sum(basis, c_same, c_cross, coeffs.d, free).reshape(16, 16).T
        for free in (False, True)
    )
    return GklsData(
        coeffs=coeffs,
        c_same=c_same,
        c_cross=c_cross,
        omega_cross=omega_cross,
        generator=generator,
        generator_free=with_free - generator,
    )


def _term_sum(rho, c_same, c_cross, d, include_free):
    """The literal term-by-term right-hand side, for one rho or a stack of them."""
    out = np.zeros(rho.shape, dtype=complex)
    blocks = {(1, 1): c_same, (2, 2): c_same, (1, 2): c_cross, (2, 1): c_cross}
    for (alpha, beta), block in blocks.items():
        for i in range(3):
            for j in range(3):
                w = block[i, j]
                if w == 0:
                    continue
                s_i = _SIGMA[(alpha, i)]
                s_j = _SIGMA[(beta, j)]
                out += 0.5 * w * (
                    2.0 * (s_j @ rho @ s_i) - s_i @ s_j @ rho - rho @ s_i @ s_j
                )
    if d != 0.0:
        out += 1j * d * (_EXCHANGE @ rho - rho @ _EXCHANGE)
    if include_free:
        out += -1j * (_H_FREE @ rho - rho @ _H_FREE)
    return out


def gkls_rhs(rho: np.ndarray, data: GklsData, include_free: bool = False) -> np.ndarray:
    """drho/dtau for a Hermitian rho; Hermitian and traceless to round-off.

    Written as the literal term-by-term sum over the coefficient blocks (not
    via the precomputed generator), so it stays the transparent reference;
    a consistency test asserts the generator reproduces it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError("rho must be 4x4", code="rho-shape")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise InvalidStateError("rho must be Hermitian", code="rho-not-hermitian")
    return _term_sum(rho, data.c_same, data.c_cross, data.coeffs.d, include_free)


def step_bound(coeffs: Coefficients) -> float:
    """Largest step the fixed-step integrator accepts, and the peak search's sample step.

    At least 40 steps per decay time 1/a1 and 20 per half-turn of the exchange phase.
    """
    bound = 1.0 / (40.0 * coeffs.a1)
    if coeffs.d != 0.0:
        bound = min(bound, math.pi / (20.0 * abs(coeffs.d)))
    return bound


def _validate_dense(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError("rho must be 4x4", code="rho-shape")
    if not np.isfinite(rho).all():
        raise InvalidStateError("rho must be finite", code="state-not-finite")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise InvalidStateError("rho must be Hermitian", code="rho-not-hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise InvalidStateError("rho must have unit trace", code="trace-deviant")
    return rho


def _rk4(y0: np.ndarray, gen: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """n_steps classical RK4 steps of y' = gen y, as a power of the one-step matrix."""
    hg = dt * gen
    one = np.eye(len(gen))
    step = one + hg @ (one + hg / 2.0 @ (one + hg / 3.0 @ (one + hg / 4.0)))
    return np.linalg.matrix_power(step, n_steps) @ y0


def integrate(
    rho0: np.ndarray,
    data: GklsData,
    tau_max: float,
    dt: float,
    include_free: bool = False,
) -> np.ndarray:
    """Fixed-step classical RK4 integration of the dense master equation.

    dt must respect ``step_bound`` (at least 40 steps per decay time and 20
    per half-turn of the exchange phase).  The run is repeated at half the
    step; if the two final states differ anywhere by more than 1e-8 the
    result is rejected as non-converged instead of being returned silently.
    Returns the finer of the two runs.
    """
    rho0 = _validate_dense(rho0)
    if not math.isfinite(dt) or dt <= 0:
        raise InvalidParameterError("dt must be > 0", code="step-nonpositive")
    if not math.isfinite(tau_max) or tau_max < 0:
        raise InvalidParameterError("tau_max must be >= 0", code="tau-max-negative")
    tau_max = float(tau_max)  # a Python float: tau_max / dt may overflow to inf, silently
    bound = step_bound(data.coeffs)
    if dt > bound * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"dt = {dt:.3e} exceeds the stability bound {bound:.3e}",
            code="step-too-large",
        )
    if tau_max == 0.0:
        return rho0.copy()
    if tau_max / dt > 5e7:
        raise InvalidParameterError(
            f"{tau_max / dt:.1e} steps requested; shorten tau_max or coarsen dt",
            code="too-many-steps",
        )
    gen = data.generator + (data.generator_free if include_free else 0.0)
    n = max(1, math.ceil(tau_max / dt - 1e-9))
    dt_eff = tau_max / n
    y0 = rho0.reshape(16)
    coarse = _rk4(y0, gen, n, dt_eff)
    fine = _rk4(y0, gen, 2 * n, dt_eff / 2.0)
    err = np.max(np.abs(coarse - fine))
    if err > HALVING_TOL:
        raise NonConvergenceError(
            f"step-halving check failed: |coarse - fine| = {err:.3e} > {HALVING_TOL}"
        )
    return fine.reshape(4, 4)


def to_xstate(rho: np.ndarray) -> XState:
    """Read an X-form dense matrix into the coupled-basis representation.

    The eight product-basis elements outside the X pattern must vanish to
    within 1e-8; a larger residue means the evolution (or the caller) has
    left the X family, which is reported rather than projected away.
    """
    rho = _validate_dense(rho)
    off = max(abs(rho[i, j]) for i, j in _OFF_X_INDICES)
    if off > OFF_X_TOL:
        raise InvalidStateError(
            f"matrix is not X-form: off-pattern element {off:.3e}", code="not-x-form"
        )
    rc = _V_COUPLED.conj().T @ rho @ _V_COUPLED
    return XState(
        p_gg=rc[0, 0].real,
        p_aa=rc[1, 1].real,
        p_ss=rc[2, 2].real,
        p_ee=rc[3, 3].real,
        c_as=complex(rc[1, 2]),
        c_ge=complex(rc[0, 3]),
    )


def from_xstate(state: XState) -> np.ndarray:
    """Dense product-basis matrix of an X state; inverse of ``to_xstate``."""
    rc = np.zeros((4, 4), dtype=complex)
    rc[0, 0] = state.p_gg
    rc[1, 1] = state.p_aa
    rc[2, 2] = state.p_ss
    rc[3, 3] = state.p_ee
    rc[1, 2] = state.c_as
    rc[2, 1] = state.c_as.conjugate()
    rc[0, 3] = state.c_ge
    rc[3, 0] = state.c_ge.conjugate()
    return _V_COUPLED @ rc @ _V_COUPLED.conj().T
