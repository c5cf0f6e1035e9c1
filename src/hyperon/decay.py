"""Spin-1/2 hyperon nonleptonic decay as a two-amplitude process.

A decay with S-wave (parity violating) and P-wave (parity conserving)
amplitudes acts on the parent spin through the transition matrix
``T = S I + P n.sigma`` where n is the daughter momentum direction.  The
same process, viewed as an open channel, is a two-outcome incomplete spin
measurement: with probability ``(1 +/- alpha)/2`` the spin is projected
along ``+/- n``.  This module holds the amplitude <-> parameter
conversions, the Kraus decomposition and the normalized angular density.

Phase conventions: ``alpha + i beta`` has phase ``chi_SP`` (the S-P phase
shift), and ``beta + i gamma`` has phase ``pi/2 - phi``.  `DecayParameters`
stores ``chi_SP = atan2(beta, alpha)`` on the full circle; published tables
report it modulo pi (see :func:`chi_sp_mod_pi`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import PAULI, as_density, pauli_dot
from .sphere import require_polarization, require_unit

_PARAM_TOL = 1e-12


@dataclass(frozen=True)
class DecayAmplitudes:
    """S-wave and P-wave amplitudes; at least one must be nonzero."""

    S: complex
    P: complex

    def __post_init__(self):
        if self.norm_sq == 0.0:
            raise ValueError("S and P cannot both vanish")

    @property
    def norm_sq(self) -> float:
        return abs(self.S) ** 2 + abs(self.P) ** 2


@dataclass(frozen=True)
class DecayParameters:
    """Asymmetry parameters (alpha, beta, gamma) and their information-theoretic face.

    alpha = 2 Re(S* P) / (|S|^2 + |P|^2)
    beta  = 2 Im(S* P) / (|S|^2 + |P|^2) = sqrt(1 - alpha^2) sin(phi)
    gamma = (|S|^2 - |P|^2) / (|S|^2 + |P|^2) = sqrt(1 - alpha^2) cos(phi)
    visibility = sqrt(alpha^2 + beta^2), predictability = |gamma|,
    chi_sp = atan2(beta, alpha).

    Only (alpha, beta, gamma) are stored; the rest are computed from them.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        err = self.alpha * self.alpha + self.beta * self.beta + self.gamma * self.gamma - 1.0
        if not abs(err) <= _PARAM_TOL:  # written so that NaN fails
            raise ValueError(f"inconsistent decay parameters: alpha^2+beta^2+gamma^2 = 1 off by {err:.3e}")

    @property
    def phi(self) -> float:
        return float(np.arctan2(self.beta, self.gamma))

    @property
    def chi_sp(self) -> float:
        return float(np.arctan2(self.beta, self.alpha))

    @property
    def visibility(self) -> float:
        return float(np.hypot(self.alpha, self.beta))

    @property
    def predictability(self) -> float:
        return abs(self.gamma)


def chi_sp_mod_pi(params: DecayParameters) -> float:
    """S-P phase shift folded into (-pi/2, pi/2], the convention of published tables.

    Tables report |alpha| together with a principal-branch phase; the fold
    keeps tan(chi) = beta/alpha while dropping the overall amplitude sign.
    """
    chi = params.chi_sp
    if chi > np.pi / 2:
        chi -= np.pi
    elif chi <= -np.pi / 2:
        chi += np.pi
    return chi


def params_from_amplitudes(a: DecayAmplitudes) -> DecayParameters:
    """Standard decay parameters (alpha, beta, gamma, ...) from (S, P)."""
    n = a.norm_sq
    sp = np.conj(a.S) * a.P
    gamma = (abs(a.S) ** 2 - abs(a.P) ** 2) / n
    return DecayParameters(float(2.0 * sp.real / n), float(2.0 * sp.imag / n), float(gamma))


def params_from_alpha_phi(alpha: float, phi: float, gamma_sign: int | None = None) -> DecayParameters:
    """Parameters from the measured pair (alpha, phi).

    ``gamma_sign`` (+1 or -1), when given, must agree with the sign of
    cos(phi); it is carried by parameter files as an explicit cross-check
    since gamma's sign is not recoverable from visibility/predictability
    magnitudes alone.
    """
    if not abs(alpha) <= 1.0:  # written so that NaN fails
        raise ValueError(f"|alpha| = {abs(alpha)} exceeds 1")
    if not np.isfinite(phi):
        raise ValueError(f"phi = {phi} is not finite")
    r = np.sqrt(1.0 - alpha * alpha)
    beta = r * np.sin(phi)
    gamma = r * np.cos(phi)
    if gamma_sign is not None:
        if gamma_sign not in (1, -1):
            raise ValueError("gamma_sign must be +1 or -1")
        if gamma != 0.0 and np.sign(gamma) != gamma_sign:
            raise ValueError(
                f"gamma_sign {gamma_sign:+d} contradicts cos(phi) = {np.cos(phi):.6g}"
            )
    return DecayParameters(float(alpha), float(beta), float(gamma))


def amplitudes_from_params(p: DecayParameters) -> DecayAmplitudes:
    """Reconstruct amplitudes with S real nonnegative and |S|^2 + |P|^2 = 1.

    Observables depend only on (alpha, beta, gamma), so the global phase and
    scale are fixed by this convention.
    """
    s_sq = (1.0 + p.gamma) / 2.0
    if s_sq <= 0.0:
        # pure P wave: gamma = -1, phase free; pick P = 1
        return DecayAmplitudes(S=0.0, P=1.0)
    s = np.sqrt(s_sq)
    return DecayAmplitudes(S=complex(s), P=(p.alpha + 1j * p.beta) / (2.0 * s))


@dataclass(frozen=True)
class KrausPair:
    """Two-outcome channel data: probabilities and quantization Bloch vectors.

    The channel projects the spin along ``w1 + w2`` with probability
    ``omega_plus`` and along ``w1 - w2`` with probability ``omega_minus``;
    for spin 1/2 the vectors satisfy w1 = 0 and |w1 +/- w2|^2 = 1.
    """

    omega_plus: float
    omega_minus: float
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        w1 = np.array(self.w1, dtype=float)  # a copy: the caller's arrays stay writable
        w2 = np.array(self.w2, dtype=float)
        # each check is written so that NaN fails it
        if not abs(self.omega_plus + self.omega_minus - 1.0) <= _PARAM_TOL:
            raise ValueError("outcome probabilities must sum to 1")
        if not (self.omega_plus >= 0.0 and self.omega_minus >= 0.0):
            raise ValueError("outcome probabilities must be nonnegative")
        if not abs(np.dot(w1, w2)) <= _PARAM_TOL:
            raise ValueError("quantization vectors must be orthogonal")
        for sign in (+1.0, -1.0):
            length_sq = float(np.dot(w1 + sign * w2, w1 + sign * w2))
            if not abs(length_sq - 1.0) <= _PARAM_TOL:  # s(2s+1) = 1 for s = 1/2
                raise ValueError(f"|w1 {'+' if sign > 0 else '-'} w2|^2 = {length_sq:.12g}, expected 1")
        w1.setflags(write=False)
        w2.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)


def transition_matrix(a: DecayAmplitudes, n) -> np.ndarray:
    """Decay matrix ``T = S I + P n.sigma`` for daughter direction n."""
    n = require_unit(n)
    return a.S * np.eye(2, dtype=complex) + a.P * pauli_dot(n)


def spin_half_projector(direction) -> np.ndarray:
    """Projector (I + w.sigma)/2 onto the spin state along a unit vector."""
    w = require_unit(direction)
    return (np.eye(2, dtype=complex) + pauli_dot(w)) / 2.0


def kraus_decompose(a: DecayAmplitudes, n) -> KrausPair:
    """Two-outcome Kraus data of the decay: project along +/- n with (1 +/- alpha)/2."""
    n = require_unit(n)
    alpha = params_from_amplitudes(a).alpha
    return KrausPair(
        omega_plus=(1.0 + alpha) / 2.0,
        omega_minus=(1.0 - alpha) / 2.0,
        w1=np.zeros(3),
        w2=n,
    )


def kraus_operators(a: DecayAmplitudes, n) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian Kraus operators (K+, K-) with Tr(K+ rho K+) + Tr(K- rho K-) = Tr(T rho T^dag).

    K+- = sqrt(2 (|S|^2+|P|^2) omega_+-) Pi(+-n); the prefactor makes the
    pair reproduce the unnormalized two-amplitude intensity exactly, i.e.
    K+^2 + K-^2 = T^dag T.
    """
    pair = kraus_decompose(a, n)
    scale = 2.0 * a.norm_sq
    axis = pair.w1 + pair.w2
    k_plus = np.sqrt(scale * pair.omega_plus) * spin_half_projector(axis)
    k_minus = np.sqrt(scale * pair.omega_minus) * spin_half_projector(-axis)
    return k_plus, k_minus


def kraus_intensity(a: DecayAmplitudes, n, rho) -> float:
    """Intensity through the Kraus pair; equals Tr(T rho T^dag)."""
    k_plus, k_minus = kraus_operators(a, n)
    rho = as_density(rho).matrix
    val = np.trace(k_plus @ rho @ k_plus) + np.trace(k_minus @ rho @ k_minus)
    return float(val.real)


def angular_pdf(params: DecayParameters, s, n) -> float:
    """Normalized daughter-direction density ``(1/4pi)(1 + alpha s.n)``.

    ``s`` is the parent Bloch vector (|s| <= 1), ``n`` a unit direction.
    Integrates to 1 over the sphere; only the normalized shape is observable,
    the (|S|^2 + |P|^2) scale lives in the unnormalized intensity.
    """
    s = require_polarization(s, "s")
    n = require_unit(n)
    return float((1.0 + params.alpha * np.dot(s, n)) / (4.0 * np.pi))


def spin_bloch(rho) -> np.ndarray:
    """Bloch 3-vector Tr(sigma rho) of a qubit state."""
    rho = as_density(rho)
    if rho.dim != 2:
        raise ValueError("spin Bloch vector is defined for qubits only")
    return np.einsum("kij,ji->k", PAULI, rho.matrix).real
