"""Spin-1/2 hyperon nonleptonic decay as a two-amplitude process.

A decay with S-wave (parity violating) and P-wave (parity conserving)
amplitudes acts on the parent spin through the transition matrix
``T = S I + P n.sigma`` where n is the daughter momentum direction.  The
same process, viewed as an open channel, is a two-outcome incomplete spin
measurement: with probability ``(1 +/- alpha)/2`` the spin is projected
along ``+/- n``.  This module holds the amplitude <-> parameter
conversions, the Kraus decomposition and the normalized angular density;
`DecayParameters` and its scalar conversions live in `params`.

Phase conventions: ``alpha + i beta`` has phase ``chi_SP`` (the S-P phase
shift), and ``beta + i gamma`` has phase ``pi/2 - phi``.  `DecayParameters`
stores ``chi_SP = atan2(beta, alpha)`` on the full circle; published tables
report it modulo pi (see `params.chi_sp_mod_pi`).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .params import _PARAM_TOL, DecayParameters
from .qcore import as_density, bloch_compose, pauli_dot
from .sphere import require_polarization, require_unit


@dataclass(frozen=True)
class DecayAmplitudes:
    """S-wave and P-wave amplitudes whose |S|^2 + |P|^2 is a finite normal float."""

    S: complex
    P: complex

    def __post_init__(self):
        for name in ("S", "P"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"amplitude {name} = {getattr(self, name)} is not finite")
        if not math.isfinite(self.norm_sq):
            raise ValueError(f"|S|^2 + |P|^2 overflows for amplitudes S = {self.S}, P = {self.P}")
        if self.S == 0 and self.P == 0:
            raise ValueError("S and P cannot both vanish")
        if self.norm_sq < sys.float_info.min:  # a subnormal norm_sq leaves too few bits for alpha, beta, gamma
            raise ValueError(f"|S|^2 + |P|^2 underflows for amplitudes S = {self.S}, P = {self.P}")

    @property
    def norm_sq(self) -> float:
        return abs(self.S) * abs(self.S) + abs(self.P) * abs(self.P)  # float ** 2 raises OverflowError


def params_from_amplitudes(a: DecayAmplitudes) -> DecayParameters:
    """Standard decay parameters (alpha, beta, gamma, ...) from (S, P)."""
    n = a.norm_sq
    sp = np.conj(a.S) * a.P
    gamma = (abs(a.S) ** 2 - abs(a.P) ** 2) / n
    return DecayParameters(float(2.0 * sp.real / n), float(2.0 * sp.imag / n), float(gamma))


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
    """Two-outcome channel data of a spin-1/2 decay: probabilities and a measurement axis.

    The channel projects the spin along ``+axis`` with probability
    ``omega_plus`` and along ``-axis`` with probability ``omega_minus``.
    """

    omega_plus: float
    omega_minus: float
    axis: np.ndarray

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not abs(self.omega_plus + self.omega_minus - 1.0) <= _PARAM_TOL:
            raise ValueError("outcome probabilities must sum to 1")
        if not (self.omega_plus >= 0.0 and self.omega_minus >= 0.0):
            raise ValueError("outcome probabilities must be nonnegative")
        axis = require_unit(self.axis, "axis").copy()  # a copy: the caller's array stays writable
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)


def transition_matrix(a: DecayAmplitudes, n) -> np.ndarray:
    """Decay matrix ``T = S I + P n.sigma`` for daughter direction n."""
    n = require_unit(n)
    return a.S * np.eye(2, dtype=complex) + a.P * pauli_dot(n)


def kraus_decompose(a: DecayAmplitudes, n) -> KrausPair:
    """Two-outcome Kraus data of the decay: project along +/- n with (1 +/- alpha)/2."""
    alpha = params_from_amplitudes(a).alpha
    return KrausPair(omega_plus=(1.0 + alpha) / 2.0, omega_minus=(1.0 - alpha) / 2.0, axis=n)


def kraus_operators(a: DecayAmplitudes, n) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian Kraus operators (K+, K-) with Tr(K+ rho K+) + Tr(K- rho K-) = Tr(T rho T^dag).

    K+- = sqrt(2 (|S|^2+|P|^2) omega_+-) Pi(+-n), with Pi(w) = (I + w.sigma)/2
    the spin state along w; the prefactor makes the pair reproduce the
    unnormalized two-amplitude intensity exactly, i.e. K+^2 + K-^2 = T^dag T.
    """
    pair = kraus_decompose(a, n)
    scale = 2.0 * a.norm_sq
    k_plus = np.sqrt(scale * pair.omega_plus) * bloch_compose(pair.axis).matrix
    k_minus = np.sqrt(scale * pair.omega_minus) * bloch_compose(-pair.axis).matrix
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

