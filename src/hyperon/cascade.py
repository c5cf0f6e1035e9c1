"""Two sequential spin-1/2 decays treated as a single two-outcome channel.

A hyperon mu decays to a hyperon nu which decays to a baryon; the composed
process is again an imperfect spin measurement, but its Kraus pair is NOT
the product of the single-decay pairs (after the first decay the spin and
momentum degrees of freedom are correlated).  With normalized amplitudes
(|S|^2 + |P|^2 = 1 per decay) the joint intensity is ``tau0 + tau . s``:

    tau0 = 1 + alpha_mu alpha_nu (n_mu . n_nu)
    tau  = (alpha_mu + alpha_nu (1 - gamma_mu) (n_mu . n_nu)) n_mu
           + alpha_nu gamma_mu n_nu + alpha_nu beta_mu (n_mu x n_nu)

The coefficient of n_nu is the signed gamma of the first decay, which
equals its predictability for every parity-preference sign gamma > 0 (all
bundled channels except Sigma+ -> n pi+); the signed form is what the
operator product Tr(T_nu T_mu rho T_mu^dag T_nu^dag) gives and is verified
against it in the tests.

Both daughter directions are expressed in one common frame; the formulas
depend only on the invariants n_mu . n_nu and n_mu x n_nu, so no boost or
rotation chain is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DecayParameters
from .sphere import require_polarization, require_unit

FOUR_PI_SQ = (4.0 * np.pi) ** 2


@dataclass(frozen=True)
class CascadeKraus:
    """Quantization data of a two-step decay at fixed daughter directions."""

    tau0: float
    tau: np.ndarray
    n_mu: np.ndarray
    n_nu: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        # each check is written so that NaN fails it
        if not self.tau0 > 0.0:
            raise ValueError(f"tau0 = {self.tau0} must be positive")
        if not np.linalg.norm(tau) <= self.tau0 * (1.0 + 1e-12):
            raise ValueError(
                f"|tau| = {np.linalg.norm(tau):.6g} exceeds tau0 = {self.tau0:.6g}"
            )
        for name in ("tau", "n_mu", "n_nu"):
            arr = np.array(getattr(self, name), dtype=float)  # a copy: the caller's arrays stay writable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def omega_plus(self) -> float:
        """Probability (1 + |tau|/tau0)/2 of the spin projected along +tau."""
        return (1.0 + np.linalg.norm(self.tau) / self.tau0) / 2.0

    @property
    def omega_minus(self) -> float:
        return (1.0 - np.linalg.norm(self.tau) / self.tau0) / 2.0


def cascade_tau(
    mu: DecayParameters, nu: DecayParameters, n_mu, n_nu
) -> tuple[float, np.ndarray]:
    """(tau0, tau) of the composed channel, normalized amplitudes."""
    n_mu = require_unit(n_mu, name="n_mu")
    n_nu = require_unit(n_nu, name="n_nu")
    cos_mn = float(np.dot(n_mu, n_nu))
    tau0 = 1.0 + mu.alpha * nu.alpha * cos_mn
    tau = (
        (mu.alpha + nu.alpha * (1.0 - mu.gamma) * cos_mn) * n_mu
        + nu.alpha * mu.gamma * n_nu
        + nu.alpha * mu.beta * np.cross(n_mu, n_nu)
    )
    return tau0, tau


def cascade_kraus(mu: DecayParameters, nu: DecayParameters, n_mu, n_nu) -> CascadeKraus:
    tau0, tau = cascade_tau(mu, nu, n_mu, n_nu)
    return CascadeKraus(tau0=tau0, tau=tau, n_mu=n_mu, n_nu=n_nu)


def cascade_pdf(mu: DecayParameters, nu: DecayParameters, s, n_mu, n_nu) -> float:
    """Joint density of the two daughter directions, normalized over both spheres.

    Proportional to tau0 + tau . s; the normalization constant is (4 pi)^2
    because every s- and direction-linear term averages to zero.
    """
    s = require_polarization(s, "s")
    tau0, tau = cascade_tau(mu, nu, n_mu, n_nu)
    return float((tau0 + np.dot(tau, s)) / FOUR_PI_SQ)


def conditional_axis(mu: DecayParameters, nu: DecayParameters, s, n_mu) -> np.ndarray:
    """Axis b of the second direction's conditional density (1 + b.n_nu)/4pi.

    Conditioning the joint density on the first daughter direction leaves a
    density linear in n_nu; this is what the cascade sampler draws from.
    `n_mu` is one unit direction (3,) or unit rows (N, 3); the result has
    the same shape.
    """
    s = require_polarization(s, "s")
    n_mu = np.asarray(n_mu, dtype=float)
    rows = np.atleast_2d(n_mu)
    for row in rows:
        require_unit(row, name="n_mu")
    axes = _conditional_axes(mu, nu, s, rows)
    return axes if n_mu.ndim == 2 else axes[0]


def _conditional_axes(mu: DecayParameters, nu: DecayParameters, s, n_mu, out=None) -> np.ndarray:
    """conditional_axis for unit rows n_mu (N, 3) and a checked polarization s; checks nothing.

    The cascade sampler's kernel calls this directly: its rows are unit by
    construction, and a per-row check would cost more than the formula.
    Every step writes with `out=` into `out` (N, 3), which may be a
    strided view, or into one of four (N,) arrays; `out` is returned.
    """
    x, y, z = n_mu.T
    s0, s1, s2 = s
    out = np.empty(n_mu.shape) if out is None else out
    dots, weight, s_cross_n, t = (np.empty(x.size) for _ in range(4))
    np.multiply(x, s0, out=dots)
    np.multiply(y, s1, out=t)
    np.add(dots, t, out=dots)
    np.multiply(z, s2, out=t)
    np.add(dots, t, out=dots)
    np.multiply(mu.alpha, dots, out=weight)
    np.add(1.0, weight, out=weight)
    along = np.multiply(1.0 - mu.gamma, dots, out=dots)
    np.add(mu.alpha, along, out=along)
    # out[:, i] = nu.alpha (along n_mu[:, i] + gamma s[i] + beta (s x n_mu)[i]) / weight
    for i, (p, q, r, w) in enumerate(((s1, z, s2, y), (s2, x, s0, z), (s0, y, s1, x))):
        np.multiply(p, q, out=s_cross_n)
        np.multiply(r, w, out=t)
        np.subtract(s_cross_n, t, out=s_cross_n)
        np.multiply(mu.beta, s_cross_n, out=s_cross_n)
        axis = out[:, i]
        np.multiply(along, n_mu[:, i], out=axis)
        np.add(axis, mu.gamma * s[i], out=axis)
        np.add(axis, s_cross_n, out=axis)
        np.multiply(nu.alpha, axis, out=axis)
        np.divide(axis, weight, out=axis)
    return out
