"""Spin-1/2 interferometer: two beam splitters around a phase plate.

The symmetric device is ``U_IF = U_BS U_phase(chi) U_BS`` with
``U_BS = exp(-i pi sigma_y / 4)`` and ``U_phase(chi) = exp(-i chi sigma_x / 2)``.
On the Bloch vector s these are rotations, about y by pi/2 and about x by
chi, so the device turns s into
``s' = (s_y sin chi - s_x cos chi, s_y cos chi + s_x sin chi, -s_z)``, and
the port (I +/- sigma_axis)/2 reads (1 +/- s'_axis)/2.  Transverse ports
show fringes with visibility sin(theta) of the initial spin; the z port
gives the path probabilities with predictability |cos(theta)|.

The asymmetric generalization replaces the 50:50 splitting with
``|Ta|^2 : |Tb|^2``, which models a weak decay: the fringe contrast becomes
the fixed visibility of the amplitude pair and the S-P phase shift enters
as the azimuth of the analyzing direction.  Convention adopted here:
``n(0, chi_SP) = (cos chi_SP, sin chi_SP, 0)``, the unit vector in the x-y
plane with azimuth chi_SP.  This reproduces the cos(phi + chi)-type fringe
shift and is validated against the generic two-amplitude intensity in the
test suite.  numpy and `qcore` load only in the functions that use matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_AXES = {"x": 0, "y": 1, "z": 2}
_FRINGE_POINTS = 64  # the chi grid of the fringe fit


@dataclass(frozen=True)
class SpinState:
    """Initial spin direction (theta, phi) with optional purity length |s| <= 1."""

    theta: float
    phi: float
    length: float = 1.0

    def __post_init__(self):
        for name, angle in (("theta", self.theta), ("phi", self.phi)):
            if not math.isfinite(angle):
                raise ValueError(f"{name} = {angle} is not finite")
        if not 0.0 <= self.length <= 1.0:
            raise ValueError(f"|s| = {self.length} outside [0, 1]")

    def bloch(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (self.length * (st * math.cos(self.phi)), self.length * (st * math.sin(self.phi)),
                self.length * math.cos(self.theta))


@dataclass(frozen=True)
class InterferometerConfig:
    """Relative phase chi, arm splitting |Ta|^2 : |Tb|^2 and S-P analyzer phase."""

    chi: float = 0.0
    splitting: tuple[float, float] = (1.0, 1.0)
    chi_sp: float = 0.0

    def __post_init__(self):
        for name, angle in (("chi", self.chi), ("chi_sp", self.chi_sp)):
            if not math.isfinite(angle):
                raise ValueError(f"{name} = {angle} is not finite")
        wa, wb = self.splitting
        if not (wa >= 0.0 and wb >= 0.0 and 0.0 < wa + wb < math.inf):  # NaN fails
            raise ValueError(f"splitting {self.splitting} must be two weights >= 0 with a finite sum above 0")

    def arm_norms(self) -> tuple[float, float]:
        """(||Ta||, ||Tb||) from the splitting ratio."""
        return math.sqrt(self.splitting[0]), math.sqrt(self.splitting[1])


def _device(s, chi: float) -> tuple[float, float, float]:
    """The Bloch vector s turned by U_IF(chi); the rotation is a half turn, so its own transpose."""
    sx, sy, sz = s
    c, si = math.cos(chi), math.sin(chi)
    return sy * si - sx * c, sy * c + sx * si, -sz


def evolve(cfg: InterferometerConfig, rho):
    """U_IF rho U_IF^dag for a qubit state, as its Bloch vector turned by the device."""
    from .qcore import bloch_compose, spin_bloch

    return bloch_compose(_device(spin_bloch(rho), cfg.chi))


def fringe(cfg: InterferometerConfig, state: SpinState, axis: str, sign: int) -> float:
    """Detection probability Tr[(I +/- sigma_axis)/2 * U rho U^dag]; fringes on x and y, paths on z."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return (1.0 + sign * _device(state.bloch(), cfg.chi)[_AXES[axis]]) / 2.0


def fringe_visibility(state: SpinState) -> float:
    """Fringe contrast of the +x port over a chi scan, by least squares.

    Fits I(chi) = c0 + a cos(chi) + b sin(chi) on the grid chi_j = 2 pi j / n,
    n = _FRINGE_POINTS, and returns sqrt(a^2 + b^2) / c0, the oscillation amplitude
    relative to the mean; for a pure state this equals sin(theta).  On this grid
    (any n >= 3) the columns are orthogonal, so the least-squares coefficients are
    the Fourier sums c0 = mean I, a = (2/n) sum (I - c0) cos(chi) and b likewise
    with sin (taking c0 off changes no sum exactly, and leaves a flat scan at 0).
    """
    n = _FRINGE_POINTS
    s = state.bloch()
    chis = [2.0 * math.pi * j / n for j in range(n)]
    intensities = [(1.0 + _device(s, chi)[0]) / 2.0 for chi in chis]  # the +x port
    c0 = math.fsum(intensities) / n
    a = 2.0 / n * math.fsum((i - c0) * math.cos(chi) for i, chi in zip(intensities, chis))
    b = 2.0 / n * math.fsum((i - c0) * math.sin(chi) for i, chi in zip(intensities, chis))
    return math.hypot(a, b) / c0


def path_predictability(state: SpinState) -> float:
    """|P(upper) - P(lower)| of the symmetric device; |s_z| = |s| |cos(theta)|."""
    cfg = InterferometerConfig()
    return abs(fringe(cfg, state, "z", +1) - fringe(cfg, state, "z", -1))


def analyzer_direction(chi_sp: float) -> tuple[float, float, float]:
    """n(0, chi_SP): unit vector in the x-y plane with azimuth chi_SP."""
    return math.cos(chi_sp), math.sin(chi_sp), 0.0


def asymmetric_intensity(cfg: InterferometerConfig, state: SpinState, sign: int) -> float:
    """Output intensity of the asymmetric device.

    ``(||Ta||^2 + ||Tb||^2) (1 -/+ V n(0, chi_SP) . s(theta, phi))`` with the
    visibility V fixed by the splitting; always nonnegative since V <= 1 and
    |s| <= 1.
    """
    from .qcore import complementarity_of

    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    na, nb = cfg.arm_norms()
    total = na**2 + nb**2
    visibility, _ = complementarity_of([[na]], [[nb]])  # the arms ||T|| I, of norm ||T|| in any dimension
    n_dot_s = sum(n * s for n, s in zip(analyzer_direction(cfg.chi_sp), state.bloch()))
    return total * (1.0 - sign * visibility * n_dot_s)


def asymmetric_transition_matrices(cfg: InterferometerConfig, sign: int):
    """Two-amplitude realization (Ta, Tb) of :func:`asymmetric_intensity`, numpy arrays.

    Ta = ||Ta|| I and Tb = ||Tb|| U_IF^dag (m.sigma) U_IF, with m the in-plane
    direction that turns the generic intensity Tr[(Ta+Tb) rho (Ta+Tb)^dag]
    into the closed form above for the chosen output port.  U_IF^dag (m.sigma)
    U_IF is (R^T m).sigma for the device's rotation R, and R^T = R.
    """
    import numpy as np

    from .qcore import pauli_dot

    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    na, nb = cfg.arm_norms()
    total_phase = cfg.chi + cfg.chi_sp
    m = (-math.cos(total_phase), math.sin(total_phase), 0.0)
    t_a = na * np.eye(2, dtype=complex)
    t_b = -sign * nb * pauli_dot(_device(m, cfg.chi))
    return t_a, t_b
