"""Spin-1/2 interferometer: two beam splitters around a phase plate.

The symmetric device is ``U_IF = U_BS U_phase(chi) U_BS`` with
``U_BS = exp(-i pi sigma_y / 4)`` and ``U_phase(chi) = exp(-i chi sigma_x / 2)``.
Transverse measurements after the device show fringes with visibility
sin(theta) of the initial spin; the longitudinal measurement gives the
path probabilities with predictability |cos(theta)|.

The asymmetric generalization replaces the 50:50 splitting with
``|Ta|^2 : |Tb|^2``, which models a weak decay: the fringe contrast becomes
the fixed visibility of the amplitude pair and the S-P phase shift enters
as the azimuth of the analyzing direction.  Convention adopted here:
``n(0, chi_SP) = (cos chi_SP, sin chi_SP, 0)``, the unit vector in the x-y
plane with azimuth chi_SP.  This reproduces the cos(phi + chi)-type fringe
shift and is validated against the generic two-amplitude intensity in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, as_density, complementarity_of, pauli_dot

_AXES = {"x": 0, "y": 1, "z": 2}
# the fringe scan costs about 190 us per point, so 2^16 points take about 12 s
_MAX_FRINGE_POINTS = 65_536


@dataclass(frozen=True)
class SpinState:
    """Initial spin direction (theta, phi) with optional purity length |s| <= 1."""

    theta: float
    phi: float
    length: float = 1.0

    def __post_init__(self):
        for name, angle in (("theta", self.theta), ("phi", self.phi)):
            if not np.isfinite(angle):
                raise ValueError(f"{name} = {angle} is not finite")
        if not 0.0 <= self.length <= 1.0:
            raise ValueError(f"|s| = {self.length} outside [0, 1]")

    def bloch(self) -> np.ndarray:
        st = np.sin(self.theta)
        return self.length * np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )

    def density(self) -> DensityMatrix:
        return DensityMatrix((np.eye(2, dtype=complex) + pauli_dot(self.bloch())) / 2.0)


@dataclass(frozen=True)
class InterferometerConfig:
    """Relative phase chi, arm splitting |Ta|^2 : |Tb|^2 and S-P analyzer phase."""

    chi: float = 0.0
    splitting: tuple[float, float] = (1.0, 1.0)
    chi_sp: float = 0.0

    def __post_init__(self):
        wa, wb = self.splitting
        if wa < 0.0 or wb < 0.0 or wa + wb == 0.0:
            raise ValueError(f"invalid splitting {self.splitting}")

    def arm_norms(self) -> tuple[float, float]:
        """(||Ta||, ||Tb||) from the splitting ratio."""
        return np.sqrt(self.splitting[0]), np.sqrt(self.splitting[1])


def beam_splitter() -> np.ndarray:
    """exp(-i pi sigma_y / 4) in closed form."""
    c = 1.0 / np.sqrt(2.0)
    return np.array([[c, -c], [c, c]], dtype=complex)


def phase_plate(chi: float) -> np.ndarray:
    """exp(-i chi sigma_x / 2) in closed form."""
    c, s = np.cos(chi / 2.0), np.sin(chi / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def interferometer_unitary(chi: float) -> np.ndarray:
    u_bs = beam_splitter()
    return u_bs @ phase_plate(chi) @ u_bs


def evolve(cfg: InterferometerConfig, rho) -> DensityMatrix:
    """U_IF rho U_IF^dag for a qubit state."""
    rho = as_density(rho)
    if rho.dim != 2:
        raise ValueError(f"interferometer acts on qubits, got dimension {rho.dim}")
    u = interferometer_unitary(cfg.chi)
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def fringe(cfg: InterferometerConfig, state: SpinState, axis: str, sign: int) -> float:
    """Detection probability Tr[(I +/- sigma_axis)/2 * U rho U^dag].

    Transverse axes (x, y) show the interference fringes; the z axis gives
    the upper/lower path probability.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rho_f = evolve(cfg, state.density())
    proj = (np.eye(2, dtype=complex) + sign * pauli_dot(np.eye(3)[_AXES[axis]])) / 2.0
    return float(np.trace(proj @ rho_f.matrix).real)


def fringe_visibility(state: SpinState, n_points: int = 64) -> float:
    """Fringe contrast of the +x port over a chi scan, by least squares.

    Fits I(chi) = c0 + a cos(chi) + b sin(chi) on a uniform grid and returns
    sqrt(a^2 + b^2) / c0, the oscillation amplitude relative to the mean;
    for a pure state this equals sin(theta).  The fit has three unknowns,
    so `n_points` below 3 is a ValueError, and so is one above
    _MAX_FRINGE_POINTS.
    """
    if n_points < 3:
        raise ValueError(f"the fringe fit needs at least 3 points, got {n_points}")
    if n_points > _MAX_FRINGE_POINTS:
        raise ValueError(f"the fringe scan takes at most {_MAX_FRINGE_POINTS} points, got {n_points}")
    chis = 2.0 * np.pi * np.arange(n_points) / n_points
    intensities = np.array(
        [fringe(InterferometerConfig(chi=c), state, "x", +1) for c in chis]
    )
    design = np.column_stack([np.ones_like(chis), np.cos(chis), np.sin(chis)])
    coef, *_ = np.linalg.lstsq(design, intensities, rcond=None)
    return float(np.hypot(coef[1], coef[2]) / coef[0])


def path_predictability(state: SpinState) -> float:
    """|P(upper) - P(lower)| of the symmetric device; |s_z| = |s| |cos(theta)|."""
    cfg = InterferometerConfig()
    return abs(fringe(cfg, state, "z", +1) - fringe(cfg, state, "z", -1))


def analyzer_direction(chi_sp: float) -> np.ndarray:
    """n(0, chi_SP): unit vector in the x-y plane with azimuth chi_SP."""
    return np.array([np.cos(chi_sp), np.sin(chi_sp), 0.0])


def asymmetric_intensity(cfg: InterferometerConfig, state: SpinState, sign: int) -> float:
    """Output intensity of the asymmetric device.

    ``(||Ta||^2 + ||Tb||^2) (1 -/+ V n(0, chi_SP) . s(theta, phi))`` with the
    visibility V fixed by the splitting; always nonnegative since V <= 1 and
    |s| <= 1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    na, nb = cfg.arm_norms()
    total = na**2 + nb**2
    visibility, _ = complementarity_of(na * np.eye(2), nb * np.eye(2))
    return float(total * (1.0 - sign * visibility * np.dot(analyzer_direction(cfg.chi_sp), state.bloch())))


def asymmetric_transition_matrices(cfg: InterferometerConfig, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-amplitude realization (Ta, Tb) of :func:`asymmetric_intensity`.

    Ta = ||Ta|| I and Tb = ||Tb|| U_IF^dag (m.sigma) U_IF, with m the in-plane
    direction that turns the generic intensity Tr[(Ta+Tb) rho (Ta+Tb)^dag]
    into the closed form above for the chosen output port.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    na, nb = cfg.arm_norms()
    u = interferometer_unitary(cfg.chi)
    total_phase = cfg.chi + cfg.chi_sp
    m = np.array([-np.cos(total_phase), np.sin(total_phase), 0.0])
    t_a = na * np.eye(2, dtype=complex)
    t_b = -sign * nb * (u.conj().T @ pauli_dot(m) @ u)
    return t_a, t_b
