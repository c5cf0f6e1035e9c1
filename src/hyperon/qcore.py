"""Dense complex-matrix foundation for spin-1/2 systems.

Density matrices, the qubit Bloch map and the generic two-amplitude
interference intensity with its visibility/predictability split.
Everything here is a pure function over immutable values; dimensions are
small (d = 2 for one spin, d = 4 for a pair) so all storage is dense.

Conventions
-----------
* Bloch map: ``rho = (I + b . sigma) / 2`` with ``b_i = Tr(sigma_i rho)``,
  sigma = (sigma_x, sigma_y, sigma_z); a state has ``|b| <= 1``, a pure
  state ``|b| = 1``.
* Matrix norm used for visibility/predictability: Frobenius norm scaled so
  that ``||I|| = 1`` in every dimension, i.e. ``||T|| = ||T||_F / sqrt(d)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_TOL = -1e-10

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
PAULI.setflags(write=False)


def pauli_dot(v) -> np.ndarray:
    """Return ``v . sigma`` for a real 3-vector v (2x2 complex matrix)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return np.tensordot(v, PAULI, axes=1)


def _as_square(mat, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_square(self.matrix, "density matrix").copy()
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr:.15g}, expected 1")
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < PSD_EIG_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_density(rho) -> DensityMatrix:
    """Coerce an array or DensityMatrix to a validated DensityMatrix."""
    if isinstance(rho, DensityMatrix):
        return rho
    return DensityMatrix(np.asarray(rho, dtype=complex))


def spin_bloch(rho) -> np.ndarray:
    """Read-only Bloch 3-vector ``Tr(sigma rho)`` of a qubit state; inverse of :func:`bloch_compose`."""
    rho = as_density(rho)
    if rho.dim != 2:
        raise ValueError(f"spin Bloch vector is defined for qubits only, got dimension {rho.dim}")
    b = np.einsum("kij,ji->k", PAULI, rho.matrix).real
    b.setflags(write=False)
    return b


def bloch_compose(b) -> DensityMatrix:
    """The qubit state ``(I + b . sigma) / 2``; DensityMatrix refuses a non-finite b or |b| > 1."""
    with np.errstate(invalid="ignore"):  # an infinite b_i times a zero Pauli entry is NaN, refused below
        mat = (np.eye(2, dtype=complex) + pauli_dot(b)) / 2
    return DensityMatrix(mat)


def two_amplitude_intensity(t_a, t_b, rho) -> float:
    """Intensity ``Tr[(Ta + Tb) rho (Ta + Tb)^dag]`` of a two-amplitude process.

    The result must be real (to 1e-10) and nonnegative for any PSD rho.
    """
    t_a = _as_square(t_a, "Ta")
    t_b = _as_square(t_b, "Tb")
    rho = as_density(rho)
    if t_a.shape != t_b.shape or t_a.shape[0] != rho.dim:
        raise ValueError(
            f"dimension mismatch: Ta {t_a.shape}, Tb {t_b.shape}, rho dim {rho.dim}"
        )
    t = t_a + t_b
    val = np.trace(t @ rho.matrix @ t.conj().T)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"intensity has imaginary part {val.imag:.3e}")
    if val.real < -1e-10:
        raise ValueError(f"intensity is negative: {val.real:.3e}")
    return float(val.real)


def amplitude_norm(t) -> float:
    """Frobenius norm scaled so the identity has norm 1: ||T||_F / sqrt(d)."""
    t = _as_square(t, "T")
    return float(np.linalg.norm(t) / np.sqrt(t.shape[0]))


def complementarity_of(t_a, t_b) -> tuple[float, float]:
    """Visibility and predictability of a two-amplitude process.

    Returns ``(V, P)`` with ``V = 2 |Ta| |Tb| / (|Ta|^2 + |Tb|^2)`` and
    ``P = | |Ta|^2 - |Tb|^2 | / (|Ta|^2 + |Tb|^2)`` in the scaled Frobenius
    norm; they satisfy V^2 + P^2 = 1.
    """
    na = amplitude_norm(t_a)
    nb = amplitude_norm(t_b)
    total = na**2 + nb**2
    if total == 0.0:
        raise ValueError("both amplitudes vanish")
    visibility = 2.0 * na * nb / total
    predictability = abs(na**2 - nb**2) / total
    return visibility, predictability
