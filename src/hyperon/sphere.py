"""Unit-sphere helpers: directions and the fixed product quadrature.

The quadrature is Gauss-Legendre in cos(theta) times a uniform azimuth grid
(64 x 64 by default), exact enough for the low-degree integrands that appear
in decay angular distributions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def require_unit(n, name: str = "direction") -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {n.shape}")
    err = abs(np.linalg.norm(n) - 1.0)
    if not err <= 1e-12:  # written so that NaN fails
        raise ValueError(f"{name} is not unit length (|n| - 1 = {err:.3e})")
    return n


def require_polarization(s, name: str = "polarization") -> np.ndarray:
    """`s` as a read-only float 3-vector copy; ValueError unless |s| <= 1."""
    s = np.array(s, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {s.shape}")
    with np.errstate(over="ignore"):  # an overlong s overflows to inf, which the check refuses
        norm = np.linalg.norm(s)
    if not norm <= 1.0 + 1e-12:  # written so that NaN fails
        raise ValueError(f"|{name}| exceeds 1 (got {norm:.6g})")
    s.setflags(write=False)
    return s


@lru_cache(maxsize=4)
def sphere_quadrature(n_cos: int = 64, n_phi: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (M, 3) and weights (M,) with sum(w) = 4 pi."""
    x, wx = np.polynomial.legendre.leggauss(n_cos)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    ct, pg = np.meshgrid(x, phi, indexing="ij")
    st = np.sqrt(1.0 - ct**2)
    nodes = np.stack([st * np.cos(pg), st * np.sin(pg), ct], axis=-1).reshape(-1, 3)
    weights = np.repeat(wx, n_phi) * (2.0 * np.pi / n_phi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def sphere_integral(f, n_cos: int = 64, n_phi: int = 64):
    """Integrate f(n) over the sphere; f maps (M, 3) nodes to values."""
    nodes, weights = sphere_quadrature(n_cos, n_phi)
    vals = np.asarray(f(nodes))
    if vals.ndim == 1:
        return float(np.dot(weights, vals))
    return np.tensordot(weights, vals, axes=(0, 0))
