"""Hyperon-antihyperon pair analysis: joint distribution, witness, simplex.

Produced pairs are modeled as the antisymmetric Bell state (any other
maximally entangled choice is a local unitary away); each side's decay acts
as an imperfect spin measurement with analyzing power alpha, so every spin
correlation is scaled by k = alpha alpha-bar.  The joint daughter-direction
density for the singlet is (1/(4 pi)^2)(1 - k n1.n2), entanglement is
witnessed by 1/3 - k < 0, and in the magic-simplex picture the accessible
correlation tensor shrinks by k.

The estimators reduce paired (N, 3) direction arrays to `PairMoments`,
sufficient statistics that merge group by group, so an event file is
estimated as it streams past and never held whole.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .sphere import require_unit

_MIN_EVENTS = 100
_GROUP = 1 << 14  # pairs per merged group of `PairMoments.from_blocks`


@dataclass(frozen=True)
class PairModel:
    """Signed analyzing powers of the two decays of a pair produced as the singlet."""

    alpha_L: float
    alpha_Lbar: float

    def __post_init__(self):
        if not (abs(self.alpha_L) <= 1.0 and abs(self.alpha_Lbar) <= 1.0):  # written so that NaN fails
            raise ValueError("analyzing powers must lie in [-1, 1]")

    @property
    def k(self) -> float:
        return self.alpha_L * self.alpha_Lbar


def joint_pdf(model: PairModel, n1, n2) -> float:
    """Joint density (1 - k n1.n2)/(4 pi)^2 of the two daughter directions, normalized on both spheres.

    It is the channel form (1/(4 pi)^2) Tr[(I + a1 n1.sigma) x (I + a2 n2.sigma) rho]
    on the singlet, the state the sampler and the estimators assume.
    """
    n1, n2 = require_unit(n1, name="n1"), require_unit(n2, name="n2")
    return float((1.0 - model.k * np.dot(n1, n2)) / (4.0 * np.pi) ** 2)


def witness_value(model: PairModel) -> float:
    """Scaled witness expectation 1/3 - k; negative means entanglement detected."""
    return 1.0 / 3.0 - model.k


@dataclass(frozen=True)
class PairMoments:
    """Sufficient statistics of paired direction samples (n1, n2).

    The count; the mean and the sum of squared deviations (M2) of n1.n2;
    and the sum over samples of the outer product n1 n2^T.  A moment that
    was not folded is None, and stays None through `merge`.  Blocks of
    samples merge exactly with the pairwise update of Chan, Golub and
    LeVeque (Am. Stat. 37, 242, 1983), so the estimators can consume a
    stream of blocks in bounded memory.
    """

    count: int = 0
    dot_mean: float | None = 0.0
    dot_m2: float | None = 0.0
    cross: np.ndarray | None = field(default_factory=lambda: np.zeros((3, 3)))

    @classmethod
    def of(cls, n1, n2, dots: bool = True, cross: bool = True) -> PairMoments:
        """Moments of one block of matching (N, 3) direction arrays; a moment not asked for is None."""
        n1, n2 = _directions(n1, n2)
        return cls(*(_dot_moments(n1, n2) if dots else (len(n1), None, None)),
                   _cross_moment(n1, n2) if cross else None)

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                    dots: bool = True, cross: bool = True) -> PairMoments:
        """Moments of a stream of (n1, n2) blocks; `dots` and `cross` as in `of`.

        The pairs are merged in groups of _GROUP in stream order, the last
        group partial, and each group is copied into one array first.  So
        the moments depend on the sequence of pairs alone, not on where the
        stream is cut into blocks: a file whose pairs complete in id order
        gives the same bits for any slice size or thread count of the reader.
        """
        # no pairs yet, with the same moments folded; held: the pieces of the group being filled
        total, held, count = cls.of(np.empty((0, 3)), np.empty((0, 3)), dots=dots, cross=cross), [], 0
        for n1, n2 in blocks:
            n1, n2 = _directions(n1, n2)
            while len(n1):
                take = min(_GROUP - count, len(n1))
                held.append((n1[:take], n2[:take]))
                count += take
                n1, n2 = n1[take:], n2[take:]
                if count == _GROUP:
                    total = total.merge(cls.of(*map(np.concatenate, zip(*held)), dots=dots, cross=cross))
                    held, count = [], 0
        return total.merge(cls.of(*map(np.concatenate, zip(*held)), dots=dots, cross=cross)) if held else total

    def merge(self, other: PairMoments) -> PairMoments:
        if not other.count:
            return self
        if not self.count:
            return other
        count = self.count + other.count
        cross = None if self.cross is None or other.cross is None else self.cross + other.cross
        if self.dot_mean is None or other.dot_mean is None:
            return PairMoments(count, None, None, cross)
        delta = other.dot_mean - self.dot_mean
        return PairMoments(count, self.dot_mean + delta * (other.count / count),
                           self.dot_m2 + other.dot_m2 + delta**2 * (self.count * other.count / count), cross)

    def require_events(self) -> None:
        """Raise ValueError if there are too few pairs for an estimate."""
        if self.count < _MIN_EVENTS:
            raise ValueError(f"need at least {_MIN_EVENTS} events, got {self.count}")

    def witness(self) -> tuple[float, float]:
        """Witness estimate and its standard error.

        The singlet moment identity E[n1.n2] = -k/3 turns the witness
        1/3 - k into 1/3 + 3 E[n1.n2]; the error is the plug-in standard
        error of the sample mean.
        """
        self.require_events()
        if self.dot_mean is None:
            raise ValueError("the witness needs the moments of n1.n2, which were not folded")
        value = 1.0 / 3.0 + 3.0 * self.dot_mean
        stderr = 3.0 * np.sqrt(self.dot_m2 / (self.count - 1)) / np.sqrt(self.count)
        return float(value), float(stderr)

    def correlations(self, model: PairModel | None = None) -> np.ndarray:
        """Spin-correlation matrix estimate <sigma_i x sigma_j>.

        Raw mode returns M_ij = 9 mean(n1_i n2_j), the direction-moment
        estimate of the k-scaled correlations (for the singlet: -k on the
        diagonal).  Given a model, the estimate is renormalized: divided by
        alpha_L alpha_Lbar so the singlet gives -identity; the renormalized
        numbers presuppose the analyzing powers and are therefore not
        admissible inputs to a Bell test.
        """
        self.require_events()
        if self.cross is None:
            raise ValueError("the correlations need the cross moment n1 n2^T, which was not folded")
        m = 9.0 * (self.cross / self.count)
        if model is not None:
            if model.k == 0.0:
                raise ValueError("renormalization requires a model with nonzero analyzing powers")
            with np.errstate(over="ignore"):  # a k near the underflow limit overflows, refused below
                m = m / model.k
            if not np.isfinite(m).all():
                raise ValueError(f"renormalization by k = {model.k:.6g} overflows")
        return m


def _directions(n1, n2) -> tuple[np.ndarray, np.ndarray]:
    """n1 and n2 as float arrays, which must be matching (N, 3) direction arrays."""
    n1, n2 = np.asarray(n1, dtype=float), np.asarray(n2, dtype=float)
    if n1.ndim != 2 or n1.shape[1] != 3 or n1.shape != n2.shape:
        raise ValueError("expected matching (N, 3) direction arrays")
    return n1, n2


def _dot_moments(n1: np.ndarray, n2: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of n1.n2 over a block."""
    if not len(n1):
        return 0, 0.0, 0.0
    dots = np.einsum("ij,ij->i", n1, n2)
    mean = dots.mean()
    return dots.size, float(mean), float(((dots - mean) ** 2).sum())


def _cross_moment(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """The sum of n1 n2^T over a block."""
    # einsum sums in the order of the (N, 3, 3) product's mean, without that temporary
    return np.einsum("ij,ik->jk", n1, n2)


def witness_estimate(n1, n2) -> tuple[float, float]:
    """Witness estimate and its standard error from paired direction samples; folds only the n1.n2 moments."""
    return PairMoments.of(n1, n2, cross=False).witness()


def correlation_estimate(n1, n2, model: PairModel | None = None) -> np.ndarray:
    """Spin-correlation matrix estimate from direction samples; folds only the cross moment n1 n2^T."""
    return PairMoments.of(n1, n2, dots=False).correlations(model)


@dataclass(frozen=True)
class SimplexPoint:
    """Diagonal (c1, c2, c3) of the correlation tensor of a locally mixed state."""

    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])


def simplex_state(p: SimplexPoint) -> np.ndarray:
    """The two-qubit matrix (1/4)(I + sum_i c_i sigma_i x sigma_i), written out entry by entry."""
    c1, c2, c3 = p.as_array()
    out = np.diag(np.array([1.0 + c3, 1.0 - c3, 1.0 - c3, 1.0 + c3], dtype=complex))
    out[0, 3] = out[3, 0] = c1 - c2
    out[1, 2] = out[2, 1] = c1 + c2
    return out / 4.0


def simplex_shrink(p: SimplexPoint, k: float) -> SimplexPoint:
    """Scale the correlation diagonal by k (imperfect-measurement shrinking)."""
    return SimplexPoint(k * p.c1, k * p.c2, k * p.c3)


def in_state_tetrahedron(p: SimplexPoint) -> bool:
    """Whether (c1, c2, c3) corresponds to a positive semidefinite state.

    The eigenvalues of `simplex_state(p)` are (1 - c1 - c2 - c3)/4,
    (1 - c1 + c2 + c3)/4, (1 + c1 - c2 + c3)/4 and (1 + c1 + c2 - c3)/4.
    """
    c1, c2, c3 = p.as_array()
    eigs = np.array([1.0 - c1 - c2 - c3, 1.0 - c1 + c2 + c3, 1.0 + c1 - c2 + c3, 1.0 + c1 + c2 - c3]) / 4.0
    return bool(eigs.min() >= -1e-12)


def is_separable_point(p: SimplexPoint) -> bool:
    """Octahedron criterion |c1| + |c2| + |c3| <= 1 for points inside the tetrahedron.

    The comparison is strict so that the separability boundary and the zero
    of the scaled witness coincide bit for bit at the 1/3 threshold.
    """
    if not in_state_tetrahedron(p):
        raise ValueError(f"{p} lies outside the state space")
    return bool(np.abs(p.as_array()).sum() <= 1.0)


def is_ppt(rho) -> bool:
    """Positive partial transpose check; for two qubits PPT iff separable."""
    from .qcore import as_density

    rho = as_density(rho)
    if rho.dim != 4:
        raise ValueError("PPT cross-check is implemented for two qubits only")
    r = rho.matrix.reshape(2, 2, 2, 2)
    pt = r.transpose(0, 3, 2, 1).reshape(4, 4)
    return bool(np.linalg.eigvalsh(pt).min() >= -1e-12)
