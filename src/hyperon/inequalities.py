"""Bell expressions in CH probability form and the Mermin-Peres square.

The probability model is the singlet with both spin measurements scaled by
the analyzing powers: joint (+,+) probability (1 - k a.b)/4 and singles 1/2.
Under local realism each expression is bounded by 0.  Each expression is
c0 - k/4 sum c_ij a_i.b_j, linear in k at fixed settings, so the optimal
settings do not depend on k, the maximum is c0 + k S/4 with S the maximal
correlation sum, and the violation threshold k* = -4 c0 / S is exact: S
comes from a see-saw that its semidefinite dual bound proves maximal.

Raw (k-scaled) probabilities are the only admissible inputs here: dividing
out the analyzing powers presupposes quantum mechanics and is confined to
the pair-analysis estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import PAULI, psi_minus_state, tensor

MERMIN_PERES_CLASSICAL_BOUND = 4.0
# Published equal-alpha contextuality claim; the displayed formula's own root
# is ~0.916 (equal_alpha_contextuality_threshold), and the two disagree.
PUBLISHED_EQUAL_ALPHA_THRESHOLD = 0.88


@dataclass(frozen=True)
class InequalitySpec:
    """Coefficients of one CH-form Bell expression, classical bound 0."""

    name: str
    joint: np.ndarray       # (n_a, n_b) coefficients of Prob(a_i, b_j)
    singles_a: np.ndarray   # coefficients of Prob(a_i)
    singles_b: np.ndarray   # coefficients of Prob(b_j)

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=float)
        sa = np.asarray(self.singles_a, dtype=float)
        sb = np.asarray(self.singles_b, dtype=float)
        if joint.shape != (sa.size, sb.size):
            raise ValueError("coefficient table shapes are inconsistent")
        for name, arr in (("joint", joint), ("singles_a", sa), ("singles_b", sb)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} coefficients must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # no product the see-saw or its certificate forms exceeds (sum |c|)^2
        with np.errstate(over="ignore"):  # an overflowing sum reads inf, which the check refuses
            scale = sum(np.abs(arr).sum() for arr in (joint, sa, sb)) ** 2
        if not np.isfinite(scale):
            raise ValueError("coefficients too large: the square of the sum of their magnitudes overflows")

    @property
    def n_a(self) -> int:
        return self.singles_a.size

    @property
    def n_b(self) -> int:
        return self.singles_b.size


I2 = InequalitySpec(
    "I2",
    joint=[[1, 1], [1, -1]],
    singles_a=[-1, 0],
    singles_b=[-1, 0],
)

I3 = InequalitySpec(
    "I3",
    joint=[[1, 1, 1], [1, 1, -1], [1, -1, 0]],
    singles_a=[-1, 0, 0],
    singles_b=[-2, -1, 0],
)

I4 = InequalitySpec(
    "I4",
    joint=[[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, 0], [1, -1, 0, 0]],
    singles_a=[-1, 0, 0, 0],
    singles_b=[-3, -2, -1, 0],
)

_SPECS = {s.name: s for s in (I2, I3, I4)}


def inequality(name: str) -> InequalitySpec:
    try:
        return _SPECS[name]
    except KeyError:
        raise ValueError(f"unknown inequality {name!r}; choose from {sorted(_SPECS)}") from None


@dataclass(frozen=True)
class BellSettings:
    """Measurement directions for the two sides."""

    a: np.ndarray  # (n_a, 3) unit vectors
    b: np.ndarray  # (n_b, 3) unit vectors

    def __post_init__(self):
        for name in ("a", "b"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"settings {name} must have shape (n, 3)")
            norms = np.linalg.norm(arr, axis=1)
            if not np.max(np.abs(norms - 1.0)) <= 1e-12:  # written so that NaN fails
                raise ValueError(f"settings {name} contain non-unit vectors")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ProbModel:
    """Correlation scale k = alpha alpha-bar of the measured singlet."""

    k: float

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k = {self.k} outside [0, 1]")


def prob_joint(model: ProbModel, a, b) -> float:
    """Probability that both sides give the plus result along a and b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float((1.0 - model.k * np.dot(a, b)) / 4.0)


def _constant(spec: InequalitySpec) -> float:
    """The expression at k = 0, c0 = sum(joint)/4 + sum(singles)/2."""
    return float(spec.joint.sum() / 4.0 + (spec.singles_a.sum() + spec.singles_b.sum()) / 2.0)


def evaluate(spec: InequalitySpec, settings: BellSettings, model: ProbModel) -> float:
    """Value of the Bell expression at the given settings, c0 - k/4 sum c_ij a_i.b_j."""
    if settings.a.shape[0] != spec.n_a or settings.b.shape[0] != spec.n_b:
        raise ValueError(
            f"{spec.name} needs {spec.n_a}+{spec.n_b} settings, "
            f"got {settings.a.shape[0]}+{settings.b.shape[0]}"
        )
    dots = settings.a @ settings.b.T
    return _constant(spec) - model.k * float((spec.joint * dots).sum()) / 4.0


_SEESAW_MAX_SWEEPS = 10_000
_SEESAW_STARTS = 4
_CERTIFY_RTOL = 1e-12


def _unit_or_keep(target: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Rows of `target` scaled to unit length; zero rows keep `previous`."""
    norms = np.linalg.norm(target, axis=-1, keepdims=True)
    return np.where(norms > 0.0, target / np.where(norms > 0.0, norms, 1.0), previous)


def _certificate(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The value sum_ij c_ij a_i.b_j at settings (a, b), and a bound U on its maximum.

    With y the half-norms of the fields on each a_i and b_j and
    W = [[0, C], [C^T, 0]]/2, U = sum(y) + n max(0, -lambda_min(Diag(y) - W))
    bounds the value over unit vectors in any dimension, and meets it at a
    maximum (semidefinite duality: Tsirelson 1980; Wehner, PRA 73, 022110).
    """
    n_a = c.shape[0]
    y = np.concatenate([np.linalg.norm(c @ b, axis=1), np.linalg.norm(c.T @ a, axis=1)]) / 2.0
    w = np.block([[np.zeros((n_a, n_a)), c], [c.T, np.zeros((y.size - n_a,) * 2)]]) / 2.0
    bound = y.sum() + y.size * max(0.0, -np.linalg.eigvalsh(np.diag(y) - w)[0])
    return float(np.vdot(a, c @ b)), float(bound)


def _correlation_max(spec: InequalitySpec) -> tuple[float, float, np.ndarray, np.ndarray]:
    """S = max sum_ij c_ij a_i.b_j over unit vectors in R^3: (S, its bound U, a, b).

    See-saw of Liang & Doherty (PRA 75, 042103): with b fixed the best a_i
    is unit(sum_j c_ij b_j), and with a fixed the best b_j is
    unit(sum_i c_ij a_i), so no sweep lowers the value.  Start s, drawn
    from default_rng(s), sweeps until U - S <= _CERTIFY_RTOL S proves S,
    or passes after _SEESAW_MAX_SWEEPS to the next; if none of the
    _SEESAW_STARTS certifies, the best value wins.
    """
    c, runs = spec.joint, []
    for start in range(_SEESAW_STARTS):
        v = np.random.default_rng(start).normal(size=(spec.n_a + spec.n_b, 3))
        a, b = np.split(v / np.linalg.norm(v, axis=1, keepdims=True), [spec.n_a])
        for _ in range(_SEESAW_MAX_SWEEPS):
            a = _unit_or_keep(c @ b, a)
            b = _unit_or_keep(c.T @ a, b)
            value, bound = _certificate(c, a, b)
            if bound - value <= _CERTIFY_RTOL * value:
                return value, bound, a, b
        runs.append((value, bound, a, b))
    return max(runs, key=lambda run: run[0])


def maximize(spec: InequalitySpec, model: ProbModel) -> tuple[float, BellSettings]:
    """Maximize the expression over all measurement directions.

    The expression is c0 - k/4 sum c_ij a_i.b_j, so its maximum is
    c0 + k S/4 at a = a*, b = -b* where (a*, b*) attains the correlation
    maximum S (see-saw from fixed starts, certified by its dual bound).
    The returned value is `evaluate` at the returned settings.
    """
    _, _, a, b = _correlation_max(spec)
    settings = BellSettings(a=a, b=-b)
    return evaluate(spec, settings, model), settings


def threshold(spec: InequalitySpec) -> float:
    """Exact smallest k in [0, 1] where the maximal value reaches zero.

    The maximum is c0 + k g with g = S/4 >= 0, linear in k, so the
    threshold is -c0/g with no search over k.  Raises when the maximum
    never changes sign on [0, 1] (c0 > 0 or c0 + g <= 0).
    """
    c0 = _constant(spec)
    g = _correlation_max(spec)[0] / 4.0
    if c0 > 0.0 or c0 + g <= 0.0:
        raise ValueError(
            f"no violation threshold for {spec.name} on [0, 1]: "
            f"max at k=0 is {c0:.6g}, at k=1 is {c0 + g:.6g}"
        )
    return -c0 / g


def contextuality_value(alpha_L: float, alpha_Lbar: float) -> float:
    """Mermin-Peres expression with both sides' observables scaled by their alphas.

    (a^2 + b^2)^2 + 2 a^3 b^3; contextuality would show as a value above the
    classical bound 4.
    """
    for v in (alpha_L, alpha_Lbar):
        if not abs(v) <= 1.0:  # written so that NaN fails
            raise ValueError("analyzing powers must lie in [-1, 1]")
    return float((alpha_L**2 + alpha_Lbar**2) ** 2 + 2.0 * alpha_L**3 * alpha_Lbar**3)


def equal_alpha_contextuality_threshold() -> float:
    """Root of (2 a^2)^2 + 2 a^6 = 4: the equal-alpha value where violation starts.

    In x = a^2 this is x^3 + 2 x^2 - 2 = 0, whose one real root is, by
    Cardano, (cbrt(19 + 3 sqrt 33) + cbrt(19 - 3 sqrt 33) - 2) / 3.
    """
    r = 3.0 * np.sqrt(33.0)
    x = (np.cbrt(19.0 + r) + np.cbrt(19.0 - r) - 2.0) / 3.0
    return float(np.sqrt(x))


_SQUARE = (
    (("x", None), (None, "x"), ("x", "x")),
    ((None, "y"), ("y", None), ("y", "y")),
    (("x", "y"), ("y", "x"), ("z", "z")),
)
_IDX = {"x": 0, "y": 1, "z": 2}


def _square_observable(labels, scaling: float) -> np.ndarray:
    """Two-qubit observable with each non-identity factor scaled."""
    left, right = labels
    a = np.eye(2, dtype=complex) if left is None else scaling * PAULI[_IDX[left]]
    b = np.eye(2, dtype=complex) if right is None else scaling * PAULI[_IDX[right]]
    return tensor(a, b)


def mermin_peres_quantum_value(scaling: float) -> float:
    """Row/column product expectations of the magic square on the singlet.

    Builds the 3x3 square of two-qubit observables, multiplies the three
    observables of each of the six contexts, takes expectations on the
    singlet and returns the standard sum (rows and first two columns with
    plus sign, last column with minus).  At scaling 1 the products are all
    proportional to the identity and the value is 6, independent of state.
    """
    if not 0.0 <= scaling <= 1.0:
        raise ValueError("scaling must lie in [0, 1]")
    square = [[_square_observable(lbl, scaling) for lbl in row] for row in _SQUARE]
    rho = psi_minus_state().matrix

    def expect(product: np.ndarray) -> float:
        return float(np.trace(product @ rho).real)

    value = 0.0
    for i in range(3):
        value += expect(square[i][0] @ square[i][1] @ square[i][2])
    for j in range(2):
        value += expect(square[0][j] @ square[1][j] @ square[2][j])
    value -= expect(square[0][2] @ square[1][2] @ square[2][2])
    return value
