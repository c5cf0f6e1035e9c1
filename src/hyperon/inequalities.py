"""Bell expressions in CH probability form and the Mermin-Peres square.

The probability model is the singlet with both spin measurements scaled by
the analyzing powers: joint (+,+) probability (1 - k a.b)/4 and singles 1/2.
Under local realism each expression is bounded by 0.  Each expression is
c0 - k/4 sum c_ij a_i.b_j, linear in k at fixed settings, so the optimal
settings do not depend on k, the maximum is c0 + k S/4 with S the maximal
correlation sum, and the violation threshold k* = -4 c0 / S is exact: S
comes from a see-saw, certified by a Cholesky-proved semidefinite bound.

Raw (k-scaled) probabilities are the only admissible inputs here: dividing
out the analyzing powers presupposes quantum mechanics and is confined to
the pair-analysis estimators.

Settings are 3-vectors and the largest matrix is 8 x 8, so everything here
is scalar arithmetic on tuples and lists.
"""

from __future__ import annotations

import math
import random
import sys

from ._record import Record

MERMIN_PERES_CLASSICAL_BOUND = 4.0
# Published equal-alpha contextuality claim; the displayed formula's own root
# is ~0.916 (equal_alpha_contextuality_threshold), and the two disagree.
PUBLISHED_EQUAL_ALPHA_THRESHOLD = 0.88

Vector = tuple[float, float, float]


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


class InequalitySpec(Record):
    """Coefficients of one CH-form Bell expression, classical bound 0."""

    name: str
    joint: tuple[tuple[float, ...], ...]  # (n_a, n_b) coefficients of Prob(a_i, b_j)
    singles_a: tuple[float, ...]          # coefficients of Prob(a_i)
    singles_b: tuple[float, ...]          # coefficients of Prob(b_j)

    def __post_init__(self):
        try:
            joint = tuple(tuple(map(float, row)) for row in self.joint)
        except TypeError:  # a row that is a number
            raise ValueError("coefficient table shapes are inconsistent") from None
        sa, sb = tuple(map(float, self.singles_a)), tuple(map(float, self.singles_b))
        if len(joint) != len(sa) or any(len(row) != len(sb) for row in joint):
            raise ValueError("coefficient table shapes are inconsistent")
        if not sa or not sb:
            raise ValueError("each side needs at least one setting")
        flat = [x for row in joint for x in row]
        for name, values in (("joint", flat), ("singles_a", sa), ("singles_b", sb)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} coefficients must be finite")
        for name, value in (("joint", joint), ("singles_a", sa), ("singles_b", sb)):
            object.__setattr__(self, name, value)
        # no product the see-saw or its certificate forms exceeds (sum |c|)^2
        s = sum(map(abs, flat)) + sum(map(abs, sa)) + sum(map(abs, sb))
        if not math.isfinite(s * s):
            raise ValueError("coefficients too large: the square of the sum of their magnitudes overflows")

    @property
    def n_a(self) -> int:
        return len(self.singles_a)

    @property
    def n_b(self) -> int:
        return len(self.singles_b)


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


class BellSettings(Record):
    """Measurement directions for the two sides."""

    a: tuple[Vector, ...]  # n_a unit vectors
    b: tuple[Vector, ...]  # n_b unit vectors

    def __post_init__(self):
        for name in ("a", "b"):
            try:
                vectors = tuple(tuple(map(float, v)) for v in getattr(self, name))
            except TypeError:  # a vector that is a number
                vectors = ()
            if not vectors or any(len(v) != 3 for v in vectors):
                raise ValueError(f"settings {name} must have shape (n, 3)")
            if not all(abs(math.hypot(*v) - 1.0) <= 1e-12 for v in vectors):  # written so that NaN fails
                raise ValueError(f"settings {name} contain non-unit vectors")
            object.__setattr__(self, name, vectors)


class ProbModel(Record):
    """Correlation scale k = alpha alpha-bar of the measured singlet."""

    k: float

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k = {self.k} outside [0, 1]")


def prob_joint(model: ProbModel, a, b) -> float:
    """Probability that both sides give the plus result along a and b."""
    return float((1.0 - model.k * _dot(a, b)) / 4.0)


def _constant(spec: InequalitySpec) -> float:
    """The expression at k = 0, c0 = sum(joint)/4 + sum(singles)/2."""
    return sum(map(sum, spec.joint)) / 4.0 + (sum(spec.singles_a) + sum(spec.singles_b)) / 2.0


def evaluate(spec: InequalitySpec, settings: BellSettings, model: ProbModel) -> float:
    """Value of the Bell expression at the given settings, c0 - k/4 sum c_ij a_i.b_j."""
    if len(settings.a) != spec.n_a or len(settings.b) != spec.n_b:
        raise ValueError(
            f"{spec.name} needs {spec.n_a}+{spec.n_b} settings, "
            f"got {len(settings.a)}+{len(settings.b)}"
        )
    correlation = sum(_dot(a, _field(row, settings.b)) for row, a in zip(spec.joint, settings.a))
    return _constant(spec) - model.k * correlation / 4.0


_SEESAW_MAX_SWEEPS = 10_000
_SEESAW_STARTS = 4
_CERTIFY_RTOL = 1e-12
# a sweep that moves no component of a unit vector by more than this is rounding, not progress
_STALL_STEP = 1e-15


def _field(coefficients, vectors) -> Vector:
    """sum_j c_j v_j."""
    x = y = z = 0.0
    for c, v in zip(coefficients, vectors):
        x += c * v[0]
        y += c * v[1]
        z += c * v[2]
    return x, y, z


def _even_power(values) -> int:
    """The even e that puts 2^e max|values| in [1, 4); scaling by 2^e is exact, and so is its root 2^(e/2)."""
    return -2 * ((math.frexp(max(map(abs, values)))[1] - 1) // 2)


def _times_power(rows, e: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(math.ldexp(x, e) for x in row) for row in rows)


def _unit_or_keep(target: Vector, previous: Vector) -> Vector:
    """`target` scaled to unit length; a zero `target` keeps `previous`."""
    norm = math.hypot(*target)
    return (target[0] / norm, target[1] / norm, target[2] / norm) if norm > 0.0 else previous


def _proves_psd(m: list[list[float]], shift: float) -> bool:
    """True only if m + shift I is positive semidefinite (m symmetric, a list of rows).

    Floating-point Cholesky of H, run to completion, gives R^T R = H + E with
    |E| <= gamma_{n+1} |R^T| |R| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3), so H >= -||E||_2 I and ||E||_2 <=
    gamma_{n+1} ||R||_F^2 <= gamma_{n+1}/(1 - gamma_{n+1}) tr(H).  Factoring
    H = m + (shift - c) I with c = (n+2) eps sum|m_ii + shift|, at least
    gamma_{n+2}/(1 - gamma_{n+2}) tr(H) with the rounding of H's diagonal,
    proves m + shift I >= 0 (Rump, BIT 46, 433, 2006).  The theorem assumes
    no underflow.  `_correlation_max` scales the coefficients by
    `_even_power` first, so its m has entries of order 1 and none
    underflows.  `certified_bound` forms m at the caller's scale: on a
    spec whose coefficients are subnormal, each product or halving of that
    size is rounded to an absolute error of up to 2^-1075 that c, itself 0
    there, does not cover.  That adds at most n^2 2^-1075 to ||E||_2, and as
    much from the rounding of W, so its U may undercut a proved bound by
    about 2 n^3 2^-1075, 2.5e-321 at n = 8.
    """
    c = (len(m) + 2) * sys.float_info.epsilon * sum(abs(row[i] + shift) for i, row in enumerate(m))
    factor = []  # the rows of R^T
    for i, row in enumerate(m):
        r = []
        for j, rj in enumerate(factor):
            r.append((row[j] - sum(x * y for x, y in zip(r, rj))) / rj[j])
        pivot = row[i] + shift - c - sum(x * x for x in r)
        if not pivot > 0.0:
            return False
        factor.append([*r, math.sqrt(pivot)])
    return True


def _certificate(c, a, b) -> tuple[float, float]:
    """The value sum_ij c_ij a_i.b_j at settings (a, b), and a bound U on its maximum.

    With y the half-norms of the fields on each a_i and b_j and
    W = [[0, C], [C^T, 0]]/2, U = sum(y) + n s bounds the value over unit
    vectors in any dimension once Diag(y) - W + s I >= 0 is proved, and meets
    it at a maximum as s -> 0 (semidefinite duality: Tsirelson 1980; Wehner,
    PRA 73, 022110).  Unproved, U = sum |c_ij|, since |a_i.b_j| <= 1.
    """
    fields_a = [_field(row, b) for row in c]
    y = [math.hypot(*f) / 2.0 for f in fields_a] + [math.hypot(*_field(col, a)) / 2.0 for col in zip(*c)]
    n_a, n = len(c), len(y)
    m = [[y[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i, row in enumerate(c):
        for j, cij in enumerate(row):
            m[i][n_a + j] = m[n_a + j][i] = -cij / 2.0
    # a quarter of the tolerance on U - S: lambda_min(Diag(y) - W) is about -2e-13 at I4's maximum
    shift = _CERTIFY_RTOL * sum(y) / (4 * n)
    bound = sum(y) + n * shift if _proves_psd(m, shift) else sum(abs(x) for row in c for x in row)
    # 2n units of rounding, the error of the n-term sums of U and the value, keep U >= value
    return sum(_dot(ai, f) for ai, f in zip(a, fields_a)), bound * (1.0 + 2 * n * sys.float_info.epsilon)


def _correlation_max(spec: InequalitySpec) -> tuple[float, float, tuple[Vector, ...], tuple[Vector, ...]]:
    """S = max sum_ij c_ij a_i.b_j over unit vectors in R^3: (S, its bound U, a, b).

    See-saw of Liang & Doherty (PRA 75, 042103): with b fixed the best a_i
    is unit(sum_j c_ij b_j), and with a fixed the best b_j is
    unit(sum_i c_ij a_i), so no sweep lowers the value.  Start s, drawn
    from random.Random(s), sweeps while the value rises; once it stops, each
    sweep asks the certificate whether U - S <= _CERTIFY_RTOL S proves S.
    A start passes to the next when a sweep moves its vectors by no more
    than rounding (_STALL_STEP) short of a proof, or after
    _SEESAW_MAX_SWEEPS; if none of the _SEESAW_STARTS certifies, the best
    value wins.  The see-saw runs on `joint` times 2^e, by `_even_power`, so no
    step is subnormal; S and U are multiplied back by 2^-e.
    """
    e = _even_power(x for row in spec.joint for x in row)
    c, runs = _times_power(spec.joint, e), []
    columns = tuple(zip(*c))

    def unscaled(value, bound, a, b):
        return math.ldexp(value, -e), math.ldexp(bound, -e), a, b

    for start in range(_SEESAW_STARTS):
        gauss = random.Random(start).gauss
        v = tuple(_unit_or_keep((gauss(0.0, 1.0), gauss(0.0, 1.0), gauss(0.0, 1.0)), (0.0, 0.0, 1.0))
                  for _ in range(spec.n_a + spec.n_b))
        a, b, value = v[:spec.n_a], v[spec.n_a:], -math.inf
        for sweep in range(1, _SEESAW_MAX_SWEEPS + 1):
            new_a = tuple(_unit_or_keep(_field(row, b), ai) for row, ai in zip(c, a))
            fields_b = [_field(col, new_a) for col in columns]
            new_b = tuple(_unit_or_keep(f, bj) for f, bj in zip(fields_b, b))
            new_value = sum(map(_dot, new_b, fields_b))
            moved = any(abs(x - y) > _STALL_STEP
                        for u, w in zip(new_a + new_b, a + b) for x, y in zip(u, w))
            rising = new_value > value
            a, b, value = new_a, new_b, new_value
            if rising and sweep < _SEESAW_MAX_SWEEPS:
                continue  # a certificate costs about 5 sweeps: ask once the value settles
            value, bound = _certificate(c, a, b)
            if bound - value <= _CERTIFY_RTOL * value:
                return unscaled(value, bound, a, b)
            if not moved:
                break  # stalled short of a proof
        runs.append((value, bound, a, b))
    return unscaled(*max(runs, key=lambda run: run[0]))


def maximize(spec: InequalitySpec, model: ProbModel) -> tuple[float, BellSettings]:
    """Maximize the expression over all measurement directions.

    The expression is c0 - k/4 sum c_ij a_i.b_j, so its maximum is
    c0 + k S/4 at a = a*, b = -b* where (a*, b*) attains the correlation
    maximum S (see-saw from fixed starts, certified by its dual bound).
    The returned value is `evaluate` at the returned settings.
    """
    _, _, a, b = _correlation_max(spec)
    settings = BellSettings(a=a, b=tuple((-x, -y, -z) for x, y, z in b))
    return evaluate(spec, settings, model), settings


def certified_bound(spec: InequalitySpec, settings: BellSettings, model: ProbModel) -> float:
    """An upper bound on the expression's maximum over all settings, c0 + k U/4.

    U is the semidefinite dual bound of `_certificate` formed at `settings`.
    It bounds the correlation maximum whatever the settings, which only
    decide how tight it is; it uses the fields' norms, so negating b, as
    `maximize` does, leaves it unchanged.
    """
    _, bound = _certificate(spec.joint, settings.a, settings.b)
    return _constant(spec) + model.k * bound / 4.0


def threshold(spec: InequalitySpec) -> float:
    """Exact smallest k in [0, 1] where the maximal value reaches zero.

    The maximum is c0 + k g with g = S/4 >= 0, linear in k, so the
    threshold is -c0/g with no search over k.  c0 and g are those of the
    spec times 2^e, by `_even_power`, which leaves -c0/g as it is and
    keeps every step normal.  Raises when the maximum never changes sign
    on [0, 1] (c0 > 0 or c0 + g <= 0).
    """
    e = _even_power([x for row in (*spec.joint, spec.singles_a, spec.singles_b) for x in row])
    scaled = InequalitySpec(spec.name, _times_power(spec.joint, e),
                            *_times_power((spec.singles_a, spec.singles_b), e))
    c0 = _constant(scaled)
    g = _correlation_max(scaled)[0] / 4.0
    if c0 > 0.0 or c0 + g <= 0.0:
        raise ValueError(
            f"no violation threshold for {spec.name} on [0, 1]: "
            f"max at k=0 is {math.ldexp(c0, -e):.6g}, at k=1 is {math.ldexp(c0 + g, -e):.6g}"
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
    Cardano, (cbrt(19 + 3 sqrt 33) + cbrt(19 - 3 sqrt 33) - 2) / 3; both
    radicands are positive, so each cube root is a power 1/3.
    """
    r = 3.0 * math.sqrt(33.0)
    x = ((19.0 + r) ** (1.0 / 3.0) + (19.0 - r) ** (1.0 / 3.0) - 2.0) / 3.0
    return math.sqrt(x)

