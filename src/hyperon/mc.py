"""Deterministic Monte Carlo sampling of decay directions.

Every density that appears (single decay, singlet pair, two-step cascade)
is linear in the cosine of an angle to some axis, so all sampling is exact
inverse-CDF: solve the quadratic CDF for the cosine and draw the azimuth
uniformly.  No rejection, no clamping.

Reproducibility contract: event i consumes exactly one 4-word Philox
counter block keyed by the master seed, so the event stream is bit
identical for any worker count or chunking.  `generate` partitions the
event range into fixed-size chunks and may process them on a thread pool;
each chunk fills its own rows of the table, in event order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cascade import conditional_axis
from .decay import DecayParameters

DRAWS_PER_EVENT = 4  # one Philox counter block
_STREAM_CONSTANT = 0x9E3779B97F4A7C15
_CHUNK = 1 << 16

ROLE_SINGLE = "single"
ROLE_PAIR = ("pair-1", "pair-2")
ROLE_CASCADE = ("cascade-mu", "cascade-nu")


@dataclass(frozen=True)
class EventRecord:
    """One sampled daughter direction."""

    event_id: int
    role: str
    channel: str
    n: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ValueError(f"event {self.event_id}: |n| - 1 = {np.linalg.norm(n) - 1.0:.3e}")
        n.setflags(write=False)
        object.__setattr__(self, "n", n)


def _code_dtype(count: int) -> np.dtype:
    """Smallest unsigned dtype that holds the codes 0 .. count - 1 (uint8 up to 256)."""
    return np.min_scalar_type(max(count - 1, 0))


def _name_codes(names) -> tuple[np.ndarray, tuple[str, ...]]:
    """(per-row codes, distinct names in order of first appearance) of a name column."""
    names = names.tolist() if isinstance(names, np.ndarray) else list(names)
    index = {name: code for code, name in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(index.__getitem__, names), _code_dtype(len(index)), count=len(names))
    return codes, tuple(index)


@dataclass(frozen=True)
class EventTable:
    """Columnar batch of events with categorical roles and channels.

    Row i has id `event_id[i]`, direction `n[i]`, role `roles[role_code[i]]`
    and channel `channels[channel_code[i]]`.  Each name appears once in its
    tuple; codes are the smallest unsigned integers that hold the tuple's
    indices (uint8 up to 256 names).
    """

    event_id: np.ndarray
    role_code: np.ndarray
    channel_code: np.ndarray
    n: np.ndarray
    roles: tuple[str, ...]
    channels: tuple[str, ...]

    def __post_init__(self):
        for codes, names in ((self.role_code, self.roles), (self.channel_code, self.channels)):
            if len(set(names)) != len(names):
                raise ValueError(f"repeated name in {names}")
            if codes.dtype.kind != "u" or (codes.size and codes.max() >= len(names)):
                raise ValueError(f"codes must be unsigned indices into {names}")

    @classmethod
    def from_names(cls, event_id, role, channel, n) -> EventTable:
        """Table from per-row role and channel names."""
        role_code, roles = _name_codes(role)
        channel_code, channels = _name_codes(channel)
        return cls(event_id, role_code, channel_code, n, roles, channels)

    def __len__(self) -> int:
        return self.event_id.size

    @property
    def role(self) -> np.ndarray:
        """Per-row role names, decoded on access."""
        return np.array(self.roles, dtype=str)[self.role_code]

    @property
    def channel(self) -> np.ndarray:
        """Per-row channel names, decoded on access."""
        return np.array(self.channels, dtype=str)[self.channel_code]

    def records(self):
        rows = zip(self.event_id.tolist(), self.role_code.tolist(), self.channel_code.tolist(), self.n)
        for event_id, role, channel, n in rows:
            yield EventRecord(event_id, self.roles[role], self.channels[channel], n)

    def directions_by_role(self, role: str) -> np.ndarray:
        if role not in self.roles:
            return self.n[:0]
        return self.n[self.role_code == self.roles.index(role)]


def _polarization(s, name: str = "polarization") -> np.ndarray:
    """`s` as a read-only float vector; ValueError when |s| exceeds 1."""
    s = np.array(s, dtype=float)
    if np.linalg.norm(s) > 1.0 + 1e-12:
        raise ValueError(f"|{name}| exceeds 1")
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class SingleDecayModel:
    """One decay of a polarized hyperon; one row per event."""

    params: DecayParameters
    polarization: np.ndarray = field(default_factory=lambda: np.zeros(3))
    channel: str = "single"
    roles: ClassVar[tuple[str, ...]] = (ROLE_SINGLE,)

    def __post_init__(self):
        object.__setattr__(self, "polarization", _polarization(self.polarization))

    def kernel(self, u: np.ndarray) -> np.ndarray:
        axis = self.params.alpha * self.polarization
        return directions_from_linear_density(axis, u[:, 0], u[:, 1])[:, None, :]


@dataclass(frozen=True)
class PairCorrelationModel:
    """Singlet hyperon-antihyperon pair; two rows per event."""

    k: float
    channel: str = "pair"
    roles: ClassVar[tuple[str, ...]] = ROLE_PAIR

    def __post_init__(self):
        if abs(self.k) > 1.0:
            raise ValueError("|k| exceeds 1")

    def kernel(self, u: np.ndarray) -> np.ndarray:
        n1 = directions_from_linear_density(np.zeros(3), u[:, 0], u[:, 1])
        n2 = directions_from_linear_density(-self.k * n1, u[:, 2], u[:, 3])
        return np.stack([n1, n2], axis=1)


@dataclass(frozen=True)
class CascadeDecayModel:
    """Two sequential decays of a polarized hyperon; two rows per event."""

    mu: DecayParameters
    nu: DecayParameters
    polarization: np.ndarray = field(default_factory=lambda: np.zeros(3))
    channel: str = "cascade"
    roles: ClassVar[tuple[str, ...]] = ROLE_CASCADE

    def __post_init__(self):
        object.__setattr__(self, "polarization", _polarization(self.polarization))

    def kernel(self, u: np.ndarray) -> np.ndarray:
        s, mu, nu = self.polarization, self.mu, self.nu
        n_mu = directions_from_linear_density(mu.alpha * s, u[:, 0], u[:, 1])
        # vectorized form of cascade.conditional_axis
        dots = n_mu @ s
        weight = 1.0 + mu.alpha * dots
        axes = nu.alpha * (
            (mu.alpha + (1.0 - mu.gamma) * dots)[:, None] * n_mu
            + mu.gamma * s
            + mu.beta * np.cross(np.broadcast_to(s, n_mu.shape), n_mu)
        ) / weight[:, None]
        n_nu = directions_from_linear_density(axes, u[:, 2], u[:, 3])
        return np.stack([n_mu, n_nu], axis=1)


@dataclass(frozen=True)
class SampleConfig:
    """Master seed, event count, model and a worker-count hint."""

    seed: int
    events: int
    model: SingleDecayModel | PairCorrelationModel | CascadeDecayModel
    workers: int | None = None

    def __post_init__(self):
        if self.events < 1:
            raise ValueError("event count must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"worker count must be non-negative, got {self.workers}")


# ---------------------------------------------------------------------------
# sampling kernels (vectorized over events)


def _cosine_from_uniform(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the density (1 + a c)/2 on [-1, 1].

    Written as (4u + a - 2) / (1 + sqrt((1-a)^2 + 4 a u)), the root in
    [-1, 1] in a form with no cancellation as a -> 0.
    """
    disc = (1.0 - a) ** 2 + 4.0 * a * u
    return (4.0 * u + a - 2.0) / (1.0 + np.sqrt(disc))


def _frames(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (e1, e2) orthogonal to each row of `axes` (unit rows)."""
    seeds = np.zeros_like(axes)
    seeds[np.arange(axes.shape[0]), np.argmin(np.abs(axes), axis=1)] = 1.0
    e1 = np.cross(axes, seeds)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(axes, e1)
    return e1, e2


def directions_from_linear_density(vectors: np.ndarray, u_cos: np.ndarray, u_phi: np.ndarray) -> np.ndarray:
    """Draw one direction per row of the uniforms from the density (1 + v.n)/(4 pi).

    `vectors` is either one vector v of shape (3,) that holds for every row,
    whose |v|, axis and frame are then computed once and broadcast, or one
    row v per draw.  |v| <= 1; v = 0 gives uniform directions about the z
    axis.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.linalg.norm(vectors, axis=1)
    if np.any(a > 1.0 + 1e-9):
        raise ValueError(f"direction density axis longer than 1: max |v| = {a.max():.6g}")
    a = np.minimum(a, 1.0)
    axes = vectors / np.where(a > 0.0, a, 1.0)[:, None]
    axes[a == 0.0] = (0.0, 0.0, 1.0)
    cos = _cosine_from_uniform(a, u_cos)
    sin = np.sqrt(np.maximum(1.0 - cos**2, 0.0))
    psi = 2.0 * np.pi * u_phi
    e1, e2 = _frames(axes)
    return (
        cos[:, None] * axes
        + sin[:, None] * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2)
    )


def sample_single(params: DecayParameters, s, stream) -> np.ndarray:
    """One daughter direction from (1/4pi)(1 + alpha s.n)."""
    s = _polarization(s, "s")
    u = stream.random(2)
    return directions_from_linear_density(params.alpha * s[None, :], u[:1], u[1:])[0]


def sample_pair(k: float, stream) -> tuple[np.ndarray, np.ndarray]:
    """Directions (n1, n2) from the singlet density (1 - k n1.n2)/(4 pi)^2."""
    if abs(k) > 1.0:
        raise ValueError("|k| exceeds 1")
    u = stream.random(4)
    n1 = directions_from_linear_density(np.zeros(3), u[:1], u[1:2])[0]
    n2 = directions_from_linear_density(-k * n1[None, :], u[2:3], u[3:4])[0]
    return n1, n2


def sample_cascade(
    mu: DecayParameters, nu: DecayParameters, s, stream
) -> tuple[np.ndarray, np.ndarray]:
    """Directions (n_mu, n_nu): marginal for the first decay, exact conditional for the second."""
    s = _polarization(s, "s")
    u = stream.random(4)
    n_mu = directions_from_linear_density(mu.alpha * s[None, :], u[:1], u[1:2])[0]
    axis = conditional_axis(mu, nu, s, n_mu)
    n_nu = directions_from_linear_density(axis[None, :], u[2:3], u[3:4])[0]
    return n_mu, n_nu


# ---------------------------------------------------------------------------
# counter-based bulk generation


def _event_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles of shape (count, 4): event i's block for i in [start, start+count)."""
    bitgen = np.random.Philox(key=np.array([seed, _STREAM_CONSTANT], dtype=np.uint64))
    bitgen.advance(start)  # one 4-word counter block per event
    return np.random.Generator(bitgen).random(4 * count).reshape(count, 4)


def _pool_size(requested: int | None, cpus: int | None, n_chunks: int) -> int:
    """Threads for `generate`: all CPUs when unset or 0, at most one per CPU and per chunk."""
    cpus = cpus or 1
    return min(requested or cpus, cpus, n_chunks)


def generate(config: SampleConfig) -> EventTable:
    """Sample the configured events; bit-identical for any worker count.

    Each model's `kernel` maps uniforms of shape (events, 4) to directions
    of shape (events, len(roles), 3).  Pair and cascade models emit two
    records per event id, in the fixed role order, so the table holds
    events * len(roles) rows sorted by id.
    """
    model = config.model
    n_roles = len(model.roles)
    per_event = np.empty((config.events, n_roles, 3))
    starts = list(range(0, config.events, _CHUNK))

    def run(start: int) -> None:
        count = min(_CHUNK, config.events - start)
        per_event[start:start + count] = model.kernel(_event_uniforms(config.seed, start, count))

    workers = _pool_size(config.workers, os.cpu_count(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))  # reading the results re-raises a worker's error
    else:
        for start in starts:
            run(start)

    return EventTable(
        event_id=np.repeat(np.arange(config.events, dtype=np.uint64), n_roles),
        role_code=np.tile(np.arange(n_roles, dtype=_code_dtype(n_roles)), config.events),
        channel_code=np.zeros(config.events * n_roles, dtype=_code_dtype(1)),
        n=per_event.reshape(-1, 3),
        roles=model.roles,
        channels=(model.channel,),
    )
