"""Deterministic Monte Carlo sampling of decay directions.

Every density that appears (single decay, singlet pair, two-step cascade)
is linear in the cosine of an angle to some axis, so all sampling is exact
inverse-CDF: solve the quadratic CDF for the cosine and draw the azimuth
uniformly.  No rejection, no clamping.

Reproducibility contract: event i consumes exactly one 4-word Philox
counter block keyed by the master seed, so the event stream is bit
identical for any worker count or chunking.  `generate` partitions the
event range into fixed-size chunks and may process them on a thread pool;
results are reassembled in event order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class EventTable:
    """Columnar batch of event records (ids, roles, channels, directions)."""

    event_id: np.ndarray
    role: np.ndarray
    channel: np.ndarray
    n: np.ndarray

    def __len__(self) -> int:
        return self.event_id.size

    def records(self):
        for i in range(len(self)):
            yield EventRecord(
                event_id=int(self.event_id[i]),
                role=str(self.role[i]),
                channel=str(self.channel[i]),
                n=self.n[i],
            )

    def directions_by_role(self, role: str) -> np.ndarray:
        return self.n[self.role == role]


@dataclass(frozen=True)
class SingleDecayModel:
    params: DecayParameters
    polarization: np.ndarray = field(default_factory=lambda: np.zeros(3))
    channel: str = "single"

    def __post_init__(self):
        s = np.asarray(self.polarization, dtype=float)
        if np.linalg.norm(s) > 1.0 + 1e-12:
            raise ValueError("|polarization| exceeds 1")
        s.setflags(write=False)
        object.__setattr__(self, "polarization", s)


@dataclass(frozen=True)
class PairCorrelationModel:
    k: float
    channel: str = "pair"

    def __post_init__(self):
        if abs(self.k) > 1.0:
            raise ValueError("|k| exceeds 1")


@dataclass(frozen=True)
class CascadeDecayModel:
    mu: DecayParameters
    nu: DecayParameters
    polarization: np.ndarray = field(default_factory=lambda: np.zeros(3))
    channel: str = "cascade"

    def __post_init__(self):
        s = np.asarray(self.polarization, dtype=float)
        if np.linalg.norm(s) > 1.0 + 1e-12:
            raise ValueError("|polarization| exceeds 1")
        s.setflags(write=False)
        object.__setattr__(self, "polarization", s)


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
    """Draw one direction per row from the density (1 + v.n)/(4 pi).

    `vectors` has rows v with |v| <= 1; rows with v = 0 give uniform
    directions about the z axis.
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
    s = np.asarray(s, dtype=float)
    if np.linalg.norm(s) > 1.0 + 1e-12:
        raise ValueError("|s| exceeds 1")
    u = stream.random(2)
    return directions_from_linear_density(params.alpha * s[None, :], u[:1], u[1:])[0]


def sample_pair(k: float, stream) -> tuple[np.ndarray, np.ndarray]:
    """Directions (n1, n2) from the singlet density (1 - k n1.n2)/(4 pi)^2."""
    if abs(k) > 1.0:
        raise ValueError("|k| exceeds 1")
    u = stream.random(4)
    n1 = directions_from_linear_density(np.zeros((1, 3)), u[:1], u[1:2])[0]
    n2 = directions_from_linear_density(-k * n1[None, :], u[2:3], u[3:4])[0]
    return n1, n2


def sample_cascade(
    mu: DecayParameters, nu: DecayParameters, s, stream
) -> tuple[np.ndarray, np.ndarray]:
    """Directions (n_mu, n_nu): marginal for the first decay, exact conditional for the second."""
    s = np.asarray(s, dtype=float)
    if np.linalg.norm(s) > 1.0 + 1e-12:
        raise ValueError("|s| exceeds 1")
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


def _chunk_single(model: SingleDecayModel, u: np.ndarray) -> np.ndarray:
    axes = np.broadcast_to(model.params.alpha * model.polarization, (u.shape[0], 3))
    return directions_from_linear_density(axes, u[:, 0], u[:, 1])[:, None, :]


def _chunk_pair(model: PairCorrelationModel, u: np.ndarray) -> np.ndarray:
    n1 = directions_from_linear_density(np.zeros((u.shape[0], 3)), u[:, 0], u[:, 1])
    n2 = directions_from_linear_density(-model.k * n1, u[:, 2], u[:, 3])
    return np.stack([n1, n2], axis=1)


def _chunk_cascade(model: CascadeDecayModel, u: np.ndarray) -> np.ndarray:
    s = model.polarization
    n_mu = directions_from_linear_density(
        np.broadcast_to(model.mu.alpha * s, (u.shape[0], 3)), u[:, 0], u[:, 1]
    )
    # vectorized form of cascade.conditional_axis
    mu, nu = model.mu, model.nu
    dots = n_mu @ s
    weight = 1.0 + mu.alpha * dots
    axes = nu.alpha * (
        (mu.alpha + (1.0 - mu.gamma) * dots)[:, None] * n_mu
        + mu.gamma * s
        + mu.beta * np.cross(np.broadcast_to(s, n_mu.shape), n_mu)
    ) / weight[:, None]
    n_nu = directions_from_linear_density(axes, u[:, 2], u[:, 3])
    return np.stack([n_mu, n_nu], axis=1)


def _roles_for(model) -> tuple[str, ...]:
    if isinstance(model, SingleDecayModel):
        return (ROLE_SINGLE,)
    if isinstance(model, PairCorrelationModel):
        return ROLE_PAIR
    if isinstance(model, CascadeDecayModel):
        return ROLE_CASCADE
    raise TypeError(f"unknown model type {type(model).__name__}")


def _pool_size(requested: int | None, cpus: int | None, n_chunks: int) -> int:
    """Threads for `generate`: all CPUs when unset or 0, at most one per CPU and per chunk."""
    cpus = cpus or 1
    return min(requested or cpus, cpus, n_chunks)


def generate(config: SampleConfig) -> EventTable:
    """Sample the configured events; bit-identical for any worker count.

    Pair and cascade models emit two records per event id, in the fixed
    role order, so the table holds events * len(roles) rows sorted by id.
    """
    model = config.model
    roles = _roles_for(model)
    if isinstance(model, SingleDecayModel):
        kernel = _chunk_single
    elif isinstance(model, PairCorrelationModel):
        kernel = _chunk_pair
    else:
        kernel = _chunk_cascade

    starts = list(range(0, config.events, _CHUNK))

    def run(start: int) -> np.ndarray:
        count = min(_CHUNK, config.events - start)
        return kernel(model, _event_uniforms(config.seed, start, count))

    workers = _pool_size(config.workers, os.cpu_count(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run, starts))
    else:
        blocks = [run(s) for s in starts]

    per_event = np.concatenate(blocks, axis=0)  # (events, len(roles), 3)
    n_roles = len(roles)
    ids = np.repeat(np.arange(config.events, dtype=np.uint64), n_roles)
    role_col = np.tile(np.array(roles), config.events)
    channel_col = np.full(ids.size, model.channel)
    return EventTable(
        event_id=ids,
        role=role_col,
        channel=channel_col,
        n=per_event.reshape(-1, 3),
    )
