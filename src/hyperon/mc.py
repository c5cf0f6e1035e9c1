"""Deterministic Monte Carlo sampling of decay directions.

Every density that appears (single decay, singlet pair, two-step cascade)
is (1 + v.n)/(4 pi) for some axis v with |v| <= 1, and every decay is
sampled as the paper reads it, a measurement along one of two axes +-n:
a uniform direction n, kept with probability (1 + v.n)/2, else negated.
That is exact, with three uniforms per decay, one cosine and no special
axis: the azimuth lies on [-pi, pi) and its sine is taken from its cosine.

Reproducibility contract: one PCG64 stream seeded by the master seed, of
which event i takes the 3 len(roles) consecutive doubles from draw
3 len(roles) i on; a chunk advances the stream to its first event in
O(log n) steps, so the event stream is bit identical for any worker count
or chunking.  `iter_chunks` partitions the event range into fixed-size
chunks, samples them on a bounded thread pool and yields them in event
order; `generate` samples the same chunks on the same pool, each thread
writing its chunk straight into the chunk's rows of one preallocated
table.  Every kernel step writes with `out=` into one of five workspaces
that the call allocates, 5 x 16,384 x 8 B (655 KB) on its sampling
thread.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar, TypeVar

import numpy as np

from .cascade import _conditional_axes
from .params import DecayParameters
from .sphere import require_polarization

# each chunk in flight holds its directions and formatted text: `simulate pair` of 1M events
# on 2 threads peaked anywhere in 78-94 MB with 1 << 16 and in 52-55 MB with 1 << 14
_CHUNK = 1 << 14

ROLE_SINGLE = "single"
ROLE_PAIR = ("pair-1", "pair-2")
ROLE_CASCADE = ("cascade-mu", "cascade-nu")

_S = TypeVar("_S")
_T = TypeVar("_T")


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
    and channel `channels[channel_code[i]]`; `n` has shape (rows, 3) and
    the other columns one entry per row.  Ids are unsigned integers, as
    an event file holds them.  Each name appears once in its tuple; codes
    are the smallest unsigned integers that hold the tuple's indices (uint8
    up to 256 names).
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
        if self.event_id.dtype.kind != "u":
            raise ValueError(f"event ids must be unsigned integers, got dtype {self.event_id.dtype}")
        rows = self.event_id.size
        for name, shape in (("event_id", (rows,)), ("role_code", (rows,)), ("channel_code", (rows,)),
                            ("n", (rows, 3))):
            if (got := np.shape(getattr(self, name))) != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} for {rows} event ids")

    @classmethod
    def from_names(cls, event_id, role, channel, n) -> EventTable:
        """Table from per-row role and channel names."""
        role_code, roles = _name_codes(role)
        channel_code, channels = _name_codes(channel)
        return cls(event_id, role_code, channel_code, n, roles, channels)

    @classmethod
    def concat(cls, tables) -> EventTable:
        """The rows of `tables`, in order, as one table; names keep their order of first appearance."""
        tables = list(tables)
        if not tables:
            return cls.from_names(np.empty(0, np.uint64), [], [], np.empty((0, 3)))
        if len(tables) == 1:
            return tables[0]

        def merged(codes: str, names: str) -> tuple[np.ndarray, tuple[str, ...]]:
            union = tuple(dict.fromkeys(name for t in tables for name in getattr(t, names)))
            index = {name: code for code, name in enumerate(union)}
            dtype = _code_dtype(len(union))

            def in_union(t: EventTable) -> np.ndarray:  # the table's codes as indices into the union
                return np.array([index[name] for name in getattr(t, names)], dtype)[getattr(t, codes)]

            return np.concatenate([in_union(t) for t in tables]), union

        role_code, roles = merged("role_code", "roles")
        channel_code, channels = merged("channel_code", "channels")
        return cls(np.concatenate([t.event_id for t in tables]), role_code, channel_code,
                   np.concatenate([t.n for t in tables]), roles, channels)

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

    def directions_by_role(self, role: str) -> np.ndarray:
        if role not in self.roles:
            return self.n[:0]
        return self.n[self.role_code == self.roles.index(role)]


@dataclass(frozen=True)
class SingleDecayModel:
    """One decay of a polarized hyperon; one row per event."""

    params: DecayParameters
    polarization: np.ndarray = field(default_factory=lambda: np.zeros(3))
    channel: str = "single"
    roles: ClassVar[tuple[str, ...]] = (ROLE_SINGLE,)

    def __post_init__(self):
        object.__setattr__(self, "polarization", require_polarization(self.polarization))

    def kernel(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n = np.empty((u.shape[0], 1, 3)) if out is None else out
        directions_from_linear_density(self.params.alpha * self.polarization, *u[:, :3].T, out=n[:, 0])
        return n


@dataclass(frozen=True)
class PairCorrelationModel:
    """Singlet hyperon-antihyperon pair; two rows per event."""

    k: float
    channel: str = "pair"
    roles: ClassVar[tuple[str, ...]] = ROLE_PAIR

    def __post_init__(self):
        if not abs(self.k) <= 1.0:  # written so that NaN fails
            raise ValueError("|k| exceeds 1")

    def kernel(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n = np.empty((u.shape[0], 2, 3)) if out is None else out
        directions_from_linear_density(np.zeros(3), *u[:, :3].T, out=n[:, 0])
        axes = np.multiply(-self.k, n[:, 0].T, out=np.empty((3, u.shape[0])))
        directions_from_linear_density(axes.T, *u[:, 3:6].T, out=n[:, 1])
        return n


@dataclass(frozen=True)
class CascadeDecayModel:
    """Two sequential decays of a polarized hyperon; two rows per event."""

    mu: DecayParameters
    nu: DecayParameters
    polarization: np.ndarray = field(default_factory=lambda: np.zeros(3))
    channel: str = "cascade"
    roles: ClassVar[tuple[str, ...]] = ROLE_CASCADE

    def __post_init__(self):
        object.__setattr__(self, "polarization", require_polarization(self.polarization))

    def kernel(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        s, mu, nu = self.polarization, self.mu, self.nu
        n = np.empty((u.shape[0], 2, 3)) if out is None else out
        directions_from_linear_density(mu.alpha * s, *u[:, :3].T, out=n[:, 0])
        axes = _conditional_axes(mu, nu, s, n[:, 0], out=np.empty((3, u.shape[0])).T)
        directions_from_linear_density(axes, *u[:, 3:6].T, out=n[:, 1])
        return n


@dataclass(frozen=True)
class SampleConfig:
    """Master seed, event count, model and a worker-count hint."""

    seed: int
    events: int
    model: SingleDecayModel | PairCorrelationModel | CascadeDecayModel
    workers: int | None = None

    def __post_init__(self):
        if not 1 <= self.events <= 2**64:  # the event ids, 0 to events - 1, are uint64
            raise ValueError("event count must be at least 1 and at most 2^64")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        _check_workers(self.workers)


# ---------------------------------------------------------------------------
# sampling kernels (vectorized over events)


def directions_from_linear_density(
    vectors: np.ndarray, u_cos: np.ndarray, u_phi: np.ndarray, u_keep: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw one direction per row of the uniforms from the density (1 + v.n)/(4 pi).

    The decay read as a two-axis measurement: n is uniform on the sphere
    (cos theta = 2 u_cos - 1, azimuth phi = 2 pi u_phi - pi on [-pi, pi))
    and is kept with probability (1 + v.n)/2, else negated, so the density
    at n is (1 + v.n)/(8 pi) + (1 - v.(-n))/(8 pi) = (1 + v.n)/(4 pi).  The
    sign is that of v.n - (2 u_keep - 1).  Both sines come from their
    cosines, sin theta = sqrt(1 - cos^2 theta) and
    sin phi = copysign(sqrt(1 - cos^2 phi), phi), so a decay costs one
    trigonometric call.

    `vectors` is either one vector v of shape (3,) that holds for every
    row or one row v per draw; |v| <= 1.  The directions are written into
    `out` of shape (rows, 3), which may be a strided view, and `out` is
    returned; without it, a new array.  Each step writes with `out=` into
    one of five arrays of one entry per draw, and each column of `out` is
    written once, as a component times the sign.
    """
    x, y, z = np.atleast_2d(np.asarray(vectors, dtype=float)).T
    (count,) = np.broadcast_shapes(x.shape, np.shape(u_cos), np.shape(u_phi), np.shape(u_keep))
    out = np.empty((count, 3)) if out is None else out
    top = np.sqrt(np.max((x * x + y * y) + z * z, initial=0.0))
    if not top <= 1.0 + 1e-9:  # written so that NaN fails
        raise ValueError(f"direction density axis longer than 1: max |v| = {top:.6g}")

    cos, sin, nx, ny, sign = (np.empty(count) for _ in range(5))
    np.multiply(2.0, u_cos, out=cos)
    np.subtract(cos, 1.0, out=cos)
    np.multiply(cos, cos, out=sin)
    np.subtract(1.0, sin, out=sin)
    np.sqrt(sin, out=sin)
    np.multiply(2.0 * np.pi, u_phi, out=sign)  # the azimuth
    np.subtract(sign, np.pi, out=sign)
    np.cos(sign, out=nx)
    np.multiply(nx, nx, out=ny)
    np.subtract(1.0, ny, out=ny)
    np.sqrt(ny, out=ny)
    np.copysign(ny, sign, out=ny)
    np.multiply(nx, sin, out=nx)
    np.multiply(ny, sin, out=ny)
    np.multiply(x, nx, out=sign)  # v.n
    np.multiply(y, ny, out=sin)
    np.add(sign, sin, out=sign)
    np.multiply(z, cos, out=sin)
    np.add(sign, sin, out=sign)
    np.multiply(2.0, u_keep, out=sin)
    np.subtract(sin, 1.0, out=sin)
    np.subtract(sign, sin, out=sign)
    np.copysign(1.0, sign, out=sign)
    for i, component in enumerate((nx, ny, cos)):
        np.multiply(component, sign, out=out[:, i])
    return out


# ---------------------------------------------------------------------------
# bulk generation from one seekable stream


def _event_uniforms(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """Uniform doubles of shape (count, draws): row i holds the doubles of event start + i."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(start * draws)
    return np.random.Generator(bitgen).random(draws * count).reshape(count, draws)


def _pool_size(requested: int | None, cpus: int | None) -> int:
    """Threads: all CPUs when unset or 0, at most one per CPU."""
    _check_workers(requested)
    cpus = cpus or 1
    return min(requested or cpus, cpus)


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 0:
        raise ValueError(f"worker count must be non-negative, got {workers}")


def _ordered_map(func: Callable[[_S], _T], items: Iterable[_S], workers: int | None) -> Iterator[_T]:
    """func(item) for each item, in order, on a pool with at most 2 x its threads items in flight.

    The one place a pool is sized: `_pool_size(workers, os.cpu_count())`
    threads.  The executor starts a thread only when none is idle, so k
    items run on at most k threads; a pool of one maps in the calling
    thread.  An error raised while drawing the next item is raised after
    the results of the items before it have been yielded.
    """
    items, workers = iter(items), _pool_size(workers, os.cpu_count())
    if workers <= 1:
        yield from map(func, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight, failure = deque(), None

        def submit(count: int) -> None:
            nonlocal failure
            try:
                for item in itertools.islice(items, count):  # drawn only as the window has room
                    in_flight.append(pool.submit(func, item))
            except Exception as exc:
                failure = exc

        submit(2 * workers)
        try:
            while in_flight:
                # .result() re-raises a worker's error; no name keeps the result alive here
                yield in_flight.popleft().result()
                if failure is None:
                    submit(1)
        finally:
            for future in in_flight:  # a consumer that stops early
                future.cancel()
        if failure is not None:
            raise failure


def _table(model, first_id: int, n: np.ndarray) -> EventTable:
    """EventTable of events first_id, first_id + 1, ... whose rows `n` are in role order."""
    n_roles = len(model.roles)
    count = n.shape[0] // n_roles
    return EventTable(
        event_id=np.repeat(np.arange(first_id, first_id + count, dtype=np.uint64), n_roles),
        role_code=np.tile(np.arange(n_roles, dtype=_code_dtype(n_roles)), count),
        channel_code=np.zeros(count * n_roles, dtype=_code_dtype(1)),
        n=n,
        roles=model.roles,
        channels=(model.channel,),
    )


def _sample(config: SampleConfig, start: int, out: np.ndarray) -> None:
    """Write the directions of events start, start + 1, ... into `out` of shape (events, len(roles), 3)."""
    draws = 3 * len(config.model.roles)  # three uniforms per decay
    config.model.kernel(_event_uniforms(config.seed, start, out.shape[0], draws), out=out)


def _map_chunks(config: SampleConfig, func: Callable[[int], _T]) -> Iterator[_T]:
    """func(start) for the first event of each chunk, in order, on the sampling pool."""
    return _ordered_map(func, range(0, config.events, _CHUNK), config.workers)


def iter_chunks(
    config: SampleConfig, apply: Callable[[EventTable], _T] | None = None
) -> Iterator[EventTable | _T]:
    """The configured events as one EventTable per _CHUNK events, in id order.

    Each model's `kernel` maps uniforms of shape (events, 3 x len(roles))
    to directions of shape (events, len(roles), 3), three uniforms per
    decay; pair and cascade models emit two rows per event id, in the
    fixed role order.  Chunks are sampled on `_ordered_map`'s pool
    with at most two chunks per thread in flight, so memory stays bounded
    for any event count.  With `apply`, each chunk's
    table is passed to it on the thread that sampled the chunk, and its
    results are yielded in place of the tables.
    """
    model = config.model

    def sample(start: int) -> EventTable | _T:
        n = np.empty((min(_CHUNK, config.events - start), len(model.roles), 3))
        _sample(config, start, n)
        table = _table(model, start, n.reshape(-1, 3))
        return table if apply is None else apply(table)

    yield from _map_chunks(config, sample)


def generate(config: SampleConfig) -> EventTable:
    """Sample the configured events into one table; bit-identical for any worker count.

    The table holds events * len(roles) rows sorted by id.  Each sampling
    thread writes a chunk straight into the chunk's rows of the table, so
    no chunk is copied or tabled on its own; while it samples, a thread
    holds the chunk's uniforms (at most 6 x 16,384) and 5 x 16,384 doubles
    (655 KB) of kernel workspace.
    """
    n = np.empty((config.events, len(config.model.roles), 3))
    for _ in _map_chunks(config, lambda start: _sample(config, start, n[start:start + _CHUNK])):
        pass
    return _table(config.model, 0, n.reshape(-1, 3))
