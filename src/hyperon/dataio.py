"""Parameter-table ingestion, event-file persistence and table emission.

Both formats are comma-separated UTF-8 text.  The parameter file stores the
signed asymmetry alpha, the phase phi in units of pi and the sign of gamma
per channel (none of which are recoverable from published magnitude tables),
with `#` comment lines.  The event file is one record per line,
``event_id,role,channel,nx,ny,nz``, directions printed with 9 significant
digits so unit norms survive a round trip to 1e-9.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .decay import DecayChannel, DecayParameters, chi_sp_mod_pi, params_from_alpha_phi
from .mc import EventTable, ROLE_PAIR

log = logging.getLogger(__name__)

EVENT_HEADER = "event_id,role,channel,nx,ny,nz"
PARAMETER_COLUMNS = (
    "parent",
    "quarks",
    "channel",
    "branching",
    "alpha",
    "phi_over_pi",
    "gamma_sign",
    "note",
)


class DataError(Exception):
    """Malformed or inconsistent input data."""


class ParameterFileError(DataError):
    pass


class EventFileError(DataError):
    pass


@dataclass(frozen=True)
class ParameterRow:
    """One decay channel as stored on disk."""

    parent: str
    quarks: str
    channel: str
    branching: float
    alpha: float
    phi_over_pi: float
    gamma_sign: int
    note: str

    def params(self) -> DecayParameters:
        return params_from_alpha_phi(
            self.alpha, self.phi_over_pi * np.pi, gamma_sign=self.gamma_sign
        )

    def decay_channel(self) -> DecayChannel:
        daughters = tuple(self.channel.split())
        if len(daughters) != 2:
            raise ParameterFileError(
                f"channel {self.channel!r} does not name exactly two daughters"
            )
        return DecayChannel(
            parent=self.parent,
            daughters=daughters,
            branching=self.branching,
            params=self.params(),
        )


@dataclass(frozen=True)
class ParameterTable:
    rows: tuple[ParameterRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def find(self, parent: str, channel: str | None = None) -> ParameterRow:
        """First row matching the parent (and channel, when given)."""
        for row in self.rows:
            if row.parent == parent and (channel is None or row.channel == channel):
                return row
        wanted = parent if channel is None else f"{parent} -> {channel}"
        raise KeyError(f"no parameter row for {wanted!r}")


def _parse_row(fields: list[str], line_no: int, path) -> ParameterRow:
    if len(fields) != len(PARAMETER_COLUMNS):
        raise ParameterFileError(
            f"{path}:{line_no}: expected {len(PARAMETER_COLUMNS)} fields, got {len(fields)}"
        )
    parent, quarks, channel, branching_s, alpha_s, phi_s, gsign_s, note = (
        f.strip() for f in fields
    )
    try:
        branching = float(branching_s)
        alpha = float(alpha_s)
        phi_over_pi = float(phi_s)
        gamma_sign = int(gsign_s)
    except ValueError as exc:
        raise ParameterFileError(f"{path}:{line_no}: unparseable number: {exc}") from None
    if not 0.0 <= branching <= 1.0:
        raise ParameterFileError(
            f"{path}:{line_no}: branching fraction {branching} outside [0, 1]"
        )
    if abs(alpha) > 1.0:
        raise ParameterFileError(f"{path}:{line_no}: |alpha| = {abs(alpha)} exceeds 1")
    if gamma_sign not in (1, -1):
        raise ParameterFileError(f"{path}:{line_no}: gamma_sign must be +1 or -1")
    row = ParameterRow(parent, quarks, channel, branching, alpha, phi_over_pi, gamma_sign, note)
    try:
        row.params()
    except ValueError as exc:
        raise ParameterFileError(f"{path}:{line_no}: {exc}") from None
    return row


def load_parameters(path) -> ParameterTable:
    """Read and validate a parameter file; errors carry the offending line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterFileError(f"cannot read parameter file {path}: {exc}") from None
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(_parse_row(stripped.split(","), line_no, path))
    if not rows:
        log.warning("parameter file %s contains no data rows", path)
    return ParameterTable(rows=tuple(rows))


def bundled_parameters_path() -> Path:
    """Location of the parameter file shipped with the package."""
    return Path(resources.files("hyperon") / "data" / "hyperon_channels.csv")


def load_bundled_parameters() -> ParameterTable:
    return load_parameters(bundled_parameters_path())


def emit_table(table: ParameterTable) -> str:
    """CSV report with the recomputed phase shift, visibility and predictability.

    The phase-shift column is folded into (-pi/2, pi/2], the magnitude
    convention of published tables.
    """
    lines = ["parent,channel,branching,chi_sp_over_pi,visibility,predictability"]
    for row in table:
        p = row.params()
        lines.append(
            f"{row.parent},{row.channel},{row.branching:.6g},"
            f"{chi_sp_mod_pi(p) / np.pi:.6g},{p.visibility:.6g},{p.predictability:.6g}"
        )
    return "\n".join(lines) + "\n"


def format_events(events) -> str:
    """Event-file text for an EventTable or an iterable of EventRecord."""
    if isinstance(events, EventTable):
        ids = events.event_id
        roles = events.role
        channels = events.channel
        dirs = events.n
    else:
        records = list(events)
        ids = [r.event_id for r in records]
        roles = [r.role for r in records]
        channels = [r.channel for r in records]
        dirs = np.array([r.n for r in records]).reshape(-1, 3)
    lines = [EVENT_HEADER]
    for i in range(len(ids)):
        if "," in str(channels[i]):
            raise EventFileError(f"channel name {channels[i]!r} contains a comma")
        lines.append(
            f"{ids[i]},{roles[i]},{channels[i]},"
            f"{dirs[i, 0]:.9g},{dirs[i, 1]:.9g},{dirs[i, 2]:.9g}"
        )
    return "\n".join(lines) + "\n"


def write_events(path, events) -> None:
    """Write an EventTable or an iterable of EventRecord to `path`."""
    path = Path(path)
    try:
        path.write_text(format_events(events), encoding="utf-8")
    except OSError as exc:
        raise EventFileError(f"cannot write event file {path}: {exc}") from None


def read_events(path) -> EventTable:
    """Read an event file back into a columnar table.

    A malformed or truncated line aborts the read with the line number and
    the last successfully parsed event id.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise EventFileError(f"cannot read event file {path}: {exc}") from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != EVENT_HEADER:
        raise EventFileError(f"{path}:1: missing event header {EVENT_HEADER!r}")
    ids: list[int] = []
    roles: list[str] = []
    channels: list[str] = []
    comps: list[tuple[float, float, float]] = []
    last_good = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != 6:
                raise ValueError(f"expected 6 fields, got {len(parts)}")
            event_id = int(parts[0])
            nx, ny, nz = float(parts[3]), float(parts[4]), float(parts[5])
            if abs(np.sqrt(nx * nx + ny * ny + nz * nz) - 1.0) > 1e-9:
                raise ValueError("direction is not unit length")
        except ValueError as exc:
            raise EventFileError(
                f"{path}:{line_no}: {exc} (last good event id: {last_good})"
            ) from None
        ids.append(event_id)
        roles.append(parts[1])
        channels.append(parts[2])
        comps.append((nx, ny, nz))
        last_good = event_id
    return EventTable(
        event_id=np.array(ids, dtype=np.uint64),
        role=np.array(roles),
        channel=np.array(channels),
        n=np.array(comps, dtype=float).reshape(-1, 3),
    )


def paired_directions(events: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """Matched (n1, n2) arrays from a pair-event table.

    Requires every event id to appear exactly once per pair role; any other
    role mix is a data error.
    """
    roles = set(np.unique(events.role))
    if roles != set(ROLE_PAIR):
        raise EventFileError(
            f"expected pair events with roles {ROLE_PAIR}, found {sorted(roles)}"
        )
    first = events.role == ROLE_PAIR[0]
    second = events.role == ROLE_PAIR[1]
    id1 = events.event_id[first]
    id2 = events.event_id[second]
    if id1.size != id2.size or not np.array_equal(np.sort(id1), np.sort(id2)):
        raise EventFileError("pair roles do not cover the same event ids")
    n1 = events.n[first][np.argsort(id1, kind="stable")]
    n2 = events.n[second][np.argsort(id2, kind="stable")]
    return n1, n2

