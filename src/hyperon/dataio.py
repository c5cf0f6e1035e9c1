"""Parameter-table ingestion, event-file persistence and table emission.

Both formats are comma-separated UTF-8 text.  The parameter file stores the
signed asymmetry alpha, the phase phi in units of pi and the sign of gamma
per channel (none of which are recoverable from published magnitude tables),
with `#` comment lines.  The event file is the header
``event_id,role,channel,nx,ny,nz`` and one record per line: a decimal uint64
id, a role and a channel free of commas and line breaks, and a unit
direction printed with 9 significant digits, so unit norms survive a round
trip to 1e-9.  It has no comment lines; empty lines are skipped.  Event
files are written in blocks of rows and read back with one vectorised parse."""

from __future__ import annotations

import contextlib
import logging
import re
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NoReturn

import numpy as np

from .decay import DecayChannel, DecayParameters, chi_sp_mod_pi, params_from_alpha_phi
from .mc import EventTable, ROLE_PAIR

log = logging.getLogger(__name__)

EVENT_HEADER = "event_id,role,channel,nx,ny,nz"
_EVENT_ROW = "%d,%s,%.9g,%.9g,%.9g\n"  # %s: "role,channel"
_BLOCK_ROWS = 65_536
# role and channel as object: a fixed-width "U<n>" field silently truncates
_EVENT_DTYPE = np.dtype(
    [("event_id", np.uint64), ("role", object), ("channel", object), ("n", float, 3)]
)
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


def _event_table(events) -> EventTable:
    """An EventTable as it is, or the table of an iterable of EventRecord."""
    if isinstance(events, EventTable):
        return events
    records = list(events)
    return EventTable.from_names(
        event_id=np.array([r.event_id for r in records], dtype=object),
        role=[r.role for r in records],
        channel=[r.channel for r in records],
        n=np.array([r.n for r in records], dtype=float).reshape(-1, 3),
    )


def _check_names(names, what: str) -> None:
    """Reject a role or channel that would split an event-file field or line."""
    for name in names:
        if "," in name or "\n" in name or "\r" in name:
            raise EventFileError(f"{what} name {name!r} contains a comma or line break")


class _Prefixes(dict):
    """"role,channel" text by key role_code * len(channels) + channel_code, made on first use."""

    def __init__(self, roles, channels):
        super().__init__()
        self.roles, self.channels = roles, channels

    def __missing__(self, key: int) -> str:
        role, channel = divmod(key, len(self.channels))
        text = self[key] = f"{self.roles[role]},{self.channels[channel]}"
        return text


def _event_chunks(events):
    """Check the names, then return an iterator over the event-file text.

    The header comes first, then blocks of _BLOCK_ROWS rows, so a writer
    need not hold the whole file as one string.
    """
    table = _event_table(events)
    _check_names(table.roles, "role")
    _check_names(table.channels, "channel")
    prefixes = _Prefixes(table.roles, table.channels)

    def blocks():
        yield EVENT_HEADER + "\n"
        for start in range(0, len(table), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            keys = table.role_code[rows].astype(np.int64) * len(table.channels) + table.channel_code[rows]
            yield "".join(map(_EVENT_ROW.__mod__, zip(
                table.event_id[rows].tolist(), map(prefixes.__getitem__, keys.tolist()),
                *table.n[rows].T.tolist(),
            )))

    return blocks()


def format_events(events) -> str:
    """Event-file text for an EventTable or an iterable of EventRecord."""
    return "".join(_event_chunks(events))


def write_events(path, events) -> None:
    """Write an EventTable or an iterable of EventRecord, block by block.

    `path` is a file path or an open text stream.  Names are checked before
    anything is written; a write to a path that fails part way removes the
    partial file.
    """
    chunks = _event_chunks(events)
    if hasattr(path, "write"):
        path.writelines(chunks)
        return
    path = Path(path)
    try:
        out = path.open("w", encoding="utf-8")
    except OSError as exc:
        raise EventFileError(f"cannot write event file {path}: {exc}") from None
    try:
        with out:
            out.writelines(chunks)
    except OSError as exc:
        with contextlib.suppress(OSError):
            path.unlink()
        raise EventFileError(f"cannot write event file {path}: {exc}") from None


def _parse_body(lines) -> np.ndarray:
    """Structured rows of event-file body lines (a text stream or a list of str).

    Empty lines are skipped.  Raises ValueError at any other line that does
    not hold six fields, a uint64 id, three floats and a unit direction.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
        rows = np.loadtxt(lines, dtype=_EVENT_DTYPE, delimiter=",", comments=None, ndmin=1)
    # written so that a NaN component fails
    if not (np.abs(np.linalg.norm(rows["n"], axis=1) - 1.0) <= 1e-9).all():
        raise ValueError("direction is not unit length")
    return rows


def _raise_first_bad_line(path, lines: list[str]) -> NoReturn:
    """Raise EventFileError at the first body line that _parse_body rejects.

    Bisection: lines[:lo] parse, and the first bad line lies in [lo, hi).
    Each probe parses only lines[lo:mid], so the search costs about two
    parses of the body.
    """
    lo, hi, last_good = 0, len(lines), None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            rows = _parse_body(lines[lo:mid])
        except ValueError:
            hi = mid
            continue
        lo = mid
        if rows.size:
            last_good = int(rows["event_id"][-1])
    reason = "malformed line"
    try:
        _parse_body(lines[lo:lo + 1])
    except ValueError as exc:
        fields = lines[lo].count(",") + 1
        reason = (f"expected 6 fields, got {fields}" if fields != 6
                  else re.sub(r" at row \d+, column (\d+)\.?$", r" in field \1", str(exc)))
    raise EventFileError(f"{path}:{lo + 2}: {reason} (last good event id: {last_good})")


def read_events(path) -> EventTable:
    """Read an event file back into a columnar table.

    The body is parsed in one pass.  Only when that fails is the file read
    again to find the first malformed or truncated line; the error names
    its line number and the last good event id.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as f:
            if f.readline().strip() != EVENT_HEADER:
                raise EventFileError(f"{path}:1: missing event header {EVENT_HEADER!r}")
            try:
                rows = _parse_body(f)
            except ValueError:
                f.seek(0)
                _raise_first_bad_line(path, f.readlines()[1:])
    except (OSError, UnicodeDecodeError) as exc:
        raise EventFileError(f"cannot read event file {path}: {exc}") from None
    return EventTable.from_names(
        event_id=np.ascontiguousarray(rows["event_id"]),
        role=rows["role"],
        channel=rows["channel"],
        n=np.ascontiguousarray(rows["n"]),
    )


def paired_directions(events: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """Matched (n1, n2) arrays, in event-id order, from a pair-event table.

    Requires every event id to appear exactly once per pair role; any other
    role mix is a data error.
    """
    counts = np.bincount(events.role_code, minlength=len(events.roles))
    found = {role for role, count in zip(events.roles, counts) if count}
    if found != set(ROLE_PAIR):
        raise EventFileError(
            f"expected pair events with roles {ROLE_PAIR}, found {sorted(found)}"
        )

    def rows_by_id(role: str) -> tuple[np.ndarray, np.ndarray]:
        rows = np.flatnonzero(events.role_code == events.roles.index(role))
        ids = events.event_id[rows]
        order = np.argsort(ids, kind="stable")
        return rows[order], ids[order]

    rows1, id1 = rows_by_id(ROLE_PAIR[0])
    rows2, id2 = rows_by_id(ROLE_PAIR[1])
    if not np.array_equal(id1, id2):
        raise EventFileError("pair roles do not cover the same event ids")
    repeated = np.flatnonzero(id1[1:] == id1[:-1])
    if repeated.size:
        raise EventFileError(f"event id {id1[repeated[0]]} appears more than once per pair role")
    # np.take gathers rows about twice as fast as fancy indexing
    return np.take(events.n, rows1, axis=0), np.take(events.n, rows2, axis=0)
