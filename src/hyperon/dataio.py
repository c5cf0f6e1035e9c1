"""Parameter-table ingestion and event-file persistence.

Both formats are comma-separated UTF-8 text.  The parameter file stores the
signed asymmetry alpha, the phase phi in units of pi and the sign of gamma
per channel (none of which are recoverable from published magnitude tables),
with `#` comment lines.  The event file is the header
``event_id,role,channel,nx,ny,nz`` and one record per line: a decimal uint64
id, a role and a channel free of commas and line breaks, and a unit
direction printed with 9 significant digits, so unit norms survive a round
trip to 1e-9.  It has no comment lines; empty lines are skipped.  Event
files are written and read in blocks of rows, each parsed in one vectorised
pass, and pair rows are matched as the blocks stream past, so neither
direction needs the whole file in memory."""

from __future__ import annotations

import contextlib
import logging
import re
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NoReturn

import numpy as np

from .decay import DecayChannel, DecayParameters, params_from_alpha_phi
from .mc import EventTable, ROLE_PAIR

log = logging.getLogger(__name__)

EVENT_HEADER = "event_id,role,channel,nx,ny,nz"
_EVENT_ROW = "%d,%s,%.9g,%.9g,%.9g\n"  # %s: "role,channel"
_BLOCK_ROWS = 65_536
# text per parsed block, about 37,000 pair rows; 2^22 bytes parsed no
# faster and took 12 MB more peak memory
_READ_BLOCK_BYTES = 1 << 21
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


def _row_blocks(table: EventTable) -> Iterator[str]:
    """Check the table's names, then return an iterator over its rows' text, _BLOCK_ROWS at a time."""
    _check_names(table.roles, "role")
    _check_names(table.channels, "channel")
    prefixes = _Prefixes(table.roles, table.channels)

    def blocks():
        for start in range(0, len(table), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            keys = table.role_code[rows].astype(np.int64) * len(table.channels) + table.channel_code[rows]
            yield "".join(map(_EVENT_ROW.__mod__, zip(
                table.event_id[rows].tolist(), map(prefixes.__getitem__, keys.tolist()),
                *table.n[rows].T.tolist(),
            )))

    return blocks()


def _event_chunks(tables: EventTable | Iterable[EventTable]) -> Iterator[str]:
    """Check the first table's names, then return an iterator over the event-file text.

    `tables` is one EventTable or an iterable of them, such as the chunks
    of `mc.iter_chunks`.  The header comes first, then each table's rows in
    blocks, so a writer need not hold the whole file, as text or as a
    table.  Each later table's names are checked when it arrives.
    """
    tables = iter((tables,) if isinstance(tables, EventTable) else tables)
    first = next(tables, None)
    head = _row_blocks(first) if first is not None else iter(())

    def chunks():
        yield EVENT_HEADER + "\n"
        yield from head
        for blocks in map(_row_blocks, tables):  # no name holds a written table
            yield from blocks

    return chunks()


def format_events(tables: EventTable | Iterable[EventTable]) -> str:
    """Event-file text of an EventTable or of an iterable of them."""
    return "".join(_event_chunks(tables))


def write_events(path, tables: EventTable | Iterable[EventTable]) -> None:
    """Write an EventTable, or an iterable of them, block by block.

    `path` is a file path or an open text stream.  The names of the first
    table are checked before anything is written; a write to a path that
    fails part way, for a bad name in a later table too, removes the
    partial file.
    """
    chunks = _event_chunks(tables)
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
    except BaseException as exc:
        with contextlib.suppress(OSError):
            path.unlink()
        if isinstance(exc, OSError):
            raise EventFileError(f"cannot write event file {path}: {exc}") from None
        raise


def _parse_body(lines: list[str]) -> np.ndarray:
    """Structured rows of event-file body lines.

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


def _raise_first_bad_line(path, lines: list[str], first_line: int, last_good: int | None) -> NoReturn:
    """Raise EventFileError at the first of `lines` that _parse_body rejects.

    `lines` start at file line `first_line`, and `last_good` is the last
    event id before them.  Bisection: lines[:lo] parse, and the first bad
    line lies in [lo, hi).  Each probe parses only lines[lo:mid], so the
    search costs about two parses of the block.
    """
    lo, hi = 0, len(lines)
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
    raise EventFileError(f"{path}:{first_line + lo}: {reason} (last good event id: {last_good})")


def iter_events(path) -> Iterator[EventTable]:
    """Read an event file as a stream of EventTables, one per block of lines.

    The header is checked first.  Each block holds whole lines, about
    _READ_BLOCK_BYTES of text, and is parsed in one vectorised pass; a
    block with no records yields nothing.  Only a block that fails is
    searched for its first malformed or truncated line; the error names
    that line's number in the file and the last good event id, which may
    lie in an earlier block.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as f:
            if f.readline().strip() != EVENT_HEADER:
                raise EventFileError(f"{path}:1: missing event header {EVENT_HEADER!r}")
            line_no, last_good = 2, None
            while lines := f.readlines(_READ_BLOCK_BYTES):
                try:
                    rows = _parse_body(lines)
                except ValueError:
                    _raise_first_bad_line(path, lines, line_no, last_good)
                line_no += len(lines)
                if rows.size:
                    last_good = int(rows["event_id"][-1])
                    yield EventTable.from_names(
                        event_id=np.ascontiguousarray(rows["event_id"]),
                        role=rows["role"],
                        channel=rows["channel"],
                        n=np.ascontiguousarray(rows["n"]),
                    )
    except (OSError, UnicodeDecodeError) as exc:
        raise EventFileError(f"cannot read event file {path}: {exc}") from None


def read_events(path) -> EventTable:
    """Read a whole event file into one table: the blocks of `iter_events`, concatenated."""
    return EventTable.concat(iter_events(path))


def _sorted_side(table: EventTable, role: str, carry) -> tuple[np.ndarray, np.ndarray]:
    """(ids, directions) of the carried rows and the table's rows of one role, sorted by id."""
    ids, n = carry
    if role in table.roles:
        rows = np.flatnonzero(table.role_code == table.roles.index(role))
        # np.take gathers rows about twice as fast as fancy indexing
        new_ids, new_n = table.event_id[rows], np.take(table.n, rows, axis=0)
        ids, n = ((np.concatenate([ids, new_ids]), np.concatenate([n, new_n])) if ids.size
                  else (new_ids, new_n))
    order = np.argsort(ids, kind="stable")
    return ids[order], np.take(n, order, axis=0)


def _match(id1: np.ndarray, id2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i1, i2) of matched entries of two sorted id arrays.

    The k-th entry of an id in `id1` matches the k-th entry of that id in
    `id2`, so every entry is matched when both hold the same ids the same
    number of times.
    """
    # the three searches cost 0.2 s and 24 MB on a 1M-pair table in id order
    if id1.size == id2.size and np.array_equal(id1, id2):
        return (np.arange(id1.size),) * 2
    lo = np.searchsorted(id2, id1, "left")
    rank = np.arange(id1.size) - np.searchsorted(id1, id1, "left")
    i1 = np.flatnonzero(rank < np.searchsorted(id2, id1, "right") - lo)
    return i1, lo[i1] + rank[i1]


def iter_pairs(tables: Iterable[EventTable]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Matched (n1, n2) direction arrays from a stream of pair-event tables.

    One pair of arrays is yielded per table, in event-id order.  A row
    whose partner has not arrived yet carries over to the next table, so
    a file that keeps partners together, as `simulate` writes them,
    carries a row or two; a shuffled file carries more.  The checks that
    need the whole stream run after its last table, in this order: the
    roles must be exactly the pair roles, both roles must cover the same
    event ids, and no id may appear more than once per role.
    """
    found: set[str] = set()
    carry = [(np.empty(0, np.uint64), np.empty((0, 3)))] * len(ROLE_PAIR)
    matched = []
    for table in tables:
        counts = np.bincount(table.role_code, minlength=len(table.roles))
        found.update(role for role, count in zip(table.roles, counts) if count)
        (id1, n1), (id2, n2) = (_sorted_side(table, role, c) for role, c in zip(ROLE_PAIR, carry))
        i1, i2 = _match(id1, id2)
        matched.append(id1[i1])
        yield np.take(n1, i1, axis=0), np.take(n2, i2, axis=0)
        carry = [(np.delete(id1, i1), np.delete(n1, i1, axis=0)),
                 (np.delete(id2, i2), np.delete(n2, i2, axis=0))]
    if found != set(ROLE_PAIR):
        raise EventFileError(
            f"expected pair events with roles {ROLE_PAIR}, found {sorted(found)}"
        )
    if any(ids.size for ids, _ in carry):
        raise EventFileError("pair roles do not cover the same event ids")
    ids = np.sort(np.concatenate(matched))
    repeated = np.flatnonzero(ids[1:] == ids[:-1])
    if repeated.size:
        raise EventFileError(f"event id {ids[repeated[0]]} appears more than once per pair role")


def paired_directions(events: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """Matched (n1, n2) arrays, in event-id order, from a pair-event table.

    `iter_pairs` run on one table: every event id must appear exactly once
    per pair role; any other role mix is a data error.
    """
    [(n1, n2)] = iter_pairs([events])
    return n1, n2
