"""Event-file persistence.

The event file is comma-separated UTF-8 text: the header
``event_id,role,channel,nx,ny,nz`` and one record per line, a decimal uint64
id, a role and a channel free of commas and control characters, and a unit
direction printed with 9 significant digits, so unit norms survive a round
trip to 1e-9.  It has no comment lines; empty lines are skipped.  Event
files are written in blocks of rows and read in slices of about 1 MB of
lines, formatted or parsed by vectorised passes over their bytes on the
sampling threads, and pair rows are matched as the slices stream past, so
neither direction needs the whole file in memory.  Both directions keep
the file as bytes, in binary mode; a slice is decoded only to check that
it is UTF-8, and its line breaks are read as text mode reads them."""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import EventFileError
from .mc import ROLE_PAIR, EventTable, _code_dtype, _ordered_map
# re-exported: tests/test_acceptance.py and perfbench/genmem.py import it from dataio
from .params import load_bundled_parameters

EVENT_HEADER = "event_id,role,channel,nx,ny,nz"
# rows `iter_pairs` may carry while they wait for their partner; 2^22 rows
# hold about 130 MB, and a file in id order carries a row or two
_MAX_CARRY_ROWS = 1 << 22
# role and channel as object: a fixed-width "U<n>" field silently truncates
_EVENT_DTYPE = np.dtype(
    [("event_id", np.uint64), ("role", object), ("channel", object), ("n", float, 3)]
)
# the bytes `_parse_rows` reads as separators: a name without them is one field, and holds no NUL padding
_SEPARATOR = re.compile("[,\x00-\x1f]")


def _check_names(names, what: str) -> None:
    """Reject a role or channel that holds a comma or a control character, or that UTF-8 cannot encode."""
    for name in names:
        if _SEPARATOR.search(name):
            raise EventFileError(f"{what} name {name!r} contains a comma or control character")
        try:
            name.encode()
        except UnicodeEncodeError as exc:
            raise EventFileError(f"{what} name {name!r} cannot be encoded as UTF-8: {exc.reason}") from None


# event-row formatting: each row is laid out in fixed-width uint32 words whose
# zero bytes are padding, then the nonzero bytes are joined in one pass
# rows per formatted block: whole 131,072-row chunks peaked 75 MB higher, and ran slower;
# 16,384-row blocks of 16,384-event chunks took 5x the page faults and 0.45 s more system time
_FORMAT_ROWS = 1 << 12


def _words(table: np.ndarray) -> np.ndarray:
    """Rows of at most four bytes, zero padded, as one uint32 word each."""
    return np.pad(table, ((0, 0), (0, 4 - table.shape[1]))).astype(np.uint8).view(np.uint32).ravel()


_DIGITS = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_NONZERO = _DIGITS != ord("0")
# word g: the three digits of g with trailing (leading) zeros dropped, for the
# last (first) nonzero group of a number; word 1000 + g: all three digits
_TRAILING = _words(np.concatenate([
    np.where(np.logical_or.accumulate(_NONZERO[:, ::-1], axis=1)[:, ::-1], _DIGITS, 0), _DIGITS]))
_LEADING = _words(np.concatenate([
    np.where(np.logical_or.accumulate(_NONZERO, axis=1), _DIGITS, 0), _DIGITS]))
# the first word of a component: comma, sign, integer digit and point, at 4 * negative + 2 * integer + point
_HEAD = _words(np.array([[ord(","), ord("-") * s, ord("0") + i, ord(".") * p]
                         for s in (0, 1) for i in (0, 1) for p in (0, 1)]))
_ZERO, _NEWLINE = _words(np.array([[ord("0")], [ord("\n")]]))
_POW10 = 10.0 ** np.arange(13)  # exact doubles 1 .. 1e12
_POW10_INT = 10 ** np.arange(13, dtype=np.int64)


def _groups(v: np.ndarray, count: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The value of v above its last `count` groups of three decimal digits, and those groups in order."""
    groups = []
    for _ in range(count):
        upper = v // 1000  # a remainder costs four times a constant division
        groups.append(v - upper * 1000)
        v = upper
    return v, groups[::-1]


def _format_unit(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``",%.9g" % v`` for each v of x into `out`, uint32 of shape x.shape + (5,).

    Values with |v| in [1e-4, 1] or v = +-0 are written by word arithmetic,
    as comma, sign, integer digit and point, then 12 decimals in four
    words, with zero bytes for a plus sign, trailing zeros and a bare
    point; %g prints these values, whose 9-digit exponents lie in -4..0,
    in this fixed notation.  Any other value, and one whose scaled double
    is itself a rounding tie, is formatted with `%` and padded with zero
    bytes: its text takes at most 17 of the 20 bytes.  Returns the mask of
    the values written by word arithmetic.
    """
    a = np.abs(x)
    fast = ((a >= 1e-4) & (a <= 1.0)) | (a == 0.0)  # NaN is not fast
    a = np.where(fast, a, 0.0)
    # k = 8 - floor(log10 a), exactly: each double power of ten here lies above
    # the real one, so a >= 1e-3 exactly when a >= 10**-3
    k = 12 - (a >= 1e-3) - (a >= 1e-2) - (a >= 1e-1) - (a >= 1.0)
    p = a * _POW10[k]
    # p is 0 or in [1e8, 1e9], where doubles are 2**-26 or more apart and each tie q + 1/2 is one;
    # the exact product lies within half a spacing of p, so rint(p) is its nearest integer unless
    # p is itself a tie, which the product may lie on either side of: those go to `%` below
    fast &= p - np.floor(p) != 0.5
    # q has 9 digits, or is 10**9 where rounding carries into the next decade;
    # q * 10**(12 - k) is then the same as 10**8 one decade up, so k needs no correction
    q = np.rint(p)
    # the value times 10**12: an integer digit, then four groups of three decimals
    integer, groups = _groups(q.astype(np.int64) * _POW10_INT[12 - k], 4)
    later = False  # a later decimal group is nonzero, so this group keeps its trailing zeros
    for word in range(4, 0, -1):
        group = groups[word - 1]
        out[..., word] = _TRAILING[group + 1000 * later]
        later = later | (group > 0)
    out[..., 0] = _HEAD[4 * np.signbit(x) + 2 * integer + later]
    text = b"".join((",%.9g" % v).encode().ljust(20, b"\0") for v in x[~fast].tolist())
    out[~fast] = np.frombuffer(text, np.uint32).reshape(-1, 5)
    return fast


def _format_ids(ids: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%d" % i`` for each uint64 i of ids into `out`, uint32 of shape (len(ids), words).

    Each word holds a group of three digits, found with exact integer
    arithmetic, so ids up to 2**64 - 1 fit 7 words; leading zeros are zero
    bytes.
    """
    seen = False  # an earlier group is nonzero, so this group keeps its leading zeros
    for word, group in enumerate(_groups(ids, out.shape[1])[1]):
        group = group.astype(np.intp)
        out[:, word] = _LEADING[group + 1000 * seen]
        seen = seen | (group > 0)
    out[~seen, -1] = _ZERO


def _format_block(table: EventTable, rows: slice) -> bytes:
    """The event-file bytes of `table[rows]`: ``"%d,%s,%s,%.9g,%.9g,%.9g\\n" % row`` in UTF-8 for each row.

    Each row is laid out in words: the id, the ",role,channel" bytes of
    the row's key (templates made for the keys present), the three
    components and a line break.  Zero bytes are padding, dropped when
    the words are joined; `_check_names` keeps NUL, which would read as
    padding, out of the names.
    """
    ids, n = table.event_id[rows].astype(np.uint64, copy=False), table.n[rows]
    count, channels = len(ids), len(table.channels)
    keys = table.role_code[rows].astype(np.intp) * channels + table.channel_code[rows]
    present, key_index = np.unique(keys, return_inverse=True)
    fields = [f",{table.roles[key // channels]},{table.channels[key % channels]}".encode()
              for key in present.tolist()]
    field_words = -(-max(map(len, fields)) // 4)
    templates = np.frombuffer(b"".join(field.ljust(4 * field_words, b"\0") for field in fields), np.uint32)
    id_words = max(1, -(-len(str(int(ids.max(initial=0)))) // 3))
    words = np.empty((count, id_words + field_words + 16), np.uint32)
    _format_ids(ids, words[:, :id_words])
    words[:, id_words:id_words + field_words] = templates.reshape(-1, field_words)[key_index]
    _format_unit(np.asarray(n, dtype=float), words[:, id_words + field_words:-1].reshape(count, 3, 5))
    words[:, -1] = _NEWLINE
    text = words.view(np.uint8)
    return text[text != 0].tobytes()


def _row_blocks(table: EventTable | list[bytes]) -> Iterator[bytes]:
    """Check the table's names, then return an iterator over its rows' bytes, _FORMAT_ROWS rows at a time.

    A chunk that `format_blocks` made is bytes already, its names checked.
    """
    if not isinstance(table, EventTable):
        return iter(table)
    _check_names(table.roles, "role")
    _check_names(table.channels, "channel")
    return (_format_block(table, slice(start, start + _FORMAT_ROWS))
            for start in range(0, len(table), _FORMAT_ROWS))


def format_blocks(table: EventTable) -> list[bytes]:
    """Check the table's names, then format its event-file rows as bytes, in blocks of _FORMAT_ROWS rows.

    The formatting is numpy that releases the GIL, so the sampling
    threads of `mc.iter_chunks(config, format_blocks)` format their own
    chunks in parallel; `write_events` writes such formatted chunks as it
    writes tables.
    """
    return list(_row_blocks(table))


def write_events(f, tables: EventTable | Iterable[EventTable | list[bytes]]) -> None:
    """Write an EventTable, or an iterable of them or of their `format_blocks` bytes, to the binary file f.

    `tables` may be the chunks of `mc.iter_chunks`.  The header comes
    first, then each table's rows in blocks, so the writer never holds the
    whole file, as bytes or as a table.  The first table's names are
    checked before anything is written, and each later table's when it
    arrives.
    """
    tables = iter((tables,) if isinstance(tables, EventTable) else tables)
    blocks = map(_row_blocks, tables)  # no name holds a written table
    first = next(blocks, iter(()))
    f.write(f"{EVENT_HEADER}\n".encode())
    f.writelines(first)
    for rows in blocks:
        f.writelines(rows)


_NOT_UNIT = "direction is not unit length"


def _is_unit(n: np.ndarray) -> np.ndarray:
    """Whether each row of n is a unit vector to 1e-9; written so that a NaN component fails.

    The squares add in np.linalg.norm's order, column by column, several times faster."""
    x, y, z = n[:, 0], n[:, 1], n[:, 2]
    return np.abs(np.sqrt((x * x + y * y) + z * z) - 1.0) <= 1e-9


def _parse_body(lines: list[str]) -> np.ndarray:
    """Structured rows of event-file body lines.

    Empty lines are skipped.  Raises ValueError at any other line that does
    not hold six fields, a uint64 id, three floats and a unit direction.
    """
    lines = [line for line in lines if line.rstrip("\n")]
    if not lines:  # np.loadtxt would warn, and warning filters are not thread-safe
        return np.empty(0, _EVENT_DTYPE)
    rows = np.loadtxt(lines, dtype=_EVENT_DTYPE, delimiter=",", comments=None, ndmin=1)
    if not _is_unit(rows["n"]).all():
        raise ValueError(_NOT_UNIT)
    return rows


def _line_error(line: str, exc: ValueError) -> str:
    """The reason for the error `exc` that _parse_body raised at one event-file line."""
    fields = line.count(",") + 1
    return (f"expected 6 fields, got {fields}" if fields != 6
            else re.sub(r" at row \d+, column (\d+)\.?$", r" in field \1", str(exc)))


# event-row parsing: the text of a file is parsed as bytes, in slices of
# whole lines.  Fields are read eight bytes at a time through an unaligned
# uint64 view (after D. Lemire, "Number parsing at a gigabyte per second",
# SP&E 51, 2021).  A component of the grammar -?D(.D{1,13})? is its integer
# mantissa m < 10**14 < 2**53 divided by the exact double 10**f, f <= 13: one
# correctly rounded division (W. D. Clinger, PLDI 1990), so it equals the
# correctly rounded parse of np.loadtxt.  Each line is judged on its own:
# a line outside this grammar, such as an exponent form (about 600 per 1M
# pairs), or one without exactly five commas, goes through _parse_body.
# bytes per parsed slice, the reader's one unit of work: `analyze witness` of a 1M-pair file on
# 2 threads took 0.98 s and peaked at 49 MB with 2^20, and 1.16 s and 42 MB with 2^19 (the str
# reader: 1.28 s and 50 MB with 2^19; np.loadtxt took 3.57 s and 67 MB)
_PARSE_SLICE_BYTES = 1 << 20
_READ_PAST = 1 << 12  # the read buffer's room past a slice, for the end of its last line
_MAX_KEYS = 16  # distinct "role,channel" keys matched per slice; rows of later keys go through _parse_body
_MAX_KEY_BYTES = 64
_PAD_BEFORE, _PAD_AFTER = 24, _MAX_KEY_BYTES  # bytes around a slice's text that word reads may touch
# _KEEP_LAST[k] keeps the last k of the 8 bytes in a little-endian word
_KEEP_LAST = np.array([(2**64 - 1) & ~((1 << 8 * (8 - k)) - 1) for k in range(9)], np.uint64)
# by the length of a component without its sign: its decimals f, 0 for "D", and 14 outside the grammar
_DECIMALS = np.array([14, 0, 14, *range(1, 14), 14, 14, 14, 14])
_POW10_U64 = 10 ** np.arange(15, dtype=np.uint64)
_SIGNED_POW10 = np.concatenate([10.0 ** np.arange(15), -10.0 ** np.arange(15)])  # exact up to 10**22


def _digits(words: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, ok) of the last `count` (0 to 8) bytes of each little-endian word read as decimal digits.

    `words` is overwritten and returned as the value; one more array of
    its size is made.  ok is whether those bytes are all digits: xor 0x30
    takes a digit byte to 0-9, where adding 0x76 sets no high bit, and
    any other byte to a value that has one or gets one.  The digits are
    then combined pairwise by multiplications (Lemire's SWAR step).
    """
    x, kept = words, _KEEP_LAST[count]
    x ^= np.uint64(0x3030303030303030)  # a digit's byte to its value
    x &= kept
    spare = np.add(x, np.uint64(0x7676767676767676), out=kept)
    spare |= x
    spare &= np.uint64(0x8080808080808080)
    ok = spare == 0
    np.right_shift(x, np.uint64(8), out=spare)
    x *= np.uint64(10)
    x += spare  # byte 2k + 1: the value of digits 2k and 2k + 1
    np.right_shift(x, np.uint64(16), out=spare)
    spare &= np.uint64(0x000000FF000000FF)
    spare *= np.uint64(1 + (10000 << 32))
    x &= np.uint64(0x000000FF000000FF)
    x *= np.uint64(100 + (1000000 << 32))
    x += spare
    x >>= np.uint64(32)
    return x, ok


def _parse_rows(data: bytes):
    """(ids, n, key codes, keys, slow rows, slow lines, full) of a padded slice of event-file lines.

    `data` holds whole lines, each ended by b"\n", between _PAD_BEFORE and
    _PAD_AFTER bytes of padding.  Each line is judged on its own.  An
    empty line is dropped; every other line is a row, and `full` marks
    the lines that are rows.  A row whose separators (its commas and bytes
    below 0x20) are not exactly five commas and its line break, or that
    lies outside the grammar this parser reads, is slow: its values hold
    junk and must come from _parse_body, and the slow lines are the text
    of these rows.  `keys` maps each (role, channel) found to its key
    code.  Each temporary is dropped at its last use, and the components
    are read one at a time, so the parse holds about two bytes per byte of
    `data` at its peak.
    """
    buf = np.frombuffer(data, np.uint8)
    words = np.ndarray((buf.size - 7,), np.uint64, data, 0, (1,))  # words[i]: the bytes buf[i:i + 8]
    # separators: xor 0x0C maps the comma to 0x20 and the bytes below 0x20 among themselves
    separators = np.bitwise_xor(buf[_PAD_BEFORE:-_PAD_AFTER], np.uint8(0x0C))
    separators = np.flatnonzero(np.less_equal(separators, np.uint8(0x20), out=separators.view(bool)))
    separators += _PAD_BEFORE
    kind = buf[separators]
    breaks = np.flatnonzero(kind == ord("\n"))  # each line's break, as an index into separators
    # read here: six separators, none of them a control byte but the line break
    parsed = np.diff(breaks, prepend=-1) == 6
    parsed[np.searchsorted(breaks, np.flatnonzero((kind != ord(",")) & (kind != ord("\n"))))] = False
    start = np.concatenate([[_PAD_BEFORE], separators[breaks[:-1]] + 1])  # where each line starts
    full = start < separators[breaks]  # not an empty line
    if not full.all():
        breaks, parsed, start = breaks[full], parsed[full], start[full]
    del kind
    # the ends of fields 0 and 2 to 5, the (5 - k)-th separator before the line break for field k;
    # a slow row's may lie in earlier lines
    id_end, *ends = (np.take(separators, breaks - back, mode="clip") for back in (5, 3, 2, 1, 0))
    del separators, breaks
    rows = start.size
    # id: 1 to 19 digits, so it fits a uint64
    length = id_end - start
    parsed &= (length >= 1) & (length <= 19)
    ids = np.zeros(rows, np.uint64)
    for word in range(-(-min(int(length.max(initial=0)), 19) // 8)):
        value, ok = _digits(words[id_end - 8 * word - 8], np.clip(length - 8 * word, 0, 8))
        value *= np.uint64(10 ** (8 * word))
        ids += value
        parsed &= ok
    del length
    # components: -?D(.D{1,13})?, the integer mantissa of its integer digit, its last 8 decimals and
    # the up to 5 before them, over an exact power of ten
    n = np.empty((rows, 3))
    for column, first, last in zip(range(3), ends, ends[1:]):
        first = first + 1
        negative = buf[first] == ord("-")
        first += negative
        decimals = np.take(_DECIMALS, last - first, mode="clip")
        digit = buf[first] - np.uint8(ord("0"))
        parsed &= digit < 10
        parsed &= decimals < 14
        first += 1
        parsed &= (decimals == 0) | (buf[first] == ord("."))
        del first
        mantissa, ok = _digits(words[last - 16], np.maximum(decimals - 8, 0))
        parsed &= ok
        low, ok = _digits(words[last - 8], np.minimum(decimals, 8))
        parsed &= ok
        mantissa *= np.uint64(10**8)
        mantissa += low
        del low
        mantissa += digit * _POW10_U64[decimals]
        decimals += 15 * negative
        np.divide(mantissa, _SIGNED_POW10[decimals], out=n[:, column])  # -0 for "-0"
    key_end, line_end = ends[0], ends[-1]
    del ends, negative, decimals, digit, mantissa, ok
    # keys "role,channel": each distinct key is compared word by word with every row
    key_start = id_end + 1
    del id_end
    key_length = key_end - key_start
    parsed &= key_length <= _MAX_KEY_BYTES
    code, keys = np.zeros(rows, np.intp), {}
    todo, found = parsed.copy(), {}  # found: key length -> its words in each row
    while len(keys) < _MAX_KEYS and todo.any():
        row = int(todo.argmax())
        size = int(key_length[row])
        if size not in found:  # words from the key's start, the last one ending at its end
            found[size] = [words[key_start + offset] for offset in [*range(0, size - 8, 8), size - 8]]
            found[size][-1] &= _KEEP_LAST[min(size, 8)]
        match = key_length == size
        for word in found[size]:
            match &= word == word[row]
        name = data[key_start[row]:key_end[row]].decode("utf-8")
        code[match] = keys.setdefault(tuple(name.split(",", 1)), len(keys))
        todo &= ~match
    slow = np.flatnonzero(todo | ~parsed).tolist()
    slow_lines = [data[start[i]:line_end[i]].decode("utf-8") for i in slow]
    return ids, n, code, keys, slow, slow_lines, full


def _parse_slice(data: bytes) -> tuple[EventTable | tuple[int, str, int | None], int]:
    """(table, line count) of a slice that `_slices` cut, or (bad line, line count) at a line it rejects.

    A slice that is not ASCII is decoded once, to raise UnicodeDecodeError
    if it is not UTF-8; a slice that holds b"\r" reads its line breaks
    as text mode's universal newlines do.  The table is the one
    `EventTable.from_names` makes of `_parse_body`'s rows: the same
    values, names in order of first appearance and code dtypes.  The rows
    _parse_rows leaves go through one _parse_body call and are spliced in
    by row index; only if that call fails are they parsed one at a time,
    up to the first bad one.  The bad line is the first line that
    _parse_body rejects, or whose row of _parse_rows is not a unit
    vector: (its index in the slice, empty lines counted, the reason, the
    id of the row before it or None).
    """
    if not data.isascii():
        str(memoryview(data)[_PAD_BEFORE:], "utf-8")  # positions in an error count from the slice's start
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    ids, n, code, keys, slow, slow_lines, full = _parse_rows(data)
    rows = bad = len(ids)  # bad: the first bad row, or rows
    reason = None
    if slow_lines:
        try:
            rest = _parse_body(slow_lines)
        except ValueError:
            good = [np.empty(0, _EVENT_DTYPE)]
            for row, line in zip(slow, slow_lines):
                try:
                    good.append(_parse_body([line]))
                except ValueError as exc:
                    bad, reason = row, _line_error(line, exc)
                    break
            rest = np.concatenate(good)
            slow = slow[:rest.size]
        ids[slow], n[slow] = rest["event_id"], rest["n"]
        code[slow] = [keys.setdefault(key, len(keys))
                      for key in zip(rest["role"].tolist(), rest["channel"].tolist())]
    unit = _is_unit(n[:bad])
    if not unit.all():
        bad, reason = int(unit.argmin()), _NOT_UNIT
    if reason is not None:
        return (int(np.flatnonzero(full)[bad]), reason, int(ids[bad - 1]) if bad else None), full.size
    # names in order of first appearance
    first = np.full(len(keys), rows)
    np.minimum.at(first, code, np.arange(rows))
    names = list(keys)
    ordered = [names[k] for k in np.argsort(first).tolist()]
    roles = tuple(dict.fromkeys(role for role, _ in ordered))
    channels = tuple(dict.fromkeys(channel for _, channel in ordered))
    role_of = np.array([roles.index(role) for role, _ in names], _code_dtype(len(roles)))
    channel_of = np.array([channels.index(channel) for _, channel in names], _code_dtype(len(channels)))
    return EventTable(ids, role_of[code], channel_of[code], n, roles, channels), full.size


def _line_end(data: bytearray, start: int, end: int) -> int:
    """Where the first line break in data[start:end] ends: after b"\n", b"\r\n" or a lone b"\r".

    0 if there is none, or if it is a b"\r" that ends data[:end], which
    may be the first half of a b"\r\n".
    """
    newline = data.find(b"\n", start, end)
    cr = data.find(b"\r", start, end if newline < 0 else newline)
    if cr < 0:
        return newline + 1
    if cr + 1 == end:
        return 0
    return cr + 2 if data[cr + 1] == ord("\n") else cr + 1


def _padded(lines) -> bytes:
    """Whole lines as _parse_rows reads them: padding around them, and a line break after the last."""
    end = b"" if lines[-1:] in (b"\n", b"\r") else b"\n"
    return b"".join((b"0" * _PAD_BEFORE, lines, end, b"0" * _PAD_AFTER))


def _slices(f) -> Iterator[tuple[int, bytes]]:
    """The first line of binary file `f`, then its other lines in slices, each `_padded`, with its file offset.

    Each item is (offset of the slice's first byte, padded slice).  Each
    slice ends at the first line break at or after its byte
    _PARSE_SLICE_BYTES, or at the end of the file, and never inside a
    b"\r\n", so a file whose lines end in a lone b"\r" is cut as finely.
    The file is read into one buffer, reused for every slice: a slice's
    bytes are copied once, and the buffer grows only for a line longer
    than itself.
    """
    buf, held, size = bytearray(_PARSE_SLICE_BYTES + _READ_PAST), 0, 0  # the first line is cut at its break
    offset = 0  # of buf[0] in the file
    while True:
        if held == len(buf):
            buf += bytes(len(buf))
        with memoryview(buf) as view:
            if not (read := f.readinto(view[held:])):
                break
            held += read
            start = 0
            while cut := _line_end(buf, start + size, held):
                yield offset + start, _padded(view[start:cut])
                start, size = cut, _PARSE_SLICE_BYTES
            if start:
                offset, held = offset + start, held - start
                view[:held] = view[start:start + held]
    if held:
        yield offset, _padded(buf[:held])


def _decode_error_text(exc: UnicodeDecodeError, offset: int) -> str:
    """str(exc), its positions counted from `offset` bytes before the start of exc.object."""
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end == start + 1
             else f"bytes in position {start}-{end - 1}")
    return f"{exc.encoding!r} codec can't decode {where}: {exc.reason}"


def iter_events(path, workers: int | None = None) -> Iterator[EventTable]:
    """Read an event file as a stream of EventTables, one per slice of lines.

    The file is read as bytes, and each slice is parsed from its bytes.
    The header is checked first.  The lines are parsed in slices of about
    _PARSE_SLICE_BYTES bytes by _parse_slice on up to `workers` threads,
    which `_ordered_map` sizes (all CPUs when unset or 0) for a file, a pipe
    or a FIFO alike: the tables come in file order, the same for any count.  Line breaks
    are b"\n", b"\r\n" or a lone b"\r", as in text mode.  A slice with no
    records yields nothing.  A slice that fails names its first malformed
    or truncated line, and the error gives that line's number in the file
    and the last good event id, which may lie in an earlier slice.  A byte
    that is not UTF-8 is named by its offset in the file.
    """
    path = Path(path)

    def parse(item: tuple[int, bytes]) -> tuple[EventTable | tuple[int, str, int | None], int]:
        offset, data = item
        try:
            return _parse_slice(data)
        except UnicodeDecodeError as exc:
            raise EventFileError(f"cannot read event file {path}: {_decode_error_text(exc, offset)}") from None

    try:
        with path.open("rb") as f:
            slices = _slices(f)
            _, header = next(slices, (0, b""))
            if str(header[_PAD_BEFORE:-_PAD_AFTER], "utf-8").strip() != EVENT_HEADER:
                raise EventFileError(f"{path}:1: missing event header {EVENT_HEADER!r}")
            line_no, last_good = 2, None
            for table, lines in _ordered_map(parse, slices, workers):
                if isinstance(table, tuple):
                    bad, reason, before = table
                    raise EventFileError(f"{path}:{line_no + bad}: {reason} (last good event id: "
                                         f"{last_good if before is None else before})")
                line_no += lines
                if len(table):
                    last_good = int(table.event_id[-1])
                    yield table
    except (OSError, UnicodeDecodeError) as exc:  # a header that is not UTF-8: its positions are the file's
        raise EventFileError(f"cannot read event file {path}: {exc}") from None


def read_events(path) -> EventTable:
    """Read a whole event file into one table: the tables of `iter_events`, concatenated."""
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
    if np.all(ids[:-1] <= ids[1:]):  # ascending, as `simulate` writes: the stable sort is the identity
        return ids, n
    order = np.argsort(ids, kind="stable")
    return ids[order], np.take(n, order, axis=0)


def _match(id1: np.ndarray, id2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i1, i2) of matched entries of two sorted id arrays.

    The k-th entry of an id in `id1` matches the k-th entry of that id in
    `id2`, so every entry is matched when both hold the same ids the same
    number of times.
    """
    lo = np.searchsorted(id2, id1, "left")
    rank = np.arange(id1.size) - np.searchsorted(id1, id1, "left")
    i1 = np.flatnonzero(rank < np.searchsorted(id2, id1, "right") - lo)
    return i1, lo[i1] + rank[i1]


def iter_pairs(tables: Iterable[EventTable]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Matched (n1, n2) direction arrays from a stream of pair-event tables.

    One pair of arrays is yielded per table, in event-id order: the
    arrays are cut where the tables are, one per parse slice of
    `iter_events`, and `PairMoments.from_blocks` regroups them.  A row
    whose partner has not arrived yet carries over to the next table, so
    a file that keeps partners together, as `simulate` writes them,
    carries a row or two; a shuffled file carries more, and a table that
    arrives while more than `_MAX_CARRY_ROWS` rows wait is a data error:
    the file is not in event-id order.  The checks that
    need the whole stream run after its last table, in this order: the
    roles must be exactly the pair roles, both roles must cover the same
    event ids, and no id may appear more than once per role.
    """
    found: set[str] = set()
    carry = [(np.empty(0, np.uint64), np.empty((0, 3)))] * len(ROLE_PAIR)
    firsts, lasts = [], []  # the first and last ids of the runs of consecutive matched ids
    for table in tables:
        if sum(ids.size for ids, _ in carry) > _MAX_CARRY_ROWS:
            first = min(ids[0] for ids, _ in carry if ids.size)
            raise EventFileError(
                f"first unpaired event id {first}: more than {_MAX_CARRY_ROWS} rows wait for "
                "their partner, so the file is not in event-id order"
            )
        counts = np.bincount(table.role_code, minlength=len(table.roles))
        found.update(role for role, count in zip(table.roles, counts) if count)
        (id1, n1), (id2, n2) = (_sorted_side(table, role, c) for role, c in zip(ROLE_PAIR, carry))
        # both sides in the same id order, as in a file that `simulate` wrote, where a slice may end
        # between an event's two rows: the common prefix pairs in place and the longer side's tail
        # waits; the three searches of _match would cost 0.2 s and 24 MB on a 1M-pair table
        common = min(id1.size, id2.size)
        if np.array_equal(id1[:common], id2[:common]):
            ids, matched = id1[:common], (n1[:common], n2[:common])
            carry = [(id1[common:], n1[common:]), (id2[common:], n2[common:])]
        else:
            i1, i2 = _match(id1, id2)
            ids, matched = id1[i1], (np.take(n1, i1, axis=0), np.take(n2, i2, axis=0))
            carry = [(np.delete(id1, i1), np.delete(n1, i1, axis=0)),
                     (np.delete(id2, i2), np.delete(n2, i2, axis=0))]
        if ids.size:  # sorted
            cut = np.flatnonzero(np.diff(ids) != 1) + 1
            firsts.append(ids[np.r_[0, cut]])
            lasts.append(ids[np.r_[cut - 1, ids.size - 1]])
        yield matched
    if found != set(ROLE_PAIR):
        raise EventFileError(
            f"expected pair events with roles {ROLE_PAIR}, found {sorted(found)}"
        )
    if any(ids.size for ids, _ in carry):
        raise EventFileError("pair roles do not cover the same event ids")
    # an id is repeated where a run starts at or below the last id of a run before it, in order of
    # first id; the first such run starts at the smallest repeated id
    if firsts:
        first, last = np.concatenate(firsts), np.concatenate(lasts)
        order = np.argsort(first, kind="stable")
        first, last = first[order], last[order]
        repeated = np.flatnonzero(first[1:] <= np.maximum.accumulate(last)[:-1])
        if repeated.size:
            raise EventFileError(f"event id {first[repeated[0] + 1]} appears more than once per pair role")


def paired_directions(events: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """Matched (n1, n2) arrays, in event-id order, from a pair-event table.

    `iter_pairs` run on one table: every event id must appear exactly once
    per pair role; any other role mix is a data error.
    """
    [(n1, n2)] = iter_pairs([events])
    return n1, n2
