"""Streamed event files: reading in slices, pairing, estimating and writing in small blocks.

Each test shrinks the parse slice to a few hundred bytes, or the
sampling chunk to a few events, so that slice and chunk boundaries fall
inside a handful of rows and every carry path runs.  The reader's tables
are its slices, and the reports must not depend on where those fall: the
pair moments merge in fixed groups of pairs.
"""

import hashlib
import itertools
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hyperon import dataio, mc
from hyperon.cli import main
from hyperon.dataio import iter_events, iter_pairs, paired_directions, read_events
from hyperon.errors import EventFileError
from hyperon.mc import EventTable, PairCorrelationModel, SampleConfig, generate, iter_chunks
from hyperon.pairs import PairMoments, correlation_estimate, witness_estimate
from test_dataio import event_text, loadtxt_events, write_file

HEADER = "event_id,role,channel,nx,ny,nz"
ROW = "{},pair-{},x,0,0,1\n"  # 17 bytes for a one-digit id


@pytest.fixture()
def small_blocks(monkeypatch):
    """Set the parse slice to `size` bytes."""
    def set_size(size: int) -> None:
        monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", size)
    return set_size


def pair_file(tmp_path, table: EventTable, name="events.csv"):
    path = tmp_path / name
    path.write_text(event_text(table))
    return path


def rows_of(table: EventTable, rows) -> EventTable:
    return EventTable(table.event_id[rows], table.role_code[rows], table.channel_code[rows],
                      table.n[rows], table.roles, table.channels)


def shuffled(table: EventTable, seed=0) -> EventTable:
    return rows_of(table, np.random.default_rng(seed).permutation(len(table)))


def streamed_moments(path) -> PairMoments:
    return PairMoments.from_blocks(iter_pairs(iter_events(path)))


class TestReadBlocks:
    def test_blocks_hold_whole_lines(self, tmp_path, small_blocks):
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n" + "".join(ROW.format(i, 1 + j) for i in range(6) for j in range(2)))
        small_blocks(3 * 17 - 1)  # a slice ends at the line that takes it past the size
        assert [len(t) for t in iter_events(path)] == [3, 3, 3, 3]

    def test_read_events_is_concatenated_blocks(self, tmp_path, small_blocks):
        # interleaved roles and channels that first appear in later slices
        roles = [("pair-1", "single", "pair-2")[i % 3] for i in range(300)]
        channels = [f"ch-{(7 * i) % 50}" for i in range(300)]
        table = EventTable.from_names(np.arange(300, dtype=np.uint64), roles, channels,
                                      np.tile([0.0, 0.6, 0.8], (300, 1)))
        path = pair_file(tmp_path, table)
        small_blocks(500)
        blocks = list(iter_events(path))
        assert len(blocks) > 10
        whole = read_events(path)
        joined = EventTable.concat(blocks)
        for got in (whole, joined):
            assert got.roles == table.roles and got.channels == table.channels
            assert np.array_equal(got.event_id, table.event_id)
            assert np.array_equal(got.role_code, table.role_code)
            assert np.array_equal(got.channel_code, table.channel_code)
            assert np.array_equal(got.n, table.n)
        assert event_text(whole) == event_text(blocks) == path.read_text()

    def test_bad_line_in_third_block(self, tmp_path, small_blocks):
        lines = [ROW.format(i, 1) for i in range(9)]
        lines[6] = "6,pair-1,x,0,0,2\n"  # the first line of the third slice
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n" + "".join(lines))
        small_blocks(3 * 17 - 1)
        blocks = []
        with pytest.raises(EventFileError) as err:
            for table in iter_events(path):
                blocks.append(table)
        assert len(blocks) == 2  # the first two slices were read before the error
        # the line number counts from the top of the file, the last good id is in slice 2
        assert str(err.value) == f"{path}:8: direction is not unit length (last good event id: 5)"

    def test_bad_line_inside_a_later_block(self, tmp_path, small_blocks):
        lines = [ROW.format(i, 1) for i in range(9)]
        lines[7] = "7,pair-1,x,0,0\n"
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n" + "".join(lines))
        small_blocks(3 * 17 - 1)
        with pytest.raises(EventFileError) as err:
            read_events(path)
        assert str(err.value) == f"{path}:9: expected 6 fields, got 5 (last good event id: 6)"

    def test_undecodable_byte_in_later_block(self, tmp_path, small_blocks, capsys):
        table = generate(SampleConfig(seed=3, events=2000, model=PairCorrelationModel(k=0.46)))
        path = tmp_path / "events.csv"
        text = event_text(table).encode()
        small_blocks(300)
        # line starts in a middle slice and in the last one; an error's position is the
        # byte's offset in the file, not in its slice
        middle, last = (text.index(b"\n", at) + 1 for at in (len(text) // 2, len(text) - 200))
        for cut, bad in itertools.product((middle, last), (b"\xff", b"\xe2\x82")):
            where = (f"byte 0xff in position {cut}: invalid start byte" if bad == b"\xff"
                     else f"bytes in position {cut}-{cut + 1}: invalid continuation byte")
            path.write_bytes(text[:cut] + bad + text[cut:])
            want = f"cannot read event file {path}: 'utf-8' codec can't decode {where}"
            for workers in (1, 2):
                blocks = []
                with pytest.raises(EventFileError) as exc:
                    for block in iter_events(path, workers):
                        blocks.append(block)
                assert blocks and str(exc.value) == want
                assert main(["--threads", str(workers), "analyze", "witness", "--events", str(path)]) == 2
                assert capsys.readouterr().err == f"data error: {want}\n"

    def test_blank_block_yields_nothing(self, tmp_path, small_blocks):
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n" + ROW.format(0, 1) + "\n" * 40 + ROW.format(0, 2))
        small_blocks(10)
        assert [len(t) for t in iter_events(path)] == [1, 1]
        assert read_events(path).event_id.tolist() == [0, 0]

    @pytest.mark.parametrize("slice_bytes, read_past", [(1, 1), (40, 3), (700, 5), (1 << 19, 1 << 12)])
    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_line_breaks_read_as_newlines(self, tmp_path, monkeypatch, slice_bytes, read_past, newline):
        # every line break of the file, the header's too, as a lone \r or as \r\n: the tables of its
        # \n copy, wherever a slice or a read ends, even between the two bytes of a \r\n
        text = HEADER + "\n" + "".join(mixed_lines(120, 7)).replace("\r\n", "\n")
        path, other = tmp_path / "n.csv", tmp_path / "other.csv"
        path.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", newline).encode())
        monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", slice_bytes)
        monkeypatch.setattr(dataio, "_READ_PAST", read_past)
        want = drain(iter_events(path, 1))
        assert want[1] is None and (len(want[0]) > 5 if slice_bytes < 1000 else len(want[0]) == 1)
        # a lone \r keeps every byte offset, so the slices too; \r\n moves them
        assert drain(iter_events(other, 1) if newline == "\r" else [read_events(other)]) == \
            (want if newline == "\r" else drain([read_events(path)]))
        # and the same error at the same line number
        bad = text.replace("\n3,", "\n3;", 1)
        path.write_bytes(bad.encode())
        other.write_bytes(bad.replace("\n", newline).encode())
        assert drain(iter_events(other, 2))[1] == drain(iter_events(path, 2))[1].replace("n.csv", "other.csv")

    def test_slice_working_set(self, tmp_path, small_blocks):
        # one 2**19-byte slice of a pair file, parsed on a fresh thread: its temporaries peak at a
        # little over two bytes per byte of the slice, the table it returns included
        path = tmp_path / "events.csv"
        write_file(path, generate(SampleConfig(seed=13, events=10_000, model=PairCorrelationModel(k=0.46))))
        small_blocks(1 << 19)
        with path.open("rb") as f:
            slices = dataio._slices(f)
            next(slices)  # the header
            _, data = next(slices)
        assert 1 << 19 < len(data) < (1 << 19) + 200
        peak = []

        def parse():
            tracemalloc.start()
            try:
                table, _ = dataio._parse_slice(data)
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(table) > 8000

        thread = threading.Thread(target=parse)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and peak[0] <= 3.2 * len(data)


def drain(tables) -> tuple[list[tuple], str | None]:
    """The tables of a stream as comparable tuples (with the direction bits), and its error text."""
    got = []
    try:
        for t in tables:
            got.append((t.event_id.dtype, t.event_id.tolist(), t.roles, t.channels, t.role_code.dtype,
                        t.role_code.tolist(), t.channel_code.dtype, t.channel_code.tolist(),
                        t.n.view(np.uint64).tolist()))
    except EventFileError as exc:
        return got, str(exc)
    return got, None


def mixed_lines(count: int, seed: int) -> list[str]:
    """Event-file lines of every kind the readers take: rows of the byte parser's grammar, and
    exponent forms, blank lines, \r\n endings, names that first appear late and long names."""
    rng = np.random.default_rng(seed)
    n = rng.normal(size=(count, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    n[rng.random(count) < 0.1, 0] = 3e-6  # printed as 3e-06; the row is still a unit vector to 1e-9
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    lines = []
    for i, (x, y, z) in enumerate(n.tolist()):
        role = ("pair-1", "pair-2", "single")[i % 3 if i > count // 2 else i % 2]
        channel = "ch" if rng.random() < 0.8 else ("late ch", "Λ→pπ⁻", "c" * 80)[i % 3]
        end = rng.choice(["\n", "\r\n", "\n\n"])
        lines.append(f"{i // 2},{role},{channel},{x:.9g},{y:.9g},{z:.9g}{end}")
    return lines


class TestByteReader:
    """iter_events against the np.loadtxt reader it replaced: for every slice size and worker
    count, the same rows and names, and the same error, wherever either reader cuts the file."""

    # block_bytes: the reference's `readlines` partition, which must not matter either
    @pytest.mark.parametrize("block_bytes", [10, 300, 500])
    @pytest.mark.parametrize("slice_bytes", [1, 120, 700, 1 << 18])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_like_readlines(self, tmp_path, monkeypatch, block_bytes, slice_bytes, workers):
        path = tmp_path / "events.csv"
        path.write_bytes((HEADER + "\n" + "".join(mixed_lines(200, block_bytes))).encode())
        monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", slice_bytes)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        tables = list(iter_events(path, workers))
        want = drain([EventTable.concat(loadtxt_events(path, block_bytes))])
        assert drain([EventTable.concat(tables)]) == drain([read_events(path)]) == want
        assert len(tables) > 10 if slice_bytes < 1000 else len(tables) == 1  # one table per slice

    @pytest.mark.parametrize("bad_line", [0, 1, 57, 58, 120, 199])
    @pytest.mark.parametrize("slice_bytes", [1, 120, 700, 1 << 18])
    def test_error_like_readlines(self, tmp_path, monkeypatch, bad_line, slice_bytes):
        # the same error text, line number and last good id wherever the bad line falls in a slice
        lines = mixed_lines(200, 4)
        lines[bad_line] = lines[bad_line].replace(",", ";", 1)
        path = tmp_path / "events.csv"
        path.write_bytes((HEADER + "\n" + "".join(lines)).encode())
        monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", slice_bytes)
        line_no = 2 + "".join(lines[:bad_line]).count("\n")  # \r\n reads as one line break
        last_good = (bad_line - 1) // 2 if bad_line else None
        assert drain(iter_events(path, 2))[1] == drain(loadtxt_events(path, 700))[1] == \
            f"{path}:{line_no}: expected 6 fields, got 5 (last good event id: {last_good})"

    # a row of the byte parser's grammar that is not a unit vector; a short line, which goes through
    # _parse_body; and a good line that does too, whose id and direction the byte parser misreads
    NOT_UNIT, SHORT = "{},pair-1,x,0.6,0.6,0.6\n", "{},pair-1,x,1e0,0\n"
    SLOW_GOOD = "+{},pair-1,x,0.6,0,8e-1\n"

    def first_error(self, tmp_path, monkeypatch, lines, slice_bytes, workers) -> str:
        """The error of a file of `lines` from iter_events, the same as the np.loadtxt reader's."""
        path = tmp_path / "events.csv"
        path.write_bytes((HEADER + "\n" + "".join(lines)).encode())
        monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", slice_bytes)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        got = drain(iter_events(path, workers))[1]
        assert got == drain(loadtxt_events(path, 1 << 18))[1]
        return got.removeprefix(f"{path}:")

    @pytest.mark.parametrize("slice_bytes", [1, 120, 1 << 12, 1 << 20])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("first", ["not unit", "short"])
    def test_earlier_of_fast_and_slow_bad_lines(self, tmp_path, monkeypatch, slice_bytes, workers, first):
        # a row that only the unit check rejects and a line that _parse_body rejects, in one slice
        # unless the slices are small: the earlier one is named, whichever parser judged it
        lines = [ROW.format(i, 1) for i in range(40)]
        earlier, later = (self.NOT_UNIT, self.SHORT) if first == "not unit" else (self.SHORT, self.NOT_UNIT)
        lines[10], lines[25] = earlier.format(10), later.format(25)
        reason = "direction is not unit length" if first == "not unit" else "expected 6 fields, got 5"
        assert self.first_error(tmp_path, monkeypatch, lines, slice_bytes, workers) == \
            f"12: {reason} (last good event id: 9)"

    @pytest.mark.parametrize("slice_bytes", [1, 120, 1 << 12, 1 << 20])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_last_good_id_from_a_slow_row(self, tmp_path, monkeypatch, slice_bytes, workers):
        # the slow lines fail as a batch; the good ones before the bad one are spliced in, so the
        # last good id is the slow row's, as _parse_body read it
        lines = [ROW.format(i, 1) for i in range(40)]
        lines[5] = self.SLOW_GOOD.format(5)
        lines[20] = self.SLOW_GOOD.format(2**64 - 1)
        lines[21] = self.SHORT.format(21)
        lines[30] = self.SHORT.format(30)
        assert self.first_error(tmp_path, monkeypatch, lines, slice_bytes, workers) == \
            f"23: expected 6 fields, got 5 (last good event id: {2**64 - 1})"

    @pytest.mark.parametrize("slice_bytes", [1, 120, 1 << 12, 1 << 20])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad", [NOT_UNIT, SHORT])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_empty_lines_before_bad_line(self, tmp_path, monkeypatch, slice_bytes, workers, bad, newline):
        # empty lines count toward the line number, at the file's start and just before the bad line
        lines = [ROW.format(i, 1) for i in range(40)]
        lines[0] = "\n\n" + lines[0]
        lines[15] = "\n\n\n" + bad.format(15)
        lines = [line.replace("\n", newline) for line in lines]
        reason = "direction is not unit length" if bad == self.NOT_UNIT else "expected 6 fields, got 5"
        assert self.first_error(tmp_path, monkeypatch, lines, slice_bytes, workers) == \
            f"22: {reason} (last good event id: 14)"

    def test_more_threads_than_cores_keep_order(self, tmp_path, monkeypatch):
        # eight parsing threads on small slices, switching often: the tables of one thread
        path = tmp_path / "events.csv"
        path.write_bytes((HEADER + "\n" + "".join(mixed_lines(600, 5))).encode())
        monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", 300)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        serial = drain(iter_events(path, 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = drain(iter_events(path, 8))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial and serial[1] is None and len(serial[0]) > 10

    def test_fifo_parses_off_the_calling_thread(self, tmp_path, monkeypatch):
        # a FIFO has no size to guess a slice count from: its slices go to the pool as a file's do
        path = tmp_path / "events.csv"
        path.write_bytes((HEADER + "\n" + "".join(mixed_lines(200, 6))).encode())
        fifo = tmp_path / "events.fifo"
        os.mkfifo(fifo)
        monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", 300)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        parse, threads = dataio._parse_slice, set()

        def recording(data):
            threads.add(threading.get_ident())
            return parse(data)

        monkeypatch.setattr(dataio, "_parse_slice", recording)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        got = drain(iter_events(fifo))
        writer.join(timeout=60)
        assert not writer.is_alive() and threads and threading.get_ident() not in threads
        assert got == drain(iter_events(path)) and got[1] is None and len(got[0]) > 10

    def test_threads_give_the_same_reports(self, tmp_path, monkeypatch, capsys):
        # and any slice size: the moments merge in groups of pairs, not of slices
        table = generate(SampleConfig(seed=11, events=3000, model=PairCorrelationModel(k=0.46)))
        path = pair_file(tmp_path, table)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        reports = set()
        for slice_bytes in (3_000, 1 << 19):
            monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", slice_bytes)
            for threads in ("1", "2"):
                for what in (["witness"], ["correlations", "--format", "json"]):
                    assert main(["--threads", threads, "analyze", *what, "--events", str(path)]) == 0
                    reports.add((what[0], capsys.readouterr().out))
        assert len(reports) == 2

    # replacements of a field or a comma: separators, control bytes, forms outside the byte parser's
    # grammar, 20-digit ids below and at 2**64, 25 digits, a key past its word compare, a non-ASCII name
    MUTATIONS = ["", ",", ",,", "\t", "\x00", "\n", "1e5", "nan", "+1", "00.6", "0.12345678901234",
                 "18446744073709551615", "18446744073709551616", "1234567890123456789012345", "k" * 70, "Λ"]

    def test_mutated_files_like_loadtxt(self, tmp_path, monkeypatch):
        # each file read at three slice sizes: the reference's table bit for bit, or its error text
        rng = np.random.default_rng(16)
        path = tmp_path / "events.csv"
        for _ in range(200):
            lines = mixed_lines(12, int(rng.integers(1 << 30)))
            for _ in range(rng.integers(1, 4)):
                row = int(rng.integers(len(lines)))
                body = lines[row].rstrip("\r\n")
                parts = re.split("(,)", body)  # fields and commas in turn
                parts[rng.integers(len(parts))] = self.MUTATIONS[rng.integers(len(self.MUTATIONS))]
                lines[row] = "".join(parts) + lines[row][len(body):]
            path.write_bytes((HEADER + "\n" + "".join(lines)).encode())
            want = concat_or_error(loadtxt_events(path, 1 << 18))
            for slice_bytes in (1, 120, 1 << 18):
                monkeypatch.setattr(dataio, "_PARSE_SLICE_BYTES", slice_bytes)
                assert concat_or_error(iter_events(path, 1)) == want, "".join(lines)


def concat_or_error(tables) -> tuple[list[tuple] | None, str | None]:
    """The concatenated tables of a stream as `drain` gives them, or None and the error text."""
    try:
        return drain([EventTable.concat(tables)])
    except EventFileError as exc:
        return None, str(exc)


class TestPairing:
    def test_pair_split_across_block_boundary(self, tmp_path, small_blocks):
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n" + "".join(ROW.format(i, 1 + j) for i in range(6) for j in range(2)))
        small_blocks(3 * 17 - 1)
        # blocks hold rows 0-2, 3-5, 6-8, 9-11: events 1 and 4 straddle a boundary
        assert [len(n1) for n1, _ in iter_pairs(iter_events(path))] == [1, 2, 1, 2]

    def test_shuffled_file_carries_across_many_blocks(self, tmp_path, small_blocks):
        table = generate(SampleConfig(seed=4, events=400, model=PairCorrelationModel(k=0.46)))
        path = pair_file(tmp_path, shuffled(table))
        # each generated pair, read back whole before the slices shrink
        want = {tuple(np.r_[a, b]) for a, b in zip(*paired_directions(read_events(path)))}
        small_blocks(400)
        blocks = list(iter_pairs(iter_events(path)))
        assert len(blocks) > 50
        # a pair completes when its second row arrives: about a quarter of
        # them by half way through a shuffled file
        assert sum(len(n1) for n1, _ in blocks[:len(blocks) // 2]) < 150
        n1 = np.concatenate([b[0] for b in blocks])
        n2 = np.concatenate([b[1] for b in blocks])
        assert n1.shape == (400, 3)
        # each matched pair is a generated pair, each exactly once
        assert {tuple(np.r_[a, b]) for a, b in zip(n1, n2)} == want
        moments = streamed_moments(path)
        assert moments.count == 400

    @pytest.mark.parametrize("block_bytes", [64, 700, 1 << 21])
    def test_estimates_independent_of_block_size(self, tmp_path, small_blocks, block_bytes):
        table = generate(SampleConfig(seed=6, events=3000, model=PairCorrelationModel(k=0.46)))
        path = pair_file(tmp_path, table)
        n1, n2 = table.n[0::2], table.n[1::2]
        # the file holds 9 digits, so compare with the directions read back whole, before the
        # slices shrink: 3,000 pairs are one group of the merge, so the bits are those of one block
        r1, r2 = paired_directions(read_events(path))
        small_blocks(block_bytes)
        moments = streamed_moments(path)
        assert moments.count == 3000
        assert moments.witness() == witness_estimate(r1, r2)
        assert np.array_equal(moments.correlations(), correlation_estimate(r1, r2))
        assert abs(moments.witness()[0] - witness_estimate(n1, n2)[0]) < 1e-8

    def test_blank_lines_give_the_same_moments(self, tmp_path):
        # a blank line after every row (`sed G`) moves every slice boundary but no pair
        table = generate(SampleConfig(seed=12, events=40_000, model=PairCorrelationModel(k=0.46)))
        path = pair_file(tmp_path, table)
        blank = tmp_path / "blank.csv"
        blank.write_text(path.read_text().replace("\n", "\n\n"))
        assert [len(t) for t in iter_events(blank)] != [len(t) for t in iter_events(path)]
        want, got = streamed_moments(path), streamed_moments(blank)
        assert (got.count, got.dot_mean, got.dot_m2) == (want.count, want.dot_mean, want.dot_m2)
        assert got.count == 40_000 and np.array_equal(got.cross, want.cross)

    @pytest.mark.parametrize("runs, repeated", [
        ([[0, 1, 2], [3, 4], [5]], None),  # disjoint runs in order
        ([[5, 6], [0, 1], [2, 3]], None),  # disjoint runs out of order
        ([[0, 1, 1, 2], [3]], 1),  # a repeat inside one run
        ([[0, 1, 2], [2, 3]], 2),  # runs that touch at one id
        ([[0, 4, 8], [9, 12], [1, 9]], 9),  # three overlapping runs merged
        ([[10, 20], [20, 30], [0, 5], [5, 6]], 5),  # the smaller of two groups' repeats
    ])
    def test_repeated_id_across_tables(self, runs, repeated):
        def table(ids):
            ids = np.repeat(np.array(ids, np.uint64), 2)
            return EventTable.from_names(ids, ["pair-1", "pair-2"] * (len(ids) // 2),
                                         ["x"] * len(ids), np.tile([0.0, 0.0, 1.0], (len(ids), 1)))

        pairs = iter_pairs(map(table, runs))
        if repeated is None:
            assert sum(len(n1) for n1, _ in pairs) == sum(map(len, runs))
        else:
            with pytest.raises(EventFileError, match=f"^event id {repeated} appears more than once"):
                list(pairs)

    def test_carry_past_the_cap_is_a_data_error(self, tmp_path, small_blocks, monkeypatch, capsys):
        table = generate(SampleConfig(seed=4, events=400, model=PairCorrelationModel(k=0.46)))
        path = pair_file(tmp_path, shuffled(table))
        small_blocks(400)
        monkeypatch.setattr(dataio, "_MAX_CARRY_ROWS", 20)
        # reference: the smallest id seen once when a table arrives with more than 20 waiting
        seen, first = set(), None
        for block in iter_events(path):
            if len(seen) > 20:
                first = min(seen)
                break
            seen ^= set(block.event_id.tolist())
        assert first is not None
        for what in ("witness", "correlations"):
            assert main(["analyze", what, "--events", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"data error: first unpaired event id {first}: more than 20 rows "
                                    "wait for their partner, so the file is not in event-id order\n")

    def test_in_order_file_passes_a_small_cap(self, tmp_path, small_blocks, monkeypatch):
        table = generate(SampleConfig(seed=5, events=400, model=PairCorrelationModel(k=0.46)))
        path = pair_file(tmp_path, table)
        small_blocks(400)
        want = streamed_moments(path)
        monkeypatch.setattr(dataio, "_MAX_CARRY_ROWS", 2)  # a block boundary splits at most one pair
        got = streamed_moments(path)
        assert got.count == want.count == 400
        assert got.witness() == want.witness()


def completed_pairs(tables):
    """Per table, the (n1, n2) of the pairs its rows complete, by id: what iter_pairs must yield."""
    waiting = ({}, {})
    for table in tables:
        for side, role in zip(waiting, ("pair-1", "pair-2")):
            side.update(zip(table.event_id[table.role == role].tolist(), table.directions_by_role(role)))
        done = sorted(waiting[0].keys() & waiting[1].keys())
        yield tuple(np.array([side.pop(i) for i in done]).reshape(-1, 3) for side in waiting)


def row_slices(table: EventTable, cuts) -> list[EventTable]:
    bounds = [0, *cuts, len(table)]
    return [rows_of(table, slice(a, b)) for a, b in zip(bounds, bounds[1:])]


class TestPairingOrders:
    # ids already ascending skip the sort, and sides whose ids all match skip the searches;
    # the yielded arrays must be those of the general path in every order
    TABLE = generate(SampleConfig(seed=9, events=600, model=PairCorrelationModel(k=0.46)))
    ORDERS = {"in order": np.arange(1200), "shuffled": np.random.default_rng(3).permutation(1200),
              "descending": np.arange(1200)[::-1]}

    @pytest.mark.parametrize("order", list(ORDERS))
    @pytest.mark.parametrize("cuts", [[], [1, 2, 3], [301, 302, 777, 1199], [599, 601]])
    def test_same_arrays_as_general_path(self, order, cuts):
        tables = row_slices(rows_of(self.TABLE, self.ORDERS[order]), cuts)
        got = list(iter_pairs(tables))
        want = list(completed_pairs(tables))
        assert len(got) == len(want) == len(tables)
        for (g1, g2), (w1, w2) in zip(got, want):
            assert np.array_equal(g1, w1) and np.array_equal(g2, w2)
        assert sum(len(n1) for n1, _ in got) == 600

    @pytest.mark.parametrize("cuts", [range(1, 1200, 2), range(7, 1200, 14)])
    def test_cut_between_partners_in_every_table(self, monkeypatch, cuts):
        # each table ends between an event's two rows: the common prefix pairs in place and one row
        # waits, with no search
        monkeypatch.setattr(dataio, "_match", None)
        tables = row_slices(self.TABLE, list(cuts))
        got = list(iter_pairs(tables))
        for (g1, g2), (w1, w2) in zip(got, completed_pairs(tables), strict=True):
            assert np.array_equal(g1, w1) and np.array_equal(g2, w2)
        assert sum(len(n1) for n1, _ in got) == 600

    def test_in_order_file_needs_no_search(self, tmp_path, small_blocks, monkeypatch):
        # slices of three rows end between partners and between events in turn
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n" + "".join(ROW.format(i, j) for i in range(100, 400) for j in (1, 2)))
        small_blocks(3 * 19 - 1)
        want = [len(n1) for n1, _ in iter_pairs(iter_events(path))]
        monkeypatch.setattr(dataio, "_match", None)
        assert [len(n1) for n1, _ in iter_pairs(iter_events(path))] == want
        assert want[:4] == [1, 2, 1, 2] and sum(want) == 300

    @pytest.mark.parametrize("cut", [3, 4, 5])
    def test_repeated_id_at_a_table_edge(self, cut):
        # event 1 twice, its rows before, across and after the edge
        ids = np.array([0, 0, 1, 1, 1, 1, 2, 2], np.uint64)
        table = EventTable.from_names(ids, ["pair-1", "pair-2"] * 4, ["x"] * 8,
                                      np.tile([0.0, 0.0, 1.0], (8, 1)))
        with pytest.raises(EventFileError, match="^event id 1 appears more than once per pair role"):
            list(iter_pairs(row_slices(table, [cut])))

    def test_in_order_tables_yield_fresh_arrays(self):
        # a matched side in place is still the caller's to keep: no view of a table's rows
        tables = row_slices(self.TABLE, [400])
        for (n1, n2), table in zip(iter_pairs(tables), tables):
            assert not np.shares_memory(n1, table.n) and not np.shares_memory(n2, table.n)


def pair_events(count: int, extra_rows=(), drop_rows=()) -> str:
    """Event-file text of `count` pairs, minus `drop_rows`, plus `extra_rows` (text lines)."""
    lines = [ROW.format(i, 1 + j) for i in range(count) for j in range(2)]
    lines = [line for i, line in enumerate(lines) if i not in drop_rows]
    return HEADER + "\n" + "".join(lines) + "".join(extra_rows)


class TestPairingErrorsThroughCli:
    # (file text, exit code, stderr): one case per check, then the precedence among them
    CASES = {
        "roles": (pair_events(150, extra_rows=["150,single,x,0,0,1\n"]), 2,
                  "data error: expected pair events with roles ('pair-1', 'pair-2'), "
                  "found ['pair-1', 'pair-2', 'single']\n"),
        "partner": (pair_events(150, drop_rows={7}), 2,
                    "data error: pair roles do not cover the same event ids\n"),
        "repeated": (pair_events(150, extra_rows=[ROW.format(3, 1), ROW.format(3, 2)]), 2,
                     "data error: event id 3 appears more than once per pair role\n"),
        "too few": (pair_events(50), 2, "data error: need at least 100 events, got 50\n"),
        "roles before partner": (pair_events(150, ["150,single,x,0,0,1\n"], drop_rows={7}), 2,
                                 "data error: expected pair events with roles ('pair-1', 'pair-2'), "
                                 "found ['pair-1', 'pair-2', 'single']\n"),
        "partner before repeated": (pair_events(150, [ROW.format(3, 1)]), 2,
                                    "data error: pair roles do not cover the same event ids\n"),
        "repeated before too few": (pair_events(50, [ROW.format(3, 2), ROW.format(3, 1)]), 2,
                                    "data error: event id 3 appears more than once per pair role\n"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("block_bytes", [100, 1 << 21])
    def test_error_text(self, tmp_path, small_blocks, capsys, case, block_bytes):
        text, code, err = self.CASES[case]
        path = tmp_path / "events.csv"
        path.write_text(text)
        small_blocks(block_bytes)
        for what in ("witness", "correlations"):
            assert main(["analyze", what, "--events", str(path)]) == code
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == err


class TestMoments:
    def test_merge_matches_one_block(self):
        # blocks of `size` pairs, most of them across a group boundary: the bits of one block
        rng = np.random.default_rng(7)
        n1, n2 = rng.normal(size=(2, 60_000, 3))
        whole = PairMoments.from_blocks([(n1, n2)])
        for size in (1, 37, 4_095, 16_384, 16_385, 50_000):
            parts = PairMoments.from_blocks((n1[i:i + size], n2[i:i + size]) for i in range(0, 60_000, size))
            assert (parts.count, parts.dot_mean, parts.dot_m2) == (whole.count, whole.dot_mean, whole.dot_m2)
            assert np.array_equal(parts.cross, whole.cross)
        one = PairMoments.of(n1, n2)  # the same moments, summed in another order
        assert whole.count == one.count == 60_000
        np.testing.assert_allclose(whole.witness(), one.witness(), rtol=1e-12, atol=0)
        np.testing.assert_allclose(whole.correlations(), one.correlations(), rtol=1e-12, atol=0)

    def test_partial_folds_match_the_full_fold(self):
        # analyze witness folds only the dot moments and correlations only the cross moment: the same bits
        rng = np.random.default_rng(10)
        n1, n2 = rng.normal(size=(2, 60_000, 3))
        blocks = [(n1[i:i + 4_095], n2[i:i + 4_095]) for i in range(0, 60_000, 4_095)]
        full = PairMoments.from_blocks(blocks)
        dots = PairMoments.from_blocks(blocks, cross=False)
        cross = PairMoments.from_blocks(blocks, dots=False)
        assert (dots.count, dots.dot_mean, dots.dot_m2) == (full.count, full.dot_mean, full.dot_m2)
        assert dots.witness() == full.witness() and dots.cross is None
        assert (cross.count, cross.dot_mean, cross.dot_m2) == (full.count, None, None)
        assert np.array_equal(cross.correlations(), full.correlations())
        # a moment that was not folded is refused, not read as zero, in one block or merged
        for partial in (dots, PairMoments.of(n1, n2, dots=True, cross=False), full.merge(dots)):
            with pytest.raises(ValueError, match="cross moment .* not folded"):
                partial.correlations()
        for partial in (cross, PairMoments.of(n1, n2, dots=False), cross.merge(full)):
            with pytest.raises(ValueError, match="moments of n1.n2, which were not folded"):
                partial.witness()

    def test_one_block_is_the_direct_formula(self):
        rng = np.random.default_rng(8)
        n1, n2 = rng.normal(size=(2, 5000, 3))
        dots = np.einsum("ij,ij->i", n1, n2)
        assert witness_estimate(n1, n2) == (1.0 / 3.0 + 3.0 * dots.mean(),
                                            3.0 * dots.std(ddof=1) / np.sqrt(dots.size))
        assert np.array_equal(correlation_estimate(n1, n2),
                              9.0 * (n1[:, :, None] * n2[:, None, :]).mean(axis=0))

    def test_empty_blocks_change_nothing(self):
        rng = np.random.default_rng(9)
        n1, n2 = rng.normal(size=(2, 200, 3))
        empty = np.empty((0, 3))
        moments = PairMoments.from_blocks([(empty, empty), (n1, n2), (empty, empty)])
        one = PairMoments.of(n1, n2)
        assert (moments.count, moments.dot_mean, moments.dot_m2) == (one.count, one.dot_mean, one.dot_m2)
        assert np.array_equal(moments.cross, one.cross)
        assert PairMoments.from_blocks([]).count == 0
        # an empty side of a merge, even one that folded no moment, leaves the other side's moments
        nothing = PairMoments.of(empty, empty, dots=False, cross=False)
        for merged in (one.merge(nothing), nothing.merge(one)):
            assert (merged.count, merged.dot_mean, merged.dot_m2) == (one.count, one.dot_mean, one.dot_m2)
            assert np.array_equal(merged.cross, one.cross)

    def test_mismatched_directions_refused(self):
        ok = np.zeros((5, 3))
        for n1, n2 in ((ok, np.zeros((4, 3))), (ok, np.zeros((5, 2))), (np.zeros(3), np.zeros(3))):
            with pytest.raises(ValueError, match=r"expected matching \(N, 3\) direction arrays"):
                PairMoments.of(n1, n2)
            with pytest.raises(ValueError, match=r"expected matching \(N, 3\) direction arrays"):
                PairMoments.from_blocks([(ok, ok), (n1, n2)])


class TestChunks:
    def test_chunks_in_id_order(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK", 7)
        config = SampleConfig(seed=1, events=50, model=PairCorrelationModel(k=0.46), workers=2)
        chunks = list(iter_chunks(config))
        assert [len(c) for c in chunks] == [14] * 7 + [2]
        assert np.array_equal(np.concatenate([c.event_id for c in chunks]), np.repeat(np.arange(50), 2))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_in_flight_bounded(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "_CHUNK", 5)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
        started = []
        uniforms = mc._event_uniforms

        def counting(seed, start, count, blocks):
            started.append(start)
            return uniforms(seed, start, count, blocks)

        monkeypatch.setattr(mc, "_event_uniforms", counting)
        config = SampleConfig(seed=2, events=200, model=PairCorrelationModel(k=0.2), workers=workers)
        for taken, _ in enumerate(iter_chunks(config), start=1):
            # the chunk being consumed and at most 2 x workers more
            assert len(started) <= taken + (2 * workers if workers > 1 else 0)
        assert sorted(started) == list(range(0, 200, 5))

    def test_generate_equals_chunks(self, monkeypatch):
        config = SampleConfig(seed=3, events=1000, model=PairCorrelationModel(k=0.46), workers=2)
        reference = generate(config)
        monkeypatch.setattr(mc, "_CHUNK", 9)
        table = generate(config)
        chunks = EventTable.concat(iter_chunks(config))
        for got in (table, chunks):
            assert np.array_equal(got.n, reference.n)
            assert np.array_equal(got.event_id, reference.event_id)
            assert np.array_equal(got.role_code, reference.role_code)

    def test_more_workers_than_cores_keep_order(self, monkeypatch):
        # eight threads on small chunks, switching often: chunks still come in id order
        serial = generate(SampleConfig(seed=6, events=3000, model=PairCorrelationModel(k=0.46), workers=1))
        monkeypatch.setattr(mc, "_CHUNK", 16)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            config = SampleConfig(seed=6, events=3000, model=PairCorrelationModel(k=0.46), workers=8)
            chunks = list(iter_chunks(config))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(np.concatenate([c.event_id for c in chunks]), serial.event_id)
        assert np.array_equal(np.concatenate([c.n for c in chunks]), serial.n)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_apply_runs_on_the_sampling_thread(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "_CHUNK", 5)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        config = SampleConfig(seed=7, events=60, model=PairCorrelationModel(k=0.46), workers=workers)
        applied = list(iter_chunks(config, lambda table: (table, threading.get_ident())))
        tables = [table for table, _ in applied]
        assert np.array_equal(EventTable.concat(tables).n, generate(config).n)
        threads = {thread for _, thread in applied}
        if workers == 1:  # inline
            assert threads == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads
        assert b"".join(block for blocks in iter_chunks(config, dataio.format_blocks) for block in blocks) \
            == event_text(generate(config))[len(HEADER) + 1:].encode()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_error_drawing_items_follows_earlier_results(self, workers):
        def items():
            yield from range(7)
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        got = []
        with pytest.raises(UnicodeDecodeError):
            for value in mc._ordered_map(lambda x: x * x, items(), workers):
                got.append(value)
        assert got == [x * x for x in range(7)]

    def test_consumer_that_stops_early(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK", 5)
        chunks = iter_chunks(SampleConfig(seed=4, events=500, model=PairCorrelationModel(k=0.2),
                                          workers=2))
        first = next(chunks)
        chunks.close()
        assert first.event_id.tolist() == np.repeat(np.arange(5), 2).tolist()


SIMULATE = ["--seed", "9", "simulate", "pair", "--k", "0.46", "--events", "100"]


def test_simulate_bytes_independent_of_chunks_threads_and_target(capsys, tmp_path, monkeypatch):
    assert main([*SIMULATE, "--out", "-"]) == 0
    reference = capsys.readouterr().out
    monkeypatch.setattr(mc, "_CHUNK", 7)  # 15 chunks: more than 2 x workers in flight
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    digests = set()
    for threads in ("1", "2"):
        path = tmp_path / f"events-{threads}.csv"
        assert main([*SIMULATE, "--threads", threads, "--out", str(path)]) == 0
        assert capsys.readouterr().err == f"wrote 200 records to {path}\n"
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        assert main([*SIMULATE, "--threads", threads]) == 0
        digests.add(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == {hashlib.sha256(reference.encode()).hexdigest()}


def test_bad_name_in_a_later_chunk_leaves_no_file(tmp_path):
    good = EventTable.from_names(np.arange(2, dtype=np.uint64), ["single"] * 2, ["x"] * 2,
                                 np.tile([0.0, 0.0, 1.0], (2, 1)))
    bad = EventTable.from_names(np.arange(2, 4, dtype=np.uint64), ["single"] * 2, ["a,b"] * 2,
                                np.tile([0.0, 0.0, 1.0], (2, 1)))
    path = tmp_path / "events.csv"
    with pytest.raises(EventFileError, match="contains a comma"):
        write_file(path, iter([good, bad]))
    assert list(tmp_path.iterdir()) == []


def test_worker_error_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(mc, "_CHUNK", 5)
    uniforms = mc._event_uniforms

    def failing(seed, start, count, blocks):
        if start == 40:
            raise MemoryError("no room for the chunk")
        return uniforms(seed, start, count, blocks)

    monkeypatch.setattr(mc, "_event_uniforms", failing)
    path = tmp_path / "events.csv"
    config = SampleConfig(seed=5, events=100, model=PairCorrelationModel(k=0.2), workers=2)
    with pytest.raises(MemoryError):
        write_file(path, iter_chunks(config))
    assert list(tmp_path.iterdir()) == []
