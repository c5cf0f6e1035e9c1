import hashlib
import io
import re
import warnings

import numpy as np
import pytest

from hyperon import dataio
from hyperon.cli import main
from hyperon.dataio import paired_directions, read_events, write_events
from hyperon.errors import EventFileError, ParameterFileError
from hyperon.mc import EventTable, PairCorrelationModel, SampleConfig, SingleDecayModel, generate
from hyperon.params import (
    bundled_parameters_path, chi_sp_mod_pi, load_bundled_parameters, load_parameters, params_from_alpha_phi)

# published magnitude bands: channel -> (chi_sp/pi, err), (V, err), (P, err)
REFERENCE_BANDS = {
    ("Lambda", "p pi-"): ((-0.043, 0.023), (0.648, 0.014), (0.762, 0.012)),
    ("Lambda", "n pi0"): ((-0.042, 0.023), (0.656, 0.040), (0.755, 0.034)),
    ("Lambdabar", "pbar pi+"): ((0.036, 0.021), (0.714, 0.079), (0.700, 0.080)),
    ("Sigma-", "n pi-"): ((-0.38, 0.16), (0.19, 0.24), (0.98, 0.05)),
    ("Sigma+", "p pi0"): ((-0.038, 0.035), (0.976, 0.016), (0.161, 0.097)),
    ("Sigma+", "n pi+"): ((0.41, 0.13), (0.24, 0.33), (0.972, 0.078)),
    ("Xi0", "Lambda pi0"): ((0.214, 0.085), (0.53, 0.11), (0.85, 0.07)),
    ("Xi-", "Lambda pi-"): ((0.0226, 0.0086), (0.459, 0.012), (0.8884, 0.0062)),
}


class TestBundledParameters:
    def test_eight_rows(self):
        table = load_bundled_parameters()
        assert len(table) == 8

    def test_reproduces_published_bands(self):
        table = load_bundled_parameters()
        for row in table:
            bands = REFERENCE_BANDS[(row.parent, row.channel)]
            p = row.params()
            recomputed = (chi_sp_mod_pi(p) / np.pi, p.visibility, p.predictability)
            for got, (center, err) in zip(recomputed, bands):
                assert abs(got - center) <= err, (
                    f"{row.parent} -> {row.channel}: {got:.4f} outside {center} +- {err}"
                )

    def test_find(self):
        table = load_bundled_parameters()
        row = table.find("Lambda", "p pi-")
        assert row.branching == 0.639
        assert abs(row.alpha - 0.642) < 1e-12
        with pytest.raises(KeyError, match="Omega"):
            table.find("Omega-")

    def test_bundled_path_exists(self):
        assert bundled_parameters_path().exists()


class TestLoadParameters:
    def test_alpha_out_of_range_rejected_with_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# header\nX,uds,p pi-,0.5,1.2,0.0,+1,note\n")
        with pytest.raises(ParameterFileError, match=r"bad\.csv:2.*alpha"):
            load_parameters(f)

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("X,uds,p pi-,0.5,0.3\n")
        with pytest.raises(ParameterFileError, match="expected 8 fields"):
            load_parameters(f)

    def test_unparseable_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("X,uds,p pi-,0.5,zero,0.0,+1,note\n")
        with pytest.raises(ParameterFileError, match="unparseable"):
            load_parameters(f)

    def test_branching_out_of_range(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("X,uds,p pi-,1.5,0.3,0.0,+1,note\n")
        with pytest.raises(ParameterFileError, match="branching"):
            load_parameters(f)

    def test_gamma_sign_contradiction(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("X,uds,p pi-,0.5,0.3,0.1,-1,note\n")  # cos(0.1 pi) > 0
        with pytest.raises(ParameterFileError, match="gamma_sign"):
            load_parameters(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("# only comments\n")
        with pytest.raises(ParameterFileError, match=f"parameter file {re.escape(str(f))} contains no data rows"):
            load_parameters(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterFileError, match="missing.csv"):
            load_parameters(tmp_path / "missing.csv")


def table_report(capsys, *argv):
    """stdout of `hyperon table` with the given flags."""
    assert main(["table", *argv]) == 0
    return capsys.readouterr().out


# sha256 of `hyperon table` on the bundled parameters
GOLDEN_TABLE_REPORTS = {
    "csv": "1ac3064c49ba9e81691708f61156784243e0781eb99082c2a469bf9531a43c91",
    "json": "9f3d3737f9db17088b78fc8d0499581123dee3c2caf16ec4eba2c4baa0dba5aa",
}


class TestEmitTable:
    def test_lambda_row(self, capsys):
        text = table_report(capsys)
        lines = text.strip().splitlines()
        assert lines[0] == "parent,channel,branching,chi_sp_over_pi,visibility,predictability"
        lam = [l for l in lines if l.startswith("Lambda,p pi-")][0]
        _, _, _, chi, vis, pred = lam.split(",")
        assert abs(float(chi) - (-0.043)) <= 0.023
        assert abs(float(vis) - 0.648) <= 0.014
        assert abs(float(pred) - 0.762) <= 0.012

    def test_sigma_plus_row(self, capsys):
        text = table_report(capsys)
        row = [l for l in text.splitlines() if l.startswith("Sigma+,p pi0")][0]
        vis, pred = float(row.split(",")[4]), float(row.split(",")[5])
        assert abs(vis - 0.976) <= 0.016
        assert abs(pred - 0.161) <= 0.097

    def test_alpha_zero_limit(self, capsys, tmp_path):
        f = tmp_path / "row.csv"
        f.write_text("X,uds,p pi-,0.5,0.0,0.25,+1,synthetic\n")
        text = table_report(capsys, "--params", str(f))
        _, _, _, chi, vis, pred = text.strip().splitlines()[1].split(",")
        phi = 0.25 * np.pi
        assert abs(float(vis) - abs(np.sin(phi))) < 1e-6
        assert abs(float(pred) - abs(np.cos(phi))) < 1e-6

    @pytest.mark.parametrize("fmt", sorted(GOLDEN_TABLE_REPORTS))
    def test_report_bytes_pinned(self, capsys, fmt):
        text = table_report(capsys, "--format", fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TABLE_REPORTS[fmt]


def event_table(event_id, role, channel, n) -> EventTable:
    """EventTable of the given per-row ids, names and directions."""
    return EventTable.from_names(
        np.array(event_id, dtype=np.uint64), role, channel, np.array(n, dtype=float).reshape(-1, 3)
    )


def event_text(tables) -> str:
    """The event-file text `write_events` writes for an EventTable or an iterable of them."""
    out = io.StringIO()
    write_events(out, tables)
    return out.getvalue()


HEADER = "event_id,role,channel,nx,ny,nz"


class TestEventFiles:
    def test_round_trip(self, tmp_path):
        table = generate(
            SampleConfig(seed=21, events=1000, model=PairCorrelationModel(k=0.3, channel="pair(k=0.3)"))
        )
        path = tmp_path / "events.csv"
        write_events(path, table)
        back = read_events(path)
        assert np.array_equal(back.event_id, table.event_id)
        assert list(back.role) == list(table.role)
        assert np.max(np.abs(back.n - table.n)) < 1e-9

    def test_round_trip_records(self, tmp_path):
        table = event_table([0, 1], ["single"] * 2, ["x"] * 2, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        path = tmp_path / "records.csv"
        write_events(path, table)
        back = read_events(path)
        assert len(back) == 2
        assert np.allclose(back.n[1], [1.0, 0.0, 0.0])

    def test_truncated_file_names_last_good_id(self, tmp_path):
        table = generate(SampleConfig(seed=22, events=5, model=SingleDecayModel(
            params=params_from_alpha_phi(0.5, 0.0))))
        path = tmp_path / "events.csv"
        write_events(path, table)
        text = path.read_text()
        path.write_text(text[: text.rfind(",") + 2])  # cut the last line short
        with pytest.raises(EventFileError, match="last good event id: 3"):
            read_events(path)

    def test_malformed_line_located(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "event_id,role,channel,nx,ny,nz\n"
            "0,single,x,0,0,1\n"
            "1,single,x,not-a-number,0,1\n"
        )
        with pytest.raises(EventFileError, match=r"events\.csv:3"):
            read_events(path)

    def test_non_unit_direction_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("event_id,role,channel,nx,ny,nz\n0,single,x,0.5,0,0.5\n")
        with pytest.raises(EventFileError, match="unit length"):
            read_events(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("event_id,role,channel,nx,ny,nz\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_events(path)) == 0

    def test_undecodable_body(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(HEADER.encode() + b"\n0,single,\xff,0,0,1\n")
        with pytest.raises(EventFileError, match="cannot read event file"):
            read_events(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("0,single,x,0,0,1\n")
        with pytest.raises(EventFileError, match="header"):
            read_events(path)

    def test_comma_in_channel_rejected(self):
        with pytest.raises(EventFileError, match="comma"):
            event_text(event_table([0], ["single"], ["a,b"], [0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("role, channel", [
        ("single", "a,b"), ("single", "a\nb"), ("a,b", "x"), ("r\udcff", "x"), ("single", "\ud800x"),
        ("single", "a\tb"), ("single", "a\0b"), ("r\x1f", "x"), ("single", "\r"),
    ])
    def test_bad_name_leaves_no_file(self, tmp_path, role, channel):
        table = generate(SampleConfig(seed=25, events=10, model=SingleDecayModel(
            params=params_from_alpha_phi(0.5, 0.0))))
        table = EventTable.from_names(
            event_id=table.event_id,
            role=np.where(table.event_id == 9, role, table.role),
            channel=np.where(table.event_id == 9, channel, table.channel),
            n=table.n,
        )
        path = tmp_path / "events.csv"
        with pytest.raises(EventFileError) as err:
            write_events(path, table)
        assert not path.exists()
        what, name = ("channel", channel) if role == "single" else ("role", role)
        reason = "contains a comma or control character" if name.isascii() else "cannot be encoded as UTF-8"
        assert str(err.value).startswith(f"{what} name {name!r} {reason}")

    def test_failed_write_removes_partial_file(self, tmp_path, monkeypatch):
        def failing_chunks(events):
            yield f"{dataio.EVENT_HEADER}\n".encode()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(dataio, "_event_chunks", failing_chunks)
        path = tmp_path / "events.csv"
        with pytest.raises(EventFileError, match="No space left"):
            write_events(path, event_table([0], ["single"], ["x"], [0.0, 0.0, 1.0]))
        assert not path.exists()

    def test_non_ascii_names_round_trip(self, tmp_path):
        table = event_table([0, 0, 1, 1], ["rôle-β", "pair-2"] * 2, ["Λ→pπ⁻", "Ξ", "x", "Λ→pπ⁻"],
                            [[0.0, 0.6, 0.8]] * 4)
        path = tmp_path / "events.csv"
        write_events(path, table)
        assert path.read_bytes() == event_text(table).encode("utf-8")
        back = read_events(path)
        assert (back.roles, back.channels) == (("rôle-β", "pair-2"), ("Λ→pπ⁻", "Ξ", "x"))
        assert back.role.tolist() == table.role.tolist() and back.channel.tolist() == table.channel.tolist()
        assert np.array_equal(back.n, table.n) and back.event_id.tolist() == [0, 0, 1, 1]

    def test_stream_matches_text(self, tmp_path):
        # 66,000 rows: more than one block of the writer
        table = generate(SampleConfig(seed=26, events=33_000, model=PairCorrelationModel(k=0.3)))
        out, binary = io.StringIO(), io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        write_events(out, table)  # decoded: a text stream without a buffer
        binary.write("text before the events\n")
        write_events(binary, table)  # the bytes to its buffer, after what the stream held
        binary.flush()
        path = tmp_path / "events.csv"
        write_events(path, table)
        texts = [out.getvalue(), path.read_bytes().decode(),
                 binary.buffer.getvalue().decode().removeprefix("text before the events\n")]
        # digests, not the strings: a report that diffs two 66,000-line strings takes minutes
        digests = {(len(t), hashlib.sha256(t.encode()).hexdigest()) for t in texts}
        assert len(digests) == 1
        assert len(texts[0].splitlines()) == 1 + 66_000

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n0,single,x,0,0,1\n\n1,single,x,1,0,0\n\n")
        back = read_events(path)
        assert back.event_id.tolist() == [0, 1]
        assert back.role.tolist() == ["single", "single"]

    def test_long_names_kept_whole(self, tmp_path):
        name = "channel-" + "x" * 300
        path = tmp_path / "events.csv"
        write_events(path, event_table([2**64 - 1], ["r" * 100], [name], [0.0, 1.0, 0.0]))
        back = read_events(path)
        assert back.event_id.tolist() == [2**64 - 1]
        assert back.role.tolist() == ["r" * 100]
        assert back.channel.tolist() == [name]

    @pytest.mark.parametrize("line, reason", [
        ("1,single,x,0,0", "expected 6 fields, got 5"),
        ("1,single,x,0,0,1,0", "expected 6 fields, got 7"),
        ("1,single,x,,0,1", "field 4"),
        ("1,single,x,not-a-number,0,1", "not-a-number"),
        ("1_0,single,x,0,0,1", "1_0"),
        ("-1,single,x,0,0,1", "-1"),
        ("18446744073709551616,single,x,0,0,1", "18446744073709551616"),
        ("1,single,x,nan,0,1", "unit length"),
        ("1,single,x,inf,0,0", "unit length"),
        ("# comment", "expected 6 fields, got 1"),
        ("   ", "expected 6 fields, got 1"),
    ])
    @pytest.mark.parametrize("last", [False, True])
    def test_malformed_body_located(self, tmp_path, line, reason, last):
        path = tmp_path / "events.csv"
        tail = "" if last else "\n2,single,x,1,0,0\n"
        path.write_text(HEADER + "\n0,single,x,0,0,1\n\n" + line + tail)
        with pytest.raises(EventFileError) as err:
            read_events(path)
        message = str(err.value)
        assert message.startswith(f"{path}:4: ")
        assert reason in message
        assert message.endswith("(last good event id: 0)")

    @pytest.mark.parametrize("bad_row", [0, 1, 137, 998, 999])
    def test_bad_line_found_in_long_file(self, tmp_path, bad_row):
        lines = [f"{i},single,x,0,0,1" for i in range(1000)]
        lines[bad_row] = f"{bad_row},single,x,0,0"
        path = tmp_path / "events.csv"
        path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        last_good = bad_row - 1 if bad_row else None
        with pytest.raises(EventFileError, match=rf"events\.csv:{bad_row + 2}: .*"
                           rf"\(last good event id: {last_good}\)$"):
            read_events(path)

    def test_many_channels_and_interleaved_roles_round_trip(self, tmp_path):
        # 300 channel names need wider than uint8 codes
        roles = [("pair-1", "single", "pair-2")[i % 3] for i in range(900)]
        channels = [f"ch-{(7 * i) % 300}" for i in range(900)]
        path = tmp_path / "events.csv"
        write_events(path, event_table(range(900), roles, channels, [[0.0, 0.0, 1.0]] * 900))
        back = read_events(path)
        assert back.channel_code.dtype == np.uint16 and back.role_code.dtype == np.uint8
        assert len(back.channels) == 300 and back.roles == ("pair-1", "single", "pair-2")
        assert back.event_id.tolist() == list(range(900))
        assert back.role.tolist() == roles
        assert back.channel.tolist() == channels
        assert path.read_text() == event_text(back)

    def test_nine_digit_precision(self, tmp_path):
        n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        path = tmp_path / "events.csv"
        write_events(path, event_table([7], ["single"], ["x"], n))
        back = read_events(path)
        assert abs(np.linalg.norm(back.n[0]) - 1.0) < 1e-9


# sha256 of `hyperon simulate ... --events 2000 --seed 7` for the README's
# three example models; a change of these bytes is a change of the stream


def percent_rows(table: EventTable) -> str:
    """The reference text of a table's rows: each row through `_EVENT_ROW %`."""
    names = [f"{role},{channel}" for role in table.roles for channel in table.channels]
    keys = table.role_code.astype(np.intp) * len(table.channels) + table.channel_code
    return "".join(map(dataio._EVENT_ROW.__mod__, zip(
        table.event_id.tolist(), map(names.__getitem__, keys.tolist()), *table.n.T.tolist())))


def reference_table(lines: list[str]) -> EventTable:
    """The table of event-file lines as np.loadtxt (`_parse_body`) and `from_names` make it."""
    rows = dataio._parse_body(lines)
    return EventTable.from_names(np.ascontiguousarray(rows["event_id"]), rows["role"], rows["channel"],
                                 np.ascontiguousarray(rows["n"]))


def assert_same_table(got: EventTable, want: EventTable) -> None:
    """Same ids, names, code dtypes and direction bits."""
    assert (got.roles, got.channels) == (want.roles, want.channels)
    for column in ("event_id", "role_code", "channel_code"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column
    assert got.n.flags.c_contiguous and np.array_equal(got.n.view(np.uint64), want.n.view(np.uint64))


def near(x: np.ndarray, ulps: int = 2) -> np.ndarray:
    """x and its neighbours up to `ulps` doubles away on either side."""
    out, up, down = [x], x, x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestRowFormatter:
    """The vectorised event-row formatter against `%` formatting, byte for byte."""

    def test_components_match_percent_format(self, monkeypatch):
        rng = np.random.default_rng(2024)
        vectors = rng.normal(size=(500_000, 3))
        q = rng.integers(10**8, 10**9, 250_000)
        # the doubles nearest the 9-digit rounding midpoints (q + 1/2) 10**(e - 8) of
        # the decades 10**e <= |x| < 10**(e + 1); the decade of 1 holds only 1, a power of ten
        midpoints = np.concatenate([(q + 0.5) / 10.0 ** (8 - e) for e in range(-4, 0)])
        # values about the edges of the 1e-6 window of scaled products that _format_unit leaves to `%`
        q = rng.integers(10**8, 10**9, 50_000)
        edges = np.concatenate([(q + 0.5 + d) / 10.0 ** (8 - e) for e in range(-4, 0)
                                for d in (-1e-5, -1.5e-6, -1e-6, 1e-6, 1.5e-6, 1e-5)])
        powers = 10.0 ** -np.arange(5)
        categories = {
            "uniform": rng.uniform(-1, 1, 1_600_000),
            "unit-vector components": (vectors / np.linalg.norm(vectors, axis=1, keepdims=True)).ravel(),
            "ties k / 2**18": rng.integers(-2**18, 2**18 + 1, 1_500_000) / 2**18,
            "9-digit decimals":
                rng.integers(10**8, 10**9, 1_000_000) / 10.0 ** rng.integers(9, 13, 1_000_000),
            "rounding midpoints": near(midpoints) * rng.choice([-1.0, 1.0], 5 * midpoints.size),
            "rounding-window edges": edges * rng.choice([-1.0, 1.0], edges.size),
            "powers of ten": near(np.concatenate([powers, powers * (1 - 5e-10)]), ulps=50),
            "signed zero and one": np.array([0.0, -0.0, 1.0, -1.0]),
        }
        checked = 0
        for name, x in categories.items():
            # the values _format_unit writes, against `%`
            written_count = 0
            for block in np.array_split(x, -(-x.size // 250_000)):
                out = np.zeros(block.shape + (5,), np.uint32)
                written = dataio._format_unit(block, out)
                text = out[written].view(np.uint8)
                got = text[text != 0].tobytes().decode()
                want = "".join(map(",%.9g".__mod__, block[written].tolist()))
                if got != want:  # name the first value, not a diff of megabytes
                    bad = next(v for v, g, w in zip(block[written].tolist(), got.split(",")[1:],
                                                    want.split(",")[1:]) if g != w)
                    pytest.fail(f"{name}: %.9g of {bad!r}")
                written_count += np.count_nonzero(written)
            if name == "unit-vector components":
                assert written_count >= 0.9999 * x.size
            # every value, fast or left to `%`, through the writer
            n = np.concatenate([x, np.zeros(-x.size % 3)]).reshape(-1, 3)
            rows = len(n)
            table = EventTable(np.arange(rows, dtype=np.uint64), np.zeros(rows, np.uint8),
                               np.zeros(rows, np.uint8), n, ("r",), ("c",))
            got, want = event_text(table), HEADER + "\n" + percent_rows(table)
            if got != want:
                line = next(g for g, w in zip(got.splitlines(), want.splitlines()) if g != w)
                pytest.fail(f"{name}: write_events wrote {line!r}")
            # the first 200,000 rows parsed back, against _parse_body; the unit check, which both
            # share, is off
            with monkeypatch.context() as patch:
                patch.setattr(dataio, "_is_unit", lambda n: np.ones(len(n), bool))
                head = got.split("\n", 200_001)[1:-1]
                for part in range(0, len(head), 50_000):
                    lines = [line + "\n" for line in head[part:part + 50_000]]
                    parsed, count = dataio._parse_slice(dataio._padded("".join(lines).encode()))
                    assert count == len(lines)
                    assert_same_table(parsed, reference_table(lines))
            checked += x.size
        assert checked >= 10_000_000

    @pytest.mark.parametrize("block_rows", [7, 1 << 14])
    def test_fallback_rows_ids_and_names_match_percent_format(self, monkeypatch, block_rows):
        monkeypatch.setattr(dataio, "_FORMAT_ROWS", block_rows)
        rng = np.random.default_rng(8)
        n = rng.normal(size=(40, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        # values outside the fast range, in rows among fast ones and in every column
        outside = [np.nan, np.inf, -np.inf, 1e-5, 5e-324, 1.5, -5e-5, np.nextafter(-1.0, -2.0)]
        for row, value in zip(range(2, 40, 5), outside):
            n[row, row % 3] = value
        ids = [0, 9, 10, 2**53 - 1, 2**53 + 1, 2**64 - 1] + list(range(1000, 1034))
        tables = [
            event_table(ids, ["pair-1", "rôle-β"] * 20, ["Λ→pπ⁻", "x", "Ξ"] * 13 + ["x"], n),
            # ids of any unsigned dtype
            EventTable.from_names(np.arange(20, 60, dtype=np.uint8), ["a b", "c"] * 20, ["x"] * 40, n),
        ]
        for table in tables:
            assert event_text(table) == HEADER + "\n" + percent_rows(table)


def parent_read(path) -> EventTable:
    """An event file of one block read as the np.loadtxt reader did: `_parse_body` and `from_names`,
    and where that fails, `_parse_body` of one line at a time up to the first line it rejects."""
    with open(path, encoding="utf-8") as f:
        f.readline()
        lines = f.readlines()
    try:
        return reference_table(lines)
    except ValueError:
        last_good = None
        for line_no, line in enumerate(lines, 2):
            try:
                rows = dataio._parse_body([line])
            except ValueError as exc:
                raise EventFileError(f"{path}:{line_no}: {dataio._line_error(line, exc)} "
                                     f"(last good event id: {last_good})") from None
            if rows.size:
                last_good = int(rows["event_id"][-1])
        raise


ROWS = "0,pair-1,x,0.6,0,0.8\n0,pair-2,x,-0.6,0,-0.8\n"


class TestRowParser:
    """The byte parser against the np.loadtxt reader, line by line: the same table or the same error."""

    @pytest.mark.parametrize("line", [
        "01,pair-1,x,0,0,1",  # leading zero in an id
        "+1,pair-1,x,0,0,1",
        "1,pair-1,x, 0.6,0,0.8",
        "1,pair-1,x,0.6 ,0,0.8",
        "1,pair-1,x,1.,0,0",
        "1,pair-1,x,.6,0,.8",
        "1,pair-1,x,1E0,0,0",
        "1,pair-1,x,1e-05,0,1",
        "1,pair-1,x,-0,-0.0,-1",  # negative zeros keep their sign
        "1,pair-1,x,0.6000000000000,0,0.8000000000000",  # 13 decimals, the most the fast grammar reads
        "1,pair-1,x,0.60000000000000,0,0.8",  # 14
        "1,pair-1,x,00.6,0,0.8",
        "1,pair-1,x,0,0,1\r",  # \r\n
        "1,pair-1,x,0,0,1\r2,pair-1,x,0,1,0",  # a lone \r
        "1234567890123456789,pair-1,x,0,0,1",  # 19 digits, the most the fast grammar reads
        "18446744073709551615,pair-1,x,0,0,1",  # 2**64 - 1 in 20 digits
        "18446744073709551616,pair-1,x,0,0,1",  # 2**64
        "1234567890123456789012345,pair-1,x,0,0,1",  # 25 digits, past the id words the parser reads
        "-1,pair-1,x,0,0,1",
        "1,pa\tir-1,x,0,0,1",
        "1,pair-1,\x00,0,0,1",
        '1,"pair-1",x,0,0,1',
        "1, pair-1 ,x y,0,0,1",
        "1,,,0,0,1",
        ",pair-1,x,0,0,1",  # no id
        "1,Λ→pπ⁻,Ξ ,0,0,1",
        "1," + "r" * 70 + ",x,0,0,1",  # a key longer than the word compare takes
        "1,pair-1,x,0,0",
        "1,pair-1,x,0,0,1,",
        ",,,,,",
        "1,pair-1,x,0.5,0,0.5",
        "1,pair-1,x,nan,0,1",
        "1,pair-1,x,2,0,0",
        "1,pair-1,x,-,0,1",
        "1,pair-1,x,0.6e,0,0.8",
        "   ",
        "",
    ])
    @pytest.mark.parametrize("where", ["first", "inside", "last"])
    def test_line_like_loadtxt(self, tmp_path, line, where):
        before, after = {"first": ("", ROWS * 3), "inside": (ROWS * 2, ROWS), "last": (ROWS * 3, "")}[where]
        path = tmp_path / "events.csv"
        path.write_bytes(f"{HEADER}\n{before}{line}\n{after}".encode())
        try:
            want = parent_read(path)
        except EventFileError as exc:
            with pytest.raises(EventFileError) as got:
                read_events(path)
            assert str(got.value) == str(exc)
        else:
            assert_same_table(read_events(path), want)

    @pytest.mark.parametrize("keys", [2, 16, 17, 300])
    def test_many_keys(self, tmp_path, keys):
        # keys past the sixteenth in a slice go through _parse_body
        roles = [("pair-1", "single", "pair-2")[i % 3] for i in range(3 * keys)]
        channels = [f"ch-{(7 * i) % keys}" for i in range(3 * keys)]
        n = np.random.default_rng(keys).normal(size=(3 * keys, 3))
        path = tmp_path / "events.csv"
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        write_events(path, event_table(range(3 * keys), roles, channels, n))
        assert_same_table(read_events(path), parent_read(path))

    def test_digit_words(self):
        # every byte in every position of an eight-byte word, with every count of digits read
        rng = np.random.default_rng(3)
        text = rng.integers(ord("0"), ord("9") + 1, (256 * 8, 8), dtype=np.uint8)
        text[np.arange(256 * 8), np.arange(256 * 8) % 8] = np.arange(256 * 8) // 8
        for count in range(9):
            value, ok = dataio._digits(text.view(np.uint64).ravel().copy(), np.full(len(text), count))
            for row, got, good in zip(text.tolist(), value.tolist(), ok.tolist()):
                digits = bytes(row[8 - count:])
                assert good == digits.isdigit() or count == 0
                assert not good or got == int(digits or b"0")


# The stream changed in 0.6.0: event i takes the 3 x roles doubles from draw
# 3 x roles x i of one PCG64 stream, in place of 4-word Philox blocks, and the
# azimuth lies on [-pi, pi) with its sine taken from its cosine.  The 0.3.0-0.5.x
# files hashed to
#   single  9f4f219ad409b8ff03a5b1a7e1f6ec266106cf89111e73220f9e122c459c53e6
#   pair    e24f16e8ce4c2960e4a60035b3de97467e9d101aff0e3591da1f528c01270a4a
#   cascade 3d7340d6db81d67b2d6e715364be995c066c8f335e523c324653c363205c4876
# It changed in 0.3.0: each decay is a uniform direction kept or negated,
# three uniforms per decay and two Philox blocks per pair or cascade event,
# in place of the inverse CDF in a frame about the axis.  The 0.2.x
# files hashed to
#   single  2562498fea058a9b510c929f1992ebec5253c1fd5fb3a6af18bc1a63d57445f4
#   pair    50d05edd6c1a724d571dce3c31ebf8d6812624e980f89ed58796c0404b424ba3
#   cascade ac5cc6dcf837a8a26c9f19eff25d1dc44bf7f9d06cb14b5146c5a1635f166905
# It changed in 0.2.0 as well: the direction kernel's frames became Duff et
# al.'s branchless basis, and the cascade's n_mu.s an elementwise three-term
# sum in place of a BLAS product, which moves the last bits of the sampled
# directions.  The 0.1.0 files hashed to
#   single  2b443c4808c192de14bda843cb7c07bdb90e9ff621b34a833281c4d57309a1da
#   pair    a48390daa78c6af7f77db6cd05571f68262bf46958bf3eff75688ddb458ac549
#   cascade 029f36593b9d5905c033a497f7ea8b6f08620046c1034744b538a94c09f689b5
GOLDEN_EVENT_FILES = {
    ("single", "--hyperon", "Lambda", "--pol", "0,0,1"):
        "7838b31a29e50a39e9cafbc45f108c1dddf3193a0e641326837c9c34ab5bf078",
    ("pair", "--k", "0.46"):
        "6478bff36aed52aadb5a9e3d5e61636caf6d2289e136939a8164223e427d6f43",
    ("cascade", "--mu-hyperon", "Xi-", "--nu-hyperon", "Lambda"):
        "051b75000e763812c5278fc971aee84f1c25279ea76377141bc8c35672ad6cdf",
}


@pytest.mark.parametrize("model", list(GOLDEN_EVENT_FILES), ids=lambda m: m[0])
def test_event_file_bytes_pinned(capsys, tmp_path, monkeypatch, model):
    monkeypatch.delenv("HYPERON_PARAMS", raising=False)  # the bundled parameter table
    argv = ["simulate", *model, "--events", "2000", "--seed", "7"]
    path = tmp_path / "events.csv"
    assert main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_EVENT_FILES[model]
    assert main([*argv, "--out", "-"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()


class TestPairedDirections:
    def test_pairing(self):
        table = generate(SampleConfig(seed=23, events=500, model=PairCorrelationModel(k=0.1)))
        n1, n2 = paired_directions(table)
        assert n1.shape == (500, 3)
        assert np.array_equal(n1, table.n[0::2])
        assert np.array_equal(n2, table.n[1::2])

    def test_role_mismatch(self):
        table = generate(SampleConfig(seed=24, events=200, model=SingleDecayModel(
            params=params_from_alpha_phi(0.5, 0.0))))
        with pytest.raises(EventFileError, match="pair events"):
            paired_directions(table)

    def test_pairing_out_of_order(self):
        table = generate(SampleConfig(seed=27, events=50, model=PairCorrelationModel(k=0.1)))
        order = np.random.default_rng(0).permutation(len(table))
        shuffled = EventTable(
            table.event_id[order], table.role_code[order], table.channel_code[order],
            table.n[order], table.roles, table.channels,
        )
        n1, n2 = paired_directions(shuffled)
        assert np.array_equal(n1, table.n[0::2])
        assert np.array_equal(n2, table.n[1::2])

    def test_missing_partner_rejected(self):
        table = generate(SampleConfig(seed=28, events=20, model=PairCorrelationModel(k=0.1)))
        keep = np.arange(len(table)) != 5
        table = EventTable(table.event_id[keep], table.role_code[keep], table.channel_code[keep],
                           table.n[keep], table.roles, table.channels)
        with pytest.raises(EventFileError, match="same event ids"):
            paired_directions(table)

    def test_duplicate_event_id_rejected(self, capsys, tmp_path):
        table = generate(SampleConfig(seed=29, events=150, model=PairCorrelationModel(k=0.46)))
        lines = event_text(table).splitlines(keepends=True)
        path = tmp_path / "events.csv"
        path.write_text("".join(lines + lines[1:3]))  # event 0 again, for both roles
        with pytest.raises(EventFileError, match="event id 0 appears more than once"):
            paired_directions(read_events(path))
        assert main(["analyze", "witness", "--events", str(path)]) == 2
        assert "appears more than once" in capsys.readouterr().err


class TestTableLayout:
    def test_column_bytes_per_row(self):
        # an 8-byte id, 24 bytes of direction and one byte each for the role and channel codes
        table = generate(SampleConfig(seed=30, events=1000, model=PairCorrelationModel(k=0.46)))
        columns = (table.event_id, table.role_code, table.channel_code, table.n)
        assert sum(c.nbytes for c in columns) <= 34 * len(table)
        assert table.roles == ("pair-1", "pair-2") and table.channels == ("pair",)

    @pytest.mark.parametrize("count, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_code_width(self, count, dtype):
        names = [f"c{i}" for i in range(count)]
        table = EventTable.from_names(np.arange(count, dtype=np.uint64), ["single"] * count,
                                      names, np.tile([0.0, 0.0, 1.0], (count, 1)))
        assert table.channel_code.dtype == dtype
        assert table.channels == tuple(names)
        assert table.channel.tolist() == names

    def test_names_in_order_of_first_appearance(self):
        table = EventTable.from_names(np.arange(4, dtype=np.uint64), ["b", "a", "b", "c"], ["x"] * 4,
                                      np.tile([0.0, 0.0, 1.0], (4, 1)))
        assert table.roles == ("b", "a", "c")
        assert table.role_code.tolist() == [0, 1, 0, 2]

    @pytest.mark.parametrize("roles, codes", [
        (("a", "a"), [0, 1]),
        (("a", "b"), [0, 2]),
        (("a", "b"), [0, -1]),
    ])
    def test_bad_codes_rejected(self, roles, codes):
        codes = np.array(codes, dtype=np.int8 if min(codes) < 0 else np.uint8)
        with pytest.raises(ValueError, match="repeated name|unsigned indices"):
            EventTable(np.arange(2), codes, np.zeros(2, np.uint8),
                       np.tile([0.0, 0.0, 1.0], (2, 1)), roles, ("x",))

    @pytest.mark.parametrize("column, value", [
        ("n", np.zeros((2, 3))), ("n", np.zeros((3, 2))), ("n", np.zeros(9)),
        ("role_code", np.zeros(2, np.uint8)), ("channel_code", np.zeros(4, np.uint8)),
        ("event_id", np.arange(3, dtype=np.uint64)[:, None]),
    ], ids=["n-2x3", "n-3x2", "n-flat", "role_code-short", "channel_code-long", "event_id-2d"])
    def test_column_lengths_must_match(self, column, value):
        # refused when the table is made, not by a numpy broadcast error in the writer
        columns = {"event_id": np.arange(3, dtype=np.uint64), "role_code": np.zeros(3, np.uint8),
                   "channel_code": np.zeros(3, np.uint8), "n": np.tile([0.0, 0.0, 1.0], (3, 1))}
        EventTable(**columns, roles=("single",), channels=("x",))  # the valid base
        with pytest.raises(ValueError, match=f"^{column} has shape "):
            EventTable(**{**columns, column: value}, roles=("single",), channels=("x",))

    @pytest.mark.parametrize("ids", [np.arange(-2, 2, dtype=np.int64), np.array([0.5, 1.0, 2.0, 3.0])],
                             ids=["int64", "float"])
    def test_signed_or_fractional_ids_rejected(self, ids):
        # an event file holds unsigned ids: a negative id would be written but not read back,
        # and a fractional one written truncated
        n = np.tile([0.0, 0.0, 1.0], (4, 1))
        with pytest.raises(ValueError, match="event ids must be unsigned"):
            EventTable(ids, np.zeros(4, np.uint8), np.zeros(4, np.uint8), n, ("single",), ("x",))
        with pytest.raises(ValueError, match="event ids must be unsigned"):
            EventTable.from_names(ids, ["single"] * 4, ["x"] * 4, n)

    def test_directions_by_absent_role(self):
        table = generate(SampleConfig(seed=31, events=10, model=PairCorrelationModel(k=0.1)))
        assert table.directions_by_role("single").shape == (0, 3)
