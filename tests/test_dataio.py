import hashlib
import io
import logging
import warnings

import numpy as np
import pytest

from hyperon import dataio
from hyperon.cli import main
from hyperon.dataio import (
    EventFileError,
    ParameterFileError,
    bundled_parameters_path,
    emit_table,
    format_events,
    load_bundled_parameters,
    load_parameters,
    paired_directions,
    read_events,
    write_events,
)
from hyperon.decay import chi_sp_mod_pi
from hyperon.mc import (
    EventRecord, EventTable, PairCorrelationModel, SampleConfig, SingleDecayModel, generate,
)
from hyperon.decay import params_from_alpha_phi

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

    def test_decay_channel_construction(self):
        row = load_bundled_parameters().find("Xi-")
        channel = row.decay_channel()
        assert channel.daughters == ("Lambda", "pi-")
        assert channel.params.alpha == row.alpha

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

    def test_empty_file_warns(self, tmp_path, caplog):
        f = tmp_path / "empty.csv"
        f.write_text("# only comments\n")
        with caplog.at_level(logging.WARNING):
            table = load_parameters(f)
        assert len(table) == 0
        assert "no data rows" in caplog.text

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterFileError, match="missing.csv"):
            load_parameters(tmp_path / "missing.csv")


class TestEmitTable:
    def test_lambda_row(self):
        text = emit_table(load_bundled_parameters())
        lines = text.strip().splitlines()
        assert lines[0] == "parent,channel,branching,chi_sp_over_pi,visibility,predictability"
        lam = [l for l in lines if l.startswith("Lambda,p pi-")][0]
        _, _, _, chi, vis, pred = lam.split(",")
        assert abs(float(chi) - (-0.043)) <= 0.023
        assert abs(float(vis) - 0.648) <= 0.014
        assert abs(float(pred) - 0.762) <= 0.012

    def test_sigma_plus_row(self):
        text = emit_table(load_bundled_parameters())
        row = [l for l in text.splitlines() if l.startswith("Sigma+,p pi0")][0]
        vis, pred = float(row.split(",")[4]), float(row.split(",")[5])
        assert abs(vis - 0.976) <= 0.016
        assert abs(pred - 0.161) <= 0.097

    def test_alpha_zero_limit(self, tmp_path):
        f = tmp_path / "row.csv"
        f.write_text("X,uds,p pi-,0.5,0.0,0.25,+1,synthetic\n")
        text = emit_table(load_parameters(f))
        _, _, _, chi, vis, pred = text.strip().splitlines()[1].split(",")
        phi = 0.25 * np.pi
        assert abs(float(vis) - abs(np.sin(phi))) < 1e-6
        assert abs(float(pred) - abs(np.cos(phi))) < 1e-6


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
        records = [
            EventRecord(0, "single", "x", np.array([0.0, 0.0, 1.0])),
            EventRecord(1, "single", "x", np.array([1.0, 0.0, 0.0])),
        ]
        path = tmp_path / "records.csv"
        write_events(path, records)
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
            format_events([EventRecord(0, "single", "a,b", np.array([0.0, 0.0, 1.0]))])

    @pytest.mark.parametrize("role, channel", [("single", "a,b"), ("single", "a\nb"), ("a,b", "x")])
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
        with pytest.raises(EventFileError, match="contains a comma or line break"):
            write_events(path, table)
        assert not path.exists()

    def test_failed_write_removes_partial_file(self, tmp_path, monkeypatch):
        def failing_chunks(events):
            yield dataio.EVENT_HEADER + "\n"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(dataio, "_event_chunks", failing_chunks)
        path = tmp_path / "events.csv"
        with pytest.raises(EventFileError, match="No space left"):
            write_events(path, [EventRecord(0, "single", "x", np.array([0.0, 0.0, 1.0]))])
        assert not path.exists()

    def test_stream_matches_text(self):
        # 66,000 rows: more than one block of the writer
        table = generate(SampleConfig(seed=26, events=33_000, model=PairCorrelationModel(k=0.3)))
        out = io.StringIO()
        write_events(out, table)
        texts = [out.getvalue(), format_events(table), format_events(table.records())]
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
        write_events(path, [EventRecord(2**64 - 1, "r" * 100, name, np.array([0.0, 1.0, 0.0]))])
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
        records = [
            EventRecord(i, ("pair-1", "single", "pair-2")[i % 3], f"ch-{(7 * i) % 300}",
                        np.array([0.0, 0.0, 1.0]))
            for i in range(900)
        ]
        path = tmp_path / "events.csv"
        write_events(path, records)
        back = read_events(path)
        assert back.channel_code.dtype == np.uint16 and back.role_code.dtype == np.uint8
        assert len(back.channels) == 300 and back.roles == ("pair-1", "single", "pair-2")
        assert back.role.tolist() == [r.role for r in records]
        assert back.channel.tolist() == [r.channel for r in records]
        assert [(r.event_id, r.role, r.channel) for r in back.records()] == [
            (r.event_id, r.role, r.channel) for r in records
        ]
        assert path.read_text() == format_events(back)

    def test_nine_digit_precision(self, tmp_path):
        n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        path = tmp_path / "events.csv"
        write_events(path, [EventRecord(7, "single", "x", n)])
        back = read_events(path)
        assert abs(np.linalg.norm(back.n[0]) - 1.0) < 1e-9


# sha256 of `hyperon simulate ... --events 2000 --seed 7` for the README's
# three example models; a change of these bytes is a change of the stream
GOLDEN_EVENT_FILES = {
    ("single", "--hyperon", "Lambda", "--pol", "0,0,1"):
        "2b443c4808c192de14bda843cb7c07bdb90e9ff621b34a833281c4d57309a1da",
    ("pair", "--k", "0.46"):
        "a48390daa78c6af7f77db6cd05571f68262bf46958bf3eff75688ddb458ac549",
    ("cascade", "--mu-hyperon", "Xi-", "--nu-hyperon", "Lambda"):
        "029f36593b9d5905c033a497f7ea8b6f08620046c1034744b538a94c09f689b5",
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
        lines = format_events(table).splitlines(keepends=True)
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
        table = EventTable.from_names(np.arange(4), ["b", "a", "b", "c"], ["x"] * 4,
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

    def test_directions_by_absent_role(self):
        table = generate(SampleConfig(seed=31, events=10, model=PairCorrelationModel(k=0.1)))
        assert table.directions_by_role("single").shape == (0, 3)
