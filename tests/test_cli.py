import argparse
import ast
import csv
import hashlib
import io
import itertools
import json
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hyperon
from hyperon.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTable:
    def test_bundled_has_eight_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        lam = [r for r in rows if r["parent"] == "Lambda" and r["channel"] == "p pi-"][0]
        assert abs(float(lam["visibility"]) - 0.648) <= 0.014
        assert abs(float(lam["predictability"]) - 0.762) <= 0.012
        assert abs(float(lam["chi_sp_over_pi"]) - (-0.043)) <= 0.023

    @pytest.mark.parametrize("argv", [
        ("table",), ("simulate", "single", "--hyperon", "Lambda", "--events", "10"),
    ], ids=["table", "simulate"])
    def test_empty_parameter_file_is_one_line_data_error(self, capsys, tmp_path, argv):
        f = tmp_path / "empty.csv"
        f.write_text("# only comments\n")
        code, out, err = run_cli(capsys, *argv, "--params", str(f))
        assert (code, out, err) == (2, "", f"data error: parameter file {f} contains no data rows\n")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--params", "/no/such/file.csv")
        assert code == 2
        assert "/no/such/file.csv" in err

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_undecodable_file_exits_2(self, capsys, monkeypatch, tmp_path, source):
        f = tmp_path / "params.csv"
        f.write_bytes(b"X,uds,p pi-,0.5,0.3,0.0,+1,caf\xe9\n")  # Latin-1, not UTF-8
        if source == "env":
            monkeypatch.setenv("HYPERON_PARAMS", str(f))
            argv = ["table"]
        else:
            monkeypatch.delenv("HYPERON_PARAMS", raising=False)
            argv = ["table", "--params", str(f)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"data error: cannot read parameter file {f}: ")
        assert "utf-8" in err and "Traceback" not in err

    def test_env_var_lookup(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "params.csv"
        f.write_text("X,uds,p pi-,0.5,0.3,0.0,+1,note\n")
        monkeypatch.setenv("HYPERON_PARAMS", str(f))
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert parse_csv(out)[0]["parent"] == "X"

    def test_json_matches_csv(self, capsys):
        code, out_csv, _ = run_cli(capsys, "table")
        assert code == 0
        code, out_json, _ = run_cli(capsys, "--format", "json", "table")
        assert code == 0
        csv_rows = parse_csv(out_csv)
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key, jval in j.items():
                if isinstance(jval, float):
                    assert float(c[key]) == jval
                else:
                    assert str(jval) == c[key]


class TestComplementarity:
    def test_duality(self, capsys):
        code, out, _ = run_cli(capsys, "complementarity", "--theta", "1.0471975511965976")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["fitted_visibility"]) - np.sin(np.pi / 3)) < 1e-5
        assert abs(float(row["predictability"]) - 0.5) < 1e-5
        assert abs(float(row["vsq_plus_psq"]) - 1.0) < 1e-5

    def test_missing_theta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "complementarity")
        assert code == 1

    @pytest.mark.parametrize("value", ["7", "64"])
    def test_points_flag_is_refused(self, capsys, value):
        # the fringe grid is fixed at 64 points, so there is no grid flag
        code, out, err = run_cli(capsys, "complementarity", "--theta", "1", "--points", value)
        assert (code, out, err) == (1, "", f"usage error: unrecognized arguments: --points {value}\n")

    @pytest.mark.parametrize("angles, message", [
        (("--theta", "inf"), "theta = inf is not finite"),
        (("--theta", "1", "--phi", "inf"), "phi = inf is not finite"),
        (("--theta=-inf", "--phi", "1"), "theta = -inf is not finite"),
        (("--theta", "1", "--phi", "nan"), "phi = nan is not finite"),
    ])
    def test_non_finite_angle_exit_1(self, angles, message):
        # a fresh process, so that a numpy RuntimeWarning would reach its stderr
        result = run_entry("complementarity", *angles)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == f"error: {message}\n"


class TestSimulate:
    def test_pair_determinism(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run_cli(
                capsys, "--seed", "7", "simulate", "pair", "--k", "0.46",
                "--events", "20000", "--out", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_thread_invariance(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "--seed", "3", "--threads", "1", "simulate", "pair", "--k", "0.2",
                "--events", "70000", "--out", str(f1))
        run_cli(capsys, "--seed", "3", "--threads", "8", "simulate", "pair", "--k", "0.2",
                "--events", "70000", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_single_by_hyperon_name(self, capsys, tmp_path):
        f = tmp_path / "single.csv"
        code, _, _ = run_cli(
            capsys, "--seed", "5", "simulate", "single", "--hyperon", "Lambda",
            "--pol", "0,0,1", "--events", "200000", "--out", str(f),
        )
        assert code == 0
        from hyperon.dataio import read_events

        table = read_events(f)
        mean_z = table.n[:, 2].mean()
        assert abs(mean_z - 0.642 / 3.0) < 0.007

    def test_zero_events_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "pair", "--k", "0.2", "--events", "0")
        assert code == 1

    def test_events_past_64_bit_ids_exit_1(self, capsys, tmp_path):
        # refused when the config is made, before any event is drawn
        f = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "simulate", "pair", "--k", "0.2", "--events", str(2**64 + 5),
                                 "--out", str(f))
        assert code == 1
        assert err == "usage error: event count must be at least 1 and at most 2^64\n"
        assert out == "" and not f.exists()

    def test_negative_threads_exit_1(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        assert main(["simulate", "pair", "--k", "0.2", "--events", "10", "--out", str(events)]) == 0
        capsys.readouterr()
        f = tmp_path / "never.csv"
        # one message from every command that takes a worker count
        for argv in (("simulate", "pair", "--k", "0.2", "--events", "10"),
                     ("analyze", "witness", "--events", str(events))):
            code, out, err = run_cli(capsys, "--threads", "-1", *argv, "--out", str(f))
            assert code == 1
            assert err == "usage error: worker count must be non-negative, got -1\n"
            assert out == "" and not f.exists()

    def test_seed_out_of_range_exit_1(self, capsys, tmp_path):
        # one message from every command, whether it reads the seed or not
        f = tmp_path / "never.csv"
        for argv in (("simulate", "pair", "--k", "0.2", "--events", "10"), ("table",)):
            for seed in ("-5", str(2**64)):
                code, out, err = run_cli(capsys, "--seed", seed, *argv, "--out", str(f))
                assert code == 1
                assert err == "usage error: seed must fit in 64 bits\n"
                assert out == "" and not f.exists()

    @pytest.mark.parametrize("kind, flag, value", [
        *(("pair", f"--{prefix}{key}", value) for prefix in ("", "mu-", "nu-")
          for key, value in (("hyperon", "Lambda"), ("channel", "p pi-"), ("alpha", "0.5"),
                             ("phi-over-pi", "0"))),
        ("pair", "--pol", "0,0,0"),
        ("single", "--k", "0.2"),
        ("cascade", "--k", "0.2"),
        ("single", "--mu-alpha", "0.5"),
        ("cascade", "--hyperon", "Lambda"),
    ])
    def test_ignored_flag_exit_1(self, capsys, tmp_path, kind, flag, value):
        model = {"single": ("--alpha", "0.5"), "pair": ("--k", "0.2"),
                 "cascade": ("--mu-alpha", "0.5", "--nu-alpha", "0.5")}[kind]
        f = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "simulate", kind, *model, flag, value,
                                 "--events", "10", "--out", str(f))
        assert code == 1
        assert err == f"usage error: unrecognized arguments: {flag} {value}\n"
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("kind, argv, message", [
        # the channel selector of a decay given by alpha, and phi of a decay looked up by name
        ("single", ["--alpha", "0.5", "--channel", "x"], "--channel applies only with --hyperon"),
        ("cascade", ["--mu-hyperon", "Xi-", "--nu-alpha", "0.5", "--nu-channel", "x"],
         "--nu-channel applies only with --nu-hyperon"),
        ("single", ["--hyperon", "Lambda", "--phi-over-pi", "0.3"],
         "--phi-over-pi applies only with --alpha"),
        ("cascade", ["--mu-hyperon", "Xi-", "--mu-phi-over-pi", "0.3", "--nu-alpha", "0.5"],
         "--mu-phi-over-pi applies only with --mu-alpha"),
        # a parameter file that no decay looks up
        ("single", ["--alpha", "0.5", "--params", "/nope"], "--params applies only with --hyperon"),
        ("cascade", ["--mu-alpha", "0.5", "--nu-alpha", "0.5", "--params", "/nope"],
         "--params applies only with --mu-hyperon or --nu-hyperon"),
        ("pair", ["--k", "0.2", "--params", "/nope"], "unrecognized arguments: --params /nope"),
        # a decay both looked up and given by alpha
        ("single", ["--hyperon", "Lambda", "--alpha", "0.9"],
         "argument --alpha: not allowed with argument --hyperon"),
    ])
    def test_unused_decay_flag_exit_1(self, capsys, tmp_path, kind, argv, message):
        f = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "simulate", kind, *argv, "--events", "10", "--out", str(f))
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert not f.exists()

    def test_params_read_by_one_decay_of_a_cascade(self, capsys, tmp_path):
        table = tmp_path / "params.csv"
        table.write_text("X,uds,p pi-,0.5,0.3,0.0,+1,note\n")
        argv = ("simulate", "cascade", "--mu-alpha", "0.4", "--nu-hyperon", "X", "--events", "3")
        code, out, _ = run_cli(capsys, *argv, "--params", str(table))
        assert code == 0 and ",cascade-nu,alpha=0.4>X:ppi-," in out
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: no parameter row for 'X'\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_control_character_in_channel_is_data_error(self, capsys, tmp_path, threads):
        # the name is checked in format_blocks, on a sampling thread, before the file is opened
        table = tmp_path / "bad.csv"
        table.write_text("X,uds,p\tpi-,0.5,0.3,0.0,+1,note\n")
        f = tmp_path / "f.csv"
        code, out, err = run_cli(capsys, "--threads", threads, "simulate", "single", "--hyperon", "X",
                                 "--params", str(table), "--events", "40000", "--out", str(f))
        assert (code, out) == (2, "")
        assert err == "data error: channel name 'X:p\\tpi-' contains a comma or control character\n"
        assert not f.exists()

    # digest: the bytes of the cascade run, the same as when each decay loaded the table
    # (0.3.0-0.5.x, before the PCG64 stream:
    # 03abddfb7abda906e5efb3b294a6a9d67fa3a73fad7bc457422ddad9401c3126;
    # 0.2.x, before the keep-or-negate kernel:
    # 791c21421c9d3b1e19611b19e3e55d92f885c0fef0c08d62bde25810b81e3d49)
    @pytest.mark.parametrize("decays, loads, digest", [
        (("cascade", "--mu-hyperon", "Xi-", "--nu-hyperon", "Lambda"), 1,
         "aac451b901c6aa179ba0f5efbadb77e556f3d6e5c5b3a53bc033f1a476e04ed5"),
        (("cascade", "--mu-hyperon", "Xi-", "--nu-alpha", "0.5"), 1, None),
        (("single", "--alpha", "0.5"), 0, None),
    ])
    def test_parameter_table_loaded_at_most_once(self, capsys, monkeypatch, decays, loads, digest):
        from hyperon import params

        calls = []
        load = params.load_parameters
        monkeypatch.setattr(params, "load_parameters", lambda path: calls.append(path) or load(path))
        code, out, _ = run_cli(capsys, "--seed", "4", "simulate", *decays, "--events", "50")
        assert code == 0 and len(calls) == loads
        assert digest is None or hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ("simulate", "single", "--alpha", "0.5", "--pol", "nan,0,0"),
        ("simulate", "single", "--alpha", "nan"),
        ("simulate", "single", "--alpha", "0.5", "--phi-over-pi", "nan"),
        ("simulate", "single", "--alpha", "0.5", "--pol", "0,0"),
        ("simulate", "pair", "--k", "nan"),
        ("simulate", "cascade", "--mu-alpha", "0.5", "--nu-alpha", "nan"),
        ("simulate", "cascade", "--mu-alpha", "0.5", "--nu-alpha", "0.5", "--pol", "0,inf,0"),
        ("context", "--alpha", "nan", "--alphabar", "0.5"),
    ])
    def test_nan_or_bad_input_exit_1(self, capsys, tmp_path, argv):
        f = tmp_path / "never.csv"
        extra = ("--events", "10") if argv[0] == "simulate" else ()
        code, out, err = run_cli(capsys, *argv, *extra, "--out", str(f))
        assert code == 1
        assert err.startswith(("error: ", "usage error: ")) and "Traceback" not in err
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("given, missing", [("--nu-alpha", "mu"), ("--mu-alpha", "nu")])
    def test_cascade_names_the_missing_flag(self, capsys, given, missing):
        code, out, err = run_cli(capsys, "simulate", "cascade", "--events", "10", given, "0.5")
        assert code == 1 and out == ""
        assert err == f"usage error: one of the arguments --{missing}-hyperon --{missing}-alpha is required\n"

    def test_infinite_phi_is_one_line_error(self):
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "hyperon.cli", "simulate", "single", "--alpha", "0.5",
             "--phi-over-pi", "inf", "--events", "10"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "error: phi = inf is not finite\n"

    def test_overflowing_polarization_is_one_line_error(self):
        # |s| overflows to inf: the refusal alone, and no numpy warning, even with warnings as errors
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hyperon.cli", "simulate", "single", "--alpha", "0.5",
             "--pol=-1e308,0,0", "--events", "10"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "error: |polarization| exceeds 1 (got inf)\n"

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "pair", "--k", "0.2", "--events", "10",
                             "--frobnicate")
        assert code == 1

    def test_unknown_hyperon_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "single", "--hyperon", "Omega-",
                             "--events", "10")
        assert code == 1

    @pytest.mark.parametrize("argv, wanted", [
        (["--hyperon", "Nope"], "'Nope'"),
        (["--hyperon", "Lambda", "--channel", "zz"], "'Lambda -> zz'"),
    ], ids=["hyperon", "channel"])
    def test_unknown_channel_message(self, capsys, argv, wanted):
        # the message once quoted, not the repr of a KeyError's message
        code, out, err = run_cli(capsys, "simulate", "single", *argv, "--events", "10")
        assert (code, out, err) == (1, "", f"error: no parameter row for {wanted}\n")

    def test_cascade_by_names(self, capsys, tmp_path):
        f = tmp_path / "cascade.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "cascade", "--mu-hyperon", "Xi-", "--nu-hyperon", "Lambda",
            "--events", "1000", "--out", str(f),
        )
        assert code == 0
        from hyperon.dataio import read_events

        table = read_events(f)
        assert len(table) == 2000
        assert set(table.role) == {"cascade-mu", "cascade-nu"}

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "pair", "--k", "0.1", "--events", "3")
        assert code == 0
        assert out.startswith("event_id,role,channel")
        assert len(out.strip().splitlines()) == 7

    def test_closed_stdout_is_data_error(self):
        # a reader that stops after one line, as `| head -1` does
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperon.cli", "simulate", "pair", "--k", "0.46",
             "--events", "200000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"event_id,role,channel,nx,ny,nz\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
        finally:
            proc.kill()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert err.startswith("data error: cannot write event stream: ")
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ["table"], ["context", "--alpha", "0.75", "--alphabar", "0.75"], ["analyze", "witness", "--events"],
    ], ids=["table", "context", "analyze"])
    def test_closed_stdout_for_report_is_data_error(self, tmp_path, argv, unbuffered):
        # a reader that has gone before the report is written; unbuffered, the write
        # fails, and buffered, the flush after it
        if argv[0] == "analyze":
            events = tmp_path / "events.csv"
            assert main(["simulate", "pair", "--k", "0.46", "--events", "200", "--out", str(events)]) == 0
            argv = [*argv, str(events)]
        read, write = os.pipe()
        os.close(read)
        try:
            result = run_entry(*argv, unbuffered=unbuffered, stdout=write)
        finally:
            os.close(write)
        assert result.returncode == 2
        assert result.stderr.startswith("data error: cannot write report: ")
        assert result.stderr.count("\n") == 1


class TestAnalyze:
    @pytest.fixture()
    def pair_file(self, capsys, tmp_path):
        f = tmp_path / "pairs.csv"
        run_cli(capsys, "--seed", "11", "simulate", "pair", "--k", "0.46",
                "--events", "200000", "--out", str(f))
        return f

    def test_witness_entangled(self, capsys, pair_file):
        code, out, _ = run_cli(capsys, "analyze", "witness", "--events", str(pair_file))
        assert code == 0
        row = parse_csv(out)[0]
        assert row["verdict"] == "entangled"
        assert abs(float(row["witness"]) - (1.0 / 3.0 - 0.46)) < 0.02

    @staticmethod
    def verdict_in_memory(capsys, monkeypatch, seed, k, pairs):
        """The verdict of `analyze witness` on the pairs of `simulate pair --seed seed`, kept in memory."""
        from hyperon import cli, mc, pairs as pair_stats

        config = mc.SampleConfig(seed=seed, events=pairs, model=mc.PairCorrelationModel(k=k), workers=1)
        table = mc.generate(config)
        moments = pair_stats.PairMoments.of(table.directions_by_role("pair-1"),
                                            table.directions_by_role("pair-2"))
        monkeypatch.setattr(cli, "_pair_moments", lambda args: moments)
        code, out, _ = run_cli(capsys, "analyze", "witness", "--events", "unread.csv")
        assert code == 0
        return parse_csv(out)[0]["verdict"]

    def test_witness_at_separable_edge_rarely_entangled(self, capsys, monkeypatch):
        # k = 1/3 is the separable edge, witness 0: a verdict on the sign alone says "entangled"
        # for about half the seeds, the 3-standard-error rule for about 0.13%, 0.5 of 400
        verdicts = [self.verdict_in_memory(capsys, monkeypatch, seed, 1.0 / 3.0, 200) for seed in range(400)]
        assert verdicts.count("entangled") <= 4
        assert set(verdicts) <= {"entangled", "not detected"}

    def test_witness_entangled_at_a_million_pairs(self, capsys, monkeypatch):
        # witness 1/3 - 0.46 = -0.127 against a standard error of about 0.0017
        assert self.verdict_in_memory(capsys, monkeypatch, 11, 0.46, 1_000_000) == "entangled"

    def test_witness_below_threshold(self, capsys, tmp_path):
        f = tmp_path / "weak.csv"
        run_cli(capsys, "--seed", "12", "simulate", "pair", "--k", "0.2",
                "--events", "100000", "--out", str(f))
        code, out, _ = run_cli(capsys, "analyze", "witness", "--events", str(f))
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["witness"]) > 0.0
        assert row["verdict"] == "not detected"

    def test_single_file_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "single.csv"
        run_cli(capsys, "simulate", "single", "--alpha", "0.5", "--events", "500",
                "--out", str(f))
        code, _, err = run_cli(capsys, "analyze", "witness", "--events", str(f))
        assert code == 2
        assert "pair" in err

    def test_correlations(self, capsys, pair_file):
        code, out, _ = run_cli(capsys, "analyze", "correlations", "--events", str(pair_file))
        assert code == 0
        row = parse_csv(out)[0]
        assert row["mode"] == "raw"
        for d in ("m_xx", "m_yy", "m_zz"):
            assert abs(float(row[d]) - (-0.46)) < 0.03

    def test_correlations_renormalized(self, capsys, pair_file):
        code, out, _ = run_cli(
            capsys, "analyze", "correlations", "--events", str(pair_file),
            "--renormalize", "--alpha", "0.678233", "--alphabar", "0.678233",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert "non-Bell-admissible" in row["mode"]
        for d in ("m_xx", "m_yy", "m_zz"):
            assert abs(float(row[d]) - (-1.0)) < 0.05

    @pytest.mark.parametrize("event_id", ["-1", "18446744073709551616"])
    def test_bad_event_id_is_data_error(self, tmp_path, event_id):
        f = tmp_path / "pairs.csv"
        f.write_text(f"event_id,role,channel,nx,ny,nz\n{event_id},pair-1,x,0,0,1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "hyperon.cli", "analyze", "witness", "--events", str(f)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"{f}:2:" in result.stderr

    @pytest.mark.parametrize("flags", [("--alpha", "0.642", "--alphabar", "0.71"), ("--alphabar", "0.71")])
    def test_alphas_without_renormalize_exit_1(self, tmp_path, flags):
        # the flags would otherwise be ignored: the raw matrix printed with exit 0
        f = tmp_path / "pairs.csv"
        f.write_text("event_id,role,channel,nx,ny,nz\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "hyperon.cli", "analyze", "correlations", "--events", str(f), *flags],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "usage error: --alpha and --alphabar apply only with --renormalize\n"

    @pytest.mark.parametrize("flags, refused", [
        (["--alpha", "0.5"], "--alpha"),
        (["--alphabar", "0.5"], "--alphabar"),
        (["--renormalize"], "--renormalize"),
        (["--renormalize", "--alpha", "0.5", "--alphabar", "0.5"], "--alpha"),
    ])
    def test_witness_refuses_correlation_flags(self, capsys, tmp_path, flags, refused):
        # the witness takes no model: these flags would be ignored with exit 0
        f = tmp_path / "pairs.csv"
        f.write_text("event_id,role,channel,nx,ny,nz\n")
        code, out, err = run_cli(capsys, "analyze", "witness", "--events", str(f), *flags)
        assert code == 1 and out == ""
        assert err == f"usage error: unrecognized arguments: {' '.join(flags)}\n"
        assert refused in err

    def test_long_event_id_is_one_line_data_error(self, capsys, tmp_path):
        # an id of 25 digits, more than a uint64 holds, in a 3,000-row file: exit 2 and one line
        f = tmp_path / "pairs.csv"
        run_cli(capsys, "simulate", "pair", "--k", "0.46", "--events", "1500", "--out", str(f))
        lines = f.read_text().splitlines(keepends=True)
        lines[1000] = "1234567890123456789012345" + lines[1000][lines[1000].index(","):]
        f.write_text("".join(lines))
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "hyperon.cli", "analyze", "witness", "--events", str(f)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == (f"data error: {f}:1001: could not convert string "
                                 "'1234567890123456789012345' to uint64 in field 1 (last good event id: 499)\n")

    def test_renormalize_needs_alphas(self, capsys, pair_file):
        code, _, _ = run_cli(capsys, "analyze", "correlations", "--events", str(pair_file),
                             "--renormalize")
        assert code == 1


class TestBell:
    def test_published_k_no_violation(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--inequality", "I2", "--k", "0.46")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["max_value"]) - (-0.1747)) < 1e-3
        assert row["verdict"] == "no violation possible"
        assert row["settings"].startswith("a1=")

    def test_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--inequality", "I2", "--threshold")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["threshold"]) - 1.0 / np.sqrt(2.0)) < 1e-3

    def test_k_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "bell", "--inequality", "I2", "--k", "1.5")
        assert code == 1

    def test_missing_k(self, capsys):
        code, _, _ = run_cli(capsys, "bell", "--inequality", "I2")
        assert code == 1

    @pytest.mark.parametrize("goal", [("--k", "0.5"), ("--threshold",)])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), "99999999999999999999999"])
    def test_seed_out_of_range_exit_1(self, capsys, goal, seed):
        code, out, err = run_cli(capsys, "bell", "--inequality", "I3", *goal, "--seed", seed)
        assert code == 1 and out == ""
        assert err == "usage error: seed must fit in 64 bits\n"

    def test_largest_seed(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--inequality", "I2", "--threshold", "--seed", str(2**64 - 1))
        assert code == 0 and parse_csv(out)[0]["inequality"] == "I2"

    @pytest.mark.parametrize("goal", [("--k", "0.46"), ("--threshold",)])
    @pytest.mark.parametrize("inequality", ["I2", "I3", "I4"])
    def test_report_independent_of_seed(self, capsys, inequality, goal):
        # the see-saw runs from fixed starts, so --seed changes nothing, settings included
        outs = {run_cli(capsys, "--seed", seed, "bell", "--inequality", inequality, *goal)
                for seed in ("1", "2", str(2**64 - 1))}
        assert len(outs) == 1 and next(iter(outs))[0] == 0

    # the verdict of every (inequality, k) that CI runs, as before the certified bound decided it
    @pytest.mark.parametrize("inequality, k, verdict", [
        *((name, k, "no violation possible") for name in ("I2", "I3", "I4") for k in ("0", "0.46", "0.7071")),
        *((name, k, "violation") for name in ("I2", "I3", "I4") for k in ("0.9", "1")),
    ])
    def test_verdict(self, capsys, inequality, k, verdict):
        code, out, _ = run_cli(capsys, "bell", "--inequality", inequality, "--k", k)
        assert code == 0 and parse_csv(out)[0]["verdict"] == verdict

    # a relative 1e-9 either side of k* = 1/sqrt(2), 4/5 and 7 sqrt(2)/11 is far outside the
    # certificate's 1e-12 slack, so the bound decides each verdict
    @pytest.mark.parametrize("side, verdict", [(-1.0, "no violation possible"), (1.0, "violation")],
                             ids=["below", "above"])
    @pytest.mark.parametrize("inequality, k_star", [
        ("I2", 1.0 / np.sqrt(2.0)), ("I3", 0.8), ("I4", 7.0 * np.sqrt(2.0) / 11.0),
    ], ids=["I2", "I3", "I4"])
    def test_verdict_beside_threshold(self, capsys, inequality, k_star, side, verdict):
        k = repr(float(k_star * (1.0 + side * 1e-9)))
        code, out, _ = run_cli(capsys, "bell", "--inequality", inequality, "--k", k)
        assert code == 0 and parse_csv(out)[0]["verdict"] == verdict

    @pytest.mark.parametrize("k, verdict", [("0.46", "undecided"), ("1", "violation")])
    def test_no_proof_is_undecided(self, capsys, monkeypatch, k, verdict):
        # "no violation possible" needs the bound; a certificate that proves nothing leaves a
        # value below 0 undecided, and a value above 0 is a violation whatever the bound
        from hyperon import inequalities

        certificate = inequalities._certificate

        def never_certifies(c, a, b):
            value, _ = certificate(c, a, b)
            return value, value + 10.0

        monkeypatch.setattr(inequalities, "_certificate", never_certifies)
        code, out, _ = run_cli(capsys, "bell", "--inequality", "I2", "--k", k)
        assert code == 0 and parse_csv(out)[0]["verdict"] == verdict

    def test_threshold_refuses_k(self, capsys):
        code, out, err = run_cli(capsys, "bell", "--inequality", "I2", "--threshold", "--k", "0.46")
        assert code == 1 and out == ""
        assert err == "usage error: argument --k: not allowed with argument --threshold\n"


class TestContext:
    def test_ideal(self, capsys):
        code, out, _ = run_cli(capsys, "context", "--alpha", "1", "--alphabar", "1")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["value"]) == 6.0
        assert row["verdict"] == "contextual"
        assert row["claim_consistent_with_formula"] == "false"

    def test_published_point(self, capsys):
        a = str(np.sqrt(0.46))
        code, out, _ = run_cli(capsys, "context", "--alpha", a, "--alphabar", a)
        row = parse_csv(out)[0]
        assert abs(float(row["value"]) - 1.041) < 1e-3
        assert row["verdict"] == "no violation"
        assert abs(float(row["equal_alpha_formula_root"]) - 0.9161) < 1e-3


class TestNegativeValues:
    # argparse takes only plain decimals such as -0.1 for negative numbers; every
    # negative number that float() reads is the value of the flag before it
    @pytest.mark.parametrize("argv, code, err", [
        (("context", "--alpha", "-1e-1", "--alphabar", "1"), 0, ""),
        (("simulate", "single", "--alpha", "-.5E0", "--events", "2"), 0, ""),
        (("bell", "--inequality", "I2", "--k", "-1e-3"), 1, "usage error: --k must lie in [0, 1], got -0.001\n"),
        (("complementarity", "--theta", "-inf"), 1, "error: theta = -inf is not finite\n"),
        (("context", "--alpha", "-NaN", "--alphabar", "1"), 1, "error: analyzing powers must lie in [-1, 1]\n"),
    ], ids=["exponent", "dot-exponent", "exponent-refused", "-inf", "-nan"])
    def test_number_is_a_value(self, capsys, argv, code, err):
        got = run_cli(capsys, *argv)
        assert got[0] == code and got[2] == err
        assert (got[1] != "") == (code == 0)

    @pytest.mark.parametrize("word", ["--bogus", "-bogus", "-1e"])
    def test_other_dash_words_still_refused(self, capsys, word):
        code, out, err = run_cli(capsys, "context", "--alpha", "1", "--alphabar", "1", word)
        assert (code, out, err) == (1, "", f"usage error: unrecognized arguments: {word}\n")


class TestBadNumbers:
    """Every numeric flag of every command, given an edge value or a non-number, reports or fails in one line.

    Each command line below is valid; the flag is appended after it, so its value is the one
    that counts.  A value that fails gives exit code 1 or 2, exactly one stderr line naming the
    kind of error, and no file at --out or beside it; none may raise, or warn (warnings are
    errors here).
    """

    VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "-0.0", "1e-320", str(2**64), "", "x"]
    COMMANDS = {
        "table": (("table",), ("--seed", "--threads")),
        "bell": (("bell", "--inequality", "I3", "--k", "0.5"), ("--k", "--seed", "--threads")),
        "context": (("context", "--alpha", "0.5", "--alphabar", "0.5"),
                    ("--alpha", "--alphabar", "--seed", "--threads")),
        # --points is no flag (the fringe grid is fixed at 64), and is refused in one line too
        "complementarity": (("complementarity", "--theta", "1"),
                            ("--theta", "--phi", "--points", "--seed", "--threads")),
        "pair": (("simulate", "pair", "--k", "0.5", "--events", "1000"),
                 ("--k", "--events", "--seed", "--threads")),
        "single": (("simulate", "single", "--alpha", "0.5", "--events", "1000"),
                   ("--alpha", "--phi-over-pi", "--pol", "--events", "--seed", "--threads")),
        "cascade": (("simulate", "cascade", "--mu-alpha", "0.5", "--nu-alpha", "-0.5", "--events", "1000"),
                    ("--mu-alpha", "--nu-alpha", "--mu-phi-over-pi", "--nu-phi-over-pi", "--pol", "--events",
                     "--seed", "--threads")),
        "witness": (("analyze", "witness", "--events", "{events}"), ("--seed", "--threads")),
        "correlations": (("analyze", "correlations", "--events", "{events}", "--renormalize",
                          "--alpha", "0.6", "--alphabar", "0.7"), ("--alpha", "--alphabar", "--threads", "--seed")),
    }

    @pytest.fixture(scope="class")
    def events(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("bad-numbers") / "pairs.csv"
        assert main(["simulate", "pair", "--k", "0.46", "--events", "1000", "--out", str(f)]) == 0
        return f

    def test_every_numeric_flag_is_listed(self):
        # the int and float flags, and the --pol vector, of each command the parser runs
        def commands(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from commands(sub) if sub._subparsers else [(name, sub)]

        numeric = {name: {flag for action in sub._actions if action.type in (int, float) or action.dest == "pol"
                          for flag in action.option_strings}
                   for name, sub in commands(build_parser())}
        assert numeric == {command: set(flags) - {"--points"} for command, (_, flags) in self.COMMANDS.items()}

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in COMMANDS.items() for flag in flags
    ])
    def test_exit_code_one_line_no_file(self, capsys, tmp_path, events, command, flag, value):
        argv, _ = self.COMMANDS[command]
        out = tmp_path / "out.csv"
        argv = [a.format(events=events) for a in argv]
        if flag == "--pol":
            value = f"{value},0,0"
        elif flag == "--events" and value == str(2**64):  # a valid count, which no test can wait for
            value = str(2**64 + 1)
        argv += [flag, value, "--out", str(out)]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code != 0:
            assert err.count("\n") == 1 and err.startswith(("usage error: ", "error: ", "data error: "))
            assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_reports_identical_across_runs(self, capsys):
        outputs = set()
        for _ in range(2):
            code, out, _ = run_cli(capsys, "--seed", "9", "bell", "--inequality", "I2",
                                   "--k", "0.46")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        f = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "context", "--alpha", "0.5", "--alphabar", "0.5")
        code2, _, _ = run_cli(capsys, "--out", str(f), "context", "--alpha", "0.5",
                              "--alphabar", "0.5")
        assert code == 0 and code2 == 0
        assert f.read_text() == out


class TestPinnedReports:
    """Reports pinned digit for digit: their arithmetic may be rewritten, their output may not."""

    THRESHOLD_CSV = {"I2": "inequality,threshold\nI2,0.707107\n", "I3": "inequality,threshold\nI3,0.8\n",
                     "I4": "inequality,threshold\nI4,0.899954\n"}
    THRESHOLD_JSON = {
        "I2": '[\n  {\n    "inequality": "I2",\n    "threshold": 0.707107\n  }\n]\n',
        "I3": '[\n  {\n    "inequality": "I3",\n    "threshold": 0.8\n  }\n]\n',
        "I4": '[\n  {\n    "inequality": "I4",\n    "threshold": 0.899954\n  }\n]\n',
    }
    TABLE_CSV = """\
parent,channel,branching,chi_sp_over_pi,visibility,predictability
Lambda,p pi-,0.639,-0.0427737,0.64784,0.761776
Lambda,n pi0,0.358,-0.0418846,0.655668,0.755049
Lambdabar,pbar pi+,0.639,0.0355904,0.714461,0.699675
Sigma-,n pi-,0.998,-0.380943,0.186114,0.982528
Sigma+,p pi0,0.516,-0.037813,0.986956,0.160992
Sigma+,n pi+,0.483,0.406354,0.234506,0.972115
Xi0,Lambda pi0,0.995,0.216065,0.521626,0.853174
Xi-,Lambda pi-,0.998,0.0226012,0.459157,0.888355
"""
    TABLE_JSON = """\
[
  {
    "parent": "Lambda",
    "channel": "p pi-",
    "branching": 0.639,
    "chi_sp_over_pi": -0.0427737,
    "visibility": 0.64784,
    "predictability": 0.761776
  },
  {
    "parent": "Lambda",
    "channel": "n pi0",
    "branching": 0.358,
    "chi_sp_over_pi": -0.0418846,
    "visibility": 0.655668,
    "predictability": 0.755049
  },
  {
    "parent": "Lambdabar",
    "channel": "pbar pi+",
    "branching": 0.639,
    "chi_sp_over_pi": 0.0355904,
    "visibility": 0.714461,
    "predictability": 0.699675
  },
  {
    "parent": "Sigma-",
    "channel": "n pi-",
    "branching": 0.998,
    "chi_sp_over_pi": -0.380943,
    "visibility": 0.186114,
    "predictability": 0.982528
  },
  {
    "parent": "Sigma+",
    "channel": "p pi0",
    "branching": 0.516,
    "chi_sp_over_pi": -0.037813,
    "visibility": 0.986956,
    "predictability": 0.160992
  },
  {
    "parent": "Sigma+",
    "channel": "n pi+",
    "branching": 0.483,
    "chi_sp_over_pi": 0.406354,
    "visibility": 0.234506,
    "predictability": 0.972115
  },
  {
    "parent": "Xi0",
    "channel": "Lambda pi0",
    "branching": 0.995,
    "chi_sp_over_pi": 0.216065,
    "visibility": 0.521626,
    "predictability": 0.853174
  },
  {
    "parent": "Xi-",
    "channel": "Lambda pi-",
    "branching": 0.998,
    "chi_sp_over_pi": 0.0226012,
    "visibility": 0.459157,
    "predictability": 0.888355
  }
]
"""
    CONTEXT_CSV = (
        "alpha,alphabar,value,classical_bound,verdict,equal_alpha_formula_root,"
        "published_equal_alpha_claim,claim_consistent_with_formula\n"
        "0.75,0.75,1.62158,4,no violation,0.916126,0.88,false\n"
    )
    CONTEXT_JSON = """\
[
  {
    "alpha": 0.75,
    "alphabar": 0.75,
    "value": 1.62158,
    "classical_bound": 4.0,
    "verdict": "no violation",
    "equal_alpha_formula_root": 0.916126,
    "published_equal_alpha_claim": 0.88,
    "claim_consistent_with_formula": false
  }
]
"""
    COMPLEMENTARITY_CSV = (
        "theta,phi,fitted_visibility,analytic_visibility,predictability,vsq_plus_psq\n"
        "1.0472,{phi},0.866027,0.866027,0.499998,1\n"
    )
    COMPLEMENTARITY_JSON = """\
[
  {{
    "theta": 1.0472,
    "phi": {phi},
    "fitted_visibility": 0.866027,
    "analytic_visibility": 0.866027,
    "predictability": 0.499998,
    "vsq_plus_psq": 1.0
  }}
]
"""
    # inequality, k, max_value and verdict; the settings column is the see-saw's own choice
    MAXIMUM = {"I2": "I2,0.46,-0.174731,no violation possible",
               "I3": "I3,0.46,-0.425,no violation possible",
               "I4": "I4,0.46,-0.85551,no violation possible"}

    @pytest.mark.parametrize("inequality", ["I2", "I3", "I4"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_threshold(self, capsys, fmt, inequality):
        code, out, _ = run_cli(capsys, "--format", fmt, "bell", "--inequality", inequality, "--threshold")
        pinned = self.THRESHOLD_CSV if fmt == "csv" else self.THRESHOLD_JSON
        assert (code, out) == (0, pinned[inequality])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table(self, capsys, monkeypatch, fmt):
        monkeypatch.delenv("HYPERON_PARAMS", raising=False)
        code, out, _ = run_cli(capsys, "--format", fmt, "table")
        assert (code, out) == (0, self.TABLE_CSV if fmt == "csv" else self.TABLE_JSON)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_context(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "--format", fmt, "context", "--alpha", "0.75", "--alphabar", "0.75")
        assert (code, out) == (0, self.CONTEXT_CSV if fmt == "csv" else self.CONTEXT_JSON)

    @pytest.mark.parametrize("flags, phi", [((), ("0", "0.0")), (("--phi", "0.7"), ("0.7", "0.7"))],
                             ids=["default", "phi-0.7"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_complementarity(self, capsys, fmt, flags, phi):
        code, out, _ = run_cli(capsys, "--format", fmt, "complementarity", "--theta", "1.0472", *flags)
        pinned = self.COMPLEMENTARITY_CSV.format(phi=phi[0]) if fmt == "csv" else \
            self.COMPLEMENTARITY_JSON.format(phi=phi[1])
        assert (code, out) == (0, pinned)

    @pytest.mark.parametrize("inequality", ["I2", "I3", "I4"])
    def test_maximum(self, capsys, inequality):
        code, out, _ = run_cli(capsys, "bell", "--inequality", inequality, "--k", "0.46")
        header, row = out.splitlines()
        assert code == 0 and header == "inequality,k,max_value,verdict,settings"
        assert row.rsplit(",", 1)[0] == self.MAXIMUM[inequality]


class TestGlobalFlags:
    """--seed, --threads, --out and --format go before the subcommand, after
    it, or in both places, where the later one wins."""

    @staticmethod
    def placed(flag, value, where, earlier):
        """(argv before, argv after) the subcommand; `earlier` loses to `value` in "both"."""
        return {
            "before": ([flag, value], []),
            "after": ([], [flag, value]),
            "both": ([flag, earlier], [flag, value]),
        }[where]

    @pytest.mark.parametrize("levels", [
        levels for count in (1, 2, 3) for levels in itertools.combinations(("root", "command", "kind"), count)
    ], ids="-".join)
    def test_root_command_and_kind_levels(self, capsys, tmp_path, levels):
        """Each flag at the root, after simulate or analyze, and after the kind word; the last wins."""

        def argv(command, kind, rest, flag, last, earlier):
            given = {level: [flag, earlier] for level in levels[:-1]}
            given[levels[-1]] = [flag, last]
            return [*given.get("root", []), command, *given.get("command", []),
                    kind, *rest, *given.get("kind", [])]

        pair = ["--k", "0.2", "--events", "100"]  # the fewest the witness takes
        _, seed_1, _ = run_cli(capsys, "simulate", "pair", *pair)
        _, seed_3, _ = run_cli(capsys, "simulate", "pair", *pair, "--seed", "3")
        assert seed_1 != seed_3
        code, out, _ = run_cli(capsys, *argv("simulate", "pair", pair, "--seed", "3", "1"))
        assert code == 0 and out == seed_3

        code, out, err = run_cli(capsys, *argv("simulate", "pair", pair, "--threads", "-1", "1"))
        assert code == 1 and out == "" and "worker count" in err
        code, out, _ = run_cli(capsys, *argv("simulate", "pair", pair, "--threads", "1", "-1"))
        assert code == 0 and out == seed_1

        target, other = tmp_path / "target.csv", tmp_path / "other.csv"
        code, out, _ = run_cli(capsys, *argv("simulate", "pair", pair, "--out", str(target), str(other)))
        assert code == 0 and out == "" and target.read_text() == seed_1 and not other.exists()

        witness = ["--events", str(target)]
        code, out, _ = run_cli(capsys, *argv("analyze", "witness", witness, "--format", "json", "csv"))
        assert code == 0 and json.loads(out)[0]["n_pairs"] == 100
        code, out, _ = run_cli(capsys, *argv("analyze", "witness", witness, "--format", "csv", "json"))
        assert code == 0 and parse_csv(out)[0]["n_pairs"] == "100"

    @pytest.mark.parametrize("where", ["before", "after", "both"])
    def test_seed(self, capsys, where):
        pair = ("simulate", "pair", "--k", "0.2", "--events", "5")
        _, default_seed, _ = run_cli(capsys, *pair)
        _, seed_7, _ = run_cli(capsys, "--seed", "7", *pair)
        assert seed_7 != default_seed
        before, after = self.placed("--seed", "7", where, earlier="3")
        code, out, _ = run_cli(capsys, *before, *pair, *after)
        assert code == 0 and out == seed_7

    @pytest.mark.parametrize("where", ["before", "after", "both"])
    def test_threads(self, capsys, where):
        pair = ("simulate", "pair", "--k", "0.2", "--events", "5")
        before, after = self.placed("--threads", "-1", where, earlier="1")
        code, out, err = run_cli(capsys, *before, *pair, *after)
        assert code == 1 and out == "" and "worker count" in err
        before, after = self.placed("--threads", "1", where, earlier="-1")
        code, out, _ = run_cli(capsys, *before, *pair, *after)
        assert code == 0 and out.startswith("event_id,role,channel")

    @pytest.mark.parametrize("where", ["before", "after", "both"])
    def test_out(self, capsys, tmp_path, where):
        report = ("context", "--alpha", "0.5", "--alphabar", "0.5")
        _, expected, _ = run_cli(capsys, *report)
        target, other = tmp_path / "target.csv", tmp_path / "other.csv"
        before, after = self.placed("--out", str(target), where, earlier=str(other))
        code, out, _ = run_cli(capsys, *before, *report, *after)
        assert code == 0 and out == ""
        assert target.read_text() == expected and not other.exists()

    @pytest.mark.parametrize("where", ["before", "after", "both"])
    def test_format(self, capsys, where):
        report = ("context", "--alpha", "0.5", "--alphabar", "0.5")
        before, after = self.placed("--format", "json", where, earlier="csv")
        code, out, _ = run_cli(capsys, *before, *report, *after)
        assert code == 0 and json.loads(out)[0]["alpha"] == 0.5
        before, after = self.placed("--format", "csv", where, earlier="json")
        code, out, _ = run_cli(capsys, *before, *report, *after)
        assert code == 0 and parse_csv(out)[0]["alpha"] == "0.5"

    @pytest.mark.parametrize("command", [
        (), ("table",), ("complementarity",), ("simulate",), ("analyze",), ("bell",), ("context",),
        ("simulate", "single"), ("simulate", "pair"), ("simulate", "cascade"),
        ("analyze", "witness"), ("analyze", "correlations"),
    ])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(" ".join(("usage: hyperon", *command)))


class TestReportOut:
    def test_unwritable_out_is_data_error(self, tmp_path):
        out = tmp_path / "missing-dir" / "table.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "hyperon.cli", "table", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"cannot write {out}" in result.stderr
        assert result.stdout == "" and not out.exists()



class TestOutPaths:
    """--out of a report and of an event file at each kind of path, run as `python -m hyperon.cli`.

    A write either gives the whole output and exit code 0, or exit code 2,
    one stderr line and no traceback; a file already there is replaced
    whole or kept byte for byte, and no `.name.*` temporary file is left
    beside the target.
    """

    # the JSON table report is 1,396 bytes and the pair events 24,412: both longer than LIMIT
    COMMANDS = {"table": ("--format", "json", "table"),
                "simulate": ("simulate", "pair", "--k", "0.46", "--events", "200")}
    LIMIT = 1000  # RLIMIT_FSIZE of a failing write, in bytes

    @staticmethod
    def run(command: str, out, limit: int | None = None) -> subprocess.CompletedProcess:
        def preexec():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        return run_entry(*TestOutPaths.COMMANDS[command], "--out", str(out),
                         preexec_fn=None if limit is None else preexec)

    @pytest.fixture(scope="class")
    def want(self) -> dict[str, str]:
        """Each command's output to stdout."""
        return {command: run_entry(*argv).stdout for command, argv in self.COMMANDS.items()}

    @staticmethod
    def check(result, command: str, out, code: int) -> None:
        assert result.returncode == code and "Traceback" not in result.stderr
        if code == 0:
            assert result.stderr == ("" if command == "table" else f"wrote 400 records to {out}\n")
        else:
            what = "" if command == "table" else "event file "
            assert result.stderr.startswith(f"data error: cannot write {what}{out}: ")
            assert result.stderr.count("\n") == 1
        assert result.stdout == ""
        if Path(out).parent.is_dir():
            assert [p for p in Path(out).parent.iterdir() if p.name.startswith(f".{Path(out).name}.")] == []

    @staticmethod
    def error_line(command: str, out, error: str) -> str:
        """The whole stderr of a write to `out` that fails with `error`, naming --out as given."""
        what = "" if command == "table" else "event file "
        return f"data error: cannot write {what}{out}: {error}: '{out}'\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_directory(self, tmp_path, command):
        result = self.run(command, tmp_path)
        self.check(result, command, tmp_path, 2)
        assert result.stderr == self.error_line(command, tmp_path, "[Errno 21] Is a directory")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_missing_directory(self, tmp_path, command):
        out = tmp_path / "missing" / "out.csv"
        result = self.run(command, out)
        self.check(result, command, out, 2)
        assert result.stderr == self.error_line(command, out, "[Errno 2] No such file or directory")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_write_that_fails_part_way(self, tmp_path, want, command):
        # a new file: none is left; a complete file already there: kept byte for byte, and its mode
        out = tmp_path / "out.csv"
        result = self.run(command, out, limit=self.LIMIT)
        self.check(result, command, out, 2)
        assert "File too large" in result.stderr and list(tmp_path.iterdir()) == []
        self.check(self.run(command, out), command, out, 0)
        out.chmod(0o600)
        result = self.run(command, out, limit=self.LIMIT)
        self.check(result, command, out, 2)
        assert list(tmp_path.iterdir()) == [out] and out.read_text(encoding="utf-8") == want[command]
        assert stat.S_IMODE(out.stat().st_mode) == 0o600

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_existing_file_replaced_with_its_mode(self, tmp_path, want, command):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        self.check(self.run(command, out), command, out, 0)
        assert out.read_text(encoding="utf-8") == want[command]
        assert stat.S_IMODE(out.stat().st_mode) == 0o640 and list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_symlink(self, tmp_path, want, command):
        # the link's target is replaced, and the link kept; a failed write leaves both as they were
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        self.check(self.run(command, link, limit=self.LIMIT), command, link, 2)
        assert link.is_symlink() and target.read_text() == "old\n"
        self.check(self.run(command, link), command, link, 0)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == want[command]
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_dev_null(self, command):
        self.check(self.run(command, "/dev/null"), command, "/dev/null", 0)
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_dev_full(self, command):
        try:
            with open("/dev/full", "wb", buffering=0) as f:
                f.write(b"x")
        except OSError:
            pass
        else:
            pytest.skip("a write to /dev/full succeeds here")
        result = self.run(command, "/dev/full")
        self.check(result, command, "/dev/full", 2)
        assert "No space left on device" in result.stderr

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_fifo(self, tmp_path, want, command):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            self.check(self.run(command, fifo), command, fifo, 0)
        finally:
            reader.join(timeout=60)
        assert got == [want[command].encode()] and stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.parametrize("argv", [("context", "--alpha", "0.5", "--alphabar", "0.5"), COMMANDS["simulate"]],
                             ids=["context", "simulate"])
    def test_dev_stdout_follows_what_stdout_holds(self, tmp_path, argv):
        # /dev/stdout of a stdout sent to a file opens that file: written through stdout, never renamed over
        out = tmp_path / "o.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        with open(out, "w") as f:
            result = subprocess.run(["sh", "-c", 'echo first; "$@" --out /dev/stdout; echo done', "sh",
                                     sys.executable, "-m", "hyperon.cli", *argv],
                                    env=env, stdout=f, stderr=subprocess.PIPE, text=True, timeout=60)
        assert result.returncode == 0 and "Traceback" not in result.stderr
        assert out.read_text(encoding="utf-8") == f"first\n{run_entry(*argv).stdout}done\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_sigterm_mid_write_leaves_the_old_file(self, tmp_path):
        # the old file is kept whole, and the new one stays behind as a hidden temporary file
        out = tmp_path / "big.csv"
        out.write_bytes(b"old\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "hyperon.cli", "--threads", "1", "simulate", "pair",
                                 "--k", "0.46", "--events", "5000000", "--out", str(out)],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not any(p.name.startswith(".big.csv.") and p.stat().st_size for p in tmp_path.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
        finally:
            proc.kill()
            proc.wait()
        assert out.read_bytes() == b"old\n"
        assert len(list(tmp_path.iterdir())) == 2


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # scipy is needed by the tests only; importing it costs every CLI start
        code = (
            "import sys, hyperon.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "if loaded: sys.exit('scipy modules loaded: ' + ', '.join(loaded))\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    # a fresh interpreter that has not imported numpy, so numpy loaded by the CLI shows: the
    # reports of bell, table, context and complementarity are scalar work and load none;
    # simulate's sampler is the control that does
    @pytest.mark.parametrize("argv, code, numpy_loaded", [
        (None, None, False),
        (["--help"], 0, False),
        (["bell"], 1, False),
        (["--seed", "-1", "context", "--alpha", "1", "--alphabar", "1"], 1, False),
        (["bell", "--inequality", "I4", "--threshold"], 0, False),
        (["bell", "--inequality", "I2", "--k", "0.46"], 0, False),
        (["table"], 0, False),
        (["context", "--alpha", "1", "--alphabar", "1"], 0, False),
        (["complementarity", "--theta", "1.0472"], 0, False),
        (["simulate", "pair", "--k", "0.46", "--events", "10"], 0, True),
    ], ids=["build_parser", "help", "bell-without-inequality", "negative-seed", "bell-threshold",
            "bell-k", "table", "context", "complementarity", "command"])
    def test_numpy_loads_only_when_a_command_runs(self, argv, code, numpy_loaded):
        call = "hyperon.cli.build_parser()\ncode = None\n" if argv is None else (
            "try:\n"
            f"    code = hyperon.cli.main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
        )
        result = run_fresh(
            "import sys, hyperon.cli\n" + call
            + "print(code, any(m.split('.')[0] == 'numpy' for m in sys.modules), file=sys.stderr)\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == f"{code} {numpy_loaded}"

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("4", "4")])
    def test_run_pins_openblas_unless_set(self, preset, want):
        # run() sets the variable before main(), so before any command loads numpy
        result = run_fresh(
            "import os, sys, hyperon.cli\n"
            "def main():\n"
            "    print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
            "    return 0\n"
            "hyperon.cli.main = main\n"
            "hyperon.cli.run()\n",
            OPENBLAS_NUM_THREADS=preset,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, f"{want} False\n", "")

    def test_main_leaves_the_environment_alone(self):
        result = run_fresh(
            "import os\n"
            "before = dict(os.environ)\n"
            "import hyperon.cli\n"
            "code = hyperon.cli.main(['bell', '--inequality', 'I2', '--threshold'])\n"
            "print(code, dict(os.environ) == before)\n",
            OPENBLAS_NUM_THREADS=None,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 True"

    # the hyperon modules each command loads, and which of these standard
    # modules it loads beyond what numpy and argparse load
    STDLIB = ("concurrent.futures", "dataclasses", "logging", "json")
    # the reports' records are frozen classes on hyperon._record, which loads no dataclasses
    # (and through it inspect); the sampler's records are dataclasses
    BASE = {"hyperon", "hyperon.cli", "hyperon.errors", "hyperon._record"}
    BELL = BASE | {"hyperon.inequalities"}
    SAMPLER = BASE | {"hyperon.cascade", "hyperon.dataio", "hyperon.mc", "hyperon.params", "hyperon.sphere"}
    SAMPLER_STDLIB = {"concurrent.futures", "dataclasses", "logging"}
    LOADS = {
        "bell --inequality I3 --threshold": (BELL, set()),
        "bell --inequality I2 --k 0.46": (BELL, set()),
        "context --alpha 0.75 --alphabar 0.75": (BELL, set()),
        "--format json context --alpha 0.75 --alphabar 0.75": (BELL, {"json"}),
        # the device's rotation in math, with no operator module
        "complementarity --theta 1.0472": (BASE | {"hyperon.interferometer"}, set()),
        # the parameter reader, with no event-file, sampling or operator module
        "table": (BASE | {"hyperon.params"}, set()),
        # the sampler and the event-file writer, then the reader and the estimators: no decay,
        # interferometer, inequalities or operator module
        "simulate pair --k 0.46 --events 10 --out {tmp}/pairs.csv": (SAMPLER, SAMPLER_STDLIB),
        "analyze witness --events {events}": (SAMPLER | {"hyperon.pairs"}, SAMPLER_STDLIB),
    }

    @pytest.mark.parametrize("argv", list(LOADS))
    def test_command_loads_only_its_modules(self, tmp_path, argv):
        events = tmp_path / "events.csv"
        if "{events}" in argv:  # the fewest pairs the witness takes
            assert main(["simulate", "pair", "--k", "0.46", "--events", "100", "--out", str(events)]) == 0
        code = (
            "import argparse, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import hyperon.cli\n"
            f"code = hyperon.cli.main({argv.format(tmp=tmp_path, events=events).split()!r})\n"
            "new = set(sys.modules) - before\n"
            "print(code, sorted(m for m in new if m.split('.')[0] == 'hyperon'),\n"
            f"      sorted(new & set({self.STDLIB!r})), file=sys.stderr)\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr
        hyperon_modules, stdlib = self.LOADS[argv]
        assert result.stderr.splitlines()[-1] == f"0 {sorted(hyperon_modules)} {sorted(stdlib)}"

    @pytest.mark.parametrize("code, want", [
        ("import hyperon", {"hyperon"}),
        ("import hyperon.cli", {"hyperon", "hyperon.cli", "hyperon.errors"}),
    ])
    def test_import_loads_only_the_namespace(self, code, want):
        result = run_fresh(
            "import argparse, sys, numpy\n"
            "before = set(sys.modules)\n"
            f"{code}\n"
            "new = set(sys.modules) - before\n"
            "print(sorted(m for m in new if m.split('.')[0] == 'hyperon'),\n"
            f"      sorted(new & set({self.STDLIB!r})))\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{sorted(want)} []\n"

    def test_package_binds_only_its_version(self):
        package = Path(hyperon.__file__).parent
        submodules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
        code = (
            "import types, hyperon\n"
            "print([name for name in vars(hyperon) if not name.startswith('__')], hyperon.__version__)\n"
            "assert not hasattr(hyperon, 'generate')\n"
            f"for name in {submodules!r}:\n"
            "    exec(f'from hyperon import {name} as module')\n"
            "    assert isinstance(module, types.ModuleType) and module.__name__ == f'hyperon.{name}', name\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"[] {hyperon.__version__}\n"

    # the imports that a module makes for its importers, not for its own use
    REEXPORTS = {
        "dataio": {"load_bundled_parameters"},
    }

    def test_every_import_is_used(self):
        unused = {}
        for path in sorted(Path(hyperon.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {
                alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            if imported - used:
                unused[path.stem] = imported - used
        assert unused == self.REEXPORTS

    def test_readme_size_line(self):
        # the size README gives is wc -l of src/hyperon/*.py, at the current version
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        lines, version = re.search(r"([\d,]+) lines of Python\s+\(`wc -l src/hyperon/\*\.py`, ([^)]+)\)",
                                   readme).groups()
        sources = Path(hyperon.__file__).parent.glob("*.py")
        assert int(lines.replace(",", "")) == sum(path.read_bytes().count(b"\n") for path in sources)
        assert version == hyperon.__version__

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        result = run_fresh(example)
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.splitlines()) == 3


class TestEntry:
    """`python -m hyperon.cli`, which leaves by os._exit: the output and exit code of main()."""

    BELL = ("bell", "--inequality", "I2", "--k", "0.46")

    def test_report_to_stdout_and_out(self, capsys, tmp_path):
        code, want, _ = run_cli(capsys, *self.BELL)
        assert code == 0 and want.count("\n") == 2
        result = run_entry(*self.BELL)
        assert (result.returncode, result.stdout, result.stderr) == (0, want, "")
        out = tmp_path / "report.csv"
        result = run_entry(*self.BELL, "--out", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert out.read_text(encoding="utf-8") == want

    def test_buffered_json_report(self, capsys):
        # with PYTHONUNBUFFERED unset the report waits in stdout's buffer for the last flush
        code, want, _ = run_cli(capsys, "--format", "json", "table")
        assert code == 0
        result = run_entry("--format", "json", "table", unbuffered=False)
        assert (result.returncode, result.stdout, result.stderr) == (0, want, "")

    @pytest.mark.parametrize("argv, code", [
        (["bell", "--inequality", "I2", "--k", "2"], 1),
        (["bell", "--inequality", "I5", "--threshold"], 1),
        (["analyze", "witness", "--events", "missing.csv"], 2),
    ], ids=["usage", "parser", "data"])
    def test_error_exit_codes(self, capsys, tmp_path, argv, code):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        want = run_cli(capsys, *argv)
        assert want[0] == code and want[2].count("\n") == 1
        result = run_entry(*argv)
        assert (result.returncode, result.stdout, result.stderr) == want

    @pytest.mark.parametrize("argv, code", [
        (["--seed", "-1", "simulate", "pair", "--k", "0.5", "--events", "10"], 1),
        (["complementarity", "--theta", "nan"], 1),
        (["context", "--alpha", "x", "--alphabar", "1"], 1),
        (["table", "--params", "missing.csv"], 2),
        (["analyze", "witness", "--events", "missing.csv"], 2),
        (["simulate", "single", "--alpha", "0.5", "--pol=1,2", "--events", "10"], 1),
    ], ids=["seed", "theta", "alpha", "params", "events", "pol"])
    def test_bad_input_is_one_line(self, capsys, tmp_path, argv, code):
        # numpy warnings are errors in the child too; the report or event file never appears
        out = tmp_path / "f.csv"
        argv = [str(tmp_path / a) if a == "missing.csv" else a for a in argv] + ["--out", str(out)]
        want = run_cli(capsys, *argv)
        result = run_entry(*argv, options=("-W", "error"))
        assert (result.returncode, result.stdout, result.stderr) == want
        assert want[0] == code and want[2].count("\n") == 1
        assert want[2].startswith(("usage error: ", "error: ", "data error: "))
        assert "Traceback" not in result.stderr and not out.exists()

    @pytest.mark.parametrize("command", [(), ("simulate", "pair")])
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the text to the terminal's width
        with pytest.raises(SystemExit):
            main([*command, "--help"])
        want = capsys.readouterr().out
        result = run_entry(*command, "--help", unbuffered=False)
        assert (result.returncode, result.stdout, result.stderr) == (0, want, "")

    def test_event_stream_matches_event_file(self, tmp_path):
        argv = ("simulate", "pair", "--k", "0.46", "--events", "20000")
        f = tmp_path / "f.csv"
        result = run_entry(*argv, "--out", str(f))
        assert (result.returncode, result.stdout, result.stderr) == (0, "", f"wrote 40000 records to {f}\n")
        for unbuffered in (True, False):
            g = tmp_path / "g.csv"
            with g.open("wb") as stdout:
                result = run_entry(*argv, "--out", "-", unbuffered=unbuffered, stdout=stdout)
            assert (result.returncode, result.stderr) == (0, "")
            assert g.read_bytes() == f.read_bytes()

    def test_script_runs_the_main_block_entry(self):
        # the `hyperon` script and `python -m hyperon.cli` call the same function
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        script = re.findall(r'^hyperon = "hyperon\.cli:(\w+)"$', pyproject, re.MULTILINE)
        tree = ast.parse((Path(hyperon.__file__).parent / "cli.py").read_text(encoding="utf-8"))
        blocks = [node.body for node in tree.body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert len(script) == 1 and len(blocks) == 1
        assert [ast.unparse(statement) for statement in blocks[0]] == [f"{script[0]}()"]


def run_entry(*argv: str, unbuffered: bool = True, stdout=subprocess.PIPE,
              options: tuple[str, ...] = (), preexec_fn=None) -> subprocess.CompletedProcess:
    """Run `python *options -m hyperon.cli *argv` in a fresh interpreter that imports hyperon from this tree.

    `unbuffered` sets PYTHONUNBUFFERED, or unsets it, so that stdout is block-buffered.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]), PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    return subprocess.run([sys.executable, *options, "-m", "hyperon.cli", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, preexec_fn=preexec_fn)


def run_fresh(code: str, **environ: str | None) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports hyperon from this tree.

    `environ` sets variables of its environment, or unsets those given as None.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]), **environ)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
