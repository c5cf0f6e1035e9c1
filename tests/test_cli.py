import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperon
from hyperon.cli import main


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

    @pytest.mark.parametrize("points", ["0", "1", "2"])
    def test_too_few_points_exit_1(self, capsys, points):
        code, out, err = run_cli(capsys, "complementarity", "--theta", "1", "--points", points)
        assert code == 1
        assert out == "" and "at least 3 points" in err

    def test_too_many_points_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "complementarity", "--theta", "1",
                                 "--points", "1000000000000000")
        assert code == 1 and out == ""
        assert err == "error: the fringe scan takes at most 65536 points, got 1000000000000000\n"


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

    # digest: the bytes of the cascade run, the same as when each decay loaded the table
    @pytest.mark.parametrize("decays, loads, digest", [
        (("cascade", "--mu-hyperon", "Xi-", "--nu-hyperon", "Lambda"), 1,
         "791c21421c9d3b1e19611b19e3e55d92f885c0fef0c08d62bde25810b81e3d49"),
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

    # the hyperon modules each command loads, and which of these standard
    # modules it loads beyond what numpy and argparse load
    STDLIB = ("concurrent.futures", "logging", "json")
    BELL = {"hyperon", "hyperon.cli", "hyperon.errors", "hyperon.qcore", "hyperon.inequalities"}
    LOADS = {
        "bell --inequality I3 --threshold": (BELL, set()),
        "bell --inequality I2 --k 0.46": (BELL, set()),
        "context --alpha 0.75 --alphabar 0.75": (BELL, set()),
        "--format json context --alpha 0.75 --alphabar 0.75": (BELL, {"json"}),
        "complementarity --theta 1.0472": (
            {"hyperon", "hyperon.cli", "hyperon.errors", "hyperon.qcore", "hyperon.interferometer"},
            set(),
        ),
        # the parameter reader, with no event-file or sampling module
        "table": (
            {"hyperon", "hyperon.cli", "hyperon.errors", "hyperon.qcore", "hyperon.params",
             "hyperon.decay", "hyperon.sphere"},
            {"logging"},
        ),
    }

    @pytest.mark.parametrize("argv", list(LOADS))
    def test_command_loads_only_its_modules(self, argv):
        code = (
            "import argparse, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import hyperon.cli\n"
            f"code = hyperon.cli.main({argv.split()!r})\n"
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

    # the public names of the package, as it exported them when it imported every module
    PUBLIC = (
        "BellSettings BlochVector CascadeDecayModel CascadeKraus DecayAmplitudes DecayParameters "
        "DensityMatrix EventTable InequalitySpec InterferometerConfig KrausPair PairCorrelationModel "
        "PairModel ParameterRow ParameterTable ProbModel SampleConfig SimplexPoint SingleDecayModel "
        "SpinState amplitudes_from_params angular_pdf as_density asymmetric_intensity bloch_compose "
        "bloch_expand cascade_kraus cascade_pdf cascade_tau complementarity_of contextuality_value "
        "evaluate evolve fringe gell_mann_basis generate inequality joint_pdf kraus_decompose "
        "kraus_operators load_bundled_parameters load_parameters maximally_mixed maximize "
        "mermin_peres_quantum_value params_from_alpha_phi params_from_amplitudes partial_trace "
        "prob_joint pure_state read_events sample_cascade sample_pair sample_single tensor threshold "
        "transition_matrix two_amplitude_intensity witness_estimate witness_value write_events"
    ).split()

    def test_public_names_and_submodules_resolve(self):
        package = Path(hyperon.__file__).parent
        submodules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
        code = (
            "import sys, types, hyperon\n"
            f"for name in {submodules!r}:\n"
            "    assert isinstance(getattr(hyperon, name), types.ModuleType), name\n"
            f"for name in {self.PUBLIC!r}:\n"
            "    value = getattr(hyperon, name)\n"
            "    assert vars(sys.modules[value.__module__])[name] is value, name\n"
            "assert not hasattr(hyperon, 'no_such_name')\n"
            "print(sorted(hyperon.__all__))\n"
            f"print(set(hyperon.__all__) | set({submodules!r}) <= set(dir(hyperon)))\n"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{sorted(self.PUBLIC)}\nTrue\n"

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        result = run_fresh(example)
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.splitlines()) == 3


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports hyperon from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
