import csv
import io
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
        f = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "--threads", "-1", "simulate", "pair", "--k", "0.2",
                                 "--events", "10", "--out", str(f))
        assert code == 1
        assert "usage error" in err and "worker count" in err
        assert out == "" and not f.exists()

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "pair", "--k", "0.2", "--events", "10",
                             "--frobnicate")
        assert code == 1

    def test_unknown_hyperon_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "single", "--hyperon", "Omega-",
                             "--events", "10")
        assert code == 1

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
        env = dict(os.environ, PYTHONPATH=str(Path(hyperon.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
