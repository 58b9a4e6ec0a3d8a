"""End-to-end CLI runs: artifacts, determinism, and config validation."""

import csv
import json

import numpy as np
import pytest

from ofdm_isac.cli import main
from ofdm_isac.constellation import load_codebook


def read_csv(path):
    comments = []
    with open(path, encoding="utf-8") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDrSweep:
    def test_csv_columns_and_crossing(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {"snr_db_start": 0.0, "snr_db_stop": 12.0, "snr_db_step": 0.1})
        assert main(["dr-sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        comments, header, rows = read_csv(tmp_path / "dr_sweep.csv")
        assert header[:5] == ["snr_in_db", "snr_in_linear", "dr_mf", "dr_rf", "dr_wf"]
        assert any("closed-form" in c for c in comments)
        assert any("dB" in c for c in comments)
        diffs = [float(r[2]) - float(r[3]) for r in rows]
        signs = {d > 0 for d in diffs}
        assert signs == {True, False}  # MF/RF curves cross inside the grid

    def test_bit_identical_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {"snr_db_start": 0.0, "snr_db_stop": 4.0, "snr_db_step": 0.5})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["dr-sweep", "--config", cfg, "--out", str(out1), "--seed", "3"])
        main(["dr-sweep", "--config", cfg, "--out", str(out2), "--seed", "3"])
        assert (out1 / "dr_sweep.csv").read_bytes() == (out2 / "dr_sweep.csv").read_bytes()

    def test_json_format(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {"snr_db_start": 0.0, "snr_db_stop": 1.0, "snr_db_step": 0.5})
        main(["dr-sweep", "--config", cfg, "--out", str(tmp_path), "--format", "json"])
        payload = json.loads((tmp_path / "dr_sweep.json").read_text())
        assert payload["columns"][0] == "snr_in_db"
        assert len(payload["rows"]) == 3


class TestProfiles:
    def test_artifacts_and_normalization(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.json", {"trials": 40, "dims_list": [[16, 16]]})
        assert main(["profiles", "--config", cfg, "--out", str(tmp_path), "--seed", "1"]) == 0
        comments, header, rows = read_csv(tmp_path / "profile_delay_16x16.csv")
        assert header[0] == "delay_bin"
        assert any("empirical trials=40" in c for c in comments)
        norm_db = [float(r[1]) for r in rows]
        assert max(norm_db) == pytest.approx(0.0)  # peak-normalized
        assert (tmp_path / "profile_doppler_16x16.csv").exists()

    def test_empirical_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.json", {"trials": 20, "dims_list": [[16, 16]]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["profiles", "--config", cfg, "--out", str(out1), "--seed", "5"])
        main(["profiles", "--config", cfg, "--out", str(out2), "--seed", "5"])
        assert (out1 / "profile_delay_16x16.csv").read_bytes() == (
            out2 / "profile_delay_16x16.csv"
        ).read_bytes()


class TestPcsCommand:
    def test_codebook_and_trace(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "pcs.json",
            {
                "order": 16,
                "filter": "rf",
                "comm": {"noise_var": 0.05, "mc_samples": 20000},
                "bank_samples_per_point": 100,
                "c0_fraction": 0.5,
            },
        )
        assert main(["pcs", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 0
        c, meta = load_codebook(tmp_path / "codebook.json")
        assert c.order == 16
        assert meta["filter"] == "rf"
        comments, header, rows = read_csv(tmp_path / "pcs_trace.csv")
        assert header == ["iter", "objective_nats", "mse", "power", "lambda1", "lambda2"]
        assert len(rows) >= 1
        power = [float(r[3]) for r in rows]
        assert all(abs(v - 1.0) < 1e-6 for v in power)


    def test_not_converged_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "pcs.json",
            {
                "order": 16,
                "filter": "wf",
                "comm": {"noise_var": 0.05, "mc_samples": 5000},
                "bank_samples_per_point": 50,
                "c0_fraction": 0.3,
                "max_outer_iters": 1,
            },
        )
        assert main(["pcs", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("not converged: ")
        assert "solved" not in out
        _, meta = load_codebook(tmp_path / "codebook.json")
        assert "converged=False" in meta["provenance"]
        _, _, rows = read_csv(tmp_path / "pcs_trace.csv")
        assert len(rows) == 1


class TestTradeoffCommand:
    def test_sweep_with_pd(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "t.json",
            {
                "order": 16,
                "filter": "wf",
                "comm": {"noise_var": 0.05, "mc_samples": 10000},
                "bank_samples_per_point": 80,
                "n_grid": 2,
                "detection": {"trials": 60, "cfar": {"pfa": 1e-3}},
            },
        )
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path), "--seed", "2"]) == 0
        comments, header, rows = read_csv(tmp_path / "tradeoff.csv")
        assert header == ["c0", "air_bits", "sensing_mse", "pd", "error"]
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= float(row[3]) <= 1.0
        assert (tmp_path / "codebook_00.json").exists()


class TestCodebookCommand:
    def test_uniform_default(self, tmp_path):
        assert main(["codebook", "--out", str(tmp_path)]) == 0
        c, meta = load_codebook(tmp_path / "codebook.json")
        assert c.order == 64
        np.testing.assert_allclose(c.probs, 1.0 / 64)

    def test_probs_file(self, tmp_path):
        probs = np.linspace(1.0, 2.0, 16)
        probs /= probs.sum()
        pfile = tmp_path / "probs.json"
        pfile.write_text(json.dumps(probs.tolist()))
        cfg = write_cfg(tmp_path, "cb.json", {"order": 16, "probs_file": str(pfile)})
        assert main(["codebook", "--config", cfg, "--out", str(tmp_path)]) == 0
        c, _ = load_codebook(tmp_path / "codebook.json")
        np.testing.assert_allclose(c.probs, probs, rtol=1e-12)


class TestVerifyCommand:
    def test_quick_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json", {"trials": 400})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_pass"] is True
        assert len(report["checks"]) >= 15


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["dr-sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_bad_field_reports_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.json", {"snr_db_step": "fast"})
        rc = main(["dr-sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "snr_db_step" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        rc = main(["dr-sweep", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err
