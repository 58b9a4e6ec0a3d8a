"""End-to-end CLI runs: artifacts, determinism, and config validation."""

import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from ofdm_isac import cli, metrics, pcs
from ofdm_isac.channel import FrameDims, Target, target_cell
from ofdm_isac.cli import main
from ofdm_isac.constellation import load_codebook
from ofdm_isac.pcs import SolverError


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

    def test_slices_through_the_target_cell(self, tmp_path, monkeypatch):
        """The slices cross at ``channel.target_cell``: delay bin 15.6 of 16 wraps to cell 0."""
        maps, run = [], cli.empirical_dd_profile

        def keep(*args, **kwargs):
            maps.append(run(*args, **kwargs))
            return maps[-1]

        monkeypatch.setattr(cli, "empirical_dd_profile", keep)
        target = {"delay_bin": 15.6, "doppler_bin": 2.4}
        cfg = write_cfg(tmp_path, "p.json", {"trials": 64, "dims_list": [[16, 16]], "target": target})
        assert main(["profiles", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 0
        (mean_map,) = maps
        assert target_cell(FrameDims(16, 16), Target(1.0, **target)) == (0, 2)
        for axis, expected in (("delay", mean_map[:, 2]), ("doppler", mean_map[0, :])):
            _, _, rows = read_csv(tmp_path / f"profile_{axis}_16x16.csv")
            assert [float(row[4]) for row in rows] == expected.tolist()

    def test_empirical_columns_are_the_librarys_at_the_seed(self, tmp_path):
        """``profiles --seed 5`` writes the slices of ``empirical_dd_profile(..., seed=5)`` and names seed 5."""
        from ofdm_isac.channel import Scene
        from ofdm_isac.constellation import make_uniform
        from ofdm_isac.filtering import MF

        cfg = write_cfg(tmp_path, "p.json", {"order": 16, "snr_in_db": 4.0, "trials": 40, "dims_list": [[16, 16]]})
        assert main(["profiles", "--config", cfg, "--out", str(tmp_path), "--seed", "5"]) == 0
        scene = Scene((Target(1.0, 0.0, 0.0),), 1.0 / 10.0**0.4)
        mean_map = metrics.empirical_dd_profile(make_uniform("qam", 16), MF, FrameDims(16, 16), scene, 40, seed=5)
        for axis, expected in (("delay", mean_map[:, 0]), ("doppler", mean_map[0, :])):
            comments, _, rows = read_csv(tmp_path / f"profile_{axis}_16x16.csv")
            assert any(c.rstrip().endswith("empirical trials=40 seed=5") for c in comments)
            assert [float(row[4]) for row in rows] == expected.tolist()
            assert [float(row[2]) for row in rows] == [cli._db(x / expected.max()) for x in expected]


class TestPcsCommand:
    def test_codebook_and_trace(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "pcs.json",
            {
                "order": 16,
                "filter": "rf",
                "comm": {"noise_var": 0.05, "mc_samples": 20000},
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

    def test_pcs_bytes_do_not_depend_on_the_seed(self, tmp_path):
        """The solver draws nothing, so the master seed does not reach pcs artifacts."""
        payload = {"order": 16, "filter": "wf", "comm": {"noise_var": 0.05}, "c0_fraction": 0.5}
        cfg = write_cfg(tmp_path, "pcs.json", payload)
        outs = [tmp_path / f"s{seed}" for seed in ("1", "2")]
        for out, seed in zip(outs, ("1", "2")):
            assert main(["pcs", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["codebook.json", "pcs_trace.csv"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


    def test_solver_error_writes_error_artifact_only(self, tmp_path, capsys, monkeypatch):
        def stuck(cfg):
            raise SolverError("multiplier Newton iteration did not converge", {"gap": [0.5]})

        monkeypatch.setattr(cli, "mba_solve", stuck)
        cfg = write_cfg(tmp_path, "pcs.json", {"order": 16, "comm": {"noise_var": 0.05}})
        out = tmp_path / "out"
        assert main(["pcs", "--config", cfg, "--out", str(out)]) == 1
        assert "solver failed: multiplier Newton" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["pcs_error.json"]
        text = (out / "pcs_error.json").read_text()
        assert json.loads(text) == {"error": "multiplier Newton iteration did not converge", "diagnostics": {"gap": [0.5]}}
        assert text.endswith("}\n")


class TestTradeoffCommand:
    def test_solver_error_fills_its_row_only(self, tmp_path, capsys, monkeypatch):
        """A budget whose solve raises reads NaNs and the message; the other rows keep their codebooks."""
        solve = pcs.mba_solve

        def stuck_at_620(cfg):
            if cfg.c0 == 620.0:
                raise SolverError("multiplier Newton iteration did not converge", {"gap": [0.5]})
            return solve(cfg)

        monkeypatch.setattr(pcs, "mba_solve", stuck_at_620)
        cfg = write_cfg(tmp_path, "t.json", {"order": 16, "comm": {"noise_var": 0.05},
                                             "c0_grid": [650.0, 600.0, 620.0], "detection": {"trials": 40}})
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "2"]) == 0
        _, _, rows = read_csv(tmp_path / "out" / "tradeoff.csv")
        assert [row[0] for row in rows] == ["600.0", "620.0", "650.0"]
        assert rows[1][1:] == ["nan", "nan", "nan", "multiplier Newton iteration did not converge"]
        for row in (rows[0], rows[2]):
            assert 0.0 < float(row[1]) and 0.0 <= float(row[3]) <= 1.0 and row[4] == ""
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["codebook_00.json", "codebook_02.json", "tradeoff.csv"]

    def test_sweep_with_pd(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "t.json",
            {
                "order": 16,
                "filter": "wf",
                "comm": {"noise_var": 0.05, "mc_samples": 10000},
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

    def test_not_converged_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "t.json",
            {
                "order": 16,
                "filter": "wf",
                "comm": {"noise_var": 0.05},
                # 16-QAM has three energy shells: at the uniform-MSE budget, the
                # default grid's last point, uniform is the one shell-symmetric
                # feasible law and the exact bank returns it in one step
                "c0_grid": [600.0, 650.0],
                "max_outer_iters": 1,
                "detection": {"trials": 40},
            },
        )
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path), "--seed", "2"]) == 3
        assert "not converged: 2 of 2 budgets" in capsys.readouterr().out
        _, _, rows = read_csv(tmp_path / "tradeoff.csv")
        assert len(rows) == 2
        for row in rows:
            assert row[4] == "not converged after 1 iterations"
            assert 0.0 < float(row[1]) and 0.0 <= float(row[3]) <= 1.0
        assert (tmp_path / "codebook_01.json").exists()

    def test_threads_do_not_change_bytes(self, tmp_path):
        """Every artifact of a reduced sweep is byte-identical at 1 and 2 threads."""
        cfg = write_cfg(
            tmp_path,
            "t.json",
            {
                "order": 16,
                "filter": "wf",
                "comm": {"noise_var": 0.05},
                "n_grid": 3,
                "detection": {"trials": 300, "cfar": {"pfa": 1e-2}},
            },
        )
        outs = [tmp_path / f"t{threads}" for threads in ("1", "2")]
        for out, threads in zip(outs, ("1", "2")):
            assert main(["tradeoff", "--config", cfg, "--out", str(out), "--seed", "4", "--threads", threads]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert names == ["codebook_00.json", "codebook_01.json", "codebook_02.json", "tradeoff.csv"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_each_row_pd_is_its_codebooks_own(self, tmp_path):
        """One shared detection call gives each row the pd of a single call on that row's codebook."""
        from ofdm_isac.channel import FrameDims
        from ofdm_isac.detection import CfarConfig, default_tradeoff_scene, detection_probability
        from ofdm_isac.filtering import wiener

        cfg = write_cfg(
            tmp_path,
            "t.json",
            {
                "order": 16,
                "filter": "wf",
                "comm": {"noise_var": 0.05},
                "n_grid": 3,
                # outside the weak target's reference window, where P_d depends on the codebook: at 8,000
                # trials (seed 99) the three rows read 0.446, 0.404 and 0.355, the widest gaps of -30 to -20 dB
                "detection": {"trials": 600, "weak_delay_bin": 24, "weak_rel_power_db": -30.0, "cfar": {"pfa": 1e-2}},
            },
        )
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path), "--seed", "6"]) == 0
        _, _, rows = read_csv(tmp_path / "tradeoff.csv")
        snr = 10.0**0.4
        scene = default_tradeoff_scene(1.0 / snr, weak_delay_bin=24, weak_rel_power_db=-30.0)
        pds = [float(row[3]) for row in rows]
        for i, pd in enumerate(pds):
            c, _ = load_codebook(tmp_path / f"codebook_{i:02d}.json")
            (want,) = detection_probability(
                FrameDims(64, 32), scene, (c,), wiener(snr), CfarConfig(2, 16, 1e-2), 600, 6
            )
            assert pd == want
        assert len(set(pds)) == len(pds)  # distinct, so a row given another row's pd would show

    def test_codebooks_record_the_solved_budget(self, tmp_path):
        """Each codebook's c0 is the budget its solve met (the grid's first budget clamped to the achievable
        floor), so its row's sensing_mse never exceeds it; the table's c0 column keeps the budget asked for.
        The codebook's provenance holds the solver's output only, not the row's pd."""
        cfg = write_cfg(tmp_path, "t.json", {"order": 16, "comm": {"noise_var": 0.05}, "n_grid": 3,
                                             "detection": {"trials": 40}})
        with pytest.warns(UserWarning, match="clamped"):
            assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path), "--seed", "2"]) == 0
        _, _, rows = read_csv(tmp_path / "tradeoff.csv")
        clamped = 0
        for i, (c0, _, mse, _, _) in enumerate(rows):
            _, meta = load_codebook(tmp_path / f"codebook_{i:02d}.json")
            assert meta["c0"] >= float(mse) * (1.0 - 1e-12)
            assert "pd" not in meta["provenance"]
            clamped += meta["c0"] != float(c0)
        assert clamped == 1

    @pytest.mark.parametrize("db", [0.0, 3.0])
    def test_weak_target_that_is_not_weaker_exits_2(self, tmp_path, capsys, monkeypatch, db):
        """At 0 dB or above the target at weak_delay_bin is not the weaker one, and P_d would be read at the
        strong target's cell: refused before any solve, naming the field, with nothing written."""
        monkeypatch.setattr(cli, "tradeoff_sweep", lambda *a: pytest.fail("a budget was solved"))
        cfg = write_cfg(tmp_path, "bad.json", {"order": 16, "detection": {"weak_rel_power_db": db}})
        out = tmp_path / "out"
        assert main(["tradeoff", "--config", cfg, "--out", str(out)]) == 2
        assert "bad config field 'detection.weak_rel_power_db': must be < 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, field",
        [({"n_grid": 0}, "n_grid"), ({"c0_grid": []}, "c0_grid"), ({"c0_grid": ["a"]}, "c0_grid")],
    )
    def test_bad_grid_rejected(self, tmp_path, capsys, payload, field):
        cfg = write_cfg(tmp_path, "t.json", {"order": 16, **payload})
        out = tmp_path / "out"
        assert main(["tradeoff", "--config", cfg, "--out", str(out)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (out / "tradeoff.csv").exists()

    def test_provenance_names_quadrature(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "pcs.json",
            {"order": 16, "filter": "rf", "comm": {"noise_var": 0.05}},
        )
        assert main(["pcs", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 0
        _, meta = load_codebook(tmp_path / "codebook.json")
        assert "bank=gauss-hermite 10x10 air=gauss-hermite 20x20" in meta["provenance"]
        assert "seed" not in meta["provenance"]
        comments, _, _ = read_csv(tmp_path / "pcs_trace.csv")
        assert "bank=gauss-hermite 10x10 air=gauss-hermite 20x20" in comments[1]


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

    @pytest.mark.parametrize("contents", [None, "", "[0.5, 0.5,", "{\"probs\": [1]}", "[0.5, 0.5]"],
                             ids=["missing", "empty", "truncated", "object", "wrong-length"])
    def test_unreadable_probs_file_exit_2(self, tmp_path, capsys, contents):
        pfile = tmp_path / "probs.json"
        if contents is not None:
            pfile.write_text(contents)
        cfg = write_cfg(tmp_path, "cb.json", {"order": 16, "probs_file": str(pfile)})
        out = tmp_path / "out"
        assert main(["codebook", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad config field 'probs_file'" in err and "Traceback" not in err
        assert not out.exists()


class TestVerifyCommand:
    def test_quick_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json", {"trials": 400})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_pass"] is True
        assert len(report["checks"]) >= 15


def read_strict_json(path):
    """The file parsed as strict JSON: a bare ``NaN``, ``Infinity`` or ``-Infinity`` token raises."""

    def refuse(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestStrictJson:
    """Every JSON artifact is strict JSON: a non-finite float is written as the CSV spells it."""

    def test_non_finite_floats_spelt_as_in_csv(self, tmp_path):
        payload = {"meta": ["x"], "rows": [(1.5, math.nan), [math.inf, -math.inf, 2, "s", None]]}
        cli._write_json(tmp_path / "a.json", payload)
        assert read_strict_json(tmp_path / "a.json") == {
            "meta": ["x"], "rows": [[1.5, "nan"], ["inf", "-inf", 2, "s", None]]}

    def test_finite_payload_bytes_unchanged(self, tmp_path):
        payload = {"meta": ["a", "b"], "rows": [(0.1, 2, "x"), [1e-300, -3.5, True, None]], "n": {"k": [1.0]}}
        cli._write_json(tmp_path / "a.json", payload)
        assert (tmp_path / "a.json").read_text() == json.dumps(payload, indent=2) + "\n"

    def test_nan_residual_in_verify_report(self, tmp_path, monkeypatch):
        identity_sums = metrics._identity_sums

        def nan_parseval(*frame):
            out = identity_sums(*frame)
            out["parseval"][-1] = math.nan
            return out

        monkeypatch.setattr(metrics, "_identity_sums", nan_parseval)
        cfg = write_cfg(tmp_path, "v.json", {"dims": {"N": 16, "M": 16}, "trials": 256})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = read_strict_json(tmp_path / "verify_report.json")
        checks = {check["name"]: check for check in report["checks"]}
        assert report["all_pass"] is False
        for tag in ("mf", "rf", "wf"):
            assert checks[f"parseval_{tag}"]["residual"] == "nan" and checks[f"parseval_{tag}"]["pass"] is False

    def test_failed_solve_row_in_json_tradeoff(self, tmp_path, monkeypatch):
        solve = pcs.mba_solve

        def stuck_at_620(cfg):
            if cfg.c0 == 620.0:
                raise SolverError("multiplier Newton iteration did not converge", {"gap": [0.5]})
            return solve(cfg)

        monkeypatch.setattr(pcs, "mba_solve", stuck_at_620)
        cfg = write_cfg(tmp_path, "t.json", {"order": 16, "comm": {"noise_var": 0.05},
                                             "c0_grid": [650.0, 620.0], "detection": {"trials": 40}})
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path), "--format", "json"]) == 0
        rows = read_strict_json(tmp_path / "tradeoff.json")["rows"]
        assert rows[0][1:] == ["nan", "nan", "nan", "multiplier Newton iteration did not converge"]
        assert isinstance(rows[1][1], float) and rows[1][4] == ""


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


class TestRejectedValues:
    """Values the library rejects while a config is built exit 2 and name the field."""

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("dr-sweep", {"family": "hex"}, "family"),
            ("tradeoff", {"family": "hex"}, "family"),
            ("profiles", {"family": "hex"}, "family"),
            ("codebook", {"family": "hex"}, "family"),
            ("verify", {"order": 63}, "order"),
            ("dr-sweep", {"order": 63}, "order"),
            ("tradeoff", {"order": 63}, "order"),
            ("pcs", {"order": 63}, "order"),
            ("verify", {"dims": {"N": 0}}, "dims"),
            ("dr-sweep", {"dims": {"N": 0}}, "dims"),
            ("tradeoff", {"order": 16, "dims": {"N": 0}}, "dims"),
            ("verify", {"trials": 0}, "trials"),
            ("profiles", {"trials": 0}, "trials"),
            ("profiles", {"dims_list": [[16, 16], [1, 4]]}, "dims_list"),
            ("pcs", {"order": 16, "max_outer_iters": 0}, "max_outer_iters"),
            ("tradeoff", {"order": 16, "n_grid": 1, "detection": {"trials": 0}}, "detection.trials"),
            ("tradeoff", {"order": 16, "n_grid": 1, "detection": {"cfar": {"pfa": 2.0}}}, "detection.cfar"),
            ("pcs", {"order": 16, "tol": 0}, "tol"),
            ("tradeoff", {"order": 16, "tol": 0}, "tol"),
            ("pcs", {"order": 16, "comm": {"noise_var": 0}}, "comm.noise_var"),
            ("tradeoff", {"order": 16, "comm": {"noise_var": -1}}, "comm.noise_var"),
            ("pcs", {"order": 16, "gain_var": -1}, "gain_var"),
            ("tradeoff", {"order": 16, "gain_var": 0}, "gain_var"),
            ("dr-sweep", {"gain_var": -1}, "gain_var"),
            ("profiles", {"gain_var": 0}, "gain_var"),
            ("tradeoff", {"order": 16, "detection": {"weak_delay_bin": 64}}, "detection.weak_delay_bin"),
            ("tradeoff", {"order": 16, "dims": {"N": 32}, "detection": {"cfar": {"train": 16}}}, "detection.cfar"),
            ("profiles", {"snr_in_db": float("nan")}, "snr_in_db"),
            ("verify", {"snr_in_db": float("nan")}, "snr_in_db"),
            ("pcs", {"order": 16, "snr_in_db": float("nan")}, "snr_in_db"),
            ("tradeoff", {"order": 16, "snr_in_db": float("inf")}, "snr_in_db"),
            ("dr-sweep", {"snr_db_start": float("nan")}, "snr_db_start"),
            ("dr-sweep", {"snr_db_stop": float("inf")}, "snr_db_stop"),
            ("dr-sweep", {"snr_db_step": float("nan")}, "snr_db_step"),
            ("dr-sweep", {"snr_db_step": float("inf")}, "snr_db_step"),
            ("profiles", {"snr_in_db": 4000}, "snr_in_db"),
            ("profiles", {"snr_in_db": -3100}, "snr_in_db"),
            ("verify", {"snr_in_db": -3300}, "snr_in_db"),
            ("pcs", {"order": 16, "snr_in_db": 4000}, "snr_in_db"),
            ("pcs", {"order": 16, "snr_in_db": -3100}, "snr_in_db"),
            ("tradeoff", {"order": 16, "snr_in_db": -3300}, "snr_in_db"),
            ("dr-sweep", {"snr_db_start": 3100}, "snr_db_start"),
            ("dr-sweep", {"snr_db_stop": -3300}, "snr_db_stop"),
            ("tradeoff", {"order": 16, "detection": {"weak_rel_power_db": 4000}}, "detection.weak_rel_power_db"),
            ("tradeoff", {"order": 16, "detection": {"weak_rel_power_db": -3100}}, "detection.weak_rel_power_db"),
            ("tradeoff", {"order": 16, "detection": {"weak_rel_power_db": float("nan")}}, "detection.weak_rel_power_db"),
            ("dr-sweep", {"snr_db_start": 3000}, "snr_db_start"),
            ("dr-sweep", {"snr_db_start": 10, "snr_db_stop": 5}, "snr_db_start"),
            ("dr-sweep", {"dims": 5}, "dims"),
            ("verify", {"dims": [64, 32]}, "dims"),
            ("pcs", {"order": 16, "comm": 0.05}, "comm"),
            ("tradeoff", {"order": 16, "detection": 3}, "detection"),
            ("tradeoff", {"order": 16, "detection": {"cfar": 1e-3}}, "detection.cfar"),
            ("profiles", {"target": 5}, "target"),
            ("profiles", {"target": {"delay_bin": -1}}, "target"),  # a negative bin lies outside every frame
            # integer fields refuse bools and fractions instead of truncating them
            ("dr-sweep", {"dims": {"N": 16.9, "M": 8.5}}, "dims.N"),
            ("verify", {"dims": {"M": 8.5}}, "dims.M"),
            ("codebook", {"order": 16.5}, "order"),
            ("profiles", {"dims_list": [[16, 16.5]]}, "dims_list"),
            ("profiles", {"dims_list": []}, "dims_list"),
            ("verify", {"trials": True}, "trials"),
            ("profiles", {"trials": 40.5}, "trials"),
            ("tradeoff", {"order": 16, "detection": {"trials": 20.5}}, "detection.trials"),
            ("tradeoff", {"order": 16, "n_grid": 2.5}, "n_grid"),
            ("pcs", {"order": 16, "max_outer_iters": 10.5}, "max_outer_iters"),
            ("tradeoff", {"order": 16, "detection": {"cfar": {"guard": 2.9}}}, "detection.cfar.guard"),
            ("tradeoff", {"order": 16, "detection": {"cfar": {"train": True}}}, "detection.cfar.train"),
            ("tradeoff", {"order": 16, "detection": {"weak_delay_bin": 5.5}}, "detection.weak_delay_bin"),
            # budgets, comm noise variances and target bins must be finite numbers
            ("pcs", {"order": 16, "c0": float("nan")}, "c0"),
            ("pcs", {"order": 16, "c0_fraction": float("nan")}, "c0_fraction"),
            ("pcs", {"order": 16, "c0": True}, "c0"),
            ("pcs", {"order": 16, "tol": True}, "tol"),
            ("pcs", {"order": 16, "comm": {"noise_var": float("inf")}}, "comm.noise_var"),
            ("tradeoff", {"order": 16, "comm": {"noise_var": float("nan")}}, "comm.noise_var"),
            ("tradeoff", {"order": 16, "c0_grid": [float("nan"), 600.0]}, "c0_grid"),
            ("tradeoff", {"order": 16, "c0_grid": [True]}, "c0_grid"),
            ("profiles", {"target": {"delay_bin": float("nan")}}, "target.delay_bin"),
            ("profiles", {"target": {"doppler_bin": float("inf")}}, "target.doppler_bin"),
            ("codebook", {"order": 16, "probs_file": "no-such-probs.json"}, "probs_file"),
        ],
    )
    def test_exit_2_naming_the_field(self, tmp_path, capsys, command, payload, field):
        cfg = write_cfg(tmp_path, "bad.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"bad config field '{field}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"snr_db_step": 1e-20},
            {"snr_db_stop": 1000.0, "snr_db_step": 1e-14},
            # the sweep runs 1e-9 dB past snr_db_stop, where 1e-300 no longer moves db
            {"snr_db_start": 0.0, "snr_db_stop": 0.0, "snr_db_step": 1e-300},
        ],
    )
    def test_dr_sweep_step_that_cannot_advance(self, payload):
        # through _resolve, so that a missing check fails here instead of looping in the sweep
        with pytest.raises(cli.ConfigError, match="bad config field 'snr_db_step'"):
            cli._resolve("dr-sweep", payload)

    @pytest.mark.parametrize(
        "payload, rows",
        [
            ({"snr_db_start": 0.0, "snr_db_stop": 0.0, "snr_db_step": 1e-20}, 10**11),
            ({"snr_db_start": 0.0, "snr_db_stop": 1000.0, "snr_db_step": 1e-3}, cli.MAX_SWEEP_ROWS + 1),
            ({"snr_db_start": 0.0, "snr_db_stop": 999.999, "snr_db_step": 1e-3}, cli.MAX_SWEEP_ROWS),
        ],
    )
    def test_dr_sweep_row_count_bounded(self, payload, rows):
        if rows <= cli.MAX_SWEEP_ROWS:
            cli._resolve("dr-sweep", payload)
        else:
            with pytest.raises(cli.ConfigError, match="bad config field 'snr_db_step'.*at most 1000000 rows"):
                cli._resolve("dr-sweep", payload)

    def test_dr_sweep_with_too_many_rows_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("dr-sweep computed a row of a sweep it should refuse")

        monkeypatch.setattr(cli, "closed_form_metrics", no_rows)
        cfg = write_cfg(tmp_path, "bad.json", {"snr_db_start": 0, "snr_db_stop": 0, "snr_db_step": 1e-20})
        out = tmp_path / "out"
        assert main(["dr-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "bad config field 'snr_db_step'" in capsys.readouterr().err
        assert not out.exists()

    def test_tradeoff_weak_bin_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solves(*args, **kwargs):
            raise AssertionError("tradeoff_sweep ran on a config that detection rejects")

        monkeypatch.setattr(cli, "tradeoff_sweep", no_solves)
        cfg = write_cfg(tmp_path, "bad.json", {"order": 16, "detection": {"weak_delay_bin": 128}})
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bad config field 'detection.weak_delay_bin'" in capsys.readouterr().err

    def test_tradeoff_order_names_the_family_asked_for(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.json", {"order": 63})
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "QAM order 63" in err and "PSK" not in err


COMMANDS = ["verify", "dr-sweep", "profiles", "pcs", "tradeoff", "codebook"]


class TestStrictFields:
    """A field the command does not read, both fields of an exclusive pair, or a target bin outside the frame
    exits 2 before any work."""

    @pytest.mark.parametrize(
        "command, payload, named",
        [
            *[(command, {"famly": "psk"}, ["'famly'", "did you mean 'family'?"]) for command in COMMANDS],
            ("verify", {"family": "psk"}, ["'family' does not apply to verify, only to dr-sweep"]),
            ("profiles", {"dims": {"N": 16, "M": 16}}, ["'dims' does not apply to profiles", "pcs"]),
            ("pcs", {"order": 16, "n_grid": 4}, ["'n_grid' does not apply to pcs, only to tradeoff"]),
            ("pcs", {"order": 16, "detection": {"trials": 100}}, ["'detection' does not apply to pcs"]),
            ("tradeoff", {"order": 16, "c0": 600.0}, ["'c0' does not apply to tradeoff, only to pcs"]),
            ("tradeoff", {"order": 16, "c0_fraction": 0.5}, ["'c0_fraction' does not apply to tradeoff"]),
            ("codebook", {"comm": {"mc_samples": 100}}, ["'comm' does not apply to codebook"]),
            ("dr-sweep", {"dims": {"n": 16}}, ["'dims.n'", "did you mean 'dims.N'?"]),
            ("profiles", {"dim_list": [[16, 16]]}, ["'dim_list'", "did you mean 'dims_list'?"]),
            ("tradeoff", {"order": 16, "detection": {"cfar": {"gaurd": 2}}}, ["did you mean 'detection.cfar.guard'?"]),
            ("pcs", {"order": 16, "c0": 600.0, "c0_fraction": 0.5}, ["'c0' or 'c0_fraction', not both"]),
            ("tradeoff", {"order": 16, "c0_grid": [600.0], "n_grid": 2}, ["'c0_grid' or 'n_grid', not both"]),
            ("profiles", {"kernel": "gauss"}, ["unknown config field 'kernel' for profiles"]),
            # the frame kernel's steering vectors need 0 <= bin < N (or M): checked before any solve or trial
            *[("tradeoff", {"order": 16, "dims": {"N": 16, "M": 8},
                           "detection": {"weak_delay_bin": k, "cfar": {"train": 4}}},
               ["bad config field 'detection.weak_delay_bin'", f"delay_bin {k:.1f} outside [0, 16)"]) for k in (-3, 21)],
            ("profiles", {"dims_list": [[32, 16], [8, 8]], "target": {"delay_bin": 12}},
             ["bad config field 'target'", "delay_bin 12.0 outside [0, 8)"]),
            ("profiles", {"dims_list": [[32, 16], [8, 8]], "target": {"doppler_bin": 10}},
             ["bad config field 'target'", "doppler_bin 10.0 outside [0, 8)"]),
            # a channel gain h is comm.noise_var = var / |h|^2, and the seed is --seed: neither has a field
            ("pcs", {"order": 16, "comm": {"channel_gain_re": float("nan")}},
             ["unknown config field 'comm.channel_gain_re' for pcs"]),
            ("tradeoff", {"order": 16, "comm": {"channel_gain_im": float("inf")}},
             ["unknown config field 'comm.channel_gain_im' for tradeoff"]),
            ("verify", {"master_seed": -1}, ["unknown config field 'master_seed' for verify"]),
            ("profiles", {"master_seed": -1}, ["unknown config field 'master_seed' for profiles"]),
            ("tradeoff", {"order": 16, "master_seed": -1}, ["unknown config field 'master_seed' for tradeoff"]),
            ("profiles", {"master_seed": 1.5}, ["unknown config field 'master_seed' for profiles"]),
        ],
    )
    def test_exit_2_naming_the_field(self, tmp_path, capsys, command, payload, named):
        cfg = write_cfg(tmp_path, "bad.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for text in named:
            assert text in err
        assert "Traceback" not in err
        assert not out.exists()


def readme_examples():
    """(command, config) for each example in README.md's jsonc block, whose `// <command>` line heads it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    parts = re.split(r"^// (\S+)\n", block, flags=re.M)[1:]
    return [(parts[i], json.loads(re.sub(r"//[^\n]*", "", parts[i + 1]))) for i in range(0, len(parts), 2)]


class TestReadmeExamples:
    """Every example config in README.md runs on its command, so the docs and the field tables agree."""

    def test_every_command_but_verify_has_one(self):
        assert sorted(command for command, _ in readme_examples()) == sorted(set(COMMANDS) - {"verify"})

    @pytest.mark.parametrize("command, payload", readme_examples(), ids=[c for c, _ in readme_examples()])
    def test_example_runs(self, tmp_path, command, payload):
        cfg = write_cfg(tmp_path, "example.json", payload)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "config fields not used")  # no example sets a field its command ignores
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


class TestUnusedMcSamples:
    """``comm.mc_samples`` and ``bank_samples_per_point`` are read by no command: pcs and tradeoff
    say so on stderr and change nothing else."""

    PCS = {"order": 16, "filter": "wf", "comm": {"noise_var": 0.05}, "c0_fraction": 0.5}
    TRADEOFF = {"order": 16, "filter": "wf", "comm": {"noise_var": 0.05},
                "n_grid": 1, "detection": {"trials": 20}}

    @staticmethod
    def _run(tmp_path, capsys, command, payload, name):
        cfg = write_cfg(tmp_path, f"{name}.json", payload)
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("field", ["comm.mc_samples", "bank_samples_per_point"])
    @pytest.mark.parametrize("command", ["pcs", "tradeoff"])
    def test_warns_and_changes_nothing_else(self, tmp_path, capsys, command, field):
        base = self.PCS if command == "pcs" else self.TRADEOFF
        with_field = json.loads(json.dumps(base))
        if field == "comm.mc_samples":
            with_field["comm"]["mc_samples"] = 20_000
        else:
            with_field[field] = 50
        with pytest.warns(UserWarning, match=rf"not used: '{re.escape(field)}';"):
            stdout, files = self._run(tmp_path, capsys, command, with_field, "with")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stdout_ref, files_ref = self._run(tmp_path, capsys, command, base, "without")
        assert not [w for w in caught if "not used" in str(w.message)]
        assert stdout == stdout_ref
        assert files == files_ref

    def test_one_warning_names_both(self, tmp_path, capsys):
        payload = json.loads(json.dumps(self.PCS))
        payload["comm"]["mc_samples"] = 20_000
        payload["bank_samples_per_point"] = 50
        with pytest.warns(UserWarning) as caught:
            self._run(tmp_path, capsys, "pcs", payload, "both")
        unused = [str(w.message) for w in caught if "not used" in str(w.message)]
        assert len(unused) == 1
        assert "not used: 'comm.mc_samples', 'bank_samples_per_point';" in unused[0]
