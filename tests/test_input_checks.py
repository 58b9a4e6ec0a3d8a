"""Bad numbers fail loudly: nan or an infinite variance in the library types, a thread count, trial count, seed or
frame or window size that is not an int at or above its least value in the library, a thread count below one or a
negative seed on the command line."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ofdm_isac import metrics
from ofdm_isac.air import air_estimate, air_quadrature
from ofdm_isac.channel import FrameDims, Scene, Target
from ofdm_isac.cli import main
from ofdm_isac.constellation import load_codebook, make_uniform
from ofdm_isac.detection import CfarConfig, default_tradeoff_scene, detection_probability
from ofdm_isac.filtering import MF, FilterKind, FilterType, wiener
from ofdm_isac.metrics import empirical_dd_profile, empirical_metrics, identity_checks
from ofdm_isac.pcs import PcsConfig, mba_solve, penalty_f

NAN = float("nan")


def _pcs_config(**overrides):
    kwargs = dict(family="qam", order=16, filt=MF, dims=FrameDims(8, 4), gain_var=1.0,
                  noise_var=0.5, comm_noise_var=0.1, c0=10.0)
    kwargs.update(overrides)
    return PcsConfig(**kwargs)


class TestLibraryRejectsNan:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Target(NAN, 0.0, 0.0),
            lambda: Scene((Target(1.0, 0.0, 0.0),), NAN),
            lambda: wiener(NAN),
            lambda: FilterKind(FilterType.WF, NAN),
            lambda: air_quadrature(QAM16, NAN),
            lambda: air_estimate(QAM16, NAN, samples=10),
            lambda: _pcs_config(comm_noise_var=NAN),
            lambda: _pcs_config(tol=NAN),
            lambda: _pcs_config(gain_var=NAN),
            lambda: _pcs_config(noise_var=NAN),
            lambda: _pcs_config(c0=NAN),
            lambda: penalty_f(np.ones(4), MF, NAN),
        ],
        ids=["target-gain_var", "scene-noise_var", "wiener", "filterkind-wf", "air-noise_var",
             "air-estimate-noise_var", "pcs-comm_noise_var",
             "pcs-tol", "pcs-gain_var", "pcs-noise_var", "pcs-c0", "penalty_f"],
    )
    def test_nan_raises(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: _pcs_config(c0=NAN), "c0"),
    ], ids=["pcs-c0"])
    def test_error_names_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: Target(math.inf, 0.0, 0.0), "gain_var"),
        (lambda: Scene((Target(1.0, 0.0, 0.0),), math.inf), "noise_var"),
        (lambda: air_quadrature(QAM16, math.inf), "noise_var"),
        (lambda: _pcs_config(comm_noise_var=math.inf), "comm_noise_var"),
        (lambda: _pcs_config(gain_var=math.inf), "gain_var"),
        (lambda: _pcs_config(noise_var=math.inf), "noise_var"),
    ], ids=["target-gain_var", "scene-noise_var", "air-noise_var", "pcs-comm_noise_var", "pcs-gain_var",
            "pcs-noise_var"])
    def test_infinite_variance_raises(self, build, field):
        """An infinite variance would run to nan (an all-nan DD map, a nan AIR or DR) instead of failing here."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build()

    def test_inf_still_accepted(self):
        assert Scene((Target(1.0, 0.0, 0.0),), 0.0).noise_var == 0.0
        assert wiener(math.inf).snr_in == math.inf
        assert _pcs_config(tol=math.inf).tol == math.inf
        assert _pcs_config(c0=math.inf).c0 == math.inf  # the solve clamps it, with a warning

    def test_infinite_budget_clamped(self):
        with pytest.warns(UserWarning, match="clamped"):
            sol = mba_solve(_pcs_config(c0=math.inf, max_outer_iters=1))
        assert math.isfinite(sol.c0_effective)


class TestThreadsFlag:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["codebook", "profiles"])
    def test_below_one_exits_2(self, tmp_path, capsys, command, threads):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


QAM16 = make_uniform("qam", 16)
DIMS16 = FrameDims(16, 16)
SCENE = Scene((Target(1.0, 3.0, 2.0),), 0.5)


MONTE_CARLO_RUNS = pytest.mark.parametrize("run", [
    lambda trials=10, seed=0, threads=1: empirical_metrics(QAM16, MF, DIMS16, SCENE, trials, seed, threads),
    lambda trials=10, seed=0, threads=1: empirical_dd_profile(QAM16, MF, DIMS16, SCENE, trials, seed, threads),
    lambda trials=10, seed=0, threads=1: identity_checks(QAM16, (MF,), DIMS16, SCENE, trials, seed, threads),
    lambda trials=10, seed=0, threads=1: detection_probability(DIMS16, default_tradeoff_scene(0.5), (QAM16,), MF,
                                                               CfarConfig(1, 4), trials, seed, threads),
], ids=["empirical_metrics", "empirical_dd_profile", "identity_checks", "detection_probability"])


class TestThreadsArgument:
    @pytest.mark.parametrize("threads", [0, -3, 2.5, True], ids=["zero", "negative", "float", "bool"])
    @MONTE_CARLO_RUNS
    def test_raises_before_the_tables_are_built(self, monkeypatch, run, threads):
        monkeypatch.setattr(metrics, "_cell_tables", lambda *a: pytest.fail("the cell tables were built"))
        with pytest.raises(ValueError, match="threads must be an int >= 1"):
            run(threads=threads)


class TestCountArguments:
    """Trial counts, seeds and frame and window sizes are integers, not bools or fractions, at or above a least
    value; numpy integers pass."""

    @pytest.mark.parametrize("name, value", [
        ("trials", 0), ("trials", True), ("trials", 2.5), ("trials", 300.0),
        ("seed", -1), ("seed", True), ("seed", 1.5),
    ])
    @MONTE_CARLO_RUNS
    def test_raises_before_the_tables_are_built(self, monkeypatch, run, name, value):
        monkeypatch.setattr(metrics, "_cell_tables", lambda *a: pytest.fail("the cell tables were built"))
        least = {"trials": 1, "seed": 0}[name]
        with pytest.raises(ValueError, match=f"{name} must be an int >= {least}"):
            run(**{name: value})

    @MONTE_CARLO_RUNS
    def test_numpy_integers_pass(self, run):
        run(trials=np.int64(3), seed=np.uint32(2), threads=np.int8(2))

    @pytest.mark.parametrize("build, message", [
        (lambda: FrameDims(16.5, 8), "n_subcarriers must be an int >= 2"),
        (lambda: FrameDims(1, 8), "n_subcarriers must be an int >= 2"),
        (lambda: FrameDims(16, True), "n_symbols must be an int >= 1"),
        (lambda: FrameDims(16, 8.0), "n_symbols must be an int >= 1"),
        (lambda: CfarConfig(2.5, 16), "guard_cells must be an int >= 0"),
        (lambda: CfarConfig(-1, 16), "guard_cells must be an int >= 0"),
        (lambda: CfarConfig(2, True), "train_cells must be an int >= 1"),
        (lambda: CfarConfig(2, 0), "train_cells must be an int >= 1"),
    ], ids=["dims-fractional-n", "dims-n-below-2", "dims-bool-m", "dims-float-m", "cfar-fractional-guard",
            "cfar-negative-guard", "cfar-bool-train", "cfar-zero-train"])
    def test_dataclasses_reject(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_dataclasses_store_numpy_integers_as_ints(self):
        dims, cfar = FrameDims(np.int64(16), np.int32(16)), CfarConfig(np.int64(2), np.int16(16))
        assert [type(v) for v in (dims.n_subcarriers, dims.n_symbols, cfar.guard_cells, cfar.train_cells)] == [int] * 4
        # numpy's PCG64.advance, which skips a batch's uniforms, takes no numpy integer product of the frame size
        assert empirical_dd_profile(QAM16, MF, dims, SCENE, 3, 0).shape == (16, 16)

    def test_reports_hold_python_ints(self):
        """Reports hold the counts as Python ints, so they serialize as JSON whatever integers the caller passed."""
        reports = (empirical_metrics(QAM16, MF, DIMS16, SCENE, np.int64(3), np.int64(1)),
                   *identity_checks(QAM16, (MF,), DIMS16, SCENE, np.int64(3), np.uint32(1)))
        for report in reports:
            assert (type(report.trials), type(report.seed)) == (int, int)
            assert json.loads(json.dumps(dataclasses.asdict(report)))["trials"] == 3

    @pytest.mark.parametrize("build, message", [
        (lambda path: _pcs_config(max_outer_iters=True), "max_outer_iters must be an int >= 1"),
        (lambda path: _pcs_config(max_outer_iters=2.5), "max_outer_iters must be an int >= 1"),
        (lambda path: load_codebook(_json_file(path, {"family": "qam", "order": 16.9, "probs": [1.0] * 16})),
         "order must be an int >= 1"),
        (lambda path: load_codebook(_json_file(path, ["qam", 16])), "codebook must be a JSON object"),
        (lambda path: air_estimate(QAM16, 0.1, samples=True), "samples must be an int >= 1"),
        (lambda path: air_estimate(QAM16, 0.1, samples=100, seed=True), "seed must be an int >= 0"),
    ], ids=["pcs-bool-iters", "pcs-fractional-iters", "codebook-fractional-order", "codebook-list",
            "air-bool-samples", "air-bool-seed"])
    def test_library_counts_reject(self, tmp_path, build, message):
        with pytest.raises(ValueError, match=message):
            build(tmp_path / "codebook.json")


def _json_file(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["profiles", "tradeoff"])
    def test_negative_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
