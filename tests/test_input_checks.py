"""Bad numbers fail loudly: nan in the library types, a thread count that is not an int >= 1 in the library or
on the command line, or a negative seed on the command line."""

import math

import numpy as np
import pytest

from ofdm_isac import metrics
from ofdm_isac.air import AirConfig
from ofdm_isac.channel import FrameDims, Scene, Target
from ofdm_isac.cli import main
from ofdm_isac.constellation import make_uniform
from ofdm_isac.detection import CfarConfig, default_tradeoff_scene, detection_probability
from ofdm_isac.filtering import MF, FilterKind, FilterType, wiener
from ofdm_isac.metrics import empirical_dd_profile, empirical_metrics, identity_checks
from ofdm_isac.pcs import PcsConfig, mba_solve, penalty_f

NAN = float("nan")


def _pcs_config(**overrides):
    kwargs = dict(family="qam", order=16, filt=MF, dims=FrameDims(8, 4), gain_var=1.0,
                  noise_var=0.5, comm=AirConfig(0.1), c0=10.0)
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
            lambda: AirConfig(NAN),
            lambda: AirConfig(0.1, complex(NAN, 0.0)),
            lambda: AirConfig(0.1, complex(0.0, math.inf)),
            lambda: _pcs_config(tol=NAN),
            lambda: _pcs_config(gain_var=NAN),
            lambda: _pcs_config(noise_var=NAN),
            lambda: _pcs_config(c0=NAN),
            lambda: penalty_f(np.ones(4), MF, NAN),
        ],
        ids=["target-gain_var", "scene-noise_var", "wiener", "filterkind-wf", "air-comm_noise_var",
             "air-channel_gain", "air-channel_gain-inf", "pcs-tol", "pcs-gain_var", "pcs-noise_var", "pcs-c0",
             "penalty_f"],
    )
    def test_nan_raises(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: AirConfig(0.1, complex(NAN, 0.0)), "channel_gain"),
        (lambda: _pcs_config(c0=NAN), "c0"),
    ], ids=["air-channel_gain", "pcs-c0"])
    def test_error_names_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_inf_still_accepted(self):
        assert Scene((Target(1.0, 0.0, 0.0),), 0.0).noise_var == 0.0
        assert Target(math.inf, 0.0, 0.0).gain_var == math.inf
        assert wiener(math.inf).snr_in == math.inf
        assert AirConfig(math.inf).comm_noise_var == math.inf
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


class TestThreadsArgument:
    @pytest.mark.parametrize("threads", [0, -3, 2.5, True], ids=["zero", "negative", "float", "bool"])
    @pytest.mark.parametrize("run", [
        lambda threads: empirical_metrics(QAM16, MF, DIMS16, SCENE, 10, 0, threads=threads),
        lambda threads: empirical_dd_profile(QAM16, MF, DIMS16, SCENE, 10, 0, threads=threads),
        lambda threads: identity_checks(QAM16, (MF,), DIMS16, SCENE, 10, 0, threads=threads),
        lambda threads: detection_probability(DIMS16, default_tradeoff_scene(0.5), (QAM16,), MF, CfarConfig(1, 4),
                                              10, 0, threads=threads),
    ], ids=["empirical_metrics", "empirical_dd_profile", "identity_checks", "detection_probability"])
    def test_raises_before_the_tables_are_built(self, monkeypatch, run, threads):
        monkeypatch.setattr(metrics, "_cell_tables", lambda *a: pytest.fail("the cell tables were built"))
        with pytest.raises(ValueError, match="threads must be an int >= 1"):
            run(threads)


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["profiles", "tradeoff"])
    def test_negative_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
