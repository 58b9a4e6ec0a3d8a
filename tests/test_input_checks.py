"""Bad numbers fail loudly: nan in the library types, a thread count below 1 or a negative seed on the command line."""

import math

import numpy as np
import pytest

from ofdm_isac.air import AirConfig, noise_entropy
from ofdm_isac.channel import FrameDims, Scene, Target, scene_from_dict
from ofdm_isac.cli import main
from ofdm_isac.filtering import MF, FilterKind, FilterType, wiener
from ofdm_isac.pcs import PcsConfig, penalty_f

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
            lambda: _pcs_config(tol=NAN),
            lambda: _pcs_config(gain_var=NAN),
            lambda: _pcs_config(noise_var=NAN),
            lambda: noise_entropy(NAN),
            lambda: penalty_f(np.ones(4), MF, NAN),
        ],
        ids=["target-gain_var", "scene-noise_var", "wiener", "filterkind-wf", "air-comm_noise_var",
             "pcs-tol", "pcs-gain_var", "pcs-noise_var", "noise_entropy", "penalty_f"],
    )
    def test_nan_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_scene_file_with_nan_rejected(self):
        with pytest.raises(ValueError):
            scene_from_dict({"N": 8, "M": 4, "noise_var": NAN, "targets": [{"gain_var": 1.0, "delay_bin": 0, "doppler_bin": 0}]})
        with pytest.raises(ValueError):
            scene_from_dict({"N": 8, "M": 4, "noise_var": 1.0, "targets": [{"gain_var": NAN, "delay_bin": 0, "doppler_bin": 0}]})

    def test_inf_still_accepted(self):
        assert Scene((Target(1.0, 0.0, 0.0),), 0.0).snr_in == math.inf
        assert Target(math.inf, 0.0, 0.0).gain_var == math.inf
        assert wiener(math.inf).snr_in == math.inf
        assert AirConfig(math.inf).comm_noise_var == math.inf
        assert _pcs_config(tol=math.inf).tol == math.inf


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


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["profiles", "tradeoff"])
    def test_negative_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
