"""Every module attribute the benchmark's tracer wraps still exists, and unpatching restores it."""

from pathlib import Path

from ofdm_isac import cli, detection, pcs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_unpatches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = (pcs.brentq, pcs.complex_normal, pcs.logsumexp, detection.ThreadPoolExecutor, cli.json)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # an AttributeError here names a target that was renamed or removed
        assert pcs.brentq is not before[0]
    finally:
        tracer.unpatch()
    assert (pcs.brentq, pcs.complex_normal, pcs.logsumexp, detection.ThreadPoolExecutor, cli.json) == before
