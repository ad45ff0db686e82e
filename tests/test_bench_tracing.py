"""The benchmark's traced run patches package functions by name; every name must still exist."""
from pathlib import Path

import nonauto.linop

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = nonauto.linop.norm_of
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert nonauto.linop.norm_of is not original
    finally:
        tracer.uninstall()
    assert nonauto.linop.norm_of is original
