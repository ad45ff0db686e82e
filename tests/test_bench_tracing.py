"""The benchmark's traced run patches package functions by name; every name must still exist."""
from pathlib import Path

import nonauto.linop
from nonauto.evofam import EvolutionFamilyApprox, PerturbationFamily
from nonauto.metrics import ANormEvaluator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = nonauto.linop.norm_of
    # The tracer wraps values_stack only where a class body defines it, so
    # the family entry point must live on the base class.
    methods = [(PerturbationFamily, "values_stack"), (EvolutionFamilyApprox, "__init__"),
               (ANormEvaluator, "value_stack")]
    before = [cls.__dict__[name] for cls, name in methods]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert nonauto.linop.norm_of is not original
        for (cls, name), fn in zip(methods, before):
            assert cls.__dict__[name] is not fn, f"{cls.__name__}.{name} not traced"
    finally:
        tracer.uninstall()
    assert nonauto.linop.norm_of is original
    assert [cls.__dict__[name] for cls, name in methods] == before
