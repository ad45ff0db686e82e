"""The benchmark's traced run patches package functions by name; every name must still exist."""
from pathlib import Path

import numpy as np

import nonauto.linop
import nonauto.semigroup
from nonauto import GrowthBound, NormKind, Operator
from nonauto.evofam import EvolutionFamilyApprox, PerturbationFamily
from nonauto.metrics import ANormEvaluator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    functions = [(nonauto.linop, "norm_of"), (nonauto.linop, "resolvent"), (nonauto.semigroup, "expm"),
                 (nonauto.semigroup, "expm_stack"), (nonauto.semigroup, "fit_growth_bound")]
    originals = [getattr(mod, name) for mod, name in functions]
    # The tracer wraps values_stack only where a class body defines it, so
    # the family entry point must live on the base class.
    methods = [(PerturbationFamily, "values_stack"), (EvolutionFamilyApprox, "__init__"),
               (ANormEvaluator, "value_stack"), (ANormEvaluator, "__init__"), (ANormEvaluator, "sweep")]
    before = [cls.__dict__[name] for cls, name in methods]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for (mod, name), fn in zip(functions, originals):
            assert getattr(mod, name) is not fn, f"{name} not traced"
        for (cls, name), fn in zip(methods, before):
            assert cls.__dict__[name] is not fn, f"{cls.__name__}.{name} not traced"
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in functions] == originals
    assert [cls.__dict__[name] for cls, name in methods] == before


def test_block_pool_workers_call_nothing_traced(monkeypatch):
    # expm_stack runs _expm_block once per block; what a block calls stays
    # unwrapped, so block time is booked as expm_stack self time and the
    # tracer adds no span per block.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    names = ("_expm_block", "_taylor", "norm_stack")
    originals = [getattr(nonauto.semigroup, name) for name in names]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert [getattr(nonauto.semigroup, name) for name in names] == originals
    finally:
        tracer.uninstall()


def test_evaluator_keeps_the_counted_attributes():
    # The build counter reads evaluator.total and evaluator.skipped.
    a = Operator(np.diag([-1.0, -2.0]), NormKind.TWO)
    ev = ANormEvaluator(a, GrowthBound(1.0, -1.0))
    assert (ev.total, ev.skipped) == (221, 0)
