"""Acceptance gate: every criterion at its stated tolerance under a fixed seed.

Criterion 10 applies the literal proximity factor e^{4 eps} eps to the time-1
maps of a base flow with strict exponential growth; the measured ratio sits
near 2.3, so the criterion cannot pass as stated and is kept as a strict
expected failure. The companion test below it confirms the growth-adjusted
form of the same bound and that hyperbolicity persists, which is the
substantive claim.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nonauto
import nonauto.acceptance
from nonauto.acceptance import run_criteria
from nonauto.dichotomy import EpsSweepResult
from nonauto.evofam import ScaledProfileFamily
from nonauto.profiles import Profile, Sinusoid

SEED = 7

NAMES = [
    "constant-collapse",
    "diagonal-convergence",
    "cauchy-increment",
    "pair-difference-bound",
    "product-difference",
    "growth-bound",
    "metric-relations",
    "resolvent-derivative-decay",
    "generator-derivative",
    "dichotomy-roughness",
    "heat-green-kernel",
    "spiky-sweep-bounded",
    "integrator-agreement",
]

PARAMS = [
    pytest.param(
        index,
        marks=pytest.mark.xfail(
            reason="literal factor is unattainable under strict exponential growth",
            strict=True,
        ),
    )
    if index == 10
    else index
    for index in range(1, 14)
]


@pytest.fixture(scope="session")
def criteria_pass():
    """The criteria at SEED, and the profile evaluations of that pass: scalar calls,
    items evaluated in array form, and the profiles its factored families were built on."""
    calls = {"scalar": 0, "array": 0, "profiles": []}
    call, values, init = Profile.__call__, Sinusoid.values, ScaledProfileFamily.__init__

    def counted_init(family, interval, profile, b0):
        calls["profiles"].append(profile)
        init(family, interval, profile, b0)

    def counted_call(profile, t):
        calls["scalar"] += 1
        return call(profile, t)

    def counted_values(profile, ts):
        calls["array"] += len(ts)
        return values(profile, ts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Profile, "__call__", counted_call)
        patch.setattr(Sinusoid, "values", counted_values)
        patch.setattr(ScaledProfileFamily, "__init__", counted_init)
        return {r.index: r for r in run_criteria(SEED)}, calls


@pytest.fixture(scope="session")
def results(criteria_pass):
    return criteria_pass[0]


@pytest.mark.parametrize("index", PARAMS, ids=NAMES)
def test_criterion(index, results):
    r = results[index]
    status = "PASS" if r.passed else "FAIL"
    print(f"criterion {r.index:02d} {r.name}: {status} ({r.detail})")
    assert r.passed, f"criterion {r.index:02d} {r.name}: {r.detail}"


def test_criteria_evaluate_sinusoids_as_arrays(criteria_pass):
    # Criteria 2, 8, 9, 10 and 13 take Sinusoid profiles, and no criterion calls a profile per t.
    calls = criteria_pass[1]
    assert all(isinstance(p, Profile) for p in calls["profiles"])
    assert any(isinstance(p, Sinusoid) for p in calls["profiles"])
    assert calls["scalar"] == 0
    assert calls["array"] > 0


def test_roughness_growth_adjusted_bound_holds(results):
    r = results[10]
    m = re.search(r"sup/growth-adjusted (\d+\.\d+)", r.detail)
    assert m is not None, r.detail
    assert float(m.group(1)) <= 1.0
    assert "hyperbolicity persisted True" in r.detail


def test_roughness_refinement_failure_is_a_fail_verdict(monkeypatch):
    # A sweep row whose refinement ran out of levels has no time-1 maps; the
    # criterion must say FAIL and name the failure, not crash on the empty row.
    failed = EpsSweepResult(
        eps=1e-2,
        rows=(),
        persisted=False,
        bound=math.exp(4e-2) * 1e-2,
        gap_floor=0.5,
        refine_error="tol 1.000e-04 not met at two levels in a row by level 14",
        achieved_delta=3e-4,
    )
    monkeypatch.setattr(nonauto.acceptance, "roughness_sweep", lambda *args, **kwargs: [failed])
    r = nonauto.acceptance.criterion_10(1)
    assert not r.passed
    assert "hyperbolicity persisted False" in r.detail
    assert "refinement failed at eps 0.01: tol 1.000e-04 not met" in r.detail


def test_spiky_sweep_criterion_forms_no_dense_diagonal():
    # Criterion 12 runs on 4096 cells; a dense diagonal there is 134 MB.
    tracemalloc.start()
    try:
        nonauto.acceptance.criterion_12(SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _child_env():
    # A child started in another working directory must import the same
    # nonauto as this process; a relative PYTHONPATH entry such as `src`
    # would not resolve there.
    package_root = str(Path(nonauto.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries = [package_root] + [e for e in inherited if e]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def test_verify_all_cli_deterministic(tmp_path, results):
    # A fresh process must reproduce this session's criteria byte for byte;
    # exit code 2 records the expected-failure criterion without hiding it.
    proc = subprocess.run(
        [sys.executable, "-m", "nonauto.cli", "verify-all", "--seed", str(SEED)],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr

    lines = (tmp_path / "verify_criteria.csv").read_bytes().decode().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "index,name,passed,detail"
    session = [f"{r.index},{r.name},{int(r.passed)},{r.detail}" for r in results.values()]
    assert lines[2:15] == session
    rows = [line.split(",", 3) for line in lines[2:]]
    assert [row[0] for row in rows] == [str(i) for i in range(1, 15)]
    failed = {row[0] for row in rows if row[2] == "0"}
    assert failed == {"10"}
    assert rows[13][1] == "determinism" and rows[13][2] == "1"
