"""The repository's pytest configuration, checked by a child pytest run."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ALWAYS_FAILS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False
"""


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="hypothesis reports without libcst")
def test_failing_hypothesis_example_fails_one_test(tmp_path):
    # Reporting a failing example imports libcst, which warns on import; under
    # filterwarnings = ["error"] that warning was an INTERNALERROR that ended the session.
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-q", "test_always_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "1 failed" in proc.stdout, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
