"""End-to-end checks of the command line interface.

Every command is driven through ``main(argv)`` in a temporary directory and
judged by its exit code and the artifacts it leaves behind: CSV files with a
``# config_hash=... seed=...`` header line and JSON summaries.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonauto import (
    GrowthBound,
    NormKind,
    Operator,
    a_norm,
    expm,
    op_norm,
    read_matrix,
    write_matrix,
)
import nonauto.cli
import nonauto.dichotomy
from nonauto import errors, linop
from nonauto.acceptance import CriterionResult
from nonauto.cli import _build_parser, main

from test_acceptance import _child_env


def _write_mat(path, entries, kind=NormKind.TWO):
    write_matrix(str(path), Operator(np.asarray(entries, dtype=float), kind))
    return str(path)


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1], [line.split(",") for line in lines[2:]]


class TestAnormCommand:
    def test_artifacts_match_library(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = np.diag([-1.0, -2.0])
        c = np.array([[0.0, 1.0], [0.0, 0.0]])
        _write_mat(tmp_path / "a.txt", a)
        _write_mat(tmp_path / "c.txt", c)
        rc = main(
            [
                "anorm",
                "--matrix-file", "a.txt",
                "--perturb-file", "c.txt",
                "--m", "1.0",
                "--omega0", "-1.0",
            ]
        )
        assert rc == 0
        header, columns, rows = _read_csv(tmp_path / "run_anorm.csv")
        assert header.startswith("# config_hash=")
        assert header.endswith("seed=0")
        assert columns == "mu,scaled_norm"
        assert len(rows) == 221
        mus = np.array([float(r[0]) for r in rows])
        assert np.all(np.diff(mus) > 0)

        payload = json.loads((tmp_path / "run_anorm.json").read_text())
        expected = a_norm(
            Operator(c, NormKind.TWO),
            Operator(a, NormKind.TWO),
            GrowthBound(1.0, -1.0),
        )
        assert payload["value"] == expected.value
        assert payload["m"] == 1.0
        assert payload["omega0"] == -1.0
        assert payload["skipped"] == 0
        assert payload["total"] == 221
        assert payload["tail_attained"] == (payload["argmax_mu"] is None)

    def test_grid_norms_are_computed_once(self, tmp_path, monkeypatch):
        # The CSV rows and the JSON value come from one pass over the mu-grid.
        monkeypatch.chdir(tmp_path)
        _write_mat(tmp_path / "a.txt", np.diag([-1.0, -2.0]))
        _write_mat(tmp_path / "c.txt", np.array([[0.0, 1.0], [0.0, 0.0]]))
        calls = []
        for cls in (linop.BandResolvent, linop.DenseResolvents):
            monkeypatch.setattr(cls, "norms", _recording(cls.norms, calls))
        argv = ["anorm", "--matrix-file", "a.txt", "--perturb-file", "c.txt", "--m", "1", "--omega0", "-1"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_norm_flag_selects_norm(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = np.diag([-1.0, -3.0])
        c = np.array([[1.0, 2.0], [0.5, 1.0]])
        _write_mat(tmp_path / "a.txt", a, NormKind.ONE)
        _write_mat(tmp_path / "c.txt", c, NormKind.ONE)
        rc = main(
            [
                "anorm",
                "--matrix-file", "a.txt",
                "--perturb-file", "c.txt",
                "--m", "1.0",
                "--omega0", "-1.0",
                "--norm", "1",
                "--out", "one",
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "one_anorm.json").read_text())
        expected = a_norm(
            Operator(c, NormKind.ONE),
            Operator(a, NormKind.ONE),
            GrowthBound(1.0, -1.0),
        )
        assert payload["value"] == expected.value

    @pytest.mark.parametrize("m, omega0", [("inf", "-1"), ("1", "nan"), ("1", "inf")])
    def test_non_finite_certificate_exits_config(self, tmp_path, monkeypatch, capsys, m, omega0):
        # m = inf made every value read 0, and omega0 = nan blamed A for a
        # mu-grid no resolvent could solve.
        monkeypatch.chdir(tmp_path)
        _write_mat(tmp_path / "a.txt", np.diag([-1.0, -2.0]))
        _write_mat(tmp_path / "c.txt", np.array([[0.0, 1.0], [0.0, 0.0]]))
        argv = ["anorm", "--matrix-file", "a.txt", "--perturb-file", "c.txt", "--m", m, "--omega0", omega0]
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "run_anorm.json").exists()

    @pytest.mark.parametrize("flag, value", [("--max-offset", "inf"), ("--points-per-decade", "0"),
                                             ("--points-per-decade", "-5")])
    def test_bad_grid_exits_config(self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        _write_mat(tmp_path / "a.txt", np.diag([-1.0, -2.0]))
        _write_mat(tmp_path / "c.txt", np.array([[0.0, 1.0], [0.0, 0.0]]))
        argv = ["anorm", "--matrix-file", "a.txt", "--perturb-file", "c.txt", "--m", "1", "--omega0", "-1", flag, value]
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    def test_grid_lost_to_rounding_exits_config(self, tmp_path, monkeypatch, capsys):
        # At omega0 = 1e20 every offset below about 1e4 rounds to mu = omega0.
        monkeypatch.chdir(tmp_path)
        _write_mat(tmp_path / "a.txt", np.diag([-1.0, -2.0]))
        _write_mat(tmp_path / "c.txt", np.array([[0.0, 1.0], [0.0, 0.0]]))
        argv = ["anorm", "--matrix-file", "a.txt", "--perturb-file", "c.txt", "--m", "1", "--omega0", "1e20"]
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))


class TestYdistCommand:
    def test_diagonal_pair_matches_matrix_norm(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = np.diag([2.0, 0.0])
        b = np.diag([-1.0, 0.0])
        _write_mat(tmp_path / "a.txt", a)
        _write_mat(tmp_path / "b.txt", b)
        rc = main(["ydist", "--matrix-file", "a.txt", "--second-file", "b.txt"])
        assert rc == 0
        header, columns, rows = _read_csv(tmp_path / "run_ydist.csv")
        assert columns == "lambda,scaled_difference"
        assert len(rows) >= 3
        payload = json.loads((tmp_path / "run_ydist.json").read_text())
        assert payload["value"] == pytest.approx(op_norm(Operator(a - b, NormKind.TWO)), abs=1e-4)
        assert payload["uncertainty"] <= 1e-3 * payload["value"] + 1e-9

    def test_unsettled_tail_exits_numerical(self, tmp_path, monkeypatch):
        # Entries near the lambda ceiling leave the approximants still moving.
        monkeypatch.chdir(tmp_path)
        _write_mat(tmp_path / "a.txt", np.diag([1e7, 0.0]))
        _write_mat(tmp_path / "b.txt", np.diag([-1e7, 0.0]))
        rc = main(["ydist", "--matrix-file", "a.txt", "--second-file", "b.txt"])
        assert rc == 3
        assert not (tmp_path / "run_ydist.json").exists()


class TestEvolveCommand:
    def test_constant_family_matches_exponential(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = np.diag([-1.0, -2.0])
        b = np.array([[0.1, 0.0], [0.0, 0.3]])
        config = {
            "matrix": a.tolist(),
            "family": {"kind": "constant", "interval": [0.0, 1.0], "entries": b.tolist()},
            "level": 3,
            "t_grid": [0.0, 0.5, 1.0],
        }
        _write_config(tmp_path / "cfg.json", config)
        rc = main(["evolve", "--config", "cfg.json"])
        assert rc == 0
        header, columns, rows = _read_csv(tmp_path / "run_evolve.csv")
        assert columns == "t,u_0_0,u_0_1,u_1_0,u_1_1"
        assert len(rows) == 3
        for row in rows:
            t = float(row[0])
            got = np.array([float(v) for v in row[1:]]).reshape(2, 2)
            want = expm(t * Operator(a + b, NormKind.TWO)).entries
            assert np.allclose(got, want, atol=1e-10)

    def test_t_grid_start_stop_count(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0]],
            "family": {"kind": "constant", "interval": [0.0, 1.0], "entries": [[0.5]]},
            "s": 0.25,
            "t_grid": {"start": 0.25, "stop": 1.0, "count": 4},
        }
        _write_config(tmp_path / "cfg.json", config)
        assert main(["evolve", "--config", "cfg.json"]) == 0
        _, columns, rows = _read_csv(tmp_path / "run_evolve.csv")
        assert columns == "t,u_0_0"
        assert [float(row[0]) for row in rows] == list(np.linspace(0.25, 1.0, 4))
        for row in rows:
            assert float(row[1]) == pytest.approx(np.exp(-0.5 * (float(row[0]) - 0.25)), rel=1e-12)

    def test_out_from_config_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0]],
            "family": {"kind": "constant", "interval": [0.0, 1.0], "entries": [[0.0]]},
            "out": "named",
            "t_grid": [0.0, 1.0],
        }
        _write_config(tmp_path / "cfg.json", config)
        assert main(["evolve", "--config", "cfg.json"]) == 0
        assert (tmp_path / "named_evolve.csv").exists()
        # An explicit flag still wins over the config file.
        assert main(["evolve", "--config", "cfg.json", "--out", "flag"]) == 0
        assert (tmp_path / "flag_evolve.csv").exists()


class TestConvergeCommand:
    def test_constant_family_collapses_at_level_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0, 0.0], [0.0, -2.0]],
            "m": 1.0,
            "omega0": -1.0,
            "family": {
                "kind": "constant",
                "interval": [0.0, 1.0],
                "entries": [[0.1, 0.0], [0.0, 0.1]],
            },
            "tol": 1e-6,
        }
        _write_config(tmp_path / "cfg.json", config)
        rc = main(["converge", "--config", "cfg.json"])
        assert rc == 0
        payload = json.loads((tmp_path / "run_converge.json").read_text())
        assert payload["n_final"] == 0
        assert payload["achieved_delta"] == 0.0
        header, columns, rows = _read_csv(tmp_path / "run_converge.csv")
        assert columns == "level,delta,omega_n,bound"
        assert len(rows) == 1

    def test_tolerance_flag_overrides_config(self, tmp_path, monkeypatch):
        # Config alone would succeed; the stricter flag forces the failure path.
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0, 0.0], [0.0, -2.0]],
            "m": 1.0,
            "omega0": -1.0,
            "family": {
                "kind": "sinusoid",
                "interval": [0.0, 1.0],
                "entries": [[0.0, 0.3], [0.0, 0.0]],
            },
            "tol": 0.5,
        }
        _write_config(tmp_path / "cfg.json", config)
        rc = main(["converge", "--config", "cfg.json", "--tol", "1e-12", "--n-max", "2"])
        assert rc == 3
        assert (tmp_path / "run_converge.csv").exists()
        assert not (tmp_path / "run_converge.json").exists()
        _, columns, rows = _read_csv(tmp_path / "run_converge.csv")
        assert columns == "level,delta,omega_n,bound"
        # Deltas compare successive levels, so the partial table starts at 1.
        assert [row[0] for row in rows] == ["1", "2"]

    def test_bound_beyond_doubles_is_inf(self, tmp_path, monkeypatch, capsys):
        # e^{4 omega1} overflows doubles above omega1 = 177.4; it raised a bare OverflowError.
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0]],
            "m": 1.0,
            "omega0": -1.0,
            "family": {"kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[300.0]]},
        }
        _write_config(tmp_path / "cfg.json", config)
        assert main(["converge", "--config", "cfg.json"]) == 3
        assert "tolerance not reached" in capsys.readouterr().err
        _, columns, rows = _read_csv(tmp_path / "run_converge.csv")
        assert columns == "level,delta,omega_n,bound"
        assert rows and all(row[3] == "inf" for row in rows)

    def test_seed_only_labels_the_run(self, tmp_path, monkeypatch):
        # Pieces of 0.2 leave the modulus at h = 1, 0.5 and 0.25 to sampling,
        # whose draws must not depend on the seed.
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0, 0.0], [0.0, -2.0]],
            "m": 1.0,
            "omega0": -1.0,
            "family": {
                "kind": "piecewise",
                "nodes": [0.0, 0.2, 0.6, 1.0],
                "mats": [
                    [[0.0, 0.3], [0.0, 0.0]],
                    [[0.2, 0.0], [0.1, 0.0]],
                    [[0.0, 0.0], [0.3, 0.1]],
                    [[0.1, 0.1], [0.0, 0.0]],
                ],
            },
            "tol": 1e-3,
        }
        _write_config(tmp_path / "cfg.json", config)
        bodies = []
        for seed in ("1", "2"):
            assert main(["converge", "--config", "cfg.json", "--seed", seed, "--out", f"s{seed}"]) == 0
            lines = (tmp_path / f"s{seed}_converge.csv").read_text().splitlines()
            assert lines[0].endswith(f"seed={seed}")
            bodies.append(lines[1:])
        assert bodies[0] == bodies[1]


class TestDichotomyCommand:
    def test_saddle_sweep_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0, 0.0], [0.0, 1.0]],
            "m": 1.0,
            "omega0": 1.0,
            "family": {
                "kind": "sinusoid",
                "interval": [0.0, 3.0],
                "entries": [[1.0, 0.0], [0.0, 1.0]],
            },
            "eps_list": [0.0, 0.01],
        }
        _write_config(tmp_path / "cfg.json", config)
        rc = main(["dichotomy", "--config", "cfg.json"])
        assert rc == 0
        header, columns, rows = _read_csv(tmp_path / "run_dichotomy.csv")
        assert columns == "eps,t,hyperbolic,spectral_gap,stable_rank,sup_diff,bound_e4w1w1"
        assert len(rows) == 10
        assert all(row[2] == "1" for row in rows)
        assert all(row[4] == "1" for row in rows)

        payload = json.loads((tmp_path / "run_dichotomy.json").read_text())
        assert [entry["eps"] for entry in payload["sweep"]] == [0.0, 0.01]
        assert all(entry["persisted"] for entry in payload["sweep"])


    def test_eps_beyond_doubles_exits_numerical(self, tmp_path, monkeypatch, capsys):
        # e^{4 eps} overflows doubles above eps = 177.4; it raised a bare OverflowError.
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0, 0.0], [0.0, 1.0]],
            "family": {"kind": "sinusoid", "interval": [0.0, 2.0], "entries": [[1.0, 0.0], [0.0, 1.0]]},
            "eps_list": [200.0],
        }
        assert main(["dichotomy", "--config", _write_config(tmp_path / "cfg.json", config)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "eps=200.0" in err

    def test_negative_eps_exits_config(self, tmp_path, monkeypatch, capsys):
        # A negative eps tested the gap against a floor above alpha / 2.
        monkeypatch.chdir(tmp_path)
        config = dict(TestUsageErrors.CONFIGS["dichotomy"], eps_list=[-0.01])
        assert main(["dichotomy", "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("config_n_max, argv, want", [(None, [], None), (9, [], 9), (9, ["--n-max", "5"], 5)])
    def test_refinement_budget_is_the_configs_or_the_sweeps(self, tmp_path, monkeypatch, config_n_max, argv, want):
        # The CLI restates no default of roughness_sweep: it passes n_max only when the config or a flag names one.
        monkeypatch.chdir(tmp_path)
        budgets = []

        def sweep(*args, **kwargs):
            budgets.append(kwargs.get("n_max"))
            return []

        monkeypatch.setattr(nonauto.cli, "roughness_sweep", sweep)
        config = dict(TestUsageErrors.CONFIGS["dichotomy"])
        if config_n_max is not None:
            config["n_max"] = config_n_max
        assert main(["dichotomy", "--config", _write_config(tmp_path / "cfg.json", config), *argv]) == 0
        assert budgets == [want]

    def test_short_interval_exits_config_before_refining(self, tmp_path, monkeypatch, capsys):
        # The default time samples are roughness_sweep's own: an interval shorter
        # than 1 is refused before the first level, not after the refinement.
        monkeypatch.chdir(tmp_path)

        def refine(*args, **kwargs):
            raise AssertionError("refined an interval with no time-1 map")

        monkeypatch.setattr(nonauto.dichotomy, "refine_to_tolerance", refine)
        family = dict(TestUsageErrors.CONFIGS["dichotomy"]["family"], interval=[0.0, 0.5])
        config = dict(TestUsageErrors.CONFIGS["dichotomy"], family=family)
        assert main(["dichotomy", "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        assert "interval shorter than 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    def test_empty_t_grid_exits_config(self, tmp_path, monkeypatch, capsys):
        # No time-1 map tested is no evidence that hyperbolicity persisted.
        monkeypatch.chdir(tmp_path)
        config = dict(TestUsageErrors.CONFIGS["dichotomy"], t_grid=[])
        assert main(["dichotomy", "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        assert "time sample" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))


class TestExamplesCommand:
    def test_translation_small_grid(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "examples",
                "--which", "translation",
                "--grid", "128,8.0",
                "--nmax", "2",
                "--no-pipeline",
                "--out", "ex",
            ]
        )
        assert rc == 0
        g = read_matrix(str(tmp_path / "ex_generator.txt"), NormKind.ONE)
        assert g.dim == 128
        _, columns, rows = _read_csv(tmp_path / "ex_sweep.csv")
        assert columns == "mu,scaled_norm"
        assert len(rows) == 81
        payload = json.loads((tmp_path / "ex_summary.json").read_text())
        assert payload["which"] == "translation"
        assert payload["contraction_pass"] and payload["no_growth_pass"]
        assert payload["a1_pass"] and payload["a2_pass"]
        assert payload["pipeline_agreement"] is None

    def test_infinite_length_exits_config(self, tmp_path, monkeypatch, capsys):
        # L = inf passed every bound and wrote a NaN spike mass.
        monkeypatch.chdir(tmp_path)
        assert main(["examples", "--which", "translation", "--grid", "64,inf", "--no-pipeline"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "finite" in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("length", ["1e-300", "1e300"])
    def test_stencil_beyond_doubles_exits_config(self, tmp_path, monkeypatch, capsys, length):
        # 1 / h**2 raised a bare ZeroDivisionError at L = 1e-300 and OverflowError at 1e300.
        monkeypatch.chdir(tmp_path)
        assert main(["examples", "--which", "heat", "--no-pipeline", "--grid", f"64,{length}", "--out", "ex"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "not finite doubles" in err and "Traceback" not in err
        assert not list(tmp_path.glob("ex_*"))


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--config", "absent.json"]) == 1

    def test_invalid_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text("{not json")
        assert main(["evolve", "--config", "cfg.json"]) == 1

    def test_unknown_family_kind(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0]],
            "family": {"kind": "perlin", "interval": [0.0, 1.0], "entries": [[0.0]]},
        }
        _write_config(tmp_path / "cfg.json", config)
        assert main(["evolve", "--config", "cfg.json"]) == 1

    def test_bad_norm_in_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0]],
            "norm": "7",
            "family": {"kind": "constant", "interval": [0.0, 1.0], "entries": [[0.0]]},
        }
        _write_config(tmp_path / "cfg.json", config)
        assert main(["evolve", "--config", "cfg.json"]) == 1

    @pytest.mark.parametrize("command", ["converge", "dichotomy"])
    @pytest.mark.parametrize("given, missing", [("m", "omega0"), ("omega0", "m")])
    def test_partial_certificate_exits_config(self, tmp_path, monkeypatch, capsys, command, given, missing):
        # One of m and omega0 alone is no certificate; a fitted one would drop the value given.
        monkeypatch.chdir(tmp_path)
        config = dict(TestUsageErrors.CONFIGS[command], m=50.0)
        del config[missing]
        assert main([command, "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and repr(missing) in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("shape", ["m-null", "tol-null", "interval-scalar", "top-level-list"])
    def test_malformed_value_exits_config(self, tmp_path, monkeypatch, capsys, shape):
        # A value of the wrong JSON type is a configuration error, not a traceback.
        monkeypatch.chdir(tmp_path)
        config = json.loads(json.dumps(TestUsageErrors.CONFIGS["converge"]))
        if shape == "m-null":
            config["m"] = None
        elif shape == "tol-null":
            config["tol"] = None
        elif shape == "interval-scalar":
            config["family"]["interval"] = 5
        else:
            config = [config]
        assert main(["converge", "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize(
        "key, value", [("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("n_max", 25), ("n_max", -3)]
    )
    def test_impossible_refinement_exits_config(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        config = dict(TestUsageErrors.CONFIGS["converge"], family={
            "kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[0.5]]}, **{key: value})
        assert main(["converge", "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("evolve", "level", 3.9),
            ("evolve", "level", True),
            ("evolve", "seed", 2.5),
            ("evolve", "t_grid", {"start": 0.0, "stop": 1.0, "count": 4.5}),
            ("converge", "n_max", 13.9),
            ("dichotomy", "n_max", 2.5),
        ],
        ids=["level-float", "level-bool", "seed-float", "t-grid-count-float", "converge-n-max", "dichotomy-n-max"],
    )
    def test_non_integer_config_integer_exits_config(self, tmp_path, monkeypatch, capsys, command, key, value):
        # int() truncated 3.9 to 3 and read true as 1, so the run took a value the config does not hold.
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[-1.0, 0.5], [0.0, -2.0]],
            "m": 1.0,
            "omega0": 0.0,
            "family": {"kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[0.0, 0.3], [0.2, 0.0]]},
            "eps_list": [0.0],
            key: value,
        }
        assert main([command, "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and ("count" if key == "t_grid" else key) in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("command", ["converge", "dichotomy"])
    def test_infinite_interval_exits_config(self, tmp_path, monkeypatch, capsys, command):
        # An interval end at inf reached "math domain error" in the level count.
        monkeypatch.chdir(tmp_path)
        config = json.loads(json.dumps(TestUsageErrors.CONFIGS[command]))
        config["family"]["interval"] = [0.0, float("inf")]
        assert main([command, "--config", _write_config(tmp_path / "cfg.json", config)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "finite" in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("key, value", [("frequency", float("nan")), ("entries", [[float("nan")]]),
                                            ("amplitude", float("inf"))], ids=["frequency", "entries", "amplitude"])
    def test_non_finite_family_exits_numerical(self, tmp_path, monkeypatch, capsys, key, value):
        # A cell whose input is already non-finite was reported as one that overflows doubles.
        monkeypatch.chdir(tmp_path)
        config = dict(TestUsageErrors.CONFIGS["converge"], family={
            "kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[0.5]], key: value})
        assert main(["converge", "--config", _write_config(tmp_path / "cfg.json", config)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "non-finite entry" in err and "overflows" not in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("certified", [True, False], ids=["given", "fitted"])
    def test_non_finite_matrix_converge_exits_numerical(self, tmp_path, monkeypatch, capsys, bad, certified):
        # With no m/omega0, the NaN generator was fitted (1, -0.0) and the A-norm grid then
        # found every mu unsolvable; with them, an infinite entry raised a RuntimeWarning.
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[bad, 0.0], [0.0, 1.0]],
            "family": {"kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[0.1, 0.0], [0.0, 0.1]]},
        }
        if certified:
            config.update(m=1.0, omega0=1.0)
        assert main(["converge", "--config", _write_config(tmp_path / "cfg.json", config)]) == 3
        err = capsys.readouterr().err
        want = "221 of 221 mu-grid points unsolvable" if certified else "eigenvalue iteration failed"
        assert err.startswith("numerical failure: ") and want in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_matrix_exits_numerical(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.chdir(tmp_path)
        config = {
            "matrix": [[bad, 0.0], [0.0, 1.0]],
            "m": 1.0,
            "omega0": 1.0,
            "family": {"kind": "sinusoid", "interval": [0.0, 3.0], "entries": [[1.0, 0.0], [0.0, 1.0]]},
        }
        _write_config(tmp_path / "cfg.json", config)
        assert main(["dichotomy", "--config", "cfg.json"]) == 3
        assert "non-finite entry" in capsys.readouterr().err


class TestExitStatuses:
    """Each error type of nonauto.errors, raised inside a command, gives one exit status."""

    NUMERICAL = {"SingularResolvent", "TailNotSettled", "ToleranceNotReached", "Overflow", "EigenFailure", "NotInvertible"}
    ERRORS = sorted(
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.NonautoError) and obj is not errors.NonautoError
    )

    @pytest.mark.parametrize("name", ERRORS)
    def test_error_type_sets_exit_status(self, name, tmp_path, monkeypatch, capsys):
        cls = getattr(errors, name)
        exc = cls("raised", 1.0, ()) if cls is errors.ToleranceNotReached else cls("raised")

        def raising(seed):
            raise exc

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(nonauto.cli, "verify_all_rows", raising)
        numerical = name in self.NUMERICAL or name == "NumericalFailure"
        assert main(["verify-all"]) == (3 if numerical else 1)
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: raised" if numerical else "configuration error: raised")


class TestUsageErrors:
    CONFIGS = {
        "evolve": {
            "matrix": [[-1.0]],
            "family": {"kind": "constant", "interval": [0.0, 1.0], "entries": [[0.0]]},
            "t_grid": [0.0, 1.0],
        },
        "converge": {
            "matrix": [[-1.0]],
            "m": 1.0,
            "omega0": 0.0,
            "family": {"kind": "constant", "interval": [0.0, 1.0], "entries": [[0.0]]},
        },
        "dichotomy": {
            "matrix": [[-1.0, 0.0], [0.0, 1.0]],
            "m": 1.0,
            "omega0": 1.0,
            "family": {"kind": "sinusoid", "interval": [0.0, 2.0], "entries": [[1.0, 0.0], [0.0, 1.0]]},
            "eps_list": [0.0],
        },
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["examples", "--which", "foo"],
            ["verify-all", "--bogus"],
            ["evolve", "--tol", "7"],
            ["evolve", "--n-max", "3"],
            ["converge", "--level", "2"],
            ["dichotomy", "--tol", "1e-3"],
            ["dichotomy", "--level", "2"],
        ],
    )
    def test_usage_error_exits_config(self, tmp_path, monkeypatch, capsys, argv):
        # Exit 2 is reserved for a check that ran and failed. The config is
        # valid, so only the flag can make the command exit 1.
        monkeypatch.chdir(tmp_path)
        if argv[0] in self.CONFIGS:
            argv = argv[:1] + ["--config", _write_config(tmp_path / "cfg.json", self.CONFIGS[argv[0]])] + argv[1:]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["converge", "--help"]) == 0
        assert "--tol" in capsys.readouterr().out

    def test_two_calls_build_the_parser_once(self, monkeypatch):
        # Subparsers are built with prog "nonauto <command>"; only the top-level parser is "nonauto".
        _build_parser.cache_clear()
        built, init = [], argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["--help"]) == 0
        assert main(["verify-all", "--bogus"]) == 1
        assert built.count("nonauto") == 1


def _recording(fn, written):
    def wrapper(path, *args):
        written.append(path)
        return fn(path, *args)

    return wrapper


class TestArtifactWriters:
    """Every file a command writes goes through a writer the benchmark counts as cli.io."""

    def _argv(self, command, tmp_path, monkeypatch):
        if command in TestUsageErrors.CONFIGS:
            return [command, "--config", _write_config(tmp_path / "cfg.json", TestUsageErrors.CONFIGS[command])]
        if command == "examples":
            return ["examples", "--which", "translation", "--grid", "128,8.0", "--nmax", "2", "--no-pipeline"]
        if command == "verify-all":
            # The table's rows are stubbed: only the writing is under test.
            monkeypatch.setattr(nonauto.cli, "verify_all_rows", lambda seed: [CriterionResult(1, "stub", True, "ok")])
            return ["verify-all"]
        _write_mat(tmp_path / "a.txt", np.diag([-1.0, -2.0]))
        _write_mat(tmp_path / "c.txt", np.diag([1.0, 0.0]))
        if command == "anorm":
            return ["anorm", "--matrix-file", "a.txt", "--perturb-file", "c.txt", "--m", "1", "--omega0", "-1"]
        return ["ydist", "--matrix-file", "a.txt", "--second-file", "c.txt"]

    @pytest.mark.parametrize("command", ["anorm", "ydist", "evolve", "converge", "dichotomy", "examples", "verify-all"])
    def test_every_file_goes_through_a_counted_writer(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = self._argv(command, tmp_path, monkeypatch)
        inputs = {p.name for p in tmp_path.iterdir()}
        written = []
        for name in ("_write_csv", "_write_json", "write_matrix"):
            monkeypatch.setattr(nonauto.cli, name, _recording(getattr(nonauto.cli, name), written))
        assert main(argv) in (0, 2)
        produced = {p.name for p in tmp_path.iterdir()} - inputs
        assert any(name.endswith(".csv") for name in produced)
        assert sorted(produced) == sorted(Path(path).name for path in written)
        for name in produced:
            if name.endswith(".csv"):
                assert (tmp_path / name).read_text().startswith("# config_hash=")


class TestReadmeUsage:
    def test_usage_lines_list_every_flag(self):
        # The README's usage block names each subcommand's flags, no more and no fewer.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().replace("\\\n", " ")
        documented = {}
        for line in readme.splitlines():
            if line.startswith("nonauto "):
                name = line.split()[1]
                documented[name] = set(re.findall(r"--[a-z][a-z0-9-]*", line))
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert documented == accepted


class TestModuleEntryPoint:
    def test_python_m_nonauto_runs_the_cli(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nonauto", "--help"],
            cwd=tmp_path,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verify-all" in proc.stdout

    def test_small_runs_load_no_scipy(self, tmp_path):
        # scipy serves band LU and the example sweep through its LAPACK extension alone, and
        # criterion 1's reference through scipy.linalg; importing the CLI and a 2 x 2 converge
        # run load none of it.
        config = {
            "matrix": [[-1.0, 0.0], [0.0, -2.0]],
            "m": 1.0,
            "omega0": -1.0,
            "family": {"kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[0.0, 0.3], [0.0, 0.0]]},
            "tol": 1e-3,
        }
        _write_config(tmp_path / "cfg.json", config)
        code = (
            "import json, sys\n"
            "import nonauto.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "imported = loaded()\n"
            "rc = nonauto.cli.main(['converge', '--config', 'cfg.json'])\n"
            "print(json.dumps([imported, rc, loaded()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]

    def test_band_run_loads_only_the_lapack_extension(self, tmp_path):
        # Band LU and the example sweep take scipy's _flapack extension on its own, not the
        # scipy.linalg package; a later import of the package takes the same routines.
        code = (
            "import json, sys\n"
            "import nonauto.cli\n"
            "from nonauto import linop\n"
            "rc = nonauto.cli.main(['examples', '--which', 'translation', '--no-pipeline', '--grid', '64,8'])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import scipy.linalg\n"
            "from nonauto.acceptance import criterion_01\n"
            "same = linop._band_lapack() == tuple(getattr(scipy.linalg.lapack, n) for n in ('dgbtrf', 'dgbtrs', 'dgtsv', 'dgbsv'))\n"
            "print(json.dumps([rc, loaded, same, criterion_01(7).passed]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, ["scipy.linalg._flapack"], True, True]


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, monkeypatch):
        outputs = []
        for name in ("first", "second"):
            d = tmp_path / name
            d.mkdir()
            monkeypatch.chdir(d)
            _write_mat(d / "a.txt", np.diag([-1.0, -2.0]))
            _write_mat(d / "c.txt", np.array([[0.0, 1.0], [1.0, 0.0]]))
            rc = main(
                [
                    "anorm",
                    "--matrix-file", "a.txt",
                    "--perturb-file", "c.txt",
                    "--m", "1.0",
                    "--omega0", "-1.0",
                    "--seed", "7",
                ]
            )
            assert rc == 0
            outputs.append(
                (
                    (d / "run_anorm.csv").read_bytes(),
                    (d / "run_anorm.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
