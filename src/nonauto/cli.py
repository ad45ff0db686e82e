"""Command-line driver: reproducible experiment runs with CSV/JSON artifacts.

Subcommands map one-to-one onto library pipelines. Config-driven commands
read a JSON document; command-line flags override config fields. Every CSV
artifact starts with a comment line recording the hash of the effective
config and the seed, and all numbers are written with 17 significant digits,
so identical inputs produce byte-identical files.

Exit codes: 0 success, 1 configuration error (any other NonautoError, or an
unreadable or malformed input), 2 a checked bound was violated, 3 numerical
failure (a NumericalFailure: singular solve, unsettled tail, tolerance not
reached, overflow).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from .acceptance import verify_all_rows
from .dichotomy import roughness_sweep
from .errors import NonautoError, NumericalFailure, ToleranceNotReached
from .evofam import euler_polygon, family_from_spec, refine_to_tolerance
from .examples import Domain, GridSpec, build_generator, verify_example_bounds
from .linop import NormKind, Operator, read_matrix, write_matrix
from .metrics import ANormEvaluator, MuGrid, yosida_distance
from .semigroup import GrowthBound, fit_growth_bound

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: str, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(args) -> dict:
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise TypeError(f"a config is a JSON object, not a {type(config).__name__}")
    for key in ("seed", "tol", "n_max", "level", "out"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


class _Artifacts:
    """Writes one run's files <out>_<name>.csv and .json, each tagged with the config hash and seed."""

    def __init__(self, config: dict, seed, out: str):
        blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
        self.tag = {"config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16], "seed": seed}
        self.out = out

    @classmethod
    def of_flags(cls, args) -> _Artifacts:
        """The writer of a flag-driven command: its config is every parsed flag but the handler, --out and --seed."""
        config = {key: value for key, value in vars(args).items() if key not in ("func", "out", "seed")}
        return cls(config, args.seed, args.out)

    def csv(self, name: str, columns, rows) -> None:
        header = f"# config_hash={self.tag['config_hash']} seed={self.tag['seed']}\n"
        _write_csv(f"{self.out}_{name}.csv", header, columns, rows)

    def json(self, name: str, payload: dict) -> None:
        _write_json(f"{self.out}_{name}.json", {**self.tag, **payload})


def _load_run(args):
    """(config, artifact writer, A, family) of a config-driven command."""
    config = _load_config(args)
    kind = NormKind.parse(config.get("norm", "2"))
    if "matrix_file" in config:
        a = read_matrix(config["matrix_file"], kind)
    else:
        a = Operator(np.asarray(config["matrix"], dtype=float), kind)
    family = family_from_spec(config["family"], kind)
    return config, _Artifacts(config, int(config.get("seed", 0)), config.get("out") or "run"), a, family


def _growth_bound(config: dict, a: Operator) -> GrowthBound:
    """The config's certificate (m, omega0), a fitted one if it gives neither; one alone is a KeyError (exit 1)."""
    if "m" in config or "omega0" in config:
        return GrowthBound(m=float(config["m"]), omega0=float(config["omega0"]))
    return fit_growth_bound(a)


def _t_grid(spec, default) -> np.ndarray:
    if spec is None:
        return default
    if isinstance(spec, dict):
        return np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["count"]))
    return np.asarray([float(t) for t in spec])


def cmd_anorm(args) -> int:
    kind = NormKind.parse(args.norm)
    a = read_matrix(args.matrix_file, kind)
    c = read_matrix(args.perturb_file, kind)
    gb = GrowthBound(m=args.m, omega0=args.omega0)
    grid = MuGrid(args.min_offset, args.max_offset, args.points_per_decade)
    result = ANormEvaluator(a, gb, grid).value(c)
    artifacts = _Artifacts.of_flags(args)
    artifacts.csv("anorm", ["mu", "scaled_norm"], ([_fmt(mu), _fmt(v)] for mu, v in result.samples))
    artifacts.json(
        "anorm",
        {
            "value": result.value,
            "argmax_mu": None if math.isinf(result.argmax_mu) else result.argmax_mu,
            "tail_attained": math.isinf(result.argmax_mu),
            "m": result.m,
            "omega0": result.omega0,
            "skipped": result.skipped,
            "total": result.total,
        },
    )
    print(f"anorm value {result.value:.12g}")
    return 0


def cmd_ydist(args) -> int:
    kind = NormKind.parse(args.norm)
    a = read_matrix(args.matrix_file, kind)
    b = read_matrix(args.second_file, kind)
    result = yosida_distance(a, b)
    artifacts = _Artifacts.of_flags(args)
    artifacts.csv("ydist", ["lambda", "scaled_difference"], ([_fmt(lam), _fmt(v)] for lam, v in result.samples))
    artifacts.json("ydist", {"value": result.value, "uncertainty": result.uncertainty})
    print(f"yosida distance {result.value:.12g} (spread {result.uncertainty:.3g})")
    return 0


def cmd_evolve(args) -> int:
    config, artifacts, a, family = _load_run(args)
    level = int(config.get("level", 8))
    u = euler_polygon(a, family, level)
    t0, t1 = family.interval
    s = float(config.get("s", t0))
    ts = _t_grid(config.get("t_grid"), np.linspace(s, t1, 17))
    ops = u.evaluate_path(ts, s)
    dim = a.dim
    columns = ["t"] + [f"u_{i}_{j}" for i in range(dim) for j in range(dim)]
    rows = (
        [_fmt(t)] + [_fmt(v) for v in op.entries.reshape(-1)]
        for t, op in zip(ts, ops)
    )
    artifacts.csv("evolve", columns, rows)
    print(f"evolved level {level} at {len(ts)} samples")
    return 0


def cmd_converge(args) -> int:
    config, artifacts, a, family = _load_run(args)
    gb = _growth_bound(config, a)
    tol = float(config.get("tol", 1e-4))
    n_max = int(config.get("n_max", 14))
    try:
        result = refine_to_tolerance(a, family, gb, tol, n_max=n_max)
    except ToleranceNotReached as exc:
        result = exc
    artifacts.csv(
        "converge",
        ["level", "delta", "omega_n", "bound"],
        ([str(n), _fmt(d), _fmt(w), _fmt(bd)] for n, d, w, bd in result.levels),
    )
    if isinstance(result, ToleranceNotReached):
        print(f"tolerance not reached: {result}", file=sys.stderr)
        return 3
    artifacts.json(
        "converge",
        {
            "n_final": result.approx.level,
            "achieved_delta": result.achieved_delta,
            "omega1": result.omega1,
        },
    )
    print(f"converged at level {result.approx.level} with delta {result.achieved_delta:.3e}")
    return 0


def cmd_dichotomy(args) -> int:
    config, artifacts, a, shape = _load_run(args)
    eps_list = config.get("eps_list", [0.0, 0.01, 0.05])
    t0, t1 = shape.interval
    ts = _t_grid(config.get("t_grid"), np.linspace(t0 + 1.0, t1, 5))
    gb = _growth_bound(config, a)
    results = roughness_sweep(a, shape, eps_list, gb, t_samples=ts, n_max=int(config.get("n_max", 14)))
    rows = []
    summary = []
    for res in results:
        for row in res.rows:
            rows.append(
                [
                    _fmt(res.eps),
                    _fmt(row.t),
                    str(int(row.report.hyperbolic)),
                    _fmt(row.report.spectral_gap),
                    str(row.report.stable_rank),
                    _fmt(row.sup_diff),
                    _fmt(res.bound),
                ]
            )
        summary.append(
            {
                "eps": res.eps,
                "persisted": res.persisted,
                "gap_floor": res.gap_floor,
                "achieved_delta": res.achieved_delta,
                "refine_error": res.refine_error,
            }
        )
    artifacts.csv(
        "dichotomy",
        ["eps", "t", "hyperbolic", "spectral_gap", "stable_rank", "sup_diff", "bound_e4w1w1"],
        rows,
    )
    artifacts.json("dichotomy", {"sweep": summary})
    print(f"swept {len(results)} eps values, {len(rows)} rows")
    return 0


def cmd_examples(args) -> int:
    points, length = args.grid
    which = args.which
    domain = Domain.HALF_LINE if which == "translation" else Domain.LINE
    g = GridSpec(length, points, domain)
    report = verify_example_bounds(which, g, n_max=args.nmax, pipeline=not args.no_pipeline)
    matrix_grid = g.coarsened(512)
    write_matrix(f"{args.out}_generator.txt", build_generator(which, matrix_grid))
    artifacts = _Artifacts.of_flags(args)
    artifacts.csv("sweep", ["mu", "scaled_norm"], ([_fmt(mu), _fmt(v)] for mu, v in report.sweep))
    artifacts.json(
        "summary",
        {
            "which": which,
            "grid_points": g.points,
            "matrix_points": matrix_grid.points,
            "fitted_k": report.fitted_k,
            "contraction_pass": report.contraction_pass,
            "no_growth_pass": report.no_growth_pass,
            "a1_pass": report.assumptions.a1_pass,
            "a2_pass": report.assumptions.a2_pass,
            "unresolved_spikes": list(report.multiplier.unresolved),
            "spike_mass": report.multiplier.mass,
            "pipeline_agreement": report.pipeline_agreement,
        },
    )
    ok = report.contraction_pass and report.no_growth_pass
    print(f"{which}: fitted K {report.fitted_k:.6g}, bounded sweep {report.no_growth_pass}")
    return 0 if ok else 2


def cmd_verify_all(args) -> int:
    rows = verify_all_rows(args.seed)
    _Artifacts.of_flags(args).csv(
        "criteria",
        ["index", "name", "passed", "detail"],
        ([str(r.index), r.name, str(int(r.passed)), r.detail] for r in rows),
    )
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.index:>2}  {r.name:<26} {r.detail}")
    return 0 if all(r.passed for r in rows) else 2


def _grid_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected N,L")
    return int(parts[0]), float(parts[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonauto",
        description="Evolution families, perturbation norms and dichotomy checks for u' = (A + B(t)) u.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anorm", help="resolvent-weighted perturbation norm sweep")
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--perturb-file", required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--omega0", type=float, required=True)
    p.add_argument("--norm", default="2", choices=["1", "2", "inf"])
    p.add_argument("--min-offset", type=float, default=1e-3)
    p.add_argument("--max-offset", type=float, default=1e8)
    p.add_argument("--points-per-decade", type=int, default=20)
    p.add_argument("--out", default="run")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_anorm)

    p = sub.add_parser("ydist", help="Yosida distance of two matrices")
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--second-file", required=True)
    p.add_argument("--norm", default="2", choices=["1", "2", "inf"])
    p.add_argument("--out", default="run")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ydist)

    for name, fn, help_text, flags in (
        ("evolve", cmd_evolve, "evaluate the polygon family at a fixed dyadic level", [("--level", int)]),
        ("converge", cmd_converge, "refine the dyadic level to a target increment",
         [("--tol", float), ("--n-max", int)]),
        ("dichotomy", cmd_dichotomy, "roughness sweep over perturbation sizes", [("--n-max", int)]),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        for flag, kind in flags:
            p.add_argument(flag, type=kind, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("examples", help="model-problem bound checks and artifacts")
    p.add_argument("--which", required=True, choices=["translation", "heat"])
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--grid", type=_grid_pair, default=(2048, 8.0), help="N,L")
    p.add_argument("--no-pipeline", action="store_true")
    p.add_argument("--out", default="run")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("verify-all", help="run every acceptance criterion and report a table")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="verify")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a check ran and failed.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (NonautoError, FileNotFoundError, KeyError, TypeError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
