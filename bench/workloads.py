"""The four benchmark workloads: seeded inputs, one solve, and its output check.

A workload draws a fixed batch of jobs from the seed; the timed phase runs
whole rounds of that batch. Draws are stratified (every batch holds the same
mix of sizes and refinement depths) so that run-to-run differences come from
the code and the machine, not from which problems a seed happened to draw.

Every reference below is computed by the benchmark itself, never by the code
under test: a classical RK4 integrator for the converge workloads, dense and
sparse direct solves for the example sweeps, and the documented verdict
table for the acceptance criteria.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

RK_STEPS = 4096
# The ratio of the reported tolerance that a refined polygon may miss the
# reference by; criterion 13 of the acceptance table uses the same 5x.
ERR_FACTOR = 5.0
# Relative agreement of the example sweep with the direct-solve reference.
SWEEP_RTOL = 1e-9
DENSE_CHECK_POINTS = 256
# Documented verdicts of `nonauto verify-all` at seeds 7 and 11: all pass
# but criterion 10, whose literal bound cannot hold (see README).
ACCEPTANCE_SEEDS = (7, 11)
EXPECTED_FAIL = {"criterion_10"}


@dataclass
class Job:
    """One solve: what to run and what its check needs."""

    label: str
    argv: list | None = None
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    err: float | None = None
    code: int | None = None


def _cli(argv):
    """`nonauto.cli.main(argv)` with its printing captured; returns (exit code, captured text)."""
    import nonauto.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = nonauto.cli.main(argv)
    return code, buf.getvalue()


def _induced_norm(m: np.ndarray, kind: str) -> float:
    """Induced 1-norm or 2-norm, the two norms the converge workloads use."""
    return float(np.abs(m).sum(axis=0).max()) if kind == "1" else float(np.linalg.norm(m, 2))


def rk4_propagator(a: np.ndarray, b0: np.ndarray, profile, t0: float, t1: float) -> np.ndarray:
    """U(t1, t0) of u' = (A + profile(t) B0) u by classical RK4 with RK_STEPS uniform steps."""
    h = (t1 - t0) / RK_STEPS
    weights = np.array([profile(t) for t in np.linspace(t0, t1, 2 * RK_STEPS + 1)])
    m = np.eye(a.shape[0])
    for i in range(RK_STEPS):
        g0, gm, g1 = (a + weights[2 * i + j] * b0 for j in range(3))
        k1 = g0 @ m
        k2 = gm @ (m + 0.5 * h * k1)
        k3 = gm @ (m + 0.5 * h * k2)
        k4 = g1 @ (m + h * k3)
        m = m + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


class Workload:
    """Base: a seeded batch of jobs, a warm-up job, a solve and a check."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> tuple:
        """(warm-up job, batch of jobs); writes any input files."""
        raise NotImplementedError

    def solve(self, job: Job) -> Outcome:
        raise NotImplementedError

    def check(self, job: Job, outcome: Outcome) -> Outcome:
        """Check a job's output after the timed phase; err is its deviation from the reference."""
        return outcome

    def artifacts(self, job: Job) -> list:
        """Paths of the files one solve of job writes."""
        return []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class _ConvergeWorkload(Workload):
    """`nonauto converge` on sinusoid families; checked against RK4."""

    def _write_job(self, label: str, config: dict) -> Job:
        cfg_path = self.path(f"{label}.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        out = self.path(label)
        return Job(label, ["converge", "--config", cfg_path, "--out", out], {"config": config, "out": out})

    def solve(self, job: Job) -> Outcome:
        code, text = _cli(job.argv)
        return Outcome(code == 0, f"exit {code}: {text.strip()[-200:]}", code=code)

    def artifacts(self, job: Job) -> list:
        return [job.spec["out"] + "_converge.csv", job.spec["out"] + "_converge.json"]

    def check(self, job: Job, outcome: Outcome) -> Outcome:
        if not outcome.ok:
            return outcome
        from nonauto.evofam import euler_polygon, family_from_spec
        from nonauto.linop import NormKind, Operator

        cfg = job.spec["config"]
        with open(job.spec["out"] + "_converge.json") as fh:
            n_final = int(json.load(fh)["n_final"])
        kind = cfg["norm"]
        fam = cfg["family"]
        t0, t1 = fam["interval"]
        a = np.asarray(cfg["matrix"], dtype=float)
        b0 = np.asarray(fam["entries"], dtype=float)
        w, phi = fam["frequency"], fam["phase"]
        reference = rk4_propagator(a, b0, lambda t: math.sin(w * t + phi), t0, t1)
        norm_kind = NormKind.parse(kind)
        polygon = euler_polygon(Operator(a, norm_kind), family_from_spec(fam, norm_kind), n_final)
        err = _induced_norm(polygon.evaluate(t1, t0).entries - reference, kind)
        limit = ERR_FACTOR * cfg.get("tol", 1e-4)
        ok = err <= limit
        return Outcome(ok, f"level {n_final}: error {err:.3e} vs {limit:.1e}", err, outcome.code)


class ConvergeSmall(_ConvergeWorkload):
    """Dissipative A of dimension 2-4 in the 2-norm; B(t) = sin(wt + phi) B0 on [0, 1].

    The batch crosses three factors: dimension 2, 3 or 4; the exact
    certificate (1, 0) in two jobs of three, fit_growth_bound in the third;
    and the refinement depth. Solve time doubles with each level, so a batch
    of freely drawn problems costs whatever mix of depths the seed happens
    to give. Instead each job gets a target depth (level 10, 11 or 12) and
    B0 is scaled to reach it, from the Cauchy increment of a coarse polygon
    computed here with scipy's expm.
    """

    name = "converge-small"
    TARGET_LEVELS = (10, 11, 12)
    DIMS = (2, 3, 4)
    CERTIFIED = (True, True, False)
    TOL = 1e-4
    CALIBRATION_LEVEL = 7

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        jobs = []
        design = [(lv, dim, cert) for lv in self.TARGET_LEVELS for dim in self.DIMS for cert in self.CERTIFIED]
        for i, (level, dim, certified) in enumerate(design):
            raw = rng.normal(size=(dim, dim))
            lognorm = float(np.linalg.eigvalsh((raw + raw.T) / 2.0).max())
            a = raw - (max(lognorm, 0.0) + 0.1) * np.eye(dim)
            b0 = rng.normal(size=(dim, dim)) * 0.2
            w = float(rng.uniform(1.0, 2.5))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            b0 = b0 * self._calibrate(a, b0, w, phi, level)
            config = {
                "matrix": a.tolist(),
                "norm": "2",
                "family": {"kind": "sinusoid", "interval": [0.0, 1.0], "entries": b0.tolist(),
                           "frequency": w, "phase": phi},
            }
            if certified:
                config.update(m=1.0, omega0=0.0)
            jobs.append(self._write_job(f"c{i:02d}", config))
        warm = self._write_job("warm", {
            "matrix": [[-1.0, 0.0], [0.0, -2.0]], "norm": "2", "m": 1.0, "omega0": -1.0,
            "family": {"kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[0.0, 0.3], [0.0, 0.0]],
                       "frequency": 1.0, "phase": 0.0},
        })
        return warm, jobs

    def _calibrate(self, a, b0, w, phi, level: int) -> float:
        """Scale for B0 that puts the converge stop at `level`.

        The increment between levels n-1 and n falls like K 2^-n, and the
        stop rule wants two increments in a row below tol, so the stop level
        is ceil(log2(K / tol)) + 1; K is aimed at the middle of the octave
        that gives `level`. K grows about linearly with the scale of B0, and
        a second pass corrects the rest.
        """
        n = self.CALIBRATION_LEVEL
        target = self.TOL * 2.0 ** (level - 1.5)
        scale = 1.0
        for _ in range(2):
            k = 2.0**n * _polygon_increment(a, scale * b0, w, phi, n)
            scale *= target / k
        return scale


def _polygon_increment(a, b0, w, phi, n: int, probes: int = 16) -> float:
    """max over t = k/probes of ||U_n(t, 0) - U_{n-1}(t, 0)||_2, left-node polygon on [0, 1]."""
    import scipy.linalg

    def at_probes(level):
        cells = 2**level
        h = 1.0 / cells
        exps = scipy.linalg.expm(h * (a[None] + np.sin(w * h * np.arange(cells) + phi)[:, None, None] * b0[None]))
        u, out = np.eye(a.shape[0]), []
        for j in range(cells):
            u = exps[j] @ u
            if (j + 1) % (cells // probes) == 0:
                out.append(u)
        return out

    return max(np.linalg.norm(x - y, 2) for x, y in zip(at_probes(n), at_probes(n - 1)))


def heat_problem(points: int):
    """Second-difference generator on `points` cells of [-4, 4] and the mirrored 3-spike diagonal."""
    h = 8.0 / points
    gen = (np.eye(points, k=-1) - 2.0 * np.eye(points) + np.eye(points, k=1)) / h**2
    x = -4.0 + (np.arange(points) + 0.5) * h
    return gen, _spikes(x, 3) + _spikes(-x, 3)


def _spikes(x: np.ndarray, n_max: int) -> np.ndarray:
    return sum(n**2 * ((x >= n) & (x <= n + float(n) ** -4)) for n in range(1, n_max + 1)).astype(float)


class HeatRefine(_ConvergeWorkload):
    """`nonauto converge` on the heat model problem, 16, 24 and 32 cells.

    The refinement depth depends on the phase: at every grid size a phase
    in [0.85, 1.75] stops at level 13 and one in [3.45, 4.35] at level 12.
    Each grid size gets one phase drawn from each band, so every batch has
    the same mix of depths and the same largest stack.
    """

    name = "heat-refine"
    POINTS = (16, 24, 32)
    PHASE_BANDS = ((0.9, 1.7), (3.5, 4.3))

    def _config(self, points: int, phase: float) -> dict:
        gen, spikes = heat_problem(points)
        return {
            "matrix": gen.tolist(),
            "norm": "1",
            "m": 1.0,
            "omega0": 0.0,
            "tol": 1e-3,
            "n_max": 14,
            "family": {"kind": "sinusoid", "interval": [0.0, 2.0 * math.pi], "entries": np.diag(spikes).tolist(),
                       "frequency": 1.0, "phase": phase},
        }

    def generate(self):
        rng = np.random.default_rng([self.seed, 2])
        jobs = []
        for points in self.POINTS:
            for k, band in enumerate(self.PHASE_BANDS):
                jobs.append(self._write_job(f"h{points}_{k}", self._config(points, float(rng.uniform(*band)))))
        return self._write_job("warm", self._config(16, math.pi)), jobs


class ExamplesDense(Workload):
    """`nonauto examples --no-pipeline` at 128, 192 and one of 256 or 2048 cells."""

    name = "examples-dense"

    def generate(self):
        rng = np.random.default_rng([self.seed, 3])
        jobs = []
        for i, points in enumerate((128, 192, int(rng.choice([256, 2048])))):
            which = str(rng.choice(["translation", "heat"]))
            nmax = int(rng.choice([2, 3]))
            jobs.append(self._job(f"e{i}", which, points, nmax))
        return self._job("warm", "translation", 64, 2), jobs

    def _job(self, label, which, points, nmax) -> Job:
        out = self.path(label)
        argv = ["examples", "--which", which, "--no-pipeline", "--grid", f"{points},8",
                "--nmax", str(nmax), "--out", out]
        return Job(label, argv, {"which": which, "points": points, "nmax": nmax, "out": out})

    def solve(self, job: Job) -> Outcome:
        # Exit 2 is a verdict (a bound check said no), not a failure.
        code, text = _cli(job.argv)
        return Outcome(code in (0, 2), f"exit {code}: {text.strip()[-200:]}", code=code)

    def artifacts(self, job: Job) -> list:
        out = job.spec["out"]
        return [out + "_generator.txt", out + "_sweep.csv", out + "_summary.json"]

    def check(self, job: Job, outcome: Outcome) -> Outcome:
        if not outcome.ok:
            return outcome
        spec = job.spec
        with open(spec["out"] + "_summary.json") as fh:
            summary = json.load(fh)
        verdict_exit = 0 if summary["contraction_pass"] and summary["no_growth_pass"] else 2
        if outcome.code != verdict_exit:
            return Outcome(False, f"exit {outcome.code} disagrees with the summary verdicts", code=outcome.code)
        with open(spec["out"] + "_sweep.csv") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        mus = np.array([float(r[0]) for r in rows])
        got = np.array([float(r[1]) for r in rows])
        want = example_sweep_reference(spec["which"], spec["points"], spec["nmax"], mus)
        err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
        return Outcome(err <= SWEEP_RTOL, f"sweep relative error {err:.2e} vs {SWEEP_RTOL:.0e}", err, outcome.code)


def example_sweep_reference(which: str, points: int, nmax: int, mus) -> np.ndarray:
    """mu ||B R(mu, G)||_1 on the example grid of [0, 8] or [-4, 4].

    B >= 0 is diagonal and R(mu, G) >= 0, so the induced 1-norm is the
    largest column sum of B R. Dense inverse up to DENSE_CHECK_POINTS cells,
    a sparse direct solve of (mu I - G)^T x = b beyond.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    h = 8.0 / points
    if which == "translation":
        gen = scipy.sparse.diags([-np.ones(points), np.ones(points - 1)], [0, -1]) / h
        b = _spikes((np.arange(points) + 0.5) * h, nmax)
    else:
        gen = scipy.sparse.diags([np.ones(points - 1), -2.0 * np.ones(points), np.ones(points - 1)], [-1, 0, 1]) / h**2
        x = -4.0 + (np.arange(points) + 0.5) * h
        b = _spikes(x, nmax) + _spikes(-x, nmax)
    eye = scipy.sparse.identity(points)
    out = []
    for mu in mus:
        shifted = (mu * eye - gen).tocsc()
        if points <= DENSE_CHECK_POINTS:
            col_sums = (b[:, None] * np.linalg.inv(shifted.toarray())).sum(axis=0)
        else:
            col_sums = scipy.sparse.linalg.spsolve(shifted.T.tocsc(), b)
        out.append(mu * col_sums.max())
    return np.array(out)


class Acceptance(Workload):
    """The 13 acceptance criteria at a documented seed; one criterion per solve."""

    name = "acceptance"

    def generate(self):
        criterion_seed = ACCEPTANCE_SEEDS[self.seed % 2]
        jobs = [Job(f"criterion_{i:02d}", None, {"seed": criterion_seed}) for i in range(1, 14)]
        return Job("criterion_12", None, {"seed": ACCEPTANCE_SEEDS[0]}), jobs

    def solve(self, job: Job) -> Outcome:
        import nonauto.acceptance

        result = getattr(nonauto.acceptance, job.label)(job.spec["seed"])
        expected = job.label not in EXPECTED_FAIL
        return Outcome(result.passed == expected, f"{'PASS' if result.passed else 'FAIL'} {result.detail}")


WORKLOADS = {cls.name: cls for cls in (ConvergeSmall, HeatRefine, ExamplesDense, Acceptance)}
