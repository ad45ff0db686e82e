"""Benchmark of the nonauto package: time to a solution on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. Workloads: converge-small, heat-refine, examples-dense,
acceptance (see workloads.py). The benchmark draws a batch of jobs from the
seed, times three set-ups in fresh processes (import, input generation, one
warm-up solve), runs whole rounds of the batch for about S seconds, checks
every output against a reference of its own, and prints a report whose last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
runs the same pass untraced, then traced (every layer wrapped from
tracing.py), then once more in a child process with OPENBLAS_NUM_THREADS=1,
and reports the per-layer metrics with the tracing overhead and the
single-threaded reference beside them. Spans and the full report land in
`.bench_work/` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
from workloads import WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 30
# One set-up as a user pays it: a fresh interpreter imports the package,
# generates the inputs and runs the warm-up solve.
SETUP_CHILD = "import sys; sys.path.insert(0, {here!r}); import run; sys.exit(run.setup_child({workload!r}, {seed}))"
# Below this many solves a run has no percentile above the median with ten
# samples beyond it, so p90 is reported only from here on.
P90_MIN_SOLVES = 100
CHILD_TIMEOUT_S = 100


def _import_package():
    """Import nonauto from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "nonauto", "__init__.py")):
        raise SystemExit(f"bench: no nonauto package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import nonauto
    import nonauto.acceptance
    import nonauto.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(nonauto.__file__))) != SRC:
        raise SystemExit(f"bench: imported nonauto from {nonauto.__file__}, not from {SRC}")


def _git_sha() -> str | None:
    """HEAD of the checkout read from .git directly; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# Entry points of the OpenBLAS builds numpy and scipy wheels bundle, newest first.
OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
    ("openblas_get_config", "openblas_get_num_threads"),
)


def _openblas() -> list:
    """Version and live thread count of every OpenBLAS this process loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for config_name, threads_name in OPENBLAS_SYMBOLS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
                break
        out.append(entry)
    return out


def run_record(args) -> dict:
    """What a result needs to be compared with another: code, toolchain, machine, inputs."""
    import numpy
    import scipy

    blas = _openblas()
    threads = sorted({b["threads"] for b in blas if "threads" in b})
    if threads:
        blas_threads, source = (threads[0] if len(threads) == 1 else threads), "openblas_get_num_threads"
    else:
        blas_threads, source = os.environ.get("OPENBLAS_NUM_THREADS", os.cpu_count()), "environment"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
        "blas_threads_source": source,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _solve(workload, job, tracer=None):
    try:
        return tracer.run(tracing.SOLVE, workload.solve, job) if tracer else workload.solve(job)
    except Exception as exc:  # a raised error is a failed solve; keep measuring
        traceback.print_exc(file=sys.stderr)
        return Outcome(False, f"{type(exc).__name__}: {exc}")


def timed_pass(workload, batch, seconds: float, tracer=None) -> dict:
    """Whole rounds of the batch for about `seconds`.

    At least one round runs; another starts only while it would end no more
    than half a round past `seconds`. Returns each job's solve times and
    outcomes, in round order.
    """
    times = [[] for _ in batch]
    outcomes = [[] for _ in batch]
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (1.0 + 0.5 / rounds) < seconds:
        for i, job in enumerate(batch):
            t0 = time.perf_counter()
            outcomes[i].append(_solve(workload, job, tracer))
            times[i].append(time.perf_counter() - t0)
        rounds += 1
    return {"times": times, "outcomes": outcomes, "rounds": rounds}


def check_pass(workload, batch, result) -> dict:
    """Check each job's output once; a failed check fails every solve of that job."""
    checked = []
    for job, outcomes in zip(batch, result["outcomes"]):
        outcome = next((o for o in outcomes if not o.ok), outcomes[-1])
        try:
            checked.append(workload.check(job, outcome))
        except Exception as exc:  # a check that cannot read the output fails the job
            traceback.print_exc(file=sys.stderr)
            checked.append(Outcome(False, f"check raised {type(exc).__name__}: {exc}"))
    errs = [c.err for c in checked if c.err is not None]
    return {
        "attempted": len(batch) * result["rounds"],
        "failed": sum(result["rounds"] for c in checked if not c.ok),
        "err_max": max(errs) if errs else None,
        "jobs": {job.label: {"check": c.detail, "solve_s": statistics.median(ts)}
                 for job, c, ts in zip(batch, checked, result["times"])},
    }


def summarize(result) -> dict:
    """Timing figures of one pass.

    run_s is one pass over the batch built from each job's median solve
    time: every round repeats the same jobs, so the per-job median drops a
    solve slowed by a passing stall in any round, which the median of whole
    rounds would keep.
    """
    flat = [t for ts in result["times"] for t in ts]
    return {
        "run_s": sum(statistics.median(ts) for ts in result["times"]),
        "solve_s.p50": statistics.median(flat),
        "solve_s.p90": statistics.quantiles(flat, n=10)[8] if len(flat) >= P90_MIN_SOLVES else None,
        "solves": len(flat),
        "rounds": result["rounds"],
    }


def self_test(workload, job) -> str | None:
    """One untraced and one traced solve of job must leave byte-identical artifacts."""
    def artifacts():
        return [open(p, "rb").read() for p in workload.artifacts(job)]

    plain = _solve(workload, job)
    plain_files = artifacts()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = _solve(workload, job, tracer)
    finally:
        tracer.uninstall()
    if not (plain.ok and traced.ok):
        return f"self-test solve failed: {plain.detail} / {traced.detail}"
    if artifacts() != plain_files or traced.detail != plain.detail:
        return f"tracing changed the output of {job.label}"
    return None


def single_thread_pass(args) -> dict:
    """The same untraced run in a child process with OPENBLAS_NUM_THREADS=1."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"single-threaded pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _workdir(workload: str):
    """A work directory of this process under .bench_work, removed on exit."""
    path = os.path.join(OUT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_child(workload: str, seed: int) -> int:
    """Body of one timed set-up, run in a fresh process."""
    _import_package()
    with _workdir(workload) as path:
        wl = WORKLOADS[workload](seed, path)
        warm, _ = wl.generate()
        return 0 if _solve(wl, warm).ok else 1


def measure_setup(args) -> float:
    """Median wall time of SETUP_REPEATS set-ups, each in a fresh process."""
    code = SETUP_CHILD.format(here=HERE, workload=args.workload, seed=args.seed)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    try:
        setup_s = measure_setup(args)
    except subprocess.CalledProcessError as exc:
        print(f"set-up failed with exit {exc.returncode}", file=sys.stderr)
        return 1
    with _workdir(args.workload) as path:
        workload = WORKLOADS[args.workload](args.seed, path)
        warm, batch = workload.generate()
        warm_outcome = _solve(workload, warm)
        if not warm_outcome.ok:
            print(f"warm-up solve failed: {warm_outcome.detail}", file=sys.stderr)
            return 1
        return _run(args, setup_s, workload, batch)


def _run(args, setup_s: float, workload, batch) -> int:
    record = run_record(args)
    problems = []
    result = timed_pass(workload, batch, args.seconds)
    rss = _peak_rss_mb()
    checks = check_pass(workload, batch, result)
    summary = summarize(result)
    e2e = {"setup_s": setup_s, "run_s": summary["run_s"], "peak_rss_mb": rss}
    report = {
        "record": record,
        # The figures after the gated three are printed and recorded but not in
        # BENCHMARK.json: they move with the drawn inputs or the machine by more
        # than any allowed bound, or read zero on every correct run.
        "end_to_end": dict(e2e, **{"solve_s.p50": summary["solve_s.p50"],
                                   "solve_s.p90": summary["solve_s.p90"],
                                   "fail_share": checks["failed"] / checks["attempted"],
                                   "err_max": checks["err_max"]}),
        "solves": summary["solves"],
        "rounds": summary["rounds"],
        "batch": len(batch),
        "checks": checks["jobs"],
    }
    attempted, failed = checks["attempted"], checks["failed"]

    if args.trace:
        problem = self_test(workload, batch[0])
        if problem:
            problems.append(problem)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = timed_pass(workload, batch, args.seconds, tracer)
        finally:
            tracer.uninstall()
        traced_checks = check_pass(workload, batch, traced)
        attempted += traced_checks["attempted"]
        failed += traced_checks["failed"]
        traced_summary = summarize(traced)
        layers = tracing.layer_metrics(tracer, traced_summary["rounds"])
        traced_run_s = traced_summary["run_s"]
        layers["trace.overhead_share"] = traced_run_s / summary["run_s"] - 1.0
        layers["trace.traced_run_s"] = traced_run_s
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        single = single_thread_pass(args)
        if not single["correct"]:
            problems.append("single-threaded pass failed its checks")
        attempted += single["attempted"]
        failed += single["failed"]
        single_run_s = single["metrics"]["run_s"]["value"]
        layers["blas1.run_s"] = single_run_s
        layers["blas1.threading_penalty"] = summary["run_s"] / single_run_s
        report["per_layer"] = layers
        report["expm_stack_histogram"] = tracing.histogram(tracer)
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in declared("per_layer").items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in declared("end_to_end").items()}

    correct = failed == 0 and not problems
    report["problems"] = problems
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    _print_report(args, report, attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def declared(kind: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _print_report(args, report, attempted, failed) -> None:
    units = dict(declared("end_to_end"), **{"solve_s.p50": "s", "solve_s.p90": "s", "fail_share": "ratio", "err_max": "-"})
    print(f"workload {args.workload} seed {args.seed}: {report['solves']} timed solves in "
          f"{report['rounds']} rounds of {report['batch']}; attempted {attempted}, failed {failed}")
    for name, value in report["end_to_end"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown} {units[name]}")
    for name, value in sorted(report.get("per_layer", {}).items()):
        print(f"  {name:<44} {value:.6g}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")
    print("record " + json.dumps(report["record"], sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
