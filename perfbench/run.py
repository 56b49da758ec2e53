"""Benchmark of the schroeder package: four seeded workloads, end to end
and layer by layer.

One workload per process:

    python3 perfbench/run.py --workload poly-verify --seed 1 --seconds 10 --trace 0

prints the end-to-end metrics (``--trace 0``) or, from a traced replay
of a fixed prefix of the job list, the per-layer metrics (``--trace 1``);
the last line of standard output is one JSON object.  Every workload,
untraced and traced, with a summary table:

    python3 perfbench/run.py --all --seed 1 --seconds 10
    python3 perfbench/run.py --all --max-jobs 3      # smoke run

Run it from the root of a source checkout: the package is imported from
``src/``, and outputs go to ``.bench_out/``.  See ``perfbench/SPEC.md``
for the metrics, workloads and exclusions.
"""

import os

# one thread per process, set before numpy loads its BLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 90210   # for confirming a claimed gain; do not tune on it
SETUP_REPEATS = 3
IMPORT_PROBE = "import schroeder.cli"

END_TO_END = [   # name, unit
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_package():
    init = ROOT / "src" / "schroeder" / "__init__.py"
    if not init.is_file():
        _fail(f"no package source at {init.parent}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import schroeder
    if Path(schroeder.__file__).resolve() != init.resolve():
        _fail(f"imported schroeder from {schroeder.__file__}, not {init}")


def _median_child_seconds(argv, env, repeats=SETUP_REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_profile(env, repeats=SETUP_REPEATS):
    """Median total and scipy import time of ``import schroeder.cli``.

    Parsed from ``python -X importtime``: the total is the sum of the
    top-level cumulative times, the scipy share the cumulative time of
    every scipy module not imported from inside another scipy module.
    """
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        total = scipy = 0
        stack = []   # (depth, is_scipy) of the enclosing imports
        for line in reversed(proc.stderr.splitlines()):
            # children are printed before their parent: walk backwards
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            name = name.strip()
            while stack and stack[-1][0] >= depth:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            inside_scipy = any(s for _, s in stack)
            if depth == 0:
                total += int(cumulative)
            if is_scipy and not inside_scipy:
                scipy += int(cumulative)
            stack.append((depth, is_scipy or inside_scipy))
        totals.append(total / 1e3)
        scipys.append(scipy / 1e3)
    return statistics.median(totals), statistics.median(scipys)


def jobs_digest(jobs):
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Outcome:
    """Latencies and verdicts of one pass over a job list."""

    def __init__(self):
        self.latencies = []
        self.failures = []   # (job index, message)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def timed_s(self):
        return sum(self.latencies)

    def jobs_per_s(self):
        return (self.attempted - self.failed) / self.timed_s

    def ranked_ms(self):
        # a failed job counts as missing every latency target: it ranks
        # above every passed job, at the whole timed duration
        failed = {i for i, _ in self.failures}
        worst = self.timed_s * 1e3
        return sorted(worst if i in failed else lat * 1e3
                      for i, lat in enumerate(self.latencies))

    def p50_ms(self):
        return statistics.median(self.ranked_ms())

    def tail_ms(self):
        """Latency with exactly ten jobs beyond it, and its percentile."""
        ranked = self.ranked_ms()
        k = max(len(ranked) - 11, 0)
        return ranked[k], 100.0 * (k + 1) / len(ranked)


def run_jobs(workload, jobs, seconds=math.inf, max_jobs=None, tracer=None):
    """Closed loop, one client: the next job starts when the last is done.

    Runs until the job bodies have taken ``seconds`` or ``max_jobs`` jobs
    ran (default: the list once; a time-bounded run wraps around).  The
    clock counts only job bodies (calls into the package); checks against
    the oracles run between them, untimed and untraced.
    """
    if max_jobs is None:
        max_jobs = len(jobs)
    from schroeder.errors import SchroederError

    outcome = Outcome()
    i = 0
    while outcome.timed_s < seconds and outcome.attempted < max_jobs:
        job = jobs[i % len(jobs)]
        if tracer is not None:
            tracer.job = i
            tracer.on = True
        t0 = time.perf_counter()
        try:
            result = workload.execute(job)
            error = None
        except SchroederError as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.on = False
        if error is None:
            try:
                error = workload.check(job, result)
            except SchroederError as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        outcome.latencies.append(t1 - t0)
        if error is not None:
            outcome.failures.append((i, error))
        i += 1
    return outcome


def set_up(workload, env):
    """Prepare shared state and run the warm-up jobs; returns set-up time.

    In-process workloads pay the package import once, measured as the
    median wall time of fresh interpreters running ``import
    schroeder.cli``.  The rest of set-up (job generation, shared state,
    warm-up jobs) is repeated and its median taken.  cli-batch jobs each
    pay their own import, so it stays inside job time there.
    """
    import_s = 0.0
    if workload.in_process:
        import_s = _median_child_seconds(
            [sys.executable, "-c", IMPORT_PROBE], env)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = workload.jobs()
        workload.prepare()
        warm = run_jobs(workload, workload.warmup_jobs())
        times.append(time.perf_counter() - t0)
        if warm.failed:
            _fail(f"warm-up job failed: {warm.failures[0][1]}")
    return jobs, import_s + statistics.median(times)


def _line(name, value, unit, note=""):
    print(f"{name:<34} {value:>16.6g} {unit:<7} {note}".rstrip())


def print_context(workload, jobs, seed):
    import mpmath
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    print(f"workload {workload.name}  seed {seed}  "
          f"(held-out seed {HELD_OUT_SEED})")
    print(f"jobs_sha256 {jobs_digest(jobs)} ({len(jobs)} jobs generated)")
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  "
          f"scipy {scipy.__version__}  mpmath {mpmath.__version__} "
          f"(backend {mpmath.libmp.BACKEND})  nproc {os.cpu_count()}")
    print(f"src_lines {src_lines} (context only: no bound, no gate)")


def run_untraced(workload, seconds, max_jobs, env):
    jobs, setup_s = set_up(workload, env)
    print_context(workload, jobs, workload.seed)
    outcome = run_jobs(workload, jobs, seconds, max_jobs)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tail, pct = outcome.tail_ms()
    n = outcome.attempted
    metrics = {
        "jobs_per_s": outcome.jobs_per_s(),
        "job_ms_p50": outcome.p50_ms(),
        "job_ms_tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "jobs_per_s": f"({n - outcome.failed} passed in "
                      f"{outcome.timed_s:.3f} s timed)",
        "job_ms_p50": f"(n={n} jobs)",
        "job_ms_tail": f"(p{pct:.1f}, n={n} jobs)",
        "peak_rss_mb": ("(largest child)" if not workload.in_process
                        else "(benchmark process)"),
    }
    for name, unit in END_TO_END:
        _line(name, metrics[name], unit, notes.get(name, ""))
    _line("failed_frac", outcome.failed / n, "ratio",
          f"({outcome.failed} of {n})")
    return outcome, {name: {"value": metrics[name], "unit": unit}
                     for name, unit in END_TO_END}


def run_traced(workload, max_jobs, env, out_dir):
    """Replay a fixed job prefix untraced, then traced, in this process.

    A fixed prefix (not a time budget) makes every count repeat exactly
    between two traced runs on one seed.  cli-batch jobs run through
    ``cli.main`` in-process here so the cli layer can be traced.
    """
    from spans import Tracer

    workload.in_process = True
    jobs, _ = set_up(workload, env)
    print_context(workload, jobs, workload.seed)
    prefix = jobs[:min(workload.trace_jobs, max_jobs)]
    plain = run_jobs(workload, prefix)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_jobs(workload, prefix, tracer=tracer)
    finally:
        tracer.uninstall()
    spans_path = out_dir / f"trace-{workload.name}-seed{workload.seed}.npz"
    kept = tracer.save(spans_path)
    print(f"trace prefix {len(prefix)} jobs; spans {tracer.n_spans} recorded, "
          f"{kept} kept in "
          f"{spans_path.relative_to(ROOT)}")
    metrics = tracer.metrics()
    total_ms, scipy_ms = import_profile(env)
    metrics["import.total_ms"] = (total_ms, "ms")
    metrics["import.scipy_ms"] = (scipy_ms, "ms")
    metrics["trace.untraced_jobs_per_s"] = (plain.jobs_per_s(), "1/s")
    metrics["trace.traced_jobs_per_s"] = (traced.jobs_per_s(), "1/s")
    metrics["trace.overhead"] = (traced.timed_s / plain.timed_s, "ratio")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    print("deterministic_counts " + json.dumps(tracer.deterministic_counts(),
                                               sort_keys=True))
    merged = Outcome()
    merged.latencies = plain.latencies + traced.latencies
    merged.failures = plain.failures + [(i + plain.attempted, m)
                                        for i, m in traced.failures]
    return merged, {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}


def run_one(args):
    _load_package()
    from workloads import WORKLOADS, child_env

    env = child_env(ROOT)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=ROOT / ".bench_out"))
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT, out_dir)
        if args.trace:
            outcome, metrics = run_traced(workload, args.max_jobs, env,
                                          ROOT / ".bench_out")
        else:
            outcome, metrics = run_untraced(workload, args.seconds,
                                            args.max_jobs, env)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for i, message in outcome.failures[:10]:
        print(f"FAILED job {i}: {message}")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload in a child process, untraced then traced."""
    names = ["poly-verify", "flat-chart", "group", "cli-batch"]
    results = {}
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            if args.max_jobs != math.inf:
                argv += ["--max-jobs", str(args.max_jobs)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                _fail(f"{name} trace={trace} exited {proc.returncode}")
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])
    print("== summary (end-to-end metrics with tracing off)")
    print(f"{'metric':<14}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in END_TO_END:
        row = [results[n, 0]["metrics"][metric]["value"] for n in names]
        print(f"{metric:<14}" + "".join(f"{v:>14.5g}" for v in row)
              + f"  {unit}")
    row = [results[n, 0]["failed"] / results[n, 0]["attempted"]
           for n in names]
    print(f"{'failed_frac':<14}" + "".join(f"{v:>14.5g}" for v in row)
          + "  ratio")
    row = [results[n, 1]["metrics"]["trace.overhead"]["value"]
           for n in names]
    print(f"{'trace overhead':<14}" + "".join(f"{v:>14.5g}" for v in row)
          + "  traced/untraced time on the traced job prefix")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {}}))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=["poly-verify", "flat-chart", "group",
                                 "cli-batch"])
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed job seconds per untraced run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--max-jobs", type=int, default=math.inf,
                        help="stop after this many jobs (smoke runs)")
    args = parser.parse_args(argv)
    if args.all:
        return 0 if run_all(args) else 1
    if args.workload is None:
        parser.error("give --workload or --all")
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
