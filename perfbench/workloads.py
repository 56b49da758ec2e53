"""The benchmark's four workloads: seeded job lists, job bodies and checks.

A workload turns a seed into a list of JSON-serializable job
descriptors; the package only ever sees values built from those
descriptors.  ``execute`` is the timed part of a job (calls into the
package), ``check`` the untimed part (comparison against the oracles in
``oracles.py``).  ``check`` returns an error message, or None when the
job passed.
"""

import cmath
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles as O

from schroeder import autgroup as A
from schroeder import cli
from schroeder import diffeo as D
from schroeder import solutions as S
from schroeder.errors import BoundaryMismatch
from schroeder.flow import AbelChart, VectorFieldGen

FLAT_X_RANGE = (1e-3, 9.0)        # criterion-1 range of start points
FLATNESS_GRID = [0.2, 0.1, 0.05, 0.025, 0.0125]   # the CLI default
CSV_HEADER = "x,abel_t,beta_re,beta_im,residual_I_abs,residual_I_rel"


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _lam(rng, lo=1.5, hi=4.0):
    z = rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return [z.real, z.imag]


def _modes(rng, half):
    """Coefficients 4**-|l| with random phases for l = -half..half."""
    out = []
    for l in range(-half, half + 1):
        c = 4.0 ** (-abs(l)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        out.append([l, c.real, c.imag])
    return out


def _coeffs(job_modes):
    return {l: complex(re, im) for l, re, im in job_modes}


def _van_der_corput(i):
    """Base-2 radical inverse: every prefix of the sequence is stratified."""
    out, scale = 0.0, 0.5
    while i:
        if i & 1:
            out += scale
        i >>= 1
        scale *= 0.5
    return out


class _Spread:
    """Draws in [0, 1) from a randomly shifted van der Corput sequence.

    Every prefix covers the interval evenly, so a run of any length sees
    the same mix of cheap and costly inputs whatever the seed.
    """

    def __init__(self, rng):
        self.shift = rng.uniform()
        self.k = 0

    def __call__(self):
        u = (_van_der_corput(self.k) + self.shift) % 1.0
        self.k += 1
        return u


def _half_width(spread):
    """Mode half-width 1..20, i.e. 3 to 41 modes."""
    return 1 + int(20 * spread())


def _rel_err(value, reference, floor=1e-300):
    scale = max(abs(reference), abs(value), floor)
    return abs(value - reference) / scale


class Workload:
    name = ""
    in_process = True
    job_count = 0     # length of the generated job list
    trace_jobs = 0    # prefix of the job list replayed by the traced run

    def __init__(self, seed, root, out_dir):
        self.seed = seed
        self.root = Path(root)
        self.out_dir = Path(out_dir)

    def jobs(self):
        raise NotImplementedError

    def warmup_jobs(self):
        raise NotImplementedError

    def prepare(self):
        """State shared by all jobs (part of the set-up time)."""

    def execute(self, job):
        raise NotImplementedError

    def check(self, job, result):
        raise NotImplementedError


# --------------------------------------------------------------------------

class PolyVerify(Workload):
    """Fresh polynomial germ, equation-I residual, Jordan chain, equation II."""

    name = "poly-verify"
    job_count = 4096
    trace_jobs = 24
    # each block of six jobs holds every (n, a) pair, a = 0 twice, so the
    # median job sits inside one cluster of costs, not in the gap between
    # the quadrature (a = 0.5) and closed-form (a = 0) clusters
    BLOCK = [(2, 0.0), (2, 0.0), (3, 0.0), (3, 0.0), (2, 0.5), (3, 0.5)]

    def _make(self, rng, count):
        spreads = {pair: _Spread(rng) for pair in sorted(set(self.BLOCK))}
        jobs = []
        while len(jobs) < count:
            for k in rng.permutation(len(self.BLOCK)):
                n, a = self.BLOCK[k]
                half = _half_width(spreads[n, a])
                jobs.append({"n": n, "a": a, "lam": _lam(rng),
                             "modes": _modes(rng, half)})
        return jobs[:count]

    def jobs(self):
        return self._make(_rng(self.seed, 1), self.job_count)

    def warmup_jobs(self):
        return self._make(_rng(self.seed, 2), 4)

    def execute(self, job):
        phi = D.from_germ({"kind": "flow", "rho": {
            "kind": "poly", "n": job["n"], "a": job["a"]}})
        branch = S.LambdaBranch.principal(complex(*job["lam"]))
        coeffs = _coeffs(job["modes"])
        sol = S.synthesize(branch, phi.chart, coeffs)
        grid = np.geomspace(1e-3, 0.9 * float(phi.chart.blowup_x(1.0)), 64)
        rep1 = S.verify_residual(sol, phi, grid, rel_tol=O.RESIDUAL_TOL)
        chain = S.jordan_solve(branch, phi.chart, 2, seeds=[coeffs, {}])
        rep2 = S.verify_residual(chain[1], phi, grid, equation="II",
                                 prev=chain[0], rel_tol=O.RESIDUAL_TOL)
        return phi, grid, rep1, rep2

    def check(self, job, result):
        phi, grid, rep1, rep2 = result
        n, a = job["n"], job["a"]
        for rep in (rep1, rep2):
            if not rep.passed:
                return (f"{rep.kind} max_residual_rel "
                        f"{rep.check_value('max_residual_rel').value:.3e}")
        x0 = phi.chart.x0
        for row in rep1.tables["residuals"]:
            ref = O.poly_abel_time(n, a, x0, row["x"])
            if not O.rel_close(row["abel_t"], ref, O.ABEL_TOL):
                return f"abel_t {row['abel_t']!r} vs oracle {ref!r}"
        if n == 2 and a == 0.0:
            for x in grid[::16]:
                y, ref = phi(float(x)), O.quadratic_flow(1.0, float(x))
                if _rel_err(y, ref) > O.ABEL_TOL:
                    return f"phi({x}) = {y!r} vs x/(1-x) = {ref!r}"
        return None


# --------------------------------------------------------------------------

class FlatChart(Workload):
    """Flat-generator flows and eigenvalue checks, every 8th job flatness."""

    name = "flat-chart"
    job_count = 4096
    trace_jobs = 48

    def _make(self, rng, count):
        # start points: a randomly shifted van der Corput sequence in log x,
        # so any run length covers [1e-3, 9] evenly; the cost grows about
        # like x**-3 near the origin, so plain sampling would let a few
        # draws decide a run's throughput
        lo, hi = FLAT_X_RANGE
        spread = _Spread(rng)
        jobs = []
        for i in range(count):
            job = {"lam": _lam(rng), "modes": _modes(rng, 1)}
            if i % 8 == 7:
                job["kind"] = "flatness"
            else:
                job.update(kind="flow", x=lo * (hi / lo) ** spread(),
                           t=float(rng.choice([1.0, -1.0])))
            jobs.append(job)
        return jobs

    def jobs(self):
        return self._make(_rng(self.seed, 1), self.job_count)

    def warmup_jobs(self):
        # the lowest start point fills mpmath's high-precision caches
        jobs = self._make(_rng(self.seed, 2), 8)
        jobs[0]["x"] = FLAT_X_RANGE[0]
        return jobs

    def prepare(self):
        self.chart = AbelChart(VectorFieldGen.flat())

    def execute(self, job):
        branch = S.LambdaBranch.principal(complex(*job["lam"]))
        sol = S.synthesize(branch, self.chart, _coeffs(job["modes"]))
        if job["kind"] == "flatness":
            return S.verify_flatness(sol, 5, FLATNESS_GRID)
        x, t = job["x"], job["t"]
        y = self.chart.flow_map(t, x)
        return y, S.eval_solution(sol, x), S.eval_solution(sol, y)

    def check(self, job, result):
        if job["kind"] == "flatness":
            return None if result.passed else "flatness verdict failed"
        y, bx, by = result
        x, t = job["x"], job["t"]
        res = O.flat_abel_residual(x, y, t)
        if not res <= O.ABEL_TOL:
            return f"Abel residual {float(res):.3e} at x={x}, t={t}"
        target = complex(*job["lam"]) ** t * bx
        if _rel_err(by, target) > O.RESIDUAL_TOL:
            return f"eigen residual at x={x}: {by!r} vs {target!r}"
        return None


# --------------------------------------------------------------------------

class Group(Workload):
    """Automorphism-group laws on fresh component data."""

    name = "group"
    job_count = 1024
    trace_jobs = 8
    MU = 2.0   # Case 1 holonomy 2x + x**2, with oracle log1p
    BLOCK = [None, 0.0, 0.5, 0.5]   # None: Case 1; else flow with this a

    def _element(self, rng, spread):
        a = cmath.exp(complex(rng.uniform(-1, 1),
                              rng.uniform(-math.pi, math.pi)))
        el = {"a": [a.real, a.imag], "t": float(rng.uniform(0, 1))}
        if spread is None:   # Case 1
            c = complex(rng.normal(), rng.normal())
            el["c"] = [c.real, c.imag]
        else:
            el["modes"] = _modes(rng, _half_width(spread))
        return el

    def _make(self, rng, count):
        spreads = {a: _Spread(rng) for a in (0.0, 0.5)}
        jobs = []
        while len(jobs) < count:
            # each block of four: one Case-1 job (the slow tail), flow jobs
            # with a = 0 once and a = 0.5 twice (the median sits among these)
            for k in rng.permutation(len(self.BLOCK)):
                case1 = self.BLOCK[k] is None
                job = {"case": "case1" if case1 else "flow"}
                if case1:
                    job["n"] = int(rng.integers(1, 3))
                    job["lam"] = [self.MU ** job["n"], 0.0]
                    xs = rng.uniform(0.05, 0.5, 2)
                else:
                    job["a"] = self.BLOCK[k]
                    job["lam"] = _lam(rng)
                    xs = rng.uniform(0.05, 0.9, 2)   # times blowup_x(1)
                job["x"] = [float(v) for v in xs]
                job["z"] = [[float(rng.normal()), float(rng.normal())]
                            for _ in range(2)]
                job["elements"] = [
                    self._element(rng, None if case1 else spreads[job["a"]])
                    for _ in range(3)]
                s = cmath.exp(complex(rng.uniform(-1, 1),
                                      rng.uniform(-math.pi, math.pi)))
                job["s"] = [s.real, s.imag]
                job["deck_k"] = int(rng.integers(1, 3))
                jobs.append(job)
        return jobs[:count]

    def jobs(self):
        return self._make(_rng(self.seed, 1), self.job_count)

    def warmup_jobs(self):
        return self._make(_rng(self.seed, 2), 4)

    def execute(self, job):
        lam = complex(*job["lam"])
        if job["case"] == "case1":
            phi = D.PolynomialMap((0, self.MU, 1.0))
            data = A.ReebData(branch=S.LambdaBranch.principal(lam), phi=phi)
            xs = job["x"]

            def translation(el):
                return A.Case1Solution(complex(*el["c"]), job["n"], self.MU,
                                       phi)
        else:
            data = A.ReebData.from_flow(VectorFieldGen.poly(2, job["a"]), lam)
            bx = float(data.chart.blowup_x(1.0))
            xs = [f * bx for f in job["x"]]

            def translation(el):
                return S.synthesize(data.branch, data.chart,
                                    _coeffs(el["modes"]))
        f, g, h = [A.normalize(A.AutElement(
            data=data, a=complex(*el["a"]), b=translation(el), t=el["t"]))
            for el in job["elements"]]
        ident = A.identity_element(data)
        s = complex(*job["s"])
        a2 = s * cmath.exp(0.3 + 0.5j)
        pairs = {
            "assoc": (A.compose(A.compose(f, g), h),
                      A.compose(f, A.compose(g, h))),
            "inverse": (A.compose(A.invert(f), f), ident),
            "section": (A.compose(A.section(s, data), A.section(a2, data)),
                        A.section(s * a2, data)),
        }
        z1, z2 = [complex(*z) for z in job["z"]]
        points = [(z1, xs[0]), (z2, xs[1])]
        values = {key: [(p.leafwise(z, x), q.leafwise(z, x))
                        for z, x in points]
                  for key, (p, q) in pairs.items()}
        flows = [(x, f.leafwise(0j, x)[1]) for _, x in points]
        base = A.section(s, data)
        A.fiber_product(base, A.section(s * lam ** job["deck_k"], data))
        try:
            A.fiber_product(base, A.section(a2, data))
            rejected = False
        except BoundaryMismatch:
            rejected = True
        return f.t, values, flows, rejected

    def check(self, job, result):
        t, values, flows, rejected = result
        for key, rows in values.items():
            for (zp, xp), (zq, xq) in rows:
                dev = max(abs(zp - zq), abs(float(xp) - float(xq)))
                if not dev <= O.ABEL_TOL:
                    return f"{key} law deviation {dev:.3e}"
        for x, y in flows:
            if job["case"] == "case1":
                err = _rel_err(y, O.koenigs_flow_2x_plus_x2(t, x))
            elif job["a"] == 0.0:
                err = _rel_err(y, O.quadratic_flow(t, x))
            else:
                shift = O.poly_abel_time(2, job["a"], x, y)
                err = abs(shift - t) / max(1.0, abs(O.poly_primitive(
                    2, job["a"], x)))
            if not err <= O.ABEL_TOL:
                return f"flow time {t} from x={x}: oracle error {err:.3e}"
        if not rejected:
            return "fiber_product accepted distinct boundary classes"
        return None


# --------------------------------------------------------------------------

def _acceptance_configs(rng):
    """The seven criterion-10 configs plus a flat verify, perturbed."""
    def lam():
        re, im = _lam(rng)
        return {"re": re, "im": im}

    def count(lo, hi):
        return int(rng.integers(lo, hi + 1))

    poly2 = {"kind": "flow", "rho": {"kind": "poly", "n": 2, "a": 0.0}}
    flat = {"kind": "flow", "rho": {"kind": "flat", "form": "exp(-1/x)"}}
    fiber_lam, a1 = rng.uniform(1.5, 4.0), rng.uniform(0.5, 3.0)
    return [
        ("resonance", {"mu": 2, "lambda": 2.0 ** int(rng.integers(1, 6)),
                       "order": 10}, None),
        ("verify", {"germ": poly2, "lambda": lam(),
                    "grid": {"min": 1e-3, "max": 0.9,
                             "count": count(48, 80)}}, "residuals.csv"),
        ("verify", {"germ": poly2, "lambda": lam(),
                    "coeffs": {str(l): 2.0 ** (-abs(l))
                               for l in range(-10, 11)},
                    "grid": {"min": 1e-3, "max": 0.9,
                             "count": count(48, 80)}}, "residuals.csv"),
        ("solve", {"germ": poly2, "lambda": lam(),
                   "grid": {"min": 1e-3, "max": 0.9,
                            "count": count(12, 20)}}, "solution.csv"),
        ("flatness", {"germ": flat, "lambda": lam(), "k_max": 5}, None),
        ("aut", {"germ": poly2, "lambda": lam(),
                 "seed": int(rng.integers(0, 2**31)), "count": 5}, None),
        ("fiber", {"lambda": fiber_lam, "a1": a1, "a2": a1 * fiber_lam},
         None),
        ("verify", {"germ": flat, "lambda": lam(),
                    "grid": {"min": 2e-3, "max": 0.9,
                             "count": count(48, 80)}}, "residuals.csv"),
    ]


def _strip_timestamp(text):
    return "\n".join(line for line in text.splitlines()
                     if '"timestamp"' not in line)


class CliBatch(Workload):
    """One ``python -m schroeder.cli`` command per job, fresh interpreter."""

    name = "cli-batch"
    in_process = False
    job_count = 256
    trace_jobs = 16

    def _make(self, rng, count):
        # cycles of the eight configs in a fixed order; each perturbed
        # cycle runs twice in a row, so every config is also re-run and
        # its output compared byte for byte
        jobs = []
        while len(jobs) < count:
            cycle = []
            for command, config, csv_name in _acceptance_configs(rng):
                cycle.append({"command": command, "config": config,
                              "csv": csv_name})
            jobs.extend(cycle + cycle)
        return jobs[:count]

    def jobs(self):
        return self._make(_rng(self.seed, 1), self.job_count)

    def warmup_jobs(self):
        return self._make(_rng(self.seed, 2), 1)

    def prepare(self):
        self.outputs = {}
        self.env = child_env(self.root)

    def execute(self, job):
        work = self.out_dir / "job"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / "config.json"
        cfg.write_text(json.dumps(job["config"]))
        argv = [job["command"], "--config", str(cfg), "--out",
                str(work / "out")]
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "schroeder.cli", *argv],
                env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, check=False).returncode
        return code, work / "out"

    def check(self, job, result):
        code, out = result
        if code != 0:
            return f"{job['command']} exited {code}"
        report_text = (out / "report.json").read_text()
        status = json.loads(report_text)["status"]
        if status != "pass":
            return f"{job['command']} status {status!r}"
        chunks = [_strip_timestamp(report_text)]
        if job["csv"]:
            csv_text = (out / job["csv"]).read_text()
            if csv_text.splitlines()[0] != CSV_HEADER:
                return f"CSV header {csv_text.splitlines()[0]!r}"
            chunks.append(csv_text)
        key = json.dumps(job, sort_keys=True)
        output = "\n".join(chunks)
        if self.outputs.setdefault(key, output) != output:
            return f"{job['command']} output differs on a repeated config"
        return None


def child_env(root):
    src = str(Path(root) / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                             else ""),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


WORKLOADS = {w.name: w for w in (PolyVerify, FlatChart, Group, CliBatch)}
