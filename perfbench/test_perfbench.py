"""Self-tests of the benchmark: smoke run, checker can fail, counts repeat.

    python3 -m pytest -q perfbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1
NAMES = list(workloads.WORKLOADS)


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def _sections(stdout):
    """{(workload, trace): lines} from the output of ``--all``."""
    out, key = {}, None
    for line in stdout.splitlines():
        m = re.match(r"== (\S+) trace=(\d)$", line)
        if m:
            key = (m.group(1), int(m.group(2)))
            out[key] = []
        elif line.startswith("== summary"):
            key = None
        elif key is not None:
            out[key].append(line)
    return out


def _counts(lines):
    for line in lines:
        if line.startswith("deterministic_counts "):
            return json.loads(line.split(" ", 1)[1])
    raise AssertionError("no deterministic_counts line")


@pytest.fixture(scope="module")
def smoke():
    return _sections(_run("--all", "--seed", str(SEED), "--max-jobs", "3",
                          "--seconds", "1"))


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _printed(lines, name, unit):
    return any(re.match(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b",
                        line) for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_end_to_end_metric(smoke, spec, workload):
    lines = smoke[workload, 0]
    for metric in spec["end_to_end"]:
        assert _printed(lines, metric["name"], metric["unit"]), metric
    assert _printed(lines, "failed_frac", "ratio")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert any(re.match(r"failed_frac\s+0 ratio", line) for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_per_layer_metric(smoke, spec, workload):
    lines = smoke[workload, 1]
    for metric in spec["per_layer"]:
        assert _printed(lines, metric["name"], metric["unit"]), metric
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_src_lines_printed_as_context(smoke):
    expected = sum(len(p.read_text().splitlines())
                   for p in (ROOT / "src").rglob("*.py"))
    assert f"src_lines {expected} " in "\n".join(smoke["poly-verify", 0])


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(smoke, workload):
    again = _run("--workload", workload, "--seed", str(SEED), "--trace", "1",
                 "--max-jobs", "3").splitlines()
    assert _counts(again) == _counts(smoke[workload, 1])


def test_same_seed_same_jobs_other_seed_other_jobs():
    def digest(seed):
        return run.jobs_digest(workloads.FlatChart(seed, ROOT, ROOT).jobs())
    assert digest(SEED) == digest(SEED)
    assert digest(SEED) != digest(SEED + 1)


# -- the checker can fail -----------------------------------------------------

def _outcome(workload_cls, jobs):
    workload = workload_cls(SEED, ROOT, ROOT / ".bench_out")
    workload.prepare()
    return run.run_jobs(workload, jobs)


def test_corrupted_poly_oracle_is_a_failure(monkeypatch):
    jobs = workloads.PolyVerify(SEED, ROOT, ROOT).jobs()[:2]
    assert _outcome(workloads.PolyVerify, jobs).failed == 0
    true_primitive = oracles.poly_primitive
    monkeypatch.setattr(oracles, "poly_primitive",
                        lambda n, a, x: true_primitive(n, a, x) * (1 + 1e-6))
    outcome = _outcome(workloads.PolyVerify, jobs)
    assert (outcome.attempted, outcome.failed) == (2, 2)
    assert "oracle" in outcome.failures[0][1]


def test_corrupted_flat_oracle_is_a_failure(monkeypatch):
    jobs = [j for j in workloads.FlatChart(SEED, ROOT, ROOT).jobs()
            if j["kind"] == "flow" and j["x"] > 0.05][:2]
    assert _outcome(workloads.FlatChart, jobs).failed == 0
    true_residual = oracles.flat_abel_residual
    monkeypatch.setattr(oracles, "flat_abel_residual",
                        lambda x, y, t: true_residual(x, y, t + 1e-6))
    outcome = _outcome(workloads.FlatChart, jobs)
    assert (outcome.attempted, outcome.failed) == (2, 2)
    assert "Abel residual" in outcome.failures[0][1]


def test_corrupted_koenigs_oracle_is_a_failure(monkeypatch):
    jobs = [j for j in workloads.Group(SEED, ROOT, ROOT).jobs()
            if j["case"] == "case1"][:1]
    monkeypatch.setattr(oracles, "koenigs_flow_2x_plus_x2",
                        lambda t, x: 1.5 * x)
    outcome = _outcome(workloads.Group, jobs)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_missing_source_exits_without_result(tmp_path):
    for rel in ["perfbench/run.py", "BENCHMARK.json"]:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes((ROOT / rel).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "group",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
