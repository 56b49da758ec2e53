"""CLI contract: configs, reports, exit codes, determinism."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schroeder
from schroeder.cli import main

E_STR = repr(math.e)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


FLOW_GERM = {"kind": "flow", "rho": {"kind": "poly", "n": 2, "a": 0.0},
             "time": 1.0}
FLAT_GERM = {"kind": "flow", "rho": {"kind": "flat", "form": "exp(-1/x)"}}


def test_resonance_pass(tmp_path):
    cfg = write_config(tmp_path, "r.json",
                       {"mu": 2, "lambda": 4.0, "order": 10})
    out = tmp_path / "out"
    assert main(["resonance", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["summary"]["resonant"] is True
    assert rep["summary"]["n"] == 2
    assert rep["status"] == "pass"


def test_resonance_override_lambda(tmp_path):
    cfg = write_config(tmp_path, "r.json", {"mu": 2, "lambda": 4.0})
    out = tmp_path / "out"
    assert main(["resonance", "--config", cfg, "--lambda", "3.0",
                 "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["summary"]["resonant"] is False


def test_verify_zero_solution(tmp_path):
    cfg = write_config(tmp_path, "v.json", {
        "germ": FLOW_GERM, "lambda": math.e, "coeffs": {},
        "grid": {"min": 1e-3, "max": 0.9, "count": 8}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "residuals.csv")))
    assert len(rows) == 8
    assert all(float(r["residual_I_abs"]) == 0.0 for r in rows)


def test_verify_base_solution_budget(tmp_path):
    cfg = write_config(tmp_path, "v.json", {
        "germ": FLOW_GERM, "lambda": math.e,
        "grid": {"min": 1e-3, "max": 0.9, "count": 64, "spacing": "log"}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["summary"]["max_residual_rel"] <= 1e-8
    assert rep["tolerances"]["residual"] == 1e-8


def test_solve_table_columns_and_values(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "germ": FLOW_GERM, "lambda": math.e,
        "grid": {"min": 0.5, "max": 1.0, "count": 2, "spacing": "linear"}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "solution.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["x", "abel_t", "beta_re", "beta_im",
                      "residual_I_abs", "residual_I_rel"]
    assert len(rows) == 2
    # abel time of the quadratic generator at 0.5 is -1; at the base point 1
    # the solution is normalized to 1
    assert float(rows[0][1]) == pytest.approx(-1.0, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1][3]) == 0.0


def test_solve_zero_solution_two_rows(tmp_path):
    cfg = write_config(tmp_path, "z.json", {
        "germ": FLOW_GERM, "lambda": math.e, "coeffs": {},
        "grid": {"min": 0.25, "max": 0.5, "count": 2, "spacing": "linear"}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "solution.csv")))
    assert len(rows) == 2
    for row in rows:
        for key in ("beta_re", "beta_im", "residual_I_abs", "residual_I_rel"):
            assert float(row[key]) == 0.0


def test_flatness_command(tmp_path):
    cfg = write_config(tmp_path, "f.json", {
        "germ": {"kind": "flow", "rho": {"kind": "flat",
                                         "form": "exp(-1/x)"}},
        "lambda": math.e, "k_max": 5})
    out = tmp_path / "out"
    assert main(["flatness", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["report"]["pass"] is True


def test_flatness_command_poly_default_grid(tmp_path):
    cfg = write_config(tmp_path, "f.json", {
        "germ": {"kind": "flow", "rho": {"kind": "poly", "n": 2, "a": 0.0}},
        "lambda": math.e})
    out = tmp_path / "out"
    assert main(["flatness", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["report"]["pass"] is True
    assert rep["summary"]["x_grid"][-1] == 0.00625


def test_aut_command_requires_seed(tmp_path):
    cfg = write_config(tmp_path, "a.json",
                       {"germ": FLOW_GERM, "lambda": math.e})
    assert main(["aut", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_aut_command_group_laws(tmp_path):
    cfg = write_config(tmp_path, "a.json", {
        "germ": FLOW_GERM, "lambda": math.e, "seed": 7, "count": 5})
    out = tmp_path / "out"
    assert main(["aut", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out)
    by_name = {c["name"]: c for c in rep["report"]["checks"]}
    assert by_name["associativity_dev"]["value"] <= 1e-9
    assert by_name["inverse_law_dev"]["value"] <= 1e-9


@pytest.mark.parametrize("rho", [
    {"kind": "poly", "n": 3},
    {"kind": "poly", "n": 4},
    {"kind": "poly", "n": 2, "a": 0.5},
    {"kind": "flat", "form": "exp(-1/x)"},
])
def test_aut_command_on_germs_with_short_lifetimes(tmp_path, rho):
    # the probe point 0.8 lies past blowup_x(1) of x^3, x^4 and
    # x^2 + 0.5 x^3; the probes shrink with the chart's window
    cfg = write_config(tmp_path, "a.json", {
        "germ": {"kind": "flow", "rho": rho}, "lambda": math.e,
        "seed": 11, "count": 3})
    out = tmp_path / "out"
    assert main(["aut", "--config", cfg, "--out", str(out)]) == 0
    assert load_report(out)["status"] == "pass"


def test_fiber_match_and_mismatch(tmp_path):
    lam = math.e
    cfg1 = write_config(tmp_path, "fb1.json", {
        "lambda": lam, "a1": 2.0, "a2": 2.0 * lam**3})
    out1 = tmp_path / "o1"
    assert main(["fiber", "--config", cfg1, "--out", str(out1)]) == 0
    assert load_report(out1)["summary"]["matched"] is True

    cfg2 = write_config(tmp_path, "fb2.json", {
        "lambda": lam, "a1": 2.0, "a2": 3.0})
    out2 = tmp_path / "o2"
    assert main(["fiber", "--config", cfg2, "--out", str(out2)]) == 3
    rep = load_report(out2)
    assert rep["summary"]["matched"] is False
    assert rep["status"] == "fail"


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    # solve needs a chart-backed germ
    cfg = write_config(tmp_path, "lin.json",
                       {"germ": {"kind": "linear", "mu": 2.0},
                        "lambda": 4.0, "grid": {"max": 1.0}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # rejected at the config boundary, never as a traceback or verdict
    half_lambda = tmp_path / "half_lambda.json"
    half_lambda.write_text(json.dumps({
        "lambda": {"re": 0.5, "im": 0.0},
        "layers": [{"j": 0, "coeffs": [{"l": 0, "re": 1.0}]}]}))
    aut = {"germ": FLOW_GERM, "lambda": 2.0, "seed": 1}
    rows = [
        ("verify", [1, 2]),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0,
                    "grid": {"count": "x"}}),
        ("verify", {"germ": dict(FLOW_GERM, time=-1), "lambda": 2.0}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0,
                    "coeffs": {"70": 1.0}}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0,
                    "coeffs": str(half_lambda)}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0,
                    "tolerances": [1e-8]}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0,
                    "tolerances": {"residual": "x"}}),
        ("flatness", {"germ": FLOW_GERM, "lambda": 2.0, "k_max": 0}),
        ("flatness", {"germ": FLOW_GERM, "lambda": 2.0,
                      "x_grid": [0.1, 0.2]}),
        ("resonance", {"mu": 0.5, "lambda": 4.0}),
        ("resonance", {"mu": "x", "lambda": 4.0}),
        ("resonance", {"mu": 2, "lambda": 4.0, "order": "x"}),
        ("resonance", {"mu": 2, "lambda": 4.0, "order": 0}),
        ("fiber", {"lambda": 0.5}),
        ("fiber", {"lambda": 2.0, "a1": 0}),
        ("aut", dict(aut, seed="x")),
        ("aut", dict(aut, count="x")),
        ("aut", dict(aut, count=0)),
        ("aut", dict(aut, seed=-1)),
        ("aut", dict(aut, count=1e999)),
        ("resonance", {"mu": 2, "lambda": 0.5}),
        ("resonance", {"mu": 2, "lambda": {"re": "x"}}),
        ("flatness", {"germ": FLOW_GERM, "lambda": 2.0, "x_grid": []}),
        ("flatness", {"germ": FLOW_GERM, "lambda": 2.0, "x_grid": ["a"]}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0, "coeffs": {"x": 1.0}}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0,
                    "coeffs": {"layers": []}}),
        ("verify", {"germ": "x", "lambda": 2.0}),
        ("verify", {"germ": [1], "lambda": 2.0}),
        ("verify", {"germ": {"kind": "flow", "rho": "x"}, "lambda": 2.0}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0, "grid": "x"}),
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0, "grid": 5}),
        # not rapidly decreasing: rejected before any numerics run
        ("verify", {"germ": FLOW_GERM, "lambda": 2.0,
                    "coeffs": {"0": 1, "5": 1}}),
        # fewer points than the five-point window cannot show a decay
        ("flatness", {"germ": FLOW_GERM, "lambda": 2.0, "x_grid": [0.003]}),
        ("flatness", {"germ": FLOW_GERM, "lambda": 2.0,
                      "x_grid": [0.1, 0.05, 0.025, 0.0125]}),
        # a germ that is not expanding is rejected input, not a failure
        ("fiber", {"lambda": 2.0, "germ": {"kind": "linear", "mu": 0.5}}),
        ("fiber", {"lambda": 2.0,
                   "germ": {"kind": "takens", "n": 2, "alpha": -50}}),
        # the polynomial normal form is no map model
        ("fiber", {"lambda": 2.0,
                   "germ": {"kind": "takens", "n": 2, "alpha": 0}}),
        # JSON reads a multiplier of 1e999 as inf
        ("fiber", {"lambda": 2.0, "germ": {"kind": "linear", "mu": math.inf}}),
        # JSON reads a time of 1e999 as inf
        ("verify", {"germ": dict(FLOW_GERM, time=math.inf), "lambda": 2.0}),
        ("verify", {"germ": dict(FLAT_GERM, time=math.inf), "lambda": 2.0}),
    ]
    for i, (command, payload) in enumerate(rows):
        capsys.readouterr()
        cfg = write_config(tmp_path, f"row{i}.json", payload)
        out = str(tmp_path / f"row{i}")
        assert main([command, "--config", cfg, "--out", out]) == 2, payload
        assert "Traceback" not in capsys.readouterr().err


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "r.json", {"mu": 2, "lambda": 4.0})
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["resonance", "--config", cfg, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_poly_chart_float_overflow_exits_3(tmp_path, capsys):
    # t(x) = x**(1 - n) / (1 - n) leaves the float range at x = 1e-3
    cfg = write_config(tmp_path, "n400.json", {
        "germ": {"kind": "flow", "rho": {"kind": "poly", "n": 400}},
        "lambda": 2.0})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rep = load_report(out)
    assert rep["status"] == "numerical-failure"
    assert rep["summary"]["error_type"] == "DomainError"



@pytest.mark.parametrize("time", [1e20, 1e300])
def test_huge_flat_germ_time_exits_without_traceback(tmp_path, capsys, time):
    # phi(x) leaves the float range; the flat inversion still converges
    cfg = write_config(tmp_path, "v.json", {
        "germ": dict(FLAT_GERM, time=time), "lambda": 2.0,
        "grid": {"min": 0.1, "max": 5.0, "count": 8}})
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_flat_solve_down_to_grid_min_1e4(tmp_path):
    # x = 1e-4 needs 4383 digits: one exp per flow, no Ei at that precision
    cfg = write_config(tmp_path, "s.json", {
        "germ": FLAT_GERM, "lambda": math.e,
        "coeffs": {"0": 1.0, "1": 0.5, "-1": 0.5},
        "grid": {"min": 1e-4, "max": 0.9, "count": 12}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "solution.csv")))
    assert float(rows[0]["x"]) == 1e-4
    assert float(rows[0]["abel_t"]) == -math.inf


@pytest.mark.parametrize("grid_min", [1e-7, 5e-324])
def test_flat_verify_past_the_precision_cap_exits_3(tmp_path, capsys,
                                                    grid_min):
    cfg = write_config(tmp_path, "v.json", {
        "germ": FLAT_GERM, "lambda": math.e,
        "grid": {"min": grid_min, "max": 0.9, "count": 8}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rep = load_report(out)
    assert rep["status"] == "numerical-failure"
    assert rep["summary"]["error_type"] == "PrecisionExceeded"


def test_determinism_modulo_timestamp(tmp_path):
    cfg = write_config(tmp_path, "v.json", {
        "germ": FLOW_GERM, "lambda": {"re": 2.0, "im": 1.0},
        "coeffs": {"0": 1.0, "1": 0.5, "-1": 0.5},
        "grid": {"min": 1e-3, "max": 0.9, "count": 32}})
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    texts = []
    for out in outs:
        lines = (out / "report.json").read_text().splitlines()
        texts.append("\n".join(l for l in lines if '"timestamp"' not in l))
    assert texts[0] == texts[1]
    assert (outs[0] / "residuals.csv").read_bytes() == \
        (outs[1] / "residuals.csv").read_bytes()


def test_env_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHROEDER_TOL", "1e-5")
    cfg = write_config(tmp_path, "v.json", {
        "germ": FLOW_GERM, "lambda": math.e,
        "grid": {"min": 1e-3, "max": 0.9, "count": 8}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert load_report(out)["tolerances"]["residual"] == 1e-5


def test_coefficient_file_reference(tmp_path):
    coeff_path = tmp_path / "coeffs.json"
    coeff_path.write_text(json.dumps({
        "lambda": {"re": math.e, "im": 0.0},
        "theta0": 0.0,
        "layers": [{"j": 0, "coeffs": [{"l": 0, "re": 1.0, "im": 0.0}]}]}))
    cfg = write_config(tmp_path, "v.json", {
        "germ": FLOW_GERM, "lambda": math.e, "coeffs": "coeffs.json",
        "grid": {"min": 1e-3, "max": 0.9, "count": 8}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert load_report(out)["summary"]["max_residual_rel"] <= 1e-8


# -- the residual kernel's contract ------------------------------------------------

def _csv_column(path, key):
    with open(path) as fh:
        return [row[key] for row in csv.DictReader(fh)]


def test_solve_and_verify_share_the_residual(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "germ": FLOW_GERM, "lambda": {"re": 2.0, "im": 1.0},
        "coeffs": {"0": 1.0, "1": 0.5, "-1": 0.5},
        "grid": {"min": 1e-3, "max": 0.9, "count": 16}})
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "s")]) == 0
    assert main(["verify", "--config", cfg, "--out",
                 str(tmp_path / "v")]) == 0
    for key in ("residual_I_abs", "residual_I_rel"):
        assert _csv_column(tmp_path / "s" / "solution.csv", key) == \
            _csv_column(tmp_path / "v" / "residuals.csv", key)


ESCAPING = {"germ": FLOW_GERM, "lambda": math.e,
            "grid": {"min": 1e-3, "max": 3.0, "count": 16}}


def test_solve_escaping_grid_writes_nan_rows(tmp_path):
    # phi(x) = x / (1 - x) blows up at x = 1, so the last rows escape
    cfg = write_config(tmp_path, "s.json", ESCAPING)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "solution.csv")))
    assert len(rows) == 16
    assert math.isnan(float(rows[-1]["residual_I_abs"]))
    assert math.isnan(float(rows[-1]["residual_I_rel"]))
    assert float(rows[0]["residual_I_rel"]) <= 1e-8
    assert load_report(out)["status"] == "pass"


def test_verify_escaping_grid_fails(tmp_path):
    cfg = write_config(tmp_path, "v.json", ESCAPING)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    rep = load_report(out)
    assert rep["status"] == "fail"
    assert rep["report"]["pass"] is False
    by_name = {c["name"]: c for c in rep["report"]["checks"]}
    assert by_name["max_residual_rel"]["pass"] is False
    rows = list(csv.DictReader(open(out / "residuals.csv")))
    assert math.isnan(float(rows[-1]["residual_I_rel"]))


def test_verify_zero_solution_escaping_grid_fails(tmp_path):
    # the zero solution has no residual either where phi(x) escapes
    cfg = write_config(tmp_path, "v.json", {**ESCAPING, "coeffs": {"0": 0}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    rows = list(csv.DictReader(open(out / "residuals.csv")))
    assert [math.isnan(float(r["residual_I_abs"])) for r in rows] == \
        [float(r["x"]) >= 1.0 for r in rows]
    assert all(float(r["beta_re"]) == 0.0 for r in rows)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


README_EXAMPLE = {
    "germ": FLOW_GERM, "lambda": {"re": 2.0, "im": 1.0},
    "coeffs": {"0": 1.0, "1": 0.5, "-1": 0.5},
    "grid": {"min": 0.001, "max": 0.9, "count": 64, "spacing": "log"}}


@pytest.mark.parametrize("payload, status", [
    (README_EXAMPLE, "pass"),
    (ESCAPING, "fail"),
])
def test_report_is_strict_json(tmp_path, payload, status):
    cfg = write_config(tmp_path, "v.json", payload)
    out = tmp_path / "out"
    main(["verify", "--config", cfg, "--out", str(out)])
    rep = json.loads((out / "report.json").read_text(),
                     parse_constant=_reject_constant)
    assert rep["status"] == status
    by_name = {c["name"]: c for c in rep["report"]["checks"]}
    # non-finite floats are the strings that float() reads back
    assert by_name["max_residual_abs"]["tolerance"] == "inf"
    if status == "fail":
        assert by_name["max_residual_rel"]["value"] == "nan"
        assert math.isnan(float(rep["summary"]["max_residual_rel"]))


def _assert_no_scipy_after(code):
    # a fresh interpreter, since this one may have loaded scipy already
    env = dict(os.environ,
               PYTHONPATH=str(Path(schroeder.__file__).resolve().parents[1]))
    probe = code + ("\nimport sys\n"
                    "print(sorted(m for m in sys.modules "
                    "if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_import_loads_no_scipy():
    _assert_no_scipy_after("import schroeder.cli")


def test_poly_verify_and_flat_flatness_load_no_scipy(tmp_path):
    verify = write_config(tmp_path, "v.json", {
        "germ": FLOW_GERM, "lambda": 2.0,
        "grid": {"min": 1e-3, "max": 0.9, "count": 16}})
    flatness = write_config(tmp_path, "f.json", {
        "germ": FLAT_GERM, "lambda": math.e, "k_max": 5})
    # flat flows above the series switch (x > 0.026) run the Ei Newton
    flat_verify = write_config(tmp_path, "fv.json", {
        "germ": FLAT_GERM, "lambda": math.e,
        "grid": {"min": 0.05, "max": 5.0, "count": 8}})
    _assert_no_scipy_after(
        "from schroeder.cli import main\n"
        f"assert main(['verify', '--config', {verify!r}, "
        f"'--out', {str(tmp_path / 'v')!r}]) == 0\n"
        f"assert main(['flatness', '--config', {flatness!r}, "
        f"'--out', {str(tmp_path / 'f')!r}]) == 0\n"
        f"assert main(['verify', '--config', {flat_verify!r}, "
        f"'--out', {str(tmp_path / 'fv')!r}]) == 0\n")


def test_package_imports_only_stdlib_numpy_and_mpmath():
    # the two dependencies that pyproject.toml lists
    allowed = set(sys.stdlib_module_names) | {"numpy", "mpmath"}
    src = Path(schroeder.__file__).resolve().parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {(path.name, n) for n in names
                      if n.split(".")[0] not in allowed}
    assert not found, sorted(found)
