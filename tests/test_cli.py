"""CLI contract: configs, reports, exit codes, determinism."""

import csv
import json
import math

import pytest

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
    ]
    for i, (command, payload) in enumerate(rows):
        capsys.readouterr()
        cfg = write_config(tmp_path, f"row{i}.json", payload)
        out = str(tmp_path / f"row{i}")
        assert main([command, "--config", cfg, "--out", out]) == 2, payload
        assert "Traceback" not in capsys.readouterr().err


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
