"""Batch front-end: solve/verify/classify/group workflows from JSON configs.

One command per invocation; outputs are a JSON report (self-describing,
with every tolerance used) and CSV sample tables ready for plotting.
Reports are byte-reproducible for identical configs: the only
non-deterministic value is isolated in the single ``timestamp`` key.

Exit codes: 0 all verdicts pass, 2 configuration error, 3 numerical
failure or failed verdict (the report is still written).
"""

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import autgroup as ag
from . import solutions as sol
from .diffeo import FlowGenerated, Linear, from_germ
from .errors import ConfigError, SchroederError
from .report import VerificationReport

DEFAULT_TOLERANCES = {
    "residual": 1e-8,
    "flatness_final": 1e-6,
    "group": 1e-9,
    "boundary": 1e-10,
}

DEFAULT_FLATNESS_GRID = [0.2, 0.1, 0.05, 0.025, 0.0125]


def _parse_complex(value, what="lambda"):
    if isinstance(value, dict):
        return complex(float(value["re"]), float(value.get("im", 0.0)))
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError:
            raise ConfigError(f"cannot parse {what} from {value!r}")
    raise ConfigError(f"cannot parse {what} from {value!r}")


def _number(spec, key, default, cast=float):
    value = spec.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")


class RunConfig:
    """Validated configuration of a single CLI run."""

    def __init__(self, command, raw, out_dir):
        self.command = command
        self.raw = raw
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tolerances = dict(DEFAULT_TOLERANCES)
        self.tolerances.update(raw.get("tolerances", {}))
        env_tol = os.environ.get("SCHROEDER_TOL")
        if env_tol:
            try:
                self.tolerances["residual"] = float(env_tol)
            except ValueError:
                raise ConfigError(f"SCHROEDER_TOL={env_tol!r} is not a float")

    def germ(self, key="germ", required=True):
        desc = self.raw.get(key)
        if desc is None:
            if required:
                raise ConfigError(f"config needs a {key!r} descriptor")
            return None
        try:
            return from_germ(desc)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad germ descriptor: {exc}")

    def branch(self, required=True):
        lam = self.raw.get("lambda")
        if lam is None:
            if required:
                raise ConfigError("config needs a 'lambda' value")
            return None
        lam = _parse_complex(lam)
        theta0 = self.raw.get("theta0")
        try:
            if theta0 is not None:
                return sol.LambdaBranch(lam, float(theta0))
            return sol.LambdaBranch.principal(lam)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def grid(self, chart=None):
        spec = self.raw.get("grid", {})
        lo = _number(spec, "min", 1e-3)
        if spec.get("max") is not None:
            hi = _number(spec, "max", None)
        elif chart is None:
            raise ConfigError("grid needs an explicit 'max'")
        else:
            hi = 0.9 * float(chart.blowup_x(1.0))
        count = _number(spec, "count", 64, int)
        spacing = spec.get("spacing", "log")
        if count < 2:
            raise ConfigError("grid count must be at least 2")
        if not 0 < lo < hi:
            raise ConfigError("grid needs 0 < min < max")
        if spacing == "log":
            return np.geomspace(lo, hi, count)
        if spacing == "linear":
            return np.linspace(lo, hi, count)
        raise ConfigError(f"unknown grid spacing {spacing!r}")

    def load_coeffs(self):
        """Coefficient data: inline dict or a path to a JSON file."""
        spec = self.raw.get("coeffs")
        if spec is None:
            return None
        if isinstance(spec, str):
            path = Path(spec)
            if not path.is_absolute():
                path = Path(self.raw.get("_config_dir", ".")) / path
            if not path.exists():
                raise ConfigError(f"coefficient file {path} does not exist")
            with open(path) as fh:
                return json.load(fh)
        if isinstance(spec, dict):
            return spec
        raise ConfigError("'coeffs' must be a path or an inline object")


def emit_solution_table(solution, phi, grid, path):
    """CSV sample table with the residual of the eigen equation per row.

    Columns, exactly: x, abel_t, beta_re, beta_im, residual_I_abs,
    residual_I_rel, in grid order.  Rows whose forward image escapes the
    certified flow window keep their sample values and carry nan
    residuals.
    """
    from .errors import BlowUp, DomainExceeded

    lam = solution.branch.lam
    report = VerificationReport(kind="solution-table", tolerances={})
    worst = 0.0
    rows = []
    for x in grid:
        x = float(x)
        t = float(solution.chart.abel_time(x))
        bx = sol.eval_solution(solution, x)
        try:
            by = sol.eval_solution(solution, phi(x))
            r_abs = abs(by - lam * bx)
            r_rel = r_abs / max(abs(lam * bx), 1e-300) if r_abs else 0.0
            worst = max(worst, r_rel)
        except (BlowUp, DomainExceeded):
            r_abs = r_rel = float("nan")
        rows.append([x, t, bx.real, bx.imag, r_abs, r_rel])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "abel_t", "beta_re", "beta_im",
                         "residual_I_abs", "residual_I_rel"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    report.add_check("max_residual_rel_sampled", worst, math.inf, True)
    return report


def _require_flow_germ(phi, command):
    if not isinstance(phi, FlowGenerated):
        raise ConfigError(
            f"the {command} command needs a flow-generated germ "
            "(kind 'flow'): solutions are represented over Abel charts")
    return phi


def _solution_from_config(cfg, branch, chart):
    coeffs_data = cfg.load_coeffs()
    if coeffs_data is None:
        return sol.base_solution(branch, chart)
    if "layers" in coeffs_data:
        return sol.solution_from_coeff_dict(coeffs_data, chart)
    coeffs = {int(k): _parse_complex(v, "coefficient")
              for k, v in coeffs_data.items()}
    return sol.synthesize(branch, chart, coeffs)


# --------------------------------------------------------------------------
# command bodies: each returns (VerificationReport, summary dict)

def _run_solve(cfg):
    phi = _require_flow_germ(cfg.germ(), "solve")
    branch = cfg.branch()
    solution = _solution_from_config(cfg, branch, phi.chart)
    grid = cfg.grid(phi.chart)
    table_path = cfg.out_dir / "solution.csv"
    report = emit_solution_table(solution, phi, grid, table_path)
    report.tolerances["residual"] = cfg.tolerances["residual"]
    summary = {
        "x0": phi.chart.x0,
        "degree": solution.degree,
        "modes": solution.modes(),
        "table": table_path.name,
    }
    return report, summary


def _run_verify(cfg):
    phi = _require_flow_germ(cfg.germ(), "verify")
    branch = cfg.branch()
    solution = _solution_from_config(cfg, branch, phi.chart)
    grid = cfg.grid(phi.chart)
    report = sol.verify_residual(solution, phi, grid,
                                 rel_tol=cfg.tolerances["residual"])
    table_path = cfg.out_dir / "residuals.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "abel_t", "beta_re", "beta_im",
                         "residual_I_abs", "residual_I_rel"])
        for row in report.tables["residuals"]:
            writer.writerow([repr(float(row[k])) for k in
                             ("x", "abel_t", "beta_re", "beta_im",
                              "residual_abs", "residual_rel")])
    summary = {
        "max_residual_rel": report.check_value("max_residual_rel").value,
        "table": table_path.name,
    }
    return report, summary


def _run_flatness(cfg):
    phi = _require_flow_germ(cfg.germ(), "flatness")
    branch = cfg.branch()
    solution = _solution_from_config(cfg, branch, phi.chart)
    k_max = _number(cfg.raw, "k_max", 5, int)
    if k_max < 1:
        raise ConfigError("flatness needs k_max >= 1")
    x_grid = [float(x) for x in cfg.raw.get("x_grid", DEFAULT_FLATNESS_GRID)]
    report = sol.verify_flatness(solution, k_max, x_grid,
                                 final_tol=cfg.tolerances["flatness_final"])
    summary = {"k_max": k_max, "x_grid": x_grid}
    return report, summary


def _run_resonance(cfg):
    mu = cfg.raw.get("mu")
    if mu is None:
        raise ConfigError("resonance needs 'mu'")
    mu = float(mu)
    lam = _parse_complex(cfg.raw.get("lambda"))
    order = int(cfg.raw.get("order", 10))
    n_max = int(cfg.raw.get("n_max", 32))
    res = sol.classify_resonance(mu, lam, n_max=n_max)
    rows = sol.jet_constraints(mu, lam, order)
    unforced = [k for k, forced in rows if not forced]
    report = VerificationReport(kind="resonance",
                                tolerances={"match_rel": 1e-9})
    resonant = isinstance(res, sol.Resonant)
    agree = (len(unforced) == 1 and resonant and unforced[0] == res.n) or \
            (len(unforced) == 0 and not resonant)
    report.add_check("jet_constraints_agree", 0.0 if agree else 1.0, 0.5,
                     agree)
    report.tables["jet_constraints"] = [
        {"k": k, "forced_zero": forced} for k, forced in rows]
    summary = {"resonant": resonant, "n": res.n if resonant else None,
               "unforced_degrees": unforced}
    return report, summary


def _run_aut(cfg):
    phi = _require_flow_germ(cfg.germ(), "aut")
    branch = cfg.branch()
    data = ag.ReebData(branch=branch, phi=phi, chart=phi.chart)
    seed = cfg.raw.get("seed")
    if seed is None:
        raise ConfigError("the aut command requires an explicit 'seed'")
    count = int(cfg.raw.get("count", 25))
    rng = np.random.default_rng(int(seed))
    tol = cfg.tolerances["group"]

    def random_element():
        import cmath
        a = cmath.exp(complex(rng.uniform(-1, 1),
                              rng.uniform(-math.pi, math.pi)))
        coeffs = {l: complex(rng.normal(), rng.normal()) * 4.0 ** (-abs(l))
                  for l in range(-3, 4)}
        b = sol.synthesize(branch, phi.chart, coeffs)
        return ag.normalize(ag.AutElement(data=data, a=a, b=b,
                                          t=float(rng.uniform(0, 1))))

    zs = [0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 0.5j]
    xs = [0.05, 0.2, 0.5, 0.8]

    def deviation(f, g):
        worst = 0.0
        for z in zs:
            for x in xs:
                (z1, x1) = f.leafwise(z, x)
                (z2, x2) = g.leafwise(z, x)
                worst = max(worst, abs(z1 - z2), abs(float(x1) - float(x2)))
        return worst

    ident = ag.identity_element(data)
    worst_assoc = worst_inv = 0.0
    for _ in range(count):
        f, g, h = random_element(), random_element(), random_element()
        worst_assoc = max(worst_assoc, deviation(
            ag.compose(ag.compose(f, g), h), ag.compose(f, ag.compose(g, h))))
        worst_inv = max(worst_inv, deviation(
            ag.compose(ag.invert(f), f), ident))
    report = VerificationReport(kind="aut-group", tolerances={"group": tol})
    report.add_check("associativity_dev", worst_assoc, tol)
    report.add_check("inverse_law_dev", worst_inv, tol)
    summary = {"count": count, "seed": int(seed)}
    return report, summary


def _run_fiber(cfg):
    lam = _parse_complex(cfg.raw.get("lambda"))
    branch = sol.LambdaBranch.principal(lam)
    germ = cfg.germ(required=False)
    if germ is None:
        from .flow import VectorFieldGen
        germ = FlowGenerated(VectorFieldGen.poly(2, 0.0))
    germ2 = cfg.germ("germ2", required=False) or germ
    data1 = ag.ReebData(branch=branch, phi=germ,
                        chart=getattr(germ, "chart", None))
    data2 = ag.ReebData(branch=branch, phi=germ2,
                        chart=getattr(germ2, "chart", None))
    a1 = _parse_complex(cfg.raw.get("a1", 1.0), "a1")
    a2 = _parse_complex(cfg.raw.get("a2", 1.0), "a2")
    f = ag.section(a1, data1)
    g = ag.section(a2, data2)
    tol = cfg.tolerances["boundary"]
    c1, c2 = ag.restrict_boundary(f), ag.restrict_boundary(g)
    dist = c1.distance(c2)
    report = VerificationReport(kind="fiber", tolerances={"boundary": tol})
    report.add_check("class_distance", dist, tol)
    summary = {
        "matched": dist <= tol,
        "class_1": {"u": c1.u, "psi": c1.psi},
        "class_2": {"u": c2.u, "psi": c2.psi},
    }
    return report, summary


_COMMANDS = {
    "solve": _run_solve,
    "verify": _run_verify,
    "flatness": _run_flatness,
    "resonance": _run_resonance,
    "aut": _run_aut,
    "fiber": _run_fiber,
}


def _write_report(cfg, report, summary, status):
    payload = {
        "command": cfg.command,
        "status": status,
        "tolerances": {k: v for k, v in sorted(cfg.tolerances.items())},
        "report": report.to_dict() if report is not None else None,
        "summary": summary,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schroeder",
        description="Schroeder-equation workflows on the half line")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False,
                       help="JSON configuration file")
        p.add_argument("--lambda", dest="lam", default=None,
                       help="override the multiplier (e.g. 2.0 or 2+1j)")
        p.add_argument("--mu", type=float, default=None,
                       help="override the linear holonomy derivative")
        p.add_argument("--grid-min", type=float, default=None)
        p.add_argument("--grid-max", type=float, default=None)
        p.add_argument("--grid-count", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        raw = {}
        config_dir = "."
        if args.config:
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file {path} does not exist")
            try:
                with open(path) as fh:
                    raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}")
            if not isinstance(raw, dict):
                raise ConfigError("config must be a JSON object")
            config_dir = str(path.parent)
        raw["_config_dir"] = config_dir
        if args.lam is not None:
            raw["lambda"] = args.lam
        if args.mu is not None:
            raw["mu"] = args.mu
        grid = dict(raw.get("grid", {}))
        if args.grid_min is not None:
            grid["min"] = args.grid_min
        if args.grid_max is not None:
            grid["max"] = args.grid_max
        if args.grid_count is not None:
            grid["count"] = args.grid_count
        if grid:
            raw["grid"] = grid
        out_dir = args.out or raw.get("out", ".")
        cfg = RunConfig(args.command, raw, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report, summary = _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SchroederError as exc:
        _write_report(cfg, None, {"error": str(exc),
                                  "error_type": type(exc).__name__},
                      status="numerical-failure")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    passed = report.passed
    path = _write_report(cfg, report, summary,
                         status="pass" if passed else "fail")
    print(f"{cfg.command}: {'pass' if passed else 'FAIL'} ({path})")
    return 0 if passed else 3


if __name__ == "__main__":
    sys.exit(main())
