"""Batch front-end: solve/verify/classify/group workflows from JSON configs.

One command per invocation; outputs are a JSON report (self-describing,
with every tolerance used) and CSV sample tables ready for plotting.
Reports are byte-reproducible for identical configs: the only
non-deterministic value is isolated in the single ``timestamp`` key.

Exit codes: 0 all verdicts pass, 2 rejected input (``InvalidInput``,
raised by whichever module reads the offending value), 3 numerical
failure or failed verdict (the report is still written).  Non-finite
floats are written to ``report.json`` as the strings "inf", "-inf" and
"nan", so the report is strict JSON.
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
from .diffeo import FlowGenerated, from_germ
from .errors import InvalidInput, SchroederError, read_number, require_object
from .report import VerificationReport

DEFAULT_TOLERANCES = {
    "residual": 1e-8,
    "flatness_final": 1e-6,
    "group": 1e-9,
    "boundary": 1e-10,
}

# verify_flatness judges the final five points.  For the base solution
# over x^2, |beta^(k)| (k <= 5) rises up to x ~ 0.1 and falls at every
# step of 0.1 ... 0.00625.
DEFAULT_FLATNESS_GRID = [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]

GRID_COUNT_CAP = 4096   # most points of a sample grid
AUT_COUNT_CAP = 1000    # most rounds of the aut group-law check


def _parse_complex(value, what="lambda"):
    try:
        if isinstance(value, dict):
            return complex(float(value["re"]), float(value.get("im", 0.0)))
        if isinstance(value, (int, float)):
            return complex(value)
        if isinstance(value, str):
            return complex(value.replace(" ", ""))
    except (KeyError, OverflowError, TypeError, ValueError):
        pass
    raise InvalidInput(f"cannot parse {what} from {value!r}")


def _load_object(path, what):
    """The JSON object stored at ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: not JSON, not text
        raise InvalidInput(f"cannot read {what} {path}: {exc}")
    return require_object(data, what)


class RunConfig:
    """Configuration of a single CLI run.

    Each value is read, and so checked, where a command needs it.
    """

    def __init__(self, command, raw, out_dir):
        self.command = command
        self.raw = raw
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot create output directory: {exc}")
        self.tolerances = dict(DEFAULT_TOLERANCES)
        given = require_object(raw.get("tolerances", {}), "'tolerances'")
        self.tolerances.update({k: read_number(given, k) for k in given})
        if os.environ.get("SCHROEDER_TOL"):
            self.tolerances["residual"] = read_number(os.environ,
                                                      "SCHROEDER_TOL")

    def germ(self, key="germ", required=True):
        desc = self.raw.get(key)
        if desc is None and not required:
            return None
        return from_germ(desc)

    def branch(self):
        lam = _parse_complex(self.raw.get("lambda"))
        if self.raw.get("theta0") is None:
            return sol.LambdaBranch.principal(lam)
        return sol.LambdaBranch(lam, read_number(self.raw, "theta0"))

    def grid(self, chart=None):
        spec = require_object(self.raw.get("grid", {}), "'grid'")
        lo = read_number(spec, "min", default=1e-3)
        if spec.get("max") is not None:
            hi = read_number(spec, "max")
        elif chart is None:
            raise InvalidInput("grid needs an explicit 'max'")
        else:
            hi = 0.9 * float(chart.blowup_x(1.0))
        count = read_number(spec, "count", int, default=64)
        spacing = spec.get("spacing", "log")
        if not 2 <= count <= GRID_COUNT_CAP:
            raise InvalidInput(f"grid count must be in 2..{GRID_COUNT_CAP}, "
                               f"got {count}")
        if not 0 < lo < hi < math.inf:
            raise InvalidInput("grid needs 0 < min < max < inf")
        if spacing == "log":
            return np.geomspace(lo, hi, count)
        if spacing == "linear":
            return np.linspace(lo, hi, count)
        raise InvalidInput(f"unknown grid spacing {spacing!r}")

    def load_coeffs(self):
        """Coefficient data: inline dict or a path to a JSON file."""
        spec = self.raw.get("coeffs")
        if isinstance(spec, str):
            path = Path(spec)
            if not path.is_absolute():
                path = Path(self.raw.get("_config_dir", ".")) / path
            return _load_object(path, "coefficient file")
        if spec is None or isinstance(spec, dict):
            return spec
        raise InvalidInput("'coeffs' must be a path or an inline object")


def _write_residual_csv(path, rows):
    """The CSV table of ``solve`` and ``verify``, one row per grid point."""
    keys = ("x", "abel_t", "beta_re", "beta_im", "residual_abs",
            "residual_rel")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "abel_t", "beta_re", "beta_im",
                         "residual_I_abs", "residual_I_rel"])
        for row in rows:
            writer.writerow([repr(float(row[k])) for k in keys])


def emit_solution_table(solution, phi, grid, path):
    """CSV sample table with the residual of the eigen equation per row.

    Columns, exactly: x, abel_t, beta_re, beta_im, residual_I_abs,
    residual_I_rel, in grid order; the residuals are those of
    ``verify``.  Rows whose forward image escapes the certified flow
    window keep their sample values and carry nan residuals, which the
    sampled maximum skips.
    """
    rows = sol.residual_rows(solution, solution.branch.lam, phi, grid)
    _write_residual_csv(path, rows)
    report = VerificationReport(kind="solution-table", tolerances={})
    report.add_check("max_residual_rel_sampled", sol.sup_residual(
        [r for r in rows if not math.isnan(r["residual_rel"])]),
        math.inf, True)
    return report


def _require_flow_germ(phi, command):
    if not isinstance(phi, FlowGenerated):
        raise InvalidInput(
            f"the {command} command needs a flow-generated germ "
            "(kind 'flow'): solutions are represented over Abel charts")
    return phi


def _solution_from_config(cfg, branch, chart):
    coeffs_data = cfg.load_coeffs()
    if coeffs_data is None:
        return sol.base_solution(branch, chart)
    if "layers" in coeffs_data:
        return sol.solution_from_coeff_dict(coeffs_data, chart)
    return sol.synthesize(branch, chart, {
        k: _parse_complex(v, "coefficient") for k, v in coeffs_data.items()})


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
    _write_residual_csv(table_path, report.tables["residuals"])
    summary = {
        "max_residual_rel": report.check_value("max_residual_rel").value,
        "table": table_path.name,
    }
    return report, summary


def _run_flatness(cfg):
    phi = _require_flow_germ(cfg.germ(), "flatness")
    branch = cfg.branch()
    solution = _solution_from_config(cfg, branch, phi.chart)
    k_max = read_number(cfg.raw, "k_max", int, default=5)
    report = sol.verify_flatness(solution, k_max,
                                 cfg.raw.get("x_grid", DEFAULT_FLATNESS_GRID),
                                 final_tol=cfg.tolerances["flatness_final"])
    summary = {"k_max": k_max,
               "x_grid": [row["x"] for row in report.tables["derivatives"]]}
    return report, summary


def _run_resonance(cfg):
    mu = read_number(cfg.raw, "mu")
    lam = _parse_complex(cfg.raw.get("lambda"))
    order = read_number(cfg.raw, "order", int, default=10)
    n_max = read_number(cfg.raw, "n_max", int, default=32)
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
    seed = read_number(cfg.raw, "seed", int)
    count = read_number(cfg.raw, "count", int, default=25)
    if seed < 0:
        raise InvalidInput("the aut command needs a seed >= 0")
    if not 1 <= count <= AUT_COUNT_CAP:
        raise InvalidInput(f"the aut command needs 1 <= count <= "
                           f"{AUT_COUNT_CAP}, got {count}")
    rng = np.random.default_rng(seed)
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
    # probe points below the 0.9 blowup_x(1) of the default grid
    scale = min(1.0, 0.9 * float(phi.chart.blowup_x(1.0)) / 0.8)
    xs = [scale * x for x in (0.05, 0.2, 0.5, 0.8)]

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
    summary = {"count": count, "seed": seed}
    return report, summary


def _run_fiber(cfg):
    branch = cfg.branch()
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


def _strict(value):
    """``value`` with every non-finite float replaced by its string
    "inf", "-inf" or "nan", which ``float`` reads back."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


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
        json.dump(_strict(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
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


def _config(args):
    """The run configuration of the parsed command line."""
    raw = {}
    config_dir = "."
    if args.config:
        path = Path(args.config)
        raw = _load_object(path, "config file")
        config_dir = str(path.parent)
    raw["_config_dir"] = config_dir
    if args.lam is not None:
        raw["lambda"] = args.lam
    if args.mu is not None:
        raw["mu"] = args.mu
    out_dir = args.out or raw.get("out", ".")
    if not isinstance(out_dir, str):
        raise InvalidInput(f"'out' must be a path, got {out_dir!r}")
    flags = {k: v for k, v in (("min", args.grid_min), ("max", args.grid_max),
                               ("count", args.grid_count)) if v is not None}
    grid = raw.get("grid", {})
    if flags and isinstance(grid, dict):   # RunConfig.grid rejects the rest
        raw["grid"] = {**grid, **flags}
    return RunConfig(args.command, raw, out_dir)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # building the config raises nothing but InvalidInput
        cfg = _config(args)
        report, summary = _COMMANDS[cfg.command](cfg)
    except InvalidInput as exc:
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
