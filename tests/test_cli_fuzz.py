"""Fuzz of CLI configs: every run ends with exit 0, 2 or 3, never a traceback.

Each key of a config draws either a valid value or an invalid one (wrong
type, out of range, non-finite, malformed nesting).  Flat germs draw their
grid from their own list, down to min 1e-4 (4383 digits) and, past the
flat chart's precision cap, min 1e-7, which ends in exit 3.  Valid grids have at most 32 points
and ``aut`` runs at most 2 rounds; sizes just above their caps, and huge
ones, must be rejected as input.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schroeder.cli import AUT_COUNT_CAP, GRID_COUNT_CAP, main
from schroeder.solutions import DEGREE_CAP, K_MAX_CAP

POLY_RHO = {"kind": "poly", "n": 2, "a": 0.0}
POLY = {"kind": "flow", "rho": POLY_RHO, "time": 1.0}
FLAT = {"kind": "flow", "rho": {"kind": "flat", "form": "exp(-1/x)"}}
FLAT_GRID = {"min": 1e-2, "max": 0.9, "count": 8}

# values of the wrong type or outside every range, shared by all keys
JUNK = ["x", "", [1], {"a": 1}, None, -1, 0, True,
        math.inf, -math.inf, math.nan]
HUGE = 10**400   # an int that float() cannot convert


def key(valid, invalid=()):
    # one draw in eight is invalid, so many runs get past the config stage
    # (one_of would merge repeated branches and draw half invalid)
    good = st.sampled_from(valid)
    bad = st.sampled_from(list(invalid) + JUNK)
    return st.sampled_from(range(8)).flatmap(lambda i: bad if i == 0 else good)


GERMS = key(
    [POLY, FLAT,
     {"kind": "flow", "rho": {"kind": "poly", "n": 3, "a": -0.3}},
     {"kind": "flow", "rho": {"kind": "poly", "n": 2, "a": 0.5},
      "time": 0.5},
     {"kind": "linear", "mu": 2.0}],
    [{"kind": "linear", "mu": 0.5}, {"kind": "linear"},
     {"kind": "takens", "n": 2, "alpha": 0.0, "x1": 0.25},
     {"kind": "linear", "mu": "x"}, {"kind": "takens", "n": 1, "alpha": 0},
     {"kind": "takens", "n": 2, "alpha": 0, "x1": -1},
     {"kind": "flow"}, {"kind": "flow", "rho": "x"},
     {"kind": "flow", "rho": {"kind": "poly"}},
     {"kind": "flow", "rho": {"kind": "poly", "n": 1}},
     {"kind": "flow", "rho": {"kind": "poly", "n": "x"}},
     {"kind": "flow", "rho": {"kind": "poly", "n": 400}},
     {"kind": "flow", "rho": {"kind": "poly", "n": 2, "a": math.inf}},
     {"kind": "flow", "rho": {"kind": "flat", "form": "x"}},
     {"kind": "flow", "rho": {"kind": "nope"}},
     {"kind": "flow", "rho": POLY_RHO, "time": -1},
     {"kind": "flow", "rho": POLY_RHO, "time": "x"},
     {"kind": "nope"}, {}])

LAMBDAS = key([2.0, math.e, 4.0, -3.0, {"re": 2.0, "im": 1.0}, "2+1j"],
              [0.5, 1.0, HUGE, {"re": "x"}, {"im": 1.0}, "1+", {"re": 0.5}])

COEFFS = key(
    [{}, {"0": 1.0, "1": 0.5, "-1": 0.5}, {"0": {"re": 1.0, "im": 1.0}},
     {"lambda": {"re": 2.0}, "layers": [
         {"j": 0, "coeffs": [{"l": 0, "re": 1.0, "im": 0.5}]}]}],
    [{"0": 1, "5": 1}, {"70": 1.0}, {"x": 1.0}, {"0": "x"}, {"0": [1]},
     {"layers": []}, {"layers": "x"}, {"lambda": 2.0, "layers": []},
     {"lambda": {"re": 2.0}, "layers": [{"j": 100}]},
     {"lambda": {"re": 2.0}, "layers": [{"j": 0, "coeffs": [{"l": "x"}]}]},
     {"lambda": {"re": 2.0}, "theta0": "x", "layers": []},
     "missing.json"])

GRIDS = key(
    [FLAT_GRID, {"min": 1e-3, "max": 0.9, "count": 16, "spacing": "linear"},
     {"max": 0.5, "count": 4}, {"count": 8},
     {"min": 1e-3, "max": 3.0, "count": 16}],
    [{"count": 1}, {"min": 0.9, "max": 0.1}, {"max": 0.9, "spacing": "x"},
     {"max": 0.9, "count": "x"}, {"min": math.nan, "max": 0.9},
     {"min": HUGE, "max": 0.9},
     {"min": 1e-3, "max": math.inf, "count": 4}, {"max": [1]},
     {"max": 0.9, "count": GRID_COUNT_CAP + 1}, {"max": 0.9, "count": HUGE}])

# min 1e-7 lies past the precision cap; junk grids come from GRIDS
FLAT_GRIDS = st.sampled_from([FLAT_GRID, {"min": 1e-4, "max": 0.9, "count": 8},
                              {"min": 1e-7, "max": 0.9, "count": 8}])

X_GRIDS = key(
    [[0.2, 0.1, 0.05, 0.025, 0.0125],
     [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]],
    [[0.003], [0.1, 0.05, 0.025, 0.0125], [], ["a"],
     [0.1, 0.2, 0.3, 0.4, 0.5], [0.2, 0.1, 0.05, 0.025, 0.0],
     [0.2, 0.1, math.nan, 0.025, 0.0125], [0.2, 0.1, 0.05, 0.025, -1]])

KEYS = {
    "germ": GERMS,
    "germ2": GERMS,
    "lambda": LAMBDAS,
    "theta0": key([0.0], [1.0]),
    "coeffs": COEFFS,
    "grid": GRIDS,
    "x_grid": X_GRIDS,
    "k_max": key([1, 2, 5], [2.5, 300, K_MAX_CAP + 1, HUGE]),
    "mu": key([2, 2.0, 1.5], [0.5, 1, HUGE]),
    "order": key([1, 10], [2.5, DEGREE_CAP + 1, HUGE]),
    "n_max": key([4, 32], [2000, DEGREE_CAP + 1, HUGE]),
    "seed": key([0, 7], [2.5]),
    "count": key([1, 2], [AUT_COUNT_CAP + 1, HUGE]),
    "a1": key([1.0, 2.0, {"re": 0.5, "im": 1.0}, "2+1j"],
              [{"re": "x"}, HUGE]),
    "a2": key([1.0, 2.0 * math.e], [{"re": "x"}]),
    "tolerances": key([{}, {"residual": 1e-6}, {"group": 1e-9}],
                      [[1e-8], {"residual": "x"}, {"residual": None},
                       {"residual": math.nan}, {"residual": HUGE}]),
}

# the keys each command reads first are always drawn (None stands in for
# a missing one); every other key of KEYS may appear too
REQUIRED = {
    "solve": ["germ", "lambda"],
    "verify": ["germ", "lambda"],
    "flatness": ["germ", "lambda"],
    "resonance": ["mu", "lambda"],
    "aut": ["germ", "lambda", "seed"],
    "fiber": ["lambda"],
}


def _bounded(config, flat_grid):
    # the cost bounds of the module docstring
    if config.get("germ") == FLAT:
        config["grid"] = flat_grid
    config.setdefault("count", 2)   # aut defaults to 25 rounds
    return config


def config_for(command):
    required = {k: KEYS[k] for k in REQUIRED[command]}
    optional = {k: v for k, v in KEYS.items() if k not in required}
    return st.tuples(st.fixed_dictionaries(required, optional=optional),
                     FLAT_GRIDS).map(lambda drawn: _bounded(*drawn))


@settings(derandomize=True, deadline=None, max_examples=500, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(REQUIRED)).flatmap(
    lambda c: st.tuples(st.just(c), config_for(c))))
def test_every_config_exits_0_2_or_3(run):
    command, config = run
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, "--config", path,
                         "--out", os.path.join(work, "out")])
    assert code in (0, 2, 3), (command, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
