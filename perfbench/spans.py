"""Outside-in tracing of the package's layer functions.

The tracer replaces each layer function (and the numeric dependencies
the layers call) with a wrapper that records a span: name, start, end,
parent span and job id.  The package source is not touched: functions
imported by name into other modules are replaced there too, and methods
are replaced on their classes.

Counts (calls, errors, parent->child call pairs, peak mpmath precision)
and self time (span duration minus the time covered by direct child
spans) are aggregated exactly for every call.  Durations go into a
log-spaced histogram (2 % bins) for the median.  The span records
themselves are kept in memory up to ``span_cap`` spans and written out
once, when the run ends.
"""

import functools
import importlib
import math
import sys
import time

import mpmath
import numpy as np

# (metric name, module, class or None, attribute); the metric name is
# "<layer>.<function>" as the benchmark reports it.
LAYER_FUNCTIONS = [
    ("flow.abel_time", "schroeder.flow", "AbelChart", "abel_time"),
    ("flow.invert_abel", "schroeder.flow", "AbelChart", "invert_abel"),
    ("flow.flow_map", "schroeder.flow", "AbelChart", "flow_map"),
    ("flow.koenigs", "schroeder.flow", None, "koenigs"),
    ("flow.chart_init", "schroeder.flow", "AbelChart", "__init__"),
    ("diffeo.eval", "schroeder.diffeo", "HalfLineDiffeo", "__call__"),
    ("diffeo.inverse_value", "schroeder.diffeo", "*", "inverse_value"),
    ("solutions.eval_solution", "schroeder.solutions", None, "eval_solution"),
    ("solutions.verify_residual", "schroeder.solutions", None,
     "verify_residual"),
    ("solutions.verify_flatness", "schroeder.solutions", None,
     "verify_flatness"),
    ("solutions.jordan_solve", "schroeder.solutions", None, "jordan_solve"),
    ("solutions.synthesize", "schroeder.solutions", None, "synthesize"),
    ("solutions.shift_solution", "schroeder.solutions", None,
     "shift_solution"),
    ("autgroup.compose", "schroeder.autgroup", None, "compose"),
    ("autgroup.invert", "schroeder.autgroup", None, "invert"),
    ("autgroup.normalize", "schroeder.autgroup", None, "normalize"),
    ("autgroup.leafwise", "schroeder.autgroup", "AutElement", "leafwise"),
    ("autgroup.section", "schroeder.autgroup", None, "section"),
    ("autgroup.fiber_product", "schroeder.autgroup", None, "fiber_product"),
    ("cli.main", "schroeder.cli", None, "main"),
    ("cli.emit_solution_table", "schroeder.cli", None, "emit_solution_table"),
]

# numeric dependencies, wrapped where the package looks them up
DEPENDENCIES = [
    ("flow.quad", "schroeder.flow", "quad"),
    ("flow.ei", "mpmath", "ei"),
    ("flow.brentq", "scipy.optimize", "brentq"),
]

_BINS_PER_E = 50  # histogram resolution: bins grow by e**(1/50), about 2 %


class Tracer:
    def __init__(self, span_cap=400_000):
        self.on = False
        self.job = -1
        self._names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.errors = []
        self.hist = []
        self.pairs = {}
        self.stack = []
        self.n_spans = 0
        self.dps_peak = 0
        self.cache_hits = 0
        self.span_cap = span_cap
        self.start = np.zeros(span_cap)
        self.end = np.zeros(span_cap)
        self.fn = np.zeros(span_cap, dtype=np.int32)
        self.parent = np.full(span_cap, -1, dtype=np.int64)
        self.job_of = np.zeros(span_cap, dtype=np.int32)
        self._patches = []

    # -- recording ----------------------------------------------------------

    def fid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.errors.append(0)
            self.hist.append({})
        return self._ids[name]

    def _close(self, frame, parent, start, end, failed):
        fid, span, child_time = frame
        dur = end - start
        self.calls[fid] += 1
        self.self_s[fid] += dur - child_time
        if failed:
            self.errors[fid] += 1
        pfid = -1
        if parent is not None:
            parent[2] += dur
            pfid = parent[0]
        key = (pfid, fid)
        self.pairs[key] = self.pairs.get(key, 0) + 1
        b = int(math.log(dur * 1e9) * _BINS_PER_E) if dur > 1e-9 else 0
        h = self.hist[fid]
        h[b] = h.get(b, 0) + 1
        if span < self.span_cap:
            self.start[span] = start
            self.end[span] = end
            self.fn[span] = fid
            self.parent[span] = parent[1] if parent is not None else -1
            self.job_of[span] = self.job

    def wrap(self, name, fn, probe=None):
        fid = self.fid(name)
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(args)
            parent = stack[-1] if stack else None
            frame = [fid, tracer.n_spans, 0.0]
            tracer.n_spans += 1
            stack.append(frame)
            failed = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, parent, start, end, failed)

        return traced

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Rebind every package-module global that names ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "schroeder"
                                   or mod_name.startswith("schroeder.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _probe_cache(self, args):
        # the poly chart memoizes abel_time by float(x); a hit skips
        # quadrature.  Charts without that dict simply record no hits.
        chart, x = args[0], args[1]
        cache = getattr(chart, "_cache", None)
        if cache and float(x) in cache:
            self.cache_hits += 1

    def _probe_dps(self, args):
        self.dps_peak = max(self.dps_peak, mpmath.mp.dps)

    def install(self):
        for name, mod_name, cls_name, attr in LAYER_FUNCTIONS:
            mod = importlib.import_module(mod_name)
            probe = self._probe_cache if name == "flow.abel_time" else None
            if cls_name is None:
                original = getattr(mod, attr)
                self._replace_everywhere(original,
                                         self.wrap(name, original, probe))
            elif cls_name == "*":
                for cls in list(vars(mod).values()):
                    if (isinstance(cls, type) and cls.__module__ == mod_name
                            and attr in cls.__dict__):
                        self._patch_attr(
                            cls, attr, self.wrap(name, cls.__dict__[attr]))
            else:
                cls = getattr(mod, cls_name)
                self._patch_attr(cls, attr,
                                 self.wrap(name, cls.__dict__[attr], probe))
        for name, mod_name, attr in DEPENDENCIES:
            mod = importlib.import_module(mod_name)
            probe = self._probe_dps if name == "flow.ei" else None
            self._patch_attr(mod, attr,
                             self.wrap(name, getattr(mod, attr), probe))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def _p50_us(self, fid):
        h = self.hist[fid]
        total = sum(h.values())
        if not total:
            return 0.0
        seen = 0
        for b in sorted(h):
            seen += h[b]
            if 2 * seen >= total:
                return math.exp((b + 0.5) / _BINS_PER_E) / 1e3
        raise AssertionError("unreachable")

    def _count(self, name):
        return self.calls[self._ids[name]]

    def _child_calls(self, parent, child):
        return self.pairs.get((self._ids[parent], self._ids[child]), 0)

    def _ratio(self, num, den):
        return num / den if den else 0.0

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name, *_ in LAYER_FUNCTIONS:
            fid = self._ids[name]
            out[f"{name}.calls"] = (self.calls[fid], "count")
            out[f"{name}.self_s"] = (self.self_s[fid], "s")
            out[f"{name}.p50_us"] = (self._p50_us(fid), "us")
            out[f"{name}.errors"] = (self.errors[fid], "count")
        for name, *_ in DEPENDENCIES:
            fid = self._ids[name]
            out[f"{name}.calls"] = (self.calls[fid], "count")
            out[f"{name}.self_s"] = (self.self_s[fid], "s")
        out["flow.ei.dps_peak"] = (self.dps_peak, "digits")
        out["flow.abel_cache.hits"] = (self.cache_hits, "count")
        out["flow.abel_cache.hit_frac"] = (
            self._ratio(self.cache_hits, self._count("flow.abel_time")),
            "ratio")
        out["flow.abel_time_per_invert"] = (self._ratio(
            self._child_calls("flow.invert_abel", "flow.abel_time"),
            self._count("flow.invert_abel")), "ratio")
        out["flow.ei_per_flow_map"] = (self._ratio(
            self._child_calls("flow.flow_map", "flow.ei"),
            self._count("flow.flow_map")), "ratio")
        out["diffeo.eval_per_inverse"] = (self._ratio(
            self._child_calls("diffeo.inverse_value", "diffeo.eval"),
            self._count("diffeo.inverse_value")), "ratio")
        return out

    def deterministic_counts(self):
        """Counts that must repeat exactly between runs on one seed."""
        counts = {f"{n}.calls": c for n, c in zip(self._names, self.calls)}
        counts.update({f"{n}.errors": c
                       for n, c in zip(self._names, self.errors)})
        counts["flow.ei.dps_peak"] = self.dps_peak
        counts["flow.abel_cache.hits"] = self.cache_hits
        return counts

    def save(self, path):
        n = min(self.n_spans, self.span_cap)
        np.savez_compressed(
            path, names=np.array(self._names), start=self.start[:n],
            end=self.end[:n], fn=self.fn[:n], parent=self.parent[:n],
            job=self.job_of[:n], spans_total=self.n_spans)
        return n
