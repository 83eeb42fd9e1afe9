"""Spans around formctl's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function in every ``formctl`` module
that binds it (the defining module and every module that imported the name),
so calls made inside the package are seen too. Each call becomes a span with
its name, start, end, parent span and the case it belongs to; spans stay in
memory and ``write`` saves them when the run ends. A span's self time is its
duration minus the time of the traced calls directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from formctl import cli, configspace, digraph, dynamics, larc, liealg

# (span name, module that defines it, attribute); the name's first part is the layer
TRACED = (
    ("digraph.coarse_scd", digraph, "coarse_scd"),
    ("digraph.transitive_closure", digraph, "transitive_closure"),
    ("digraph.structural_verdict", digraph, "structural_verdict"),
    ("liealg.lie_closure", liealg, "lie_closure"),
    ("liealg.span_equal", liealg, "span_equal"),
    ("configspace.numeric_rank", configspace, "numeric_rank"),
    ("configspace.in_controllable_set", configspace, "in_controllable_set"),
    ("configspace.find_nondegenerate_simplex", configspace, "find_nondegenerate_simplex"),
    ("configspace.extend_simplex_with_point", configspace, "extend_simplex_with_point"),
    ("larc.lie_algebra_at", larc, "lie_algebra_at"),
    ("larc.construct_witness_basis", larc, "construct_witness_basis"),
    ("dynamics.flow_constant", dynamics, "flow_constant"),
    ("dynamics.expm", dynamics, "expm"),          # scipy's expm as bound in dynamics
    ("dynamics.steer", dynamics, "steer"),
    ("cli.run", cli, "run"),
)


class Tracer:
    """Records spans and exact counts while installed."""

    def __init__(self):
        self.case = None          # index of the case being run, stored in its spans
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()           # by layer
        self.insert_calls = 0
        self.insert_grew = 0
        self.steers: list[tuple[float, float, int, int]] = []  # residual, tol, iters, start
        self._stack: list[list] = []               # [span id, time of traced children]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "formctl" or k.startswith("formctl."))]
        for name, module, attr in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        original_insert = liealg.IntRowEchelon.insert

        @functools.wraps(original_insert)
        def insert(echelon, vec):
            grew = original_insert(echelon, vec)
            self.insert_calls += 1
            self.insert_grew += bool(grew)
            return grew

        self._patches.append((liealg.IntRowEchelon, "insert", original_insert))
        liealg.IntRowEchelon.insert = insert

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        error = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += t1 - t0
            self.spans[sid] = (sid, parent, name, self.case, t0, t1, error)
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += t1 - t0 - frame[1]
            if error is not None:
                self.errors[name.split(".")[0]] += 1
        if name == "dynamics.steer":
            opts = kwargs.get("opts", args[5] if len(args) > 5 else dynamics.SteerOptions())
            self.steers.append((result.residual, opts.tolerance, result.iterations,
                                result.start_index))
        return result

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times; layers the run never entered read 0."""
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = 1000.0 * self.self_s[name]
            out[f"{name}.total_ms"] = 1000.0 * self.total_s[name]
        out["dynamics.expm.ms"] = out["dynamics.expm.total_ms"]
        out["liealg.insert.calls"] = self.insert_calls
        out["liealg.insert.useful_frac"] = (self.insert_grew / self.insert_calls
                                            if self.insert_calls else 0.0)
        out["larc.errors"] = self.errors["larc"]
        out["dynamics.gn_iterations"] = sum(s[2] for s in self.steers)
        out["dynamics.restarts"] = sum(s[3] for s in self.steers)
        out["dynamics.steer.converged_frac"] = (
            sum(s[0] <= s[1] for s in self.steers) / len(self.steers) if self.steers else 0.0)
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: id, parent, name, case, start, end, error."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "case", "start_s",
                                            "end_s", "error"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
