"""Span tracing around wolffkit's layer boundaries, from the benchmark's side.

``Tracer.install`` replaces selected wolffkit functions, wherever a wolffkit
module holds a reference to them, with wrappers that record one span per
call: name, parent span, thread, start and end (ns), plus a few counts taken
from the arguments or the result.  Parents are tracked per thread, because
the potential layer evaluates centres on a worker pool; a span opened on a
pool thread is a root on that thread.  Spans are kept in memory and written
out by ``write``.  Wrappers record only while ``recording`` is set, so the
benchmark's own checks stay out of the trace.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _fingerprint(obj) -> str:
    """Content key of a call argument, for counting repeated evaluations."""
    h = hashlib.blake2b(digest_size=16)
    if hasattr(obj, "grid") and hasattr(obj, "values"):  # a radial profile
        h.update(np.ascontiguousarray(obj.grid.points).tobytes())
        h.update(np.ascontiguousarray(obj.values).tobytes())
        h.update(repr((obj.head_exponent, obj.tail_exponent, obj.tail_log_power)).encode())
    elif hasattr(obj, "points"):  # a radial grid
        h.update(np.ascontiguousarray(obj.points).tobytes())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


def _call_key(args, kwargs) -> tuple:
    return tuple(_fingerprint(a) for a in args) + tuple(
        (k, _fingerprint(v)) for k, v in sorted(kwargs.items())
    )


def _size(x) -> int:
    return int(np.size(x))


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _broadcast_size(args, kwargs) -> int:
    _, rho, t, r = args[:4]
    return int(np.broadcast(np.asarray(rho), np.asarray(t), np.asarray(r)).size)


# (module, attribute path in it, span name, counts(args, kwargs, result) or None)
TARGETS = (
    ("wolffkit.geometry", "ball_mass_batch", "geometry.ball_mass_batch",
     lambda a, k, res: {"radii": _size(a[3])}),
    ("wolffkit.geometry", "cap_fraction", "geometry.cap_fraction",
     lambda a, k, res: {"nodes": _broadcast_size(a, k)}),
    ("wolffkit.radial", "RadialFunction.__call__", "radial.call",
     lambda a, k, res: {"points": _size(a[1])}),
    ("wolffkit.radial", "RadialFunction.cumulative_mass", "radial.cumulative_mass", None),
    ("wolffkit.radial", "lp_norm", "radial.lp_norm", None),
    ("wolffkit.potential", "wolff_eval", "potential.wolff_eval",
     lambda a, k, res: {"centres": _size(res.values), "key": ("wolff",) + _call_key(a, k)}),
    ("wolffkit.potential", "riesz_eval", "potential.riesz_eval",
     lambda a, k, res: {"centres": _size(res.values), "key": ("riesz",) + _call_key(a, k)}),
    ("wolffkit.solver", "solve_system", "solver.solve_system",
     lambda a, k, res: {"iterations": int(res.iterations)}),
    ("wolffkit.solver", "potential_images", "solver.potential_images", None),
    ("wolffkit.quasilinear", "find_fast_ground_state", "quasilinear.find_fast_ground_state", None),
    ("wolffkit.quasilinear", "shoot", "quasilinear.shoot",
     lambda a, k, res: {"key": (repr(a[0]), float(a[1]), float(a[2]))}),
    ("wolffkit.quasilinear", "solve_ivp", "quasilinear.solve_ivp",
     lambda a, k, res: {"nfev": int(res.nfev)}),
    ("wolffkit.verify", "check_inequalities", "verify.check_inequalities", None),
)


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = []  # (id, name, parent, thread, start_ns, end_ns, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name, counts):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = counts(args, kwargs, result) if counts else None
            tracer.spans.append((sid, name, parent, threading.get_ident(), start, end, extra))
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        """Replace every wolffkit reference to each target by its traced wrapper."""
        for module_name, attr_path, name, counts in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:  # a method: patch it on its class
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, counts)
            if outer:
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "wolffkit" or mod_name.startswith("wolffkit.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in holders:
                self._undo.append((holder, key, original))
                setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, operations: int) -> dict:
        """Per-operation layer metrics (counts and seconds) and waste ratios, with units."""
        calls = defaultdict(int)
        total_ns = defaultdict(int)
        child_ns = defaultdict(int)
        counted = defaultdict(int)
        keys = defaultdict(list)
        for sid, name, parent, _thread, start, end, extra in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            if parent is not None:
                child_ns[parent] += end - start
            if extra:
                for k, v in extra.items():
                    if k == "key":
                        keys[name].append(v)
                    else:
                        counted[(name, k)] += v
        self_ns = defaultdict(int)
        for sid, name, _parent, _thread, start, end, _extra in self.spans:
            self_ns[name] += end - start - child_ns.get(sid, 0)

        ops = max(operations, 1)

        def per_op(value):
            return value / ops

        def seconds(ns):
            return ns / 1e9 / ops

        def distinct(*names):
            seen = [key for name in names for key in keys.get(name, [])]
            return len(set(seen)) / len(seen) if seen else 1.0

        values = {
            "geometry.ball_mass_batch.calls": per_op(calls["geometry.ball_mass_batch"]),
            "geometry.ball_mass_batch.radii": per_op(counted[("geometry.ball_mass_batch", "radii")]),
            "geometry.ball_mass_batch.self_s": seconds(self_ns["geometry.ball_mass_batch"]),
            "geometry.cap_fraction.calls": per_op(calls["geometry.cap_fraction"]),
            "geometry.cap_fraction.nodes": per_op(counted[("geometry.cap_fraction", "nodes")]),
            "geometry.cap_fraction.s": seconds(total_ns["geometry.cap_fraction"]),
            "radial.call.calls": per_op(calls["radial.call"]),
            "radial.call.points": per_op(counted[("radial.call", "points")]),
            "radial.call.s": seconds(total_ns["radial.call"]),
            "radial.cumulative_mass.calls": per_op(calls["radial.cumulative_mass"]),
            "radial.cumulative_mass.s": seconds(total_ns["radial.cumulative_mass"]),
            "radial.lp_norm.calls": per_op(calls["radial.lp_norm"]),
            "radial.lp_norm.s": seconds(total_ns["radial.lp_norm"]),
            "potential.wolff_eval.calls": per_op(calls["potential.wolff_eval"]),
            "potential.wolff_eval.centres": per_op(counted[("potential.wolff_eval", "centres")]),
            "potential.wolff_eval.s": seconds(total_ns["potential.wolff_eval"]),
            "potential.riesz_eval.calls": per_op(calls["potential.riesz_eval"]),
            "potential.riesz_eval.centres": per_op(counted[("potential.riesz_eval", "centres")]),
            "potential.riesz_eval.s": seconds(total_ns["potential.riesz_eval"]),
            "potential.distinct_ratio": distinct("potential.wolff_eval", "potential.riesz_eval"),
            "solver.iterations": per_op(counted[("solver.solve_system", "iterations")]),
            "solver.potential_images.calls": per_op(calls["solver.potential_images"]),
            "solver.potential_images.s": seconds(total_ns["solver.potential_images"]),
            "solver.self_s": seconds(self_ns["solver.solve_system"]),
            "quasilinear.shoot.calls": per_op(calls["quasilinear.shoot"]),
            "quasilinear.shoot.s": seconds(total_ns["quasilinear.shoot"]),
            "quasilinear.shoot.distinct_ratio": distinct("quasilinear.shoot"),
            "quasilinear.rhs_evals": per_op(counted[("quasilinear.solve_ivp", "nfev")]),
            "verify.check_inequalities.calls": per_op(calls["verify.check_inequalities"]),
            "verify.check_inequalities.s": seconds(total_ns["verify.check_inequalities"]),
            "verify.self_s": seconds(self_ns["verify.check_inequalities"]),
        }
        return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}

    def write(self, path):
        """One JSON array per span: id, name, parent, thread, start_ns, end_ns, counts."""
        threads = {}
        with open(path, "w") as fh:
            for sid, name, parent, thread, start, end, extra in self.spans:
                counts = {k: v for k, v in (extra or {}).items() if k != "key"}
                tid = threads.setdefault(thread, len(threads))
                fh.write(json.dumps([sid, name, parent, tid, start, end, counts]) + "\n")
