"""Timing spans around the public functions of every aeromrac module.

The tracer is installed from outside the program: it replaces each public
module-level function, and the few methods that carry the hot paths, with a
wrapper that records a span (name, start, end, parent).  Spans of the hot
per-step calls are folded into per-name totals as they close, so a traced
run keeps a bounded span list.  A span's self time is its duration minus the
time covered by its direct child spans.  Each thread keeps its own stack and
totals, so the sweep's worker threads are attributed correctly.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import threading
import time

MODULES = ("cli", "sim", "romgen", "plant3dof", "numerics", "mrac", "gusts", "plantio")

# Called once per RK4 stage or per trace row: totals only, no span record.
HOT = frozenset({
    "romgen.ReducedOrderModel.rhs",
    "romgen.ReducedOrderModel.eval_f_nr",
    "plant3dof.FullOrderModel.rhs",
})


class _ThreadRecord:
    def __init__(self, name):
        self.thread = name
        self.stack = []  # [name, start, child_time]
        self.spans = []  # (name, start, end, parent)
        self.totals = {}  # name -> [calls, total_s, self_s]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._records = []
        self.counters = {}
        self._lock = threading.Lock()
        self.open_runs = []  # (model id, gust key) per open-loop run
        self.gust_builds = []  # gust key per construction

    def _record(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecord(threading.current_thread().name)
            self._local.rec = rec
            self._records.append(rec)
        return rec

    def count(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, hook=None):
        """Wrapper recording a span per call; ``hook(bound_args, result)``
        updates counters after the call returns."""
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._record()
            frame = [name, time.perf_counter(), 0.0]
            rec.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                dur = end - frame[1]
                parent = rec.stack[-1] if rec.stack else None
                if parent is not None:
                    parent[2] += dur
                tot = rec.totals.get(name)
                if tot is None:
                    tot = rec.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[2]
                if name not in HOT:
                    rec.spans.append(
                        (name, frame[1], end, parent[0] if parent else None)
                    )
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def dump(self):
        totals = {}
        spans = []
        for rec in self._records:
            for name, (calls, total, self_s) in rec.totals.items():
                t = totals.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += total
                t[2] += self_s
            spans += [
                {"name": n, "start": s, "end": e, "parent": p, "thread": rec.thread}
                for n, s, e, p in rec.spans
            ]
        spans.sort(key=lambda s: s["start"])
        counters = dict(self.counters)
        counters["open_runs"] = len(self.open_runs)
        counters["distinct_open_runs"] = len(set(self.open_runs))
        counters["gust_builds"] = len(self.gust_builds)
        counters["distinct_gusts"] = len(set(self.gust_builds))
        return {
            "totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(totals.items())},
            "counters": counters,
            "spans": spans,
        }


def _gust_key(gust):
    fields = tuple(getattr(gust, f.name) for f in dataclasses.fields(gust) if f.init)
    return (type(gust).__name__,) + fields


def _trace_nbytes(trace):
    return sum(
        v.nbytes for v in vars(trace).values() if hasattr(v, "nbytes")
    )


def install(tracer: Tracer):
    """Wrap the public functions of every aeromrac module in place."""
    import importlib

    mods = {short: importlib.import_module(f"aeromrac.{short}") for short in MODULES}

    def on_open(a, result):
        tracer.count("open_steps", a["config"].n_steps)
        tracer.count("trace_bytes", _trace_nbytes(result))
        tracer.open_runs.append((id(a["model"]), _gust_key(a["gust"])))

    def on_closed(a, result):
        tracer.count("closed_steps", a["config"].n_steps)
        tracer.count("closed_rows", result.time.shape[0])
        tracer.count("trace_bytes", _trace_nbytes(result))

    def on_lipschitz(a, result):
        tracer.count("lipschitz_rows", len(a["x_traj"]))

    def on_csv(a, result):
        tracer.count("csv_rows", len(a["rows"]))
        tracer.count("csv_bytes", os.path.getsize(a["path"]))

    hooks = {
        "sim.integrate_open_loop": on_open,
        "sim.integrate_closed_loop": on_closed,
        "mrac.lipschitz_ratio_series": on_lipschitz,
        "cli.write_csv": on_csv,
    }

    replaced = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            replaced[obj] = tracer.wrap(name, obj, hooks.get(name))
    # rebind every reference, including names imported with ``from .x import``
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    commands = mods["cli"]._COMMANDS
    for key, fn in list(commands.items()):
        commands[key] = replaced.get(fn, fn)

    for short, cls, method in (
        ("romgen", mods["romgen"].ReducedOrderModel, "rhs"),
        ("romgen", mods["romgen"].ReducedOrderModel, "eval_f_nr"),
        ("plant3dof", mods["plant3dof"].FullOrderModel, "rhs"),
    ):
        setattr(cls, method,
                tracer.wrap(f"{short}.{cls.__name__}.{method}", getattr(cls, method)))

    def on_gust(a, result):
        tracer.gust_builds.append(_gust_key(a["self"]))

    for cls in (mods["gusts"].OneCosineGust, mods["gusts"].VonKarmanGust):
        cls.__post_init__ = tracer.wrap("gusts.build", cls.__post_init__, on_gust)
