"""Spans around mbsplan's layers, recorded from outside the package.

Each traced name is replaced, for the duration of one operation, by a
wrapper at the module attribute the caller looks up (``from x import f``
binds ``f`` in the caller's module, so that is where the wrapper goes).
A wrapper records an in-memory span (name, start, end, parent, op id and
thread) and, for a few layers, counters read off the call's arguments or
result. A name the program no longer has is reported as absent rather
than failing the run, so the benchmark survives refactors that delete a
layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _qos(args, kwargs, result):
    return {"fixed_point_iterations": result.fixed_point_iterations,
            "not_converged": 0 if result.converged else 1}


def _demand(args, kwargs, result):
    users = args[0] if args else kwargs["users"]
    return {"cells": int(np.size(result.values)),
            "distinct_loads": int(np.unique(np.asarray(users.values)).size)}


def _mc(args, kwargs, result):
    return {"trials": int(kwargs["trials"] if "trials" in kwargs else args[4])}


def _lp(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": int(lp.a_eq.shape[0] + lp.a_ub.shape[0]),
            "cols": int(np.size(lp.objective)),
            "nonzeros": int(np.count_nonzero(lp.a_eq) + np.count_nonzero(lp.a_ub))}


def _plan(args, kwargs, result):
    """Slots whose coverage needs the whole fleet: the rows that bind M."""
    demand = args[0] if args else kwargs["demand"]
    areas = np.asarray(args[1] if len(args) > 1 else kwargs["areas_m2"], dtype=float)
    values = np.asarray(getattr(demand, "values", demand), dtype=float)
    fleet = float(result.fleet_size)
    needed = np.maximum(values - np.asarray(result.static_density)[None, :], 0.0) @ areas
    binding = needed >= fleet - 1e-7 * max(fleet, 1.0) if fleet > 0.0 else np.zeros(0)
    return {"binding_slots": int(np.count_nonzero(binding))}


# (module, attribute the caller looks up, span name, counter reader)
TARGETS = (
    ("mbsplan.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("mbsplan.cli", "sweep_cost_ratio", "pipeline.sweep_cost_ratio", None),
    ("mbsplan.cli", "validate", "pipeline.validate", None),
    ("mbsplan.pipeline", "load_scenario_file", "scenario.load", None),
    ("mbsplan.pipeline", "default_scenario", "scenario.load", None),
    ("mbsplan.pipeline", "user_density_matrix", "scenario.user_density_matrix", None),
    ("mbsplan.pipeline", "demand_matrix", "dimensioning.demand_matrix", _demand),
    ("mbsplan.pipeline", "min_bs_density", "dimensioning.min_bs_density", None),
    ("mbsplan.dimensioning", "evaluate_qos", "qosmodel.evaluate_qos", _qos),
    ("mbsplan.pipeline", "evaluate_qos", "qosmodel.evaluate_qos", _qos),
    ("mbsplan.pipeline", "mc_delay_oracle", "qosmodel.mc_delay_oracle", _mc),
    ("mbsplan.pipeline", "optimal_plan", "allocation.optimal_plan", _plan),
    ("mbsplan.allocation", "build_allocation_lp", "allocation.build_allocation_lp", None),
    ("mbsplan.allocation", "solve_lp", "lpsolve.solve_lp", _lp),
    ("mbsplan.allocation", "canonicalize_schedule", "allocation.canonicalize_schedule", None),
    ("mbsplan.pipeline", "verify_plan", "allocation.verify_plan", None),
    ("mbsplan.pipeline", "savings", "allocation.savings", None),
)


class Tracer:
    """Installs the wrappers around one operation and keeps every span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._local = threading.local()
        self._saved: list = []
        self._root: Span | None = None
        self._op = -1
        self._ids = itertools.count(1)  # next() is atomic, unlike += 1

    def _open(self, name: str, parent: Span | None) -> Span:
        return Span(next(self._ids), name, parent.id if parent else None, self._op,
                    threading.get_ident(), time.perf_counter())

    def _wrap(self, fn, name, reader):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            # Pool workers start with an empty stack: their cause is the op.
            span = self._open(name, stack[-1] if stack else self._root)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if reader is not None:
                try:
                    span.counters = reader(args, kwargs, result)
                except Exception:  # the layer changed shape: keep running
                    self.absent.add(f"{name} counters")
            return result
        return traced

    def install(self, op: int) -> None:
        self._op = op
        self._root = self._open("op", None)
        for module_name, attr, name, reader in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, reader))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self._root.end = time.perf_counter()
        self.spans.append(self._root)
        self._root = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "op": s.op, "thread": s.thread, "start": s.start,
                                     "end": s.end, "counters": s.counters}) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part covered by direct children on its thread."""
    covered = sum(c.duration for c in children if c.thread == span.thread)
    return span.duration - covered


def op_layers(spans: list[Span], wall_s: float, cpu_s: float) -> dict:
    """Per-layer figures of one traced operation."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def count(name, key):
        return sum(s.counters.get(key, 0) for s in named(name))

    def mean(name, key):
        values = [s.counters[key] for s in named(name) if key in s.counters]
        return statistics.fmean(values) if values else 0.0

    def self_total(name):
        return sum(self_time(s, children.get(s.id, [])) for s in named(name))

    def under(span, ancestor_name):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == ancestor_name:
                return True
            parent = by_id.get(parent.parent)
        return False

    qos = named("qosmodel.evaluate_qos")
    mc_time = total("qosmodel.mc_delay_oracle")
    distinct = count("dimensioning.demand_matrix", "distinct_loads")
    probes = sum(1 for s in qos if under(s, "dimensioning.demand_matrix"))
    point_spans = [s for n in ("allocation.optimal_plan", "allocation.verify_plan",
                               "allocation.savings") for s in named(n)]
    sweeping = bool(named("pipeline.sweep_cost_ratio")) and bool(point_spans)
    busy = sum(s.duration for s in point_spans) if sweeping else 0.0
    span_of_points = (max(s.end for s in point_spans) - min(s.start for s in point_spans)
                      if sweeping else 0.0)
    return {
        "qosmodel.evaluate_qos.calls": len(qos),
        "qosmodel.evaluate_qos.time_s": total("qosmodel.evaluate_qos"),
        "qosmodel.fixed_point_iterations": count("qosmodel.evaluate_qos",
                                                 "fixed_point_iterations"),
        "qosmodel.not_converged": count("qosmodel.evaluate_qos", "not_converged"),
        "qosmodel.mc_delay_oracle.time_s": mc_time,
        "qosmodel.mc_trials_per_s": (count("qosmodel.mc_delay_oracle", "trials") / mc_time
                                     if mc_time > 0.0 else 0.0),
        "dimensioning.demand_matrix.time_s": total("dimensioning.demand_matrix"),
        "dimensioning.demand_matrix.self_s": self_total("dimensioning.demand_matrix"),
        "dimensioning.cells": count("dimensioning.demand_matrix", "cells"),
        "dimensioning.distinct_loads": distinct,
        "dimensioning.probes_per_distinct_load": probes / distinct if distinct else 0.0,
        "dimensioning.min_bs_density.calls": len(named("dimensioning.min_bs_density")),
        "dimensioning.min_bs_density.time_s": total("dimensioning.min_bs_density"),
        "allocation.optimal_plan.time_s": total("allocation.optimal_plan"),
        "allocation.build_allocation_lp.time_s": total("allocation.build_allocation_lp"),
        "lpsolve.solve_lp.time_s": total("lpsolve.solve_lp"),
        "lpsolve.rows": mean("lpsolve.solve_lp", "rows"),
        "lpsolve.cols": mean("lpsolve.solve_lp", "cols"),
        "lpsolve.nonzeros": mean("lpsolve.solve_lp", "nonzeros"),
        "allocation.binding_slots": mean("allocation.optimal_plan", "binding_slots"),
        "allocation.canonicalize_schedule.time_s": total("allocation.canonicalize_schedule"),
        "allocation.verify_plan.time_s": total("allocation.verify_plan"),
        "allocation.savings.time_s": total("allocation.savings"),
        "scenario.load_s": total("scenario.load"),
        "scenario.user_density_matrix.time_s": total("scenario.user_density_matrix"),
        "pipeline.run_pipeline.self_s": self_total("pipeline.run_pipeline"),
        "pipeline.sweep.points": len(named("allocation.optimal_plan")) if sweeping else 0,
        "pipeline.sweep.busy_s": busy,
        "pipeline.sweep.concurrency": busy / span_of_points if span_of_points > 0 else 0.0,
        "op.wall_s": wall_s,
        "op.cpu_s": cpu_s,
    }
