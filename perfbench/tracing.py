"""Spans around repart's public functions, installed from outside the package.

Each wrapped function is replaced wherever a module of the package has
bound it, because modules import names into their own namespace and a
patch of the defining module alone would miss those callers. A span
holds a name, start, end, parent span and the index of the request it
belongs to; spans stay in memory and are written when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from array import array
from contextlib import contextmanager

import repart
from repart import configs, engine, graver, model, optimum, report, workloads

NONE = -1  # no parent span, or no request


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_ns = []
        self.counters = {}
        # span columns; a span's id is its row
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self._stack = []  # [span id, start ns, ns covered by children]
        self._patches = []
        self._seen = {}  # counter name -> set of argument keys already seen
        self.request = NONE
        self.serves = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def _enter(self, nid: int) -> None:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else NONE)
        self.span_request.append(self.request)
        self.span_end.append(0)
        start = time.perf_counter_ns()
        self.span_start.append(start)
        self._stack.append([sid, start, 0])

    def _exit(self, nid: int) -> None:
        end = time.perf_counter_ns()
        sid, start, covered = self._stack.pop()
        self.span_end[sid] = end
        duration = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def region(self, name: str):
        """A span around benchmark code, such as set-up."""
        nid = self.name_id(name)
        self._enter(nid)
        try:
            yield
        finally:
            self._exit(nid)

    def wrap(self, name: str, fn, on_call=None, role=None):
        """fn inside a span; role "serve" or "next" ties it to a request."""
        nid = self.name_id(name)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            outer = self.request
            if role is not None:
                self.request = self.serves
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(nid)
                if role == "serve":
                    self.serves += 1
                self.request = outer

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, name: str, module, attr: str, on_call=None) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repart" and not mod_name.startswith("repart."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def patch_method(self, name: str, cls, attr: str, on_call=None, role=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, on_call, role))
        self._patches.append((cls, attr, original))

    def patch_generators(self, name: str) -> None:
        """Wrap ``next`` of every generator a Workload hands out."""
        cls = repart.Workload
        original = cls.__dict__["make_generator"]

        def make_generator(workload):
            generator = original(workload)
            generator.next = self.wrap(name, generator.next, role="next")
            return generator

        setattr(cls, "make_generator", make_generator)
        self._patches.append((cls, "make_generator", original))

    def restore(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            setattr(namespace, key, original)

    def count(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def note_repeat(self, counter: str, key) -> None:
        """Count a call and whether its argument key was seen before."""
        seen = self._seen.setdefault(counter, set())
        self.count(counter + ".calls", 1)
        if key in seen:
            self.count(counter + ".repeats", 1)
        else:
            seen.add(key)

    def repeat_ratio(self, counter: str) -> float:
        calls = self.counters.get(counter + ".calls", 0)
        return self.counters.get(counter + ".repeats", 0) / calls if calls else 0.0

    def write_spans(self, path, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            columns = zip(
                self.span_name,
                self.span_start,
                self.span_end,
                self.span_parent,
                self.span_request,
            )
            for sid, (nid, start, end, parent, request) in enumerate(columns):
                name = self.names[nid]
                fh.write(f'[{sid},"{name}",{start},{end},{parent},{request}]\n')


def valid_mappings(k: int, l: int) -> int:
    """Number of labeled mappings with exactly k nodes in each of l clusters."""
    return math.factorial(k * l) // math.factorial(k) ** l


# Layers in request-path order: (metric prefix, owner, attribute). A
# module owner is patched wherever the package bound the function, a
# class owner on the class; no owner means the generators' ``next``.
LAYERS = (
    ("workloads.generate_workload", workloads, "generate_workload"),
    ("workloads.next", None, None),
    ("engine.Engine.serve", engine.Engine, "serve"),
    ("engine.feasibility_exists", engine, "feasibility_exists"),
    ("engine.graver_min_move", engine, "graver_min_move"),
    ("model.ComponentPartition.components", model.ComponentPartition, "components"),
    ("model.component_size_census", model, "component_size_census"),
    ("model.Mapping.is_valid", model.Mapping, "is_valid"),
    ("configs.demand_packable", configs, "demand_packable"),
    ("configs.build_state", configs, "build_state"),
    ("configs.solve_any_target", configs, "solve_any_target"),
    ("configs.is_valid_target", configs, "is_valid_target"),
    ("graver.graver_basis_for", graver, "graver_basis_for"),
    ("graver.compute_graver", graver, "compute_graver"),
    ("graver.max_subdeterminant", graver, "max_subdeterminant"),
    ("optimum.opt_cost", optimum, "opt_cost"),
    ("optimum.opt_per_phase_lower_bound", optimum, "opt_per_phase_lower_bound"),
    ("report.run_experiment", report, "run_experiment"),
    ("report.Report.to_json", report.Report, "to_json"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer function and attach the exact work counters."""

    def scanned(n):
        tracer.count("model.nodes_scanned", n)

    dist_shapes = set()

    def opt_work(instance, initial, requests):
        if instance.k == 1:  # answered without the dynamic program
            return
        states = valid_mappings(instance.k, instance.l)
        tracer.count("optimum.state_steps", states * len(requests))
        shape = (instance.k, instance.l)
        if shape not in dist_shapes:
            dist_shapes.add(shape)
            tracer.count("optimum.dist_bytes", states * states * 2)

    hooks = {
        "model.component_size_census": lambda partition, mapping: scanned(partition.n),
        "model.ComponentPartition.components": lambda partition: scanned(partition.n),
        "model.Mapping.is_valid": lambda mapping: scanned(mapping.instance.n),
        "configs.demand_packable": lambda u, k: tracer.note_repeat(
            "configs.demand_packable", (tuple(u), k)
        ),
        "graver.max_subdeterminant": lambda matrix, *rest, **kw: tracer.note_repeat(
            "graver.max_subdeterminant", matrix
        ),
        "optimum.opt_cost": opt_work,
    }
    for name, owner, attr in LAYERS:
        if owner is None:
            tracer.patch_generators(name)
        elif isinstance(owner, type):
            role = "serve" if attr == "serve" else None
            tracer.patch_method(name, owner, attr, hooks.get(name), role)
        else:
            tracer.patch_function(name, owner, attr, hooks.get(name))


def snapshot_entries(report_obj) -> int:
    """Node ids a report retains in its remap snapshots."""
    return sum(
        len(getattr(record, "mapping_before", ()))
        + sum(len(members) for members in getattr(record, "components", ()))
        for record in getattr(report_obj, "records", ())
    )
