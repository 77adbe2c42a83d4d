"""In-memory span tracer for the traced run.

The tracer wraps selkern's layer functions from outside the library, at the
module attribute through which selkern's own callers resolve each one
(``from .kernels import median_heuristic`` in ``selkern.selective`` binds a
name there, so that is the attribute to replace).  A site whose module or
attribute no longer exists is recorded as absent instead of failing the run.

Spans carry a name, start, end, parent and operation id, plus work counts
computed from the call's arguments and result.  A span opened on a worker
thread that has no open span of its own is attached to the innermost span
open on the thread that started the operation.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    counts: dict = field(default_factory=dict)


def _pairs(a, result):
    m = np.asarray(a["pooled"]).shape[0]
    return {"pairs": m * (m - 1) // 2}


def _entries(a, result):
    return {"entries": np.atleast_2d(a["A"]).shape[0] * np.atleast_2d(a["B"]).shape[0]}


def _tuples(a, result):
    return {"tuples": len(result)}


def _statistic(a, result):
    return {"l": result.l, "d": result.dim}


def _scores(a, result):
    # Kept so traced operations can check the selection against every score.
    return {"scores": np.asarray(result.t, dtype=float)}


def _bootstrap(a, result):
    scales = a["scales"]
    per_call = len(scales.scales) * scales.replicates_per_scale * np.atleast_1d(a["mean"]).shape[0]
    return {"normals": per_call, "scales": len(scales.scales), "dropped": result[1]["scales_dropped"]}


def _fallbacks(a, result):
    diags = result.diagnostics
    return {"features": len(diags), "fallbacks": sum("fallback" in d for d in diags)}


def _threads(a, result):
    return {"threads": a["config"].threads}


def _cells(a, result):
    return {"cells": result[0].size}


def _doc_bytes(a, result):
    return {"bytes": len(result.encode("utf-8"))}


# (layer, module, attribute, counter).  A layer may have several sites when
# callers in different modules resolve the same function.
SITES = (
    ("kernels.median_heuristic", "selkern.selective", "median_heuristic", _pairs),
    ("kernels.gram_matrix", "selkern.hsic", "gram_matrix", _entries),
    ("designs.sample_pair_design", "selkern.designs", "sample_pair_design", _tuples),
    ("designs.sample_quad_design", "selkern.hsic", "sample_quad_design", _tuples),
    ("designs.block_design", "selkern.hsic", "block_design", _tuples),
    ("mmd.mmd_multistat", "selkern.selective", "mmd_multistat", _statistic),
    ("hsic.hsic_multistat_block", "selkern.selective", "hsic_multistat_block", _statistic),
    ("hsic.hsic_multistat_incomplete", "selkern.selective", "hsic_multistat_incomplete", _statistic),
    ("multiscale.fit_region_scaling", "selkern.selective", "fit_region_scaling", _bootstrap),
    ("multiscale.fit_scaling_law", "selkern.multiscale", "fit_scaling_law", None),
    ("selective.stat", "selkern.selective", "mmd_stat", _scores),
    ("selective.stat", "selkern.selective", "hsic_stat", _scores),
    ("selective.stat", "selkern.simulation", "mmd_stat", _scores),
    ("selective.stat", "selkern.simulation", "hsic_stat", _scores),
    ("selective.report", "selkern.selective", "_multiscale_report", _fallbacks),
    ("selective.report", "selkern.selective", "_poly_report", None),
    ("selective.poly_truncation_interval", "selkern.selective", "poly_truncation_interval", None),
    ("simulation.run_trials", "selkern.cli", "run_trials", _threads),
    ("simulation.gen_logistic", "selkern.simulation", "gen_logistic", None),
    ("cli.load_csv", "selkern.cli", "load_csv", _cells),
    ("cli.render_document", "selkern.cli", "render_document", _doc_bytes),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in SITES))
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = -1
        self._op_stack: list[Span] = []
        self.present: set[str] = set()
        self.missing_sites: set[str] = set()
        self.counter_errors: list[str] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A worker thread starts with an empty stack: attach to the
        # operation's thread, which waits on the worker inside its own span.
        outer = stack or self._op_stack
        span = Span(next(self._ids), name, outer[-1].id if outer else None, self._op,
                    time.perf_counter(), time.process_time())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack().pop()

    @contextmanager
    def operation(self):
        """Root span of one operation; layer spans inside it share its id."""
        self._op += 1
        self._op_stack = self._stack()
        span = self._open(OP)
        try:
            yield span
        finally:
            self._close(span)
            self._op_stack = []

    def _wrap(self, layer: str, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts.update(counter(bound.arguments, result))
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    self.counter_errors.append(f"{layer}: {exc!r}")
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every resolvable site with a traced wrapper, then restore."""
        saved = []
        try:
            for layer, modname, attr, counter in SITES:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing_sites.add(f"{modname}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn, counter))
                self.present.add(layer)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def last_scores(self) -> np.ndarray | None:
        """Score vector of the latest statistic, if that layer is present."""
        for s in reversed(self.spans):
            if "scores" in s.counts:
                return s.counts["scores"]
        return None

    def absent(self) -> list[str]:
        return [layer for layer in LAYERS if layer not in self.present]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children[s.id], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op, "start": s.start,
             "end": s.end, "cpu_s": s.cpu_end - s.cpu_start,
             "counts": {k: v for k, v in s.counts.items() if k != "scores"}}
            for s in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-operation per-layer metrics: self times and work counts averaged
    over the traced operations, ratios pooled over them."""
    spans = tracer.spans
    ops = max(1, len({s.op for s in spans if s.name == OP}))
    self_s = tracer.self_times()
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        return sum(self_s[s.id] for s in by_name[name]) / ops

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    design_tuples = defaultdict(int)
    for s in spans:
        if s.name.startswith("designs.") and s.parent is not None:
            design_tuples[s.parent] += s.counts.get("tuples", 0)
    hsic = by_name["hsic.hsic_multistat_block"] + by_name["hsic.hsic_multistat_incomplete"]
    h_terms = sum(design_tuples[s.id] * 24 * s.counts.get("d", 0) for s in hsic)
    sims = by_name["simulation.run_trials"]
    sim_cpu = sum(s.cpu_end - s.cpu_start for s in sims)
    sim_capacity = sum((s.end - s.start) * s.counts.get("threads", 1) for s in sims)
    op_spans = by_name[OP]
    m = {
        "kernels.median_heuristic.self_s": (busy("kernels.median_heuristic"), "s"),
        "kernels.median_heuristic.calls": (len(by_name["kernels.median_heuristic"]) / ops, "count"),
        "kernels.median_heuristic.pairs": (total("kernels.median_heuristic", "pairs") / ops, "count"),
        "kernels.gram_matrix.self_s": (busy("kernels.gram_matrix"), "s"),
        "kernels.gram_matrix.entries": (total("kernels.gram_matrix", "entries") / ops, "count"),
        "designs.sample_pair_design.self_s": (busy("designs.sample_pair_design"), "s"),
        "designs.sample_quad_design.self_s": (busy("designs.sample_quad_design"), "s"),
        "designs.block_design.self_s": (busy("designs.block_design"), "s"),
        "designs.tuples": (sum(design_tuples.values()) / ops, "count"),
        "mmd.mmd_multistat.self_s": (busy("mmd.mmd_multistat"), "s"),
        "mmd.h_evals": (sum(s.counts.get("l", 0) * s.counts.get("d", 0)
                            for s in by_name["mmd.mmd_multistat"]) / ops, "count"),
        "hsic.hsic_multistat_block.self_s": (busy("hsic.hsic_multistat_block"), "s"),
        "hsic.hsic_multistat_incomplete.self_s": (busy("hsic.hsic_multistat_incomplete"), "s"),
        "hsic.h_terms": (h_terms / ops, "count"),
        "multiscale.fit_region_scaling.self_s": (busy("multiscale.fit_region_scaling"), "s"),
        "multiscale.fit_region_scaling.calls": (len(by_name["multiscale.fit_region_scaling"]) / ops, "count"),
        "multiscale.normals_drawn": (total("multiscale.fit_region_scaling", "normals") / ops, "count"),
        "multiscale.fit_scaling_law.self_s": (busy("multiscale.fit_scaling_law"), "s"),
        "multiscale.scales_dropped_ratio": (_ratio(total("multiscale.fit_region_scaling", "dropped"),
                                                   total("multiscale.fit_region_scaling", "scales")), "ratio"),
        "multiscale.fallback_ratio": (_ratio(total("selective.report", "fallbacks"),
                                             total("selective.report", "features")), "ratio"),
        "selective.stat.self_s": (busy("selective.stat"), "s"),
        "selective.report.self_s": (busy("selective.report"), "s"),
        "selective.poly_truncation_interval.self_s": (busy("selective.poly_truncation_interval"), "s"),
        "selective.poly_truncation_interval.calls": (len(by_name["selective.poly_truncation_interval"]) / ops, "count"),
        "simulation.run_trials.self_s": (busy("simulation.run_trials"), "s"),
        "simulation.gen_logistic.self_s": (busy("simulation.gen_logistic"), "s"),
        "simulation.cpu_util": (_ratio(sim_cpu, sim_capacity), "ratio"),
        "cli.load_csv.self_s": (busy("cli.load_csv"), "s"),
        "cli.load_csv.cells": (total("cli.load_csv", "cells") / ops, "count"),
        "cli.render_document.self_s": (busy("cli.render_document"), "s"),
        "cli.doc_bytes": (total("cli.render_document", "bytes") / ops, "bytes"),
        "trace.op_wall_s": (sum(s.end - s.start for s in op_spans) / ops, "s"),
        "trace.unattributed_s": (busy(OP), "s"),
        "trace.self_sum_s": (sum(self_s.values()) / ops, "s"),
        "trace.absent_layers": (len(tracer.absent()), "count"),
    }
    return m
