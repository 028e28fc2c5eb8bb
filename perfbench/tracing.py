"""Spans and counters recorded from outside `relviews`.

Each probe replaces one public name at the place where its callers look it
up (a module attribute or a class attribute), records one span per call
(name, start, end, parent span) or just counts calls, and puts the original
object back on restore. Spans stay in memory until the run writes them out.

A probe whose target no longer exists is listed in `Tracer.absent`; the run
goes on and the metrics of that layer read 0.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

_clock = time.perf_counter


@dataclass(frozen=True)
class Probe:
    module: str                  # e.g. "relviews.training"
    attr: str                    # attribute path under it, e.g. "TrainedModel.distances"
    span: str | Callable | None  # span name, or fn(args, kwargs) -> name; None counts only
    units: Callable | None = None    # fn(args, kwargs, result) -> units of work in the call
    after: Callable | None = None    # fn(tracer, result) -> None, for counters read off results


def _want_grad(args, kwargs) -> bool:
    return bool(kwargs.get("want_grad", args[2] if len(args) > 2 else True))


def _forward_name(args, kwargs) -> str:
    return "encoder.forward_grad" if _want_grad(args, kwargs) else "encoder.forward"


def _count_hed(tracer: "Tracer", result) -> None:
    fwd = np.asarray(result.forward_assignment)
    bwd = np.asarray(result.backward_assignment)
    tracer.hed_deletions += int((fwd == -1).sum() + (bwd == -1).sum())
    tracer.hed_entries += fwd.size + bwd.size


def _count_sinkhorn(tracer: "Tracer", result) -> None:
    tracer.sinkhorn.append((int(result.iterations), bool(result.converged)))


# Where each layer is entered. Names are patched where the caller looks them
# up: `training` imported build_dataset, hed_values_multi, update_proxies and
# proxy_anchor_loss by name, `explain` imported hed and the clique counter,
# while encoder.forward, autodiff.backward and proxies.sinkhorn are read off
# their own modules at call time.
PROBES = (
    Probe("relviews.synth", "generate", "synth.generate"),
    Probe("relviews.training", "build_dataset", "complementarity.build",
          units=lambda a, k, r: len(r)),
    Probe("relviews.encoder", "forward", _forward_name),
    Probe("relviews.autodiff", "backward", "autodiff.backward"),
    Probe("relviews.autodiff", "Var.__init__", None),   # tape nodes built
    Probe("relviews.training", "hed_values_multi", "hed.table"),
    Probe("relviews.training", "TrainedModel.distances", "training.distances"),
    Probe("relviews.training", "TrainedModel.save", "checkpoint.save"),
    Probe("relviews.training", "TrainedModel.load", "checkpoint.load"),
    Probe("relviews.training", "train", "training.train"),
    Probe("relviews.training", "evaluate", "training.evaluate"),
    Probe("relviews.training", "encode_dataset", "training.encode_dataset"),
    Probe("relviews.training", "Adam.step", "training.adam_step"),
    Probe("relviews.training", "update_proxies", "proxies.update"),
    Probe("relviews.training", "proxy_anchor_loss", "proxies.anchor_loss"),
    Probe("relviews.proxies", "sinkhorn", None, after=_count_sinkhorn),
    Probe("relviews.explain", "hed", "hed.pair", after=_count_hed),
    Probe("relviews.explain", "top_k_explanation", "explain.top_k"),
    Probe("relviews.explain", "fidelity", "explain.fidelity"),
    Probe("relviews.explain", "macs_at_k", "explain.macs"),
    Probe("relviews.explain", "count_k_cliques_with_global", "transitivity.clique_count"),
    Probe("relviews.graphs", "induced_subgraph", "graphs.induced_subgraph"),
)


def resolve(module: str, attr: str):
    """(owner, name, original) for a probe target, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    table = vars(owner)
    if name not in table:
        return None
    return owner, name, table[name]


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, original, replacement) -> None:
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(replacement)
        setattr(owner, name, replacement)
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _callable_of(original):
    return original.__func__ if isinstance(original, (classmethod, staticmethod)) else original


@contextmanager
def step_clock(marks: list[float]):
    """Stamp `marks` once per training step while the block runs.

    The trainer calls autodiff.backward exactly once per batch, so the gaps
    between consecutive stamps are whole step cycles: backward, Adam, proxy
    refresh, then the next batch's forward, distance table and loss. The
    probe costs one clock read per step and is removed on exit.
    """
    target = resolve("relviews.autodiff", "backward")
    if target is None:
        raise RuntimeError("relviews.autodiff.backward is gone: no per-step clock")
    owner, name, original = target
    patches = Patches()

    def stamped(*args, **kwargs):
        marks.append(_clock())
        return original(*args, **kwargs)

    patches.replace(owner, name, original, functools.wraps(original)(stamped))
    try:
        yield marks
    finally:
        patches.restore()


class Tracer:
    """In-memory span recorder fed by the probes in PROBES."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        # one row per span: [name, start, end, parent, units, vars_at_start]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.sinkhorn: list[tuple[int, bool]] = []
        self.hed_deletions = 0
        self.hed_entries = 0
        self._vars = [0]
        self._stack: list[int] = []
        self._patches = Patches()

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, 1, self._vars[0]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- probes --------------------------------------------------------------
    def _wrap(self, probe: Probe, fn):
        if probe.span is None and probe.after is None:
            box = self._vars

            def counted(*args, **kwargs):
                box[0] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        def traced(*args, **kwargs):
            idx = None
            if probe.span is not None:
                name = probe.span(args, kwargs) if callable(probe.span) else probe.span
                idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.close(idx)
            if idx is not None and probe.units is not None:
                self.spans[idx][4] = probe.units(args, kwargs, result)
            if probe.after is not None:
                probe.after(self, result)
            return result
        return functools.wraps(fn)(traced)

    def install(self) -> None:
        for probe in self.probes:
            target = resolve(probe.module, probe.attr)
            if target is None:
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            owner, name, original = target
            self._patches.replace(owner, name, original,
                                  self._wrap(probe, _callable_of(original)))

    def restore(self) -> None:
        self._patches.restore()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- analysis ------------------------------------------------------------
    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for idx, row in enumerate(self.spans):
            if row[3] >= 0:
                kids[row[3]].append(idx)
        return kids

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        dur = [row[2] - row[1] for row in self.spans]
        own = list(dur)
        for idx, row in enumerate(self.spans):
            if row[3] >= 0:
                own[row[3]] -= dur[idx]
        return own

    def records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": r[0], "start_s": r[1] - t0, "end_s": r[2] - t0,
                 "parent": r[3], "units": r[4]} for i, r in enumerate(self.spans)]
