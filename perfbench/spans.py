"""In-memory span tracer that times archseg's layers from outside.

`installed(tracer)` replaces the module bindings the pipeline calls through
(for example `pipeline.simulate_votes`, `synthetic.farthest_point_sampling`,
`detection.hungarian_assign`) with wrappers that record a span per call:
name, start, end, parent span, model index and round, plus the counts the
binding's counter derives from its arguments and result. Nothing under
`src/` changes, and the originals are restored on exit. Spans stay in memory
until the run ends, when `layer_values` reduces them to per-scan numbers.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    model: int | None
    round: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._open: list[int] = []

    def wrap(self, fn, name, counter=None, model_of=None):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if model_of is not None:
                model = model_of(args)
            else:
                model = None if parent is None else self.spans[parent].model
            span = Span(name, time.perf_counter(), 0.0, parent, model, self.round)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths)


# (module, binding, span name, counter(args, result) -> counts).
# Each binding is the name the calling module looks up at call time, so the
# wrapper sees every call the pipeline makes through it.
BINDINGS = (
    ("cli", "main", "cli.main", None),
    ("pipeline", "_run_one", "pipeline.model", None),
    ("pipeline", "run_model", "pipeline.run_model", None),
    ("pipeline", "generate_model", "synthetic.generate_model", None),
    ("cli", "generate_model", "synthetic.generate_model", None),
    ("pipeline", "simulate_votes", "synthetic.simulate_votes",
     lambda a, r: {"votes": len(r)}),
    ("synthetic", "farthest_point_sampling", "geometry.fps",
     lambda a, r: {"dist_evals": a[0].size * (len(r) - 1)}),
    ("detection", "farthest_point_sampling", "geometry.fps",
     lambda a, r: {"dist_evals": a[0].size * (len(r) - 1)}),
    ("pipeline", "pregroup_votes", "detection.pregroup",
     lambda a, r: {"clusters": len(r)}),
    ("pipeline", "fit_bezier", "bezier.fit", None),
    ("pipeline", "refine_arch", "arch.refine", None),
    ("detection", "aps_cost_matrix", "detection.aps_cost", None),
    ("detection", "hungarian_assign", "assignment.hungarian",
     lambda a, r: {"cells": int(np.prod(np.shape(a[0])))}),
    ("segmentation", "hungarian_assign", "assignment.hungarian",
     lambda a, r: {"cells": int(np.prod(np.shape(a[0])))}),
    ("pipeline", "group_votes", "detection.group", None),
    ("pipeline", "make_proposals", "detection.proposals", None),
    ("pipeline", "nms", "detection.nms",
     lambda a, r: {"kept": len(r), "suppressed": len(a[0]) - len(r)}),
    ("pipeline", "assign_gt_confidence", "detection.eval", None),
    ("pipeline", "detection_metrics", "detection.eval", None),
    ("pipeline", "detection_loss", "detection.eval", None),
    ("pipeline", "crop_patch", "segmentation.crop", None),
    ("pipeline", "segment_patch", "segmentation.segment",
     lambda a, r: {"patches": 1, "degenerate": int(r.degenerate)}),
    ("pipeline", "fuse_patches", "segmentation.fuse", None),
    ("pipeline", "iou_dice", "segmentation.iou_dice", None),
    ("io", "save_model", "io.save_model",
     lambda a, r: {"bytes_written": _file_bytes(a[1], a[2])}),
    ("io", "load_model", "io.load_model",
     lambda a, r: {"bytes_read": _file_bytes(a[0], a[1])}),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every binding in BINDINGS for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counter in BINDINGS:
            module = importlib.import_module(f"archseg.{module_name}")
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            # _run_one receives (config, index, model, visible): the index
            # is the model index every span below it inherits.
            model_of = (lambda a: a[0][1]) if attr == "_run_one" else None
            setattr(module, attr, tracer.wrap(fn, name, counter, model_of))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# (metric, span name, field): field "ms" sums span durations, "self_ms" sums
# durations minus the time covered by direct child spans, "calls" counts
# spans, and any other field sums that count. Values are per scan.
LAYER_METRICS = (
    ("geometry.fps.ms", "geometry.fps", "ms"),
    ("geometry.fps.calls", "geometry.fps", "calls"),
    ("geometry.fps.dist_evals", "geometry.fps", "dist_evals"),
    ("synthetic.generate_model.ms", "synthetic.generate_model", "ms"),
    ("synthetic.simulate_votes.self_ms", "synthetic.simulate_votes", "self_ms"),
    ("synthetic.votes", "synthetic.simulate_votes", "votes"),
    ("detection.pregroup.ms", "detection.pregroup", "ms"),
    ("detection.pregroup.clusters", "detection.pregroup", "clusters"),
    ("bezier.fit.ms", "bezier.fit", "ms"),
    ("arch.refine.ms", "arch.refine", "ms"),
    ("detection.aps_cost.ms", "detection.aps_cost", "ms"),
    ("assignment.hungarian.ms", "assignment.hungarian", "ms"),
    ("assignment.hungarian.calls", "assignment.hungarian", "calls"),
    ("assignment.hungarian.cells", "assignment.hungarian", "cells"),
    ("detection.group.ms", "detection.group", "ms"),
    ("detection.proposals.ms", "detection.proposals", "ms"),
    ("detection.nms.ms", "detection.nms", "ms"),
    ("detection.nms.kept", "detection.nms", "kept"),
    ("detection.nms.suppressed", "detection.nms", "suppressed"),
    ("detection.eval.ms", "detection.eval", "ms"),
    ("segmentation.crop.ms", "segmentation.crop", "ms"),
    ("segmentation.segment.ms", "segmentation.segment", "ms"),
    ("segmentation.fuse.ms", "segmentation.fuse", "ms"),
    ("segmentation.iou_dice.ms", "segmentation.iou_dice", "ms"),
    ("segmentation.patches", "segmentation.segment", "patches"),
    ("segmentation.degenerate", "segmentation.segment", "degenerate"),
    ("io.save_model.ms", "io.save_model", "ms"),
    ("io.load_model.ms", "io.load_model", "ms"),
    ("io.bytes_written", "io.save_model", "bytes_written"),
    ("io.bytes_read", "io.load_model", "bytes_read"),
    ("pipeline.run_model.self_ms", "pipeline.run_model", "self_ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
)
TIME_FIELDS = ("ms", "self_ms")


def metric_unit(field_name: str) -> str:
    if field_name in TIME_FIELDS:
        return "ms"
    return "bytes" if field_name.startswith("bytes") else "count"


def layer_values(spans: list[Span], scans_per_round: dict[int, int]) -> dict[int, dict]:
    """Per round, each LAYER_METRICS value divided by the round's scans."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        acc = totals[(span.round, span.name)]
        duration = span.end - span.start
        acc["ms"] += 1e3 * duration
        acc["self_ms"] += 1e3 * (duration - child_time[i])
        acc["calls"] += 1
        for key, value in span.counts.items():
            acc[key] += value
    out = {}
    for rnd, scans in scans_per_round.items():
        out[rnd] = {
            metric: totals[(rnd, name)][field_name] / scans
            for metric, name, field_name in LAYER_METRICS
        }
    return out
