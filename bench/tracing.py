"""Outside-in tracing of satpose's layers for the traced benchmark run.

The tracer never edits satpose itself. It swaps module-level names that
satpose code looks up at call time (``satpose.pipeline.ransac_pnp``,
``satpose.pnp.robust.epnp``, ...) for wrappers that record a span per call,
and puts the originals back when the ``instrument`` block ends. Spans stay in
memory as tuples until :meth:`Tracer.write_spans` writes them out.

A span's self time is its duration minus the durations of its direct
children; everything runs on one thread, so children nest inside parents.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

import satpose.manifest
import satpose.pipeline
import satpose.pnp.refine
import satpose.pnp.robust
import satpose.sampler

# the pnp package re-exports the function under the submodule's name
triangulation = importlib.import_module("satpose.pnp.triangulate")

# (module, attribute, span name). Spans are named after the layer whose code
# runs inside them; per-layer self time sums the spans of one name.
SPANNED = (
    (satpose.pipeline, "run_pipeline", "pipeline"),
    # one span per record, so every span of a record descends from it
    (satpose.pipeline, "_solve_record", "pipeline"),
    (satpose.pipeline, "generate_labels", "pipeline.labels"),
    (satpose.pipeline, "make_roi", "roi.make_roi"),
    (satpose.pipeline, "normalize_landmarks", "geometry.landmarks_norm"),
    (satpose.pipeline, "denormalize_landmarks", "geometry.landmarks_norm"),
    (satpose.pipeline, "project", "geometry.project"),
    (satpose.pipeline, "stream", "rng"),
    (satpose.pipeline, "derive_seed", "rng"),
    (satpose.pipeline, "image_score", "metrics"),
    (satpose.pipeline, "aggregate", "metrics"),
    (satpose.pipeline, "ransac_pnp", "pnp.robust"),
    (satpose.pipeline, "lm_refine", "pnp.refine"),
    (satpose.pnp.robust, "epnp", "pnp.epnp"),
    (satpose.pnp.robust, "stream", "rng"),
    (satpose.pnp.refine, "project", "geometry.project"),
    (satpose.sampler, "sample_pose", "sampler"),
    (satpose.sampler, "project", "geometry.project"),
    (satpose.sampler, "stream", "rng"),
    (satpose.manifest, "save_manifest", "manifest.save"),
    (satpose.manifest, "load_manifest", "manifest.load"),
    (satpose.manifest, "split_dataset", "manifest.split"),
    (satpose.manifest, "stream", "rng"),
    (triangulation, "triangulate", "pnp.triangulate"),
)

# Counted without a span, so their time stays in the caller's self time.
COUNTED = (
    (satpose.pnp.refine, "reprojection_jacobian", "pnp.refine.jacobian"),
    (satpose.sampler, "sample_attitude", "sampler.candidate"),
    (satpose.pipeline, "stream", "rng.stream"),
    (satpose.pnp.robust, "stream", "rng.stream"),
    (satpose.sampler, "stream", "rng.stream"),
    (satpose.manifest, "stream", "rng.stream"),
)

OBSERVE = "trace.observe"  # span around the tracer's own bookkeeping


def _rms_px(pose, correspondences, cam) -> float:
    """Reprojection RMS computed here, so no traced satpose name is called."""
    image = np.array([c.image for c in correspondences])
    world = np.array([c.world for c in correspondences])
    pts = world @ pose.rotation_matrix().T + pose.position
    u = cam.fx * pts[:, 0] / pts[:, 2] + cam.cx
    v = cam.fy * pts[:, 1] / pts[:, 2] + cam.cy
    return float(np.sqrt(np.mean((u - image[:, 0]) ** 2 + (v - image[:, 1]) ** 2)))


class Tracer:
    """In-memory spans, call counts and per-call observations."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, trace)
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self.trace = ""
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``, child of the open span."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id; filled when the span ends
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, self.trace)
            self.counts[name + ".calls"] += 1

    def spanned(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                self.call(OBSERVE, observe, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def traced_provider(self, provider):
        """Wrap a landmark provider's ``landmarks`` method (instance attribute)."""

        def observe(args, kwargs, result):
            self.counts["pipeline.landmarks_dropped"] += sum(p is None for p in result)

        provider.landmarks = self.spanned("pipeline.provider", provider.landmarks, observe)
        return provider

    def _observe_ransac(self, args, kwargs, result):
        cfg = args[2]
        self.values["pnp.robust.hypotheses"].append(result.iterations_used)
        self.counts["pnp.robust.capped"] += result.iterations_used >= cfg.max_iterations
        self.counts["pnp.robust.inliers"] += int(result.inlier_mask.sum())
        self.counts["pnp.robust.points"] += len(result.inlier_mask)

    def _observe_refine(self, args, kwargs, result):
        initial, correspondences, cam = args[0], args[1], args[2]
        self.values["pnp.refine.rms_before_px"].append(_rms_px(initial, correspondences, cam))
        self.values["pnp.refine.rms_after_px"].append(_rms_px(result, correspondences, cam))

    def _observe_triangulate(self, args, kwargs, result):
        self.counts["pnp.triangulate.views"] += len(args[0])

    @contextlib.contextmanager
    def instrument(self):
        """Swap every traced name for its wrapper; restore them on exit."""
        observers = {
            "pnp.robust": self._observe_ransac,
            "pnp.refine": self._observe_refine,
            "pnp.triangulate": self._observe_triangulate,
        }
        saved = []
        try:
            for module, attr, name in COUNTED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.counted(name, getattr(module, attr)))
            for module, attr, name in SPANNED:
                saved.append((module, attr, getattr(module, attr)))
                wrapper = self.spanned(name, getattr(module, attr), observers.get(name))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_ms(self, trace: str) -> dict[str, float]:
        """Self time per span name, in ms, over the spans of one trace."""
        child_s: defaultdict = defaultdict(float)
        own = [s for s in self.spans if s[5] == trace]
        for sid, parent, _, start, end, _ in own:
            if parent >= 0:
                child_s[parent] += end - start
        totals: defaultdict = defaultdict(float)
        for sid, _, name, start, end, _ in own:
            totals[name] += 1e3 * (end - start - child_s[sid])
        return dict(totals)

    def inclusive_ms(self, trace: str, name: str) -> float:
        return sum(1e3 * (s[4] - s[3]) for s in self.spans if s[5] == trace and s[2] == name)

    def snapshot(self) -> tuple[Counter, dict]:
        """Copy the counts and observations, then start both afresh."""
        counts, values = self.counts, dict(self.values)
        self.counts, self.values = Counter(), defaultdict(list)
        return counts, values

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, name, start_us, end_us, trace."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, trace in self.spans:
                start_us, end_us = round(1e6 * (start - t0), 3), round(1e6 * (end - t0), 3)
                fh.write(json.dumps([sid, parent, name, start_us, end_us, trace]) + "\n")
