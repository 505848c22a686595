"""End-to-end orchestration: labels, landmark providers, pipeline, reports.

The pipeline mirrors the three-stage structure of the estimator it harnesses:
detection geometry (ROI from a bounding box), landmark regression (delegated
to a pluggable provider returning ROI-normalized coordinates), and pose
solving: RANSAC over P3P hypotheses (all points first, then minimal
samples) picks the consensus set and a starting pose, and LM refinement is
the one fit over all of those inliers. A noise-model provider stands in for
the regression network so the geometric stages can be driven and measured
without any learned components. One :func:`write_report` writes every report
file, a run's payload or a merged list of them, as JSON or CSV.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BehindCameraError,
    InsufficientLandmarksError,
    ManifestError,
    NoScoredRecordsError,
    SatposeError,
)
from .geometry import (
    CameraIntrinsics,
    WireframeModel,
    camera_pixels,
    clamp_box,
    denormalize_landmarks,
    normalize_landmarks,
    whole_number,
)

# not called here: bench/tracing.py wraps this name as the geometry.project layer
from .geometry import project  # noqa: F401
from .manifest import Manifest, SampleRecord, read_json, write_json
from .metrics import AggregateReport, ImageScore, aggregate, image_score
from .pnp import Correspondence, RansacConfig, lm_refine, ransac_pnp
from .rng import MAX_SEED, derive_seed, stream
from .roi import BBox, RoiConfig, make_roi


@dataclass(frozen=True)
class NoiseModel:
    """Synthetic landmark corruption standing in for a regression network.

    Per landmark, independently: with ``dropout_rate`` the point is dropped;
    otherwise with ``outlier_rate`` it is replaced by a uniform draw over the
    ground-truth box; otherwise it gets isotropic Gaussian pixel noise.
    Draws are keyed by (seed, record id), so corruption is reproducible per
    record regardless of processing order, and the outlier/dropout pattern
    does not change when only ``sigma_px`` does.
    """

    sigma_px: float = 0.0
    outlier_rate: float = 0.0
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # each guard states what is valid, so a NaN setting fails it
        if not 0.0 <= self.sigma_px < math.inf:
            raise ValueError("sigma_px must be finite and >= 0")
        for name in ("outlier_rate", "dropout_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", 0, MAX_SEED))


@dataclass(frozen=True)
class TimingReport:
    """Per-stage wall time; fps excludes manifest loading by construction."""

    detection_ms: float
    landmarks_ms: float
    ransac_ms: float
    refine_ms: float
    total_s: float
    n: int

    @property
    def pnp_ms(self) -> float:
        """Whole pose-solve stage: RANSAC plus LM refinement."""
        return self.ransac_ms + self.refine_ms

    @property
    def fps(self) -> float:
        return self.n / self.total_s if self.total_s > 0 else float("inf")


@dataclass
class PipelineRun:
    """Everything one pipeline pass produced."""

    scores: list[ImageScore]
    scored_ids: list[str]
    failures: list[tuple[str, str]]  # (record id, reason)
    report: AggregateReport
    timing: TimingReport
    predicted: Manifest | None = None  # provider outputs written back, if requested


def generate_labels(
    manifest: Manifest, wireframe: WireframeModel
) -> tuple[Manifest, list[tuple[str, str]]]:
    """Derive ground-truth landmark pixels and bounding boxes from poses.

    Poses are projected with the manifest's camera. Records whose pose
    projects behind the camera or fully out of frame are collected as
    ``(record id, reason)`` rejects, the shape of
    :attr:`PipelineRun.failures`; the run continues with the rest.

    All records are projected in one stacked pass: one transform and one
    :func:`~satpose.geometry.camera_pixels` call over ``(N, K)`` points. Each
    record's landmarks, box and reject reason have the bits and text of
    :func:`project` followed by :func:`clamp_box` of its landmarks' extents,
    on that record alone.
    """
    cam = manifest.camera
    n = len(manifest.records)
    rot = np.array([r.pose_gt.rotation_matrix() for r in manifest.records]).reshape(n, 3, 3)
    position = np.array([r.pose_gt.position for r in manifest.records]).reshape(n, 1, 3)
    cam_pts = wireframe.keypoints @ rot.transpose(0, 2, 1) + position  # (N, K, 3)
    landmarks, front = camera_pixels(cam_pts, cam)
    lows, highs = landmarks.min(axis=1).tolist(), landmarks.max(axis=1).tolist()
    labeled: list[SampleRecord] = []
    rejects: list[tuple[str, str]] = []
    for i, (record, low, high, kept) in enumerate(
        zip(manifest.records, lows, highs, front.all(axis=1).tolist())
    ):
        try:
            if not kept:
                first = int(front[i].argmin())
                raise BehindCameraError(first, float(cam_pts[i, first, 2]))
            bbox = clamp_box(*low, *high, cam)
        except SatposeError as exc:
            rejects.append((record.id, str(exc)))
            continue
        # every field, named here rather than through dataclasses.replace, which costs twice as much
        labeled.append(
            SampleRecord(
                id=record.id,
                pose_gt=record.pose_gt,
                bbox_gt=bbox,
                landmarks_gt=landmarks[i],
                landmarks_pred=record.landmarks_pred,
                bbox_pred=record.bbox_pred,
            )
        )
    return (
        Manifest(camera=cam, records=labeled, wireframe=manifest.wireframe),
        rejects,
    )


def _oracle_pixels(record: SampleRecord, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Corrupted landmark pixels (K, 2) of a record and the mask (K,) of kept ones.

    Dropped rows hold their noisy pixel, which no caller reads. Each landmark
    draws, in order, its dropout and outlier uniforms, two unit normals and
    the outlier's two box uniforms. A landmark's box pair and the next
    landmark's decision pair are one call's four uniforms, the values of two
    two-value calls.
    """
    if record.landmarks_gt is None:
        raise ManifestError(f"record {record.id!r} has no ground-truth landmarks")
    if record.bbox_gt is None:
        raise ManifestError(f"record {record.id!r} has no ground-truth bounding box")
    rng = stream(noise.seed, "oracle", record.id)
    points = np.asarray(record.landmarks_gt)
    k = len(points)
    # per landmark: u_drop, u_out, then the box uniforms; 2 spare draws at the end
    uniform = np.empty(4 * k + 2)
    gauss = np.empty((k, 2))
    rng.random(out=uniform[:2])
    for i in range(k):
        gauss[i] = rng.normal(0.0, 1.0, size=2)
        rng.random(out=uniform[4 * i + 2 : 4 * i + 6])
    uniform = uniform[: 4 * k].reshape(k, 4)
    box = record.bbox_gt
    outlier = uniform[:, 1] < noise.outlier_rate
    pixels = np.where(
        outlier[:, None],
        np.array([box.xmin, box.ymin]) + uniform[:, 2:] * np.array([box.width, box.height]),
        points + noise.sigma_px * gauss,
    )
    return pixels, ~(uniform[:, 0] < noise.dropout_rate)


class OracleProvider:
    """Landmark provider: corrupted ground-truth landmarks, normalised to the ROI.

    Per landmark, independently: dropped (``None``) with ``dropout_rate``;
    otherwise with ``outlier_rate`` a uniform point over the ground-truth
    box; otherwise the point plus ``sigma_px`` times two unit normals. Every
    landmark consumes the same draws whatever its fate, so changing
    ``sigma_px`` alone never changes which points are outliers or dropped.
    """

    def __init__(self, noise: NoiseModel):
        self.noise = noise

    def landmarks(self, record: SampleRecord, roi: BBox) -> list[np.ndarray | None]:
        pixels, kept = _oracle_pixels(record, self.noise)
        # one array call: normalising works element by element, so each row has the per-point bits
        rows = iter(normalize_landmarks(pixels[kept], roi))
        return [next(rows) if keep else None for keep in kept.tolist()]


class FileProvider:
    """Landmark provider reading ``pred_landmarks`` already in the manifest."""

    def landmarks(self, record: SampleRecord, roi: BBox) -> list[np.ndarray | None]:
        if record.landmarks_pred is None:
            raise ManifestError(f"record {record.id!r} has no pred_landmarks")
        return record.landmarks_pred


@contextlib.contextmanager
def _timed(stage_ms: dict, stage: str):
    """Add the block's wall time to ``stage_ms[stage]``, also when it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stage_ms[stage] += 1e3 * (time.perf_counter() - start)


def _solve_record(
    record: SampleRecord,
    provider,
    wireframe: WireframeModel,
    cam: CameraIntrinsics,
    roi_cfg: RoiConfig,
    ransac_cfg: RansacConfig,
    stage_ms: dict,
    predictions: dict | None = None,
) -> ImageScore:
    """Score one record; each stage's time is booked when it ends or raises.

    ``predictions`` gets the provider's output once the landmark checks pass,
    so a record that fails in RANSAC or LM keeps it.
    """
    with _timed(stage_ms, "detection_ms"):
        detected = record.bbox_pred if record.bbox_pred is not None else record.bbox_gt
        if detected is None:
            raise ManifestError(f"record {record.id!r} has no bounding box")
        try:
            roi = make_roi(detected, roi_cfg, cam)
        except ValueError as exc:  # zero-area box, or one that misses the image
            raise ManifestError(f"record {record.id!r}: unusable bounding box: {exc}") from exc

    with _timed(stage_ms, "landmarks_ms"):
        normalized = provider.landmarks(record, roi)
        if len(normalized) != wireframe.count:
            raise ManifestError(
                f"record {record.id!r}: provider returned {len(normalized)} landmarks, "
                f"wireframe has {wireframe.count}"
            )
        kept = [k for k, p in enumerate(normalized) if p is not None]
        # one array call, element by element as per point; a malformed point fails the reshape
        pixels = denormalize_landmarks(
            np.array([normalized[k] for k in kept], dtype=float).reshape(len(kept), 2), roi
        )
        bad = np.nonzero(~np.isfinite(pixels).all(axis=1))[0]
        if bad.size:
            raise ManifestError(
                f"record {record.id!r}: provider landmark {kept[bad[0]]} is not finite"
            )
        correspondences = [
            Correspondence(image=pixel, world=wireframe.keypoints[k], id=k)
            for k, pixel in zip(kept, pixels)
        ]
    if predictions is not None:
        predictions[record.id] = normalized

    with _timed(stage_ms, "ransac_ms"):
        if len(correspondences) < ransac_cfg.min_sample:
            raise InsufficientLandmarksError(
                f"record {record.id!r}: only {len(correspondences)} usable landmarks, "
                f"RANSAC needs {ransac_cfg.min_sample}"
            )
        record_cfg = replace(ransac_cfg, seed=derive_seed(ransac_cfg.seed, record.id))
        result = ransac_pnp(correspondences, cam, record_cfg)

    with _timed(stage_ms, "refine_ms"):
        inliers = [c for c, keep in zip(correspondences, result.inlier_mask) if keep]
        refined = lm_refine(result.pose, inliers, cam)
    return image_score(record.pose_gt, refined)


def run_pipeline(
    manifest: Manifest,
    provider,
    wireframe: WireframeModel,
    roi_cfg: RoiConfig | None = None,
    ransac_cfg: RansacConfig | None = None,
    record_predictions: bool = False,
) -> PipelineRun:
    """Score every record: ROI -> provider landmarks -> RANSAC P3P -> LM.

    ROIs fit the manifest camera's image. Per-record satpose failures
    (:class:`SatposeError`) become failure entries and are excluded from the
    aggregate; scored + failed always equals the manifest size, and a run
    with no scored record raises :class:`NoScoredRecordsError`. Any other
    exception, from a provider, numpy or a bug, propagates. With
    ``record_predictions`` the provider outputs, of failed records too, are
    written back into a copy of the manifest, which a :class:`FileProvider`
    rerun reproduces exactly.
    """
    if not manifest.records:
        raise ValueError("manifest has no records")
    cam = manifest.camera
    roi_cfg = roi_cfg or RoiConfig()
    ransac_cfg = ransac_cfg or RansacConfig()

    scores: list[ImageScore] = []
    scored_ids: list[str] = []
    failures: list[tuple[str, str]] = []
    predictions: dict | None = {} if record_predictions else None
    stage_ms = dict.fromkeys(("detection_ms", "landmarks_ms", "ransac_ms", "refine_ms"), 0.0)

    start = time.perf_counter()
    for record in manifest.records:
        try:
            score = _solve_record(
                record, provider, wireframe, cam, roi_cfg, ransac_cfg, stage_ms, predictions
            )
        except SatposeError as exc:
            failures.append((record.id, str(exc)))
            continue
        scores.append(score)
        scored_ids.append(record.id)
    total_s = time.perf_counter() - start

    if not scores:
        raise NoScoredRecordsError(
            f"no record could be scored ({len(failures)} failures); "
            f"first: {failures[0][1] if failures else 'n/a'}"
        )
    timing = TimingReport(**stage_ms, total_s=total_s, n=len(manifest.records))
    predicted = None
    if predictions is not None:
        records = [
            replace(r, landmarks_pred=predictions.get(r.id, r.landmarks_pred))
            for r in manifest.records
        ]
        predicted = Manifest(camera=cam, records=records, wireframe=manifest.wireframe)
    return PipelineRun(
        scores=scores,
        scored_ids=scored_ids,
        failures=failures,
        report=aggregate(scores),
        timing=timing,
        predicted=predicted,
    )


# report_payload's keys: REPORT_KEYS always, TIMING_KEYS only when timed
_STAT_FIELDS = ("e_t_m", "e_t_norm", "e_q_deg")
_STATS = ("mean", "std", "median")
REPORT_KEYS = ("n", "failures", "E") + tuple(f"{f}_{s}" for f in _STAT_FIELDS for s in _STATS)
TIMING_KEYS = ("fps", "detection_ms", "landmarks_ms", "pnp_ms", "ransac_ms", "refine_ms")
_COUNT_KEYS = {"n": 1, "failures": 0}  # report counts and their least values


def report_payload(
    report: AggregateReport,
    failures: int = 0,
    timing: TimingReport | None = None,
) -> dict:
    """Flat metric dictionary that :func:`write_report` writes as JSON or CSV.

    Attitude columns are degrees, position columns metres; timing fields are
    only present when a timing report is supplied (wall time is not seeded,
    so deterministic reports must omit it).
    """
    payload = {"n": report.n, "failures": failures, "E": report.e}
    for field in _STAT_FIELDS:
        payload.update({f"{field}_{s}": getattr(getattr(report, field), s) for s in _STATS})
    if timing is not None:
        payload.update({key: getattr(timing, key) for key in TIMING_KEYS})
    return payload


def load_report(path) -> dict:
    """The :func:`report_payload` in the file at ``path``; raises :class:`ManifestError`."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ManifestError(f"{path}: expected a report object")
    missing = [key for key in REPORT_KEYS if key not in data]
    unknown = sorted(set(data) - set(REPORT_KEYS) - set(TIMING_KEYS))
    if missing or unknown:
        raise ManifestError(f"{path}: not a satpose report (missing {missing}, unknown {unknown})")
    for key, value in data.items():
        # untimed values are finite; fps is inf when no wall time elapsed
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ManifestError(f"{path}: {key} must be a number, got {value!r}")
        if key in REPORT_KEYS and not math.isfinite(value):
            raise ManifestError(f"{path}: {key} must be finite, got {value!r}")
    for key, least in _COUNT_KEYS.items():  # a report counts at least one record
        try:
            whole_number(data[key], key, least)
        except ValueError as exc:
            raise ManifestError(f"{path}: {exc}") from exc
    return data


def write_report(payload, fmt: str, path) -> None:
    """Write a :func:`report_payload`, or a list of them, as JSON or CSV.

    JSON writes ``payload`` as given, indented with sorted keys. CSV writes one
    row per payload, columns in first-seen order; cells use repr so values
    match the JSON.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    if fmt == "json":
        write_json(payload, path, indent=1, sort_keys=True)
        return
    payloads = [payload] if isinstance(payload, dict) else payload
    columns: list[str] = []
    for row in payloads:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in payloads:
            writer.writerow([repr(row[c]) if c in row else "" for c in columns])
