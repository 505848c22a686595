"""Pose-error scoring and statistical aggregation.

The per-image score is the sum of the normalized position error and the
quaternion geodesic error in radians; the dataset-level figure ``E`` is the
mean of per-image scores. Attitude errors are kept in radians internally and
converted to degrees only for display fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, _norm, _quat, _vec3

_UNIT_INPUT_TOL = 1e-6


@dataclass(frozen=True)
class ImageScore:
    """Errors of one estimated pose against ground truth."""

    e_t: float  # metres
    e_t_normalized: float  # e_t / |t_gt|
    e_q: float  # radians, in [0, pi]

    def __post_init__(self):
        if self.e_t < 0 or self.e_t_normalized < 0:
            raise ValueError("position errors must be non-negative")
        if not 0.0 <= self.e_q <= np.pi + 1e-12:
            raise ValueError(f"e_q must lie in [0, pi], got {self.e_q}")

    @property
    def score(self) -> float:
        """Per-image contribution to E: normalized position + attitude error."""
        return self.e_t_normalized + self.e_q


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    median: float


@dataclass(frozen=True)
class AggregateReport:
    """Dataset-level statistics in the mean +/- std reporting style."""

    n: int
    e_t_m: MetricStats
    e_t_norm: MetricStats
    e_q_rad: MetricStats
    e_q_deg: MetricStats
    score: MetricStats

    @property
    def e(self) -> float:
        """Dataset pose error E = mean per-image score."""
        return self.score.mean


def position_error(t_gt, t_est) -> tuple[float, float]:
    """Euclidean position error and its value normalized by |t_gt|."""
    return _position_error(_vec3(t_gt, "t_gt"), _vec3(t_est, "t_est"))


def _position_error(gt: np.ndarray, est: np.ndarray) -> tuple[float, float]:
    """:func:`position_error` of checked (3,) arrays."""
    gt_norm = _norm(gt)
    if gt_norm <= 0:
        raise ValueError("ground-truth position has zero norm")
    e_t = float(_norm(gt - est))
    return e_t, e_t / gt_norm


def attitude_error(q_gt, q_est) -> float:
    """Geodesic attitude error 2*arccos(|<q_gt, q_est>|), in [0, pi].

    Invariant under the quaternion double cover (q and -q score alike).
    Inner products within 1e-12 of 1 count as a perfect match: it keeps the
    double-cover identity exactly zero, and below that band the arccos form
    has no resolution left anyway (its slope diverges at 1).
    """
    gt = _quat(q_gt, "q_gt")
    est = _quat(q_est, "q_est")
    for name, q in (("q_gt", gt), ("q_est", est)):
        if abs(_norm(q) - 1.0) > _UNIT_INPUT_TOL:
            raise ValueError(f"{name} must be unit norm, |q|={_norm(q):.9g}")
    return _attitude_error(gt, est)


def _attitude_error(gt: np.ndarray, est: np.ndarray) -> float:
    """:func:`attitude_error` of checked unit (4,) arrays."""
    dot = abs(float(gt.dot(est)))
    if dot >= 1.0 - 1e-12:
        return 0.0
    return 2.0 * np.arccos(dot)


def image_score(gt: Pose, est: Pose) -> ImageScore:
    """Score one estimate against ground truth.

    A Pose's position and attitude are checked on construction, its attitude
    unit, so they are scored as they stand.
    """
    e_t, e_t_norm = _position_error(gt.position, est.position)
    e_q = _attitude_error(gt.attitude, est.attitude)
    return ImageScore(e_t=e_t, e_t_normalized=e_t_norm, e_q=e_q)


def _stats(values: np.ndarray) -> MetricStats:
    # constant lists get exact (v, 0, v); summation rounding must not leak in
    if values.size == 1 or np.all(values == values[0]):
        v = float(values[0])
        return MetricStats(mean=v, std=0.0, median=v)
    # sample (N-1) standard deviation for the "mean +/- std" columns
    return MetricStats(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)),
        median=float(np.median(values)),
    )


def aggregate(scores) -> AggregateReport:
    """Mean / sample-std / median per metric over per-image scores.

    The result does not depend on the order of ``scores``, to the bit.
    """
    scores = list(scores)
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    # sorted, so every sum adds in one order
    e_t = np.sort([s.e_t for s in scores])
    e_t_norm = np.sort([s.e_t_normalized for s in scores])
    e_q = np.sort([s.e_q for s in scores])
    total = np.sort([s.score for s in scores])
    return AggregateReport(
        n=len(scores),
        e_t_m=_stats(e_t),
        e_t_norm=_stats(e_t_norm),
        e_q_rad=_stats(e_q),
        e_q_deg=_stats(np.degrees(e_q)),
        score=_stats(total),
    )
