"""RANSAC over P3P hypotheses.

Every hypothesis comes from one stacked kernel,
:func:`satpose.pnp.p3p.p3p_hypotheses`: P3P on a point set's first three
points, the root that best fits all of its points, then one Gauss-Newton
step over them. The first hypothesis is that kernel over all n
correspondences. When all n points are its inliers the loop ends there, so
clean data stops after one solve. Otherwise the standard adaptive stopping
rule asks for its full count of random minimal samples on top of it: the
all-point hypothesis is not a random draw, so it does not count toward that
number and the confidence bound keeps its meaning. ``iterations_used``
counts every hypothesis scored, the all-point one included, and
``max_iterations`` caps that count.

Minimal samples are drawn without replacement from a seeded Philox stream,
which is built when the first one is drawn, so clean data builds none. They
are solved in chunks of up to 16 by one stacked call of the kernel and
scored together by per-point reprojection error. Until some hypothesis
reaches consensus, a chunk holds no more samples than the stopping rule
asks for with two outliers among the n points (11 at n = 11), so that fewer
rows past the stop are solved; each row's result does not depend on its
chunk, so the chunk size changes no result. Results are taken in order,
all-point hypothesis first, then draw order; a later hypothesis replaces
the best only with more inliers, or as many at a lower inlier RMS, so a row
with fewer inliers than the best so far is passed over before its mask and
RMS are formed. Hypotheses drawn past the stop are discarded and not
counted. The returned pose is the winning hypothesis itself; the one fit
over all of its inliers is left to the nonlinear refinement that follows
(:func:`satpose.pnp.refine.lm_refine`), as in the gold-standard scheme of
linear start plus reprojection-error minimisation. Identical seed and
inputs reproduce the identical result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConsensusFailureError
from ..geometry import CameraIntrinsics, Pose, quat_from_matrix, whole_number
from ..rng import MAX_SEED, stream
from .epnp import point_errors, split_correspondences
from .p3p import p3p_hypotheses

# not called here: bench/tracing.py wraps this name as the pnp.epnp layer
from .epnp import epnp  # noqa: F401

_CHUNK = 16  # minimal samples per stacked P3P call


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 1000
    inlier_threshold: float = 5.0  # pixels, per-point reprojection error
    confidence: float = 0.99
    min_sample: int = 5
    seed: int = 0

    def __post_init__(self):
        # PnP needs 4 points; per-record seeds from derive_seed span [0, MAX_SEED]
        for name, lo, hi in (("max_iterations", 1, np.inf), ("min_sample", 4, np.inf),
                             ("seed", 0, MAX_SEED)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, lo, hi))
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if not self.inlier_threshold > 0:
            raise ValueError("inlier_threshold must be positive")


@dataclass(frozen=True)
class PnPResult:
    pose: Pose  # winning hypothesis, to be refined over the mask
    inlier_mask: np.ndarray  # bool, aligned with the input correspondences
    rms_reprojection: float  # pixels, over inliers only
    iterations_used: int


def _required_iterations(inlier_ratio: float, sample_size: int, confidence: float, cap: int) -> int:
    """Iterations for a confidence-level chance of one all-inlier sample."""
    if inlier_ratio <= 0.0:
        return cap
    p_good = inlier_ratio**sample_size
    if p_good >= 1.0:
        return 1
    denom = math.log1p(-p_good)
    if denom == 0.0:
        return cap
    return min(cap, int(math.ceil(math.log(1.0 - confidence) / denom)))


def ransac_pnp(correspondences, cam: CameraIntrinsics, cfg: RansacConfig) -> PnPResult:
    """Robust pose fit; raises :class:`ConsensusFailureError` without support.

    The returned pose is the best hypothesis (the all-point one or a minimal
    sample), to be refined over its consensus set, the mask;
    ``rms_reprojection`` is its RMS error over that mask.
    """
    corrs = list(correspondences)
    n = len(corrs)
    if n < cfg.min_sample:
        raise ValueError(f"need at least min_sample={cfg.min_sample} correspondences, got {n}")
    image, world = split_correspondences(corrs)

    rng = None  # built at the first random sample: a full all-point consensus draws none
    best_mask: np.ndarray | None = None
    best_rot = best_t = None
    best_count = 0
    best_rms = np.inf
    required = cfg.max_iterations  # hypotheses to score, the all-point one included
    iterations = 0

    while iterations < required:
        if not iterations:  # the all-point hypothesis comes first
            samples = np.arange(n)[None]
        else:
            if rng is None:
                rng = stream(cfg.seed, "ransac")
            chunk = min(_CHUNK, required - iterations)
            if best_mask is None:  # no consensus yet: the samples two outliers would need
                two_out = _required_iterations((n - 2) / n, cfg.min_sample, cfg.confidence, _CHUNK)
                chunk = min(chunk, two_out)
            samples = np.array(
                [rng.choice(n, size=cfg.min_sample, replace=False) for _ in range(chunk)]
            )
        # a row without a pose is NaN, so every one of its points scores inf
        rot, t = p3p_hypotheses(image[samples], world[samples], cam)
        errors = point_errors(rot, t, world, image, cam)
        counts = (errors < cfg.inlier_threshold).sum(axis=1)
        for h in range(len(samples)):
            if iterations >= required:
                break  # the stop came earlier in this chunk
            iterations += 1
            count = int(counts[h])
            if count < max(cfg.min_sample, best_count):
                continue  # it cannot replace the best
            mask = errors[h] < cfg.inlier_threshold
            inlier = errors[h, mask]
            rms = math.sqrt(float((inlier * inlier).sum()) / count)
            if count > best_count or rms < best_rms:  # more inliers, or as many at a lower RMS
                best_mask, best_count, best_rms = mask, count, rms
                best_rot, best_t = rot[h], t[h]
                # a full consensus ends the loop; otherwise the rule's count of
                # random samples comes on top of the all-point hypothesis
                required = 1 if count == n else 1 + _required_iterations(
                    count / n, cfg.min_sample, cfg.confidence, cfg.max_iterations - 1
                )

    if best_mask is None:
        raise ConsensusFailureError(
            f"no hypothesis reached {cfg.min_sample} inliers in {iterations} iterations"
        )

    return PnPResult(
        pose=Pose(position=best_t, attitude=quat_from_matrix(best_rot)),
        inlier_mask=best_mask,
        rms_reprojection=best_rms,
        iterations_used=iterations,
    )
