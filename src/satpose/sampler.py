"""Random pose sampling.

Reproduces the synthetic-dataset pose distribution: range drawn from a
normal rejected outside hard bounds, lateral offsets scaled to the visible
extent at that range, and attitude exactly uniform over SO(3).

Each sampled field draws from its own Philox stream (see :mod:`satpose.rng`),
so streams can be split across workers and adding a field never perturbs the
sequences of the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, SamplingFailureError
from .geometry import CameraIntrinsics, Pose, WireframeModel, project, whole_number
from .rng import stream


@dataclass(frozen=True)
class PoseSamplerConfig:
    """Distance law, image-plane offset law, and in-frame rejection policy."""

    dist_mean: float = 36.0
    dist_sigma: float = 10.0
    dist_min: float = 36.0
    dist_max: float = 70.0
    offset_sigma_frac: float = 0.25  # fraction of the half-FOV extent at range
    in_frame_margin: float = 0.0  # pixels
    max_rejects: int = 10_000

    def __post_init__(self):
        # each guard states what is valid, so a NaN setting fails it
        if not self.dist_min <= self.dist_mean:
            raise ValueError("dist_min must not exceed dist_mean")
        if not self.dist_max > self.dist_min:
            raise ValueError("dist_max must exceed dist_min")
        if not self.dist_sigma >= 0:
            raise ValueError("dist_sigma must be >= 0")
        if not self.offset_sigma_frac >= 0:
            raise ValueError("offset_sigma_frac must be >= 0")
        if not np.isfinite(self.in_frame_margin):
            raise ValueError("in_frame_margin must be finite")
        object.__setattr__(self, "max_rejects", whole_number(self.max_rejects, "max_rejects", 1))


class SampleStreams:
    """Named per-field Philox streams for one sampling run."""

    def __init__(self, seed: int):
        self.distance = stream(seed, "distance")
        self.offset = stream(seed, "offset")
        self.attitude = stream(seed, "attitude")


def sample_distance(rng: np.random.Generator, cfg: PoseSamplerConfig) -> float:
    """One range draw: normal(dist_mean, dist_sigma) rejected outside bounds."""
    for _ in range(cfg.max_rejects):
        value = rng.normal(cfg.dist_mean, cfg.dist_sigma)
        if cfg.dist_min <= value <= cfg.dist_max:
            return float(value)
    raise SamplingFailureError(
        f"no distance in [{cfg.dist_min}, {cfg.dist_max}] after {cfg.max_rejects} draws"
    )


def sample_attitude(rng: np.random.Generator) -> np.ndarray:
    """Exactly uniform (Haar) rotation as a unit quaternion, shape (4,)."""
    return _shoemake(rng.random(3))


def sample_attitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Batch of n uniform rotations, shape (n, 4); row i equals the i-th single draw."""
    return _shoemake(rng.random((n, 3)))


def _shoemake(u: np.ndarray) -> np.ndarray:
    """Unit quaternions from uniforms ``u[..., :3]``.

    Subgroup-algorithm construction from three independent uniforms
    (Shoemake): a uniform point on S^3, which double-covers SO(3) uniformly.
    """
    r1, r2 = np.sqrt(1.0 - u[..., 0]), np.sqrt(u[..., 0])
    t1, t2 = 2.0 * np.pi * u[..., 1], 2.0 * np.pi * u[..., 2]
    q = np.empty(u.shape[:-1] + (4,))
    q[..., 0] = np.cos(t2) * r2
    q[..., 1] = np.sin(t1) * r1
    q[..., 2] = np.cos(t1) * r1
    q[..., 3] = np.sin(t2) * r2
    return q


def sample_pose(
    streams: SampleStreams,
    cfg: PoseSamplerConfig,
    cam: CameraIntrinsics,
    wireframe: WireframeModel,
) -> Pose:
    """Draw a pose whose projected keypoints all lie inside the image.

    The lateral offsets are zero-mean normals with sigma equal to
    ``offset_sigma_frac`` times the half-image extent at the drawn range;
    candidates are rejected until every keypoint projects inside the frame
    inset by ``in_frame_margin``.
    """
    lo = cfg.in_frame_margin
    hi_u = cam.width - cfg.in_frame_margin
    hi_v = cam.height - cfg.in_frame_margin
    for _ in range(cfg.max_rejects):
        z = sample_distance(streams.distance, cfg)
        half_x = z * (cam.width / 2.0) / cam.fx
        half_y = z * (cam.height / 2.0) / cam.fy
        tx = streams.offset.normal(0.0, cfg.offset_sigma_frac * half_x)
        ty = streams.offset.normal(0.0, cfg.offset_sigma_frac * half_y)
        q = sample_attitude(streams.attitude)
        pose = Pose(position=np.array([tx, ty, z]), attitude=q)
        try:
            uv = project(pose, cam, wireframe.keypoints)
        except BehindCameraError:
            continue
        # one min and one max over both columns, read as Python floats; a NaN fails every test
        (u_min, v_min), (u_max, v_max) = uv.min(axis=0).tolist(), uv.max(axis=0).tolist()
        if u_min >= lo and u_max <= hi_u and v_min >= lo and v_max <= hi_v:
            return pose
    raise SamplingFailureError(
        f"no fully in-frame pose after {cfg.max_rejects} attempts"
    )

