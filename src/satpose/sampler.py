"""Random pose, articulation, and lighting-feasibility sampling.

Reproduces the synthetic-dataset pose distribution: range drawn from a
normal rejected outside hard bounds, lateral offsets scaled to the visible
extent at that range, attitude exactly uniform over SO(3), solar panels
rotated about their hinge to face the Sun, and a feasibility predicate for
the Sun/Earth/camera lighting geometry.

Each sampled field draws from its own Philox stream (see :mod:`satpose.rng`),
so streams can be split across workers and adding a field never perturbs the
sequences of the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, SamplingFailureError, UndefinedTrackingError
from .geometry import CameraIntrinsics, Pose, WireframeModel, _vec3, project, whole_number
from .rng import stream

_HINGE_ALIGNMENT_TOL = 1e-6  # radians


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
        if self.dist_min > self.dist_mean:
            raise ValueError("dist_min must not exceed dist_mean")
        if self.dist_max <= self.dist_min:
            raise ValueError("dist_max must exceed dist_min")
        if self.dist_sigma < 0:
            raise ValueError("dist_sigma must be >= 0")
        if self.offset_sigma_frac < 0:
            raise ValueError("offset_sigma_frac must be >= 0")
        object.__setattr__(self, "max_rejects", whole_number(self.max_rejects, "max_rejects", 1))


@dataclass(frozen=True)
class SceneGeometry:
    """Directions (camera frame, from the target) and lighting-angle floors."""

    sun_dir: np.ndarray
    earth_dir: np.ndarray
    min_sun_earth_angle: float = np.radians(10.0)
    min_sun_camera_angle: float = np.radians(10.0)

    def __post_init__(self):
        for name in ("sun_dir", "earth_dir"):
            v = _vec3(getattr(self, name), name)
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be unit length")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class PanelConfig:
    """Solar-panel articulation: hinge axis and the normal at zero angle."""

    hinge_axis: np.ndarray
    reference_normal: np.ndarray

    def __post_init__(self):
        axis = _vec3(self.hinge_axis, "hinge_axis")
        normal = _vec3(self.reference_normal, "reference_normal")
        for name, v in (("hinge_axis", axis), ("reference_normal", normal)):
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be unit length")
        if abs(np.dot(axis, normal)) > 1e-9:
            raise ValueError("reference_normal must be perpendicular to hinge_axis")
        axis.setflags(write=False)
        normal.setflags(write=False)
        object.__setattr__(self, "hinge_axis", axis)
        object.__setattr__(self, "reference_normal", normal)


class SampleStreams:
    """Named per-field Philox streams for one sampling run."""

    def __init__(self, seed: int):
        self.seed = int(seed)
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


def sample_distances(rng: np.random.Generator, cfg: PoseSamplerConfig, n: int) -> np.ndarray:
    """Vectorized batch variant of :func:`sample_distance` (own draw order)."""
    out = np.empty(0)
    attempts = 0
    while out.size < n:
        if attempts >= cfg.max_rejects:
            raise SamplingFailureError(
                f"batch rejection exhausted after {attempts} rounds"
            )
        attempts += 1
        block = rng.normal(cfg.dist_mean, cfg.dist_sigma, size=max(2 * (n - out.size), 1024))
        kept = block[(block >= cfg.dist_min) & (block <= cfg.dist_max)]
        out = np.concatenate([out, kept])
    return out[:n]


def sample_attitude(rng: np.random.Generator) -> np.ndarray:
    """Exactly uniform (Haar) rotation as a unit quaternion.

    Subgroup-algorithm construction from three independent uniforms
    (Shoemake): a uniform point on S^3, which double-covers SO(3) uniformly.
    """
    u0, u1, u2 = rng.random(3)
    r1, r2 = np.sqrt(1.0 - u0), np.sqrt(u0)
    t1, t2 = 2.0 * np.pi * u1, 2.0 * np.pi * u2
    return np.array([np.cos(t2) * r2, np.sin(t1) * r1, np.cos(t1) * r1, np.sin(t2) * r2])


def sample_attitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Batch of n uniform rotations, shape (n, 4)."""
    u = rng.random((n, 3))
    r1, r2 = np.sqrt(1.0 - u[:, 0]), np.sqrt(u[:, 0])
    t1, t2 = 2.0 * np.pi * u[:, 1], 2.0 * np.pi * u[:, 2]
    return np.column_stack(
        [np.cos(t2) * r2, np.sin(t1) * r1, np.cos(t1) * r1, np.sin(t2) * r2]
    )


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
        if (
            uv[:, 0].min() >= lo
            and uv[:, 0].max() <= hi_u
            and uv[:, 1].min() >= lo
            and uv[:, 1].max() <= hi_v
        ):
            return pose
    raise SamplingFailureError(
        f"no fully in-frame pose after {cfg.max_rejects} attempts"
    )


def panel_track_angle(sun_dir_body, panel: PanelConfig) -> float:
    """Hinge rotation in (-pi, pi] aligning the panel normal with the Sun.

    Closed form: with hinge a, zero-angle normal n (n perpendicular to a), the
    rotated normal is n*cos(phi) + (a x n)*sin(phi), so the alignment
    s . n(phi) is maximized at phi = atan2(s . (a x n), s . n).
    """
    sun = _vec3(sun_dir_body, "sun_dir_body")
    norm = np.linalg.norm(sun)
    if norm < 1e-12:
        raise ValueError("sun direction must be nonzero")
    sun = sun / norm
    a = panel.hinge_axis
    angle_to_hinge = np.arctan2(np.linalg.norm(np.cross(a, sun)), abs(np.dot(a, sun)))
    if angle_to_hinge <= _HINGE_ALIGNMENT_TOL:
        raise UndefinedTrackingError(
            "sun direction is parallel to the panel hinge; any angle is equivalent"
        )
    n = panel.reference_normal
    phi = float(np.arctan2(np.dot(sun, np.cross(a, n)), np.dot(sun, n)))
    if phi <= -np.pi:
        phi = np.pi
    return phi


def lighting_feasible(pose: Pose, scene: SceneGeometry) -> bool:
    """True when Sun-Earth and Sun-camera separations clear their floors.

    Guards against renders where the camera-facing side is unlit: the Sun
    direction must stay at least the configured angles away from both the
    Earth direction and the target-to-camera direction.
    """
    to_camera = -pose.position / np.linalg.norm(pose.position)
    sun_earth = np.arccos(np.clip(np.dot(scene.sun_dir, scene.earth_dir), -1.0, 1.0))
    sun_camera = np.arccos(np.clip(np.dot(scene.sun_dir, to_camera), -1.0, 1.0))
    return bool(
        sun_earth >= scene.min_sun_earth_angle
        and sun_camera >= scene.min_sun_camera_angle
    )
