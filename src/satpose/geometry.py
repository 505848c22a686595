"""Pose and quaternion algebra, pinhole projection, and label derivation.

The pinhole model and its ``MIN_PROJECTION_DEPTH`` cut live here alone: labels,
RANSAC scoring, P3P's root choice, LM and triangulation all project through
:func:`camera_pixels`, the one masked projection of camera-frame points, and
linearise through :func:`pinhole_jacobian`. Only :func:`project` raises for a
point outside the cut.

Conventions
-----------
* Quaternions are scalar-first ``(w, x, y, z)`` unit 4-vectors under the
  Hamilton product.
* ``Pose.attitude`` rotates body-frame vectors into the camera frame:
  ``x_cam = R(q) @ x_body + position``.
* Image coordinates are continuous pixels, origin at the top-left corner,
  u rightwards, v downwards. Projection never clips; box clamping is the
  bounding-box layer's job.

All types are immutable values and all functions are pure, so everything here
is safe to share across threads. File formats, the wireframe file's included,
belong to :mod:`satpose.manifest`; this module does no I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, DegenerateGeometryError, OutOfFrameError
from .roi import BBox

MIN_PROJECTION_DEPTH = 1e-6  # metres
_MAX_IMAGE_SIDE = 1 << 16  # pixels


def _finite(values: np.ndarray) -> bool:
    """Whether every value of a short array is finite; cheaper than numpy on a few values."""
    return all(map(math.isfinite, values.tolist()))


def _vec3(v, name: str = "vector") -> np.ndarray:
    out = np.array(v, dtype=float).reshape(-1)
    if out.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {out.shape}")
    if not _finite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


def _quat(q, name: str = "quaternion") -> np.ndarray:
    out = np.array(q, dtype=float).reshape(-1)
    if out.shape != (4,):
        raise ValueError(f"{name} must have 4 components (w, x, y, z)")
    if not _finite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


def whole_number(value, name: str, lo: int, hi: float = np.inf) -> int:
    """``value`` as an ``int``; raises ``ValueError`` unless it is a whole number in [lo, hi].

    A boolean, Python's or numpy's, is not a number here, although ``bool`` is an ``int``.
    """
    try:
        whole = not isinstance(value, (bool, np.bool_)) and float(value).is_integer()
    except OverflowError:  # an int too large for a float
        whole = False
    if not (whole and lo <= value <= hi):
        raise ValueError(f"{name} must be a whole number in [{lo}, {hi}], got {value!r}")
    return int(value)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of a float 1-D array: ``np.linalg.norm``'s own arithmetic, to the bit."""
    # vdot, unlike dot, does not warn when the square overflows
    return np.sqrt(np.vdot(v, v))


def quat_normalize(q) -> np.ndarray:
    """Rescale to unit norm; raises on (near-)zero input.

    Inputs already unit to 1e-12 pass through bit-identically, so values that
    round-trip through files are not perturbed by repeated renormalization.
    """
    return _unit(_quat(q))


def _unit(q: np.ndarray) -> np.ndarray:
    """The rule of :func:`quat_normalize` on a checked finite (4,) quaternion."""
    # np.linalg.norm's arithmetic, to the bit; vdot, unlike dot, does not warn on overflow
    norm = math.sqrt(np.vdot(q, q))
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero quaternion")
    if abs(norm - 1.0) <= 1e-12:
        return q
    if norm == math.inf:  # the square overflowed: scale the largest component to 1 first
        q = q / np.abs(q).max()
        norm = math.sqrt(np.vdot(q, q))
    return q / norm


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a*b (apply b's rotation first, then a's)."""
    # Python floats round each operation as numpy scalars do, at less cost per operation
    aw, ax, ay, az = _quat(a).tolist()
    bw, bx, by, bz = _quat(b).tolist()
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q) -> np.ndarray:
    w, x, y, z = _quat(q)
    return np.array([w, -x, -y, -z])


def quat_from_rotvec(rotvec) -> np.ndarray:
    """Unit quaternion from an axis-angle 3-vector (angle = vector norm)."""
    rv = _vec3(rotvec, "rotation vector")
    angle = _norm(rv)
    if angle < 1e-12:
        # first-order expansion, exact enough at this magnitude
        return quat_normalize(np.concatenate([[1.0], 0.5 * rv]))
    return np.concatenate([[np.cos(0.5 * angle)], np.sin(0.5 * angle) * rv / angle])


def _unit_quat_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of a quaternion already unit to 1e-12, which normalizing keeps."""
    w, x, y, z = q.tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(rot) -> np.ndarray:
    """Unit quaternion (w >= 0) of a proper rotation matrix.

    Uses Shepperd's branching on the largest diagonal combination, which is
    numerically stable for all rotation angles.
    """
    m = np.asarray(rot, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("rotation matrix must be 3x3")
    t = float(np.trace(m))  # numpy's summation order, not Python's
    # Python floats round as numpy scalars do; the pick is np.argmax's: the
    # first maximum, and a NaN trace (any NaN on the diagonal) wins
    e = m.tolist()
    candidates = [t, e[0][0], e[1][1], e[2][2]]
    case = candidates.index(max(candidates))
    if case == 0:
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        q = [0.5 * r, (e[2][1] - e[1][2]) * s, (e[0][2] - e[2][0]) * s, (e[1][0] - e[0][1]) * s]
    else:
        i = case - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        r = math.sqrt(1.0 + e[i][i] - e[j][j] - e[k][k])
        s = 0.5 / r
        q = [0.0] * 4
        q[0] = (e[k][j] - e[j][k]) * s
        q[1 + i] = 0.5 * r
        q[1 + j] = (e[j][i] + e[i][j]) * s
        q[1 + k] = (e[k][i] + e[i][k]) * s
    if q[0] < 0:
        q = [-v for v in q]
    return quat_normalize(q)


@dataclass(frozen=True)
class Pose:
    """Rigid target pose: body origin position and body-to-camera attitude.

    The attitude quaternion is normalized on construction, so the unit-norm
    invariant holds for every Pose the package ever hands out.
    """

    position: np.ndarray
    attitude: np.ndarray

    def __post_init__(self):
        # the checks of _vec3 and quat_normalize, with one finiteness pass over both fields
        pos = np.array(self.position, dtype=float).reshape(-1)
        try:
            att = np.array(self.attitude, dtype=float).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            att = np.empty(0)  # an attitude numpy cannot read; _quat below words the fault
        if not (
            pos.shape == (3,)
            and att.shape == (4,)
            and all(map(math.isfinite, pos.tolist() + att.tolist()))
        ):
            # raises the first fault in their order: position shape and finiteness, then attitude's
            pos = _vec3(pos, "position")
            att = _quat(self.attitude)
        att = _unit(att)
        pos.setflags(write=False)
        att.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "attitude", att)

    def rotation_matrix(self) -> np.ndarray:
        return _unit_quat_matrix(self.attitude)  # unit since construction

    def transform(self, points) -> np.ndarray:
        """Map body-frame point(s) into the camera frame."""
        return np.asarray(points, dtype=float) @ self.rotation_matrix().T + self.position


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        for name in ("width", "height"):
            side = whole_number(getattr(self, name), name, 1, _MAX_IMAGE_SIDE)
            object.__setattr__(self, name, side)
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix K."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


# Test/example preset at the 1920x1200 sensor scale. Real deployments load
# calibrated intrinsics from config; this one only anchors tests and demos.
DEFAULT_CAMERA = CameraIntrinsics(
    fx=3000.0, fy=3000.0, cx=960.0, cy=600.0, width=1920, height=1200
)


@dataclass(frozen=True)
class WireframeModel:
    """Ordered 3-D keypoints of the target in its body frame.

    The keypoint order is part of the contract: landmark vectors, manifest
    labels, and 2D-3D correspondences all index into it.
    """

    name: str
    keypoints: np.ndarray

    def __post_init__(self):
        pts = np.array(self.keypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("keypoints must have shape (K, 3)")
        if pts.shape[0] < 4:
            raise ValueError(f"need at least 4 keypoints, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("keypoints must be finite")
        centered = pts - pts.mean(axis=0)
        lam = np.linalg.eigvalsh(centered.T @ centered / pts.shape[0])
        if lam[2] <= 0 or lam[1] <= 1e-10 * lam[2]:
            raise DegenerateGeometryError(
                "wireframe keypoints are collinear; pose solving is degenerate"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "keypoints", pts)

    @property
    def count(self) -> int:
        return int(self.keypoints.shape[0])


def example_wireframe() -> WireframeModel:
    """Satellite-like 11-point test model: body box, antenna tip, panel tips."""
    keypoints = [
        [-0.75, -0.55, -0.90],
        [0.75, -0.55, -0.90],
        [0.75, 0.55, -0.90],
        [-0.75, 0.55, -0.90],
        [-0.75, -0.55, 0.90],
        [0.75, -0.55, 0.90],
        [0.75, 0.55, 0.90],
        [-0.75, 0.55, 0.90],
        [0.0, 0.0, 1.80],
        [0.0, -3.20, 0.25],
        [0.0, 3.20, 0.25],
    ]
    return WireframeModel(name="example-satellite", keypoints=keypoints)


def pinhole(x, y, z, cam: CameraIntrinsics):
    """Pixel ``(u, v)`` of camera-frame coordinates; no depth check."""
    return cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy


def camera_pixels(cam_pts: np.ndarray, cam: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (..., 2) of camera-frame points (..., 3) and the mask (...) of those in front.

    A point is in front where its depth exceeds ``MIN_PROJECTION_DEPTH``, so
    not at NaN depth. The others are projected at depth 1, so that no
    division warns, and their pixels mean nothing.
    """
    z = cam_pts[..., 2]
    front = z > MIN_PROJECTION_DEPTH
    uv = np.empty(cam_pts.shape[:-1] + (2,))
    uv[..., 0], uv[..., 1] = pinhole(cam_pts[..., 0], cam_pts[..., 1], np.where(front, z, 1.0), cam)
    return uv, front


def pinhole_jacobian(cam_pts: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """(..., 2, 3) derivatives of pixels ``(u, v)`` by their camera-frame points (..., 3)."""
    x, y, z = cam_pts[..., 0], cam_pts[..., 1], cam_pts[..., 2]
    jac = np.zeros(cam_pts.shape[:-1] + (2, 3))
    jac[..., 0, 0] = cam.fx / z
    jac[..., 0, 2] = -cam.fx * x / z**2
    jac[..., 1, 1] = cam.fy / z
    jac[..., 1, 2] = -cam.fy * y / z**2
    return jac


def project(pose: Pose, cam: CameraIntrinsics, points) -> np.ndarray:
    """Pinhole-project body-frame point(s) to pixel coordinates.

    Accepts (3,) or (N, 3); returns (2,) or (N, 2). Points may land outside
    the image bounds. Raises :class:`BehindCameraError` naming the first point
    whose camera-frame depth is at or below ``MIN_PROJECTION_DEPTH``, or NaN.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    cam_pts = pose.transform(np.atleast_2d(pts))
    uv, front = camera_pixels(cam_pts, cam)
    if not front.all():
        first = int(front.argmin())
        raise BehindCameraError(first, float(cam_pts[first, 2]))
    return uv[0] if single else uv


def clamp_box(xmin: float, ymin: float, xmax: float, ymax: float, cam: CameraIntrinsics) -> BBox:
    """The box with these extents intersected with the image bounds.

    Raises :class:`OutOfFrameError` when the box lies entirely outside the image.
    """
    if xmax < 0 or ymax < 0 or xmin > cam.width or ymin > cam.height:
        raise OutOfFrameError(
            f"box ({xmin:.1f}, {ymin:.1f})-({xmax:.1f}, {ymax:.1f}) "
            f"lies outside the {cam.width}x{cam.height} image"
        )
    return BBox(
        max(xmin, 0.0),
        max(ymin, 0.0),
        min(xmax, float(cam.width)),
        min(ymax, float(cam.height)),
    )


def normalize_landmarks(points, roi: BBox) -> np.ndarray:
    """Map pixel landmarks into ROI-relative coordinates in [0, 1] per axis.

    This is the output contract of the landmark-regression stage: each point
    becomes ((u - xmin)/width, (v - ymin)/height), order preserved.
    """
    if roi.width <= 0 or roi.height <= 0:
        raise ValueError("ROI must have positive width and height")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    origin = np.array([roi.xmin, roi.ymin])
    scale = np.array([roi.width, roi.height])
    return (pts - origin) / scale


def denormalize_landmarks(normalized, roi: BBox) -> np.ndarray:
    """Inverse of :func:`normalize_landmarks` up to rounding, not to the bit.

    The round trip rounds four times, so a coordinate ``p`` against ROI edge
    ``o`` comes back within ``4u |p - o| + u |p|`` (u = 2**-53) of itself.
    Both functions work element by element: one call on (N, 2) points gives
    the bits of N one-point calls.
    """
    if roi.width <= 0 or roi.height <= 0:
        raise ValueError("ROI must have positive width and height")
    pts = np.atleast_2d(np.asarray(normalized, dtype=float))
    origin = np.array([roi.xmin, roi.ymin])
    scale = np.array([roi.width, roi.height])
    return pts * scale + origin
