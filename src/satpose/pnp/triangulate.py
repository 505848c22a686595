"""Multiview triangulation of body-frame keypoints.

Each observation pairs a known target pose with the pixel location of one
keypoint; stacking the homogeneous cross-product constraints of every view
gives a direct linear (DLT) estimate, which the Levenberg-Marquardt loop
shared with pose refinement (:func:`.refine.least_squares`) then polishes
against reprojection error. The recovered point lives in the target body
frame, so repeating this over all keypoint indices rebuilds a wireframe model
from labeled imagery.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateBaselineError
from ..geometry import CameraIntrinsics, camera_pixels, pinhole_jacobian
from .refine import least_squares, pixel_residuals

_MIN_RAY_SEPARATION = 1e-4  # radians


def _unpack(observations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked view rotations (V, 3, 3), positions (V, 3) and pixels (V, 2)."""
    obs = list(observations)
    if len(obs) < 2:
        raise ValueError(f"triangulation needs at least 2 views, got {len(obs)}")
    rotations = np.array([pose.rotation_matrix() for pose, _ in obs])
    positions = np.array([pose.position for pose, _ in obs])
    pixels = np.array([np.asarray(px, dtype=float).reshape(2) for _, px in obs])
    return rotations, positions, pixels


def _check_baseline(rotations: np.ndarray, pixels: np.ndarray, cam: CameraIntrinsics) -> None:
    """Require one pair of viewing rays separated by more than the minimum angle."""
    rays_cam = np.column_stack([pixels, np.ones(len(pixels))]) @ np.linalg.inv(cam.matrix()).T
    dirs = np.einsum("vji,vj->vi", rotations, rays_cam)  # R^T ray, into the body frame
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cosines = np.clip(np.abs(dirs @ dirs.T), 0.0, 1.0)
    np.fill_diagonal(cosines, 1.0)
    if np.arccos(cosines.min()) <= _MIN_RAY_SEPARATION:
        raise DegenerateBaselineError(
            "viewing rays are near-parallel; baseline too small to triangulate"
        )


def _dlt_point(rotations, positions, pixels, cam: CameraIntrinsics) -> np.ndarray:
    p_mats = cam.matrix() @ np.concatenate([rotations, positions[:, :, None]], axis=2)
    # rows of [(u, v, 1)]_x @ P per view, whose null vector is the point
    skew = np.zeros((len(pixels), 3, 3))
    skew[:, 0, 1], skew[:, 1, 0] = -1.0, 1.0
    skew[:, 0, 2], skew[:, 2, 0] = pixels[:, 1], -pixels[:, 1]
    skew[:, 1, 2], skew[:, 2, 1] = -pixels[:, 0], pixels[:, 0]
    a = (skew @ p_mats).reshape(-1, 4)
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    hom = vt[-1]
    if abs(hom[3]) < 1e-12 * np.linalg.norm(hom):
        raise DegenerateBaselineError("triangulated point is at infinity")
    return hom[:3] / hom[3]


def _residuals(point, rotations, positions, pixels, cam: CameraIntrinsics):
    """Flat (2V,) :func:`~.refine.pixel_residuals` of the views, and the point in each view."""
    cam_pts = rotations @ point + positions
    return pixel_residuals(cam_pts, pixels, cam), cam_pts


def _jacobian(cam_pts, rotations, cam: CameraIntrinsics) -> np.ndarray:
    """(2V, 3) Jacobian of :func:`_residuals` with respect to the point."""
    return (pinhole_jacobian(cam_pts, cam) @ rotations).reshape(-1, 3)


def triangulate(observations, cam: CameraIntrinsics) -> np.ndarray:
    """Body-frame keypoint position from >= 2 (pose, pixel) observations.

    Raises :class:`DegenerateBaselineError` when all viewing rays are
    (near-)parallel, e.g. for repeated identical poses. A DLT estimate
    outside the depth cut of any view is returned unrefined.
    """
    rotations, positions, pixels = _unpack(observations)
    _check_baseline(rotations, pixels, cam)
    point = _dlt_point(rotations, positions, pixels, cam)
    cam_pts = rotations @ point + positions
    uv, front = camera_pixels(cam_pts, cam)
    if not front.all():
        return point
    return least_squares(
        point,
        ((uv - pixels).ravel(), cam_pts),
        lambda x: _residuals(x, rotations, positions, pixels, cam),
        lambda cam_pts: _jacobian(cam_pts, rotations, cam),
        np.add,
    )
