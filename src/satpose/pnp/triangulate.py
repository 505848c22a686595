"""Multiview triangulation of body-frame keypoints.

Each observation pairs a known target pose with the pixel location of one
keypoint; stacking the homogeneous cross-product constraints of every view
gives a direct linear (DLT) estimate, which a short damped Gauss-Newton pass
then polishes against reprojection error. The recovered point lives in the
target body frame, so repeating this over all keypoint indices rebuilds a
wireframe model from labeled imagery.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateBaselineError
from ..geometry import CameraIntrinsics, Pose

_MIN_RAY_SEPARATION = 1e-4  # radians
_REFINE_ITERATIONS = 50


def _unpack(observations) -> tuple[list[Pose], np.ndarray]:
    obs = list(observations)
    if len(obs) < 2:
        raise ValueError(f"triangulation needs at least 2 views, got {len(obs)}")
    poses = [pose for pose, _ in obs]
    pixels = np.array([np.asarray(px, dtype=float).reshape(2) for _, px in obs])
    return poses, pixels


def _check_baseline(poses: list[Pose], pixels: np.ndarray, cam: CameraIntrinsics) -> None:
    """Require one pair of viewing rays separated by more than the minimum angle."""
    k_inv = np.linalg.inv(cam.matrix())
    dirs = []
    for pose, px in zip(poses, pixels):
        ray_cam = k_inv @ np.array([px[0], px[1], 1.0])
        ray_body = pose.rotation_matrix().T @ ray_cam
        dirs.append(ray_body / np.linalg.norm(ray_body))
    dirs = np.array(dirs)
    cosines = np.clip(np.abs(dirs @ dirs.T), 0.0, 1.0)
    np.fill_diagonal(cosines, 1.0)
    if np.arccos(cosines.min()) <= _MIN_RAY_SEPARATION:
        raise DegenerateBaselineError(
            "viewing rays are near-parallel; baseline too small to triangulate"
        )


def _dlt_point(poses: list[Pose], pixels: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    k = cam.matrix()
    rows = []
    for pose, px in zip(poses, pixels):
        p_mat = k @ np.hstack([pose.rotation_matrix(), pose.position[:, None]])
        u, v = px
        skew = np.array([[0.0, -1.0, v], [1.0, 0.0, -u], [-v, u, 0.0]])
        rows.append(skew @ p_mat)
    a = np.vstack(rows)
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    hom = vt[-1]
    if abs(hom[3]) < 1e-12 * np.linalg.norm(hom):
        raise DegenerateBaselineError("triangulated point is at infinity")
    return hom[:3] / hom[3]


def _refine_point(
    point: np.ndarray, poses: list[Pose], pixels: np.ndarray, cam: CameraIntrinsics
) -> np.ndarray:
    """Damped Gauss-Newton on the 3-D point against all reprojections."""
    rotations = [pose.rotation_matrix() for pose in poses]

    def residuals(x):
        res = []
        for rot, pose, px in zip(rotations, poses, pixels):
            c = rot @ x + pose.position
            if c[2] <= 1e-9:
                return None
            res.append(cam.fx * c[0] / c[2] + cam.cx - px[0])
            res.append(cam.fy * c[1] / c[2] + cam.cy - px[1])
        return np.array(res)

    r = residuals(point)
    if r is None:
        return point
    cost = float(r @ r)
    damping = 1e-6
    for _ in range(_REFINE_ITERATIONS):
        jac = np.zeros((2 * len(poses), 3))
        for i, (rot, pose) in enumerate(zip(rotations, poses)):
            c = rot @ point + pose.position
            duv = np.array(
                [
                    [cam.fx / c[2], 0.0, -cam.fx * c[0] / c[2] ** 2],
                    [0.0, cam.fy / c[2], -cam.fy * c[1] / c[2] ** 2],
                ]
            )
            jac[2 * i : 2 * i + 2] = duv @ rot
        grad = jac.T @ r
        if np.max(np.abs(grad)) < 1e-12:
            break
        jtj = jac.T @ jac
        stepped = False
        while damping <= 1e12:
            try:
                delta = np.linalg.solve(jtj + damping * np.eye(3), -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = point + delta
            r_new = residuals(candidate)
            if r_new is not None and float(r_new @ r_new) < cost:
                point, r, cost = candidate, r_new, float(r_new @ r_new)
                damping = max(damping * 0.1, 1e-12)
                stepped = True
                break
            damping *= 10.0
        if not stepped or np.linalg.norm(delta) < 1e-14:
            break
    return point


def triangulate(observations, cam: CameraIntrinsics) -> np.ndarray:
    """Body-frame keypoint position from >= 2 (pose, pixel) observations.

    Raises :class:`DegenerateBaselineError` when all viewing rays are
    (near-)parallel, e.g. for repeated identical poses.
    """
    poses, pixels = _unpack(observations)
    _check_baseline(poses, pixels, cam)
    point = _dlt_point(poses, pixels, cam)
    return _refine_point(point, poses, pixels, cam)
