"""Levenberg-Marquardt pose refinement against reprojection error.

The pose is optimized over 6 degrees of freedom: a translation increment and
a 3-parameter axis-angle attitude increment composed onto the quaternion from
the right (body-frame perturbation). Steps are accepted only when they lower
the cost, so the refined cost never exceeds the initial one. The damped loop,
:func:`least_squares`, also refines triangulated points. Its stopping rule is
fixed: at most 100 iterations, ending early when the largest gradient entry
falls below 1e-10, a step is shorter than 1e-12, or an accepted step lowers
the cost by less than 1e-14 of its value.
"""

from __future__ import annotations

import numpy as np

from ..errors import BehindCameraError, NumericalFailureError
from ..geometry import (
    CameraIntrinsics,
    Pose,
    pinhole_jacobian,
    project,
    quat_from_rotvec,
    quat_multiply,
)
from .epnp import split_correspondences

_MAX_ITERATIONS = 100
_GRADIENT_TOL = 1e-10
_STEP_TOL = 1e-12
_COST_TOL = 1e-14
_INITIAL_DAMPING = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_DAMPING_MAX = 1e15


def reprojection_jacobian(pose: Pose, world: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Analytic (2n, 6) Jacobian of stacked pixel residuals.

    Columns are [dt_x, dt_y, dt_z, dtheta_x, dtheta_y, dtheta_z] for the local
    update t + dt, q * exp(dtheta); rows alternate du, dv per point.
    """
    rot = pose.rotation_matrix()
    duv_dp = pinhole_jacobian(world @ rot.T + pose.position, cam)
    n = world.shape[0]

    # d(camera point)/d(dtheta) = -R [world]_x for a right-composed increment
    wx = np.zeros((n, 3, 3))
    wx[:, 0, 1] = -world[:, 2]
    wx[:, 0, 2] = world[:, 1]
    wx[:, 1, 0] = world[:, 2]
    wx[:, 1, 2] = -world[:, 0]
    wx[:, 2, 0] = -world[:, 1]
    wx[:, 2, 1] = world[:, 0]
    dp_dtheta = -np.einsum("ab,nbc->nac", rot, wx)
    duv_dtheta = np.einsum("nab,nbc->nac", duv_dp, dp_dtheta)
    return np.concatenate([duv_dp, duv_dtheta], axis=2).reshape(2 * n, 6)


def _stacked_residuals(t, q, world, image, cam) -> np.ndarray:
    """Flat residual vector; raises :class:`BehindCameraError` naming the point."""
    return (project(Pose(position=t, attitude=q), cam, world) - image).ravel()


def least_squares(x, residual, jacobian, step):
    """Levenberg-Marquardt on ``|residual(x)|^2`` from ``x``, for pose and point alike.

    ``jacobian(x)`` is the (m, k) Jacobian of the flat ``residual(x)`` and
    ``step(x, delta)`` applies a k-vector update. A trial whose residual raises
    :class:`BehindCameraError` or is not finite is rejected like an uphill one.
    Stops on the gradient, step or relative-cost tolerance, or after
    ``_MAX_ITERATIONS``; raises :class:`NumericalFailureError` on non-finite
    residuals at the start.
    """
    r = residual(x)
    if not np.all(np.isfinite(r)):
        raise NumericalFailureError("non-finite residuals at the starting point")
    cost = float(r @ r)

    damping = _INITIAL_DAMPING
    for _ in range(_MAX_ITERATIONS):
        jac = jacobian(x)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < _GRADIENT_TOL:
            break
        jtj = jac.T @ jac
        diag = np.diag(np.maximum(np.diag(jtj), 1e-12))

        improved = False
        while damping <= _DAMPING_MAX:
            try:
                delta = np.linalg.solve(jtj + damping * diag, -grad)
            except np.linalg.LinAlgError:
                damping *= _DAMPING_UP
                continue
            if np.linalg.norm(delta) < _STEP_TOL:
                break
            x_new = step(x, delta)
            cost_new = np.inf
            try:
                r_new = residual(x_new)
            except BehindCameraError:
                pass  # a step that puts points behind a camera is rejected
            else:
                if np.all(np.isfinite(r_new)):
                    cost_new = float(r_new @ r_new)
            if cost_new < cost:
                # a relative cost drop below _COST_TOL ends the loop after this step
                improved = cost - cost_new >= _COST_TOL * max(cost_new, 1e-30)
                x, r, cost = x_new, r_new, cost_new
                damping = max(damping * _DAMPING_DOWN, 1e-15)
                break
            damping *= _DAMPING_UP
        if not improved:
            break
    return x


def lm_refine(initial: Pose, correspondences, cam: CameraIntrinsics) -> Pose:
    """Minimize the summed squared reprojection error from ``initial``.

    Raises :class:`BehindCameraError` naming the first point at or behind the
    camera at the starting pose, and :class:`NumericalFailureError` on
    non-finite residuals there.
    """
    image, world = split_correspondences(correspondences)
    if image.shape[0] == 0:
        raise ValueError("need at least one correspondence")
    t, q = least_squares(
        (np.array(initial.position, dtype=float), np.array(initial.attitude, dtype=float)),
        lambda x: _stacked_residuals(*x, world, image, cam),
        lambda x: reprojection_jacobian(Pose(position=x[0], attitude=x[1]), world, cam),
        lambda x, delta: (x[0] + delta[:3], quat_multiply(x[1], quat_from_rotvec(delta[3:]))),
    )
    return Pose(position=t, attitude=q)
