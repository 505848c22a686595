"""Levenberg-Marquardt pose refinement against reprojection error.

The pose is optimized over 6 degrees of freedom: a translation increment and
a 3-parameter axis-angle attitude increment composed onto the quaternion from
the right (body-frame perturbation). Steps are accepted only when they lower
the cost, so the refined cost never exceeds the initial one. The damped loop,
:func:`least_squares`, also refines triangulated points. Its stopping rule is
fixed: at most 100 iterations, ending early when the largest gradient entry
falls below 1e-10, a step is shorter than 1e-12, or an accepted step lowers
the cost by less than 1e-8 of its value. A Gauss-Newton finish then takes up
to 3 undamped steps, keeping each only while the largest gradient entry
shrinks and the cost rises by no more than round-off (1e-12 of its value),
and never past the starting cost (Madsen, Nielsen and Tingleff, "Methods for
Non-Linear Least Squares Problems", DTU 2004). A cost tolerance fixes a
minimum only to about its square root; the gradient resolves it, so LM from
different starts near one minimum ends at the same point.

The loop state is the ``(position, quaternion)`` array pair. The start pose
is scored through :func:`~satpose.geometry.project`. One trial step computes
the trial quaternion's rotation matrix once, the world points in the camera
frame once, and their pixels with :func:`~satpose.geometry.camera_to_pixels`.
An accepted trial hands that rotation and those camera-frame points to the
next Jacobian, and every Jacobian of one :func:`lm_refine` call shares the
world points' cross-product matrices, built once per call.
"""

from __future__ import annotations

import numpy as np

from ..errors import BehindCameraError, NumericalFailureError
from ..geometry import (
    CameraIntrinsics,
    Pose,
    _norm,
    camera_to_pixels,
    pinhole_jacobian,
    project,
    quat_from_rotvec,
    quat_multiply,
    quat_to_matrix,
)
from .epnp import split_correspondences

_MAX_ITERATIONS = 100
_GRADIENT_TOL = 1e-10
_STEP_TOL = 1e-12
_COST_TOL = 1e-8
_FINISH_STEPS = 3
# a finish step may raise the cost by this share of it: round-off in the sum
_FINISH_COST_SLACK = 1e-12
_INITIAL_DAMPING = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_DAMPING_MAX = 1e15


# (w @ _SKEW).reshape(3, 3) is the cross-product matrix [w]_x: each entry
# is one signed component of w, so the product is exact
_SKEW = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


def skew_table(world: np.ndarray) -> np.ndarray:
    """(n, 3, 3) cross-product matrices ``[w]_x`` of world points (n, 3)."""
    return (world @ _SKEW).reshape(len(world), 3, 3)


def reprojection_jacobian(
    rot: np.ndarray, cam_pts: np.ndarray, world_skew: np.ndarray, cam: CameraIntrinsics
) -> np.ndarray:
    """Analytic (2n, 6) Jacobian of stacked pixel residuals at one pose.

    ``rot`` is the pose's rotation matrix, ``cam_pts`` the (n, 3) world points
    in its camera frame and ``world_skew`` their :func:`skew_table`. Columns
    are [dt_x, dt_y, dt_z, dtheta_x, dtheta_y, dtheta_z] for the local update
    t + dt, q * exp(dtheta); rows alternate du, dv per point.
    """
    duv_dp = pinhole_jacobian(cam_pts, cam)
    # d(camera point)/d(dtheta) = -R [world]_x for a right-composed increment
    dp_dtheta = -np.einsum("ab,nbc->nac", rot, world_skew)
    duv_dtheta = np.einsum("nab,nbc->nac", duv_dp, dp_dtheta)
    return np.concatenate([duv_dp, duv_dtheta], axis=2).reshape(2 * len(cam_pts), 6)


def _trial_residuals(x, world, image, cam):
    """Flat residuals at ``x = (t, q)``, with the rotation and camera-frame points there.

    Raises :class:`BehindCameraError` naming the first point at or behind the camera.
    """
    t, q = x
    rot = quat_to_matrix(q)
    cam_pts = world @ rot.T + t
    return (camera_to_pixels(cam_pts, cam) - image).ravel(), (rot, cam_pts)


def least_squares(x, start, residual, jacobian, step):
    """Levenberg-Marquardt on ``|residual(x)|^2`` from ``x``, for pose and point alike.

    ``residual(x)`` returns the flat residual vector at ``x`` together with
    what ``jacobian`` needs there: ``jacobian(at)`` is the (m, k) Jacobian of
    the residual at the point whose ``residual`` returned ``at``. ``start`` is
    that pair at the starting ``x``, which the caller computes so that it can
    raise its own errors there. ``step(x, delta)`` applies a k-vector update.
    A trial whose residual raises :class:`BehindCameraError` or is not finite
    is rejected like an uphill one. Stops on the gradient, step or
    relative-cost tolerance, or after ``_MAX_ITERATIONS``, then takes the
    Gauss-Newton finish that the module docstring states, reusing the
    loop's last Jacobian when ``x`` has not moved since; raises
    :class:`NumericalFailureError` on non-finite residuals at the start.
    """
    r, at = start
    if not np.isfinite(r).all():
        raise NumericalFailureError("non-finite residuals at the starting point")
    cost = start_cost = float(r @ r)

    damping = _INITIAL_DAMPING
    for _ in range(_MAX_ITERATIONS):
        jac = jacobian(at)
        grad = jac.T @ r
        if np.abs(grad).max() < _GRADIENT_TOL:
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
            if _norm(delta) < _STEP_TOL:
                break
            x_new = step(x, delta)
            cost_new = np.inf
            try:
                r_new, at_new = residual(x_new)
            except BehindCameraError:
                pass  # a step that puts points behind a camera is rejected
            else:
                if np.isfinite(r_new).all():
                    cost_new = float(r_new @ r_new)
            if cost_new < cost:
                # a relative cost drop below _COST_TOL ends the loop after this step
                improved = cost - cost_new >= _COST_TOL * max(cost_new, 1e-30)
                x, r, at, cost = x_new, r_new, at_new, cost_new
                jac = None  # x has moved since the Jacobian
                damping = max(damping * _DAMPING_DOWN, 1e-15)
                break
            damping *= _DAMPING_UP
        if not improved:
            break

    # Gauss-Newton finish: undamped steps, each kept only while the largest
    # gradient entry shrinks and the cost rises by no more than round-off,
    # never past the start; the first step that fails ends it
    if jac is None:
        jac = jacobian(at)
    grad = jac.T @ r
    largest = np.abs(grad).max()
    for _ in range(_FINISH_STEPS):
        if largest < _GRADIENT_TOL:
            break
        try:
            delta = np.linalg.solve(jac.T @ jac, -grad)
        except np.linalg.LinAlgError:
            break
        if not _norm(delta) >= _STEP_TOL:  # also ends on a non-finite step
            break
        x_new = step(x, delta)
        try:
            r_new, at_new = residual(x_new)
        except BehindCameraError:
            break
        cost_new = float(r_new @ r_new)
        if not cost_new <= min(cost * (1.0 + _FINISH_COST_SLACK), start_cost):
            break  # also a non-finite residual
        jac_new = jacobian(at_new)
        grad_new = jac_new.T @ r_new
        largest_new = np.abs(grad_new).max()
        if not largest_new < largest:
            break
        x, r, cost, jac, grad, largest = x_new, r_new, cost_new, jac_new, grad_new, largest_new
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
    x0 = np.array(initial.position, dtype=float), np.array(initial.attitude, dtype=float)
    rot = initial.rotation_matrix()
    start = (project(initial, cam, world) - image).ravel(), (rot, world @ rot.T + x0[0])
    world_skew = skew_table(world)
    t, q = least_squares(
        x0,
        start,
        lambda x: _trial_residuals(x, world, image, cam),
        lambda at: reprojection_jacobian(*at, world_skew, cam),
        lambda x, delta: (x[0] + delta[:3], quat_multiply(x[1], quat_from_rotvec(delta[3:]))),
    )
    return Pose(position=t, attitude=q)
