"""Levenberg-Marquardt pose refinement against reprojection error.

The pose is optimized over 6 degrees of freedom: a translation increment and
an attitude increment ``dtheta`` composed onto the quaternion from the right
(body-frame perturbation) as the Cayley rotation of ``c = dtheta / 2``, with
unit quaternion ``(1, c) / sqrt(1 + |c|^2)``. It agrees with exp to second
order, so it has exp's Jacobian, and it needs no transcendental function.
Steps are accepted only when they lower the cost. The damped loop,
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

The loop state is the ``(position, quaternion)`` array pair; the start is
scored through :func:`~satpose.geometry.project`. A trial computes its unit
quaternion's rotation once, unchecked, and the camera-frame points once, and
an accepted trial hands both to the next Jacobian; the world points'
cross-product matrices are built once per :func:`lm_refine` call. The P3P
kernel's stacked Gauss-Newton step shares :func:`reprojection_jacobian`, the
one analytic Jacobian in :mod:`satpose.pnp`, and :func:`cayley_rotate`.

Every other :mod:`satpose.pnp` module imports this one, so the 2D-3D match
:class:`Correspondence` and :func:`split_correspondences`, which stacks a
list of them into arrays, live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailureError
from ..geometry import (
    CameraIntrinsics,
    Pose,
    _finite,
    _norm,
    _unit_quat_matrix,
    camera_pixels,
    pinhole_jacobian,
    project,
)

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


@dataclass(frozen=True)
class Correspondence:
    """One 2D-3D match: pixel observation of a body-frame keypoint."""

    image: np.ndarray  # (2,) pixels
    world: np.ndarray  # (3,) metres, body frame
    id: int = 0  # keypoint index, unique within a correspondence set

    def __post_init__(self):
        img = np.array(self.image, dtype=float).reshape(-1)
        wld = np.array(self.world, dtype=float).reshape(-1)
        if img.shape != (2,) or wld.shape != (3,):
            raise ValueError("Correspondence needs a 2-vector image and 3-vector world point")
        if not (_finite(img) and _finite(wld)):
            raise ValueError("Correspondence coordinates must be finite")
        img.setflags(write=False)
        wld.setflags(write=False)
        object.__setattr__(self, "image", img)
        object.__setattr__(self, "world", wld)
        object.__setattr__(self, "id", int(self.id))


def split_correspondences(correspondences) -> tuple[np.ndarray, np.ndarray]:
    """Stack a correspondence list into (image (n,2), world (n,3)) arrays."""
    corrs = list(correspondences)
    image = np.array([c.image for c in corrs], dtype=float)
    world = np.array([c.world for c in corrs], dtype=float)
    return image, world


# (w @ _SKEW).reshape(3, 3) is the cross-product matrix [w]_x: each entry
# is one signed component of w, so the product is exact
_SKEW = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


def skew_table(points: np.ndarray) -> np.ndarray:
    """Cross-product matrices ``[w]_x`` (..., 3, 3) of points (..., 3)."""
    return (points @ _SKEW).reshape(points.shape[:-1] + (3, 3))


def reprojection_jacobian(
    rot: np.ndarray, cam_pts: np.ndarray, world_skew: np.ndarray, cam: CameraIntrinsics
) -> np.ndarray:
    """Analytic (..., 2n, 6) Jacobians of stacked pixel residuals, stacked over poses.

    ``rot`` (..., 3, 3) holds the poses' rotation matrices, ``cam_pts``
    (..., n, 3) the world points in each pose's camera frame and
    ``world_skew`` (..., n, 3, 3) their :func:`skew_table`. Columns are
    [dt_x, dt_y, dt_z, dtheta_x, dtheta_y, dtheta_z] for the local update
    t + dt, q * exp(dtheta); rows alternate du, dv per point.
    """
    duv_dp = pinhole_jacobian(cam_pts, cam)
    # d(camera point)/d(dtheta) = -R [w]_x for a right-composed increment
    duv_dtheta = -(duv_dp @ rot[..., None, :, :]) @ world_skew
    jac = np.concatenate([duv_dp, duv_dtheta], axis=-1)
    return jac.reshape(cam_pts.shape[:-2] + (-1, 6))


def cayley_rotate(rot: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    """``rot`` (..., 3, 3) turned by the Cayley rotations of ``c = dtheta / 2`` (..., 3).

    ``R (I - [c]_x)^-1 (I + [c]_x) = R + R s ([c]_x + [c]_x^2)``, ``s = 2 / (1 + |c|^2)``.
    """
    half = 0.5 * dtheta
    skew = skew_table(half)
    scale = 2.0 / (1.0 + (half * half).sum(axis=-1))
    return rot + rot @ (scale[..., None, None] * (skew + skew @ skew))


def _cayley_step(x, delta):
    """``x = (t, q)`` moved by ``delta``: ``t + dt`` and ``q * (1, dtheta / 2)``, normalised."""
    w, a, b, c = x[1].tolist()
    u, v, s = (0.5 * delta[3:]).tolist()
    # quat_multiply's Hamilton product, with the unit scalar part dropped
    w, a, b, c = (w - a * u - b * v - c * s, w * u + a + b * s - c * v,
                  w * v - a * s + b + c * u, w * s + a * v - b * u + c)
    norm = math.hypot(w, a, b, c)  # no overflow for a long step
    return x[0] + delta[:3], np.array([w / norm, a / norm, b / norm, c / norm])


def pixel_residuals(cam_pts: np.ndarray, pixels: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Flat (2n,) residuals, du and dv per point, of camera-frame points (n, 3) at pixels (n, 2).

    NaN throughout where a point is outside the depth cut of
    :func:`~satpose.geometry.camera_pixels`: a trial :func:`least_squares` rejects.
    """
    uv, front = camera_pixels(cam_pts, cam)
    residual = (uv - pixels).ravel()
    if not front.all():
        residual.fill(np.nan)
    return residual


def _trial_residuals(x, world, image, cam):
    """:func:`pixel_residuals` at ``x = (t, q)``, with the rotation and camera points there."""
    t, q = x
    rot = _unit_quat_matrix(q)
    cam_pts = world @ rot.T + t
    return pixel_residuals(cam_pts, image, cam), (rot, cam_pts)


def least_squares(x, start, residual, jacobian, step):
    """Levenberg-Marquardt on ``|residual(x)|^2`` from ``x``, for pose and point alike.

    ``residual(x)`` returns the flat residual vector at ``x`` together with
    what ``jacobian`` needs there: ``jacobian(at)`` is the (m, k) Jacobian of
    the residual at the point whose ``residual`` returned ``at``. ``start`` is
    that pair at the starting ``x``, which the caller computes so that it can
    raise its own errors there. ``step(x, delta)`` applies a k-vector update.
    A trial whose residual is not finite, as :func:`pixel_residuals` makes it
    where a point falls outside the depth cut, has a cost that is not finite
    either and is rejected like an uphill one. Stops and finishes as the
    module docstring states, reusing the loop's last Jacobian when ``x`` has
    not moved since; raises :class:`NumericalFailureError` on non-finite
    residuals at the start.
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
            r_new, at_new = residual(x_new)
            cost_new = float(r_new @ r_new)  # a non-finite r_new fails the test below
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
        r_new, at_new = residual(x_new)
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

    Raises :class:`BehindCameraError` naming the first point outside the
    depth cut at the starting pose, which is scored through ``project``, and
    :class:`NumericalFailureError` on non-finite residuals there.
    """
    image, world = split_correspondences(correspondences)
    if image.shape[0] == 0:
        raise ValueError("need at least one correspondence")
    x0 = np.array(initial.position, dtype=float), np.array(initial.attitude, dtype=float)
    rot = initial.rotation_matrix()
    start = (project(initial, cam, world) - image).ravel(), (rot, world @ rot.T + x0[0])
    world_skew = skew_table(world)
    t, q = least_squares(x0, start, lambda x: _trial_residuals(x, world, image, cam),
                         lambda at: reprojection_jacobian(*at, world_skew, cam), _cayley_step)
    return Pose(position=t, attitude=q)
