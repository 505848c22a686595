"""P3P: closed-form poses from three 2D-3D correspondences, stacked over problems.

Implements Lambda Twist (Persson and Nordberg, ECCV 2018) as one array
kernel, :func:`p3p_stack`. For unit bearings ``y_i`` of three pixels and
world points ``x_i``, the depths ``L = (l1, l2, l3)`` satisfy
``l_i^2 + l_j^2 - 2 b_ij l_i l_j = a_ij`` for each pair, with ``b_ij`` the
bearings' cosine and ``a_ij`` the squared world distance. Two homogeneous
combinations of these quadrics, ``D1 = a23 M12 - a12 M23`` and
``D2 = a23 M13 - a13 M23``, vanish at the solution, and so does every member
of the pencil ``D1 + g D2``. A real root g of the cubic ``det(D1 + g D2)``
(a real eigenvalue of its companion matrix) makes that member a degenerate
conic: with eigenvalues ``s_neg < 0 < s_pos`` it is the pair of planes
``(u_pos -/+ s u_neg)^T L = 0``, ``s = sqrt(-s_neg / s_pos)``. On each plane
``l1`` is linear in ``l2`` and ``l3``, so the quadrics combined as
``a13 (12) - a12 (13)`` give a quadratic in ``l3 / l2``, and the ``23``
quadric gives the scale: up to four depth triples. Each pose comes from the
triangle's orthonormal frames in both coordinate systems, so it is a
rotation whatever the round-off in the depths.

:func:`p3p_hypotheses` is RANSAC's one hypothesis kernel, for the all-point
hypothesis and for the random minimal samples alike. It solves P3P on each
point set's first three points, keeps the root with the lowest summed
squared reprojection error over all of the set's points, and takes one
Gauss-Newton step over those points with the right-composed attitude
increment that :func:`satpose.pnp.refine.reprojection_jacobian`
differentiates. A row keeps the step only where it is finite and lowers
that error.

Every operation is elementwise, a reduction over a short last axis, or a
stacked LAPACK or matmul call over slices of one layout, and non-finite or
singular slices are guarded, so each problem's result does not depend on
the others in the stack. Only square roots are taken: no transcendental
function, whose vectorised and scalar forms may round differently, is
called.
"""

from __future__ import annotations

import numpy as np

from ..geometry import MIN_PROJECTION_DEPTH, CameraIntrinsics, pinhole, pinhole_jacobian
from .epnp import _eigh, _finite_or, _solve
from .refine import skew_table

# squared sine below which a triangle's edges count as collinear
_COLLINEAR_SINE_SQ = 1e-10

# the triangle's edges 1-2, 1-3 and 2-3, and the index rolls of a cross product
_TAIL, _HEAD = np.array([0, 0, 1]), np.array([1, 2, 2])
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])
# the two planes of a degenerate conic, u_pos - s u_neg and u_pos + s u_neg
_PLANE_SIGNS = np.array([-1.0, 1.0])[:, None]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the last axis, elementwise."""
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def _pencil_root(a12, a13, a23, b12, b13, b23) -> np.ndarray:
    """A real root g (H,) of ``det(D1 + g D2)``; NaN if none is found.

    Divided by ``-a23`` and with ``s_ij = 1 - b_ij^2``, the cubic's
    coefficients are ``a13 (a23 s13 - a13 s23)`` for g^3 and
    ``a23 s13 (a12 - a23) - a13 s23 (2 a12 + a13) + 2 a13 a23 (1 - b12 b13 b23)``
    for g^2; swapping the point labels 2 and 3 turns these into the
    coefficients of g^0 and g^1. The roots are the eigenvalues of the
    companion matrix. Of the real ones the smallest in magnitude is taken,
    so that ``D1 + g D2`` keeps D1's share of the digits.
    """
    h = len(a12)
    s12, s13, s23 = 1.0 - b12 * b12, 1.0 - b13 * b13, 1.0 - b23 * b23
    c3 = a13 * (a23 * s13 - a13 * s23)
    both = 2.0 * a23 * (1.0 - b12 * b13 * b23)
    c2 = a23 * s13 * (a12 - a23) - a13 * s23 * (2.0 * a12 + a13) + a13 * both
    c1 = a23 * s12 * (a13 - a23) - a12 * s23 * (2.0 * a13 + a12) + a12 * both
    companion = np.zeros((h, 3, 3))
    companion[:, 0, 0] = -c2 / c3
    companion[:, 0, 1] = -c1 / c3
    companion[:, 0, 2] = -a12 * (a23 * s12 - a12 * s23) / c3
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion, ok = _finite_or(companion, np.eye(3))
    roots = np.linalg.eigvals(companion)
    # a real 3x3 matrix has a real eigenvalue, which LAPACK returns with imaginary part 0
    size = np.where(roots.imag == 0.0, np.abs(roots.real), np.inf)
    root = roots.real[np.arange(h), size.argmin(axis=1)]
    return np.where(ok, root, np.nan)


def p3p_stack(image, world, cam: CameraIntrinsics):
    """Solve H independent P3P problems at once.

    Takes ``image (H, 3, 2)`` pixels and ``world (H, 3, 3)`` body-frame
    points, and returns ``R (H, 4, 3, 3)``, ``t (H, 4, 3)`` and a validity
    mask ``(H, 4)``: up to four poses per problem that put the three points
    on their rays in front of the camera and keep their distances. R and t
    are NaN where a root is not valid, and every root of a collinear or
    coincident triangle is invalid. A quadratic's discriminant is clamped
    at zero, so that round-off cannot drop a double root; the spurious
    roots this can add near one are left for the caller to tell apart by
    other points. Each problem's result does not depend on the others in
    the stack.
    """
    image = np.ascontiguousarray(image, dtype=float)
    world = np.ascontiguousarray(world, dtype=float)
    h = len(world)
    with np.errstate(all="ignore"):  # degenerate rows run to NaN and are masked below
        ray = np.empty((h, 3, 3))
        ray[..., 0] = (image[..., 0] - cam.cx) / cam.fx
        ray[..., 1] = (image[..., 1] - cam.cy) / cam.fy
        ray[..., 2] = 1.0
        ray /= np.sqrt((ray * ray).sum(axis=-1))[..., None]
        cosines = ray @ ray.swapaxes(1, 2)
        b12, b13, b23 = cosines[:, 0, 1], cosines[:, 0, 2], cosines[:, 1, 2]
        edges = world[:, _HEAD] - world[:, _TAIL]  # x2 - x1, x3 - x1, x3 - x2
        a12, a13, a23 = (edges * edges).sum(axis=-1).T
        gamma = _pencil_root(a12, a13, a23, b12, b13, b23)

        # D1 + g D2, D1 = a23 M12 - a12 M23 and D2 = a23 M13 - a13 M23
        conic = np.empty((h, 3, 3))
        conic[:, 0, 0] = a23 * (1.0 + gamma)
        conic[:, 0, 1] = conic[:, 1, 0] = -a23 * b12
        conic[:, 0, 2] = conic[:, 2, 0] = -gamma * a23 * b13
        conic[:, 1, 1] = a23 - a12 - gamma * a13
        conic[:, 1, 2] = conic[:, 2, 1] = b23 * (a12 + gamma * a13)
        conic[:, 2, 2] = gamma * (a23 - a13) - a12
        sigma, vec = _eigh(conic)  # ascending: s_neg, ~0, s_pos
        s = np.sqrt(-sigma[:, 0] / sigma[:, 2])
        plane = vec[:, None, :, 2] + _PLANE_SIGNS * s[:, None, None] * vec[:, None, :, 0]
        # on each plane (H, 2): l1 = w0 l2 + w1 l3
        w0, w1 = -plane[..., 1] / plane[..., 0], -plane[..., 2] / plane[..., 0]
        # a13 (12) - a12 (13) with l1 = (w0 + w1 tau) l2 and l3 = tau l2
        k, a12, a13 = (a13 - a12)[:, None], a12[:, None], a13[:, None]
        a12b13, a13b12 = 2.0 * a12 * b13[:, None], 2.0 * a13 * b12[:, None]
        qa = (k * w1 + a12b13) * w1 - a12
        qb = 2.0 * k * w0 * w1 - a13b12 * w1 + a12b13 * w0
        qc = (k * w0 - a13b12) * w0 + a13
        root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
        q = -0.5 * (qb + np.copysign(root, qb))
        tau = np.empty((h, 2, 2))
        tau[..., 0], tau[..., 1] = q / qa, qc / q
        tau = tau.reshape(h, 4)
        l2 = np.sqrt(a23[:, None] / ((tau - 2.0 * b23[:, None]) * tau + 1.0))
        lam = np.empty((h, 4, 3))
        lam[..., 0] = (w0.repeat(2, axis=1) + w1.repeat(2, axis=1) * tau) * l2
        lam[..., 1], lam[..., 2] = l2, tau * l2

        # orthonormal triangle frames, rows e1 along the first edge, e2, and e3
        # along the normal: four on the camera side, then the world's
        cam_pts = lam[..., None] * ray[:, None]  # (H, 4, 3, 3)
        tri = np.concatenate([cam_pts[:, :, 1:] - cam_pts[:, :, :1], edges[:, None, :2]], axis=1)
        frames = np.empty((h, 5, 3, 3))
        e1, normal = tri[:, :, 0], _cross(tri[:, :, 0], tri[:, :, 1])
        normal_sq = (normal * normal).sum(axis=-1)
        frames[:, :, 0] = e1 / np.sqrt((e1 * e1).sum(axis=-1))[..., None]
        frames[:, :, 2] = normal / np.sqrt(normal_sq)[..., None]
        frames[:, :, 1] = _cross(frames[:, :, 2], frames[:, :, 0])
        rot = frames[:, :4].swapaxes(-1, -2) @ frames[:, 4:]
        centre_cam = (cam_pts[:, :, 0] + cam_pts[:, :, 1] + cam_pts[:, :, 2]) / 3.0
        centre_world = (world[:, 0] + world[:, 1] + world[:, 2]) / 3.0
        t = centre_cam - (rot @ centre_world[:, None, :, None])[..., 0]
        # a collinear or coincident world triangle has no pose; written so
        # that NaN counts as degenerate
        triangle = normal_sq[:, 4] > _COLLINEAR_SINE_SQ * a12[:, 0] * a13[:, 0]
        valid = ((lam > 0.0) & (lam < np.inf)).all(axis=-1) & triangle[:, None]
    rot = np.where(valid[..., None, None], rot, np.nan)
    t = np.where(valid[..., None], t, np.nan)
    return rot, t, valid


def _residuals(rot, t, world, image, cam: CameraIntrinsics):
    """Camera-frame points, pixel residuals (..., n, 2) and their summed squares.

    The sum is inf where a point's depth is at or below
    ``MIN_PROJECTION_DEPTH``, the depth ``project`` rejects at, and where it
    is not finite.
    """
    cam_pts = world @ rot.swapaxes(-1, -2) + t[..., None, :]
    z = cam_pts[..., 2]
    u, v = pinhole(cam_pts[..., 0], cam_pts[..., 1], z, cam)
    residual = np.empty(u.shape + (2,))
    residual[..., 0] = u - image[..., 0]
    residual[..., 1] = v - image[..., 1]
    cost = (residual * residual).reshape(u.shape[:-1] + (-1,)).sum(axis=-1)
    cost = np.where((z > MIN_PROJECTION_DEPTH).all(axis=-1) & (cost < np.inf), cost, np.inf)
    return cam_pts, residual, cost


def _jacobian(rot, world, cam_pts, cam: CameraIntrinsics) -> np.ndarray:
    """Stacked (H, 2n, 6) Jacobians of pixel residuals at poses ``rot`` (H, 3, 3).

    Columns and rows are those of ``reprojection_jacobian``: [dt, dtheta]
    for t + dt, R exp([dtheta]_x), rows du, dv per point. Since
    d(camera point)/d(dtheta) = -R [w]_x, a pixel row's attitude part is
    ``w x (g R)``, with g that row of the pinhole derivative.
    """
    h, n = world.shape[:2]
    duv_dp = pinhole_jacobian(cam_pts.reshape(h * n, 3), cam).reshape(h, n, 2, 3)
    duv_dtheta = _cross(world[:, :, None], duv_dp @ rot[:, None])
    return np.concatenate([duv_dp, duv_dtheta], axis=-1).reshape(h, 2 * n, 6)


def _gauss_newton_step(rot, t, world, cam_pts, residual, cam: CameraIntrinsics):
    """One stacked Gauss-Newton step (R', t') from poses (H, 3, 3), (H, 3).

    ``cam_pts`` and ``residual`` are the pose's from :func:`_residuals`. The
    attitude increment is applied as the Cayley rotation of half of it,
    ``(I - [c]_x)^-1 (I + [c]_x)``, which agrees with exp to second order
    and needs no transcendental function. NaN where the normal equations
    are singular or not finite.
    """
    h = len(rot)
    jac = _jacobian(rot, world, cam_pts, cam)
    jac_t = jac.swapaxes(1, 2)
    delta = _solve(jac_t @ jac, -(jac_t @ residual.reshape(h, -1, 1)))[..., 0]
    half = 0.5 * delta[:, 3:]
    skew = skew_table(half)
    scale = 2.0 / (1.0 + (half * half).sum(axis=-1))
    return rot + rot @ (scale[:, None, None] * (skew + skew @ skew)), t + delta[:, :3]


def p3p_hypotheses(image, world, cam: CameraIntrinsics):
    """One pose hypothesis for each of H point sets.

    Takes ``image (H, n, 2)`` and ``world (H, n, 3)`` with n >= 4: RANSAC's
    minimal samples, or one set of all of a record's points. P3P solves each
    set's first three points; of its roots, the one with the lowest summed
    squared reprojection error over all n points is kept, and one
    Gauss-Newton step over the n points is taken where it is finite and
    lowers that error. Returns ``R (H, 3, 3)`` and ``t (H, 3)``, NaN for a
    set without a pose: P3P has no valid root (the first three world points
    collinear or coincident, or an input not finite), or no root puts every
    point of the set in front of the camera at a finite error. Each set's
    result does not depend on the others in the stack.
    """
    image = np.ascontiguousarray(image, dtype=float)
    world = np.ascontiguousarray(world, dtype=float)
    h = len(world)
    rows = np.arange(h)
    roots, shifts, _ = p3p_stack(image[:, :3], world[:, :3], cam)
    with np.errstate(all="ignore"):  # rows without a root run to NaN, and score inf
        cam_pts, residual, cost = _residuals(roots, shifts, world[:, None], image[:, None], cam)
        best = cost.argmin(axis=1)
        rot, t, cost = roots[rows, best], shifts[rows, best], cost[rows, best]
        stepped = _gauss_newton_step(rot, t, world, cam_pts[rows, best], residual[rows, best], cam)
        better = _residuals(*stepped, world, image, cam)[2] < cost
    rot = np.where(better[:, None, None], stepped[0], rot)
    t = np.where(better[:, None], stepped[1], t)
    found = cost < np.inf
    if not found.all():
        rot[~found], t[~found] = np.nan, np.nan
    return rot, t
