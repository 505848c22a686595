"""P3P: closed-form poses from three 2D-3D correspondences, for a stack of problems.

Implements Lambda Twist (Persson and Nordberg, ECCV 2018) in
:func:`p3p_stack`. For unit bearings ``y_i`` of three pixels and world
points ``x_i``, the depths ``L = (l1, l2, l3)`` satisfy
``l_i^2 + l_j^2 - 2 b_ij l_i l_j = a_ij`` for each pair, with ``b_ij`` the
bearings' cosine and ``a_ij`` the squared world distance. Two homogeneous
combinations of these quadrics, ``D1 = a23 M12 - a12 M23`` and
``D2 = a23 M13 - a13 M23``, vanish at the solution, and so does every member
of the pencil ``D1 + g D2``. A real root g of the cubic ``det(D1 + g D2)``
makes that member a degenerate conic: with eigenvalues ``s_neg < 0 < s_pos``
it is the pair of planes ``(u_pos -/+ s u_neg)^T L = 0``,
``s = sqrt(-s_neg / s_pos)``. Both steps are closed forms: the cubic's real
root smallest in magnitude comes from Cardano's formula or its
trigonometric form and two Newton steps, and since the conic's third
eigenvalue is 0, ``s_neg`` and ``s_pos`` are the roots of a quadratic in its
trace and principal minors, with eigenvectors from the adjugate of
``D0 - s I`` (the reference code's ``eigwithknown0``). On each plane ``l1``
is linear in ``l2`` and ``l3``, so the quadrics combined as
``a13 (12) - a12 (13)`` give a quadratic in ``l3 / l2``, and the ``23``
quadric gives the scale: up to four depth triples. Each pose comes from the
triangle's orthonormal frames in both coordinate systems, so it is a
rotation whatever the round-off in the depths.

:func:`p3p_hypotheses` is RANSAC's one hypothesis kernel, for the all-point
hypothesis and the random minimal samples alike. It solves P3P on each point
set's first three points, keeps the root with the lowest summed squared
reprojection error over all of the set's points, and takes one Gauss-Newton
step over them with LM's Jacobian and Cayley increment, stacked
(:mod:`satpose.pnp.refine`). A row keeps the step only where it is finite
and lowers that error.

The P3P problems are solved one by one, by the same scalar code on Python
floats, so each problem's roots do not depend on the others in the stack by
construction; a stack costs its rows, with no fixed cost of numpy
dispatches on short arrays. The root choice and the Gauss-Newton step stay
stacked: elementwise operations, reductions over a short last axis, and
stacked matmul and guarded LAPACK calls, each row apart from the others.

The root choice and :func:`point_errors`, RANSAC's per-point inlier score,
which the EPnP reference solver also uses, both score a stacked rigid
transform through :func:`~satpose.geometry.camera_pixels`, the one masked
projection. The guarded stacked solve ``_solve`` serves the Gauss-Newton
step and EPnP alike.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import CameraIntrinsics, camera_pixels
# bound here, so that LM alone calls the name the benchmark's tracer counts
from .refine import cayley_rotate, reprojection_jacobian, skew_table

# squared sine below which a triangle's edges count as collinear
_COLLINEAR_SINE_SQ = 1e-10
_THIRD_TURN = 2.0 * math.pi / 3.0


def _pencil_root(p2: float, p1: float, p0: float) -> float:
    """The real root of ``g^3 + p2 g^2 + p1 g + p0`` smallest in magnitude.

    Cardano's formula where the cubic has one real root, the trigonometric
    form where it has three, then two Newton steps. Not finite where a
    coefficient is not.
    """
    shift = p2 / 3.0
    # the depressed cubic z^3 + p z + q in z = g + shift
    third_p = (p1 - 3.0 * shift * shift) / 3.0
    half_q = 0.5 * (shift * (2.0 * shift * shift - p1) + p0)
    disc = half_q * half_q + third_p * third_p * third_p
    if disc > 0.0:
        # one real root u + v with u v = -p / 3; u is the term free of cancellation
        u = -math.copysign((abs(half_q) + math.sqrt(disc)) ** (1.0 / 3.0), half_q)
        g = (u - third_p / u if u != 0.0 else u) - shift
    elif third_p < 0.0:
        # three real roots 2 m cos(theta - 2 pi k / 3), cos(3 theta) = -q / (2 m^3)
        m = math.sqrt(-third_p)
        cube = m * m * m
        cos3 = -half_q / cube if cube > 0.0 else 0.0
        theta = math.acos(min(1.0, max(-1.0, cos3))) / 3.0
        g = 2.0 * m * math.cos(theta) - shift
        for other in (2.0 * m * math.cos(theta - _THIRD_TURN) - shift,
                      2.0 * m * math.cos(theta + _THIRD_TURN) - shift):
            if abs(other) < abs(g):
                g = other
    else:  # a triple root, or a coefficient not finite
        g = -shift
    for _ in range(2):
        slope = (3.0 * g + 2.0 * p2) * g + p1
        if slope != 0.0:
            g -= (((g + p2) * g + p1) * g + p0) / slope
    return g


def _eigenvector(m00, m01, m02, m11, m12, m22, lam):
    """Unit eigenvector of a symmetric 3x3 matrix for its simple eigenvalue ``lam``.

    ``M - lam I`` has rank 2, so every column of its adjugate lies along the
    eigenvector; the one with the largest diagonal entry is the longest.
    None where that column is zero or not finite.
    """
    a, d, f = m00 - lam, m11 - lam, m22 - lam
    c00, c11, c22 = d * f - m12 * m12, a * f - m02 * m02, a * d - m01 * m01
    c01, c02, c12 = m02 * m12 - m01 * f, m01 * m12 - m02 * d, m01 * m02 - a * m12
    d00, d11, d22 = abs(c00), abs(c11), abs(c22)
    if d00 >= d11 and d00 >= d22:
        column = c00, c01, c02
    elif d11 >= d22:
        column = c01, c11, c12
    else:
        column = c02, c12, c22
    norm = math.hypot(*column)
    if not 0.0 < norm < math.inf:
        return None
    return column[0] / norm, column[1] / norm, column[2] / norm


_NO_ROOTS = (math.nan,) * 48


def _lambda_twist(pixels, points, fx, fy, cx, cy):
    """One problem's four roots as 48 Python floats, each R row-major and then t.

    As :func:`p3p_stack` states, NaN where a root is not valid. Every
    divisor and square-root argument is checked before use, since Python
    raises where numpy returns NaN: a degenerate problem has no root.
    """
    (u1, v1), (u2, v2), (u3, v3) = pixels
    x, y = (u1 - cx) / fx, (v1 - cy) / fy
    norm = math.hypot(x, y, 1.0)  # at least 1, or not finite
    r10, r11, r12 = x / norm, y / norm, 1.0 / norm
    x, y = (u2 - cx) / fx, (v2 - cy) / fy
    norm = math.hypot(x, y, 1.0)
    r20, r21, r22 = x / norm, y / norm, 1.0 / norm
    x, y = (u3 - cx) / fx, (v3 - cy) / fy
    norm = math.hypot(x, y, 1.0)
    r30, r31, r32 = x / norm, y / norm, 1.0 / norm
    b12 = r10 * r20 + r11 * r21 + r12 * r22
    b13 = r10 * r30 + r11 * r31 + r12 * r32
    b23 = r20 * r30 + r21 * r31 + r22 * r32

    (x10, x11, x12), (x20, x21, x22), (x30, x31, x32) = points
    # the world frame, rows f1 along the edge 1-2, f2, and f3 along the normal
    d0, d1, d2 = x20 - x10, x21 - x11, x22 - x12
    h0, h1, h2 = x30 - x10, x31 - x11, x32 - x12
    f30, f31, f32 = d1 * h2 - d2 * h1, d2 * h0 - d0 * h2, d0 * h1 - d1 * h0
    l12, l13, normal = math.hypot(d0, d1, d2), math.hypot(h0, h1, h2), math.hypot(f30, f31, f32)
    l23 = math.hypot(x30 - x20, x31 - x21, x32 - x22)
    # a collinear or coincident world triangle has no pose; NaN counts as either
    if not (0.0 < l12 * l13 < math.inf and 0.0 < l23 < math.inf and normal < math.inf):
        return _NO_ROOTS
    sine = normal / (l12 * l13)
    if not sine * sine > _COLLINEAR_SINE_SQ:
        return _NO_ROOTS
    f10, f11, f12 = d0 / l12, d1 / l12, d2 / l12
    f30, f31, f32 = f30 / normal, f31 / normal, f32 / normal
    f20, f21, f22 = f31 * f12 - f32 * f11, f32 * f10 - f30 * f12, f30 * f11 - f31 * f10
    # squared distances a_ij in units of a23
    a12, a13 = l12 / l23, l13 / l23
    a12, a13 = a12 * a12, a13 * a13

    # det(D1 + g D2) / -a23^3, with s_ij = 1 - b_ij^2
    s12, s13, s23 = 1.0 - b12 * b12, 1.0 - b13 * b13, 1.0 - b23 * b23
    c3 = a13 * (s13 - a13 * s23)
    if c3 == 0.0:
        return _NO_ROOTS
    both = 2.0 * (1.0 - b12 * b13 * b23)
    c2 = s13 * (a12 - 1.0) - a13 * s23 * (2.0 * a12 + a13) + a13 * both
    c1 = s12 * (a13 - 1.0) - a12 * s23 * (2.0 * a13 + a12) + a12 * both
    c0 = a12 * (s12 - a12 * s23)
    g = _pencil_root(c2 / c3, c1 / c3, c0 / c3)

    # D0 = (D1 + g D2) / a23, D1 = a23 M12 - a12 M23 and D2 = a23 M13 - a13 M23
    m00, m01, m02 = 1.0 + g, -b12, -g * b13
    m11, m12, m22 = 1.0 - a12 - g * a13, b23 * (a12 + g * a13), g * (1.0 - a13) - a12
    # D0's eigenvalues are 0 and the roots of s^2 - trace s + minors
    trace = m00 + m11 + m22
    minors = m00 * m11 - m01 * m01 + m00 * m22 - m02 * m02 + m11 * m22 - m12 * m12
    if not minors < 0.0:  # no plane pair: the roots do not straddle 0, or NaN
        return _NO_ROOTS
    # trace^2 - 4 minors > 0, so the root larger in magnitude is not 0
    large = 0.5 * (trace + math.copysign(math.sqrt(trace * trace - 4.0 * minors), trace))
    s_neg, s_pos = (large, minors / large) if large < 0.0 else (minors / large, large)
    if not s_neg < 0.0 < s_pos:
        return _NO_ROOTS
    u_neg = _eigenvector(m00, m01, m02, m11, m12, m22, s_neg)
    u_pos = _eigenvector(m00, m01, m02, m11, m12, m22, s_pos)
    if u_neg is None or u_pos is None:
        return _NO_ROOTS
    s = math.sqrt(-s_neg / s_pos)

    k, a12b13, a13b12 = a13 - a12, 2.0 * a12 * b13, 2.0 * a13 * b12
    cw0, cw1, cw2 = (x10 + x20 + x30) / 3.0, (x11 + x21 + x31) / 3.0, (x12 + x22 + x32) / 3.0
    roots = list(_NO_ROOTS)
    # the planes (u_pos - s u_neg) . L = 0, then (u_pos + s u_neg) . L = 0
    for plane, sign in ((0, -s), (24, s)):
        p0 = u_pos[0] + sign * u_neg[0]
        if p0 == 0.0:
            continue
        # on the plane l1 = w0 l2 + w1 l3
        w0, w1 = -(u_pos[1] + sign * u_neg[1]) / p0, -(u_pos[2] + sign * u_neg[2]) / p0
        # a13 (12) - a12 (13) with l1 = (w0 + w1 tau) l2 and l3 = tau l2
        qa = (k * w1 + a12b13) * w1 - a12
        qb = 2.0 * k * w0 * w1 - a13b12 * w1 + a12b13 * w0
        qc = (k * w0 - a13b12) * w0 + a13
        disc = qb * qb - 4.0 * qa * qc
        q = -0.5 * (qb + math.copysign(math.sqrt(disc) if disc > 0.0 else 0.0, qb))
        for at, num, den in ((plane, q, qa), (plane + 12, qc, q)):
            if den == 0.0:
                continue
            tau = num / den
            scale = (tau - 2.0 * b23) * tau + 1.0  # l2^2 / a23, from the 23 quadric
            if not scale > 0.0:
                continue
            l2 = l23 / math.sqrt(scale)
            l1, l3 = (w0 + w1 * tau) * l2, tau * l2
            if not (0.0 < l1 < math.inf and 0.0 < l2 < math.inf and 0.0 < l3 < math.inf):
                continue
            p10, p11, p12 = l1 * r10, l1 * r11, l1 * r12
            p20, p21, p22 = l2 * r20, l2 * r21, l2 * r22
            p30, p31, p32 = l3 * r30, l3 * r31, l3 * r32
            # the camera-side frame, rows e1 along the edge 1-2, e2, and e3 along the normal
            d0, d1, d2 = p20 - p10, p21 - p11, p22 - p12
            h0, h1, h2 = p30 - p10, p31 - p11, p32 - p12
            e30, e31, e32 = d1 * h2 - d2 * h1, d2 * h0 - d0 * h2, d0 * h1 - d1 * h0
            edge, normal = math.hypot(d0, d1, d2), math.hypot(e30, e31, e32)
            if not (0.0 < edge < math.inf and 0.0 < normal < math.inf):
                continue
            e10, e11, e12 = d0 / edge, d1 / edge, d2 / edge
            e30, e31, e32 = e30 / normal, e31 / normal, e32 / normal
            e20, e21, e22 = e31 * e12 - e32 * e11, e32 * e10 - e30 * e12, e30 * e11 - e31 * e10
            # R = E^T F for the camera frame's rows E and the world frame's rows F
            rot = (e10 * f10 + e20 * f20 + e30 * f30, e10 * f11 + e20 * f21 + e30 * f31,
                   e10 * f12 + e20 * f22 + e30 * f32, e11 * f10 + e21 * f20 + e31 * f30,
                   e11 * f11 + e21 * f21 + e31 * f31, e11 * f12 + e21 * f22 + e31 * f32,
                   e12 * f10 + e22 * f20 + e32 * f30, e12 * f11 + e22 * f21 + e32 * f31,
                   e12 * f12 + e22 * f22 + e32 * f32)
            roots[at:at + 12] = rot + (
                (p10 + p20 + p30) / 3.0 - (rot[0] * cw0 + rot[1] * cw1 + rot[2] * cw2),
                (p11 + p21 + p31) / 3.0 - (rot[3] * cw0 + rot[4] * cw1 + rot[5] * cw2),
                (p12 + p22 + p32) / 3.0 - (rot[6] * cw0 + rot[7] * cw1 + rot[8] * cw2),
            )
    return roots


def p3p_stack(image, world, cam: CameraIntrinsics):
    """Solve H independent P3P problems, one by one.

    Takes ``image (H, 3, 2)`` pixels and ``world (H, 3, 3)`` body-frame
    points, and returns ``R (H, 4, 3, 3)`` and ``t (H, 4, 3)``: up to four
    poses per problem that put the three points on their rays in front of
    the camera and keep their distances. R and t are NaN where a root is not
    valid, and every root of a collinear or coincident triangle is invalid,
    as is every root of a problem whose pencil root gives no plane pair (the
    conic's nonzero eigenvalues share a sign). A quadratic's discriminant is
    clamped at zero, so that round-off cannot drop a double root; the
    spurious roots this can add near one are left for the caller to tell
    apart by other points.
    """
    camera = float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy)
    image, world = np.asarray(image, dtype=float), np.asarray(world, dtype=float)
    roots = []
    for pixels, points in zip(image.tolist(), world.tolist()):
        roots += _lambda_twist(pixels, points, *camera)
    roots = np.fromiter(roots, float, len(roots)).reshape(-1, 4, 12)
    return roots[..., :9].reshape(-1, 4, 3, 3), roots[..., 9:]


def _finite_or(a: np.ndarray, fill) -> tuple[np.ndarray, np.ndarray]:
    """Swap matrix slices holding non-finite values for ``fill``; mask of kept slices."""
    ok = np.isfinite(a).all(axis=(-2, -1))
    if not ok.all():
        a = np.where(ok[..., None, None], a, fill)
    return a, ok


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked ``a x = b`` for columns ``b (..., k, m)``; NaN for non-finite or singular slices."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        # LAPACK fails the whole stack on one bad slice; det factors every
        # slice the same way and reads exactly 0 for the singular ones
        eye = np.eye(a.shape[-1])
        a, ok = _finite_or(a, eye)
        ok &= np.linalg.det(a) != 0.0
        ok &= np.isfinite(b).all(axis=(-2, -1))
        a = np.where(ok[..., None, None], a, eye)
        x = np.linalg.solve(a, np.where(ok[..., None, None], b, 0.0))
        return np.where(ok[..., None, None], x, np.nan)


def point_errors(
    rot: np.ndarray, t: np.ndarray, world: np.ndarray, image: np.ndarray, cam: CameraIntrinsics
) -> np.ndarray:
    """Per-point reprojection error norms (..., n); inf outside the depth cut.

    The cut is :func:`~satpose.geometry.camera_pixels`', the one ``project``
    raises at, so a point scored here as an inlier never fails refinement
    from this pose.

    ``rot (..., 3, 3)`` and ``t (..., 3)`` broadcast against ``world (..., n, 3)``
    and ``image (..., n, 2)``; a non-finite pose gives inf everywhere.
    """
    uv, front = camera_pixels(world @ rot.swapaxes(-1, -2) + t[..., None, :], cam)
    error = np.hypot(uv[..., 0] - image[..., 0], uv[..., 1] - image[..., 1])
    return np.where(front, error, np.inf)


def _residuals(rot, t, world, image, cam: CameraIntrinsics):
    """Camera-frame points, pixel residuals (..., n, 2) and their summed squares.

    ``rot``, ``t`` and ``world`` broadcast as in :func:`point_errors`. The sum
    is inf where a point is outside the depth cut of
    :func:`~satpose.geometry.camera_pixels`, and where it is not finite.
    """
    cam_pts = world @ rot.swapaxes(-1, -2) + t[..., None, :]
    uv, front = camera_pixels(cam_pts, cam)
    residual = uv - image
    cost = (residual * residual).reshape(uv.shape[:-2] + (-1,)).sum(axis=-1)
    cost = np.where(front.all(axis=-1) & (cost < np.inf), cost, np.inf)
    return cam_pts, residual, cost


def _gauss_newton_step(rot, t, world, cam_pts, residual, cam: CameraIntrinsics):
    """One stacked Gauss-Newton step (R', t') from poses (H, 3, 3), (H, 3).

    ``cam_pts`` and ``residual`` are the pose's from :func:`_residuals`. NaN
    where the normal equations are singular or not finite.
    """
    h = len(rot)
    jac = reprojection_jacobian(rot, cam_pts, skew_table(world), cam)
    jac_t = jac.swapaxes(1, 2)
    delta = _solve(jac_t @ jac, -(jac_t @ residual.reshape(h, -1, 1)))[..., 0]
    return cayley_rotate(rot, delta[:, 3:]), t + delta[:, :3]


def p3p_hypotheses(image, world, cam: CameraIntrinsics):
    """One pose hypothesis for each of H point sets, as the module docstring states.

    Takes ``image (H, n, 2)`` and ``world (H, n, 3)`` with n >= 4: RANSAC's
    minimal samples, or one set of all of a record's points. Returns
    ``R (H, 3, 3)`` and ``t (H, 3)``, NaN for a set without a pose: P3P has
    no valid root (the first three world points collinear or coincident, or
    an input not finite), or no root puts every point of the set in front of
    the camera at a finite error. Each set's result does not depend on the
    others in the stack.
    """
    image = np.ascontiguousarray(image, dtype=float)
    world = np.ascontiguousarray(world, dtype=float)
    h = len(world)
    rows = np.arange(h)
    roots, shifts = p3p_stack(image[:, :3], world[:, :3], cam)
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
