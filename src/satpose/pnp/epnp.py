"""EPnP: non-iterative O(n) Perspective-n-Point solving of one problem.

Implements the method of Lepetit, Moreno-Noguer and Fua (IJCV 2009) for one
correspondence set with n >= 5, as :func:`epnp`. World points are
expressed as barycentric combinations of four control points (centroid plus
principal directions); the camera-frame control points are a combination of
the four smallest eigenvectors of the projection-constraint normal matrix;
candidate combination weights (betas) are estimated for assumed null-space
dimensions 1..3, from one zero-padded stack of least-squares systems solved
through their normal equations, and each candidate is refined by 10
Gauss-Newton steps on the inter-control-point distance constraints; the
rigid transform then follows from orthogonal Procrustes alignment with
det=+1 enforcement, and the candidate with the lowest reprojection RMS wins.

Near-planar point sets fall back to three control points, which keeps the
barycentric system well conditioned when a face-on solar panel dominates
the correspondences. No RANSAC hypothesis comes from EPnP, since every one
goes to the P3P kernel (:mod:`satpose.pnp.p3p`); :func:`epnp` is the
reference solver that the acceptance suite checks the pipeline against.
This module is a leaf of the solve path: it takes the correspondence
stacking from :mod:`satpose.pnp.refine`, and the per-point score
:func:`~satpose.pnp.p3p.point_errors` and the guarded stacked solve from
:mod:`satpose.pnp.p3p`, and no solve-path module imports from it.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateGeometryError, NoValidPoseError
from ..geometry import CameraIntrinsics, Pose, quat_from_matrix
from .p3p import _finite_or, _solve, point_errors
from .refine import split_correspondences

PLANAR_EIGENVALUE_RATIO = 1e-8
_COLLINEAR_EIGENVALUE_RATIO = 1e-10
_BETA_GN_STEPS = 10
_BETA_GN_DAMPING = 1e-12


def _pair_differences(m: int) -> np.ndarray:
    """(P, m) matrix whose row p takes control point i minus j, for each pair i < j."""
    i, j = np.triu_indices(m, 1)
    return np.eye(m)[i] - np.eye(m)[j]


def _init_systems(k: int):
    """Index tables of the beta-init least-squares systems for basis size k.

    Each system has one column per ``beta_a * beta_b`` monomial, ``(a, b)``:
    dimension 1 takes ``(0, b)`` for every b, dimension 2 takes ``(0, 0),
    (0, 1), (1, 1)`` and, for k = 4, dimension 3 adds ``(0, 2), (1, 2)``.
    Systems are zero-padded to one column count so that one stacked solve of
    their normal equations solves them all; a padded column points at
    ``(0, 0)`` with weight 0. Returns the row and column index tables (S, C),
    the weights (S, C), 2 off the diagonal, where the monomial appears twice
    in ``b^T G b``, and the padding's diagonal (S, C, C): 1 for each padded
    column, so that the normal matrix stays regular and the padded unknowns
    solve to 0.
    """
    systems = [[(0, b) for b in range(k)], [(0, 0), (0, 1), (1, 1)]]
    if k == 4:
        systems.append([(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)])
    width = max(map(len, systems))
    rows = np.zeros((len(systems), width), dtype=np.intp)
    cols = np.zeros_like(rows)
    weights = np.zeros((len(systems), width))
    for s, monomials in enumerate(systems):
        for c, (a, b) in enumerate(monomials):
            rows[s, c], cols[s, c], weights[s, c] = a, b, 1.0 if a == b else 2.0
    padding = np.eye(width) * (weights == 0.0)[:, None]
    return rows, cols, weights, padding


# built once: per control-point count m, the pair differences; per basis
# size k (4 for m = 4, 2 for m = 3), the beta-init system tables and the
# Gauss-Newton damping term, with the Jacobian's factor 2 folded in
_PAIR_DIFFERENCES = {m: _pair_differences(m) for m in (3, 4)}
_INIT_SYSTEMS = {k: _init_systems(k) for k in (2, 4)}
_GN_DAMPING = {k: (_BETA_GN_DAMPING / 4.0) * np.eye(k) for k in (2, 4)}


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked symmetric eigen-decomposition; NaN for non-finite slices."""
    a, ok = _finite_or(a, np.eye(a.shape[-1]))
    lam, vec = np.linalg.eigh(a)
    return np.where(ok[..., None], lam, np.nan), np.where(ok[..., None, None], vec, np.nan)


def _control_frame(world: np.ndarray):
    """Centroid, principal axes (largest first) and eigenvalues of world points (n, 3).

    Also returns whether the points are degenerate (collinear or coincident)
    and whether they are near-planar.
    """
    c0 = world.mean(axis=0)
    centered = world - c0
    lam, vec = _eigh(centered.T @ centered / len(world))  # ascending eigenvalues
    lam, axes = lam[::-1], vec[:, ::-1]
    # written so that NaN eigenvalues count as degenerate
    degenerate = not (lam[0] > 0 and lam[1] > _COLLINEAR_EIGENVALUE_RATIO * lam[0])
    planar = not degenerate and lam[2] < PLANAR_EIGENVALUE_RATIO * lam[0]
    return c0, axes, lam, degenerate, planar


def _null_basis(alphas: np.ndarray, image: np.ndarray, cam: CameraIntrinsics, k: int):
    """Smallest-k eigenvectors (3m, k) of the projection system's normal matrix."""
    n, m = alphas.shape
    system = np.zeros((n, 2, m, 3))  # (point, u/v row, control point, xyz)
    system[:, 0, :, 0] = alphas * cam.fx
    system[:, 1, :, 1] = alphas * cam.fy
    system[:, 0, :, 2] = alphas * (cam.cx - image[:, 0:1])
    system[:, 1, :, 2] = alphas * (cam.cy - image[:, 1:2])
    system = system.reshape(2 * n, 3 * m)
    _, vec = _eigh(system.T @ system)
    return vec[:, :k]


def _distance_terms(basis: np.ndarray) -> np.ndarray:
    """Distance Gram matrices (P, k, k) of the basis (3m, k).

    For betas b, the squared distance between the camera-frame control
    points of pair p is b^T G_p b, with G_p the Gram matrix of the pair's
    basis-vector differences.
    """
    rows, k = basis.shape
    vectors = basis.T.reshape(k, rows // 3, 3)
    dv = (_PAIR_DIFFERENCES[rows // 3] @ vectors).swapaxes(0, 1)  # (P, k, 3)
    return dv @ dv.swapaxes(1, 2)


def _leading_pair(sol: np.ndarray) -> np.ndarray:
    """(beta_1, beta_2) per solution (..., 2) from the [b11 b12 b22] linearisation."""
    b11, b12, b22 = sol[..., 0], sol[..., 1], sol[..., 2]
    sign = np.where(b11 < 0, -1.0, 1.0)
    beta1 = np.sqrt(sign * b11)
    beta2 = np.sqrt(np.maximum(sign * b22, 0.0))
    return np.stack([np.where(b12 < 0, -beta1, beta1), beta2], axis=-1)


def _beta_inits(gram: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Betas (I, k) assuming null-space dimension 1, 2 and, for k = 4, 3."""
    p, k = gram.shape[:2]
    rows, cols, weights, padding = _INIT_SYSTEMS[k]
    # (S, P, C): system s, pair p, monomial column c
    systems = gram[np.arange(p)[:, None], rows[:, None], cols[:, None]] * weights[:, None]
    systems_t = systems.swapaxes(1, 2)
    sol = _solve(systems_t @ systems + padding, systems_t @ rho[:, None])[..., 0]

    inits = np.zeros((len(rows), k))
    # [b11 b12 .. b1k] -> beta = sign(b11) [b11 b12 .. b1k] / sqrt|b11|
    dim1 = sol[0, :k]
    if not abs(dim1[0]) < 1e-15:  # a NaN solution stays NaN
        inits[0] = np.sign(dim1[0]) / np.sqrt(abs(dim1[0])) * dim1
    inits[1:, :2] = _leading_pair(sol[1:, :3])
    if k == 4 and abs(inits[2, 0]) > 1e-15:  # beta_3 from the b13 column of the dimension-3 system
        inits[2, 2] = sol[2, 3] / inits[2, 0]
    return inits


def _gauss_newton(beta: np.ndarray, gram: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the distance constraints b^T G_p b = rho_p, 10 steps.

    Refines each candidate row of ``beta (R, k)`` against the Gram matrices
    ``gram (P, k, k)`` and squared distances ``rho (P,)`` of one problem. A
    row whose damped step is not finite keeps its betas. The Jacobian is
    twice ``G_p b``; the step solves the normal equations with that factor 2
    folded into the damping and the gradient.
    """
    p, k = gram.shape[:2]
    flat = gram.reshape(p * k, k)
    damping = _GN_DAMPING[k]
    # betas and residuals as columns, so that no step reindexes them
    column = beta[:, :, None]
    rho = rho[:, None]
    for _ in range(_BETA_GN_STEPS):
        # half the Jacobian, G_p b (R, P, k), and the residuals b^T G_p b - rho_p
        half = (flat @ column).reshape(-1, p, k)
        residual = half @ column - rho
        half_t = half.swapaxes(1, 2)
        delta = _solve(half_t @ half + damping, half_t @ (-0.5 * residual))
        column = np.where(np.isfinite(delta).all(axis=1, keepdims=True), column + delta, column)
    return column[..., 0]


def _procrustes(world: np.ndarray, camera: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-fit rigid maps world (n, 3) -> camera (R, n, 3), with proper (det=+1) rotations."""
    wc = world.mean(axis=0)
    cc = camera.mean(axis=1)
    h, ok = _finite_or((world - wc).T @ (camera - cc[:, None]), np.eye(3))
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.swapaxes(1, 2), u.swapaxes(1, 2)
    v[:, :, 2] *= np.where(np.linalg.det(v @ ut) < 0, -1.0, 1.0)[:, None]
    rot = np.where(ok[:, None, None], v @ ut, np.nan)
    return rot, cc - rot @ wc


def _candidate_poses(beta, basis, alphas, world, image, cam):
    """Rotation, translation and reprojection RMS per beta row (inf RMS if invalid)."""
    cam_pts = alphas @ (basis @ beta[:, :, None]).reshape(len(beta), -1, 3)
    # beta sign ambiguity: distances are preserved under negation, cheirality is not
    behind = np.count_nonzero(cam_pts[:, :, 2] < 0, axis=1) > len(world) / 2
    cam_pts = np.where(behind[:, None, None], -cam_pts, cam_pts)
    rot, t = _procrustes(world, cam_pts)
    rms = np.sqrt(np.mean(point_errors(rot, t, world, image, cam) ** 2, axis=1))
    rms[~(t[:, 2] > 0) | ~np.isfinite(rms)] = np.inf
    return rot, t, rms


def epnp(correspondences, cam: CameraIntrinsics) -> Pose:
    """Closed-form pose from >= 5 correspondences.

    Raises :class:`DegenerateGeometryError` for collinear world points and
    :class:`NoValidPoseError` when every candidate puts the target behind
    the camera.
    """
    corrs = list(correspondences)
    if len(corrs) < 5:
        raise ValueError(f"EPnP needs at least 5 correspondences, got {len(corrs)}")
    ids = [c.id for c in corrs]
    if len(set(ids)) != len(ids):
        raise ValueError("correspondence ids must be unique")
    image, world = split_correspondences(corrs)
    c0, axes, lam, degenerate, planar = _control_frame(world)
    if degenerate:
        raise DegenerateGeometryError(
            "world points are collinear or coincident; control points undefined"
        )
    m, k = (3, 2) if planar else (4, 4)
    axes, scales = axes[:, : m - 1], np.sqrt(lam[: m - 1])
    ctrl = np.vstack([c0, c0 + scales[:, None] * axes.T])
    # barycentric coordinates in the orthonormal principal frame
    coords = (world - c0) @ axes / scales
    alphas = np.column_stack([1.0 - coords.sum(axis=1), coords])
    rho = np.sum((_PAIR_DIFFERENCES[m] @ ctrl) ** 2, axis=-1)

    basis = _null_basis(alphas, image, cam, k)
    gram = _distance_terms(basis)
    betas = _gauss_newton(_beta_inits(gram, rho), gram, rho)
    rot, t, rms = _candidate_poses(betas, basis, alphas, world, image, cam)
    best = np.argmin(rms)  # the first candidate on ties
    if rms[best] == np.inf:
        raise NoValidPoseError("all EPnP candidates place the target behind the camera")
    return Pose(position=t[best], attitude=quat_from_matrix(rot[best]))
