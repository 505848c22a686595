"""EPnP: non-iterative O(n) Perspective-n-Point solving, stacked over problems.

Implements the method of Lepetit, Moreno-Noguer and Fua (IJCV 2009) as one
array kernel, :func:`epnp_stack`, that solves H independent problems given
as ``image (H, n, 2)`` and ``world (H, n, 3)``. World points are expressed as
barycentric combinations of four control points (centroid plus principal
directions); the camera-frame control points are a combination of the four
smallest eigenvectors of the projection-constraint normal matrix; candidate
combination weights (betas) are estimated for assumed null-space dimensions
1..3, from one zero-padded stack of least-squares systems, and all of them
are refined together by Gauss-Newton on the inter-control-point distance
constraints, each row stopping once its constraints hold to round-off or
after 10 steps; the rigid transform then follows
from orthogonal Procrustes alignment with det=+1 enforcement, and the
candidate with the lowest reprojection RMS wins.

Near-planar point sets fall back to three control points, which keeps the
barycentric system well conditioned when a face-on solar panel dominates
the correspondences; problems are grouped by control-point count. Every
stacked linear-algebra call is guarded per problem, so one degenerate
problem never fails the others. :func:`epnp` is the single-problem entry
point over a correspondence list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateGeometryError, NoValidPoseError
from ..geometry import (
    MIN_PROJECTION_DEPTH,
    CameraIntrinsics,
    Pose,
    _finite,
    pinhole,
    quat_from_matrix,
)

PLANAR_EIGENVALUE_RATIO = 1e-8
_COLLINEAR_EIGENVALUE_RATIO = 1e-10
_BETA_GN_STEPS = 10
_BETA_GN_DAMPING = 1e-12
# a row stops once its distance residual norm is at most this times |rho|
_BETA_GN_ROUNDOFF = 1e-12
# restart offsets along each curvature direction, in units of |beta|
_RESTART_OFFSETS = np.array(
    [sign * step for step in (0.05, 0.2, 0.5, 1.0) for sign in (1.0, -1.0)]
)


def _pair_differences(m: int) -> np.ndarray:
    """(P, m) matrix whose row p takes control point i minus j, for each pair i < j."""
    i, j = np.triu_indices(m, 1)
    return np.eye(m)[i] - np.eye(m)[j]


def _init_systems(k: int):
    """Index tables of the beta-init least-squares systems for basis size k.

    Each system has one column per ``beta_a * beta_b`` monomial, ``(a, b)``:
    dimension 1 takes ``(0, b)`` for every b, dimension 2 takes ``(0, 0),
    (0, 1), (1, 1)`` and, for k = 4, dimension 3 adds ``(0, 2), (1, 2)``.
    Systems are zero-padded to one column count so that one SVD call solves
    them all; a padded column points at ``(0, 0)`` with weight 0, and
    ``lstsq``'s cutoff ``max(rows, cols)`` is the same as unpadded.
    Returns the row and column index tables (S, C) and the weights (S, C):
    2 off the diagonal, where the monomial appears twice in ``b^T G b``.
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
    return rows, cols, weights


# built once: per control-point count m, the pair differences; per basis
# size k (4 for m = 4, 2 for m = 3), the beta-init system tables and the
# Gauss-Newton damping term, with the Jacobian's factor 2 folded in
_PAIR_DIFFERENCES = {m: _pair_differences(m) for m in (3, 4)}
_INIT_SYSTEMS = {k: _init_systems(k) for k in (2, 4)}
_GN_DAMPING = {k: (_BETA_GN_DAMPING / 4.0) * np.eye(k) for k in (2, 4)}

# per-problem status returned by epnp_stack
EPNP_OK = 0
EPNP_DEGENERATE = 1  # collinear or coincident world points
EPNP_NO_POSE = 2  # every candidate puts the target behind the camera


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


def point_errors(
    rot: np.ndarray, t: np.ndarray, world: np.ndarray, image: np.ndarray, cam: CameraIntrinsics
) -> np.ndarray:
    """Per-point reprojection error norms (..., n); inf at or behind the camera.

    The depth cut is ``MIN_PROJECTION_DEPTH``, the one ``project`` rejects at,
    so a point scored here as an inlier never fails refinement from this pose.

    ``rot (..., 3, 3)`` and ``t (..., 3)`` broadcast against ``world (..., n, 3)``
    and ``image (..., n, 2)``; a non-finite pose gives inf everywhere.
    """
    cam_pts = world @ rot.swapaxes(-1, -2) + t[..., None, :]
    z = cam_pts[..., 2]
    front = z > MIN_PROJECTION_DEPTH
    u, v = pinhole(cam_pts[..., 0], cam_pts[..., 1], np.where(front, z, 1.0), cam)
    return np.where(front, np.hypot(u - image[..., 0], v - image[..., 1]), np.inf)


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


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked symmetric eigen-decomposition; NaN for non-finite slices."""
    a, ok = _finite_or(a, np.eye(a.shape[-1]))
    lam, vec = np.linalg.eigh(a)
    return np.where(ok[..., None], lam, np.nan), np.where(ok[..., None, None], vec, np.nan)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked minimum-norm least squares with ``numpy.linalg.lstsq``'s cutoff."""
    a, ok = _finite_or(a, 0.0)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(float).eps * max(a.shape[-2:]) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    x = (inv[..., None, :] * (b[..., None, :] @ u)) @ vt
    return np.where(ok[..., None], x[..., 0, :], np.nan)


def _control_frame(world: np.ndarray):
    """Centroid, principal axes (largest first) and eigenvalues per problem.

    Also returns the degenerate (collinear or coincident) and near-planar masks.
    """
    c0 = world.sum(axis=1) / world.shape[1]  # mean(axis=1)'s arithmetic
    centered = world - c0[:, None]
    cov = centered.swapaxes(1, 2) @ centered / world.shape[1]
    lam, vec = _eigh(cov)  # ascending eigenvalues
    lam, axes = lam[:, ::-1], vec[:, :, ::-1]
    # written so that NaN eigenvalues count as degenerate
    degenerate = ~((lam[:, 0] > 0) & (lam[:, 1] > _COLLINEAR_EIGENVALUE_RATIO * lam[:, 0]))
    planar = ~degenerate & (lam[:, 2] < PLANAR_EIGENVALUE_RATIO * lam[:, 0])
    return c0, axes, lam, degenerate, planar


def _null_basis(alphas: np.ndarray, image: np.ndarray, cam: CameraIntrinsics, k: int):
    """Smallest-k eigenvectors (H, 3m, k) of the projection system's normal matrix."""
    h, n, m = alphas.shape
    system = np.zeros((h, n, 2, m, 3))  # (point, u/v row, control point, xyz)
    system[:, :, 0, :, 0] = alphas * cam.fx
    system[:, :, 1, :, 1] = alphas * cam.fy
    system[:, :, 0, :, 2] = alphas * (cam.cx - image[:, :, 0:1])
    system[:, :, 1, :, 2] = alphas * (cam.cy - image[:, :, 1:2])
    system = system.reshape(h, 2 * n, 3 * m)
    _, vec = _eigh(system.swapaxes(1, 2) @ system)
    return vec[:, :, :k]


def _distance_terms(basis: np.ndarray, ctrl: np.ndarray):
    """Distance Gram matrices (H, P, k, k) and squared control distances (H, P).

    For betas b, the squared distance between the camera-frame control
    points of pair p is b^T G_p b, with G_p the Gram matrix of the pair's
    basis-vector differences.
    """
    h, m = ctrl.shape[:2]
    diff = _PAIR_DIFFERENCES[m]
    vectors = basis.swapaxes(1, 2).reshape(h, basis.shape[2], m, 3)
    dv = (diff @ vectors).swapaxes(1, 2)  # (H, P, k, 3)
    gram = dv @ dv.swapaxes(2, 3)
    rho = np.sum((diff @ ctrl) ** 2, axis=-1)
    return gram, rho


def _leading_pair(sol: np.ndarray) -> np.ndarray:
    """(beta_1, beta_2) per solution (..., 2) from the [b11 b12 b22] linearisation."""
    b11, b12, b22 = sol[..., 0], sol[..., 1], sol[..., 2]
    sign = np.where(b11 < 0, -1.0, 1.0)
    beta1 = np.sqrt(sign * b11)
    beta2 = np.sqrt(np.maximum(sign * b22, 0.0))
    return np.stack([np.where(b12 < 0, -beta1, beta1), beta2], axis=-1)


def _beta_inits(gram: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Betas (H, I, k) assuming null-space dimension 1, 2 and, for k = 4, 3."""
    h, p, k = gram.shape[:3]
    rows, cols, weights = _INIT_SYSTEMS[k]
    # (H, S, P, C): system s, pair p, monomial column c
    systems = gram[:, np.arange(p)[:, None], rows[:, None], cols[:, None]] * weights[:, None]
    sol = _lstsq(systems, rho[:, None])  # (H, S, C)

    inits = np.zeros((h, len(rows), k))
    # [b11 b12 .. b1k] -> beta = sign(b11) [b11 b12 .. b1k] / sqrt|b11|
    dim1 = sol[:, 0, :k]
    lead = dim1[:, :1]
    vanished = np.abs(lead) < 1e-15
    scale = np.sign(lead) / np.sqrt(np.where(vanished, 1.0, np.abs(lead)))
    inits[:, 0] = np.where(vanished, 0.0, scale * dim1)
    inits[:, 1:, :2] = _leading_pair(sol[:, 1:, :3])
    if k == 4:  # beta_3 from the b13 column of the dimension-3 system
        lead = inits[:, 2, 0]
        usable = np.abs(lead) > 1e-15
        inits[:, 2, 2] = np.where(usable, sol[:, 2, 3] / np.where(usable, lead, 1.0), 0.0)
    return inits


def _distance_residual(beta: np.ndarray, gram: np.ndarray, rho: np.ndarray):
    """Half the Jacobian, ``G_p b`` (N, P, k), and the residuals (N, P) of b^T G_p b - rho_p."""
    n, p, k = gram.shape[:3]
    half = (gram.reshape(n, p * k, k) @ beta[:, :, None]).reshape(n, p, k)
    return half, (half @ beta[:, :, None])[..., 0] - rho


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("nk,nk->n", x, x))


def _gauss_newton(beta: np.ndarray, gram: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the distance constraints b^T G_p b = rho_p, at most 10 steps.

    Before each step every row checks its own residual: a row whose squared
    residual norm is at most ``(_BETA_GN_ROUNDOFF |rho|)^2``, or is not
    finite, takes no more steps, and the loop ends once no row is live. The
    stop keys on the constraints, not on the step size, so noisy rows, which
    cannot meet them, take all 10 steps; each row's betas depend on its own
    data only. A row whose damped step is not finite keeps its betas. The
    Jacobian is twice ``G_p b``; the step solves the normal equations with
    that factor 2 folded into the damping and the gradient.
    """
    n, p, k = gram.shape[:3]
    flat = gram.reshape(n, p * k, k)
    damping = _GN_DAMPING[k]
    # betas and residuals as columns: no reindexing per step, and a row's
    # squared residual norm is one matmul
    column = beta[:, :, None]
    rho = rho[:, :, None]
    floor = _BETA_GN_ROUNDOFF**2 * (rho.swapaxes(1, 2) @ rho)
    for _ in range(_BETA_GN_STEPS):
        # _distance_residual, with the Gram stack reshaped once
        half = (flat @ column).reshape(n, p, k)
        residual = half @ column - rho
        live = residual.swapaxes(1, 2) @ residual > floor  # (n, 1, 1); False for NaN
        n_live = np.count_nonzero(live)
        if not n_live:
            break
        half_t = half.swapaxes(1, 2)
        delta = _solve(half_t @ half + damping, half_t @ (-0.5 * residual))
        finite = np.isfinite(delta)
        if n_live == n and np.count_nonzero(finite) == finite.size:
            column = column + delta
        else:
            live &= finite.all(axis=1, keepdims=True)
            column = np.where(live, column + delta, column)
    return column[..., 0]


def _curvature_restarts(beta: np.ndarray, gram: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Deterministic restarts (N, 8k, k) along every curvature direction of each row.

    With exactly four points the projection kernel is four-dimensional and
    the eigen-basis inside it is arbitrary, which gives the distance cost
    shallow spurious minima. Stepping the stalled solution along the
    eigendirections of the true Hessian, softest first, crosses the ridge;
    the softest direction alone misses it for about one problem in ten.
    """
    half, residual = _distance_residual(beta, gram, rho)
    n, p, k = gram.shape[:3]
    # a quarter of the Hessian: the same eigenvectors
    curvature = (residual[:, None] @ gram.reshape(n, p, k * k)).reshape(n, k, k)
    _, vec = _eigh(half.swapaxes(1, 2) @ half + curvature)
    scale = np.maximum(1.0, _norm(beta))
    steps = _RESTART_OFFSETS[None, None, :, None] * scale[:, None, None, None]
    restarts = beta[:, None, None] + steps * vec.swapaxes(1, 2)[:, :, None]
    return restarts.reshape(beta.shape[0], -1, beta.shape[1])


def _procrustes(world: np.ndarray, camera: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-fit rigid maps world -> camera per row, with proper (det=+1) rotations."""
    # mean(axis=1)'s arithmetic
    wc = world.sum(axis=1) / world.shape[1]
    cc = camera.sum(axis=1) / camera.shape[1]
    h, ok = _finite_or((world - wc[:, None]).swapaxes(1, 2) @ (camera - cc[:, None]), np.eye(3))
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.swapaxes(1, 2), u.swapaxes(1, 2)
    v[:, :, 2] *= np.where(np.linalg.det(v @ ut) < 0, -1.0, 1.0)[:, None]
    rot = np.where(ok[:, None, None], v @ ut, np.nan)
    return rot, cc - (rot @ wc[:, :, None])[..., 0]


def _candidate_poses(beta, basis, alphas, world, image, cam):
    """Rotation, translation and reprojection RMS per beta row (inf RMS if invalid)."""
    ctrl_cam = (basis @ beta[:, :, None]).reshape(beta.shape[0], -1, 3)
    cam_pts = alphas @ ctrl_cam
    # beta sign ambiguity: distances are preserved under negation, cheirality is not
    behind = np.count_nonzero(cam_pts[:, :, 2] < 0, axis=1) > cam_pts.shape[1] / 2
    cam_pts = np.where(behind[:, None, None], -cam_pts, cam_pts)
    rot, t = _procrustes(world, cam_pts)
    # mean(axis=1)'s arithmetic
    rms = np.sqrt((point_errors(rot, t, world, image, cam) ** 2).sum(axis=1) / world.shape[1])
    rms[~(t[:, 2] > 0) | ~np.isfinite(rms)] = np.inf
    return rot, t, rms


def _solve_group(image, world, c0, axes, lam, cam):
    """Solve problems that share one control-point count m = axes.shape[2] + 1."""
    g, n = world.shape[:2]
    m = axes.shape[2] + 1
    k = 4 if m == 4 else 2
    scales = np.sqrt(lam)
    ctrl = c0[:, None] + np.concatenate(
        [np.zeros((g, 1, 3)), scales[:, :, None] * axes.swapaxes(1, 2)], axis=1
    )
    # barycentric coordinates in the orthonormal principal frame; they sum to 1
    coords = (world - c0[:, None]) @ axes / scales[:, None]
    alphas = np.concatenate([1.0 - coords.sum(axis=2, keepdims=True), coords], axis=2)
    basis = _null_basis(alphas, image, cam, k)
    gram, rho = _distance_terms(basis, ctrl)

    inits = _beta_inits(gram, rho)
    owner = np.repeat(np.arange(g), inits.shape[1])  # problem index of each beta row
    betas = _gauss_newton(inits.reshape(-1, k), gram[owner], rho[owner])
    if n == 4 and m == 4:  # only n = 4 leaves the whole 4-dim basis degenerate
        _, residual = _distance_residual(betas, gram[owner], rho[owner])
        stalled = np.flatnonzero(_norm(residual) > 1e-9 * np.maximum(1.0, _norm(rho[owner])))
        if stalled.size:
            who = owner[stalled]
            restarts = _curvature_restarts(betas[stalled], gram[who], rho[who])
            who = np.repeat(who, restarts.shape[1])
            restarts = _gauss_newton(restarts.reshape(-1, k), gram[who], rho[who])
            betas = np.concatenate([betas, restarts])
            owner = np.concatenate([owner, who])

    rot, t, rms = _candidate_poses(
        betas, basis[owner], alphas[owner], world[owner], image[owner], cam
    )
    # lowest RMS per problem; the stable sort keeps the first row on ties
    order = np.lexsort((rms, owner))
    first = order[np.concatenate(([True], owner[order[1:]] != owner[order[:-1]]))]
    return rot[first], t[first], np.isfinite(rms[first])


def epnp_stack(image, world, cam: CameraIntrinsics):
    """Solve H independent EPnP problems at once.

    Takes ``image (H, n, 2)`` pixels and ``world (H, n, 3)`` body-frame points
    with n >= 4, and returns ``R (H, 3, 3)``, ``t (H, 3)`` and a status per
    problem: :data:`EPNP_OK`, :data:`EPNP_DEGENERATE` for collinear or
    coincident world points, or :data:`EPNP_NO_POSE` when every candidate
    puts the target behind the camera. R and t are NaN where the status is
    not ok. Each problem's result does not depend on the others in the stack.
    """
    image = np.asarray(image, dtype=float)
    world = np.asarray(world, dtype=float)
    h = world.shape[0]
    rot = np.full((h, 3, 3), np.nan)
    t = np.full((h, 3), np.nan)
    status = np.full(h, EPNP_DEGENERATE, dtype=np.int8)
    c0, axes, lam, degenerate, planar = _control_frame(world)
    for m, group in ((4, ~degenerate & ~planar), (3, planar)):
        idx = np.flatnonzero(group)
        if idx.size:
            rot[idx], t[idx], found = _solve_group(
                image[idx], world[idx], c0[idx], axes[idx, :, : m - 1], lam[idx, : m - 1], cam
            )
            status[idx] = np.where(found, EPNP_OK, EPNP_NO_POSE)
    return rot, t, status


def epnp(correspondences, cam: CameraIntrinsics) -> Pose:
    """Closed-form pose from >= 4 correspondences.

    Raises :class:`DegenerateGeometryError` for collinear world points and
    :class:`NoValidPoseError` when every candidate puts the target behind
    the camera.
    """
    corrs = list(correspondences)
    if len(corrs) < 4:
        raise ValueError(f"EPnP needs at least 4 correspondences, got {len(corrs)}")
    ids = [c.id for c in corrs]
    if len(set(ids)) != len(ids):
        raise ValueError("correspondence ids must be unique")
    image, world = split_correspondences(corrs)
    rot, t, status = epnp_stack(image[None], world[None], cam)
    if status[0] == EPNP_DEGENERATE:
        raise DegenerateGeometryError(
            "world points are collinear or coincident; control points undefined"
        )
    if status[0] == EPNP_NO_POSE:
        raise NoValidPoseError("all EPnP candidates place the target behind the camera")
    return Pose(position=t[0], attitude=quat_from_matrix(rot[0]))
