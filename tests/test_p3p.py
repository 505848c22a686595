"""P3P kernel tests: accuracy, stacking, hard rows, the stacked reference, RANSAC use."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satpose import RansacConfig, attitude_error, ransac_pnp
from satpose.geometry import pinhole, project, quat_from_matrix
from satpose.pnp import Correspondence
from satpose.pnp.p3p import _pencil_root, _residuals, p3p_hypotheses, p3p_stack, point_errors
from satpose.pnp.refine import reprojection_jacobian, skew_table
from satpose.rng import stream
from satpose.sampler import PoseSamplerConfig, SampleStreams, sample_pose
from tests.conftest import random_pose

SAMPLES = 2200


def _sampler_poses(cam, wireframe, count: int, seed: int):
    streams = SampleStreams(seed)
    return [sample_pose(streams, PoseSamplerConfig(), cam, wireframe) for _ in range(count)]


def _exact_samples(cam, wireframe, poses, rng, size: int):
    world = np.array(
        [wireframe.keypoints[rng.choice(wireframe.count, size, replace=False)] for _ in poses]
    )
    image = np.array([project(pose, cam, w) for pose, w in zip(poses, world)])
    return image, world


def _rms(rot, t, world, image, cam) -> np.ndarray:
    errors = point_errors(rot, t, world, image, cam)
    return np.sqrt((errors**2).mean(axis=-1))


def test_noise_free_samples_reproject_exactly(cam, wireframe):
    # the sample kernel's hypotheses of exact 5-point samples reproduce their
    # sample: at least 99.9 % of them within 1e-6 px RMS, each at the true pose
    poses = _sampler_poses(cam, wireframe, SAMPLES, seed=61)
    image, world = _exact_samples(cam, wireframe, poses, stream(62, "p3p"), 5)
    rot, t = p3p_hypotheses(image, world, cam)
    rms = _rms(rot, t, world, image, cam)
    close = rms < 1e-6  # False for a failed row
    assert np.count_nonzero(close) >= 0.999 * SAMPLES
    for pose, r, ok in zip(poses, rot, close):
        if ok:
            assert attitude_error(pose.attitude, quat_from_matrix(r)) < 1e-9
    assert np.isfinite(rot[close]).all() and np.isfinite(t[close]).all()


def test_one_root_is_the_generating_pose(cam, wireframe):
    # before the root choice and the Gauss-Newton step, one of the P3P roots
    # of each exact triangle is the true pose: to 1e-9 in rotation entries and
    # in position over 70 m for 99 % of triangles, and to 1e-6 for all, since
    # a triangle seen near a double root loses digits in any P3P solver
    poses = _sampler_poses(cam, wireframe, 1000, seed=63)
    image, world = _exact_samples(cam, wireframe, poses, stream(64, "p3p"), 3)
    rot, t = p3p_stack(image, world, cam)
    valid = np.isfinite(rot).all(axis=(2, 3))
    truth = np.array([pose.rotation_matrix() for pose in poses])[:, None]
    position = np.array([pose.position for pose in poses])[:, None]
    gap = np.abs(rot - truth).max(axis=(2, 3)) + np.abs(t - position).max(axis=2) / 70
    closest = np.where(valid, gap, np.inf).min(axis=1)
    assert np.all(closest < 1e-6)
    assert np.count_nonzero(closest < 1e-9) >= 0.99 * len(poses)


def test_minimal_four_point_samples(cam, wireframe, make_case):
    # min_sample = 4: three points for P3P and one for the root choice
    poses = _sampler_poses(cam, wireframe, 300, seed=65)
    image, world = _exact_samples(cam, wireframe, poses, stream(66, "p3p"), 4)
    rot, t = p3p_hypotheses(image, world, cam)
    assert np.count_nonzero(_rms(rot, t, world, image, cam) < 1e-6) >= 0.99 * len(poses)
    # and RANSAC with 4-point samples recovers a 3-outlier mask
    for seed in range(10):
        pose, corrs = make_case(1500 + seed)
        rng = stream(seed, "outliers")
        outliers = rng.choice(len(corrs), size=3, replace=False)
        noisy = list(corrs)
        for i in outliers:
            noisy[i] = Correspondence(
                image=corrs[i].image + rng.uniform(30.0, 60.0, 2), world=corrs[i].world, id=i
            )
        result = ransac_pnp(noisy, cam, RansacConfig(inlier_threshold=2.0, min_sample=4, seed=seed))
        expected = np.ones(len(corrs), dtype=bool)
        expected[outliers] = False
        np.testing.assert_array_equal(result.inlier_mask, expected)
        assert attitude_error(pose.attitude, result.pose.attitude) < 1e-6


def _mixed_stack(cam, wireframe, rng):
    """16 five-point rows: noisy samples, then collinear, coincident and non-finite ones."""
    world, image = [], []
    for _ in range(16):
        w = wireframe.keypoints[rng.choice(wireframe.count, 5, replace=False)]
        world.append(w)
        image.append(project(random_pose(rng), cam, w) + rng.normal(0.0, 2.0, (5, 2)))
    world, image = np.array(world), np.array(image)
    world[12, :3] = np.outer([0.0, 1.0, 2.5], [1.0, 0.5, -0.2])  # collinear triangle
    world[13, 1] = world[13, 0]  # coincident points
    world[14, 2, 1] = np.inf
    image[15, 3, 0] = np.nan
    return image, world


@pytest.mark.parametrize("kernel", [p3p_hypotheses, p3p_stack])
def test_rows_do_not_depend_on_stack_composition(cam, wireframe, kernel):
    # each row's outputs are bitwise the same in every stack of H = 1 ... 16
    # rows and in shuffled stacks, next to degenerate and non-finite rows
    rng = stream(67, "p3p")
    image, world = _mixed_stack(cam, wireframe, rng)
    if kernel is p3p_stack:
        image, world = image[:, :3], world[:, :3]
    full = kernel(image, world, cam)
    stacks = [np.arange(h) for h in range(1, 17)]
    stacks += [np.arange(h, h + 1) for h in range(16)]
    stacks += [rng.permutation(16) for _ in range(4)] + [rng.permutation(16)[:5] for _ in range(4)]
    for rows in stacks:
        for whole, part in zip(full, kernel(image[rows], world[rows], cam)):
            np.testing.assert_array_equal(whole[rows], part)


def _behind_for_every_root(cam, wireframe):
    """A 5-point sample whose last two points lie behind the camera at every root.

    Every positive-depth root sees the triangle with one orientation, so a
    point far along the world normal, on the camera's side, lies behind it
    for each of them.
    """
    pose = random_pose(stream(68, "p3p"))
    world = np.array(wireframe.keypoints[[0, 5, 9]])
    normal = np.cross(world[1] - world[0], world[2] - world[0])
    normal /= np.linalg.norm(normal)
    if (pose.rotation_matrix() @ normal)[2] > 0:
        normal = -normal
    far = world[0] + np.outer([3000.0, 4000.0], normal)
    world = np.vstack([world, far])
    cam_pts = world @ pose.rotation_matrix().T + pose.position
    assert np.all(cam_pts[:3, 2] > 0) and np.all(cam_pts[3:, 2] < 0)
    image = cam.fx * cam_pts[:, :2] / cam_pts[:, 2:] + [cam.cx, cam.cy]
    return image, world


def test_degenerate_rows_get_a_status_and_no_warning(cam, wireframe):
    rng = stream(69, "p3p")
    pose = random_pose(rng)
    world = np.array([wireframe.keypoints[[0, 5, 9, 2, 10]]] * 3)
    world[0, :3] = np.outer([0.0, 1.0, 2.5], [1.0, 0.5, -0.2])  # collinear
    world[1, 2] = world[1, 0]  # coincident
    image = np.array([project(pose, cam, w) for w in world])
    behind_image, behind_world = _behind_for_every_root(cam, wireframe)
    image = np.concatenate([image, behind_image[None]])
    world = np.concatenate([world, behind_world[None]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rot, t = p3p_hypotheses(image, world, cam)
        roots, _ = p3p_stack(image[:, :3], world[:, :3], cam)
    valid = np.isfinite(roots).all(axis=(2, 3))
    assert not valid[:2].any() and valid[3].any()  # the last row has roots, all behind
    assert np.isnan(rot[[0, 1, 3]]).all() and np.isnan(t[[0, 1, 3]]).all()
    np.testing.assert_allclose(rot[2], pose.rotation_matrix(), atol=1e-9)


def test_step_never_raises_the_sample_error(cam, wireframe):
    # the kept hypothesis scores no worse over its sample than the best root
    rng = stream(70, "p3p")
    poses = [random_pose(rng) for _ in range(200)]
    image, world = _exact_samples(cam, wireframe, poses, rng, 5)
    image = image + rng.normal(0.0, 2.0, image.shape)
    roots, shifts = p3p_stack(image[:, :3], world[:, :3], cam)
    best = _residuals(roots, shifts, world[:, None], image[:, None], cam)[2].min(axis=1)
    rot, t = p3p_hypotheses(image, world, cam)
    assert np.isfinite(rot).all() and np.isfinite(t).all()
    kept = _residuals(rot, t, world, image, cam)[2]
    assert np.all(kept <= best)
    assert np.count_nonzero(kept < best) > 0.9 * len(poses)  # the step mostly helps


def test_jacobian_matches_the_refinement_jacobian(cam, wireframe):
    # the kernel's Gauss-Newton step calls LM's Jacobian stacked over
    # hypotheses: each row has the bits of its one-problem call
    rng = stream(71, "p3p")
    poses = [random_pose(rng) for _ in range(8)]
    rot = np.array([pose.rotation_matrix() for pose in poses])
    t = np.array([pose.position for pose in poses])
    for size in (5, 11):
        _, world = _exact_samples(cam, wireframe, poses, rng, size)
        cam_pts = world @ rot.swapaxes(1, 2) + t[:, None]
        stacked = reprojection_jacobian(rot, cam_pts, skew_table(world), cam)
        assert stacked.shape == (len(poses), 2 * size, 6)
        for h in range(len(poses)):
            single = reprojection_jacobian(rot[h], cam_pts[h], skew_table(world[h]), cam)
            np.testing.assert_array_equal(stacked[h], single)


def test_pencil_root_is_the_smallest_real_root():
    # Cardano's formula (one real root) or the trigonometric form (three),
    # then two Newton steps: the real root smallest in magnitude, with a
    # residual at the round-off of the polynomial's terms
    rng = stream(73, "p3p")
    for count in (1, 3):
        for _ in range(2000):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            real = rng.normal(size=count) * scale
            pair = [complex(*rng.normal(size=2) * scale)] if count == 1 else []
            roots = [*real, *pair, *(z.conjugate() for z in pair)]
            p2, p1, p0 = np.poly(roots).real[1:]
            g = _pencil_root(p2, p1, p0)
            assert abs(g - real[np.argmin(np.abs(real))]) <= 1e-9 * np.abs(roots).max()
            terms = abs(g) ** 3 + abs(p2) * g * g + abs(p1 * g) + abs(p0)
            assert abs(((g + p2) * g + p1) * g + p0) <= 1e-15 * terms
    for coefficients in ((np.nan, 1.0, 2.0), (1.0, np.inf, 0.0), (-np.inf, 1.0, np.inf)):
        assert not np.isfinite(_pencil_root(*coefficients))


def _adversarial_row(cam, wireframe, seed: int, kind: str, exponent: float, where: int):
    """One P3P problem ``(image (3, 2), world (3, 3))`` of a hard kind.

    Also returns whether its best root must reproject it: a noise-free
    projection of every kind but ``pixel_scale`` and ``non_finite``, where
    the ``same_pixel`` and ``thin_world`` kinds shrink by no more than 5e-3.
    """
    rng = stream(seed, "p3p-rows")
    pose = random_pose(rng)
    rot, t = pose.rotation_matrix(), np.array(pose.position)
    world = wireframe.keypoints[rng.choice(wireframe.count, 3, replace=False)]
    shrink = 10.0 ** -abs(exponent / 12.5)  # 1 ... 1e-12
    if kind == "world_scale":  # the same pixels from coordinates 1e-150 ... 1e150
        world, t = world * 10.0**exponent, t * 10.0**exponent
    elif kind == "principal":  # the first point seen at the principal point
        t = t - np.append((rot @ world[0] + t)[:2], 0.0)
    elif kind == "same_pixel":  # the second point on the first one's ray
        world[1] = rot.T @ ((1.0 + shrink) * (rot @ world[0] + t) - t)
    elif kind == "thin_image":  # the camera centre near the triangle's plane
        normal = rot @ np.cross(world[1] - world[0], world[2] - world[0])
        normal /= np.linalg.norm(normal)
        t = t - normal * (normal @ (rot @ world[0] + t)) * (1.0 - shrink)
    elif kind == "thin_world":  # the third point near the line of the first two
        along = world[0] + 0.37 * (world[1] - world[0])
        world[2] = along + (world[2] - along) * shrink
    cam_pts = world @ rot.T + t
    image = np.stack(pinhole(cam_pts[:, 0], cam_pts[:, 1], cam_pts[:, 2], cam), axis=-1)
    exact = kind not in ("same_pixel", "thin_world") or shrink > 5e-3
    if kind == "pixel_scale":  # pixels 1e-150 ... 1e150 from the principal point
        image = np.array([cam.cx, cam.cy]) + rng.normal(size=(3, 2)) * 10.0**exponent
        exact = False
    elif kind == "non_finite":
        values = image if where % 2 else world
        values.reshape(-1)[where % values.size] = (np.nan, np.inf, -np.inf)[where % 3]
        exact = False
    return image, world, exact


ROW_KINDS = ("plain", "world_scale", "principal", "same_pixel", "thin_image", "thin_world",
             "pixel_scale", "non_finite")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.sampled_from(ROW_KINDS), st.floats(-150.0, 150.0),
       st.integers(0, 17))
def test_hard_rows_end_as_rotations_or_nan(cam, wireframe, seed, kind, exponent, where):
    # the scalar kernel raises where numpy would return NaN, so every divisor
    # and square root is checked: a hard row ends with no exception and no
    # warning, each root as NaN or as a rotation, and a noise-free triangle
    # is reprojected by its best root. Near a double root a P3P solver keeps
    # about half its digits: about one noise-free row in a thousand reads
    # above 1e-6 px, and the worst of 20,000 about 1e-3 px, so the bound is
    # 1e-2 px
    image, world, exact = _adversarial_row(cam, wireframe, seed, kind, exponent, where)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rot, t = p3p_stack(image[None], world[None], cam)
        p3p_hypotheses(np.vstack([image, image[:1] + 1.0])[None],
                       np.vstack([world, world[:1] + 1.0])[None], cam)
    rot, t = rot[0], t[0]
    valid = np.isfinite(rot).all(axis=(1, 2))
    assert np.isnan(rot[~valid]).all() and np.isnan(t[~valid]).all()
    assert np.isfinite(t[valid]).all()
    for r in rot[valid]:
        np.testing.assert_allclose(r @ r.T, np.eye(3), rtol=0.0, atol=1e-9)
        assert abs(np.linalg.det(r) - 1.0) < 1e-9
    if kind in ("plain", "world_scale", "principal", "thin_image"):
        assert valid.any()  # a well-shaped noise-free triangle at any scale has a root
    if exact and valid.any():
        cam_pts = world @ rot[valid].swapaxes(1, 2) + t[valid, None]
        with np.errstate(all="ignore"):  # a spurious root may put a point behind the camera
            u, v = pinhole(cam_pts[..., 0], cam_pts[..., 1], cam_pts[..., 2], cam)
        gap = np.maximum(np.abs(u - image[:, 0]), np.abs(v - image[:, 1])).max(axis=1)
        assert np.nanmin(gap) < 1e-2
    with np.errstate(all="ignore"):
        edges = world[1:] - world[0]
        sine_sq = np.sum(np.cross(*(edges / np.linalg.norm(edges, axis=1)[:, None])) ** 2)
    if not sine_sq > 1e-12:  # below the collinear gate with margin, or not finite
        assert not valid.any()


def _stacked_reference(image, world, cam):
    """The stacked formulation the scalar kernel replaced, for finite rows (H, 3, ...).

    The pencil root is the real eigenvalue of the cubic's companion matrix
    smallest in magnitude, the conic's eigenpairs come from ``eigh``, and
    the roots are those of :func:`p3p_stack`, in the same order.
    """
    h = len(world)
    ray = np.concatenate([(image - [cam.cx, cam.cy]) / [cam.fx, cam.fy], np.ones((h, 3, 1))], 2)
    ray /= np.linalg.norm(ray, axis=-1, keepdims=True)
    cosines = ray @ ray.swapaxes(1, 2)
    b12, b13, b23 = cosines[:, 0, 1], cosines[:, 0, 2], cosines[:, 1, 2]
    edges = world[:, [1, 2, 2]] - world[:, [0, 0, 1]]
    a12, a13, a23 = (edges**2).sum(axis=-1).T
    s12, s13, s23 = 1.0 - b12**2, 1.0 - b13**2, 1.0 - b23**2
    both = 2.0 * a23 * (1.0 - b12 * b13 * b23)
    cubic = np.stack([
        a13 * (a23 * s13 - a13 * s23),
        a23 * s13 * (a12 - a23) - a13 * s23 * (2.0 * a12 + a13) + a13 * both,
        a23 * s12 * (a13 - a23) - a12 * s23 * (2.0 * a13 + a12) + a12 * both,
        a12 * (a23 * s12 - a12 * s23),
    ], axis=1)
    companion = np.zeros((h, 3, 3))
    companion[:, 0] = -cubic[:, 1:] / cubic[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    size = np.where(roots.imag == 0.0, np.abs(roots.real), np.inf)
    g = roots.real[np.arange(h), size.argmin(axis=1)]
    conic = np.empty((h, 3, 3))
    conic[:, 0, 0], conic[:, 1, 1] = a23 * (1.0 + g), a23 - a12 - g * a13
    conic[:, 2, 2] = g * (a23 - a13) - a12
    conic[:, 0, 1] = conic[:, 1, 0] = -a23 * b12
    conic[:, 0, 2] = conic[:, 2, 0] = -g * a23 * b13
    conic[:, 1, 2] = conic[:, 2, 1] = b23 * (a12 + g * a13)
    sigma, vec = np.linalg.eigh(conic)
    s = np.sqrt(-sigma[:, 0] / sigma[:, 2])
    signs = np.array([-1.0, 1.0])[:, None]
    plane = vec[:, None, :, 2] + signs * s[:, None, None] * vec[:, None, :, 0]
    w0, w1 = -plane[..., 1] / plane[..., 0], -plane[..., 2] / plane[..., 0]
    k, a12, a13 = (a13 - a12)[:, None], a12[:, None], a13[:, None]
    a12b13, a13b12 = 2.0 * a12 * b13[:, None], 2.0 * a13 * b12[:, None]
    qa = (k * w1 + a12b13) * w1 - a12
    qb = 2.0 * k * w0 * w1 - a13b12 * w1 + a12b13 * w0
    qc = (k * w0 - a13b12) * w0 + a13
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb**2 - 4.0 * qa * qc, 0.0)), qb))
    tau = np.stack([q / qa, qc / q], axis=-1).reshape(h, 4)
    l2 = np.sqrt(a23[:, None] / ((tau - 2.0 * b23[:, None]) * tau + 1.0))
    lam = np.stack([(w0.repeat(2, axis=1) + w1.repeat(2, axis=1) * tau) * l2, l2, tau * l2], -1)
    cam_pts = lam[..., None] * ray[:, None]
    rot = np.full((h, 4, 3, 3), np.nan)
    t = np.full((h, 4, 3), np.nan)
    for row, k in zip(*np.nonzero((lam > 0.0).all(axis=-1))):
        frames = []
        for d1, d2 in (cam_pts[row, k, 1:] - cam_pts[row, k, 0], edges[row, :2]):
            e1, e3 = d1 / np.linalg.norm(d1), np.cross(d1, d2)
            e3 /= np.linalg.norm(e3)
            frames.append(np.array([e1, np.cross(e3, e1), e3]))
        rot[row, k] = frames[0].T @ frames[1]
        t[row, k] = cam_pts[row, k].mean(axis=0) - rot[row, k] @ world[row].mean(axis=0)
    return rot, t


def test_roots_match_the_stacked_formulation(cam, wireframe):
    # the scalar kernel's closed forms (Cardano or the trigonometric form and
    # two Newton steps for the cubic, the conic's eigenpairs from its known
    # zero eigenvalue) keep the stacked LAPACK formulation's roots over noisy
    # triangles: the same number of valid roots per problem, and each root
    # matched by one of the kernel's. A plane whose l1 coefficient nearly
    # cancels divides by it, and there both formulations keep fewer digits
    # (their roots reproject at up to 6e-5 px): a few roots in ten thousand
    # part by more than 1e-8, none by 1e-4
    rng = stream(72, "p3p")
    poses = [random_pose(rng) for _ in range(3200)]
    image, world = _exact_samples(cam, wireframe, poses, rng, 3)
    image = image + rng.normal(size=image.shape) * rng.choice([0.5, 2.0, 10.0], (len(poses), 1, 1))
    rot, t = p3p_stack(image, world, cam)
    ref_rot, ref_t = _stacked_reference(image, world, cam)
    valid, ref_valid = np.isfinite(rot).all(axis=(2, 3)), np.isfinite(ref_rot).all(axis=(2, 3))
    np.testing.assert_array_equal(valid.sum(axis=1), ref_valid.sum(axis=1))
    gaps = []
    for h, k in zip(*np.nonzero(ref_valid)):
        relative = np.abs(t[h] - ref_t[h, k]).max(axis=1) / np.abs(ref_t[h, k]).max()
        gaps.append(np.nanmin(np.abs(rot[h] - ref_rot[h, k]).max(axis=(1, 2)) + relative))
    gaps = np.array(gaps)
    assert np.median(gaps) < 1e-12 and gaps.max() < 1e-4
    assert np.count_nonzero(gaps > 1e-8) <= 2e-3 * len(gaps)
