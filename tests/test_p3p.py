"""P3P kernel tests: accuracy on exact data, stacking, degenerate rows, RANSAC use."""

import warnings

import numpy as np
import pytest

from satpose import RansacConfig, attitude_error, ransac_pnp
from satpose.geometry import project, quat_from_matrix
from satpose.pnp import Correspondence
from satpose.pnp.epnp import point_errors
from satpose.pnp.p3p import _residuals, p3p_hypotheses, p3p_stack
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
