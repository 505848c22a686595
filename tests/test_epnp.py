"""EPnP solver tests against the projection synthesis oracle."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpose import Correspondence, attitude_error, epnp
from satpose.errors import DegenerateGeometryError
from satpose.geometry import Pose, project, quat_from_matrix, quat_to_matrix
from satpose.pnp.epnp import (
    _GN_DAMPING,
    EPNP_DEGENERATE,
    EPNP_OK,
    PLANAR_EIGENVALUE_RATIO,
    _control_frame,
    _distance_terms,
    _gauss_newton,
    _solve,
    epnp_stack,
    point_errors,
    split_correspondences,
)
from satpose.rng import stream
from tests.conftest import random_pose, reprojection_rms, synthesize

epnp_mod = importlib.import_module("satpose.pnp.epnp")


def test_recovers_generating_pose_at_fixed_range(cam, wireframe):
    rng = stream(100, "epnp")
    for _ in range(20):
        pose = Pose(position=[0.0, 0.0, 36.0], attitude=random_pose(rng).attitude)
        est = epnp(synthesize(pose, cam, wireframe), cam)
        assert attitude_error(pose.attitude, est.attitude) < 1e-6
        assert (
            np.linalg.norm(est.position - pose.position) < 1e-6 * np.linalg.norm(pose.position)
        )


def test_oracle_equivalence_sampled_poses(cam, wireframe, make_case):
    failures = 0
    for seed in range(200):
        pose, corrs = make_case(seed)
        try:
            est = epnp(corrs, cam)
        except DegenerateGeometryError:
            failures += 1
            continue
        assert attitude_error(pose.attitude, est.attitude) < 1e-6
        assert (
            np.linalg.norm(est.position - pose.position) < 1e-6 * np.linalg.norm(pose.position)
        )
    assert failures <= 2  # >= 99% solved, the rest raised


def test_planar_target_uses_fallback_and_solves(cam):
    # all world points in the body z=0 plane, e.g. a face-on panel
    rng = stream(102, "epnp")
    grid = np.array(
        [[x, y, 0.0] for x in (-2.0, -0.7, 0.7, 2.0) for y in (-1.5, 0.0, 1.5)]
    )
    for _ in range(10):
        pose = random_pose(rng)
        try:
            pixels = project(pose, cam, grid)
        except Exception:
            continue
        corrs = [Correspondence(image=pixels[k], world=grid[k], id=k) for k in range(len(grid))]
        assert reprojection_rms(epnp(corrs, cam), corrs, cam) < 1e-4


@pytest.mark.parametrize(
    "side, log_ratios, rms_bound",
    [("planar", (-10.0, -8.05), 1.0), ("3d", (-7.95, -6.0), 1e-6)],
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), n=st.integers(5, 11), data=st.data())
def test_near_planar_point_sets_solve_on_both_sides_of_the_switch(
    cam, side, log_ratios, rms_bound, seed, n, data
):
    # the point set's smallest-to-largest spread ratio is drawn on one side of
    # PLANAR_EIGENVALUE_RATIO; the 3-D path stays exact next to the switch, and
    # the planar path's flattening costs under a pixel on its side
    ratio = 10.0 ** data.draw(st.floats(*log_ratios))
    rng = stream(seed, "near-planar")
    world = np.column_stack(
        [rng.uniform(-2.0, 2.0, n), rng.uniform(-1.5, 1.5, n), rng.normal(size=n)]
    )
    world -= world.mean(axis=0)
    lam, vec = np.linalg.eigh(world.T @ world / n)
    spread = world @ vec
    spread[:, 0] *= np.sqrt(ratio * lam[2] / lam[0])
    world = spread @ vec.T
    planar = _control_frame(world[None])[4][0]
    assert planar == (side == "planar") == (ratio < PLANAR_EIGENVALUE_RATIO)
    pose = random_pose(rng)
    image = project(pose, cam, world)
    rot, t, status = epnp_stack(image[None], world[None], cam)
    assert status[0] == EPNP_OK
    rms = np.sqrt(np.mean(point_errors(rot, t, world[None], image[None], cam) ** 2))
    assert rms < rms_bound


def test_collinear_world_points_rejected(cam):
    line = [[float(i), 0.0, 0.0] for i in range(3)]
    world = np.array(line + [line[0], line[1]])  # padding with duplicates stays collinear
    pixels = np.array([[500.0 + 10 * i, 600.0] for i in range(5)])
    corrs = [Correspondence(image=pixels[k], world=world[k], id=k) for k in range(5)]
    with pytest.raises(DegenerateGeometryError):
        epnp(corrs, cam)


def test_too_few_points_rejected(cam, wireframe):
    # below 5 points EPnP refuses; 4-point sets go to the P3P kernel
    pose = Pose(position=[0, 0, 40], attitude=[1, 0, 0, 0])
    corrs = synthesize(pose, cam, wireframe)
    epnp(corrs[:5], cam)
    with pytest.raises(ValueError, match="at least 5"):
        epnp(corrs[:4], cam)
    image, world = split_correspondences(corrs[:4])
    with pytest.raises(ValueError, match="at least 5"):
        epnp_stack(image[None], world[None], cam)


def test_duplicate_ids_rejected(cam, wireframe):
    pose = Pose(position=[0, 0, 40], attitude=[1, 0, 0, 0])
    corrs = synthesize(pose, cam, wireframe)
    bad = corrs[:4] + [Correspondence(image=corrs[5].image, world=corrs[5].world, id=3)]
    with pytest.raises(ValueError):
        epnp(bad, cam)


def test_returned_attitude_is_proper_rotation(cam, wireframe, make_case):
    for seed in range(50):
        _, corrs = make_case(seed)
        est = epnp(corrs, cam)
        assert abs(np.linalg.norm(est.attitude) - 1.0) < 1e-9
        rot = quat_to_matrix(est.attitude)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9
        assert est.position[2] > 0


def _minimal_samples(corrs, rng, count, size=5):
    draws = [rng.choice(len(corrs), size=size, replace=False) for _ in range(count)]
    return [[corrs[i] for i in draw] for draw in draws]


def _stacked(samples):
    arrays = [split_correspondences(sample) for sample in samples]
    return np.array([a[0] for a in arrays]), np.array([a[1] for a in arrays])


def test_stack_matches_single_solves_noise_free(cam, wireframe, make_case):
    rng = stream(103, "epnp")
    for seed in range(5):
        _, corrs = make_case(900 + seed)
        samples = _minimal_samples(corrs, rng, 16)
        image, world = _stacked(samples)
        rot, t, status = epnp_stack(image, world, cam)
        for h, sample in enumerate(samples):
            single = epnp(sample, cam)
            assert status[h] == EPNP_OK
            np.testing.assert_allclose(rot[h], quat_to_matrix(single.attitude), rtol=0, atol=1e-9)
            np.testing.assert_allclose(t[h], single.position, rtol=0, atol=1e-9)


def test_stack_mixed_chunk_keeps_each_problem_apart(cam, wireframe):
    rng = stream(104, "epnp")
    pose = random_pose(rng)
    general = [wireframe.keypoints[[0, 2, 5, 8, 9]], wireframe.keypoints[[1, 3, 4, 6, 10]]]
    planar = np.array(
        [[-2.0, -1.5, 0.0], [2.0, -1.5, 0.0], [0.7, 1.5, 0.0], [-0.7, 0.0, 0.0], [2.0, 1.5, 0.0]]
    )
    collinear = np.array([[float(i), 0.0, 0.0] for i in range(5)])
    world = np.array([general[0], collinear, planar, general[1]])
    image = np.array([project(pose, cam, w) for w in world])
    rot, t, status = epnp_stack(image, world, cam)
    assert list(status) == [EPNP_OK, EPNP_DEGENERATE, EPNP_OK, EPNP_OK]
    assert np.all(np.isnan(rot[1])) and np.all(np.isnan(t[1]))
    # the planar problem is solved by the three-control-point group
    np.testing.assert_allclose(rot[2], pose.rotation_matrix(), atol=1e-9)
    np.testing.assert_allclose(t[2], pose.position, atol=1e-9 * 70)
    # general problems come out exactly as they do in a stack of their own
    alone_rot, alone_t, _ = epnp_stack(image[[0, 3]], world[[0, 3]], cam)
    np.testing.assert_array_equal(rot[[0, 3]], alone_rot)
    np.testing.assert_array_equal(t[[0, 3]], alone_t)


def test_stack_non_finite_problem_does_not_fail_the_others(cam, wireframe):
    rng = stream(105, "epnp")
    pose = random_pose(rng)
    world = np.array([wireframe.keypoints[:6]] * 3)
    image = np.array([project(pose, cam, w) for w in world])
    world[1, 2, 0] = np.inf
    image[2, 0, 1] = np.nan
    with np.errstate(invalid="ignore"):  # inf - inf while centring problem 1
        rot, t, status = epnp_stack(image, world, cam)
    assert status[0] == EPNP_OK and status[1] == EPNP_DEGENERATE and status[2] != EPNP_OK
    np.testing.assert_allclose(rot[0], pose.rotation_matrix(), atol=1e-9)


def test_stack_solves_noise_free_minimal_samples_exactly(cam, wireframe):
    # RANSAC returns a 5-point hypothesis as its pose, so exact data must give
    # the exact pose from the hypothesis kernel alone
    rng = stream(106, "epnp")
    poses = [random_pose(rng) for _ in range(200)]
    world = np.array(
        [wireframe.keypoints[rng.choice(wireframe.count, 5, replace=False)] for _ in poses]
    )
    image = np.array([project(pose, cam, w) for pose, w in zip(poses, world)])
    rot, _, status = epnp_stack(image, world, cam)
    assert np.all(status == EPNP_OK)
    for pose, r in zip(poses, rot):
        assert attitude_error(pose.attitude, quat_from_matrix(r)) < 1e-9


@pytest.mark.parametrize("n", [5, 11])
def test_stack_rows_do_not_depend_on_stack_composition(cam, wireframe, n):
    # each row's R, t and status are bitwise the same alone, in any order and
    # next to planar, collinear and non-finite rows
    rng = stream(108, "epnp")
    world, image = [], []
    for _ in range(12):
        w = wireframe.keypoints[rng.choice(wireframe.count, n, replace=False)]
        world.append(w)
        image.append(project(random_pose(rng), cam, w) + rng.normal(0.0, 2.0, (n, 2)))
    planar = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)), np.zeros(n)])
    collinear = np.outer(np.arange(n), [1.0, 0.5, 0.0])
    for w in (planar, collinear, wireframe.keypoints[:n], wireframe.keypoints[-n:]):
        world.append(w)
        image.append(project(random_pose(rng), cam, w))
    world, image = np.array(world), np.array(image)
    world[-2, 1, 2] = np.inf
    image[-1, 0, 0] = np.nan
    with np.errstate(invalid="ignore"):  # inf - inf while centring the inf row
        rot, t, status = epnp_stack(image, world, cam)
        assert status[12] == EPNP_OK and status[13] == EPNP_DEGENERATE  # planar, collinear
        order = rng.permutation(len(world))
        for rows in (order, order[:7], order[7:]):
            sub = epnp_stack(image[rows], world[rows], cam)
            for full, part in zip((rot, t, status), sub):
                np.testing.assert_array_equal(full[rows], part)
        for h in range(len(world)):
            alone = epnp_stack(image[h : h + 1], world[h : h + 1], cam)
            for full, part in zip((rot, t, status), alone):
                np.testing.assert_array_equal(full[h : h + 1], part)


def test_gauss_newton_keeps_a_non_finite_row_apart():
    rng = stream(107, "epnp")
    basis = rng.normal(size=(3, 12, 4))
    rng.normal(size=(3, 4, 3))  # drawn and unused, so that the draws below stay fixed
    gram = _distance_terms(basis)
    truth = rng.normal(size=(3, 4))
    rho = np.einsum("hk,hpkl,hl->hp", truth, gram, truth)
    start = truth + 0.05 * rng.normal(size=(3, 4))
    gram[1, 2, 0, 0] = np.nan
    beta = _gauss_newton(start, gram, rho)
    np.testing.assert_array_equal(beta[1], start[1])
    np.testing.assert_array_equal(
        beta[[0, 2]], _gauss_newton(start[[0, 2]], gram[[0, 2]], rho[[0, 2]])
    )
    np.testing.assert_allclose(beta[[0, 2]], truth[[0, 2]], rtol=0, atol=1e-9)


def _fixed_step_gauss_newton(beta, gram, rho):
    """The beta refinement without a stop: every row takes all 10 steps."""
    n, p, k = gram.shape[:3]
    flat = gram.reshape(n, p * k, k)
    for _ in range(10):
        column = beta[:, :, None]
        half = (flat @ column).reshape(n, p, k)
        residual = (half @ column)[..., 0] - rho
        half_t = half.swapaxes(1, 2)
        delta = _solve(half_t @ half + _GN_DAMPING[k], half_t @ (-0.5 * residual)[..., None])
        delta = delta[..., 0]
        finite = np.isfinite(delta)
        if finite.all():
            beta = beta + delta
        else:
            beta = beta + np.where(finite.all(axis=1, keepdims=True), delta, 0.0)
    return beta


def _random_problems(cam, wireframe, rng, count, n, sigma):
    world = np.array(
        [wireframe.keypoints[rng.choice(wireframe.count, n, replace=False)] for _ in range(count)]
    )
    image = np.array([project(random_pose(rng), cam, w) for w in world])
    return image + rng.normal(0.0, sigma, image.shape), world


@pytest.mark.parametrize("n", [5, 11])
def test_noisy_stacks_match_the_fixed_step_loop(cam, wireframe, monkeypatch, n):
    # noisy rows never meet their distance constraints, so they take every step
    image, world = _random_problems(cam, wireframe, stream(109, "epnp"), 16, n, 2.0)
    calls = []

    def recorded(beta, gram, rho):
        calls.append((beta, gram, rho))
        return _fixed_step_gauss_newton(beta, gram, rho)

    monkeypatch.setattr(epnp_mod, "_gauss_newton", recorded)
    reference = epnp_stack(image, world, cam)
    monkeypatch.undo()
    for full, ref in zip(epnp_stack(image, world, cam), reference):
        np.testing.assert_array_equal(full, ref)
    assert calls
    for args in calls:
        np.testing.assert_array_equal(_gauss_newton(*args), _fixed_step_gauss_newton(*args))


@pytest.mark.parametrize("n", [5, 11])
def test_noise_free_step_counts(cam, wireframe, monkeypatch, n):
    # a row stops once its distance constraints hold and keeps the bits it gets
    # alone, and a stack takes as many solves as its slowest row. Every row of
    # an 11-point problem stops within 3. With 5 points the kernel is
    # two-dimensional; the rows that assume two and three dimensions stop as
    # fast, but the row that assumes one converges only linearly and takes 8
    # to 10 steps, and so does every 5-point call
    image, world = _random_problems(cam, wireframe, stream(110, "epnp"), 20, n, 0.0)
    calls, solves = [], [0]

    def recorded(*args):
        calls.append(args)
        return _gauss_newton(*args)

    def counted_solve(a, b):
        solves[0] += 1
        return _solve(a, b)

    monkeypatch.setattr(epnp_mod, "_gauss_newton", recorded)
    for h in range(len(world)):
        rot, t, status = epnp_stack(image[h : h + 1], world[h : h + 1], cam)
        assert status[0] == EPNP_OK
        rms = np.sqrt(np.mean(point_errors(rot, t, world[h : h + 1], image[h : h + 1], cam) ** 2))
        assert rms < 1e-6
    monkeypatch.setattr(epnp_mod, "_solve", counted_solve)
    stacked, rows = [], []
    for beta, gram, rho in calls:
        solves[0] = 0
        out = _gauss_newton(beta, gram, rho)
        stacked.append(solves[0])
        counts = []
        for r in range(len(beta)):
            solves[0] = 0
            alone = _gauss_newton(beta[r : r + 1], gram[r : r + 1], rho[r : r + 1])
            np.testing.assert_array_equal(out[r], alone[0])
            counts.append(solves[0])
        rows.append(counts)
    rows = np.array(rows)
    assert len(calls) >= len(world) and stacked == list(rows.max(axis=1))
    if n == 11:
        assert rows.max() <= 3 and rows.sum() > 0
    else:
        assert rows[:, 0].min() >= 8 and rows[:, 1:].max() <= 3 and rows[:, 1:].sum() > 0


def test_gauss_newton_rows_stop_on_their_own(monkeypatch):
    # an exact row stops early, a noisy row takes every step and a NaN row
    # keeps its betas; each comes out as it does alone
    rng = stream(111, "epnp")
    basis = rng.normal(size=(3, 12, 4))
    rng.normal(size=(3, 4, 3))  # drawn and unused, so that the draws below stay fixed
    gram = _distance_terms(basis)
    truth = rng.normal(size=(3, 4))
    rho = np.einsum("hk,hpkl,hl->hp", truth, gram, truth)
    rho[1] += 0.01 * rng.normal(size=rho.shape[1])
    start = truth + 0.01 * rng.normal(size=(3, 4))
    gram[2, 3, 1, 1] = np.nan
    solves = []

    def counted_solve(a, b):
        solves.append(len(a))
        return _solve(a, b)

    monkeypatch.setattr(epnp_mod, "_solve", counted_solve)
    beta = _gauss_newton(start, gram, rho)
    assert solves == [3] * 10
    steps = []
    for h in range(3):
        solves.clear()
        alone = _gauss_newton(start[h : h + 1], gram[h : h + 1], rho[h : h + 1])
        np.testing.assert_array_equal(beta[h], alone[0])
        steps.append(len(solves))
    assert 1 <= steps[0] < 10 and steps[1:] == [10, 0]
    np.testing.assert_allclose(beta[0], truth[0], rtol=0, atol=1e-9)
    np.testing.assert_array_equal(beta[2], start[2])


def test_stacked_solve_isolates_singular_slices():
    a = np.array(
        [np.eye(3) * 2.0, np.zeros((3, 3)), [[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]]
    )
    b = np.ones((3, 3, 1))
    x = _solve(a, b)
    assert np.all(np.isnan(x[1]))
    np.testing.assert_allclose(x[0], np.linalg.solve(a[0], b[0]))
    np.testing.assert_allclose(x[2], np.linalg.solve(a[2], b[2]))


def test_point_errors_use_the_projection_depth_cut(cam):
    # a point closer than MIN_PROJECTION_DEPTH is one project() rejects, so it
    # must not score as an inlier either
    world = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 1.0], [0.0, 0.2, 2.0], [-0.1, 0.1, 3.0]])
    t = np.array([0.0, 0.0, 5e-7])
    errors = point_errors(np.eye(3), t, world, np.zeros((4, 2)), cam)
    assert errors[0] == np.inf
    assert np.all(np.isfinite(errors[1:]))
