"""EPnP solver tests against the projection synthesis oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpose import Correspondence, attitude_error, epnp
from satpose.errors import DegenerateGeometryError
from satpose.geometry import Pose, project
from satpose.pnp.epnp import (
    PLANAR_EIGENVALUE_RATIO,
    _control_frame,
    _distance_terms,
    _gauss_newton,
)
from satpose.pnp.p3p import _solve, point_errors
from satpose.rng import stream
from tests.conftest import random_pose, reprojection_rms, synthesize


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
    planar = _control_frame(world)[4]
    assert planar == (side == "planar") == (ratio < PLANAR_EIGENVALUE_RATIO)
    pose = random_pose(rng)
    image = project(pose, cam, world)
    est = epnp([Correspondence(image=image[k], world=world[k], id=k) for k in range(n)], cam)
    errors = point_errors(est.rotation_matrix(), est.position, world, image, cam)
    assert np.sqrt(np.mean(errors**2)) < rms_bound


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
        rot = est.rotation_matrix()
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9
        assert est.position[2] > 0


def test_noise_free_five_point_sets_solve_exactly(cam, wireframe):
    # five points, the fewest EPnP takes, leave a two-dimensional null space,
    # which the candidates that assume two or three dimensions resolve exactly
    rng = stream(106, "epnp")
    for _ in range(200):
        pose = random_pose(rng)
        world = wireframe.keypoints[rng.choice(wireframe.count, 5, replace=False)]
        image = project(pose, cam, world)
        est = epnp([Correspondence(image=image[k], world=world[k], id=k) for k in range(5)], cam)
        assert attitude_error(pose.attitude, est.attitude) < 1e-9


def test_gauss_newton_keeps_a_non_finite_row_apart():
    # a candidate row whose betas are NaN, as from a singular init system,
    # keeps them, and the other rows come out as they do without it
    rng = stream(107, "epnp")
    gram = _distance_terms(rng.normal(size=(12, 4)))
    truth = rng.normal(size=4)
    rho = np.einsum("k,pkl,l->p", truth, gram, truth)
    start = truth + 0.05 * rng.normal(size=(3, 4))
    start[1, 2] = np.nan
    beta = _gauss_newton(start, gram, rho)
    np.testing.assert_array_equal(beta[1], start[1])
    np.testing.assert_array_equal(beta[[0, 2]], _gauss_newton(start[[0, 2]], gram, rho))
    np.testing.assert_allclose(beta[[0, 2]], [truth, truth], rtol=0, atol=1e-9)


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
