"""Multiview triangulation tests."""

import importlib

import numpy as np
import pytest

from satpose import triangulate
from satpose.errors import DegenerateBaselineError
from satpose.geometry import project
from satpose.rng import stream
from tests.conftest import random_pose

# the pnp package re-exports the function under the submodule's name
tri_mod = importlib.import_module("satpose.pnp.triangulate")


def make_views(rng, cam, point, n_views, noise_sigma=0.0):
    views = []
    while len(views) < n_views:
        pose = random_pose(rng)
        try:
            pixel = project(pose, cam, point)
        except Exception:
            continue
        if noise_sigma > 0.0:
            pixel = pixel + rng.normal(0.0, noise_sigma, size=2)
        views.append((pose, pixel))
    return views


def test_five_clean_views_recover_point(cam, wireframe):
    rng = stream(61, "tri")
    for point in wireframe.keypoints:
        views = make_views(rng, cam, point, 5)
        recovered = triangulate(views, cam)
        assert np.linalg.norm(recovered - point) < 1e-6


def test_error_shrinks_with_view_count(cam, wireframe):
    rng = stream(62, "tri")
    point = wireframe.keypoints[9]
    counts = [2, 3, 5, 10]
    means = []
    for n_views in counts:
        errors = []
        for _ in range(200):
            views = make_views(rng, cam, point, n_views, noise_sigma=1.0)
            try:
                recovered = triangulate(views, cam)
            except DegenerateBaselineError:
                continue
            errors.append(np.linalg.norm(recovered - point))
        means.append(np.mean(errors))
    # monotone in expectation; allow slack for Monte Carlo wiggle between steps
    for lo, hi in zip(means[1:], means[:-1]):
        assert lo < hi * 1.05
    assert means[-1] < means[0]


def test_identical_poses_degenerate(cam, wireframe):
    rng = stream(63, "tri")
    pose = random_pose(rng)
    point = wireframe.keypoints[0]
    pixel = project(pose, cam, point)
    with pytest.raises(DegenerateBaselineError):
        triangulate([(pose, pixel), (pose, pixel)], cam)


def test_single_view_rejected(cam, wireframe):
    rng = stream(64, "tri")
    pose = random_pose(rng)
    pixel = project(pose, cam, wireframe.keypoints[0])
    with pytest.raises(ValueError):
        triangulate([(pose, pixel)], cam)


def test_matches_scipy_least_squares_from_the_dlt_start(cam, wireframe):
    from scipy.optimize import least_squares

    rng = stream(65, "tri")
    for n_views in (3, 4, 6, 10, 25, 60):
        for point in wireframe.keypoints[::3]:
            views = make_views(rng, cam, point, n_views, noise_sigma=1.0)
            start = tri_mod._dlt_point(*tri_mod._unpack(views), cam)
            pixels = np.array([px for _, px in views])

            def residuals(x):
                return np.concatenate([project(p, cam, x) for p, _ in views]) - pixels.ravel()

            ref = least_squares(residuals, start, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
            assert np.linalg.norm(triangulate(views, cam) - ref.x) < 1e-6


def test_dlt_start_behind_a_camera_is_returned_unrefined(cam, wireframe, monkeypatch):
    rng = stream(66, "tri")
    views = make_views(rng, cam, wireframe.keypoints[0], 4, noise_sigma=1.0)
    pose0 = views[0][0]
    # 1 m behind view 0's camera, mapped back into the body frame
    behind = pose0.rotation_matrix().T @ (np.array([0.2, -0.1, -1.0]) - pose0.position)
    monkeypatch.setattr(tri_mod, "_dlt_point", lambda *args: behind.copy())
    np.testing.assert_array_equal(triangulate(views, cam), behind)
