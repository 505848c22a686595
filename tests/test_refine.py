"""Levenberg-Marquardt refinement and Jacobian tests."""

import numpy as np
import pytest

from satpose import attitude_error, epnp, lm_refine
from satpose.errors import BehindCameraError, NumericalFailureError
from satpose.geometry import Pose, quat_from_axis_angle, quat_from_rotvec, quat_multiply
from satpose.pnp.refine import reprojection_jacobian
from satpose.rng import stream
from tests.conftest import reprojection_rms


def perturbed(pose: Pose, rng, angle_deg=5.0, shift=0.5) -> Pose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    dq = quat_from_axis_angle(axis, np.radians(angle_deg))
    dt = rng.normal(size=3)
    dt *= shift / np.linalg.norm(dt)
    return Pose(position=pose.position + dt, attitude=quat_multiply(pose.attitude, dq))


class TestJacobian:
    def test_matches_central_finite_differences(self, cam, wireframe, make_case):
        step = 1e-6
        for seed in range(30):
            pose, corrs = make_case(400 + seed, noise_sigma=1.0)
            world = np.array([c.world for c in corrs])
            image = np.array([c.image for c in corrs])
            analytic = reprojection_jacobian(pose, world, cam)

            def stacked(delta):
                moved = Pose(
                    position=pose.position + delta[:3],
                    attitude=quat_multiply(pose.attitude, quat_from_rotvec(delta[3:])),
                )
                from satpose.geometry import project

                return (project(moved, cam, world) - image).ravel()

            fd = np.zeros_like(analytic)
            for k in range(6):
                d = np.zeros(6)
                d[k] = step
                fd[:, k] = (stacked(d) - stacked(-d)) / (2 * step)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            assert rel < 1e-4


class TestLMRefine:
    def test_ground_truth_is_fixed_point(self, cam, wireframe, make_case):
        pose, corrs = make_case(41)
        refined = lm_refine(pose, corrs, cam)
        assert np.linalg.norm(refined.position - pose.position) < 1e-10
        assert attitude_error(pose.attitude, refined.attitude) < 1e-10

    def test_converges_from_perturbed_start(self, cam, wireframe, make_case):
        rng = stream(42, "lm")
        for seed in range(20):
            pose, corrs = make_case(500 + seed)
            start = perturbed(pose, rng)
            refined = lm_refine(start, corrs, cam)
            assert attitude_error(pose.attitude, refined.attitude) < 1e-6
            assert (
                np.linalg.norm(refined.position - pose.position)
                < 1e-6 * np.linalg.norm(pose.position)
            )

    def test_descent_on_noisy_data(self, cam, wireframe, make_case):
        rng = stream(43, "lm")
        for seed in range(100):
            pose, corrs = make_case(600 + seed, noise_sigma=2.0)
            start = perturbed(pose, rng, angle_deg=3.0, shift=0.3)
            refined = lm_refine(start, corrs, cam)
            assert reprojection_rms(refined, corrs, cam) <= reprojection_rms(start, corrs, cam)

    def test_refined_rms_never_worse_than_epnp(self, cam, wireframe, make_case):
        for seed in range(50):
            _, corrs = make_case(700 + seed, noise_sigma=2.0)
            coarse = epnp(corrs, cam)
            refined = lm_refine(coarse, corrs, cam)
            rms_coarse = reprojection_rms(coarse, corrs, cam)
            assert reprojection_rms(refined, corrs, cam) <= rms_coarse + 1e-12

def test_start_behind_camera_names_point_and_depth(cam, wireframe, make_case):
    pose, corrs = make_case(46)
    # shift the target so keypoint 3 sits on the camera plane; nearer ones fall behind it
    depth = pose.rotation_matrix()[2] @ wireframe.keypoints.T
    shift = np.array([0.0, 0.0, pose.position[2] + depth[3]])
    start = Pose(position=pose.position - shift, attitude=pose.attitude)
    z = start.transform(wireframe.keypoints)[:, 2]
    expected = int(np.nonzero(z <= 1e-6)[0][0])
    with pytest.raises(BehindCameraError) as err:
        lm_refine(start, corrs, cam)
    assert err.value.index == expected
    assert err.value.z == z[expected]


def test_jacobian_once_at_start_and_once_per_accepted_step(cam, make_case, monkeypatch):
    # the benchmark reads the Jacobian count as LM's iteration count
    import satpose.pnp.refine as refine_mod

    jacobian, residuals = refine_mod.reprojection_jacobian, refine_mod._stacked_residuals
    rng = stream(48, "lm")
    for seed in range(20):
        pose, corrs = make_case(800 + seed, noise_sigma=2.0)
        start = perturbed(pose, rng, angle_deg=3.0, shift=0.3)
        at, accepted, cost = [], [], []

        def counting(p, world_, cam_):
            at.append(p)
            return jacobian(p, world_, cam_)

        def accepting(t, q, world_, image_, cam_):
            # the first call scores the start pose, every later one a trial step
            residual = residuals(t, q, world_, image_, cam_)
            if not cost:
                cost.append(residual @ residual)
            elif residual @ residual < cost[-1]:
                accepted.append(t)
                cost.append(residual @ residual)
            return residual

        monkeypatch.setattr(refine_mod, "reprojection_jacobian", counting)
        monkeypatch.setattr(refine_mod, "_stacked_residuals", accepting)
        refined = refine_mod.lm_refine(start, corrs, cam)
        np.testing.assert_array_equal(at[0].position, start.position)
        # an accepted step that ends the loop is the only one with no Jacobian after it
        ended_on_step = not np.array_equal(refined.position, at[-1].position)
        assert len(at) == 1 + len(accepted) - ended_on_step
        for p, t in zip(at[1:], accepted):
            np.testing.assert_array_equal(p.position, t)


def test_non_finite_residuals_raise(cam, wireframe, make_case, monkeypatch):
    pose, corrs = make_case(45)
    import satpose.pnp.refine as refine_mod

    def poisoned(t, q, world, image, cam_):
        return np.full(2 * len(world), np.nan)

    monkeypatch.setattr(refine_mod, "_stacked_residuals", poisoned)
    with pytest.raises(NumericalFailureError):
        refine_mod.lm_refine(pose, corrs, cam)

