"""Levenberg-Marquardt refinement and residual/Jacobian tests."""

import numpy as np
import pytest

from satpose import (
    Correspondence,
    LMConfig,
    attitude_error,
    epnp,
    lm_refine,
    reprojection_residuals,
)
from satpose.errors import BehindCameraError, NumericalFailureError
from satpose.geometry import Pose, quat_from_axis_angle, quat_from_rotvec, quat_multiply
from satpose.pnp.refine import reprojection_jacobian
from satpose.rng import stream


def perturbed(pose: Pose, rng, angle_deg=5.0, shift=0.5) -> Pose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    dq = quat_from_axis_angle(axis, np.radians(angle_deg))
    dt = rng.normal(size=3)
    dt *= shift / np.linalg.norm(dt)
    return Pose(position=pose.position + dt, attitude=quat_multiply(pose.attitude, dq))


def cost_of(pose, corrs, cam) -> float:
    residuals, _ = reprojection_residuals(pose, corrs, cam)
    return float(np.sum(residuals**2))


class TestResiduals:
    def test_generator_pose_has_zero_rms(self, cam, wireframe, make_case):
        pose, corrs = make_case(31)
        residuals, rms = reprojection_residuals(pose, corrs, cam)
        assert rms < 1e-9
        assert residuals.shape == (len(corrs), 2)

    def test_three_four_five_offset(self, cam, wireframe, make_case):
        pose, corrs = make_case(32)
        c = corrs[0]
        shifted = Correspondence(image=c.image + [3.0, 4.0], world=c.world, id=c.id)
        _, rms = reprojection_residuals(pose, [shifted], cam)
        assert abs(rms - 5.0) < 1e-9

    def test_length_matches_input(self, cam, wireframe, make_case):
        pose, corrs = make_case(33)
        residuals, _ = reprojection_residuals(pose, corrs[:7], cam)
        assert len(residuals) == 7

    def test_behind_camera_names_index(self, cam, wireframe):
        pose = Pose(position=[0.0, 0.0, 1.0], attitude=[1, 0, 0, 0])
        corrs = [
            Correspondence(image=[960.0, 600.0], world=[0.0, 0.0, 0.0], id=0),
            Correspondence(image=[960.0, 600.0], world=[0.0, 0.0, -3.0], id=1),
        ]
        with pytest.raises(BehindCameraError) as err:
            reprojection_residuals(pose, corrs, cam)
        assert err.value.index == 1


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
        refined = lm_refine(pose, corrs, cam, LMConfig())
        assert np.linalg.norm(refined.position - pose.position) < 1e-10
        assert attitude_error(pose.attitude, refined.attitude) < 1e-10

    def test_converges_from_perturbed_start(self, cam, wireframe, make_case):
        rng = stream(42, "lm")
        for seed in range(20):
            pose, corrs = make_case(500 + seed)
            start = perturbed(pose, rng)
            refined = lm_refine(start, corrs, cam, LMConfig())
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
            refined = lm_refine(start, corrs, cam, LMConfig())
            assert cost_of(refined, corrs, cam) <= cost_of(start, corrs, cam)

    def test_refined_rms_never_worse_than_epnp(self, cam, wireframe, make_case):
        for seed in range(50):
            _, corrs = make_case(700 + seed, noise_sigma=2.0)
            coarse = epnp(corrs, cam)
            refined = lm_refine(coarse, corrs, cam, LMConfig())
            _, rms_coarse = reprojection_residuals(coarse, corrs, cam)
            _, rms_refined = reprojection_residuals(refined, corrs, cam)
            assert rms_refined <= rms_coarse + 1e-12

def test_start_behind_camera_names_point_and_depth(cam, wireframe, make_case):
    pose, corrs = make_case(46)
    # shift the target so keypoint 3 sits on the camera plane; nearer ones fall behind it
    depth = pose.rotation_matrix()[2] @ wireframe.keypoints.T
    shift = np.array([0.0, 0.0, pose.position[2] + depth[3]])
    start = Pose(position=pose.position - shift, attitude=pose.attitude)
    z = start.transform(wireframe.keypoints)[:, 2]
    expected = int(np.nonzero(z <= 1e-6)[0][0])
    with pytest.raises(BehindCameraError) as err:
        lm_refine(start, corrs, cam, LMConfig())
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
        refined = refine_mod.lm_refine(start, corrs, cam, LMConfig())
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
        refine_mod.lm_refine(pose, corrs, cam, LMConfig())


def test_lm_config_validation():
    with pytest.raises(ValueError):
        LMConfig(gradient_tol=0.0)
    with pytest.raises(ValueError):
        LMConfig(initial_damping=-1.0)
    with pytest.raises(ValueError):
        LMConfig(max_iterations=0)
