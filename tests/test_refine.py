"""Levenberg-Marquardt refinement and Jacobian tests."""

from collections import Counter

import numpy as np
import pytest

import satpose.pnp.refine as refine_mod
from satpose import attitude_error, epnp, lm_refine
from satpose.errors import BehindCameraError, NumericalFailureError
from satpose.geometry import Pose, project, quat_from_rotvec, quat_multiply
from satpose.pnp.refine import reprojection_jacobian, skew_table
from satpose.rng import stream
from tests.conftest import quat_from_axis_angle, reprojection_rms


def perturbed(pose: Pose, rng, angle_deg=5.0, shift=0.5) -> Pose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    dq = quat_from_axis_angle(axis, np.radians(angle_deg))
    dt = rng.normal(size=3)
    dt *= shift / np.linalg.norm(dt)
    return Pose(position=pose.position + dt, attitude=quat_multiply(pose.attitude, dq))


def pose_jacobian(pose: Pose, world: np.ndarray, cam) -> np.ndarray:
    rot, cam_pts = pose.rotation_matrix(), pose.transform(world)
    return reprojection_jacobian(rot, cam_pts, skew_table(world), cam)


def reference_lm(initial: Pose, corrs, cam) -> tuple[Pose, str, int]:
    """The Pose-based LM that ``lm_refine`` must match to the bit.

    One damped loop with the module's constants that builds a ``Pose`` for
    every residual, through ``project``, and for every Jacobian. Returns the
    refined pose, the stop rule it ended on and the number of trial steps
    whose points fell at or behind the camera.
    """
    image = np.array([c.image for c in corrs])
    world = np.array([c.world for c in corrs])

    def residual(x):
        return (project(Pose(position=x[0], attitude=x[1]), cam, world) - image).ravel()

    x = (np.array(initial.position), np.array(initial.attitude))
    r = residual(x)
    cost = float(r @ r)
    damping, behind = refine_mod._INITIAL_DAMPING, 0
    for _ in range(refine_mod._MAX_ITERATIONS):
        jac = pose_jacobian(Pose(position=x[0], attitude=x[1]), world, cam)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < refine_mod._GRADIENT_TOL:
            stop = "gradient"
            break
        jtj = jac.T @ jac
        diag = np.diag(np.maximum(np.diag(jtj), 1e-12))
        improved, stop = False, "no-descent"
        while damping <= refine_mod._DAMPING_MAX:
            try:
                delta = np.linalg.solve(jtj + damping * diag, -grad)
            except np.linalg.LinAlgError:
                damping *= refine_mod._DAMPING_UP
                continue
            if np.linalg.norm(delta) < refine_mod._STEP_TOL:
                stop = "step"
                break
            x_new = (x[0] + delta[:3], quat_multiply(x[1], quat_from_rotvec(delta[3:])))
            cost_new = np.inf
            try:
                r_new = residual(x_new)
            except BehindCameraError:
                behind += 1
            else:
                if np.all(np.isfinite(r_new)):
                    cost_new = float(r_new @ r_new)
            if cost_new < cost:
                improved = cost - cost_new >= refine_mod._COST_TOL * max(cost_new, 1e-30)
                stop = "cost"
                x, r, cost = x_new, r_new, cost_new
                damping = max(damping * refine_mod._DAMPING_DOWN, 1e-15)
                break
            damping *= refine_mod._DAMPING_UP
        if not improved:
            break
    else:
        stop = "max-iterations"
    return Pose(position=x[0], attitude=x[1]), stop, behind


class TestJacobian:
    def test_matches_central_finite_differences(self, cam, wireframe, make_case):
        step = 1e-6
        for seed in range(30):
            pose, corrs = make_case(400 + seed, noise_sigma=1.0)
            world = np.array([c.world for c in corrs])
            image = np.array([c.image for c in corrs])
            analytic = pose_jacobian(pose, world, cam)

            def stacked(delta):
                moved = Pose(
                    position=pose.position + delta[:3],
                    attitude=quat_multiply(pose.attitude, quat_from_rotvec(delta[3:])),
                )
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


# (noise px, start): the families end on the gradient, step, cost and
# max-iterations rules; starts 4x and 30x too far out take trial steps whose
# points fall behind the camera
REFERENCE_CASES = (
    (0.0, lambda pose, rng: pose),
    (0.5, lambda pose, rng: perturbed(pose, rng, angle_deg=1e-9, shift=1e-9)),
    (2.0, lambda pose, rng: perturbed(pose, rng, angle_deg=3.0, shift=0.3)),
    (2.0, lambda pose, rng: perturbed(scaled(pose, 4.0), rng, angle_deg=3.0, shift=0.01)),
    (2.0, lambda pose, rng: perturbed(scaled(pose, 30.0), rng, angle_deg=3.0, shift=0.01)),
)


def scaled(pose: Pose, factor: float) -> Pose:
    return Pose(position=factor * pose.position, attitude=pose.attitude)


def test_matches_pose_based_reference_to_the_bit(cam, make_case):
    rng = stream(51, "lm")
    stops, behind = Counter(), 0
    for seed in range(12):
        for sigma, start_from in REFERENCE_CASES:
            pose, corrs = make_case(900 + seed, noise_sigma=sigma)
            start = start_from(pose, rng)
            expected, stop, behind_trials = reference_lm(start, corrs, cam)
            refined = lm_refine(start, corrs, cam)
            np.testing.assert_array_equal(refined.position, expected.position)
            np.testing.assert_array_equal(refined.attitude, expected.attitude)
            stops[stop] += 1
            behind += behind_trials > 0
    assert {"gradient", "step", "cost", "max-iterations"} <= set(stops)
    assert behind > 0


def test_jacobian_once_at_start_and_once_per_accepted_step(cam, make_case, monkeypatch):
    # the benchmark reads the Jacobian count as LM's iteration count
    jacobian, trial = refine_mod.reprojection_jacobian, refine_mod._trial_residuals
    rng = stream(48, "lm")
    for seed in range(20):
        pose, corrs = make_case(800 + seed, noise_sigma=2.0)
        start = perturbed(pose, rng, angle_deg=3.0, shift=0.3)
        world = np.array([c.world for c in corrs])
        image = np.array([c.image for c in corrs])
        start_residual = (project(start, cam, world) - image).ravel()
        at, accepted, cost = [], [], [start_residual @ start_residual]

        def counting(rot, cam_pts, world_skew, cam_):
            at.append((rot, cam_pts))
            return jacobian(rot, cam_pts, world_skew, cam_)

        def accepting(x, world_, image_, cam_):
            residual, linearised = trial(x, world_, image_, cam_)
            if residual @ residual < cost[-1]:
                accepted.append(linearised)
                cost.append(residual @ residual)
            return residual, linearised

        monkeypatch.setattr(refine_mod, "reprojection_jacobian", counting)
        monkeypatch.setattr(refine_mod, "_trial_residuals", accepting)
        refined = refine_mod.lm_refine(start, corrs, cam)
        np.testing.assert_array_equal(at[0][0], start.rotation_matrix())
        np.testing.assert_array_equal(at[0][1], start.transform(world))
        # an accepted step that ends the loop is the only one with no Jacobian after it
        ended_on_step = not np.array_equal(refined.transform(world), at[-1][1])
        assert len(at) == 1 + len(accepted) - ended_on_step
        for (rot, cam_pts), (trial_rot, trial_pts) in zip(at[1:], accepted):
            # the Jacobian reuses the accepted trial's arrays, it does not rebuild them
            assert rot is trial_rot and cam_pts is trial_pts


def test_non_finite_residuals_raise(cam, wireframe, make_case, monkeypatch):
    pose, corrs = make_case(45)

    def poisoned(pose_, cam_, points):
        return np.full((len(points), 2), np.nan)

    monkeypatch.setattr(refine_mod, "project", poisoned)  # the start is scored by project
    with pytest.raises(NumericalFailureError):
        refine_mod.lm_refine(pose, corrs, cam)


def test_non_finite_trials_are_rejected(cam, make_case, monkeypatch):
    pose, corrs = make_case(47, noise_sigma=2.0)
    start = perturbed(pose, stream(47, "lm"), angle_deg=3.0, shift=0.3)
    trial = refine_mod._trial_residuals

    def poisoned(x, world, image, cam_):
        residual, linearised = trial(x, world, image, cam_)
        return np.full_like(residual, np.nan), linearised

    monkeypatch.setattr(refine_mod, "_trial_residuals", poisoned)
    refined = refine_mod.lm_refine(start, corrs, cam)
    np.testing.assert_array_equal(refined.position, start.position)
    np.testing.assert_array_equal(refined.attitude, start.attitude)
