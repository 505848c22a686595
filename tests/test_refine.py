"""Levenberg-Marquardt refinement and Jacobian tests."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satpose.pnp.refine as refine_mod
from satpose import RansacConfig, attitude_error, epnp, lm_refine, ransac_pnp
from satpose.errors import BehindCameraError, NumericalFailureError
from satpose.geometry import Pose, project, quat_from_rotvec, quat_multiply
from satpose.pnp.refine import reprojection_jacobian, skew_table
from satpose.rng import stream
from tests.conftest import quat_from_axis_angle, random_pose, reprojection_rms, synthesize


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


def cayley_step(x, delta):
    """``x = (t, q)`` moved by ``delta``: t + dt, and q times (1, dtheta / 2), normalised."""
    q = quat_multiply(x[1], np.concatenate([[1.0], 0.5 * delta[3:]]))
    return x[0] + delta[:3], q / math.hypot(*q.tolist())


def reference_lm(initial: Pose, corrs, cam) -> tuple[Pose, str, int, int]:
    """The Pose-based LM that ``lm_refine`` must match to the bit.

    One damped loop and its Gauss-Newton finish, with the module's constants,
    that builds a ``Pose`` for every residual, through ``project``, and for
    every Jacobian, and takes its trial steps by :func:`cayley_step`. Returns
    the refined pose, the stop rule the damped loop ended on, the number of
    trial steps whose points fell at or behind the camera and the number of
    finish steps kept.
    """
    image = np.array([c.image for c in corrs])
    world = np.array([c.world for c in corrs])

    def residual(x):
        return (project(Pose(position=x[0], attitude=x[1]), cam, world) - image).ravel()

    def linearised(x, r):
        jac = pose_jacobian(Pose(position=x[0], attitude=x[1]), world, cam)
        return jac, jac.T @ r

    x = (np.array(initial.position), np.array(initial.attitude))
    r = residual(x)
    cost = start_cost = float(r @ r)
    damping, behind = refine_mod._INITIAL_DAMPING, 0
    for _ in range(refine_mod._MAX_ITERATIONS):
        jac, grad = linearised(x, r)
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
            x_new = cayley_step(x, delta)
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

    jac, grad = linearised(x, r)
    finished = 0
    for _ in range(refine_mod._FINISH_STEPS):
        if np.max(np.abs(grad)) < refine_mod._GRADIENT_TOL:
            break
        try:
            delta = np.linalg.solve(jac.T @ jac, -grad)
        except np.linalg.LinAlgError:
            break
        if not np.linalg.norm(delta) >= refine_mod._STEP_TOL:
            break
        x_new = cayley_step(x, delta)
        try:
            r_new = residual(x_new)
        except BehindCameraError:
            behind += 1
            break
        cost_new = float(r_new @ r_new)
        if not cost_new <= min(cost * (1.0 + refine_mod._FINISH_COST_SLACK), start_cost):
            break
        jac_new, grad_new = linearised(x_new, r_new)
        if not np.max(np.abs(grad_new)) < np.max(np.abs(grad)):
            break
        x, r, cost, jac, grad = x_new, r_new, cost_new, jac_new, grad_new
        finished += 1
    return Pose(position=x[0], attitude=x[1]), stop, behind, finished


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


# (noise px, start): the families end on the gradient, cost and
# max-iterations rules; starts 4x and 30x too far out take trial steps whose
# points fall behind the camera. A start 1e-9 off the resolved minimum, made
# in the test, ends on the step rule
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
    rng, nudge = stream(51, "lm"), stream(52, "lm")
    stops, behind, finished = Counter(), 0, 0
    for seed in range(12):
        for sigma, start_from in REFERENCE_CASES + ((2.0, None),):
            pose, corrs = make_case(900 + seed, noise_sigma=sigma)
            if start_from is None:
                minimum = lm_refine(pose, corrs, cam)
                start = perturbed(minimum, nudge, angle_deg=1e-9, shift=1e-9)
            else:
                start = start_from(pose, rng)
            expected, stop, behind_trials, finish_steps = reference_lm(start, corrs, cam)
            refined = lm_refine(start, corrs, cam)
            np.testing.assert_array_equal(refined.position, expected.position)
            np.testing.assert_array_equal(refined.attitude, expected.attitude)
            stops[stop] += 1
            behind += behind_trials > 0
            finished += finish_steps
    assert {"gradient", "step", "cost", "max-iterations"} <= set(stops)
    assert behind > 0
    assert finished > 0


def test_jacobian_once_at_start_and_once_per_accepted_step(cam, make_case, monkeypatch):
    # the benchmark reads the Jacobian count as LM's iteration count: one at
    # the start, one per accepted step, the step that ends the damped loop
    # included, and one per finish trial that passes the finish's cost rule
    jacobian, trial = refine_mod.reprojection_jacobian, refine_mod._trial_residuals
    rng = stream(48, "lm")
    for seed in range(20):
        pose, corrs = make_case(800 + seed, noise_sigma=2.0)
        start = perturbed(pose, rng, angle_deg=3.0, shift=0.3)
        world = np.array([c.world for c in corrs])
        image = np.array([c.image for c in corrs])
        start_residual = (project(start, cam, world) - image).ravel()
        at, trials = [], []

        def counting(rot, cam_pts, world_skew, cam_):
            at.append((rot, cam_pts))
            return jacobian(rot, cam_pts, world_skew, cam_)

        def recording(x, world_, image_, cam_):
            residual, linearised = trial(x, world_, image_, cam_)
            trials.append((residual @ residual, linearised))
            return residual, linearised

        monkeypatch.setattr(refine_mod, "reprojection_jacobian", counting)
        monkeypatch.setattr(refine_mod, "_trial_residuals", recording)
        refined = refine_mod.lm_refine(start, corrs, cam)
        np.testing.assert_array_equal(at[0][0], start.rotation_matrix())
        np.testing.assert_array_equal(at[0][1], start.transform(world))
        accepted, cost = [], start_residual @ start_residual
        for i, (trial_cost, _) in enumerate(trials):
            if trial_cost < cost:
                accepted.append(i)
                cost = trial_cost
        # the Jacobians reuse the trials' arrays, they do not rebuild them
        owners = [
            next(i for i, (_, (r, p)) in enumerate(trials) if r is rot and p is cam_pts)
            for rot, cam_pts in at[1:]
        ]
        assert owners == sorted(set(owners))
        # the finish also linearises at a trial whose cost rose by round-off
        roundoff = [trials[i] for i in owners if i not in accepted]
        assert len(roundoff) <= refine_mod._FINISH_STEPS
        assert all(c <= start_residual @ start_residual for c, _ in roundoff)
        assert len(at) == 1 + len(accepted) + len(roundoff)
        # the refined pose is the last trial with a Jacobian, or the one before it
        assert any(np.array_equal(refined.transform(world), p) for _, p in at[-2:])


def test_exact_pose_takes_one_jacobian_and_no_trial(cam, make_case, monkeypatch):
    # noise-free data from its own pose is a minimum already: neither the
    # damped loop nor the Gauss-Newton finish steps or linearises again
    jacobian, trial = refine_mod.reprojection_jacobian, refine_mod._trial_residuals
    calls = Counter()

    def counting(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    def counting_trials(*args):
        calls["trial"] += 1
        return trial(*args)

    monkeypatch.setattr(refine_mod, "reprojection_jacobian", counting)
    monkeypatch.setattr(refine_mod, "_trial_residuals", counting_trials)
    for seed in range(10):
        pose, corrs = make_case(1000 + seed)
        calls.clear()
        refined = refine_mod.lm_refine(pose, corrs, cam)
        assert calls == {"jacobian": 1}
        np.testing.assert_array_equal(refined.position, pose.position)
        np.testing.assert_array_equal(refined.attitude, pose.attitude)


def _cost(pose: Pose, corrs, cam) -> float:
    image = np.array([c.image for c in corrs])
    world = np.array([c.world for c in corrs])
    residual = (project(pose, cam, world) - image).ravel()
    return float(residual @ residual)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma=st.floats(0.1, 5.0),
    start=st.sampled_from(["perturbed", "minimum", "near-minimum"]),
)
def test_refined_cost_never_exceeds_the_start_cost(cam, wireframe, seed, sigma, start):
    # the finish may let the cost rise by round-off, but never past the start,
    # also from a start at the minimum or within 1e-9 of it
    rng = stream(seed, "test-case")
    pose = random_pose(rng)
    corrs = synthesize(pose, cam, wireframe, noise_sigma=sigma, rng=rng)
    if start == "perturbed":
        initial = perturbed(pose, rng, angle_deg=3.0, shift=0.3)
    else:
        initial = lm_refine(pose, corrs, cam)
        if start == "near-minimum":
            initial = perturbed(initial, rng, angle_deg=1e-9, shift=1e-9)
    assert _cost(lm_refine(initial, corrs, cam), corrs, cam) <= _cost(initial, corrs, cam)


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


def test_non_finite_increment_is_a_rejected_trial(cam, make_case, monkeypatch):
    # a NaN step gives a NaN trial pose, which is rejected like any
    # non-finite trial: the start comes back, and no ValueError escapes
    pose, corrs = make_case(53, noise_sigma=2.0)
    start = perturbed(pose, stream(53, "lm"), angle_deg=3.0, shift=0.3)
    trial, trials = refine_mod._trial_residuals, []

    def recording(*args):
        residual, linearised = trial(*args)
        trials.append(residual)
        return residual, linearised

    monkeypatch.setattr(refine_mod, "_trial_residuals", recording)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    refined = refine_mod.lm_refine(start, corrs, cam)
    assert trials and all(np.isnan(r).all() for r in trials)
    np.testing.assert_array_equal(refined.position, start.position)
    np.testing.assert_array_equal(refined.attitude, start.attitude)


def test_overflowing_increment_is_a_rejected_trial(cam, make_case, monkeypatch):
    # a step of 1e200 overflows its squared length: measuring it warns
    # nothing, and the trial is rejected, so the start comes back
    pose, corrs = make_case(53, noise_sigma=2.0)
    start = perturbed(pose, stream(53, "lm"), angle_deg=3.0, shift=0.3)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        refined = refine_mod.lm_refine(start, corrs, cam)
    np.testing.assert_array_equal(refined.position, start.position)
    np.testing.assert_array_equal(refined.attitude, start.attitude)


def test_only_lm_calls_the_traced_jacobian_name(cam, make_case, monkeypatch):
    # the benchmark counts calls of refine.reprojection_jacobian as LM's
    # iterations: the P3P kernel's Gauss-Newton step shares the function but
    # is bound to it at import, so RANSAC adds none to the count
    jacobian, calls = refine_mod.reprojection_jacobian, Counter()

    def counting(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    monkeypatch.setattr(refine_mod, "reprojection_jacobian", counting)
    pose, corrs = make_case(54, noise_sigma=2.0)
    result = ransac_pnp(corrs, cam, RansacConfig(seed=54))
    assert calls["jacobian"] == 0
    inliers = [c for c, keep in zip(corrs, result.inlier_mask) if keep]
    lm_refine(result.pose, inliers, cam)
    assert calls["jacobian"] > 0
