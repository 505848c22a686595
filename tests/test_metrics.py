"""Scoring and aggregation tests."""

import numpy as np
import pytest

from satpose import (
    ImageScore,
    aggregate,
    attitude_error,
    image_score,
    position_error,
)
from satpose.geometry import Pose, quat_multiply
from satpose.rng import stream
from satpose.sampler import sample_attitude
from tests.conftest import quat_from_axis_angle

Z_AXIS = np.array([0.0, 0.0, 1.0])


class TestPositionError:
    def test_identical(self):
        assert position_error([0, 0, 10], [0, 0, 10]) == (0.0, 0.0)

    def test_axis_aligned_offset(self):
        e_t, e_norm = position_error([0, 0, 10], [0, 0, 10.5])
        assert abs(e_t - 0.5) < 1e-12 and abs(e_norm - 0.05) < 1e-12

    def test_three_four_five(self):
        e_t, e_norm = position_error([3, 4, 0], [0, 0, 0])
        assert e_t == 5.0 and e_norm == 1.0

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            position_error([0, 0, 0], [1, 0, 0])


class TestAttitudeError:
    def test_identical_quaternions(self):
        q = quat_from_axis_angle(Z_AXIS, 0.7)
        assert attitude_error(q, q) == 0.0

    def test_double_cover_invariance(self):
        rng = stream(30, "metrics")
        for _ in range(10_000):
            q = sample_attitude(rng)
            assert attitude_error(q, -q) == 0.0

    def test_ten_degrees_about_z(self):
        err = attitude_error([1, 0, 0, 0], quat_from_axis_angle(Z_AXIS, np.radians(10.0)))
        assert abs(np.degrees(err) - 10.0) < 1e-7

    def test_equals_geodesic_angle(self):
        rng = stream(31, "metrics")
        for theta in np.linspace(1e-3, np.pi - 1e-3, 50):
            q_gt = sample_attitude(rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            q_est = quat_multiply(q_gt, quat_from_axis_angle(axis, theta))
            assert abs(attitude_error(q_gt, q_est) - theta) < 1e-9

    def test_clamped_inner_product_stays_finite(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        nudged = q * (1.0 + 5e-13)  # norm deviation passes validation, dot > 1
        assert np.isfinite(attitude_error(q, nudged))
        assert attitude_error(q, nudged) == 0.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            attitude_error([1, 0, 0, 0], [2.0, 0, 0, 0])


class TestImageScore:
    def test_identical_poses_score_zero(self):
        pose = Pose(position=[0, 0, 40], attitude=[1, 0, 0, 0])
        assert image_score(pose, pose).score == 0.0

    def test_pure_attitude_error(self):
        gt = Pose(position=[0, 0, 40], attitude=[1, 0, 0, 0])
        est = Pose(position=[0, 0, 40], attitude=quat_from_axis_angle(Z_AXIS, 0.01))
        assert abs(image_score(gt, est).score - 0.01) < 1e-12

    def test_pure_position_error(self):
        gt = Pose(position=[0, 0, 40], attitude=[1, 0, 0, 0])
        est = Pose(position=[0, 0, 40.4], attitude=[1, 0, 0, 0])
        assert abs(image_score(gt, est).score - 0.01) < 1e-12

    def test_score_additivity_exact(self):
        rng = stream(32, "metrics")
        for _ in range(100):
            gt = Pose(position=rng.normal([0, 0, 50], 3), attitude=sample_attitude(rng))
            est = Pose(position=rng.normal([0, 0, 50], 3), attitude=sample_attitude(rng))
            s = image_score(gt, est)
            assert s.score == s.e_t_normalized + s.e_q

    def test_equals_position_and_attitude_errors_to_the_bit(self):
        rng = stream(34, "metrics")
        pairs = []
        for i in range(2000):
            gt = Pose(position=rng.normal([0, 0, 50], 3), attitude=sample_attitude(rng))
            if i % 4 == 0:  # the same pose
                est = gt
            elif i % 4 == 1:  # the same attitude through the double cover
                est = Pose(position=rng.normal([0, 0, 50], 3), attitude=-gt.attitude)
            else:
                est = Pose(position=rng.normal([0, 0, 50], 3), attitude=sample_attitude(rng))
            pairs.append((gt, est))
        for gt, est in pairs:
            s = image_score(gt, est)
            e_t, e_t_norm = position_error(gt.position, est.position)
            e_q = attitude_error(gt.attitude, est.attitude)
            got = np.array([s.e_t, s.e_t_normalized, s.e_q])
            assert got.tobytes() == np.array([e_t, e_t_norm, e_q]).tobytes()

    def test_zero_ground_truth_position_rejected(self):
        gt = Pose(position=[0, 0, 0], attitude=[1, 0, 0, 0])
        est = Pose(position=[0, 0, 40], attitude=[1, 0, 0, 0])
        with pytest.raises(ValueError, match="zero norm"):
            image_score(gt, est)


class TestAggregate:
    def test_single_score(self):
        report = aggregate([ImageScore(e_t=0.5, e_t_normalized=0.01, e_q=0.02)])
        assert report.n == 1
        assert report.e_t_m.std == 0.0
        assert report.e_t_m.mean == report.e_t_m.median == 0.5

    def test_two_value_hand_case(self):
        scores = [
            ImageScore(e_t=0.0, e_t_normalized=0.0, e_q=np.radians(0.3)),
            ImageScore(e_t=0.0, e_t_normalized=0.0, e_q=np.radians(0.7)),
        ]
        report = aggregate(scores)
        assert abs(report.e_q_deg.mean - 0.5) < 1e-12
        assert abs(report.e_q_deg.std - np.sqrt(0.08)) < 1e-12  # ~0.2828 with N-1

    def test_dataset_e_is_mean_of_scores(self):
        rng = stream(33, "metrics")
        scores = [
            ImageScore(e_t=r, e_t_normalized=r / 50, e_q=r / 100)
            for r in rng.uniform(0, 1, size=200)
        ]
        report = aggregate(scores)
        assert abs(report.e - np.mean([s.score for s in scores])) < 1e-15

    def test_constant_list_has_zero_std(self):
        scores = [ImageScore(e_t=1.0, e_t_normalized=0.02, e_q=0.03)] * 25
        report = aggregate(scores)
        assert report.score.std == 0.0
        assert report.score.mean == scores[0].score

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

