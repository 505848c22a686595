"""Pose-distribution sampler tests: range law, SO(3) uniformity, in-frame poses."""

import numpy as np
import pytest
from scipy import stats

from satpose import (
    PoseSamplerConfig,
    SampleStreams,
    sample_attitude,
    sample_attitudes,
    sample_distance,
    sample_pose,
)
from satpose.errors import BehindCameraError, SamplingFailureError
from satpose.geometry import Pose, project, quat_multiply
from satpose.rng import stream

CFG = PoseSamplerConfig()
# an inset that rejects about one candidate in three with the default camera and wireframe
REJECTING = PoseSamplerConfig(in_frame_margin=300.0)


def reference_shoemake(u: np.ndarray) -> np.ndarray:
    """Shoemake's formula with its four columns joined by ``np.stack``."""
    r1, r2 = np.sqrt(1.0 - u[..., 0]), np.sqrt(u[..., 0])
    t1, t2 = 2.0 * np.pi * u[..., 1], 2.0 * np.pi * u[..., 2]
    return np.stack([np.cos(t2) * r2, np.sin(t1) * r1, np.cos(t1) * r1, np.sin(t2) * r2], axis=-1)


def reference_pose(streams, cfg, cam, wireframe) -> Pose:
    """The candidate loop with four column reductions compared as numpy scalars."""
    lo = cfg.in_frame_margin
    hi_u = cam.width - cfg.in_frame_margin
    hi_v = cam.height - cfg.in_frame_margin
    for _ in range(cfg.max_rejects):
        z = sample_distance(streams.distance, cfg)
        half_x = z * (cam.width / 2.0) / cam.fx
        half_y = z * (cam.height / 2.0) / cam.fy
        tx = streams.offset.normal(0.0, cfg.offset_sigma_frac * half_x)
        ty = streams.offset.normal(0.0, cfg.offset_sigma_frac * half_y)
        q = reference_shoemake(streams.attitude.random(3))
        pose = Pose(position=np.array([tx, ty, z]), attitude=q)
        try:
            uv = project(pose, cam, wireframe.keypoints)
        except BehindCameraError:
            continue
        if (
            uv[:, 0].min() >= lo
            and uv[:, 0].max() <= hi_u
            and uv[:, 1].min() >= lo
            and uv[:, 1].max() <= hi_v
        ):
            return pose
    raise SamplingFailureError(f"no fully in-frame pose after {cfg.max_rejects} attempts")


def truncated_mean_oracle(cfg: PoseSamplerConfig) -> float:
    """Independent oracle for the rejection scheme's mean (scipy truncnorm)."""
    a = (cfg.dist_min - cfg.dist_mean) / cfg.dist_sigma
    b = (cfg.dist_max - cfg.dist_mean) / cfg.dist_sigma
    return float(stats.truncnorm.mean(a, b, loc=cfg.dist_mean, scale=cfg.dist_sigma))


def angle_bin_probabilities(edges: np.ndarray) -> np.ndarray:
    """Exact bin masses of the SO(3) rotation-angle density (1 - cos t) / pi."""
    cdf = (edges - np.sin(edges)) / np.pi
    return np.diff(cdf)


class TestDistance:
    def test_scalar_draws_stay_in_bounds(self):
        rng = stream(70, "dist")
        values = np.array([sample_distance(rng, CFG) for _ in range(20_000)])
        assert values.min() >= CFG.dist_min
        assert values.max() <= CFG.dist_max
        # the default law is near half-normal; criterion 7 checks the mean
        assert abs(truncated_mean_oracle(CFG) - 43.96) < 0.05

    def test_zero_sigma_returns_mean(self):
        cfg = PoseSamplerConfig(dist_sigma=0.0)
        assert sample_distance(stream(73, "dist"), cfg) == cfg.dist_mean

    def test_reject_budget_exhaustion(self):
        cfg = PoseSamplerConfig(
            dist_mean=36.0, dist_sigma=10.0, dist_min=36.0, dist_max=36.0 + 1e-9,
            max_rejects=20,
        )
        with pytest.raises(SamplingFailureError):
            sample_distance(stream(74, "dist"), cfg)

    def test_scalar_sequence_deterministic(self):
        a = [sample_distance(stream(75, "dist"), CFG) for _ in range(1)]
        b = [sample_distance(stream(75, "dist"), CFG) for _ in range(1)]
        assert a == b


class TestAttitude:
    def test_unit_norm(self):
        qs = sample_attitudes(stream(80, "att"), 10_000)
        assert np.max(np.abs(np.linalg.norm(qs, axis=1) - 1.0)) < 1e-12

    def test_angle_histogram_matches_haar_density(self):
        qs = sample_attitudes(stream(81, "att"), 100_000)
        angles = 2.0 * np.arctan2(np.linalg.norm(qs[:, 1:], axis=1), np.abs(qs[:, 0]))
        edges = np.linspace(0.0, np.pi, 21)
        observed, _ = np.histogram(angles, bins=edges)
        expected = angle_bin_probabilities(edges) * angles.size
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_small_angle_mass_matches_analytic_integral(self):
        qs = sample_attitudes(stream(82, "att"), 200_000)
        angles = 2.0 * np.arctan2(np.linalg.norm(qs[:, 1:], axis=1), np.abs(qs[:, 0]))
        analytic = (np.pi / 2.0 - 1.0) / np.pi  # P(angle < pi/2)
        assert abs(np.mean(angles < np.pi / 2) - analytic) < 0.005

    def test_raw_component_means_vanish(self):
        qs = sample_attitudes(stream(83, "att"), 100_000)
        assert np.max(np.abs(qs.mean(axis=0))) < 0.02

    def test_left_invariance_of_angle_distribution(self):
        rng = stream(84, "att")
        fixed = sample_attitude(rng)
        qs = sample_attitudes(rng, 100_000)
        composed = np.array([quat_multiply(fixed, q) for q in qs[:50_000]])
        angles = 2.0 * np.arctan2(
            np.linalg.norm(composed[:, 1:], axis=1), np.abs(composed[:, 0])
        )
        edges = np.linspace(0.0, np.pi, 21)
        observed, _ = np.histogram(angles, bins=edges)
        expected = angle_bin_probabilities(edges) * angles.size
        assert stats.chisquare(observed, expected).pvalue > 0.01

    @pytest.mark.parametrize("seed", [0, 86, 2**64 - 1])
    def test_batch_rows_equal_the_stacked_reference(self, seed):
        got = sample_attitudes(stream(seed, "att"), 1000)
        want = reference_shoemake(stream(seed, "att").random((1000, 3)))
        assert got.shape == want.shape == (1000, 4)
        assert got.tobytes() == want.tobytes()

    def test_scalar_and_batch_agree(self):
        # k successive single draws read the stream exactly as one k-row batch
        rng = stream(85, "att")
        scalar = np.array([sample_attitude(rng) for _ in range(500)])
        batch = sample_attitudes(stream(85, "att"), 500)
        np.testing.assert_array_equal(scalar, batch)


class TestSamplePose:
    def test_keypoints_always_in_frame(self, cam, wireframe):
        streams = SampleStreams(seed=90)
        cfg = PoseSamplerConfig(in_frame_margin=8.0)
        for _ in range(300):
            pose = sample_pose(streams, cfg, cam, wireframe)
            uv = project(pose, cam, wireframe.keypoints)
            assert uv[:, 0].min() >= 8.0 and uv[:, 0].max() <= cam.width - 8.0
            assert uv[:, 1].min() >= 8.0 and uv[:, 1].max() <= cam.height - 8.0

    def test_depth_in_configured_range(self, cam, wireframe):
        streams = SampleStreams(seed=91)
        zs = [sample_pose(streams, CFG, cam, wireframe).position[2] for _ in range(300)]
        assert min(zs) >= CFG.dist_min and max(zs) <= CFG.dist_max

    def test_zero_offset_centers_target(self, cam, wireframe):
        streams = SampleStreams(seed=92)
        cfg = PoseSamplerConfig(offset_sigma_frac=0.0)
        pose = sample_pose(streams, cfg, cam, wireframe)
        uv = project(pose, cam, [[0.0, 0.0, 0.0]])[0]
        np.testing.assert_allclose(uv, [cam.cx, cam.cy], atol=1e-9)

    def test_identical_seed_reproduces_sequence(self, cam, wireframe):
        first = [
            sample_pose(SampleStreams(seed=93), CFG, cam, wireframe) for _ in range(1)
        ]
        second = [
            sample_pose(SampleStreams(seed=93), CFG, cam, wireframe) for _ in range(1)
        ]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.position, b.position)
            np.testing.assert_array_equal(a.attitude, b.attitude)

    def test_reject_budget_exhaustion(self, cam, wireframe):
        cfg = PoseSamplerConfig(in_frame_margin=900.0, max_rejects=25)  # impossible inset
        with pytest.raises(SamplingFailureError):
            sample_pose(SampleStreams(seed=94), cfg, cam, wireframe)

    @pytest.mark.parametrize("cfg", [CFG, REJECTING], ids=["default", "rejecting"])
    def test_candidate_loop_equals_the_reference(self, cam, wireframe, cfg):
        for seed in range(200):
            got, want = SampleStreams(seed), SampleStreams(seed)
            pose = sample_pose(got, cfg, cam, wireframe)
            ref = reference_pose(want, cfg, cam, wireframe)
            assert pose.position.tobytes() == ref.position.tobytes()
            assert pose.attitude.tobytes() == ref.attitude.tobytes()
            # the same number of draws was taken from every stream
            for name in ("distance", "offset", "attitude"):
                assert getattr(got, name).random() == getattr(want, name).random()

    def test_rejecting_config_rejects(self, cam, wireframe, monkeypatch):
        candidates = []

        def counted(*args):
            candidates.append(args)
            return project(*args)

        monkeypatch.setattr("satpose.sampler.project", counted)
        for seed in range(20):
            sample_pose(SampleStreams(seed), REJECTING, cam, wireframe)
        assert len(candidates) > 20

    def test_first_pose_at_seed_3_is_golden(self, cam, wireframe):
        pose = sample_pose(SampleStreams(3), CFG, cam, wireframe)
        assert [v.hex() for v in pose.position.tolist()] == [
            "-0x1.629b496cf6587p-1", "0x1.b41b8191e160bp-2", "0x1.3bb8ebe6ab8f8p+5",
        ]
        assert [v.hex() for v in pose.attitude.tolist()] == [
            "-0x1.107f92c4344e1p-1", "0x1.6cf953717646bp-1",
            "-0x1.d3afb9763eb57p-2", "0x1.a0fddb4f9e916p-12",
        ]


class TestStreamIsolation:
    def test_fields_draw_from_independent_streams(self, cam, wireframe):
        # consuming extra attitude draws must not disturb the distance stream
        s1 = SampleStreams(seed=97)
        s2 = SampleStreams(seed=97)
        sample_attitude(s2.attitude)
        d1 = sample_distance(s1.distance, CFG)
        d2 = sample_distance(s2.distance, CFG)
        assert d1 == d2
