"""RANSAC robustness and determinism tests."""

import numpy as np
import pytest

from satpose import RansacConfig, attitude_error, project, ransac_pnp
from satpose.errors import ConsensusFailureError
from satpose.pnp import Correspondence, robust
from satpose.pnp.p3p import p3p_hypotheses, point_errors
from satpose.pnp.refine import split_correspondences
from satpose.pnp.robust import _required_iterations
from satpose.rng import stream


def corrupt(corrs, indices, rng, box=(400.0, 200.0, 1500.0, 1000.0)):
    """Replace the chosen correspondences with uniform random pixels."""
    out = list(corrs)
    for i in indices:
        pixel = rng.uniform([box[0], box[1]], [box[2], box[3]])
        out[i] = Correspondence(image=pixel, world=out[i].world, id=out[i].id)
    return out


def test_clean_data_all_inliers_exact_pose(cam, wireframe, make_case):
    pose, corrs = make_case(7)
    result = ransac_pnp(corrs, cam, RansacConfig(seed=1))
    assert result.inlier_mask.all()
    assert attitude_error(pose.attitude, result.pose.attitude) < 1e-6
    assert (
        np.linalg.norm(result.pose.position - pose.position)
        < 1e-6 * np.linalg.norm(pose.position)
    )
    assert result.rms_reprojection < 1e-6
    assert result.iterations_used >= 1


def test_thirty_percent_outliers_mask_recovered(cam, wireframe, make_case):
    hits = 0
    trials = 60
    for seed in range(trials):
        pose, corrs = make_case(1000 + seed)
        rng = stream(seed, "outliers")
        outlier_idx = rng.choice(len(corrs), size=3, replace=False)  # 3/11 points
        noisy = corrupt(corrs, outlier_idx, rng)
        expected_mask = np.ones(len(corrs), dtype=bool)
        expected_mask[outlier_idx] = False
        try:
            result = ransac_pnp(noisy, cam, RansacConfig(inlier_threshold=2.0, seed=seed))
        except ConsensusFailureError:
            continue
        if np.array_equal(result.inlier_mask, expected_mask):
            assert attitude_error(pose.attitude, result.pose.attitude) < 1e-6
            hits += 1
    assert hits >= 0.95 * trials


def test_all_outliers_is_consensus_failure(cam, wireframe, make_case):
    _, corrs = make_case(11)
    rng = stream(99, "outliers")
    noisy = corrupt(corrs, range(len(corrs)), rng)
    with pytest.raises(ConsensusFailureError):
        ransac_pnp(noisy, cam, RansacConfig(inlier_threshold=2.0, seed=5, max_iterations=200))


def test_deterministic_given_seed(cam, wireframe, make_case):
    _, corrs = make_case(13)
    rng = stream(5, "outliers")
    noisy = corrupt(corrs, [2, 6], rng)
    cfg = RansacConfig(inlier_threshold=2.0, seed=42)
    a = ransac_pnp(noisy, cam, cfg)
    b = ransac_pnp(noisy, cam, cfg)
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    assert a.iterations_used == b.iterations_used
    np.testing.assert_array_equal(a.pose.position, b.pose.position)
    np.testing.assert_array_equal(a.pose.attitude, b.pose.attitude)


def test_rms_computed_over_inliers_only(cam, wireframe, make_case):
    _, corrs = make_case(17)
    rng = stream(6, "outliers")
    noisy = corrupt(corrs, [0, 4], rng)
    result = ransac_pnp(noisy, cam, RansacConfig(inlier_threshold=2.0, seed=3))
    # outliers sit far off; an all-point RMS would be orders of magnitude larger
    assert result.rms_reprojection < 2.0


def test_returned_rms_and_mask_belong_to_returned_pose(cam, wireframe, make_case):
    # the pose is the winning hypothesis: its own errors give the mask and the RMS
    for seed in range(20):
        _, corrs = make_case(1300 + seed, noise_sigma=1.5)
        rng = stream(seed, "outliers")
        noisy = corrupt(corrs, rng.choice(len(corrs), size=2, replace=False), rng)
        cfg = RansacConfig(inlier_threshold=5.0, seed=seed)
        result = ransac_pnp(noisy, cam, cfg)
        image, world = split_correspondences(noisy)
        pose = result.pose
        errors = point_errors(pose.rotation_matrix(), pose.position, world, image, cam)
        mask = result.inlier_mask
        assert np.all(errors[mask] < cfg.inlier_threshold)
        rms = np.sqrt(np.mean(errors[mask] ** 2))
        assert abs(result.rms_reprojection - rms) < 1e-9


def count_streams(monkeypatch) -> list:
    """Record the labels of every stream ``ransac_pnp`` builds."""
    built = []

    def counted(seed, *labels):
        built.append(labels)
        return stream(seed, *labels)

    monkeypatch.setattr(robust, "stream", counted)
    return built


def test_adaptive_stop_on_clean_data(cam, wireframe, make_case, monkeypatch):
    _, corrs = make_case(19)
    rows = []

    def counted(image, world, cam):
        rows.append(image.shape[:2])
        return p3p_hypotheses(image, world, cam)

    monkeypatch.setattr(robust, "p3p_hypotheses", counted)
    streams = count_streams(monkeypatch)
    result = ransac_pnp(corrs, cam, RansacConfig(seed=8, max_iterations=1000))
    assert result.iterations_used == 1  # the all-point hypothesis ends the loop
    assert rows == [(1, len(corrs))]  # one kernel call, one row over all n points
    assert streams == []  # nothing was drawn, so no random stream was built


def one_outlier(make_case, seed: int, index: int):
    """Case ``1400 + seed`` at 0.5 px noise with point ``index`` moved 15 px off."""
    _, corrs = make_case(1400 + seed, noise_sigma=0.5)
    noisy = list(corrs)
    noisy[index] = Correspondence(
        image=corrs[index].image + [12.0, -9.0], world=corrs[index].world, id=index
    )
    return noisy


def test_all_point_hypothesis_does_not_count_toward_the_samples(
    cam, wireframe, make_case, monkeypatch
):
    # one 15 px outlier, off the first three points that the all-point P3P
    # solve rests on: the all-point hypothesis keeps the other n - 1 points,
    # and the stopping rule still asks for its full count of random samples
    streams = count_streams(monkeypatch)
    for seed in range(5):
        outlier = 3 + seed
        noisy = one_outlier(make_case, seed, outlier)
        n = len(noisy)
        cfg = RansacConfig(inlier_threshold=5.0, seed=seed)
        image, world = split_correspondences(noisy)
        rot, t = p3p_hypotheses(image[None], world[None], cam)
        assert np.isfinite(rot[0]).all() and np.isfinite(t[0]).all()
        first = point_errors(rot[0], t[0], world, image, cam) < cfg.inlier_threshold
        assert first.sum() == n - 1 and not first[outlier]
        result = ransac_pnp(noisy, cam, cfg)
        samples = _required_iterations((n - 1) / n, cfg.min_sample, cfg.confidence, 10**6)
        assert samples > 1
        assert result.iterations_used == 1 + samples
        np.testing.assert_array_equal(result.inlier_mask, first)
        assert streams == [("ransac",)] * (seed + 1)  # one stream per call that draws


def test_outlier_among_the_first_three_points_is_left_to_the_samples(cam, wireframe, make_case):
    # an outlier that P3P solves from pulls the all-point hypothesis off, so
    # that even one Gauss-Newton step over all n points can leave inliers out
    # of its consensus; the samples still find the n - 1 inliers, and with
    # them the stopping rule's count for that consensus
    short = []
    for seed in range(3):
        noisy = one_outlier(make_case, seed, seed)
        n = len(noisy)
        cfg = RansacConfig(inlier_threshold=5.0, seed=seed)
        image, world = split_correspondences(noisy)
        rot, t = p3p_hypotheses(image[None], world[None], cam)
        first = point_errors(rot[0], t[0], world, image, cam) < cfg.inlier_threshold
        short.append(int(first.sum()) < n - 1)
        result = ransac_pnp(noisy, cam, cfg)
        expected = np.ones(n, dtype=bool)
        expected[seed] = False
        np.testing.assert_array_equal(result.inlier_mask, expected)
        samples = _required_iterations((n - 1) / n, cfg.min_sample, cfg.confidence, 10**6)
        assert result.iterations_used == 1 + samples
    assert short == [False, True, True]


def test_degenerate_hypotheses_are_counted(cam):
    # every minimal sample of a collinear set is skipped, yet each one is an iteration
    world = np.array([[float(i), 0.0, 0.0] for i in range(8)])
    corrs = [Correspondence(image=[500.0 + 10 * i, 600.0], world=world[i], id=i) for i in range(8)]
    with pytest.raises(ConsensusFailureError, match=r"in 40 iterations"):
        ransac_pnp(corrs, cam, RansacConfig(seed=3, max_iterations=40))


def test_chunked_loop_matches_one_by_one_reference(cam, wireframe, make_case):
    # the chunked loop keeps the draw order and the stopping rule of a loop
    # that scores the all-point hypothesis, then one random sample at a time
    # from the same stream, each solved alone by the hypothesis kernel, until
    # the rule's count of random samples is met
    used = []
    for seed in range(6):
        _, corrs = make_case(1200 + seed, noise_sigma=1.0)
        rng = stream(seed, "outliers")
        noisy = corrupt(corrs, rng.choice(len(corrs), size=4, replace=False), rng)
        cfg = RansacConfig(inlier_threshold=4.0, seed=seed)
        n = len(noisy)
        image, world = split_correspondences(noisy)
        draws = stream(cfg.seed, "ransac")
        best_mask, best_count, best_rms = None, 0, np.inf
        needed, sampled = cfg.max_iterations, 0  # random samples asked for and scored
        points = np.arange(n)  # the all-point hypothesis
        while True:
            rot, t = p3p_hypotheses(image[points][None], world[points][None], cam)
            errors = point_errors(rot[0], t[0], world, image, cam)
            mask = errors < cfg.inlier_threshold
            if np.isfinite(t[0]).all() and mask.sum() >= cfg.min_sample:
                rms = float(np.sqrt(np.mean(errors[mask] ** 2)))
                if mask.sum() > best_count or (mask.sum() == best_count and rms < best_rms):
                    best_mask, best_count, best_rms = mask, int(mask.sum()), rms
                    needed = _required_iterations(
                        best_count / n, cfg.min_sample, cfg.confidence, cfg.max_iterations
                    )
            if best_count == n or sampled >= needed or 1 + sampled >= cfg.max_iterations:
                break
            points = draws.choice(n, size=cfg.min_sample, replace=False)
            sampled += 1
        result = ransac_pnp(noisy, cam, cfg)
        assert result.iterations_used == 1 + sampled
        used.append(1 + sampled)
        np.testing.assert_array_equal(result.inlier_mask, best_mask)
    assert max(used) > 1 + 16  # some runs reach a third chunk


def test_first_chunk_without_consensus_is_sized_for_two_outliers(
    cam, wireframe, make_case, monkeypatch
):
    # while no hypothesis has consensus, a chunk holds the samples the stopping
    # rule asks for with two outliers among n points, not a full chunk
    rows = []

    def counted(image, world, cam):
        rows.append(len(image))
        return p3p_hypotheses(image, world, cam)

    monkeypatch.setattr(robust, "p3p_hypotheses", counted)
    for seed in range(3):
        _, corrs = make_case(1300 + seed, noise_sigma=1.0)
        rng = stream(seed, "outliers")
        noisy = corrupt(corrs, rng.choice(len(corrs), size=4, replace=False), rng)
        cfg = RansacConfig(inlier_threshold=4.0, seed=seed)
        n = len(noisy)
        image, world = split_correspondences(noisy)
        rot, t = p3p_hypotheses(image[None], world[None], cam)
        first = point_errors(rot[0], t[0], world, image, cam) < cfg.inlier_threshold
        assert np.isnan(t[0]).all() or first.sum() < cfg.min_sample  # no consensus
        rows.clear()
        ransac_pnp(noisy, cam, cfg)
        two_out = _required_iterations((n - 2) / n, cfg.min_sample, cfg.confidence, 10**6)
        assert two_out < robust._CHUNK
        assert rows[:2] == [1, two_out]


def test_collinear_first_three_points_are_scored_through_samples(
    cam, wireframe, make_case, monkeypatch
):
    # P3P has no pose for a collinear first triangle, so the all-point
    # hypothesis scores no inlier and the random samples find the consensus
    pose, corrs = make_case(29)
    world = np.array([c.world for c in corrs])
    world[2] = 0.5 * (world[0] + world[1])  # the middle of the first two
    pixels = project(pose, cam, world)
    line = [Correspondence(image=pixels[k], world=world[k], id=k) for k in range(len(world))]
    image, world = split_correspondences(line)
    rot, t = p3p_hypotheses(image[None], world[None], cam)
    assert np.isnan(rot).all() and np.isnan(t).all()
    streams = count_streams(monkeypatch)
    result = ransac_pnp(line, cam, RansacConfig(seed=2))
    assert result.inlier_mask.all()
    assert result.iterations_used > 1 and streams == [("ransac",)]
    assert attitude_error(pose.attitude, result.pose.attitude) < 1e-6


def test_too_few_correspondences_rejected(cam, wireframe, make_case):
    _, corrs = make_case(23)
    with pytest.raises(ValueError):
        ransac_pnp(corrs[:4], cam, RansacConfig(min_sample=5))


def test_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(min_sample=3)
    with pytest.raises(ValueError):
        RansacConfig(confidence=1.0)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)
