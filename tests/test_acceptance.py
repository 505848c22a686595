"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
from scipy import stats

from satpose import (
    BBox,
    Correspondence,
    Manifest,
    NoiseModel,
    OracleProvider,
    Pose,
    RansacConfig,
    RoiConfig,
    SampleRecord,
    attitude_error,
    contains,
    epnp,
    generate_labels,
    image_score,
    iou,
    lm_refine,
    make_roi,
    run_pipeline,
    sample_attitudes,
    sample_distance,
    split_dataset,
    triangulate,
)
from satpose.cli import EXIT_OK, main
from satpose.errors import DegenerateGeometryError, NoValidPoseError, SatposeError
from satpose.geometry import project, quat_from_rotvec, quat_multiply
from satpose.pnp.refine import reprojection_jacobian, skew_table
from satpose.rng import stream
from satpose.sampler import PoseSamplerConfig, SampleStreams, sample_pose
from tests.conftest import quat_from_axis_angle, random_pose, reprojection_rms, synthesize

Z_AXIS = np.array([0.0, 0.0, 1.0])


def report(criterion: str, detail: str):
    print(f"\n[{criterion}] PASS: {detail}")


def sampled_labeled_manifest(cam, wireframe, n, seed):
    streams = SampleStreams(seed)
    cfg = PoseSamplerConfig(in_frame_margin=8.0)
    records = [
        SampleRecord(id=f"img{i:06d}", pose_gt=sample_pose(streams, cfg, cam, wireframe))
        for i in range(n)
    ]
    manifest, rejects = generate_labels(Manifest(camera=cam, records=records), wireframe)
    assert not rejects
    return manifest


def test_criterion_1_noise_free_round_trip(cam, wireframe):
    """1000 sampled poses, zero-noise oracle: E < 1e-6, no failures, < 30 s."""
    start = time.perf_counter()
    manifest = sampled_labeled_manifest(cam, wireframe, 1000, seed=101)
    run = run_pipeline(manifest, OracleProvider(NoiseModel()), wireframe)
    elapsed = time.perf_counter() - start

    assert len(run.failures) == 0
    assert run.report.e < 1e-6
    assert elapsed < 30.0
    report(
        "criterion 1",
        f"E={run.report.e:.3g} over 1000 images, 0 failures, {elapsed:.1f}s",
    )


def test_criterion_2_metric_fidelity():
    """Analytic attitude-error values and exact score additivity."""
    ten_deg = attitude_error(
        [1, 0, 0, 0], quat_from_axis_angle(Z_AXIS, np.radians(10.0))
    )
    assert abs(np.degrees(ten_deg) - 10.0) < 1e-7

    rng = stream(202, "acceptance")
    qs = sample_attitudes(rng, 10_000)
    assert all(attitude_error(q, -q) == 0.0 for q in qs)

    gt = Pose(position=[0.0, 0.0, 50.0], attitude=[1, 0, 0, 0])
    est = Pose(position=gt.position, attitude=quat_from_axis_angle(Z_AXIS, 0.01))
    score = image_score(gt, est)
    assert abs(score.score - 0.0100) < 1e-12
    assert score.score == score.e_t_normalized + score.e_q
    report(
        "criterion 2",
        f"10deg case = {np.degrees(ten_deg):.7f}deg, e_q(q,-q)=0 on 10^4 draws, "
        f"0.01 rad score = {score.score:.6f}",
    )


def test_criterion_3_epnp_oracle_equivalence(cam, wireframe):
    """1000 noise-free cases: >= 99% exact recovery, the rest raised errors."""
    rng = stream(303, "acceptance")
    recovered = 0
    raised = 0
    for _ in range(1000):
        pose = random_pose(rng)
        corrs = synthesize(pose, cam, wireframe)
        try:
            est = epnp(corrs, cam)
        except (DegenerateGeometryError, NoValidPoseError):
            raised += 1
            continue
        e_q = attitude_error(pose.attitude, est.attitude)
        e_t = np.linalg.norm(est.position - pose.position) / np.linalg.norm(pose.position)
        assert e_q < 1e-6 and e_t < 1e-6, "silent wrong pose"
        recovered += 1
    assert recovered >= 990
    report("criterion 3", f"{recovered}/1000 recovered, {raised} raised, 0 silent errors")


def test_criterion_4_lm_correctness(cam, wireframe):
    """Analytic Jacobian vs central differences; descent on every noisy trial."""
    rng = stream(404, "acceptance")
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        pose = random_pose(rng)
        pixels = project(pose, cam, wireframe.keypoints) + rng.normal(0, 2, (wireframe.count, 2))
        world = wireframe.keypoints
        analytic = reprojection_jacobian(
            pose.rotation_matrix(), pose.transform(world), skew_table(world), cam
        )

        def stacked(delta):
            moved = Pose(
                position=pose.position + delta[:3],
                attitude=quat_multiply(pose.attitude, quat_from_rotvec(delta[3:])),
            )
            return (project(moved, cam, world) - pixels).ravel()

        fd = np.zeros_like(analytic)
        for k in range(6):
            d = np.zeros(6)
            d[k] = step
            fd[:, k] = (stacked(d) - stacked(-d)) / (2 * step)
        worst = max(worst, np.linalg.norm(analytic - fd) / np.linalg.norm(analytic))
    assert worst < 1e-4

    descents = 0
    for seed in range(1000):
        case_rng = stream(4040 + seed, "acceptance")
        pose = random_pose(case_rng)
        corrs = synthesize(pose, cam, wireframe, noise_sigma=2.0, rng=case_rng)
        axis = case_rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        start_pose = Pose(
            position=pose.position + case_rng.normal(0, 0.3, 3),
            attitude=quat_multiply(pose.attitude, quat_from_axis_angle(axis, 0.05)),
        )
        rms_before = reprojection_rms(start_pose, corrs, cam)
        refined = lm_refine(start_pose, corrs, cam)
        rms_after = reprojection_rms(refined, corrs, cam)
        if rms_after <= rms_before + 1e-12:
            descents += 1
    assert descents == 1000
    report("criterion 4", f"max Jacobian error {worst:.2e}, descent 1000/1000")


def test_criterion_5_ransac_robustness(cam, wireframe):
    """30% outliers, 2 px threshold, 500 seeded trials: >= 95% exact masks."""
    exact = 0
    trials = 500
    for seed in range(trials):
        case_rng = stream(5050 + seed, "acceptance")
        pose = random_pose(case_rng)
        corrs = synthesize(pose, cam, wireframe)
        outlier_idx = case_rng.choice(len(corrs), size=3, replace=False)  # 3/11 = 27%
        box = [c.image for c in corrs]
        lo, hi = np.min(box, axis=0), np.max(box, axis=0)
        noisy = list(corrs)
        for i in outlier_idx:
            noisy[i] = Correspondence(
                image=case_rng.uniform(lo, hi), world=noisy[i].world, id=noisy[i].id
            )
        expected = np.ones(len(corrs), dtype=bool)
        expected[outlier_idx] = False
        try:
            result = ransac(noisy, cam, seed)
        except SatposeError:
            continue
        if np.array_equal(result.inlier_mask, expected):
            if attitude_error(pose.attitude, result.pose.attitude) < 1e-6:
                exact += 1
    assert exact >= 0.95 * trials
    report("criterion 5", f"exact mask + pose in {exact}/{trials} trials")


def ransac(corrs, cam, seed):
    from satpose import ransac_pnp

    return ransac_pnp(corrs, cam, RansacConfig(inlier_threshold=2.0, seed=seed))


def test_criterion_6_noise_monotonicity(cam, wireframe):
    """Median e_q non-decreasing over sigma; sanity envelope at sigma = 2 px."""
    manifest = sampled_labeled_manifest(cam, wireframe, 200, seed=606)
    sigmas = (0.0, 1.0, 2.0, 4.0, 8.0)
    medians_q = []
    medians_t = []
    for sigma in sigmas:
        run = run_pipeline(
            manifest,
            OracleProvider(NoiseModel(sigma_px=sigma, seed=66)),
            wireframe,
            ransac_cfg=RansacConfig(inlier_threshold=max(5.0, 3.0 * sigma), seed=6),
        )
        medians_q.append(run.report.e_q_rad.median)
        medians_t.append(run.report.e_t_norm.median)
    for lo, hi in zip(medians_q[:-1], medians_q[1:]):
        assert lo <= hi
    assert medians_q[-1] > medians_q[0]
    at_two = sigmas.index(2.0)
    assert np.degrees(medians_q[at_two]) < 2.0
    assert medians_t[at_two] < 0.02
    report(
        "criterion 6",
        "median e_q [deg] = "
        + ", ".join(f"{np.degrees(m):.3f}" for m in medians_q)
        + f" over sigma={sigmas}; at 2 px e_t_norm median {medians_t[at_two]:.4f}",
    )


def test_criterion_7_sampler_distribution():
    """Hard range bounds, truncated-normal mean, SO(3) angle histogram."""
    cfg = PoseSamplerConfig()
    rng = stream(707, "acceptance")
    values = np.array([sample_distance(rng, cfg) for _ in range(1_000_000)])
    assert values.min() >= 36.0 and values.max() <= 70.0

    a = (cfg.dist_min - cfg.dist_mean) / cfg.dist_sigma
    b = (cfg.dist_max - cfg.dist_mean) / cfg.dist_sigma
    oracle = float(stats.truncnorm.mean(a, b, loc=cfg.dist_mean, scale=cfg.dist_sigma))
    assert abs(values.mean() - oracle) < 0.05

    qs = sample_attitudes(stream(708, "acceptance"), 100_000)
    angles = 2.0 * np.arctan2(np.linalg.norm(qs[:, 1:], axis=1), np.abs(qs[:, 0]))
    edges = np.linspace(0.0, np.pi, 21)
    observed, _ = np.histogram(angles, bins=edges)
    expected = np.diff((edges - np.sin(edges)) / np.pi) * angles.size
    pvalue = stats.chisquare(observed, expected).pvalue
    assert pvalue > 0.01
    report(
        "criterion 7",
        f"10^6 draws in [36, 70], mean {values.mean():.4f} vs oracle {oracle:.4f}, "
        f"chi-square p = {pvalue:.3f}",
    )


def test_criterion_8_roi_rules(cam):
    """Hand-derived ROI square, containment by construction, IoU hand case."""
    cfg = RoiConfig()
    roi = make_roi(BBox(100, 100, 200, 150), cfg, cam)
    assert (roi.xmin, roi.ymin, roi.xmax, roi.ymax) == (92.5, 67.5, 207.5, 182.5)

    rng = stream(808, "acceptance")
    for _ in range(100):
        x = rng.uniform(200, 1300)
        y = rng.uniform(150, 700)
        gt = BBox(x, y, x + rng.uniform(5, 300), y + rng.uniform(5, 300))
        assert contains(make_roi(gt, cfg, cam), gt)

    assert abs(iou(BBox(0, 0, 10, 10), BBox(5, 5, 15, 15)) - 25.0 / 175.0) < 1e-12
    report("criterion 8", "side-115 square exact, 100/100 containment, IoU=25/175")


def test_criterion_9_triangulation(cam, wireframe):
    """Wireframe rebuilt from 5 clean views; pose solving still works on it."""
    rng = stream(909, "acceptance")
    views = []
    while len(views) < 5:
        pose = random_pose(rng)
        try:
            pixels = project(pose, cam, wireframe.keypoints)
        except SatposeError:
            continue
        views.append((pose, pixels))

    rebuilt = np.array(
        [
            triangulate([(pose, px[k]) for pose, px in views], cam)
            for k in range(wireframe.count)
        ]
    )
    worst = float(np.max(np.linalg.norm(rebuilt - wireframe.keypoints, axis=1)))
    assert worst < 1e-6

    worst_eq = 0.0
    for seed in range(50):
        case_rng = stream(9090 + seed, "acceptance")
        pose = random_pose(case_rng)
        pixels = project(pose, cam, wireframe.keypoints)
        corrs = [
            Correspondence(image=pixels[k], world=rebuilt[k], id=k)
            for k in range(wireframe.count)
        ]
        est = epnp(corrs, cam)
        worst_eq = max(worst_eq, attitude_error(pose.attitude, est.attitude))
    assert worst_eq < 1e-4
    report(
        "criterion 9",
        f"max keypoint error {worst:.2e} m, max pose error on rebuilt model {worst_eq:.2e} rad",
    )


def test_criterion_10_determinism_and_format(cam, tmp_path):
    """Byte-identical seeded reports, CSV schema, benchmark split sizes."""
    manifest_path = tmp_path / "poses.json"
    labeled_path = tmp_path / "labeled.json"
    assert main(["sample-poses", "--n", "40", "--seed", "10", "--out", str(manifest_path)]) == EXIT_OK
    assert (
        main(["generate-labels", "--manifest", str(manifest_path), "--out", str(labeled_path)])
        == EXIT_OK
    )
    blobs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(
            ["run", "--manifest", str(labeled_path), "--sigma", "2.0", "--noise-seed", "5",
             "--seed", "3", "--no-timing", "--out", str(out)]
        )
        assert code == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    csv_out = tmp_path / "r.csv"
    code = main(
        ["run", "--manifest", str(labeled_path), "--format", "csv", "--out", str(csv_out)]
    )
    assert code == EXIT_OK
    header = csv_out.read_text().splitlines()[0].split(",")
    for column in (
        "n", "failures", "E",
        "e_t_m_mean", "e_t_m_std", "e_t_m_median",
        "e_t_norm_mean", "e_t_norm_std", "e_t_norm_median",
        "e_q_deg_mean", "e_q_deg_std", "e_q_deg_median",
        "fps",
    ):
        assert column in header

    for total, train_n in ((12_000, 9_728), (15_000, 12_032)):
        records = [
            SampleRecord(id=f"r{i}", pose_gt=Pose([0, 0, 40], [1, 0, 0, 0]))
            for i in range(total)
        ]
        train, test = split_dataset(
            Manifest(camera=cam, records=records), train_n / total, seed=0
        )
        assert (len(train.records), len(test.records)) == (train_n, total - train_n)
    report(
        "criterion 10",
        "byte-identical reports, CSV schema complete, splits 9728/2272 and 12032/2968",
    )
