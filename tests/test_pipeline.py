"""Label generation, noise oracle, and end-to-end pipeline tests."""

import functools
import hashlib
import importlib
import json
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpose import (
    DEFAULT_CAMERA,
    BBox,
    FileProvider,
    Manifest,
    NoiseModel,
    OracleProvider,
    Pose,
    RansacConfig,
    RoiConfig,
    SampleRecord,
    epnp,
    example_wireframe,
    generate_labels,
    load_manifest,
    project,
    run_pipeline,
    save_manifest,
)
from satpose import pipeline
from satpose.errors import (
    ConsensusFailureError,
    InsufficientLandmarksError,
    NoScoredRecordsError,
    SatposeError,
)
from satpose.geometry import clamp_box, denormalize_landmarks
from satpose.metrics import image_score
from satpose.pipeline import _solve_record, report_payload, write_report
from satpose.pnp import Correspondence, lm_refine, ransac_pnp
from satpose.rng import MAX_SEED, derive_seed, stream
from satpose.roi import make_roi
from satpose.sampler import PoseSamplerConfig, SampleStreams, sample_pose

epnp_module = importlib.import_module("satpose.pnp.epnp")


def oracle_landmarks(record: SampleRecord, noise: NoiseModel) -> list:
    """The oracle's corrupted pixels before ROI normalisation, ``None`` where dropped."""
    pixels, kept = pipeline._oracle_pixels(record, noise)
    return [p if keep else None for p, keep in zip(pixels, kept.tolist())]


def sampled_manifest(cam, wireframe, n, seed=0) -> Manifest:
    streams = SampleStreams(seed)
    cfg = PoseSamplerConfig(in_frame_margin=8.0)
    records = [
        SampleRecord(id=f"img{i:06d}", pose_gt=sample_pose(streams, cfg, cam, wireframe))
        for i in range(n)
    ]
    return Manifest(camera=cam, records=records)


SAMPLED_RECORDS = 40

# pose edits that reach each label outcome: behind the camera, some points
# behind it, fully out of frame, and partly out of frame (a clamped box)
POSE_MOVES = {
    "keep": lambda t: t,
    "behind": lambda t: t * [1.0, 1.0, -1.0],
    "straddle": lambda t: [t[0], t[1], 0.5],
    "out": lambda t: t + [60.0, 0.0, 0.0],
    "edge": lambda t: t + [0.0, -0.25 * t[2], 0.0],
}


@functools.cache
def sampled_poses(seed) -> Manifest:
    """Poses from the default sampler, camera and wireframe: those of the fixtures."""
    streams = SampleStreams(seed)
    cfg, wireframe = PoseSamplerConfig(), example_wireframe()
    poses = [sample_pose(streams, cfg, DEFAULT_CAMERA, wireframe) for _ in range(SAMPLED_RECORDS)]
    records = [SampleRecord(id=f"img{i:06d}", pose_gt=pose) for i, pose in enumerate(poses)]
    return Manifest(camera=DEFAULT_CAMERA, records=records)


@pytest.fixture()
def labeled(cam, wireframe):
    manifest, rejects = generate_labels(sampled_manifest(cam, wireframe, 30, seed=5), wireframe)
    assert not rejects
    return manifest


class TestGenerateLabels:
    def test_centered_pose_bbox_centered_on_principal_point(self, cam, wireframe):
        pose = Pose(position=[0.0, 0.0, 40.0], attitude=[1, 0, 0, 0])
        manifest = Manifest(camera=cam, records=[SampleRecord(id="c", pose_gt=pose)])
        labeled, rejects = generate_labels(manifest, wireframe)
        assert not rejects
        box = labeled.records[0].bbox_gt
        center = (0.5 * (box.xmin + box.xmax), 0.5 * (box.ymin + box.ymax))
        assert abs(center[0] - cam.cx) < 1.0 and abs(center[1] - cam.cy) < 1.0

    def test_landmark_count_matches_wireframe(self, labeled, wireframe):
        for record in labeled.records:
            assert record.landmarks_gt.shape == (wireframe.count, 2)

    def test_epnp_round_trip_on_labels(self, cam, wireframe, labeled):
        for record in labeled.records[:10]:
            corrs = [
                Correspondence(image=record.landmarks_gt[k], world=wireframe.keypoints[k], id=k)
                for k in range(wireframe.count)
            ]
            est = epnp(corrs, cam)
            assert np.linalg.norm(est.position - record.pose_gt.position) < 1e-5

    def test_behind_camera_pose_collected_as_reject(self, cam, wireframe):
        good = SampleRecord(id="good", pose_gt=Pose([0, 0, 40], [1, 0, 0, 0]))
        bad = SampleRecord(id="bad", pose_gt=Pose([0, 0, -40], [1, 0, 0, 0]))
        manifest = Manifest(camera=cam, records=[good, bad])
        labeled, rejects = generate_labels(manifest, wireframe)
        assert [r.id for r in labeled.records] == ["good"]
        assert len(rejects) == 1 and rejects[0][0] == "bad"

    def test_labeled_record_carries_every_other_field(self, cam, wireframe):
        # a field that SampleRecord gains and the label path does not carry fails here
        pose = Pose(position=[0.0, 0.0, 40.0], attitude=[1, 0, 0, 0])
        values = {f.name: object() for f in fields(SampleRecord)}
        values.update(id="c", pose_gt=pose)
        record = SampleRecord(**values)
        labeled, rejects = generate_labels(Manifest(camera=cam, records=[record]), wireframe)
        assert not rejects
        got = labeled.records[0]
        assert type(got) is SampleRecord
        for name, value in values.items():
            if name not in ("landmarks_gt", "bbox_gt"):
                assert getattr(got, name) is value, name
        assert got.landmarks_gt.shape == (wireframe.count, 2)
        assert isinstance(got.bbox_gt, BBox)

    @pytest.mark.parametrize("seed", [3, 1001])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(moves=st.lists(st.sampled_from(sorted(POSE_MOVES)), max_size=SAMPLED_RECORDS))
    def test_stacked_labels_equal_one_record_projections(self, cam, wireframe, seed, moves):
        manifest = sampled_poses(seed)
        records = [
            replace(r, pose_gt=Pose(POSE_MOVES[move](r.pose_gt.position), r.pose_gt.attitude))
            for r, move in zip(manifest.records, moves)
        ] + manifest.records[len(moves):]
        labeled, rejects = generate_labels(replace(manifest, records=records), wireframe)

        kept, reasons = [], []
        for record in records:  # the reference: one record at a time
            try:
                landmarks = project(record.pose_gt, cam, wireframe.keypoints)
                low, high = landmarks.min(axis=0).tolist(), landmarks.max(axis=0).tolist()
                kept.append((record, landmarks, clamp_box(*low, *high, cam)))
            except SatposeError as exc:
                reasons.append((record.id, str(exc)))
        assert rejects == reasons
        assert [r.id for r in labeled.records] == [record.id for record, _, _ in kept]
        for got, (record, landmarks, bbox) in zip(labeled.records, kept):
            assert got.pose_gt is record.pose_gt
            assert got.landmarks_gt.shape == landmarks.shape
            assert got.landmarks_gt.tobytes() == landmarks.tobytes()
            assert np.array(got.bbox_gt.as_list()).tobytes() == np.array(bbox.as_list()).tobytes()


class TestOracleLandmarks:
    def test_zero_noise_is_identity(self, labeled):
        record = labeled.records[0]
        out = oracle_landmarks(record, NoiseModel())
        np.testing.assert_array_equal(np.array(out), record.landmarks_gt)

    def test_sigma_matches_empirical_std(self, labeled):
        record = labeled.records[0]
        deltas = []
        for seed in range(5000):
            noisy = oracle_landmarks(record, NoiseModel(sigma_px=2.0, seed=seed))
            deltas.append(np.array(noisy) - record.landmarks_gt)
        std = np.concatenate(deltas).ravel().std()  # 110k coordinate samples
        assert 1.98 <= std <= 2.02

    def test_deterministic_per_seed_and_id(self, labeled):
        record = labeled.records[1]
        noise = NoiseModel(sigma_px=3.0, outlier_rate=0.2, dropout_rate=0.1, seed=77)
        a = oracle_landmarks(record, noise)
        b = oracle_landmarks(record, noise)
        for pa, pb in zip(a, b):
            if pa is None:
                assert pb is None
            else:
                np.testing.assert_array_equal(pa, pb)

    def test_sigma_change_keeps_outlier_pattern(self, labeled):
        record = labeled.records[2]
        base = NoiseModel(sigma_px=1.0, outlier_rate=0.3, dropout_rate=0.2, seed=13)
        wide = NoiseModel(sigma_px=8.0, outlier_rate=0.3, dropout_rate=0.2, seed=13)
        pattern_a = [p is None for p in oracle_landmarks(record, base)]
        pattern_b = [p is None for p in oracle_landmarks(record, wide)]
        assert pattern_a == pattern_b

    def test_dropout_marks_missing(self, labeled):
        record = labeled.records[3]
        out = oracle_landmarks(record, NoiseModel(dropout_rate=1.0, seed=3))
        assert all(p is None for p in out)

    @pytest.mark.parametrize("dropout", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("outlier", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    def test_matches_landmark_by_landmark_reference(self, labeled, sigma, outlier, dropout):
        def reference(record, noise):  # three draw calls and the arithmetic per landmark
            rng = stream(noise.seed, "oracle", record.id)
            box = record.bbox_gt
            out = []
            for point in np.asarray(record.landmarks_gt):
                u_drop, u_out = rng.random(2)
                gauss = rng.normal(0.0, 1.0, size=2)
                uniform = rng.random(2)
                if u_drop < noise.dropout_rate:
                    out.append(None)
                elif u_out < noise.outlier_rate:
                    out.append(
                        np.array(
                            [box.xmin + uniform[0] * box.width, box.ymin + uniform[1] * box.height]
                        )
                    )
                else:
                    out.append(point + noise.sigma_px * gauss)
            return out

        for record in labeled.records[:8]:
            noise = NoiseModel(sigma_px=sigma, outlier_rate=outlier, dropout_rate=dropout, seed=41)
            got, want = oracle_landmarks(record, noise), reference(record, noise)
            assert [p is None for p in got] == [p is None for p in want]
            assert all(
                g.tobytes() == w.tobytes() for g, w in zip(got, want) if w is not None
            )


class TestNoiseModel:
    @pytest.mark.parametrize("sigma", [-1.0, float("-inf"), float("inf"), float("nan")])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="sigma_px"):
            NoiseModel(sigma_px=sigma)


class TestRunPipeline:
    def test_zero_noise_scores_near_zero(self, labeled, wireframe):
        run = run_pipeline(labeled, OracleProvider(NoiseModel()), wireframe)
        assert not run.failures
        assert run.report.e < 1e-6
        assert len(run.scores) == len(labeled.records)

    def test_failure_accounting(self, labeled, wireframe):
        # full outlier corruption: consensus must fail on every record
        run_ok = False
        try:
            run = run_pipeline(
                labeled,
                OracleProvider(NoiseModel(outlier_rate=1.0, seed=5)),
                wireframe,
                ransac_cfg=RansacConfig(inlier_threshold=2.0, max_iterations=50),
            )
            run_ok = True
        except ValueError:
            pass  # every record failing is reported as an error
        assert not run_ok

    def test_partial_failures_excluded_from_aggregate(self, labeled, wireframe):
        # drop most landmarks on some records by keying dropout off the seed
        noise = NoiseModel(dropout_rate=0.55, seed=11)
        run = run_pipeline(
            labeled,
            OracleProvider(noise),
            wireframe,
            ransac_cfg=RansacConfig(min_sample=5, inlier_threshold=2.0),
        )
        assert run.failures  # at least one record starved of landmarks
        assert len(run.scores) + len(run.failures) == len(labeled.records)
        assert run.report.n == len(run.scores)

    def test_provider_equivalence(self, labeled, wireframe):
        noise = NoiseModel(sigma_px=1.5, outlier_rate=0.1, dropout_rate=0.05, seed=21)
        oracle_run = run_pipeline(
            labeled,
            OracleProvider(noise),
            wireframe,
            ransac_cfg=RansacConfig(inlier_threshold=6.0, seed=2),
            record_predictions=True,
        )
        file_run = run_pipeline(
            oracle_run.predicted,
            FileProvider(),
            wireframe,
            ransac_cfg=RansacConfig(inlier_threshold=6.0, seed=2),
        )
        assert oracle_run.scored_ids == file_run.scored_ids
        for a, b in zip(oracle_run.scores, file_run.scores):
            assert a.e_t == b.e_t and a.e_q == b.e_q

    def test_noise_monotonicity_smoke(self, cam, wireframe):
        manifest, _ = generate_labels(sampled_manifest(cam, wireframe, 40, seed=6), wireframe)
        medians = []
        for sigma in (0.0, 2.0, 8.0):
            run = run_pipeline(
                manifest,
                OracleProvider(NoiseModel(sigma_px=sigma, seed=9)),
                wireframe,
                ransac_cfg=RansacConfig(inlier_threshold=max(5.0, 3.0 * sigma)),
            )
            medians.append(run.report.e_q_rad.median)
        assert medians[0] <= medians[1] <= medians[2]
        assert medians[2] > medians[0]

    def test_timing_fields(self, labeled, wireframe):
        run = run_pipeline(labeled, OracleProvider(NoiseModel()), wireframe)
        t = run.timing
        assert t.fps > 0
        stage_total = (t.detection_ms + t.landmarks_ms + t.pnp_ms) / 1e3
        assert stage_total <= t.total_s

    def test_pose_solve_timed_in_two_stages(self, labeled, wireframe):
        five = Manifest(camera=labeled.camera, records=labeled.records[:5])
        run = run_pipeline(five, OracleProvider(NoiseModel(sigma_px=1.0)), wireframe)
        t = run.timing
        assert t.ransac_ms > 0 and t.refine_ms > 0
        assert t.detection_ms + t.landmarks_ms + t.ransac_ms + t.refine_ms <= 1e3 * t.total_s
        timed = report_payload(run.report, timing=t)
        assert (timed["ransac_ms"], timed["refine_ms"]) == (t.ransac_ms, t.refine_ms)
        untimed = report_payload(run.report)
        assert not {"pnp_ms", "ransac_ms", "refine_ms"} & set(untimed)

    def test_stage_times_include_failed_records(self, labeled, wireframe, monkeypatch):
        calls = []

        def slow_failing_ransac(correspondences, cam, cfg):
            calls.append(cfg.seed)
            if len(calls) % 3 == 0:
                return ransac_pnp(correspondences, cam, cfg)
            time.sleep(0.010)
            raise ConsensusFailureError("stub: no consensus")

        monkeypatch.setattr(pipeline, "ransac_pnp", slow_failing_ransac)
        run = run_pipeline(labeled, OracleProvider(NoiseModel()), wireframe)
        assert len(run.failures) == 20 and len(run.scores) == 10
        assert run.timing.ransac_ms >= 10.0 * len(run.failures)

    def test_dumped_predictions_rerun_to_the_same_outcomes(self, labeled, wireframe, tmp_path):
        noise = NoiseModel(sigma_px=2.0, outlier_rate=0.4, dropout_rate=0.3, seed=3)
        ransac_cfg = RansacConfig(max_iterations=50)  # failing records stop early
        first = run_pipeline(
            labeled, OracleProvider(noise), wireframe, ransac_cfg=ransac_cfg,
            record_predictions=True,
        )
        reasons = [reason for _, reason in first.failures]
        assert any("no hypothesis reached" in r for r in reasons)  # failed in RANSAC
        assert any("usable landmarks" in r for r in reasons)  # too few after dropout
        dump = tmp_path / "pred.json"
        save_manifest(first.predicted, dump)
        rerun = run_pipeline(load_manifest(dump), FileProvider(), wireframe, ransac_cfg=ransac_cfg)
        assert rerun.failures == first.failures
        assert rerun.scored_ids == first.scored_ids
        assert rerun.scores == first.scores

    @pytest.mark.parametrize(
        "noise_seed, ransac_seed", [(41, 7)] + [(k, 100 + k) for k in range(1, 8)]
    )
    def test_scores_match_epnp_resolve_reference(
        self, cam, labeled, wireframe, noise_seed, ransac_seed
    ):
        # LM from the winning hypothesis reaches the minimum that LM from an
        # EPnP re-solve over the same inliers reaches
        noise = NoiseModel(sigma_px=2.0, outlier_rate=0.1, seed=noise_seed)
        ransac_cfg = RansacConfig(seed=ransac_seed)
        run = run_pipeline(labeled, OracleProvider(noise), wireframe, ransac_cfg=ransac_cfg)
        assert not run.failures
        roi_cfg = RoiConfig()
        for record, score in zip(labeled.records, run.scores):
            roi = make_roi(record.bbox_gt, roi_cfg, cam)
            corrs = [
                Correspondence(image=denormalize_landmarks(p, roi)[0], world=world, id=k)
                for k, (p, world) in enumerate(
                    zip(OracleProvider(noise).landmarks(record, roi), wireframe.keypoints)
                )
            ]
            record_cfg = replace(ransac_cfg, seed=derive_seed(ransac_cfg.seed, record.id))
            result = ransac_pnp(corrs, cam, record_cfg)
            inliers = [c for c, keep in zip(corrs, result.inlier_mask) if keep]
            reference = image_score(
                record.pose_gt, lm_refine(epnp(inliers, cam), inliers, cam)
            )
            assert abs(score.e_q - reference.e_q) <= 1e-7
            assert abs(score.e_t - reference.e_t) <= 1e-7 * reference.e_t

    def test_deterministic_given_seeds(self, labeled, wireframe):
        noise = NoiseModel(sigma_px=2.0, seed=31)
        runs = [
            run_pipeline(
                labeled,
                OracleProvider(noise),
                wireframe,
                ransac_cfg=RansacConfig(inlier_threshold=8.0, seed=4),
            )
            for _ in range(2)
        ]
        for a, b in zip(runs[0].scores, runs[1].scores):
            assert a.e_t == b.e_t and a.e_q == b.e_q and a.score == b.score

    def test_empty_manifest_rejected(self, cam, wireframe):
        with pytest.raises(ValueError):
            run_pipeline(Manifest(camera=cam, records=[]), OracleProvider(NoiseModel()), wireframe)

    def test_run_with_no_scored_record_raises(self, labeled, wireframe):
        provider = OracleProvider(NoiseModel(dropout_rate=1.0))
        with pytest.raises(NoScoredRecordsError, match=r"no record could be scored"):
            run_pipeline(labeled, provider, wireframe)
        assert issubclass(NoScoredRecordsError, ValueError)  # callers that catch ValueError

    # with dropout, records keep different keypoint sets, and no solve may
    # depend on the sets that came before it
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
    def test_scores_do_not_depend_on_record_order(self, labeled, wireframe, dropout_rate):
        noise = NoiseModel(sigma_px=2.0, outlier_rate=0.1, dropout_rate=dropout_rate, seed=41)
        cfg = RansacConfig(seed=7)
        forward = run_pipeline(labeled, OracleProvider(noise), wireframe, ransac_cfg=cfg)
        order = stream(8, "permute").permutation(len(labeled.records))
        shuffled = Manifest(camera=labeled.camera, records=[labeled.records[i] for i in order])
        permuted = run_pipeline(shuffled, OracleProvider(noise), wireframe, ransac_cfg=cfg)
        assert sorted(forward.failures) == sorted(permuted.failures)
        by_id = dict(zip(permuted.scored_ids, permuted.scores))
        assert set(by_id) == set(forward.scored_ids)
        for rid, score in zip(forward.scored_ids, forward.scores):
            assert (score.e_t, score.e_q, score.score) == (
                by_id[rid].e_t, by_id[rid].e_q, by_id[rid].score
            )
        # the report too, to the bit: its sums must not follow the record order
        assert report_payload(forward.report, len(forward.failures)) == report_payload(
            permuted.report, len(permuted.failures)
        )

    def test_no_solve_reaches_epnp(self, labeled, wireframe, monkeypatch):
        # every RANSAC hypothesis comes from the P3P kernel: with EPnP made to
        # raise, a noisy pass with dropout gives the same outcomes
        noise = NoiseModel(sigma_px=2.0, outlier_rate=0.1, dropout_rate=0.3, seed=41)
        cfg = RansacConfig(seed=7)
        plain = run_pipeline(labeled, OracleProvider(noise), wireframe, ransac_cfg=cfg)

        def refused(*args):
            raise AssertionError("EPnP called on the solve path")

        monkeypatch.setattr(epnp_module, "_null_basis", refused)
        patched = run_pipeline(labeled, OracleProvider(noise), wireframe, ransac_cfg=cfg)
        assert plain.failures == patched.failures and plain.scored_ids == patched.scored_ids
        for a, b in zip(plain.scores, patched.scores):
            assert (a.e_t, a.e_q, a.score) == (b.e_t, b.e_q, b.score)

    def test_four_kept_landmarks_at_min_sample_four_are_scored(self, labeled, wireframe):
        # a record that keeps exactly 4 landmarks meets min_sample = 4 and is
        # solved from one P3P hypothesis over those 4 points
        class FourKept:
            def landmarks(self, record, roi):
                points = OracleProvider(NoiseModel()).landmarks(record, roi)
                return [p if k in (0, 2, 5, 8) else None for k, p in enumerate(points)]

        records = labeled.records[:5]
        manifest = Manifest(camera=labeled.camera, records=records)
        run = run_pipeline(manifest, FourKept(), wireframe, ransac_cfg=RansacConfig(min_sample=4))
        assert not run.failures and run.scored_ids == [r.id for r in records]
        assert max(s.e_q for s in run.scores) < 1e-4
        with pytest.raises(NoScoredRecordsError):
            run_pipeline(manifest, FourKept(), wireframe)  # min_sample = 5 refuses them

    def test_provider_value_error_propagates(self, labeled, wireframe):
        class BrokenProvider:
            def landmarks(self, record, roi):
                raise ValueError("provider bug")

        with pytest.raises(ValueError, match="provider bug"):
            run_pipeline(labeled, BrokenProvider(), wireframe)

    def test_starved_record_is_its_own_failure_type(self, cam, labeled, wireframe):
        stage_ms = dict.fromkeys(("detection_ms", "landmarks_ms", "ransac_ms", "refine_ms"), 0.0)
        roi_cfg = RoiConfig()
        with pytest.raises(InsufficientLandmarksError, match="only 0 usable landmarks"):
            _solve_record(
                labeled.records[1],
                OracleProvider(NoiseModel(dropout_rate=1.0)),
                wireframe,
                cam,
                roi_cfg,
                RansacConfig(),
                stage_ms,
            )

    def test_unusable_box_and_non_finite_landmark_are_failures(self, labeled, wireframe):
        class NanProvider(OracleProvider):
            def landmarks(self, record, roi):
                out = super().landmarks(record, roi)
                if record.id == poisoned:
                    out[0] = np.array([np.nan, 0.5])
                return out

        poisoned = labeled.records[2].id
        records = list(labeled.records)
        records[4] = replace(records[4], bbox_pred=BBox(3000.0, 100.0, 3100.0, 200.0))
        manifest = Manifest(camera=labeled.camera, records=records)
        run = run_pipeline(manifest, NanProvider(NoiseModel()), wireframe)
        assert sorted(rid for rid, _ in run.failures) == sorted([poisoned, records[4].id])
        assert len(run.scores) == len(records) - 2

    def test_provider_k_mismatch_is_schema_failure(self, labeled, wireframe):
        seeded = run_pipeline(
            labeled, OracleProvider(NoiseModel()), wireframe, record_predictions=True
        ).predicted
        short = seeded.records[0]
        short.landmarks_pred = [np.array([0.5, 0.5])] * 7  # wrong K
        run = run_pipeline(seeded, FileProvider(), wireframe)
        assert any(rid == short.id for rid, _ in run.failures)
        assert len(run.scores) == len(seeded.records) - 1


class TestEmitReport:
    def test_json_and_csv_share_values(self, labeled, wireframe, tmp_path):
        run = run_pipeline(labeled, OracleProvider(NoiseModel()), wireframe)
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        written = report_payload(run.report, failures=0, timing=run.timing)
        write_report(written, "json", json_path)
        write_report(written, "csv", csv_path)

        payload = json.loads(json_path.read_text())
        header, row = csv_path.read_text().strip().split("\n")
        columns = header.split(",")
        values = row.split(",")
        for col in ("E", "e_q_deg_mean", "e_q_deg_std", "e_t_m_mean", "e_t_m_std", "fps"):
            assert col in columns
            cell = values[columns.index(col)]
            assert float(cell) == payload[col]

    def test_timing_omitted_when_not_supplied(self, labeled, wireframe):
        run = run_pipeline(labeled, OracleProvider(NoiseModel()), wireframe)
        payload = report_payload(run.report, failures=0, timing=None)
        assert "fps" not in payload

    def test_unknown_format_rejected(self, labeled, wireframe, tmp_path):
        run = run_pipeline(labeled, OracleProvider(NoiseModel()), wireframe)
        with pytest.raises(ValueError):
            write_report(report_payload(run.report), "xml", tmp_path / "r.xml")


def test_derive_seed_packs_unsigned():
    # below 2**63 the bytes, and so every derived stream, match signed packing
    for seed in (0, 7, 2**63 - 1):
        digest = hashlib.sha256(seed.to_bytes(8, "big", signed=True) + b"\x00img1").digest()
        assert derive_seed(seed, "img1") == int.from_bytes(digest[:8], "big")
    assert 0 <= derive_seed(MAX_SEED, "img1") <= MAX_SEED
    assert RansacConfig(seed=derive_seed(MAX_SEED, "img1")).seed <= MAX_SEED
