"""Seeded inputs and the timed units of work of the three benchmark workloads.

Every satpose function is reached through its module attribute at call time
(``satpose.pipeline.run_pipeline``, not a name bound at import), so the
tracer in ``tracing.py`` can wrap the same calls from outside.

- ``solve_clean``: ``run_pipeline`` with a noise-free oracle provider.
- ``solve_outliers``: ``run_pipeline`` with 2 px noise and 5 % outliers.
- ``dataset_build``: sample -> labels -> save -> load -> split, in slices
  of 20 records, then triangulate every keypoint from a fixed number of
  noisy train views.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import satpose.manifest
import satpose.pipeline
import satpose.sampler
from satpose import DEFAULT_CAMERA, Manifest, NoiseModel, OracleProvider, RansacConfig, SampleRecord
from satpose.geometry import WireframeModel, example_wireframe
from satpose.sampler import PoseSamplerConfig

# the pnp package re-exports the function under the submodule's name
triangulation = importlib.import_module("satpose.pnp.triangulate")


class GateError(Exception):
    """A correctness gate failed; the run's figures are invalid."""


def sub_seed(seed: int, label: str) -> int:
    """Independent 63-bit seed per input stream, derived here, not by satpose."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sample_records(seed: int, n: int, wireframe, prefix: str = "img") -> list[SampleRecord]:
    streams = satpose.sampler.SampleStreams(seed)
    cfg, cam = PoseSamplerConfig(), DEFAULT_CAMERA
    return [
        SampleRecord(
            id=f"{prefix}{i:06d}",
            pose_gt=satpose.sampler.sample_pose(streams, cfg, cam, wireframe),
        )
        for i in range(n)
    ]


def label(records: list[SampleRecord], wireframe) -> Manifest:
    labeled, rejects = satpose.pipeline.generate_labels(
        Manifest(camera=DEFAULT_CAMERA, records=records), wireframe
    )
    if rejects:
        raise GateError(f"{len(rejects)} sampled poses were rejected by generate_labels")
    return labeled


# --------------------------------------------------------------------------
# Pose-solve workloads


@dataclass(frozen=True)
class SolveSpec:
    records: int
    sigma_px: float
    outlier_rate: float


SOLVE_SPECS = {
    "solve_clean": SolveSpec(records=50, sigma_px=0.0, outlier_rate=0.0),
    "solve_outliers": SolveSpec(records=800, sigma_px=2.0, outlier_rate=0.05),
}


@dataclass
class SolveInputs:
    wireframe: WireframeModel
    manifest: Manifest
    noise: NoiseModel
    ransac: RansacConfig

    def provider(self) -> OracleProvider:
        return OracleProvider(self.noise)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for r in self.manifest.records:
            h.update(r.id.encode())
            h.update(np.asarray(r.pose_gt.position).tobytes())
            h.update(np.asarray(r.pose_gt.attitude).tobytes())
            h.update(np.asarray(r.landmarks_gt).tobytes())
        h.update(repr((self.noise, self.ransac)).encode())
        return h.hexdigest()


def solve_inputs(workload: str, seed: int) -> SolveInputs:
    spec = SOLVE_SPECS[workload]
    wireframe = example_wireframe()
    manifest = label(sample_records(sub_seed(seed, "poses"), spec.records, wireframe), wireframe)
    noise = NoiseModel(
        sigma_px=spec.sigma_px, outlier_rate=spec.outlier_rate, seed=sub_seed(seed, "noise")
    )
    return SolveInputs(wireframe, manifest, noise, RansacConfig(seed=sub_seed(seed, "ransac")))


def sub_manifest(manifest: Manifest, records: list[SampleRecord]) -> Manifest:
    return Manifest(camera=manifest.camera, records=records, wireframe=manifest.wireframe)


def solve(inputs: SolveInputs, manifest: Manifest, provider=None):
    """One ``run_pipeline`` call; the CLI's defaults apart from the seeds."""
    return satpose.pipeline.run_pipeline(
        manifest,
        provider or inputs.provider(),
        inputs.wireframe,
        ransac_cfg=inputs.ransac,
    )


def outcomes(run) -> dict[str, tuple]:
    """Per-record outcome: the score triple, or the failure reason."""
    out = {rid: ("failed", reason) for rid, reason in run.failures}
    for rid, s in zip(run.scored_ids, run.scores):
        out[rid] = (s.e_t, s.e_t_normalized, s.e_q)
    return out


def solve_one(inputs: SolveInputs, record: SampleRecord) -> tuple | None:
    """``run_pipeline`` on a one-record manifest; None when the record fails."""
    try:
        run = solve(inputs, sub_manifest(inputs.manifest, [record]))
    except ValueError:  # run_pipeline raises when no record could be scored
        return None
    return outcomes(run)[record.id]


def accuracy(run) -> dict[str, float]:
    n = len(run.scores) + len(run.failures)
    return {
        "E": run.report.e,
        "e_q_deg_median": run.report.e_q_deg.median,
        "e_t_norm_median": run.report.e_t_norm.median,
        "failed_frac": len(run.failures) / n,
    }


def check_solve(workload: str, acc: dict[str, float]) -> None:
    if workload == "solve_clean":
        # acceptance criterion 1: noise-free round trip
        if acc["failed_frac"] > 0 or not acc["E"] < 1e-6:
            raise GateError(f"solve_clean: {acc} (need E < 1e-6 and no failures)")
    elif not (acc["e_q_deg_median"] < 2.0 and acc["e_t_norm_median"] < 0.02):
        # acceptance criterion 6's envelope at 2 px; RANSAC must reject the outliers
        raise GateError(f"{workload}: accuracy out of envelope: {acc}")


# --------------------------------------------------------------------------
# Dataset workload


@dataclass(frozen=True)
class DatasetSpec:
    records: int = 500
    slice_records: int = 20  # records per sample -> label -> save -> load -> split call chain
    train_fraction: float = 0.81
    views: int = 60  # train views per triangulated keypoint
    annotation_sigma_px: float = 1.0
    max_wireframe_err_mm: float = 10.0

    @property
    def slices(self) -> int:
        return self.records // self.slice_records


DATASET = DatasetSpec()


@dataclass
class DatasetInputs:
    seed: int
    wireframe: WireframeModel
    annotation_noise: np.ndarray  # (views, keypoints, 2) pixels
    workdir: Path

    def fingerprint(self) -> str:
        return hashlib.sha256(self.annotation_noise.tobytes()).hexdigest()


def dataset_inputs(seed: int, workdir: Path) -> DatasetInputs:
    wireframe = example_wireframe()
    rng = np.random.Generator(np.random.Philox(sub_seed(seed, "annotation")))
    noise = rng.normal(0.0, DATASET.annotation_sigma_px, size=(DATASET.views, wireframe.count, 2))
    workdir.mkdir(parents=True, exist_ok=True)
    return DatasetInputs(seed, wireframe, noise, workdir)


@dataclass
class SliceResult:
    labeled: Manifest
    loaded: Manifest
    train: list[SampleRecord]
    n_test: int
    manifest_bytes: int


def dataset_slice(inputs: DatasetInputs, k: int) -> SliceResult:
    """Slice ``k`` of the CLI's dataset chain: sample -> label -> save -> load -> split."""
    wireframe = inputs.wireframe
    records = sample_records(
        sub_seed(inputs.seed, f"poses{k}"), DATASET.slice_records, wireframe, f"s{k:03d}_"
    )
    labeled = label(records, wireframe)
    path = inputs.workdir / "slice.json"
    satpose.manifest.save_manifest(labeled, path)
    loaded = satpose.manifest.load_manifest(path)
    train, test = satpose.manifest.split_dataset(
        loaded, DATASET.train_fraction, sub_seed(inputs.seed, f"split{k}")
    )
    return SliceResult(labeled, loaded, train.records, len(test.records), path.stat().st_size)


def triangulation_views(slices: list[SliceResult]) -> list[SampleRecord]:
    """The first ``DATASET.views`` train records, in slice order."""
    return [r for s in slices for r in s.train][: DATASET.views]


def triangulate_keypoint(inputs: DatasetInputs, views: list[SampleRecord], k: int) -> np.ndarray:
    """Rebuild keypoint ``k`` from its noisy label pixels in every view."""
    noise = inputs.annotation_noise
    return triangulation.triangulate(
        [(r.pose_gt, r.landmarks_gt[k] + noise[i, k]) for i, r in enumerate(views)],
        DEFAULT_CAMERA,
    )


@dataclass
class ChainResult:
    rebuilt: np.ndarray  # (keypoints, 3) model frame
    manifest_bytes: int


def check_slice(result: SliceResult) -> None:
    n = DATASET.slice_records
    if not same_records(result.labeled, result.loaded):
        raise GateError("dataset_build: load_manifest(save_manifest(m)) differs from m")
    n_train = int(np.floor(n * DATASET.train_fraction))
    if len(result.train) != n_train or n_train + result.n_test != n:
        raise GateError(f"dataset_build: split gave {len(result.train)}/{result.n_test} of {n}")


def dataset_chain(inputs: DatasetInputs) -> ChainResult:
    """The CLI's dataset chain through library calls, with no pose solve.

    The records go through sample -> label -> save -> load -> split in
    slices of ``DATASET.slice_records``; then every keypoint is triangulated
    from the first ``DATASET.views`` train records.
    """
    slices = [dataset_slice(inputs, k) for k in range(DATASET.slices)]
    for s in slices:
        check_slice(s)  # then drop the manifests
    views = triangulation_views(slices)
    rebuilt = np.array(
        [triangulate_keypoint(inputs, views, k) for k in range(inputs.wireframe.count)]
    )
    return ChainResult(rebuilt, sum(s.manifest_bytes for s in slices))


def wireframe_err_mm(result: ChainResult, wireframe: WireframeModel) -> float:
    """Largest distance of a rebuilt keypoint from the model, in mm."""
    return 1e3 * float(np.max(np.linalg.norm(result.rebuilt - wireframe.keypoints, axis=1)))


def same_records(a: Manifest, b: Manifest) -> bool:
    if len(a.records) != len(b.records):
        return False
    for x, y in zip(a.records, b.records):
        if x.id != y.id or not (
            np.array_equal(x.pose_gt.position, y.pose_gt.position)
            and np.array_equal(x.pose_gt.attitude, y.pose_gt.attitude)
            and np.array_equal(x.landmarks_gt, y.landmarks_gt)
            and x.bbox_gt == y.bbox_gt
        ):
            return False
    return True


def check_chain(result: ChainResult, wireframe: WireframeModel) -> None:
    err = wireframe_err_mm(result, wireframe)
    if not err < DATASET.max_wireframe_err_mm:
        raise GateError(
            f"dataset_build: wireframe error {err:.3f} mm >= {DATASET.max_wireframe_err_mm} mm"
        )


def dataset_one(inputs: DatasetInputs, i: int) -> bool:
    """The chain for one fresh record: sample -> label -> save -> load."""
    wireframe = inputs.wireframe
    records = sample_records(sub_seed(inputs.seed, f"one{i}"), 1, wireframe, "one")
    labeled = label(records, wireframe)
    path = inputs.workdir / "one.json"
    satpose.manifest.save_manifest(labeled, path)
    if not same_records(labeled, satpose.manifest.load_manifest(path)):
        raise GateError("dataset_build: a one-record manifest did not round-trip")
    return True
