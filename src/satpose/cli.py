"""Command-line interface.

Subcommands::

    sample-poses     draw random target poses into a manifest
    generate-labels  project wireframe keypoints into bbox + landmark labels
    split            seeded train/test partition of a manifest
    run              full pipeline: ROI -> landmarks -> RANSAC P3P -> LM -> report
    triangulate      rebuild a wireframe from labeled views
    report           merge report JSON files into one table

Each setting has one source: a flag, or a section of the ``--config`` JSON
file. Only ``sample-poses`` (sections ``camera``, ``sampler``) and ``run``
(sections ``roi``, ``ransac``, ``noise``) take ``--config``, and a config
key outside the command's sections is refused. Each section is built by
:func:`satpose.manifest.parse_settings`, the rule the manifest camera
follows: only the section's fields, each a finite JSON number. A manifest
written to another directory than its input gets its wireframe reference
rebased by :func:`satpose.manifest.save_manifest`. ``run`` and ``report``
write their report files through :func:`satpose.pipeline.write_report`, a
run's object or a list of merged ones. Exit codes: 0 success,
2 schema error, 3 solver failure (a failure rate above the limit, no record
scored, or no pose sampled), 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ManifestError, SatposeError
from .geometry import (
    DEFAULT_CAMERA,
    CameraIntrinsics,
    WireframeModel,
    example_wireframe,
)
from .manifest import (
    Manifest,
    SampleRecord,
    load_manifest,
    load_wireframe,
    parse_settings,
    read_object,
    save_manifest,
    save_wireframe,
    split_dataset,
)
from .pipeline import (
    FileProvider,
    NoiseModel,
    OracleProvider,
    generate_labels,
    load_report,
    report_payload,
    run_pipeline,
    write_report,
)
from .pnp import RansacConfig, triangulate
from .roi import RoiConfig
from .sampler import PoseSamplerConfig, SampleStreams, sample_pose

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SOLVER = 3
EXIT_IO = 4


# config file sections and the dataclass each one builds
_SECTIONS = {
    "camera": CameraIntrinsics,
    "sampler": PoseSamplerConfig,
    "roi": RoiConfig,
    "ransac": RansacConfig,
    "noise": NoiseModel,
}


def read_config(path, sections: tuple[str, ...]) -> dict:
    """The ``--config`` object at ``path`` (``{}`` for ``None``); unread sections are refused."""
    if path is None:
        return {}
    data = read_object(path)
    unknown = sorted(set(data) - set(sections))
    if unknown:
        raise ManifestError(
            f"{path}: unknown config sections {unknown}; this command reads {list(sections)}"
        )
    return data


def _section(config: dict, name: str, **overrides):
    """Config section ``name`` as its dataclass; overrides that are not ``None`` win."""
    return parse_settings(_SECTIONS[name], config.get(name, {}), f"config: {name}", **overrides)


def _resolve_wireframe(args, manifest: Manifest) -> WireframeModel:
    path = args.wireframe or manifest.wireframe  # both relative to the working directory
    if not path:
        raise ManifestError("no wireframe model: pass --wireframe or set it in the manifest")
    return load_wireframe(path)


def _cmd_sample_poses(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    cfg = read_config(args.config, ("camera", "sampler"))
    cam = _section(cfg, "camera") if "camera" in cfg else DEFAULT_CAMERA
    sampler_cfg = _section(cfg, "sampler")
    streams = SampleStreams(args.seed)  # checks the seed before anything is written

    if args.wireframe:
        wireframe = load_wireframe(args.wireframe)
        wf_path = args.wireframe
    else:
        wireframe = example_wireframe()
        # beside the manifest, named from the working directory like any in-memory reference
        wf_path = os.path.relpath(os.path.join(os.path.dirname(args.out), "wireframe.json"))

    records = [
        SampleRecord(id=f"img{i:06d}", pose_gt=sample_pose(streams, sampler_cfg, cam, wireframe))
        for i in range(args.n)
    ]
    if not args.wireframe:  # written only once sampling succeeded, like the manifest
        save_wireframe(wireframe, wf_path)
    save_manifest(Manifest(camera=cam, records=records, wireframe=wf_path), args.out)
    print(f"wrote {args.n} poses to {args.out}")
    return EXIT_OK


def _cmd_generate_labels(args) -> int:
    manifest = load_manifest(args.manifest)
    wireframe = _resolve_wireframe(args, manifest)
    labeled, rejects = generate_labels(manifest, wireframe)
    save_manifest(labeled, args.out)
    print(f"labeled {len(labeled.records)} records, {len(rejects)} rejected")
    for record_id, reason in rejects:
        print(f"  reject {record_id}: {reason}", file=sys.stderr)
    return EXIT_OK


def _cmd_split(args) -> int:
    manifest = load_manifest(args.manifest)
    train, test = split_dataset(manifest, args.train_fraction, args.seed)
    save_manifest(train, args.out_train)
    save_manifest(test, args.out_test)
    print(f"split {len(manifest.records)} -> {len(train.records)} train / {len(test.records)} test")
    return EXIT_OK


def _cmd_run(args) -> int:
    if not 0.0 <= args.max_failure_rate <= 1.0:  # NaN fails
        raise ValueError(f"--max-failure-rate must lie in [0, 1], got {args.max_failure_rate}")
    cfg = read_config(args.config, ("roi", "ransac", "noise"))
    manifest = load_manifest(args.manifest)
    wireframe = _resolve_wireframe(args, manifest)

    if args.provider == "oracle":
        provider = OracleProvider(
            _section(
                cfg,
                "noise",
                sigma_px=args.sigma,
                outlier_rate=args.outlier_rate,
                dropout_rate=args.dropout_rate,
                seed=args.noise_seed,
            )
        )
    else:
        noise = ["config section 'noise'"] * ("noise" in cfg) + [
            "--" + dest.replace("_", "-")
            for dest in ("sigma", "outlier_rate", "dropout_rate", "noise_seed")
            if getattr(args, dest) is not None
        ]
        if noise:
            raise ManifestError(f"--provider file adds no noise, so {noise[0]} is refused")
        provider = FileProvider()

    run = run_pipeline(
        manifest,
        provider,
        wireframe,
        roi_cfg=_section(cfg, "roi"),
        ransac_cfg=_section(cfg, "ransac", seed=args.seed),
        record_predictions=args.dump_predictions is not None,
    )
    if args.dump_predictions is not None:
        save_manifest(run.predicted, args.dump_predictions)

    timing = None if args.no_timing else run.timing
    payload = report_payload(run.report, failures=len(run.failures), timing=timing)
    write_report(payload, args.format, args.out)

    n = len(manifest.records)
    failure_rate = len(run.failures) / n
    print(
        f"scored {len(run.scores)}/{n} records, E={run.report.e:.6g}, "
        f"failures={len(run.failures)}"
    )
    if failure_rate > args.max_failure_rate:
        print(
            f"failure rate {failure_rate:.3f} exceeds limit {args.max_failure_rate:.3f}",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_triangulate(args) -> int:
    manifest = load_manifest(args.manifest)
    usable = [r for r in manifest.records if r.landmarks_gt is not None]
    if len(usable) < 2:
        raise ManifestError("triangulation needs >= 2 records with landmarks")
    counts = {np.asarray(r.landmarks_gt).shape[0] for r in usable}
    if len(counts) != 1:
        raise ManifestError(f"records disagree on landmark count: {sorted(counts)}")
    k = counts.pop()
    keypoints = [
        triangulate(
            [(r.pose_gt, np.asarray(r.landmarks_gt)[idx]) for r in usable],
            manifest.camera,
        )
        for idx in range(k)
    ]
    model = WireframeModel(name=args.name, keypoints=np.array(keypoints))
    save_wireframe(model, args.out)
    print(f"triangulated {k} keypoints from {len(usable)} views into {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    payloads = [load_report(path) for path in args.reports]
    write_report(payloads, args.format, args.out)
    print(f"merged {len(payloads)} reports into {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satpose",
        description="Monocular satellite pose estimation harness (geometry-only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-poses", help="draw random poses into a manifest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wireframe", help="wireframe JSON (default: built-in example)")
    p.add_argument("--config", help="JSON config file: camera and sampler sections")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_poses)

    p = sub.add_parser("generate-labels", help="derive bbox + landmark labels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--wireframe")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_labels)

    p = sub.add_parser("split", help="seeded train/test partition")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("run", help="run the full pipeline and emit a report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--wireframe")
    p.add_argument("--provider", choices=["oracle", "file"], default="oracle")
    p.add_argument("--sigma", type=float, help="oracle noise sigma [px]")
    p.add_argument("--outlier-rate", type=float)
    p.add_argument("--dropout-rate", type=float)
    p.add_argument("--noise-seed", type=int)
    p.add_argument(
        "--seed", type=int, help="RANSAC seed (default: the config's ransac.seed, else 0)"
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--dump-predictions", help="write provider outputs to this manifest")
    p.add_argument(
        "--max-failure-rate",
        type=float,
        default=1.0,
        help="exit 3 when the per-record failure rate exceeds this",
    )
    p.add_argument("--no-timing", action="store_true", help="omit fps/timing fields")
    p.add_argument("--config", help="JSON config file: roi, ransac and noise sections")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("triangulate", help="rebuild a wireframe from labeled views")
    p.add_argument("--manifest", required=True)
    p.add_argument("--name", default="triangulated")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("report", help="merge report JSON files")
    p.add_argument("reports", nargs="+")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SatposeError as exc:  # before ValueError: a run with no scored record is both
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
