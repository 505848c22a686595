"""Data-file I/O: dataset manifests, wireframe files, settings and train/test splitting.

This module is the one place that reads or writes satpose's JSON data
files: manifests and wireframe files. Every JSON input, ``--config`` files
and reports included, is read through :func:`read_json` (:func:`read_object`
when the top level must be an object), every numeric array through one
parser, and every settings object (the manifest camera and each ``--config``
section) through :func:`parse_settings`, so a malformed file raises
:class:`ManifestError` naming the file or field; the CLI exits 2 on it.

A manifest is one JSON document holding the camera, an optional wireframe
file reference, and per-image records::

    {
      "camera": {"fx": ..., "fy": ..., "cx": ..., "cy": ..., "width": ..., "height": ...},
      "wireframe": "wireframe.json",
      "attitude_convention": "body_to_camera",
      "records": [
        {"id": "img000001", "q": [w, x, y, z], "t": [x, y, z],
         "bbox": [xmin, ymin, xmax, ymax],
         "landmarks": [[u, v], ...],
         "pred_bbox": [...],                # optional, detector output
         "pred_landmarks": [[nu, nv], ...]} # optional, ROI-normalized, null = dropped
      ]
    }

The camera holds exactly the six :class:`CameraIntrinsics` fields. A relative
wireframe reference is relative to the manifest file on disk and to the working
directory in memory; loading and saving rebase it, and an absolute one stays.

``q`` is scalar-first. The convention flag says whether stored quaternions
rotate body-frame vectors into the camera frame (``body_to_camera``, the
package-internal convention) or the inverse; ``camera_to_body`` inputs are
conjugated on load, and saving always writes ``body_to_camera``.

Predicted landmarks are exchanged in ROI-normalized coordinates — the output
contract of the landmark-regression stage — so files written by a real
regression network drop straight in.

A wireframe file holds the target model's ordered body-frame keypoints::

    {"name": "example-satellite", "keypoints": [[x, y, z], ...]}

``name`` is optional and defaults to the file stem.

Both kinds of file are written as compact one-line JSON, encoded in one pass
by the C encoder of :mod:`json`. Any JSON whitespace loads, so hand-indented
files work too, and ``python -m json.tool m.json`` prints one readably.

Loading parses one record at a time, in file order, so renormalization
warnings come once per record in record order and an error names the first
faulty record and field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ManifestError
from .geometry import CameraIntrinsics, Pose, WireframeModel, _norm, quat_conjugate
from .rng import stream
from .roi import BBox

_QUAT_NORM_WARN = 1e-6

# the types json.load gives JSON numbers; bool, a subclass of int, is left out
_NUMBER_TYPES = {int, float}

CONVENTIONS = ("body_to_camera", "camera_to_body")


class ManifestWarning(UserWarning):
    """Recoverable manifest irregularities (e.g. quaternions renormalized)."""


@dataclass
class SampleRecord:
    """One dataset entry: ground-truth pose plus derived and predicted labels.

    ``landmarks_pred`` entries are ROI-normalized (nu, nv) pairs; ``None``
    marks a landmark the provider dropped.
    """

    id: str
    pose_gt: Pose
    bbox_gt: BBox | None = None
    landmarks_gt: np.ndarray | None = None  # (K, 2) pixels
    landmarks_pred: list[np.ndarray | None] | None = None
    bbox_pred: BBox | None = None


@dataclass
class Manifest:
    camera: CameraIntrinsics
    records: list[SampleRecord]
    wireframe: str | None = None

    def __post_init__(self):
        seen = set()
        for record in self.records:
            if record.id in seen:
                raise ManifestError(
                    f"record ids must be unique within a manifest; {record.id!r} repeats"
                )
            seen.add(record.id)


def _field(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ManifestError(f"{where}: missing field '{key}'")
    return mapping[key]


def _check_numbers(values: list, where: str) -> None:
    """Raise unless every item is a finite JSON number (not a string or boolean).

    The rule for numbers read from JSON: manifest fields and config settings.
    """
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise ManifestError(f"{where}: values must be JSON numbers")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ManifestError(f"{where}: values must be finite")


def parse_settings(cls, data, where: str, **overrides):
    """The JSON object ``data`` as the settings dataclass ``cls``; raises :class:`ManifestError`.

    Keys must be fields of ``cls`` and values finite JSON numbers, passed on
    as written. Every override that is not ``None`` (a command-line flag)
    wins over ``data``; a field with no default must come from one of them.
    """
    if not isinstance(data, dict):
        raise ManifestError(f"{where}: expected an object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ManifestError(f"{where}: unknown keys {unknown}")
    for key, value in data.items():
        _check_numbers([value], f"{where}: {key}")
    values = {**data, **{key: value for key, value in overrides.items() if value is not None}}
    missing = [f.name for f in fields if f.name not in values and f.default is dataclasses.MISSING]
    if missing:
        raise ManifestError(f"{where}: missing fields {missing}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # TypeError: an int too large for numpy's checks
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_numbers(raw, shape: tuple[int, ...], where: str) -> np.ndarray:
    """``raw`` as a float array of ``shape`` (one or two axes); raises :class:`ManifestError`.

    A leading ``-1`` in ``shape`` takes any row count, zero included, so
    ``[]`` loads as a ``(0, 2)`` array for ``shape=(-1, 2)``.
    """
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int too large
        raise ManifestError(f"{where}: not numeric") from exc
    want = shape
    if shape[0] == -1:
        if arr.shape == (0,):  # "[]" carries no row length
            arr = arr.reshape(0, *shape[1:])
        want = arr.shape[:1] + shape[1:]
    if arr.shape != want:
        wanted = str(shape).replace("-1", "K")
        raise ManifestError(f"{where}: expected shape {wanted}, got shape {arr.shape}")
    # the shape check made ``raw`` a flat list, or a list of flat lists
    _check_numbers(raw if arr.ndim == 1 else list(chain.from_iterable(raw)), where)
    return arr


def _numbers(raw, shape: tuple[int, ...], where: str) -> list:
    """The numbers of ``raw`` in one flat list; ``shape`` is as for :func:`_parse_numbers`.

    A list of that structure whose values pass :func:`_check_numbers` is
    taken as it stands, with no numpy call. Anything else goes through
    :func:`_parse_numbers`, which raises :class:`ManifestError` naming the fault.
    """
    flat = None
    if type(raw) is list and shape[0] in (-1, len(raw)):
        if len(shape) == 1:
            flat = raw
        elif set(map(type, raw)) <= {list} and set(map(len, raw)) <= {shape[1]}:
            flat = list(chain.from_iterable(raw))
    if flat is not None:
        try:
            _check_numbers(flat, where)
        except ManifestError:
            pass  # _parse_numbers words the fault
        else:
            return flat
    return _parse_numbers(raw, shape, where).ravel().tolist()


def _parse_quaternion(raw, where: str, convention: str) -> np.ndarray:
    """``raw`` as a body-to-camera quaternion, not yet normalized; warns when off unit norm."""
    q = np.array(_numbers(raw, (4,), where), dtype=float)
    norm = _norm(q)
    if not 1e-12 <= norm < math.inf:
        raise ManifestError(f"{where}: quaternion norm {norm:.3g} is zero or overflows")
    if abs(norm - 1.0) > _QUAT_NORM_WARN:
        warnings.warn(
            f"{where}: quaternion norm deviates by {abs(norm - 1.0):.3g}; renormalizing",
            ManifestWarning,
            stacklevel=4,  # the caller of load_manifest
        )
    # Pose divides by the same norm; conjugation commutes with that bit for bit
    return quat_conjugate(q) if convention == "camera_to_body" else q


def _parse_bbox(raw, where: str) -> BBox:
    try:
        return BBox(*_numbers(raw, (4,), where))
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_pred_landmarks(raw, where: str) -> list[np.ndarray | None]:
    if not isinstance(raw, list):
        raise ManifestError(f"{where}: expected a list")
    return [
        None if entry is None else np.array(_numbers(entry, (2,), f"{where}[{k}]"), dtype=float)
        for k, entry in enumerate(raw)
    ]


def _parse_record(data: dict, index: int, convention: str) -> SampleRecord:
    where = f"records[{index}]"
    if not isinstance(data, dict):
        raise ManifestError(f"{where}: expected an object")
    rec_id = _field(data, "id", where)
    if not isinstance(rec_id, str):
        raise ManifestError(f"{where}: field 'id' must be a string, got {rec_id!r}")
    q = _parse_quaternion(_field(data, "q", where), f"{where}: field 'q'", convention)
    t = _numbers(_field(data, "t", where), (3,), f"{where}: field 't'")
    record = SampleRecord(id=rec_id, pose_gt=Pose(position=t, attitude=q))
    if data.get("bbox") is not None:
        record.bbox_gt = _parse_bbox(data["bbox"], f"{where}: field 'bbox'")
    if data.get("landmarks") is not None:
        flat = _numbers(data["landmarks"], (-1, 2), f"{where}: field 'landmarks'")
        record.landmarks_gt = np.array(flat, dtype=float).reshape(-1, 2)
    if data.get("pred_bbox") is not None:
        record.bbox_pred = _parse_bbox(data["pred_bbox"], f"{where}: field 'pred_bbox'")
    if data.get("pred_landmarks") is not None:
        record.landmarks_pred = _parse_pred_landmarks(
            data["pred_landmarks"], f"{where}: field 'pred_landmarks'"
        )
    return record


def read_json(path):
    """The JSON value in the file at ``path``.

    Raises :class:`ManifestError` naming ``path`` when the bytes are not
    UTF-8 JSON, including nesting too deep for the decoder.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError covers JSONDecodeError, UnicodeDecodeError and oversized integers
        except (ValueError, RecursionError) as exc:
            raise ManifestError(f"{path}: invalid JSON ({exc})") from exc


def read_object(path) -> dict:
    """The JSON object in the file at ``path``; :class:`ManifestError` for any other value."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ManifestError(f"{path}: top level must be an object")
    return data


def _rebase(ref: str | None, start, to) -> str | None:
    """Relative ``ref``, read from directory ``start``, as seen from ``to`` (``""``: the cwd)."""
    if not ref or os.path.isabs(ref):
        return ref
    return os.path.relpath(os.path.join(start, ref), to or os.curdir)


def load_manifest(path) -> Manifest:
    """Parse and validate a manifest file; raises :class:`ManifestError`."""
    data = read_object(path)
    convention = data.get("attitude_convention", "body_to_camera")
    if convention not in CONVENTIONS:
        raise ManifestError(
            f"attitude_convention must be one of {CONVENTIONS}, got {convention!r}"
        )
    camera = parse_settings(CameraIntrinsics, _field(data, "camera", "manifest"), "camera")
    raw_records = _field(data, "records", "manifest")
    if not isinstance(raw_records, list):
        raise ManifestError("records: expected a list")
    records = []
    # a plain loop, not a comprehension, so warnings skip the same frames on every Python
    for i, r in enumerate(raw_records):
        records.append(_parse_record(r, i, convention))
    wireframe = data.get("wireframe")
    if wireframe is not None and not isinstance(wireframe, str):
        raise ManifestError(f"wireframe: expected a file path string, got {wireframe!r}")
    wireframe = _rebase(wireframe, os.path.dirname(path), "")
    return Manifest(camera=camera, records=records, wireframe=wireframe)


def _record_payload(record: SampleRecord) -> dict:
    payload: dict = {
        "id": record.id,
        "q": record.pose_gt.attitude.tolist(),
        "t": record.pose_gt.position.tolist(),
    }
    if record.bbox_gt is not None:
        payload["bbox"] = record.bbox_gt.as_list()
    if record.landmarks_gt is not None:
        payload["landmarks"] = np.asarray(record.landmarks_gt).tolist()
    if record.bbox_pred is not None:
        payload["pred_bbox"] = record.bbox_pred.as_list()
    if record.landmarks_pred is not None:
        payload["pred_landmarks"] = [
            None if p is None else np.asarray(p).tolist() for p in record.landmarks_pred
        ]
    return payload


def write_json(payload, path, **options) -> None:
    """Write ``payload`` as JSON and a newline; floats keep full round-trip precision.

    ``options`` go to :func:`json.dumps`; with none, the file is one line
    encoded by the C encoder. The payload is encoded before the file is
    opened, so a value that cannot be encoded raises and leaves any existing
    file as it was.
    """
    text = json.dumps(payload, **options)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def save_manifest(manifest: Manifest, path) -> None:
    """Write a manifest as one line of JSON, by :func:`write_json`'s rules."""
    payload = {
        "camera": vars(manifest.camera),  # the six fields in order, read back by parse_settings
        "wireframe": _rebase(manifest.wireframe, "", os.path.dirname(path)),
        "attitude_convention": "body_to_camera",
        "records": [_record_payload(r) for r in manifest.records],
    }
    write_json(payload, path)


def load_wireframe(path) -> WireframeModel:
    """Parse and validate a wireframe file; raises :class:`ManifestError`.

    Collinear keypoints raise :class:`DegenerateGeometryError` from the model.
    """
    data = read_object(path)
    name = data.get("name", Path(path).stem)
    if not isinstance(name, str):
        raise ManifestError(f"{path}: field 'name' must be a string, got {name!r}")
    keypoints = _parse_numbers(
        _field(data, "keypoints", str(path)), (-1, 3), f"{path}: field 'keypoints'"
    )
    try:
        return WireframeModel(name=name, keypoints=keypoints)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def save_wireframe(model: WireframeModel, path) -> None:
    """Write a wireframe file as one line of JSON, by :func:`write_json`'s rules."""
    write_json({"name": model.name, "keypoints": model.keypoints.tolist()}, path)


def split_dataset(
    manifest: Manifest, train_fraction: float, seed: int
) -> tuple[Manifest, Manifest]:
    """Seeded uniform partition into floor(N * fraction) train + remainder test.

    Membership is random; record order within each side follows the input.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = len(manifest.records)
    n_train = int(np.floor(n * train_fraction))
    rng = stream(seed, "split")
    train_idx = set(rng.choice(n, size=n_train, replace=False).tolist())
    train = [r for i, r in enumerate(manifest.records) if i in train_idx]
    test = [r for i, r in enumerate(manifest.records) if i not in train_idx]
    return dataclasses.replace(manifest, records=train), dataclasses.replace(manifest, records=test)
