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

Loading parses each numeric record field across every record that sets it:
one number check over its flattened values and one array per field. A lone
record, or a file where some record or field is malformed, is parsed one
record at a time, and that parse alone words the error. Both give the same
values and the same renormalization warnings, once per record in record order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import ManifestError
from .geometry import CameraIntrinsics, Pose, WireframeModel, quat_conjugate
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
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ManifestError("record ids must be unique within a manifest")


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


def _renormalizable(norm: float) -> bool:
    """Whether a quaternion norm is neither (near) zero nor overflowing."""
    return 1e-12 <= norm < np.inf


def _off_unit(norm: float) -> bool:
    """Whether a quaternion norm deviates enough from 1 to warn; every norm out of range does."""
    return abs(norm - 1.0) > _QUAT_NORM_WARN


def _warn_renormalized(norm, where: str) -> None:
    warnings.warn(
        f"{where}: quaternion norm deviates by {abs(norm - 1.0):.3g}; renormalizing",
        ManifestWarning,
        stacklevel=4,
    )


def _parse_quaternion(raw, where: str, convention: str) -> np.ndarray:
    q = _parse_numbers(raw, (4,), where)
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norm = np.linalg.norm(q)
    if not _renormalizable(norm):
        raise ManifestError(f"{where}: quaternion norm {norm:.3g} is zero or overflows")
    if _off_unit(norm):
        _warn_renormalized(norm, where)
    # Pose divides by the same norm; conjugation commutes with that bit for bit
    return quat_conjugate(q) if convention == "camera_to_body" else q


def _parse_bbox(raw, where: str) -> BBox:
    values = _parse_numbers(raw, (4,), where).tolist()
    try:
        return BBox(*values)
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_pred_landmarks(raw, where: str) -> list[np.ndarray | None]:
    if not isinstance(raw, list):
        raise ManifestError(f"{where}: expected a list")
    out: list[np.ndarray | None] = []
    for k, entry in enumerate(raw):
        if entry is None:
            out.append(None)
        else:
            out.append(_parse_numbers(entry, (2,), f"{where}[{k}]"))
    return out


def _parse_record(data: dict, index: int, convention: str) -> SampleRecord:
    where = f"records[{index}]"
    if not isinstance(data, dict):
        raise ManifestError(f"{where}: expected an object")
    rec_id = _field(data, "id", where)
    if not isinstance(rec_id, str):
        raise ManifestError(f"{where}: field 'id' must be a string, got {rec_id!r}")
    q = _parse_quaternion(_field(data, "q", where), f"{where}: field 'q'", convention)
    t = _parse_numbers(_field(data, "t", where), (3,), f"{where}: field 't'")
    record = SampleRecord(id=rec_id, pose_gt=Pose(position=t, attitude=q))
    if data.get("bbox") is not None:
        record.bbox_gt = _parse_bbox(data["bbox"], f"{where}: field 'bbox'")
    if data.get("landmarks") is not None:
        record.landmarks_gt = _parse_numbers(
            data["landmarks"], (-1, 2), f"{where}: field 'landmarks'"
        )
    if data.get("pred_bbox") is not None:
        record.bbox_pred = _parse_bbox(data["pred_bbox"], f"{where}: field 'pred_bbox'")
    if data.get("pred_landmarks") is not None:
        record.landmarks_pred = _parse_pred_landmarks(
            data["pred_landmarks"], f"{where}: field 'pred_landmarks'"
        )
    return record


def _stack_rows(rows: list, width: int) -> np.ndarray | None:
    """``rows`` as one ``(len(rows), width)`` float array; None unless each is ``width`` numbers.

    The numbers follow the rule of :func:`_check_numbers`.
    """
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        return None
    values = list(chain.from_iterable(rows))
    try:
        _check_numbers(values, "rows")
    except ManifestError:
        return None
    # a flat list converts faster than nested ones, and each number to the same float
    return np.array(values, dtype=float).reshape(len(rows), width)


def _optional_field(raw: list[dict], key: str) -> tuple[list[int], list]:
    """Indices of the records whose ``key`` is set and not null, and those values."""
    index = [i for i, r in enumerate(raw) if r.get(key) is not None]
    return index, [raw[i][key] for i in index]


def _point_lists(lists: list) -> list[np.ndarray] | None:
    """Each list of ``[u, v]`` points as a ``(K, 2)`` view of one stacked array, or None."""
    if not all(type(points) is list for points in lists):
        return None
    stacked = _stack_rows(list(chain.from_iterable(lists)), 2)
    if stacked is None:
        return None
    ends = accumulate(map(len, lists))
    return [stacked[end - len(points) : end] for end, points in zip(ends, lists)]


def _parse_records(raw: list, convention: str) -> list[SampleRecord] | None:
    """Every record, each numeric field parsed across all records at once.

    Returns None when any record or field is malformed, and the caller then
    parses record by record with :func:`_parse_record`, which names the
    fault. Otherwise values and :class:`ManifestWarning` texts are those of
    :func:`_parse_record`, and the warnings come once per record in record
    order.
    """
    if not all(type(r) is dict and type(r.get("id")) is str for r in raw):
        return None
    q = _stack_rows([r.get("q") for r in raw], 4)
    t = _stack_rows([r.get("t") for r in raw], 3)
    if q is None or t is None:
        return None
    # a (1, 4) @ (4, 1) product per row is the one BLAS dot product np.linalg.norm
    # makes on that row, so each norm has its bits
    with np.errstate(over="ignore"):  # an overflowing norm falls back, and is reported there
        norms = np.sqrt(q[:, None, :] @ q[:, :, None]).ravel().tolist()
    off_unit = [i for i, norm in enumerate(norms) if _off_unit(norm)]
    if not all(_renormalizable(norms[i]) for i in off_unit):
        return None
    if convention == "camera_to_body":
        q[:, 1:] *= -1.0  # quat_conjugate's negation, row by row
    records = [
        SampleRecord(id=r["id"], pose_gt=Pose(position=position, attitude=attitude))
        for r, position, attitude in zip(raw, t, q)
    ]

    for key, attr in (("bbox", "bbox_gt"), ("pred_bbox", "bbox_pred")):
        index, rows = _optional_field(raw, key)
        values = _stack_rows(rows, 4)
        if values is None:
            return None
        try:
            for i, box in zip(index, values.tolist()):
                setattr(records[i], attr, BBox(*box))
        except ValueError:  # inverted extents
            return None

    index, rows = _optional_field(raw, "landmarks")
    parsed = _point_lists(rows)
    if parsed is None:
        return None
    for i, landmarks in zip(index, parsed):
        records[i].landmarks_gt = landmarks

    index, rows = _optional_field(raw, "pred_landmarks")
    if not all(type(entries) is list for entries in rows):
        return None
    points = [[p for p in entries if p is not None] for entries in rows]
    parsed = _point_lists(points)
    if parsed is None:
        return None
    for i, entries, kept in zip(index, rows, parsed):
        kept_rows = iter(kept)
        records[i].landmarks_pred = [None if p is None else next(kept_rows) for p in entries]

    for i in off_unit:
        _warn_renormalized(norms[i], f"records[{i}]: field 'q'")
    return records


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
    records = None
    if len(raw_records) > 1:  # one record has nothing to stack, and parses faster alone
        records = _parse_records(raw_records, convention)
    if records is None:  # or a malformed field: parsing record by record names the first
        records = [_parse_record(r, i, convention) for i, r in enumerate(raw_records)]
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
