"""Manifest schema, round-trip, and split tests."""

import copy
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from satpose import (
    BBox,
    CameraIntrinsics,
    Manifest,
    Pose,
    SampleRecord,
    load_manifest,
    save_manifest,
    split_dataset,
)
from satpose.errors import ManifestError
from satpose.geometry import quat_conjugate
from satpose.manifest import ManifestWarning
from satpose.rng import stream
from satpose.sampler import sample_attitude
from tests.conftest import json_values


def make_manifest(cam, n=10, seed=0, with_labels=False) -> Manifest:
    rng = stream(seed, "manifest")
    records = []
    for i in range(n):
        pose = Pose(
            position=[rng.normal(0, 2), rng.normal(0, 2), rng.uniform(36, 70)],
            attitude=sample_attitude(rng),
        )
        record = SampleRecord(id=f"img{i:06d}", pose_gt=pose)
        if with_labels:
            record.bbox_gt = BBox(100.0 + i, 90.0, 400.0 + i, 390.0)
            record.landmarks_gt = rng.uniform(100, 400, size=(11, 2))
        records.append(record)
    return Manifest(camera=cam, records=records, wireframe="wireframe.json")


class TestRoundTrip:
    def test_full_precision_round_trip(self, cam, tmp_path):
        manifest = make_manifest(cam, n=100, with_labels=True)
        manifest.records[3].bbox_pred = BBox(101.0, 91.5, 402.25, 391.125)
        manifest.records[5].landmarks_pred = [
            None if k == 2 else np.array([0.1 * k, 0.05 * k]) for k in range(11)
        ]
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)

        assert len(loaded.records) == 100
        assert loaded.wireframe == "wireframe.json"
        assert loaded.camera == cam
        for orig, back in zip(manifest.records, loaded.records):
            assert orig.id == back.id
            np.testing.assert_array_equal(orig.pose_gt.position, back.pose_gt.position)
            np.testing.assert_array_equal(orig.pose_gt.attitude, back.pose_gt.attitude)
            if orig.landmarks_gt is not None:
                np.testing.assert_array_equal(orig.landmarks_gt, back.landmarks_gt)
            assert orig.bbox_gt == back.bbox_gt
            assert orig.bbox_pred == back.bbox_pred
        pred = loaded.records[5].landmarks_pred
        assert pred[2] is None
        np.testing.assert_array_equal(pred[3], manifest.records[5].landmarks_pred[3])

    def test_save_is_idempotent(self, cam, tmp_path):
        manifest = make_manifest(cam, n=20, with_labels=True)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_manifest(manifest, p1)
        save_manifest(load_manifest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_integer_camera_values_are_kept(self, tmp_path):
        cam = CameraIntrinsics(fx=3000, fy=3000, cx=960, cy=600, width=1920, height=1200)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_manifest(make_manifest(cam, n=3), first)
        save_manifest(load_manifest(first), second)
        assert '"fx": 3000, ' in first.read_text()
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_leaves_existing_file(self, cam, tmp_path):
        path = tmp_path / "m.json"
        save_manifest(make_manifest(cam, n=5, with_labels=True), path)
        before = path.read_bytes()
        broken = make_manifest(cam, n=5, with_labels=True)
        broken.records[2].id = object()  # not JSON-encodable
        with pytest.raises(TypeError):
            save_manifest(broken, path)
        assert path.read_bytes() == before


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def cameras(draw):
    width, height = draw(st.integers(2, 1 << 16)), draw(st.integers(2, 1 << 16))
    inside = lambda side: st.floats(0.0, side, exclude_min=True, exclude_max=True)  # noqa: E731
    focal = st.floats(1e-3, 1e6)
    return CameraIntrinsics(
        fx=draw(focal), fy=draw(focal), cx=draw(inside(width)), cy=draw(inside(height)),
        width=width, height=height,
    )


@st.composite
def boxes(draw):
    xs, ys = sorted(draw(st.tuples(finite, finite))), sorted(draw(st.tuples(finite, finite)))
    return BBox(xs[0], ys[0], xs[1], ys[1])


def points(k):
    pairs = st.lists(st.tuples(finite, finite), min_size=k, max_size=k)
    return pairs.map(lambda p: np.array(p, dtype=float).reshape(-1, 2))


@st.composite
def records(draw, rec_id):
    q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 1e-3))
    position = draw(st.tuples(finite, finite, finite))
    record = SampleRecord(id=rec_id, pose_gt=Pose(position=position, attitude=q))
    if draw(st.booleans()):
        record.bbox_gt = draw(boxes())
        record.landmarks_gt = draw(st.integers(0, 12).flatmap(points))  # "[]" is (0, 2)
    record.bbox_pred = draw(st.none() | boxes())
    if draw(st.booleans()):
        pair = st.tuples(finite, finite).map(np.array)
        record.landmarks_pred = draw(st.lists(st.none() | pair, max_size=12))
    return record


@st.composite
def manifests(draw):
    ids = draw(st.lists(st.text(max_size=8), max_size=6, unique=True))
    return Manifest(
        camera=draw(cameras()),
        records=[draw(records(rec_id)) for rec_id in ids],
        wireframe=draw(st.none() | st.text(max_size=12)),
    )


def _resolved(wireframe: str | None) -> str | None:
    """The file a wireframe reference names; empty and absent references stay as they are."""
    return os.path.abspath(wireframe) if wireframe else wireframe


def assert_same_bits(a, b) -> None:
    """Equal shapes and float bits (signed zeros told apart); ``None`` only equals ``None``."""
    assert (a is None) == (b is None)
    if a is not None:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_manifest(a: Manifest, b: Manifest) -> None:
    """Equal camera, wireframe and records, every float to the bit."""
    assert a.camera == b.camera
    assert _resolved(a.wireframe) == _resolved(b.wireframe)
    assert [r.id for r in a.records] == [r.id for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert_same_bits(ra.pose_gt.position, rb.pose_gt.position)
        assert_same_bits(ra.pose_gt.attitude, rb.pose_gt.attitude)
        for box_a, box_b in ((ra.bbox_gt, rb.bbox_gt), (ra.bbox_pred, rb.bbox_pred)):
            assert_same_bits(box_a and box_a.as_list(), box_b and box_b.as_list())
        assert_same_bits(ra.landmarks_gt, rb.landmarks_gt)
        assert (ra.landmarks_pred is None) == (rb.landmarks_pred is None)
        for pa, pb in zip(ra.landmarks_pred or [], rb.landmarks_pred or [], strict=True):
            assert_same_bits(pa, pb)


roundtrip_settings = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRoundTripProperties:
    @roundtrip_settings
    @given(manifest=manifests())
    def test_load_of_save_is_the_manifest(self, tmp_path, manifest):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_manifest(manifest, first)
        loaded = load_manifest(first)
        assert_same_manifest(manifest, loaded)
        save_manifest(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @roundtrip_settings
    @given(manifest=manifests())
    def test_camera_to_body_file_loads_conjugated(self, tmp_path, manifest):
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        payload = json.loads(path.read_text())
        payload["attitude_convention"] = "camera_to_body"
        path.write_text(json.dumps(payload))
        loaded = load_manifest(path)
        for orig, back in zip(manifest.records, loaded.records, strict=True):
            conjugated = quat_conjugate(orig.pose_gt.attitude)
            np.testing.assert_array_equal(back.pose_gt.attitude, conjugated)

    @roundtrip_settings
    @given(manifest=manifests())
    def test_indented_file_loads_like_the_compact_one(self, tmp_path, manifest):
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_manifest(manifest, compact)
        with open(indented, "w", encoding="utf-8") as fh:  # the layout of earlier versions
            json.dump(json.loads(compact.read_text()), fh, indent=1)
            fh.write("\n")
        assert_same_manifest(load_manifest(compact), load_manifest(indented))


class TestSchemaErrors:
    def base_payload(self, cam):
        return {
            "camera": {
                "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
                "width": cam.width, "height": cam.height,
            },
            "records": [{"id": "a", "q": [1, 0, 0, 0], "t": [0, 0, 40]}],
        }

    def write(self, tmp_path, payload):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        return path

    def test_missing_quaternion_names_field_and_record(self, cam, tmp_path):
        payload = self.base_payload(cam)
        del payload["records"][0]["q"]
        with pytest.raises(ManifestError, match=r"records\[0\].*'q'"):
            load_manifest(self.write(tmp_path, payload))

    def test_missing_camera_field(self, cam, tmp_path):
        payload = self.base_payload(cam)
        del payload["camera"]["fx"]
        with pytest.raises(ManifestError, match="fx"):
            load_manifest(self.write(tmp_path, payload))

    def test_wrong_quaternion_length(self, cam, tmp_path):
        payload = self.base_payload(cam)
        payload["records"][0]["q"] = [1, 0, 0]
        with pytest.raises(ManifestError, match=r"records\[0\]"):
            load_manifest(self.write(tmp_path, payload))

    def test_duplicate_ids_rejected(self, cam, tmp_path):
        payload = self.base_payload(cam)
        payload["records"].append(dict(payload["records"][0]))
        with pytest.raises(ManifestError, match="unique"):
            load_manifest(self.write(tmp_path, payload))

    def test_duplicate_ids_name_the_first_repeat(self, cam):
        pose = Pose([0, 0, 40], [1, 0, 0, 0])
        ids = ["a", "b", "c", "b", "a"]
        with pytest.raises(ManifestError, match="unique.*'b' repeats"):
            Manifest(camera=cam, records=[SampleRecord(id=i, pose_gt=pose) for i in ids])

    def test_first_faulty_record_is_named(self, cam, tmp_path):
        payload = self.base_payload(cam)
        record = payload["records"][0]
        payload["records"] = [dict(record, id=name) for name in "abc"]
        payload["records"][0]["landmarks"] = [[1, 2], [3]]
        payload["records"][2]["q"] = [0, 0, 0, 0]
        with pytest.raises(ManifestError, match=r"^records\[0\]: field 'landmarks'"):
            load_manifest(self.write(tmp_path, payload))

    def test_warnings_of_earlier_records_come_before_the_error(self, cam, tmp_path):
        payload = self.base_payload(cam)
        record = payload["records"][0]
        payload["records"] = [dict(record, id="a", q=[2, 0, 0, 0]), dict(record, id="b", t=[0, 0])]
        path = self.write(tmp_path, payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ManifestError, match=r"^records\[1\]: field 't'"):
                load_manifest(path)
        assert [str(w.message) for w in caught] == [
            "records[0]: field 'q': quaternion norm deviates by 1; renormalizing"
        ]

    def test_invalid_json_reported(self, cam, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_manifest(path)

    def test_unknown_convention_rejected(self, cam, tmp_path):
        payload = self.base_payload(cam)
        payload["attitude_convention"] = "sideways"
        with pytest.raises(ManifestError, match="attitude_convention"):
            load_manifest(self.write(tmp_path, payload))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", float("inf")),  # int() would raise OverflowError
            ("fx", float("inf")),
            ("width", 1920.7),  # int() would truncate it to 1920
            ("width", 1e30),
        ],
        ids=["width-inf", "fx-inf", "width-fractional", "width-huge"],
    )
    def test_malformed_camera_value_rejected(self, cam, tmp_path, field, value):
        payload = self.base_payload(cam)
        payload["camera"][field] = value
        with pytest.raises(ManifestError, match=f"camera: {field}"):
            load_manifest(self.write(tmp_path, payload))

    def test_overflowing_quaternion_norm_rejected(self, cam, tmp_path):
        payload = self.base_payload(cam)
        payload["records"][0]["q"] = [1e300, 1e300, 0, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warning stays off
            with pytest.raises(ManifestError, match=r"records\[0\].*overflows"):
                load_manifest(self.write(tmp_path, payload))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fx", "3000"),
            ("fx", True),
            ("id", [1]),
            ("id", 5),
            ("q", [1, 0, 0, "0"]),
            ("t", ["0.5", "0", "40"]),
            ("t", [True, False, 40]),
            ("t", [0, 0, 10**400]),
            ("bbox", [100, 90, 400, "390"]),
            ("landmarks", [[100, 90], [False, 120]]),
            ("pred_bbox", [True, 90, 400, 390]),
            ("pred_landmarks", [["0.1", "0.2"], None]),
        ],
    )
    def test_values_keep_their_json_types(self, cam, tmp_path, field, value):
        payload = self.base_payload(cam)
        if field == "fx":
            payload["camera"][field] = value
            named = "camera: fx"
        else:
            payload["records"][0][field] = value
            named = rf"records\[0\]: field '{field}'"
        with pytest.raises(ManifestError, match=named):
            load_manifest(self.write(tmp_path, payload))

    @pytest.mark.parametrize(
        "field, value, fault",
        [
            ("t", [0, 0, 10**400], "not numeric"),
            ("t", [0, 0, "abc"], "not numeric"),
            ("t", [0, 0, "40"], "values must be JSON numbers"),
            ("t", [0, 0, float("inf")], "values must be finite"),
            ("t", [0, 0], "expected shape (3,), got shape (2,)"),
            ("q", [[1, 0, 0, 0]], "expected shape (4,), got shape (1, 4)"),
            ("bbox", [0, 0, 1, None], "values must be JSON numbers"),
            ("landmarks", [[1, 2], [3]], "not numeric"),
            ("landmarks", [[1, 2, 3]], "expected shape (K, 2), got shape (1, 3)"),
            ("landmarks", 5, "expected shape (K, 2), got shape ()"),
        ],
    )
    def test_number_faults_keep_their_wording(self, cam, tmp_path, field, value, fault):
        payload = self.base_payload(cam)
        payload["records"][0][field] = value
        with pytest.raises(ManifestError) as caught:
            load_manifest(self.write(tmp_path, payload))
        assert str(caught.value) == f"records[0]: field '{field}': {fault}"

    def test_non_string_wireframe_rejected(self, cam, tmp_path):
        payload = self.base_payload(cam)
        payload["wireframe"] = 5
        with pytest.raises(ManifestError, match="wireframe"):
            load_manifest(self.write(tmp_path, payload))


# a manifest that sets every field, for the mutations below; each optional
# field is set on some records and null or missing on others
FULL_PAYLOAD = {
    "camera": {"fx": 3000.0, "fy": 3000.0, "cx": 960.0, "cy": 600.0,
               "width": 1920, "height": 1200},
    "wireframe": "wireframe.json",
    "attitude_convention": "camera_to_body",
    "records": [
        {"id": "a", "q": [0.8, 0.6, 0.0, 0.0], "t": [0.5, 0.0, 40.0],
         "bbox": [100.0, 90.0, 400.0, 390.0], "landmarks": [[120.0, 100.0], [300.0, 250.0]],
         "pred_bbox": [101.0, 91.0, 401.0, 391.0], "pred_landmarks": [[0.1, 0.2], None]},
        {"id": "b", "q": [2.0, 0.0, -0.0, 1e-3], "t": [-0.0, 1, 55.25],
         "bbox": None, "landmarks": [[5, 6.5]], "pred_landmarks": [None, [1, 0.75], [0.5, 0]]},
        {"id": "c", "q": [0.5, -0.5, 0.5, -0.5], "t": [2.0, -1.5, 36.0],
         "bbox": [0, 0, 1920, 1200], "landmarks": [], "pred_bbox": None, "pred_landmarks": None},
    ],
}


# a record whose numbers are all JSON integers
INTEGER_RECORD = {
    "id": "i", "q": [1, 0, 0, 0], "t": [0, 0, 40], "bbox": [1, 2, 3, 4], "landmarks": [[1, 2]],
    "pred_bbox": [0, 0, 5, 5], "pred_landmarks": [[0, 1], None],
}


# finite numbers keep most numeric fields valid, so loads get past the first record
json_numbers = st.integers(-(10**6), 10**6) | st.floats(allow_nan=False, allow_infinity=False)


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root's ``()`` first."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))
        else:
            yield prefix + (key,)


@st.composite
def mutated_payloads(draw):
    """FULL_PAYLOAD with one to three values deleted, replaced, or replaced by a number."""
    payload = copy.deepcopy(FULL_PAYLOAD)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if not path:
            return draw(json_values)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        change = draw(st.sampled_from(["delete", "value", "number", "number", "number"]))
        if change == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values if change == "value" else json_numbers)
    return payload


class TestMutatedManifests:
    @settings(
        max_examples=200, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=mutated_payloads())
    @example(payload=FULL_PAYLOAD)  # camera_to_body, with one off-unit quaternion
    @example(payload={**FULL_PAYLOAD, "attitude_convention": "body_to_camera"})
    @example(payload={**FULL_PAYLOAD, "records": []})
    @example(payload={**FULL_PAYLOAD, "records": [INTEGER_RECORD]})
    def test_load_raises_only_manifest_errors(self, tmp_path, payload):
        # and a manifest that loads saves and reloads bit for bit
        path, saved = tmp_path / "m.json", tmp_path / "saved.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ManifestWarning)
            try:
                loaded = load_manifest(path)
            except ManifestError:
                return
        for record in loaded.records:  # integers in the file load as floats
            arrays = [record.pose_gt.position, record.pose_gt.attitude, record.landmarks_gt]
            arrays += record.landmarks_pred or []
            assert all(a.dtype == np.float64 for a in arrays if a is not None)
        save_manifest(loaded, saved)
        assert_same_manifest(load_manifest(saved), loaded)


class TestQuaternionPolicy:
    def test_non_unit_quaternion_normalized_with_warning(self, cam, tmp_path):
        payload = TestSchemaErrors().base_payload(cam)
        payload["records"][0]["q"] = [2.0, 0.0, 0.0, 0.0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(ManifestWarning):
            manifest = load_manifest(path)
        np.testing.assert_array_equal(manifest.records[0].pose_gt.attitude, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [1, 3])
    def test_warning_points_at_the_caller(self, cam, tmp_path, n):
        payload = TestSchemaErrors().base_payload(cam)
        record = dict(payload["records"][0], q=[2.0, 0.0, 0.0, 0.0])
        payload["records"] = [dict(record, id=str(i)) for i in range(n)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(ManifestWarning) as caught:
            load_manifest(path)
        assert [w.filename for w in caught] == [__file__] * n

    def test_tiny_deviation_passes_silently(self, cam, tmp_path, recwarn):
        payload = TestSchemaErrors().base_payload(cam)
        payload["records"][0]["q"] = [1.0 + 1e-9, 0.0, 0.0, 0.0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        load_manifest(path)
        assert not [w for w in recwarn.list if issubclass(w.category, ManifestWarning)]

    def test_camera_to_body_convention_conjugates(self, cam, tmp_path):
        payload = TestSchemaErrors().base_payload(cam)
        payload["attitude_convention"] = "camera_to_body"
        payload["records"][0]["q"] = [0.8, 0.6, 0.0, 0.0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        manifest = load_manifest(path)
        np.testing.assert_allclose(
            manifest.records[0].pose_gt.attitude, [0.8, -0.6, 0.0, 0.0], atol=1e-15
        )


class TestSplit:
    def test_benchmark_partition_sizes(self, cam):
        # the published partition sizes both datasets report
        for total, train in ((12_000, 9_728), (15_000, 12_032)):
            manifest = make_manifest(cam, n=0)
            manifest.records = [
                SampleRecord(id=f"r{i}", pose_gt=Pose([0, 0, 40], [1, 0, 0, 0]))
                for i in range(total)
            ]
            tr, te = split_dataset(manifest, train / total, seed=1)
            assert len(tr.records) == train
            assert len(te.records) == total - train

    def test_same_seed_same_partition(self, cam):
        manifest = make_manifest(cam, n=200)
        a_train, a_test = split_dataset(manifest, 0.8, seed=9)
        b_train, b_test = split_dataset(manifest, 0.8, seed=9)
        assert [r.id for r in a_train.records] == [r.id for r in b_train.records]
        assert [r.id for r in a_test.records] == [r.id for r in b_test.records]

    def test_partition_is_disjoint_and_complete(self, cam):
        manifest = make_manifest(cam, n=157)
        train, test = split_dataset(manifest, 0.75, seed=3)
        train_ids = {r.id for r in train.records}
        test_ids = {r.id for r in test.records}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {r.id for r in manifest.records}
        assert len(train.records) == int(np.floor(157 * 0.75))

    def test_fraction_bounds(self, cam):
        manifest = make_manifest(cam, n=10)
        with pytest.raises(ValueError):
            split_dataset(manifest, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(manifest, 0.0, seed=0)
