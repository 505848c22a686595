"""Quaternion algebra, projection, and landmark-normalization tests."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpose import (
    BBox,
    BehindCameraError,
    CameraIntrinsics,
    OutOfFrameError,
    Pose,
    WireframeModel,
    denormalize_landmarks,
    example_wireframe,
    load_wireframe,
    normalize_landmarks,
    project,
    quat_multiply,
    save_wireframe,
)
from satpose.errors import DegenerateGeometryError
from satpose.geometry import (
    _norm,
    _quat,
    _vec3,
    clamp_box,
    quat_conjugate,
    quat_from_matrix,
    quat_normalize,
)
from satpose.pipeline import NoiseModel
from satpose.pnp import RansacConfig
from satpose.rng import derive_seed, stream
from satpose.sampler import PoseSamplerConfig, sample_attitude
from tests.conftest import quat_from_axis_angle

Z_AXIS = np.array([0.0, 0.0, 1.0])

# pixel-scale coordinates, zero or at least 1e-6 in size, so no quotient underflows
coords = st.floats(-1e4, 1e4).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
sides = st.floats(1e-3, 1e4)
rois = st.builds(lambda x, y, w, h: BBox(x, y, x + w, y + h), coords, coords, sides, sides)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=11)
def rotation(q) -> Pose:
    """A pose that only rotates: its transform is the rotation by ``q``."""
    return Pose(position=[0.0, 0.0, 0.0], attitude=q)


axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)


class TestQuaternions:
    def test_axis_angle_identity(self):
        np.testing.assert_allclose(
            quat_from_axis_angle(Z_AXIS, 0.0), [1.0, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_axis_angle_half_turn(self):
        np.testing.assert_allclose(
            quat_from_axis_angle(Z_AXIS, np.pi), [0.0, 0.0, 0.0, 1.0], atol=1e-15
        )

    def test_axis_angle_third_turn_has_half_angle_components(self):
        q = quat_from_axis_angle(Z_AXIS, np.pi / 3)
        np.testing.assert_allclose(
            q, [np.cos(np.pi / 6), 0.0, 0.0, np.sin(np.pi / 6)], atol=1e-15
        )
        assert abs(q[0] - 0.8660254) < 1e-6 and abs(q[3] - 0.5) < 1e-12

    def test_axis_angle_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            quat_from_axis_angle([0.0, 0.0, 2.0], 0.5)

    def test_rotate_identity(self):
        np.testing.assert_allclose(
            rotation([1, 0, 0, 0]).transform([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
        )

    def test_rotate_quarter_turn_about_z(self):
        q = quat_from_axis_angle(Z_AXIS, np.pi / 2)
        np.testing.assert_allclose(
            rotation(q).transform([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15
        )

    def test_rotate_inverse_round_trip(self):
        rng = stream(3, "quat")
        for _ in range(100):
            q = sample_attitude(rng)
            v = rng.normal(size=3)
            back = rotation(quat_conjugate(q)).transform(rotation(q).transform(v))
            np.testing.assert_allclose(back, v, atol=1e-12)

    def test_rotation_preserves_norm(self):
        rng = stream(4, "quat")
        for _ in range(1000):
            q = sample_attitude(rng)
            v = rng.normal(size=3) * rng.uniform(0.1, 100.0)
            assert abs(np.linalg.norm(rotation(q).transform(v)) / np.linalg.norm(v) - 1.0) < 1e-9

    def test_products_stay_unit_norm(self):
        rng = stream(5, "quat")
        for _ in range(1000):
            q = quat_multiply(sample_attitude(rng), sample_attitude(rng))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9

    def test_matrix_round_trip(self):
        rng = stream(6, "quat")
        for _ in range(200):
            q = sample_attitude(rng)
            q2 = quat_from_matrix(Pose(np.zeros(3), q).rotation_matrix())
            # double cover: compare up to sign
            assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(axis=axes, angle=st.floats(0.0, np.pi - 1e-12) | st.floats(np.pi - 1e-6, np.pi - 1e-12))
    def test_matrix_round_trip_up_to_half_turn(self, axis, angle):
        # Shepperd's branches must hold up to within 1e-12 of a half turn, where w -> 0
        q = quat_from_axis_angle(np.array(axis) / np.linalg.norm(axis), angle)
        q2 = quat_from_matrix(Pose(np.zeros(3), q).rotation_matrix())
        assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-14

    def test_matrix_to_quaternion_has_the_numpy_scalar_bits(self):
        def reference(m):  # Shepperd's branches on numpy scalars, case picked by np.argmax
            t = np.trace(m)
            case = int(np.argmax([t, m[0, 0], m[1, 1], m[2, 2]]))
            if case == 0:
                r = np.sqrt(1.0 + t)
                s = 0.5 / r
                q = np.array(
                    [
                        0.5 * r,
                        (m[2, 1] - m[1, 2]) * s,
                        (m[0, 2] - m[2, 0]) * s,
                        (m[1, 0] - m[0, 1]) * s,
                    ]
                )
            else:
                i = case - 1
                j, k = (i + 1) % 3, (i + 2) % 3
                r = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
                s = 0.5 / r
                q = np.empty(4)
                q[0] = (m[k, j] - m[j, k]) * s
                q[1 + i] = 0.5 * r
                q[1 + j] = (m[j, i] + m[i, j]) * s
                q[1 + k] = (m[k, i] + m[i, k]) * s
            return quat_normalize(-q if q[0] < 0 else q)

        rng = stream(7, "quat")
        for n in range(5000):
            q = rng.normal(size=4)
            if n % 3 == 0:  # near a half turn, or near the identity
                q[rng.integers(0, 4)] = 1e-9 * rng.normal()
            m = Pose(np.zeros(3), q).rotation_matrix()
            if n % 2 == 0:  # not quite a rotation, as a solver's output can be
                m = m + 1e-9 * rng.normal(size=(3, 3))
            assert quat_from_matrix(m).tobytes() == reference(m).tobytes()

    @pytest.mark.parametrize(
        "row, col, value", [(0, 0, np.nan), (1, 1, np.inf), (0, 1, np.nan), (2, 2, -np.inf)]
    )
    def test_matrix_to_quaternion_rejects_non_finite_input(self, row, col, value):
        m = np.eye(3)
        m[row, col] = value
        with pytest.raises(ValueError):
            quat_from_matrix(m)


class TestProjection:
    def test_optical_axis_hits_principal_point(self, cam):
        pose = Pose(position=[0.0, 0.0, 36.0], attitude=[1, 0, 0, 0])
        uv = project(pose, cam, [[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(uv[0], [cam.cx, cam.cy])

    def test_hand_computed_offset_point(self):
        cam = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=600.0, width=1920, height=1200)
        pose = Pose(position=[1.0, 0.0, 36.0], attitude=[1, 0, 0, 0])
        uv = project(pose, cam, [[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(uv[0], [960.0 + 1000.0 / 36.0, 600.0], rtol=1e-12)

    def test_behind_camera_raises_with_index(self, cam):
        pose = Pose(position=[0.0, 0.0, 1.0], attitude=[1, 0, 0, 0])
        points = [[0.0, 0.0, 0.0], [0.0, 0.0, -2.0]]
        with pytest.raises(BehindCameraError) as err:
            project(pose, cam, points)
        assert err.value.index == 1

    def test_identity_attitude_matches_pinhole_formula(self, cam):
        rng = stream(8, "proj")
        for _ in range(100):
            t = np.array([rng.normal(0, 3), rng.normal(0, 3), rng.uniform(10, 80)])
            pose = Pose(position=t, attitude=[1, 0, 0, 0])
            uv = project(pose, cam, [[0.0, 0.0, 0.0]])[0]
            expected = [cam.fx * t[0] / t[2] + cam.cx, cam.fy * t[1] / t[2] + cam.cy]
            np.testing.assert_allclose(uv, expected, rtol=1e-15)

    def test_single_point_shape(self, cam):
        pose = Pose(position=[0.0, 0.0, 40.0], attitude=[1, 0, 0, 0])
        assert project(pose, cam, [0.0, 0.0, 0.0]).shape == (2,)

    def test_every_solver_layer_shares_one_pinhole(self, cam):
        from satpose.pnp.p3p import point_errors
        from satpose.pnp.triangulate import _residuals

        rng = stream(9, "pinhole")
        cam_pts = np.column_stack([rng.normal(0, 3, (20, 2)), rng.uniform(0.5, 80, 20)])
        eye, origin = np.eye(3), np.zeros(3)
        identity = Pose(position=origin, attitude=[1, 0, 0, 0])
        # camera-frame points as body points of the identity pose and as view
        # positions of the body origin, so every layer projects the same points
        views = (np.tile(eye, (20, 1, 1)), cam_pts, np.zeros((20, 2)))

        uv = project(identity, cam, cam_pts)
        residuals, _ = _residuals(origin, *views, cam)
        np.testing.assert_array_equal(residuals, uv.ravel())
        errors = point_errors(eye, origin, cam_pts, np.zeros((20, 2)), cam)
        np.testing.assert_array_equal(errors, np.hypot(uv[:, 0], uv[:, 1]))

        cam_pts[7, 2] = 5e-7  # in front of the camera, but inside the depth cut
        with pytest.raises(BehindCameraError) as projected:
            project(identity, cam, cam_pts)
        assert (projected.value.index, projected.value.z) == (7, 5e-7)
        # a trial with a point inside the cut is one that least_squares rejects as not finite
        residuals, _ = _residuals(origin, *views, cam)
        assert np.isnan(residuals).all()
        errors = point_errors(eye, origin, cam_pts, np.zeros((20, 2)), cam)
        assert errors[7] == np.inf and np.isfinite(np.delete(errors, 7)).all()

    def test_nan_depth_is_not_in_front(self, cam):
        pose = Pose(position=[0.0, 0.0, 30.0], attitude=[1, 0, 0, 0])
        points = [[0.0, 0.0, 0.0], [0.0, 0.0, np.nan], [1.0, 0.0, 0.0]]
        with pytest.raises(BehindCameraError) as err:
            project(pose, cam, points)
        assert err.value.index == 1 and np.isnan(err.value.z)


class TestClampBox:
    def test_extents_inside_the_image_are_kept(self, cam):
        box = clamp_box(10.0, 10.0, 50.0, 90.0, cam)
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (10.0, 10.0, 50.0, 90.0)

    def test_clamps_to_image(self, cam):
        box = clamp_box(-20.0, 10.0, 50.0, 90.0, cam)
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (0.0, 10.0, 50.0, 90.0)
        box = clamp_box(1000.0, 900.0, cam.width + 40.0, cam.height + 5.0, cam)
        assert (box.xmax, box.ymax) == (float(cam.width), float(cam.height))

    def test_zero_area_box(self, cam):
        box = clamp_box(5.0, 5.0, 5.0, 5.0, cam)
        assert box.area == 0.0 and box.xmin == box.xmax == 5.0

    def test_fully_outside_raises(self, cam):
        with pytest.raises(OutOfFrameError):
            clamp_box(-50.0, 10.0, -10.0, 90.0, cam)


class TestLandmarkNormalization:
    ROI = BBox(100.0, 200.0, 300.0, 400.0)

    def test_corner_and_center(self):
        out = normalize_landmarks([[100.0, 200.0], [200.0, 300.0]], self.ROI)
        np.testing.assert_allclose(out, [[0.0, 0.0], [0.5, 0.5]])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(roi=rois, pts=point_lists)
    def test_round_trip_within_four_roundings(self, roi, pts):
        # normalising rounds p - o and then / s, denormalising * s and then + o,
        # each by at most u = 2**-53 relative: |p' - p| <= 3.0...u |p - o| + u |p|
        u = 2.0**-53
        pts = np.array(pts)
        origin = np.array([roi.xmin, roi.ymin])
        back = denormalize_landmarks(normalize_landmarks(pts, roi), roi)
        assert np.all(np.abs(back - pts) <= 4 * u * np.abs(pts - origin) + u * np.abs(pts))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(roi=rois, pts=point_lists)
    def test_one_array_call_has_the_per_point_bits(self, roi, pts):
        # the pipeline maps a record's points in one call each way
        pts = np.array(pts)
        for convert in (normalize_landmarks, denormalize_landmarks):
            one_by_one = np.array([convert(p, roi)[0] for p in pts])
            np.testing.assert_array_equal(convert(pts, roi), one_by_one)

    def test_order_preserved(self):
        pts = [[110.0, 210.0], [100.0, 200.0]]
        out = normalize_landmarks(pts, self.ROI)
        assert out[0][0] > out[1][0]

    def test_zero_area_roi_rejected(self):
        with pytest.raises(ValueError):
            normalize_landmarks([[1.0, 1.0]], BBox(5.0, 5.0, 5.0, 7.0))


class TestTypes:
    def test_camera_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=1.0, cx=10.0, cy=10.0, width=100, height=100)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=200.0, cy=10.0, width=100, height=100)

    def test_pose_normalizes_attitude(self):
        pose = Pose(position=[0, 0, 10], attitude=[2.0, 0.0, 0.0, 0.0])
        assert abs(np.linalg.norm(pose.attitude) - 1.0) < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "attitude, unit",
        [
            ([1e200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
            ([1e200, 1e200, 0.0, 0.0], [0.5**0.5, 0.5**0.5, 0.0, 0.0]),
            ([0.0, -1e300, 0.0, 1e300], [0.0, -(0.5**0.5), 0.0, 0.5**0.5]),
            ([1.7e308] * 4, [0.5] * 4),
        ],
    )
    def test_attitudes_whose_square_overflows_normalize(self, attitude, unit):
        pose = Pose(position=[0, 0, 40], attitude=attitude)
        for q in (pose.attitude, quat_normalize(attitude)):
            np.testing.assert_allclose(q, unit, rtol=0, atol=1e-15)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    def test_pose_is_immutable(self):
        pose = Pose(position=[0, 0, 10], attitude=[1, 0, 0, 0])
        with pytest.raises((ValueError, AttributeError)):
            pose.position[0] = 5.0

    def test_wireframe_needs_four_points(self):
        with pytest.raises(ValueError):
            WireframeModel(name="tiny", keypoints=[[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_wireframe_rejects_collinear(self):
        pts = [[float(i), 0.0, 0.0] for i in range(5)]
        with pytest.raises(DegenerateGeometryError):
            WireframeModel(name="line", keypoints=pts)

    def test_wireframe_file_round_trip(self, tmp_path):
        model = example_wireframe()
        path = tmp_path / "wf.json"
        save_wireframe(model, path)
        loaded = load_wireframe(path)
        assert loaded.name == model.name
        np.testing.assert_array_equal(loaded.keypoints, model.keypoints)
        # order is significant and must survive the file format
        raw = json.loads(path.read_text())
        np.testing.assert_array_equal(np.array(raw["keypoints"]), model.keypoints)


def reference_normalize(q) -> np.ndarray:
    """``quat_normalize`` restated on ``np.linalg.norm``."""
    out = _quat(q)
    norm = np.linalg.norm(out)
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero quaternion")
    return out if abs(norm - 1.0) <= 1e-12 else out / norm


def reference_pose_fields(position, attitude):
    """A Pose's fields as ``_vec3`` and ``quat_normalize`` give them, checked in that order."""
    return _vec3(position, "position"), reference_normalize(attitude)


def fault(call):
    """The type and text of the error ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestPose:
    def test_fields_equal_the_reference_to_the_bit(self):
        rng = stream(31, "pose-fields")
        for i in range(600):
            position = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=3)
            unit = sample_attitude(rng)
            attitude = [
                unit,
                unit * (1.0 + rng.uniform(-1e-12, 1e-12)),  # unit to 1e-12 passes through
                unit * (1.0 + rng.uniform(-1e-6, 1e-6)),
                unit * rng.uniform(1e-6, 1e6),
                rng.normal(size=4),
            ][i % 5]
            if i % 2:  # lists, and a position as a (1, 3) nested list
                position, attitude = [position.tolist()], attitude.tolist()
            pose = Pose(position=position, attitude=attitude)
            pos, att = reference_pose_fields(position, attitude)
            assert pose.position.shape == (3,) and pose.attitude.shape == (4,)
            assert pose.position.tobytes() == pos.tobytes()
            assert pose.attitude.tobytes() == att.tobytes()
            assert quat_normalize(attitude).tobytes() == att.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 2.0], ids=["unit", "rescaled"])
    def test_fields_are_read_only_copies(self, scale):
        position = np.array([1.0, 2.0, 40.0])
        attitude = scale * np.array([0.5, 0.5, 0.5, 0.5])
        pose = Pose(position=position, attitude=attitude)
        for field, given in ((pose.position, position), (pose.attitude, attitude)):
            assert not field.flags.writeable
            assert not np.shares_memory(field, given)
        position[0] = attitude[0] = 7.0
        assert pose.position[0] == 1.0 and pose.attitude[0] == 0.5

    @pytest.mark.parametrize(
        "position, attitude",
        [
            ([0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
            ([[0.0, 0.0, 1.0, 2.0]], [1.0, 0.0, 0.0, 0.0]),
            ([np.nan, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]),
            ([np.inf, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]),
            ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
            ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0, 0.0]),
            ([0.0, 0.0, 1.0], [1.0, np.nan, 0.0, 0.0]),
            ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -np.inf]),
            ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]),
            ([0.0, 0.0, 1.0], [1e-13, 0.0, 0.0, 0.0]),
            ([0.0, 0.0, 1.0], "abcd"),
            ([0.0, 0.0, 1.0], None),
            ([0.0, 0.0, 1.0], [10**400, 0, 0, 0]),
            ([0.0, 0.0, 1.0], [1.0, [0.0], 0.0, 0.0]),
            ("xyz", [1.0, 0.0, 0.0, 0.0]),
            # the first fault in order: position shape, position finite, attitude shape, ...
            ([0.0, 0.0], [np.nan, 0.0, 0.0]),
            ([np.nan, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0, 0.0]),
            ([np.nan, 0.0, 1.0], "abcd"),
            ([np.nan, 0.0, 1.0], {"w": 1.0}),
            ([np.nan, 0.0, 1.0], [np.nan, 0.0, 0.0, 0.0]),
            ([np.inf, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]),
        ],
    )
    def test_invalid_fields_raise_the_reference_error(self, position, attitude):
        got = fault(lambda: Pose(position=position, attitude=attitude))
        assert got == fault(lambda: reference_pose_fields(position, attitude))

    def test_position_fault_is_reported_before_attitude_shape(self):
        with pytest.raises(ValueError, match="^position must be finite"):
            Pose(position=[np.nan, 0.0, 1.0], attitude=[1.0, 0.0, 0.0, 0.0, 0.0])


# a boolean is refused where a whole number is asked for, Python's or numpy's
BOOLEAN_SETTINGS = {
    "stream": lambda flag: stream(flag, "x"),
    "derive_seed": lambda flag: derive_seed(flag, "x"),
    "RansacConfig.seed": lambda flag: RansacConfig(seed=flag),
    "NoiseModel.seed": lambda flag: NoiseModel(seed=flag),
    "PoseSamplerConfig.max_rejects": lambda flag: PoseSamplerConfig(max_rejects=flag),
    "CameraIntrinsics.width": lambda flag: CameraIntrinsics(
        fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=flag, height=1
    ),
}


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("build", BOOLEAN_SETTINGS.values(), ids=BOOLEAN_SETTINGS.keys())
def test_booleans_are_not_whole_numbers(build, flag):
    with pytest.raises(ValueError, match=r"must be a whole number in \[\d+, [^\]]+\], got "):
        build(flag)


def test_norm_is_linalg_norm_to_the_bit_without_an_overflow_warning():
    rng = stream(57, "norm")
    for size in range(1, 12):
        for _ in range(200):
            v = rng.normal(size=size) * 10.0 ** rng.uniform(-100.0, 100.0)
            assert _norm(v).tobytes() == np.linalg.norm(v).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _norm(np.full(6, 1e200)) == np.inf
