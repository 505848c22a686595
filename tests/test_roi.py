"""ROI construction rules and box-overlap metric tests."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satpose import DEFAULT_CAMERA, BBox, CameraIntrinsics, RoiConfig, contains, iou, make_roi
from satpose.rng import stream

CFG = RoiConfig()
CAM = DEFAULT_CAMERA  # 1920 x 1200


def random_box(rng, max_side=400.0) -> BBox:
    x = rng.uniform(0, 1500)
    y = rng.uniform(0, 900)
    w = rng.uniform(5, max_side)
    h = rng.uniform(5, max_side)
    return BBox(x, y, min(x + w, 1920.0), min(y + h, 1200.0))


class TestMakeRoi:
    def test_hand_derived_square(self):
        # max(w, h) = 100 -> side 115 centered at (150, 125)
        roi = make_roi(BBox(100, 100, 200, 150), CFG, CAM)
        assert (roi.xmin, roi.ymin, roi.xmax, roi.ymax) == (92.5, 67.5, 207.5, 182.5)

    def test_min_side_expansion_translates_to_border(self):
        cfg = RoiConfig(min_side=224.0)
        roi = make_roi(BBox(0, 0, 10, 10), cfg, CAM)
        assert (roi.xmin, roi.ymin, roi.xmax, roi.ymax) == (0.0, 0.0, 224.0, 224.0)

    def test_unit_factor_square_input_is_identity(self):
        cfg = RoiConfig(enlargement_factor=1.0)
        box = BBox(500, 400, 700, 600)
        roi = make_roi(box, cfg, CAM)
        assert (roi.xmin, roi.ymin, roi.xmax, roi.ymax) == (500.0, 400.0, 700.0, 600.0)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            make_roi(BBox(10, 10, 10, 10), CFG, CAM)

    def test_no_image_overlap_rejected(self):
        with pytest.raises(ValueError):
            make_roi(BBox(2000, 100, 2100, 200), CFG, CAM)

    def test_side_clamped_to_smaller_image_dimension(self):
        roi = make_roi(BBox(0, 0, 1900, 1100), CFG, CAM)
        assert roi.width == roi.height == 1200.0

    def test_output_always_square(self):
        rng = stream(21, "roi")
        for _ in range(500):
            roi = make_roi(random_box(rng), CFG, CAM)
            assert abs(roi.width - roi.height) < 1e-9
            assert roi.xmin >= 0 and roi.ymin >= 0
            assert roi.xmax <= 1920.0 and roi.ymax <= 1200.0

    def test_contains_ground_truth_by_construction(self):
        rng = stream(22, "roi")
        for _ in range(500):
            gt = random_box(rng)
            assert contains(make_roi(gt, CFG, CAM), gt)

    def test_growing_factor_keeps_containment(self):
        # away from borders, a larger factor can only keep the truth inside
        rng = stream(23, "roi")
        for _ in range(200):
            x = rng.uniform(600, 1000)
            y = rng.uniform(400, 600)
            gt = BBox(x, y, x + rng.uniform(10, 120), y + rng.uniform(10, 120))
            was_contained = False
            for factor in (1.0, 1.15, 1.5, 2.0):
                cfg = RoiConfig(enlargement_factor=factor)
                now = contains(make_roi(gt, cfg, CAM), gt)
                assert not (was_contained and not now)
                was_contained = now

    def test_image_comes_from_the_camera(self):
        # the same box and rules fit a 640 x 480 image, not the 1920 x 1200 one
        small = CameraIntrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0, width=640, height=480)
        box = BBox(600, 400, 700, 500)
        roi = make_roi(box, CFG, small)
        assert (roi.xmax, roi.ymax) == (640.0, 480.0)
        assert roi.width == 115.0
        assert make_roi(box, CFG, CAM) == BBox(592.5, 392.5, 707.5, 507.5)
        with pytest.raises(ValueError, match="does not intersect"):
            make_roi(BBox(700, 100, 800, 200), CFG, small)


def _camera(width: int, height: int) -> CameraIntrinsics:
    return CameraIntrinsics(
        fx=1000.0, fy=1000.0, cx=width / 2.0, cy=height / 2.0, width=width, height=height
    )


# modest, seeded example counts keep Tier-1 fast and repeatable
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
cameras = st.builds(_camera, st.integers(2, 4096), st.integers(2, 4096))
roi_configs = st.builds(
    RoiConfig,
    enlargement_factor=st.floats(1.0, 4.0),
    min_side=st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),
)


@st.composite
def box_in_image(draw, cam: CameraIntrinsics, overhang: float = 0.0) -> BBox:
    """A positive-area box meeting the image, reaching ``overhang`` px past it."""
    x0 = draw(st.floats(-overhang, cam.width - 1e-3))
    y0 = draw(st.floats(-overhang, cam.height - 1e-3))
    x1 = draw(st.floats(max(x0, 0.0) + 1e-3, cam.width + overhang))
    y1 = draw(st.floats(max(y0, 0.0) + 1e-3, cam.height + overhang))
    return BBox(x0, y0, x1, y1)


class TestMakeRoiProperties:
    @PROPERTY
    @given(st.data(), cameras, roi_configs)
    def test_roi_stays_inside_the_image(self, data, cam, cfg):
        box = data.draw(box_in_image(cam, overhang=3000.0))
        roi = make_roi(box, cfg, cam)
        assert roi.width > 0 and abs(roi.width - roi.height) < 1e-9
        assert 0.0 <= roi.xmin and roi.xmax <= cam.width
        assert 0.0 <= roi.ymin and roi.ymax <= cam.height

    @PROPERTY
    @given(st.data(), cameras, roi_configs)
    def test_roi_contains_a_box_that_fits(self, data, cam, cfg):
        box = data.draw(box_in_image(cam))
        assume(cfg.enlargement_factor * max(box.width, box.height) <= min(cam.width, cam.height))
        # exactly, also for a crop exactly as wide as the box (factor 1)
        assert contains(make_roi(box, cfg, cam), box)

    def test_exact_fit_contains_its_box(self):
        # centring on the box centre put ymin at 1.0010000000000003 here
        box = BBox(0.0, 1.001, 1.0, 15.0)
        roi = make_roi(box, RoiConfig(enlargement_factor=1.0), _camera(14, 16))
        assert contains(roi, box)
        assert roi.width == roi.height


class TestIoU:
    def test_identical_boxes(self):
        box = BBox(10, 20, 110, 140)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0

    def test_hand_computed_quarter_overlap(self):
        value = iou(BBox(0, 0, 10, 10), BBox(5, 5, 15, 15))
        assert abs(value - 25.0 / 175.0) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = stream(24, "iou")
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)

    def test_both_degenerate_defined_as_zero(self):
        point = BBox(5, 5, 5, 5)
        assert iou(point, point) == 0.0


class TestContains:
    def test_nested(self):
        assert contains(BBox(0, 0, 100, 100), BBox(10, 10, 20, 20))

    def test_self_containment_closed_boundary(self):
        box = BBox(3, 4, 50, 60)
        assert contains(box, box)

    def test_overhanging_corner(self):
        assert not contains(BBox(0, 0, 100, 100), BBox(90, 90, 110, 110))

