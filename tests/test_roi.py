"""ROI construction rules and box-overlap metric tests."""

import pytest

from satpose import BBox, RoiConfig, contains, iou, make_roi
from satpose.rng import stream

CFG = RoiConfig(image_width=1920.0, image_height=1200.0)


def random_box(rng, max_side=400.0) -> BBox:
    x = rng.uniform(0, 1500)
    y = rng.uniform(0, 900)
    w = rng.uniform(5, max_side)
    h = rng.uniform(5, max_side)
    return BBox(x, y, min(x + w, 1920.0), min(y + h, 1200.0))


class TestMakeRoi:
    def test_hand_derived_square(self):
        # max(w, h) = 100 -> side 115 centered at (150, 125)
        roi = make_roi(BBox(100, 100, 200, 150), CFG)
        assert (roi.xmin, roi.ymin, roi.xmax, roi.ymax) == (92.5, 67.5, 207.5, 182.5)

    def test_min_side_expansion_translates_to_border(self):
        cfg = RoiConfig(image_width=1920.0, image_height=1200.0, min_side=224.0)
        roi = make_roi(BBox(0, 0, 10, 10), cfg)
        assert (roi.xmin, roi.ymin, roi.xmax, roi.ymax) == (0.0, 0.0, 224.0, 224.0)

    def test_unit_factor_square_input_is_identity(self):
        cfg = RoiConfig(image_width=1920.0, image_height=1200.0, enlargement_factor=1.0)
        box = BBox(500, 400, 700, 600)
        roi = make_roi(box, cfg)
        assert (roi.xmin, roi.ymin, roi.xmax, roi.ymax) == (500.0, 400.0, 700.0, 600.0)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            make_roi(BBox(10, 10, 10, 10), CFG)

    def test_no_image_overlap_rejected(self):
        with pytest.raises(ValueError):
            make_roi(BBox(2000, 100, 2100, 200), CFG)

    def test_side_clamped_to_smaller_image_dimension(self):
        roi = make_roi(BBox(0, 0, 1900, 1100), CFG)
        assert roi.width == roi.height == 1200.0

    def test_output_always_square(self):
        rng = stream(21, "roi")
        for _ in range(500):
            roi = make_roi(random_box(rng), CFG)
            assert abs(roi.width - roi.height) < 1e-9
            assert roi.xmin >= 0 and roi.ymin >= 0
            assert roi.xmax <= 1920.0 and roi.ymax <= 1200.0

    def test_contains_ground_truth_by_construction(self):
        rng = stream(22, "roi")
        for _ in range(500):
            gt = random_box(rng)
            assert contains(make_roi(gt, CFG), gt)

    def test_growing_factor_keeps_containment(self):
        # away from borders, a larger factor can only keep the truth inside
        rng = stream(23, "roi")
        for _ in range(200):
            x = rng.uniform(600, 1000)
            y = rng.uniform(400, 600)
            gt = BBox(x, y, x + rng.uniform(10, 120), y + rng.uniform(10, 120))
            was_contained = False
            for factor in (1.0, 1.15, 1.5, 2.0):
                cfg = RoiConfig(1920.0, 1200.0, enlargement_factor=factor)
                now = contains(make_roi(gt, cfg), gt)
                assert not (was_contained and not now)
                was_contained = now


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

