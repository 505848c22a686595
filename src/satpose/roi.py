"""Detection-stage bounding-box geometry and overlap metrics.

Boxes live in continuous pixel coordinates (no integer snapping). The ROI
returned by :func:`make_roi` is the square crop handed to the landmark
regression stage: the detected box is squared to avoid distortion, enlarged,
expanded to a minimum side when needed, and shifted (never shrunk) back into
the image when it overhangs a border. The image size is the camera's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # geometry imports this module
    from .geometry import CameraIntrinsics


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box; corners in pixels, xmin <= xmax and ymin <= ymax."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        for name in ("xmin", "ymin", "xmax", "ymax"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"BBox.{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"invalid box extents ({self.xmin}, {self.ymin})-"
                f"({self.xmax}, {self.ymax})"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        """Serialize as [xmin, ymin, xmax, ymax] (the manifest wire order)."""
        return [self.xmin, self.ymin, self.xmax, self.ymax]


@dataclass(frozen=True)
class RoiConfig:
    """Rules for turning a detection into the regression-stage crop.

    ``min_side`` is the input side of the regression stage: a smaller ROI is
    expanded up to it rather than upsampled. ``min_side=0`` disables the
    expansion.
    """

    enlargement_factor: float = 1.15
    min_side: float = 0.0

    def __post_init__(self):
        # each guard states what is valid, so a NaN setting fails it
        if not self.enlargement_factor >= 1.0:
            raise ValueError("enlargement_factor must be >= 1")
        if not self.min_side >= 0:
            raise ValueError("min_side must be >= 0")


def make_roi(detected: BBox, cfg: RoiConfig, cam: CameraIntrinsics) -> BBox:
    """Square, enlarge, and fit the detected box into ``cam``'s image.

    The output square has side ``max(factor * max(w, h), min_side)``, centered
    on the detection, translated to lie inside the image; the side is clamped
    to the smaller image dimension when it cannot fit otherwise.
    """
    if detected.area <= 0:
        raise ValueError("detected box has zero area")
    if (
        detected.xmax < 0
        or detected.ymax < 0
        or detected.xmin > cam.width
        or detected.ymin > cam.height
    ):
        raise ValueError("detected box does not intersect the image")

    side = max(cfg.enlargement_factor * max(detected.width, detected.height), cfg.min_side)
    side = min(side, min(cam.width, cam.height))

    xmin, xmax = _centred_span(detected.xmin, detected.xmax, side, cam.width)
    ymin, ymax = _centred_span(detected.ymin, detected.ymax, side, cam.height)
    return BBox(xmin, ymin, xmax, ymax)


def _centred_span(lo: float, hi: float, side: float, limit: float) -> tuple[float, float]:
    """Edges of a ``side``-wide span centred on [lo, hi], shifted into [0, limit].

    Each edge moves out from its own box edge by the same margin, so a span
    at least as wide as the box contains it despite rounding; centring on
    the box centre instead can miss an edge of an exact fit by an ulp.
    """
    margin = (side - (hi - lo)) / 2.0  # negative when the box is wider
    start, end = lo - margin, hi + margin
    if start < 0.0:
        start, end = 0.0, end - start
    elif end > limit:
        start, end = start - (end - limit), limit
    return max(start, 0.0), min(end, limit)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when disjoint or both boxes are degenerate."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def contains(outer: BBox, inner: BBox) -> bool:
    """True iff every corner of ``inner`` lies inside ``outer`` (closed bounds)."""
    return (
        outer.xmin <= inner.xmin
        and outer.ymin <= inner.ymin
        and inner.xmax <= outer.xmax
        and inner.ymax <= outer.ymax
    )
