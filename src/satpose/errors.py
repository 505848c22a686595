"""Exception types shared across the satpose package.

``ValueError`` is used for plain argument violations (empty inputs, bad
configuration values); the classes below cover domain failures that callers
may want to catch and handle individually.
"""


class SatposeError(Exception):
    """Base class for satpose domain failures."""


class BehindCameraError(SatposeError):
    """A 3-D point landed on or behind the camera plane during projection."""

    def __init__(self, index: int, z: float):
        self.index = index
        self.z = z
        super().__init__(
            f"point {index} has camera-frame depth z={z:.6g} m, "
            "at or behind the camera plane"
        )


class OutOfFrameError(SatposeError):
    """A bounding box lies entirely outside the image."""


class DegenerateGeometryError(SatposeError):
    """World points are collinear or otherwise too degenerate to solve."""


class NoValidPoseError(SatposeError):
    """No pose candidate placed the target in front of the camera."""


class InsufficientLandmarksError(SatposeError):
    """Too few usable landmarks remain to attempt a robust pose solve."""


class ConsensusFailureError(SatposeError):
    """RANSAC found no hypothesis with enough inlier support."""


class NumericalFailureError(SatposeError):
    """An optimization produced non-finite residuals."""


class DegenerateBaselineError(SatposeError):
    """Triangulation rays are (near-)parallel; no usable baseline."""


class SamplingFailureError(SatposeError):
    """Rejection sampling exhausted its retry budget."""


class NoScoredRecordsError(SatposeError, ValueError):
    """Every record of a run failed, so there is no score to report.

    It is a ``ValueError`` too, for callers that treat such a run as bad input.
    """


class ManifestError(SatposeError):
    """A dataset manifest violates the expected schema."""
