"""satpose: monocular satellite pose estimation, minus the neural networks.

Pinhole geometry and label derivation, ROI box rules, P3P + RANSAC + LM pose
solving, EPnP, multiview triangulation, SO(3)-uniform pose sampling, scoring, and a
dataset/pipeline harness with a CLI.
"""

from .errors import (
    BehindCameraError,
    ConsensusFailureError,
    DegenerateBaselineError,
    DegenerateGeometryError,
    InsufficientLandmarksError,
    ManifestError,
    NoScoredRecordsError,
    NoValidPoseError,
    NumericalFailureError,
    OutOfFrameError,
    SamplingFailureError,
    SatposeError,
)
from .geometry import (
    DEFAULT_CAMERA,
    CameraIntrinsics,
    Pose,
    WireframeModel,
    denormalize_landmarks,
    example_wireframe,
    normalize_landmarks,
    project,
    quat_multiply,
)
from .manifest import (
    Manifest,
    SampleRecord,
    load_manifest,
    load_wireframe,
    save_manifest,
    save_wireframe,
    split_dataset,
)
from .metrics import (
    AggregateReport,
    ImageScore,
    aggregate,
    attitude_error,
    image_score,
    position_error,
)
from .pipeline import (
    FileProvider,
    NoiseModel,
    OracleProvider,
    TimingReport,
    generate_labels,
    run_pipeline,
)
from .pnp import (
    Correspondence,
    PnPResult,
    RansacConfig,
    epnp,
    lm_refine,
    ransac_pnp,
    triangulate,
)
from .roi import BBox, RoiConfig, contains, iou, make_roi
from .sampler import (
    PoseSamplerConfig,
    SampleStreams,
    sample_attitude,
    sample_attitudes,
    sample_distance,
    sample_pose,
)

__version__ = "0.1.0"
