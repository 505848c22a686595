"""Pose recovery from 2D-3D correspondences: P3P-hypothesis RANSAC, LM, EPnP, triangulation."""

from .epnp import epnp
from .refine import Correspondence, lm_refine, reprojection_jacobian
from .robust import PnPResult, RansacConfig, ransac_pnp
from .triangulate import triangulate

__all__ = [
    "Correspondence",
    "PnPResult",
    "RansacConfig",
    "epnp",
    "lm_refine",
    "ransac_pnp",
    "reprojection_jacobian",
    "triangulate",
]
