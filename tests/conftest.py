"""Shared fixtures: camera preset, test wireframe, and pose synthesis helpers.

The synthesis oracle used throughout is geometric: poses are drawn at random,
their keypoints projected with the forward pinhole model, and solvers are
judged by how well they invert that forward map.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from satpose import (
    DEFAULT_CAMERA,
    Correspondence,
    Pose,
    example_wireframe,
    project,
)
from satpose.rng import stream
from satpose.sampler import sample_attitude


@pytest.fixture(scope="session")
def cam():
    return DEFAULT_CAMERA


@pytest.fixture(scope="session")
def wireframe():
    return example_wireframe()


# any value json.load can return, NaN, infinities and integers beyond float range included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


_UNIT_TOL = 1e-9


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` radians about a unit ``axis``."""
    ax = np.asarray(axis, dtype=float).reshape(3)
    if abs(np.linalg.norm(ax) - 1.0) > _UNIT_TOL:
        raise ValueError(f"axis must be unit length, |axis|={np.linalg.norm(ax):.12g}")
    half = 0.5 * float(angle)
    return np.concatenate([[np.cos(half)], np.sin(half) * ax])


def random_pose(rng: np.random.Generator) -> Pose:
    """A pose in the working envelope: 36-70 m range, mild lateral offset."""
    position = np.array(
        [rng.normal(0.0, 2.0), rng.normal(0.0, 1.5), rng.uniform(36.0, 70.0)]
    )
    return Pose(position=position, attitude=sample_attitude(rng))


def synthesize(pose: Pose, cam, wireframe, noise_sigma: float = 0.0, rng=None):
    """Project the wireframe under ``pose`` into a correspondence list."""
    pixels = project(pose, cam, wireframe.keypoints)
    if noise_sigma > 0.0:
        pixels = pixels + rng.normal(0.0, noise_sigma, size=pixels.shape)
    return [
        Correspondence(image=pixels[k], world=wireframe.keypoints[k], id=k)
        for k in range(wireframe.count)
    ]


def reprojection_rms(pose: Pose, corrs, cam) -> float:
    """RMS pixel distance between ``project`` of each world point and its image."""
    image = np.array([c.image for c in corrs])
    world = np.array([c.world for c in corrs])
    residuals = project(pose, cam, world) - image
    return float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))


@pytest.fixture()
def make_case(cam, wireframe):
    """Factory: seeded (pose, correspondences) pairs for solver tests."""

    def factory(seed: int, noise_sigma: float = 0.0):
        rng = stream(seed, "test-case")
        pose = random_pose(rng)
        corrs = synthesize(pose, cam, wireframe, noise_sigma=noise_sigma, rng=rng)
        return pose, corrs

    return factory
