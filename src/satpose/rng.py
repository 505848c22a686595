"""Deterministic random streams on top of the Philox counter-based generator.

Every stochastic component in the package draws from a ``numpy`` Generator
backed by Philox-4x64, keyed by a user seed plus one or more string labels.
Streams with different labels are statistically independent, so adding a new
sampled quantity under its own label never perturbs the draw sequence of any
existing one. The same (seed, labels) pair always reproduces the same stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .geometry import whole_number

MAX_SEED = 0xFFFFFFFFFFFFFFFF  # seeds are unsigned 64-bit, the range derive_seed returns


def _label_words(label: str) -> list[int]:
    """Fold a label into four 32-bit words via SHA-256 (stable across runs)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[4 * i : 4 * i + 4], "big") for i in range(4)]


def stream(seed: int, *labels: str) -> np.random.Generator:
    """Return an independent Philox generator keyed by ``seed`` and ``labels``.

    Raises ``ValueError`` unless ``seed`` is a whole number in [0, MAX_SEED].
    """
    entropy: list[int] = [whole_number(seed, "seed", 0, MAX_SEED)]
    for label in labels:
        entropy.extend(_label_words(label))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *labels: str) -> int:
    """Collapse a seed in [0, MAX_SEED] and labels into one seed in that range."""
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(8, "big"))
    for label in labels:
        h.update(b"\x00")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")
