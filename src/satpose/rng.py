"""Deterministic random streams on top of the Philox counter-based generator.

Every stochastic component in the package draws from a ``numpy`` Generator
backed by Philox-4x64, keyed by a user seed plus one or more string labels.
Streams with different labels are statistically independent, so adding a new
sampled quantity under its own label never perturbs the draw sequence of any
existing one. The same (seed, labels) pair always reproduces the same stream.

The stream's ``SeedSequence`` entropy is a ``uint32`` array of words: the
seed's 32-bit words, low word first (one word for a seed below 2**32, two
otherwise), then four words per label, the first 16 bytes of the label's
SHA-256 digest read as big-endian words. These are the words numpy itself
splits the list ``[seed, *label words]`` into, so the stream is the one that
list seeds.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .geometry import whole_number

MAX_SEED = 0xFFFFFFFFFFFFFFFF  # seeds are unsigned 64-bit, the range derive_seed returns
_WORD = 0xFFFFFFFF


def _label_words(label: str) -> tuple[int, ...]:
    """Fold a label into four 32-bit words via SHA-256 (stable across runs)."""
    return struct.unpack_from(">4I", hashlib.sha256(label.encode("utf-8")).digest())


def stream(seed: int, *labels: str) -> np.random.Generator:
    """Return an independent Philox generator keyed by ``seed`` and ``labels``.

    Raises ``ValueError`` unless ``seed`` is a whole number in [0, MAX_SEED].
    """
    seed = whole_number(seed, "seed", 0, MAX_SEED)
    words = [seed & _WORD, seed >> 32] if seed > _WORD else [seed]
    for label in labels:
        words.extend(_label_words(label))
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *labels: str) -> int:
    """Collapse a seed in [0, MAX_SEED] and labels into one seed in that range.

    Raises ``ValueError`` unless ``seed`` is a whole number in [0, MAX_SEED].
    """
    h = hashlib.sha256()
    h.update(whole_number(seed, "seed", 0, MAX_SEED).to_bytes(8, "big"))
    for label in labels:
        h.update(b"\x00")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")
