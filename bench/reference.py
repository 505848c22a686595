"""The reference kernel that the end-to-end timings are normalised by.

The core speed of a small shared host moves by up to 2x from one second to
the next and by 20 % from one minute to the next, so a raw wall time says as
much about the host as about satpose. The benchmark therefore times this
kernel right before and after every timed call and reports the call's time in units of
the kernel's time, scaled back to milliseconds with ``KERNEL_MS``.

The kernel does the kinds of work satpose does, with none of satpose's code:

- Python loops that fill small arrays, then a small symmetric
  eigen-decomposition and SVD, as in a pose solve;
- many numpy calls on 11-point arrays, as in projection and normalisation;
- a JSON file written and read back, as in a manifest round trip.

Host slowdowns do not hit these alike: on the host the benchmark was tuned
on, the file and JSON work slowed more than the pose-solve part did, so all
three are needed to follow the host for both the pose solve and the
dataset chain. ``README.md`` gives the measurement.

A change to satpose leaves the kernel untouched. It imports no satpose code,
so the import probe of ``measure.py`` can run it in a fresh interpreter.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

# Normalised times are reported as if the kernel took this long: about its
# median time on the 2-core shared Xeon VM the benchmark was tuned on.
KERNEL_MS = 2.0

# The JSON round trip writes here; run.py removes the file when a run ends.
SCRATCH_FILE = Path(__file__).resolve().parent.parent / ".bench_out" / "work" / "kernel.json"

_RNG = np.random.default_rng(20220407)
_WORLD = _RNG.random((11, 3))
_IMAGE = _RNG.random((11, 2))
_DOC = {  # about the size of a one-record manifest
    "records": [
        {
            "id": f"ref{i:06d}",
            "attitude": _RNG.random(4).tolist(),
            "position": _RNG.random(3).tolist(),
            "landmarks": _RNG.random((11, 2)).tolist(),
        }
        for i in range(2)
    ]
}


def kernel() -> float:
    """A fixed amount of satpose-like work; returns a checksum."""
    total = 0.0
    for _ in range(4):
        m = np.zeros((22, 12))
        for i in range(11):
            for j in range(4):
                m[2 * i, 3 * j] = _WORLD[i, j % 3]
                m[2 * i + 1, 3 * j + 1] = _IMAGE[i, j % 2]
        _, vectors = np.linalg.eigh(m.T @ m)
        total += float(vectors[0, 0]) + float(np.linalg.svd(m[:12], compute_uv=False)[0])
    rotation, offset = np.eye(3), np.ones(3)
    for _ in range(10):
        cam = _WORLD @ rotation.T + offset
        uv = cam[:, :2] / cam[:, 2:3]
        total += float(np.linalg.norm(uv - uv.mean(axis=0), axis=1).sum())
        q = np.array([1.0, 0.0, 0.0, 0.0])
        total += float(np.clip(q @ (q / np.linalg.norm(q)), -1.0, 1.0))
    with open(SCRATCH_FILE, "w", encoding="utf-8") as fh:
        json.dump(_DOC, fh, indent=1)
    with open(SCRATCH_FILE, encoding="utf-8") as fh:
        total += len(json.load(fh)["records"])
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
