"""Seeded stream tests: the entropy words, golden draws and seed checks."""

import hashlib

import numpy as np
import pytest

from satpose.rng import MAX_SEED, derive_seed, stream

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
LABELS = ((), ("oracle",), ("oracle", "img000001"))


def list_seeded(seed: int, *labels: str) -> np.random.Generator:
    """A stream seeded as ``SeedSequence([seed, *label words])``, a Python list."""
    entropy = [seed]
    for label in labels:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        entropy.extend(int.from_bytes(digest[4 * i : 4 * i + 4], "big") for i in range(4))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@pytest.mark.parametrize("labels", LABELS, ids=lambda labels: f"{len(labels)}-labels")
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_the_list_seeded_stream(seed, labels):
    got, want = stream(seed, *labels), list_seeded(seed, *labels)
    assert got.random(8).tobytes() == want.random(8).tobytes()
    assert got.normal(size=8).tobytes() == want.normal(size=8).tobytes()
    assert got.integers(0, 2**63, 8).tolist() == want.integers(0, 2**63, 8).tolist()


# first draws of streams as every earlier release of the package built them
GOLDEN = [
    (0, (), [0.014067035665647709, 0.2577672456246177], [4349422948805191298, 843197638110165454]),
    (
        3,
        ("oracle", "img000001"),
        [0.9097419075193113, 0.10001912917436284],
        [1066605755448629010, 920112349153394757],
    ),
    (
        2**64 - 1,
        ("ransac",),
        [0.44815232897796364, 0.05164890849403214],
        [5273804511209719218, 7821860320009364612],
    ),
    (
        2**32,
        ("a", "b"),
        [0.9956286478399957, 0.2669221486878708],
        [8015971482836340598, 4456056863644219051],
    ),
]


@pytest.mark.parametrize("seed, labels, uniforms, integers", GOLDEN)
def test_stream_golden_draws(seed, labels, uniforms, integers):
    rng = stream(seed, *labels)
    assert rng.random(2).tolist() == uniforms
    assert rng.integers(0, 2**63, 2).tolist() == integers


@pytest.mark.parametrize(
    "seed, with_label, without",
    [
        (0, 17688709251863801958, 12634128529936681850),
        (7, 13261432774922727769, 11811690271803249212),
        (2**63, 219554090779433814, 12803943632302344437),
        (2**64 - 1, 17932713466408117963, 1343108722416799325),
    ],
)
def test_derive_seed_golden_values(seed, with_label, without):
    assert derive_seed(seed, "img1") == with_label
    assert derive_seed(seed) == without


@pytest.mark.parametrize("seed", [3.5, -1, 2**64, float("nan"), float("inf")])
def test_bad_seeds_raise_value_error(seed):
    with pytest.raises(ValueError, match="seed must be a whole number"):
        derive_seed(seed, "x")
    with pytest.raises(ValueError, match="seed must be a whole number"):
        stream(seed, "x")


def test_whole_float_seed_is_its_integer():
    assert derive_seed(3.0, "x") == derive_seed(3, "x")
    assert derive_seed(float(2**63), "x") == derive_seed(2**63, "x")
    assert 0 <= derive_seed(MAX_SEED, "x") <= MAX_SEED
