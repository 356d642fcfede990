"""Deterministic substream derivation.

All randomness in the package flows through keyed substreams: the generator
for a given task depends only on the integer key tuple, never on execution
order or thread scheduling. Domain tags keep streams for unrelated tasks
(simulation draws, bootstrap resampling, fold shuffles, ...) disjoint.
"""
import operator

import numpy as np

from .exceptions import ConfigError

# domain tags for substream keys
SIM_DRAW = 1
BOOT_RESAMPLE = 2
FOLD_SHUFFLE = 3
UNLABELED_SUBSAMPLE = 4
CROSSFIT_SHUFFLE = 5


def _seed_sequence(key) -> np.random.SeedSequence:
    """The SeedSequence of a key tuple; ConfigError unless every key is a non-negative integer."""
    entropy = []
    for k in key:
        try:
            k = operator.index(k)
        except TypeError:
            raise ConfigError(f"seed must be a non-negative integer, got {k!r}") from None
        if k < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {k!r}")
        entropy.append(k)
    return np.random.SeedSequence(entropy)


def substream(*key: int) -> np.random.Generator:
    """Return a generator whose state depends only on the key tuple."""
    return np.random.default_rng(_seed_sequence(key))


def derive_seed(*key: int) -> int:
    """Collapse a key tuple to a single reproducible integer seed."""
    return int(_seed_sequence(key).generate_state(1, np.uint64)[0])


def standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Normal variates via inverse-CDF transform of the uniform stream.

    Deterministic given the generator state and platform-stable, unlike
    rejection samplers. The clamp guards the measure-zero event u == 0.
    """
    from scipy.special import ndtri

    u = rng.random(size)
    return ndtri(np.maximum(u, 1e-17))
