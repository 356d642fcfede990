"""Deterministic substream derivation.

All randomness in the package flows through keyed substreams: the generator
for a given task depends only on the integer key tuple, never on execution
order or thread scheduling. Domain tags keep streams for unrelated tasks
(simulation draws, bootstrap resampling, fold shuffles, ...) disjoint.
Seeds, and the counts of replicates, folds and draws whose keys they form,
pass one integer check (_integer).

``import ssmean`` loads neither numpy.random nor SciPy: the annotations below
stay unevaluated strings, numpy loads numpy.random at the first substream or
derived seed, and standard_normal imports scipy.special when it runs.
"""
from __future__ import annotations

import operator

import numpy as np

from .exceptions import ConfigError

# domain tags for substream keys
SIM_DRAW = 1
BOOT_RESAMPLE = 2
FOLD_SHUFFLE = 3
UNLABELED_SUBSAMPLE = 4
CROSSFIT_SHUFFLE = 5


def _integer(value, message: str) -> int:
    """operator.index(value); ConfigError(message.format(value)) for a bool (numpy's too) or a non-integer.

    Python and numpy integers pass. Each caller checks the range itself.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(message.format(value))


def _seed(value) -> int:
    """value as an int; ConfigError unless it is a non-negative integer."""
    k = _integer(value, "seed must be a non-negative integer, got {!r}")
    if k < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {k!r}")
    return k


def _seed_sequence(key) -> np.random.SeedSequence:
    """The SeedSequence of a key tuple; ConfigError unless every key is a non-negative integer."""
    return np.random.SeedSequence([_seed(k) for k in key])


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
