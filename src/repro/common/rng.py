"""Deterministic random-number management.

Every stochastic component (data generator, query enumerator, simulator,
model initialisation) draws from its own named child generator derived from
one root seed. Runs are therefore reproducible end-to-end while components
stay statistically independent: reordering calls inside one component never
perturbs another component's stream.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["derive_seed", "state_fingerprint", "RngFactory"]


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a stable 63-bit seed from a root seed and a path of names.

    The derivation hashes ``root_seed`` together with the names so that
    ``derive_seed(1, "datagen")`` and ``derive_seed(1, "engine")`` are
    unrelated, and the same path always yields the same seed.
    """
    # One buffer: the root, then each name behind a 0x1f separator.
    path = "\x1f".join((str(int(root_seed)), *names)).encode("utf-8")
    digest = hashlib.sha256(path).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def state_fingerprint(gen: np.random.Generator) -> str:
    """A stable digest of a generator's current internal state.

    Reads ``gen.bit_generator.state`` — a pure inspection, no draw, so
    fingerprinting never perturbs the stream it measures. Two generators
    have equal fingerprints iff they are at the same point of the same
    stream: the determinism sanitizer's RNG-draw ledger
    (:mod:`repro.analysis.racecheck`) compares fingerprints taken after
    a serial and a parallel run to prove the runs drew identically.
    """
    state = gen.bit_generator.state
    payload = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class RngFactory:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    >>> rngs = RngFactory(seed=42)
    >>> a = rngs.get("datagen")
    >>> b = rngs.get("engine")
    >>> a is rngs.get("datagen")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[tuple, np.random.Generator] = {}

    def get(self, *names: str) -> np.random.Generator:
        """Return the generator for the given name path, creating it once
        (``get("a/b")`` and ``get("a", "b")`` are two paths)."""
        if names not in self._streams:
            self._streams[names] = self.fresh(*names)
        return self._streams[names]

    def fresh(self, *names: str) -> np.random.Generator:
        """Return a new generator for the path without caching it.

        Useful for repeated runs that must each start from the same state,
        ``np.random.default_rng``'s for the path's seed.
        """
        bits = np.random.PCG64(_seeding(self._seed, names))
        return np.random.Generator(bits)


class _Seeding(ISeedSequence):
    """The four 64-bit words ``PCG64`` seeds itself from for one path,
    as the path's ``SeedSequence`` generates them, derived once per
    process (``_seeding``): the engines of a sweep open the same paths
    over and over (one runner seed, the same operator names and subtask
    indices). Read-only, as every stream of the path shares them."""

    def __init__(self, root_seed: int, names: tuple) -> None:
        seq = np.random.SeedSequence(derive_seed(root_seed, *names))
        words = seq.generate_state(4, np.uint64).tobytes()
        self.words = np.frombuffer(words, np.uint64)  # read-only

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


_seeding = lru_cache(maxsize=4096)(_Seeding)
