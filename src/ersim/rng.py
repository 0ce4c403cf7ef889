"""Counter-based random substreams for reproducible, order-independent sampling.

Every shot of the experiment draws from its own Philox stream whose 128-bit
key packs (master_seed, stream id).  Streams are therefore independent of
execution order: shot k always sees the same random sequence for a given
master seed.

Key layout (stream id in the high 64 bits):
    stream id = 1 + shot_index            for per-shot sampling streams
    stream id = 2^63 + emitter_index      for per-emitter diffusion streams
Stream id 0 is reserved.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1
_DIFFUSION_BASE = 1 << 63


def _substream(master_seed: int, stream_id: int) -> np.random.Generator:
    if not 0 <= master_seed <= _MASK64:
        raise InvalidParameterError("master_seed must fit in 64 bits")
    key = (master_seed & _MASK64) | (stream_id << 64)
    return np.random.Generator(np.random.Philox(key=key))


def shot_stream(master_seed: int, shot_index: int) -> np.random.Generator:
    """Sampling stream for one shot, keyed by (master_seed, shot_index)."""
    if shot_index < 0:
        raise InvalidParameterError("shot_index must be >= 0")
    return _substream(master_seed, 1 + shot_index)


def diffusion_stream(master_seed: int, emitter_index: int = 0) -> np.random.Generator:
    """Sequential stream driving one emitter's spectral-diffusion trajectory."""
    if emitter_index < 0:
        raise InvalidParameterError("emitter_index must be >= 0")
    return _substream(master_seed, _DIFFUSION_BASE + emitter_index)


class ShotStreams:
    """Re-keyable view of the per-shot substreams for tight sampling loops.

    ``for_shot(k)`` yields a generator bit-identical to ``shot_stream(seed, k)``
    but reuses one Philox instance, avoiding per-shot construction cost.  Not
    thread-safe.
    """

    def __init__(self, master_seed: int):
        if not 0 <= master_seed <= _MASK64:
            raise InvalidParameterError("master_seed must fit in 64 bits")
        self._seed = master_seed
        self._bit_gen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bit_gen)
        self._state = self._bit_gen.state

    def for_shot(self, shot_index: int) -> np.random.Generator:
        st = self._state
        inner = st["state"]
        inner["key"][0] = self._seed
        inner["key"][1] = 1 + shot_index
        inner["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bit_gen.state = st
        return self._gen
