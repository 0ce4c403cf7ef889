"""Counter-based random substreams for reproducible, order-independent sampling.

Every draw comes from a Philox stream whose 128-bit key packs
(master_seed, stream id) (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11).  A stream's numbers depend only on its key, never on the
order in which streams are used.

Key layout (stream id in the high 64 bits):
    stream id = 1 + first_shot            for the sampling block that starts
                                          at global shot first_shot
    stream id = 2^63 + emitter_index      for per-emitter diffusion streams
Stream id 0 is reserved.  Block sizes and the order of draws inside a block
are set by the engine (stream layout 2, see ``ersim.engine``).  The seed is
the one ``ExperimentConfig`` checks below 2^64; indices are never negative.

A block's generator may be an existing one re-keyed through its Philox
``state``: counter 0, key (master_seed, stream id) low word first, an empty
buffer and no cached 32-bit half.  That is the state ``Philox(key=...)``
starts in, so the stream is the same number for number and the layout stays
2; re-keying skips the OS-entropy ``SeedSequence`` a new ``BitGenerator``
makes and then discards.
"""

from __future__ import annotations

import numpy as np

_DIFFUSION_BASE = 1 << 63


def _substream(master_seed: int, stream_id: int) -> np.random.Generator:
    key = master_seed | (stream_id << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, master_seed: int, stream_id: int) -> np.random.Generator:
    """``rng`` set to the start of the stream ``_substream(master_seed, stream_id)``."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (master_seed, stream_id)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def block_stream(master_seed: int, first_shot: int, rng=None) -> np.random.Generator:
    """Sampling stream for the shot block starting at global shot ``first_shot``.

    ``rng``, a Philox ``Generator``, is re-keyed to it in place when given;
    otherwise a new one is built.
    """
    if rng is None:
        return _substream(master_seed, 1 + first_shot)
    return _rekey(rng, master_seed, 1 + first_shot)


def diffusion_stream(master_seed: int, emitter_index: int = 0) -> np.random.Generator:
    """Sequential stream driving one emitter's spectral-diffusion trajectory."""
    return _substream(master_seed, _DIFFUSION_BASE + emitter_index)
