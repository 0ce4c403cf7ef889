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
"""

from __future__ import annotations

import numpy as np

_DIFFUSION_BASE = 1 << 63


def _substream(master_seed: int, stream_id: int) -> np.random.Generator:
    key = master_seed | (stream_id << 64)
    return np.random.Generator(np.random.Philox(key=key))


def block_stream(master_seed: int, first_shot: int) -> np.random.Generator:
    """Sampling stream for the shot block starting at global shot ``first_shot``."""
    return _substream(master_seed, 1 + first_shot)


def diffusion_stream(master_seed: int, emitter_index: int = 0) -> np.random.Generator:
    """Sequential stream driving one emitter's spectral-diffusion trajectory."""
    return _substream(master_seed, _DIFFUSION_BASE + emitter_index)
