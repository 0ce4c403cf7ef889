"""Reference kernels: fixed work whose wall time tracks this host's speed.

The CPU speed of a shared host drifts by up to a factor of two within minutes,
and not equally for all code: loops over Python objects slow down more than
streaming numpy passes.  Each workload names the kernel that resembles the
work dominating its timed steps; run.py scales the workload's wall time by the
kernel's time in the same run.  Both kernels take about NOMINAL_S on an
unloaded 2-core Xeon box, and neither calls ersim, so they do not change when
ersim does.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.25


def python_kernel() -> float:
    """Per-event Philox re-keying, scalar draws and list appends, like the per-shot sampler."""
    start = time.perf_counter()
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state
    clicks = []
    for k in range(35_000):
        inner = state["state"]
        inner["key"][0] = 12345
        inner["key"][1] = 1 + k
        inner["counter"][:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bit_gen.state = state
        u = gen.random()
        if u < 0.3 / (1.0 + (u - 0.5) ** 2):
            clicks.append(1000 + int(gen.exponential(2.43e-6) * 1e9))
        for _ in range(gen.poisson(0.05)):
            clicks.append(1000 + int(gen.random() * 20000))
    return time.perf_counter() - start


def numpy_kernel() -> float:
    """Streaming passes over a 32 MB int64 array: copy, add, bincount, serialise."""
    start = time.perf_counter()
    a = np.arange(4_000_000, dtype=np.int64)
    for _ in range(4):
        b = a.copy()
        b += 1
        np.bincount(b & 1023)
        b.astype(np.uint64).tobytes()
    return time.perf_counter() - start
