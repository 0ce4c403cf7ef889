import numpy as np
import pytest

from ersim import rng
from ersim.rng import block_stream, diffusion_stream


def _draws(gen, n=8):
    return [gen.random() for _ in range(n)]


def test_same_key_reproduces():
    assert _draws(block_stream(42, 7)) == _draws(block_stream(42, 7))


def test_distinct_shots_differ():
    assert _draws(block_stream(42, 7)) != _draws(block_stream(42, 8))


def test_distinct_seeds_differ():
    assert _draws(block_stream(42, 7)) != _draws(block_stream(43, 7))


def test_shot_order_is_irrelevant():
    forward = [_draws(block_stream(1, k), 3) for k in range(20)]
    backward = [_draws(block_stream(1, k), 3) for k in reversed(range(20))]
    assert forward == backward[::-1]


def test_diffusion_stream_separate_from_shots():
    d = _draws(diffusion_stream(42, 0))
    assert d != _draws(block_stream(42, 0))
    assert d == _draws(diffusion_stream(42, 0))
    assert d != _draws(diffusion_stream(42, 1))


def test_uniformity_smoke():
    gen = block_stream(123, 0)
    sample = gen.random(20_000)
    assert abs(sample.mean() - 0.5) < 0.01
    assert np.all(sample >= 0) and np.all(sample < 1)


def _engine_draws(gen):
    """Each kind of draw the engine makes, in one sequence."""
    out = np.empty(5)
    gen.random(out=out)
    return [
        gen.random(7).tobytes(),
        out.tobytes(),
        gen.standard_exponential(6).tobytes(),
        gen.standard_normal(9).tobytes(),
        gen.poisson(3.5, 8).tobytes(),
        gen.poisson(2e3, 4).tobytes(),
        gen.random(3).tobytes(),
    ]


def _dirty():
    """A generator part-way through its buffer, holding a cached 32-bit half."""
    gen = block_stream(99, 12345)
    _engine_draws(gen)
    gen.integers(0, 7, 5, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    return gen


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream_id", [1, 2**62, 2**63 + 3])
def test_rekeyed_generator_draws_a_fresh_philox_stream(master_seed, stream_id):
    fresh = np.random.Generator(np.random.Philox(key=master_seed | stream_id << 64))
    rekeyed = rng._rekey(_dirty(), master_seed, stream_id)
    # counter, key, buffer and the cached 32-bit half all as a new Philox has them
    assert repr(rekeyed.bit_generator.state) == repr(fresh.bit_generator.state)
    assert _engine_draws(rekeyed) == _engine_draws(fresh)


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("first_shot", [0, 2**62 - 1])
def test_block_stream_rekeys_the_generator_it_is_given(master_seed, first_shot):
    gen = _dirty()
    assert block_stream(master_seed, first_shot, gen) is gen
    assert _engine_draws(gen) == _engine_draws(block_stream(master_seed, first_shot))
