import numpy as np

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
