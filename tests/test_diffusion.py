import math

import numpy as np
import pytest

from ersim.diffusion import DiffusionState, _ou_coefficients, generate_trajectory
from ersim.errors import InvalidParameterError
from ersim.physics import SpectralDiffusionParams
from ersim.rng import diffusion_stream


def evolve_diffusion(state, dt, params, rng):
    """Serial oracle: one step by dt from two draws, the update written out."""
    if dt < 0:
        raise InvalidParameterError("dt must be >= 0")
    z_fast = rng.standard_normal()
    z_slow = rng.standard_normal()
    a, c = _ou_coefficients(dt, params)
    fast = a * state.nu_offset_fast + c * z_fast
    slow = state.nu_offset_slow + math.sqrt(params.sigma_slow_rate * dt) * z_slow
    return DiffusionState(fast, slow, state.wall_time + dt)


def test_zero_params_only_advance_wall_time():
    state = DiffusionState(3.0, -2.0, 1.5)
    rng = diffusion_stream(0, 0)
    out = evolve_diffusion(state, 0.25, SpectralDiffusionParams(), rng)
    assert out.nu_offset_fast == 3.0
    assert out.nu_offset_slow == -2.0
    assert out.wall_time == 1.75


def test_zero_dt_preserves_offsets():
    state = DiffusionState(1.0, 2.0, 0.0)
    params = SpectralDiffusionParams(sigma_fast=5e6, tau_fast=1e-3, sigma_slow_rate=1e12)
    out = evolve_diffusion(state, 0.0, params, diffusion_stream(1, 0))
    assert out.nu_offset_fast == 1.0
    assert out.nu_offset_slow == 2.0
    assert out.wall_time == 0.0


def test_negative_dt_rejected():
    with pytest.raises(InvalidParameterError):
        evolve_diffusion(DiffusionState(), -1.0, SpectralDiffusionParams(), diffusion_stream(0, 0))


def test_trajectory_rejects_negative_dt():
    with pytest.raises(InvalidParameterError):
        generate_trajectory(
            DiffusionState(), 1, -1.0, SpectralDiffusionParams(), diffusion_stream(0, 0)
        )


@pytest.mark.parametrize(
    "params",
    [
        SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.7e-3, sigma_slow_rate=2e11),
        SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.0, sigma_slow_rate=0.0),
        SpectralDiffusionParams(sigma_fast=0.0, tau_fast=0.0, sigma_slow_rate=2e11),
        SpectralDiffusionParams(),
    ],
)
@pytest.mark.parametrize("dt", [0.0, 60e-6, 509.65])
def test_one_step_trajectory_is_one_serial_step(params, dt):
    # the dwell gap between scans is a one-step trajectory
    start = DiffusionState(1.5e6, -2.5e6, 3.0)
    traj = generate_trajectory(start, 1, dt, params, diffusion_stream(12, 0))
    assert traj.fast[0] == start.nu_offset_fast
    assert traj.slow[0] == start.nu_offset_slow
    assert traj.final == evolve_diffusion(start, dt, params, diffusion_stream(12, 0))


def test_wall_time_nondecreasing():
    params = SpectralDiffusionParams(1e6, 1e-3, 1e10)
    rng = diffusion_stream(3, 0)
    state = DiffusionState()
    for dt in [0.0, 1e-6, 5.0, 0.0, 2e-3]:
        new = evolve_diffusion(state, dt, params, rng)
        assert new.wall_time >= state.wall_time
        state = new


def test_fast_component_reaches_stationary_std():
    sigma = 5e6
    params = SpectralDiffusionParams(sigma_fast=sigma, tau_fast=1e-3, sigma_slow_rate=0.0)
    traj = generate_trajectory(
        DiffusionState(), 1_000_000, 0.5e-3, params, diffusion_stream(7, 0)
    )
    sample = traj.fast[1000:]
    assert np.std(sample) == pytest.approx(sigma, rel=0.03)
    assert abs(np.mean(sample)) < 0.01 * sigma * 10


def test_fast_component_white_when_tau_zero():
    sigma = 2e6
    params = SpectralDiffusionParams(sigma_fast=sigma, tau_fast=0.0, sigma_slow_rate=0.0)
    traj = generate_trajectory(DiffusionState(), 100_000, 1e-6, params, diffusion_stream(8, 0))
    x = traj.fast[1:]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1) < 0.02
    assert np.std(x) == pytest.approx(sigma, rel=0.03)


def test_fast_autocorrelation_time_constant():
    params = SpectralDiffusionParams(sigma_fast=1.0, tau_fast=1e-3, sigma_slow_rate=0.0)
    dt = 0.25e-3
    traj = generate_trajectory(DiffusionState(), 400_000, dt, params, diffusion_stream(9, 0))
    x = traj.fast[2000:]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert lag1 == pytest.approx(math.exp(-dt / 1e-3), abs=0.01)


def test_slow_walk_variance_matches_diffusivity():
    rate = 4e12
    total_time = 0.02
    params = SpectralDiffusionParams(sigma_fast=0.0, tau_fast=0.0, sigma_slow_rate=rate)
    finals = []
    for i in range(10_000):
        traj = generate_trajectory(
            DiffusionState(), 10, total_time / 10, params, diffusion_stream(11, i)
        )
        finals.append(traj.final.nu_offset_slow)
    assert np.var(finals) == pytest.approx(rate * total_time, rel=0.05)


def test_pregenerated_trajectory_equals_serial_evolution():
    params = SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.7e-3, sigma_slow_rate=2e11)
    n = 500
    dt = 60e-6
    traj = generate_trajectory(DiffusionState(), n, dt, params, diffusion_stream(21, 0))
    state = DiffusionState()
    rng = diffusion_stream(21, 0)
    for k in range(n):
        assert traj.fast[k] == state.nu_offset_fast
        assert traj.slow[k] == state.nu_offset_slow
        state = evolve_diffusion(state, dt, params, rng)
    assert traj.final == state


def test_trajectory_segments_chain_like_one_run():
    params = SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.7e-3, sigma_slow_rate=2e11)
    rng_a = diffusion_stream(5, 0)
    whole = generate_trajectory(DiffusionState(), 400, 1e-3, params, rng_a)
    rng_b = diffusion_stream(5, 0)
    first = generate_trajectory(DiffusionState(), 150, 1e-3, params, rng_b)
    second = generate_trajectory(first.final, 250, 1e-3, params, rng_b)
    joined_fast = np.concatenate([first.fast, second.fast])
    joined_slow = np.concatenate([first.slow, second.slow])
    assert np.array_equal(joined_fast, whole.fast)
    assert np.array_equal(joined_slow, whole.slow)
    assert second.final == whole.final


def test_empty_trajectory():
    traj = generate_trajectory(
        DiffusionState(1.0, 2.0, 3.0), 0, 1e-3, SpectralDiffusionParams(), diffusion_stream(0, 0)
    )
    assert len(traj.fast) == 0
    assert traj.final == DiffusionState(1.0, 2.0, 3.0)


def test_static_trajectory_equals_serial_evolution_without_draws():
    params = SpectralDiffusionParams()
    n = 1000
    dt = 60e-6  # wall time accumulates rounding, so the fold order shows
    start = DiffusionState(3.0, -2.0, 1.5)
    rng = diffusion_stream(4, 0)
    traj = generate_trajectory(start, n, dt, params, rng)
    state = start
    serial_rng = diffusion_stream(4, 0)
    for k in range(n):
        assert traj.fast[k] == state.nu_offset_fast
        assert traj.slow[k] == state.nu_offset_slow
        state = evolve_diffusion(state, dt, params, serial_rng)
    assert traj.final == state
    assert state.wall_time != 1.5 + n * dt  # a different fold would not match
    # nothing was drawn: the stream is where a fresh one starts
    assert rng.standard_normal() == diffusion_stream(4, 0).standard_normal()
