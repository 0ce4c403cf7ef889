import math

import numpy as np
import pytest

from ersim.diffusion import DiffusionState, _ou_coefficients, generate_trajectory
from ersim.physics import SpectralDiffusionParams
from ersim.rng import diffusion_stream


def evolve_diffusion(state, dt, params, rng):
    """Serial oracle: one step by dt from two draws, the update written out."""
    z_fast = rng.standard_normal()
    z_slow = rng.standard_normal()
    a, c = _ou_coefficients(dt, params)
    fast = a * state.nu_offset_fast + c * z_fast
    slow = state.nu_offset_slow + math.sqrt(params.sigma_slow_rate * dt) * z_slow
    return DiffusionState(fast, slow)


def test_zero_params_keep_offsets():
    state = DiffusionState(3.0, -2.0)
    rng = diffusion_stream(0, 0)
    out = evolve_diffusion(state, 0.25, SpectralDiffusionParams(), rng)
    assert out.nu_offset_fast == 3.0
    assert out.nu_offset_slow == -2.0


def test_zero_dt_preserves_offsets():
    state = DiffusionState(1.0, 2.0)
    params = SpectralDiffusionParams(sigma_fast=5e6, tau_fast=1e-3, sigma_slow_rate=1e12)
    out = evolve_diffusion(state, 0.0, params, diffusion_stream(1, 0))
    assert out.nu_offset_fast == 1.0
    assert out.nu_offset_slow == 2.0


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
    start = DiffusionState(1.5e6, -2.5e6)
    traj = generate_trajectory(start, 1, dt, params, diffusion_stream(12, 0))
    assert traj.fast[0] == start.nu_offset_fast
    assert traj.slow[0] == start.nu_offset_slow
    assert traj.final == evolve_diffusion(start, dt, params, diffusion_stream(12, 0))


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


def fast_scan_bound(n, x0, params, dt, z_fast):
    """Bound on the fast offsets' distance from the serial recurrence over n steps.

    One rounding for c z, then one per pass, each within eps of a partial sum,
    and every partial sum is at most |x0| + c max|z| / (1 - a).  With a = 1
    (so c = 0) the scan adds only zeros and is exact.
    """
    a, c = _ou_coefficients(dt, params)
    if a == 1.0:
        return 0.0
    passes = n.bit_length()
    scale = abs(x0) + c * np.max(np.abs(z_fast), initial=0.0) / (1.0 - a)
    return (passes + 1) * np.finfo(float).eps * scale


def assert_follows_serial_evolution(start, n, dt, params, seed):
    """The fast offsets within the scan bound of the serial ones; the slow walk bit for bit."""
    traj = generate_trajectory(start, n, dt, params, diffusion_stream(seed, 0))
    z_fast = diffusion_stream(seed, 0).standard_normal(2 * n)[0::2]
    fast = np.empty(n + 1)
    state = start
    rng = diffusion_stream(seed, 0)
    for k in range(n):
        fast[k] = state.nu_offset_fast
        assert traj.slow[k] == state.nu_offset_slow
        state = evolve_diffusion(state, dt, params, rng)
    fast[n] = state.nu_offset_fast
    error = np.max(np.abs(np.append(traj.fast, traj.final.nu_offset_fast) - fast))
    assert error <= fast_scan_bound(n, start.nu_offset_fast, params, dt, z_fast)
    assert traj.final.nu_offset_slow == state.nu_offset_slow


def test_pregenerated_trajectory_equals_serial_evolution():
    params = SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.7e-3, sigma_slow_rate=2e11)
    assert_follows_serial_evolution(DiffusionState(), 500, 60e-6, params, 21)


@pytest.mark.parametrize(
    "tau_fast",
    [1e-3, 1.0],  # configs/ple_session.ini, and a slow decay (a = 0.99994) with the largest error
    ids=["ple_session", "tau_fast_1s"],
)
def test_fast_scan_over_a_block_stays_within_its_bound(tau_fast):
    params = SpectralDiffusionParams(
        sigma_fast=70.78497e6, tau_fast=tau_fast, sigma_slow_rate=0.3168819e12
    )
    assert_follows_serial_evolution(DiffusionState(1.5e6, -2.5e6), 2**14, 60e-6, params, 3)


def test_trajectory_segments_chain_like_one_run():
    params = SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.7e-3, sigma_slow_rate=2e11)
    rng_a = diffusion_stream(5, 0)
    whole = generate_trajectory(DiffusionState(), 400, 1e-3, params, rng_a)
    rng_b = diffusion_stream(5, 0)
    first = generate_trajectory(DiffusionState(), 150, 1e-3, params, rng_b)
    second = generate_trajectory(first.final, 250, 1e-3, params, rng_b)
    joined_fast = np.concatenate([first.fast, second.fast])
    joined_slow = np.concatenate([first.slow, second.slow])
    # each path is within its bound of the serial one; the error carried in by
    # first.final only decays over the second segment
    z_fast = diffusion_stream(5, 0).standard_normal(800)[0::2]
    bound = (
        fast_scan_bound(150, 0.0, params, 1e-3, z_fast[:150])
        + fast_scan_bound(250, first.final.nu_offset_fast, params, 1e-3, z_fast[150:])
        + fast_scan_bound(400, 0.0, params, 1e-3, z_fast)
    )
    assert np.max(np.abs(joined_fast - whole.fast)) <= bound
    assert abs(second.final.nu_offset_fast - whole.final.nu_offset_fast) <= bound
    assert np.array_equal(joined_slow, whole.slow)
    assert second.final.nu_offset_slow == whole.final.nu_offset_slow


def test_empty_trajectory():
    # static, OU and walk, OU only: zero steps draw nothing and keep the incoming state
    for params in (
        SpectralDiffusionParams(),
        SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.7e-3, sigma_slow_rate=2e11),
        SpectralDiffusionParams(sigma_fast=3e6, tau_fast=0.7e-3),
    ):
        rng = diffusion_stream(0, 0)
        traj = generate_trajectory(DiffusionState(1.0, 2.0), 0, 1e-3, params, rng)
        assert len(traj.fast) == len(traj.slow) == 0
        assert traj.final == DiffusionState(1.0, 2.0)
        assert rng.standard_normal() == diffusion_stream(0, 0).standard_normal()


def test_static_trajectory_equals_serial_evolution_without_draws():
    params = SpectralDiffusionParams()
    n = 1000
    dt = 60e-6
    start = DiffusionState(3.0, -2.0)
    rng = diffusion_stream(4, 0)
    traj = generate_trajectory(start, n, dt, params, rng)
    state = start
    serial_rng = diffusion_stream(4, 0)
    for k in range(n):
        assert traj.fast[k] == state.nu_offset_fast
        assert traj.slow[k] == state.nu_offset_slow
        state = evolve_diffusion(state, dt, params, serial_rng)
    assert traj.final == state
    # nothing was drawn: the stream is where a fresh one starts
    assert rng.standard_normal() == diffusion_stream(4, 0).standard_normal()
