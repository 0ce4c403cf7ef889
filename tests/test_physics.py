import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ersim.errors import InvalidParameterError
from ersim.fitting import fit_lorentzian, lorentzian_peak
from ersim.physics import (
    SPEED_OF_LIGHT,
    CavityModel,
    EmitterModel,
    SpectralDiffusionParams,
    cavity_branching_fraction,
    enhanced_decay_rate,
    excitation_probability,
    purcell_from_lifetimes,
    purcell_profile,
    radiative_linewidth,
)
from ersim.records import Spectrum

NU_1532_8 = SPEED_OF_LIGHT / 1532.8e-9


class TestLorentzian:
    def test_peak_value(self):
        assert lorentzian_peak(5.0, (5.0, 2.0, 1.0, 0.0)) == 1.0

    def test_half_maximum(self):
        for sign in (+1, -1):
            assert lorentzian_peak(5.0 + sign * 1.0, (5.0, 2.0, 1.0, 0.0)) == pytest.approx(0.5)

    def test_grid_roundtrip_recovers_cavity_quality_factor(self):
        center = 195.59e12
        fwhm = 4.724e9
        x = np.linspace(center - 5 * fwhm, center + 5 * fwhm, 301)
        y = lorentzian_peak(x, (center, fwhm, 120.0, 3.0))
        fit = fit_lorentzian(Spectrum(x, y))
        assert fit.converged
        q_true = center / fwhm
        assert fit.value("q_factor") == pytest.approx(q_true, rel=0.01)
        assert fit.value("q_factor") == pytest.approx(4.14e4, rel=0.01)

    @given(
        center=st.floats(-1e15, 1e15),
        x=st.floats(0, 1e12),
        fwhm=st.floats(1e-3, 1e12),
        amplitude=st.floats(-1e3, 1e3),
        baseline=st.floats(-1e3, 1e3),
    )
    def test_symmetric_about_center(self, center, x, fwhm, amplitude, baseline):
        left = lorentzian_peak(center - x, (center, fwhm, amplitude, baseline))
        right = lorentzian_peak(center + x, (center, fwhm, amplitude, baseline))
        assert math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-300)

    @given(x=st.floats(-1e12, 1e12), fwhm=st.floats(1e-3, 1e12))
    def test_symmetry_exact_at_zero_center(self, x, fwhm):
        assert lorentzian_peak(x, (0.0, fwhm, 1.0, 0.0)) == lorentzian_peak(-x, (0.0, fwhm, 1.0, 0.0))


def cavity_fwhm(nu_cav, q_factor):
    return CavityModel(nu_cav=nu_cav, q_factor=q_factor, p_peak=0.0).fwhm


class TestCavityFwhm:
    def test_reference_quality_factor_gives_4p7_ghz(self):
        fwhm = cavity_fwhm(NU_1532_8, 4.14e4)
        assert fwhm == pytest.approx(4.724e9, rel=1e-3)
        assert fwhm == pytest.approx(4.7e9, rel=0.01)

    def test_unit_case(self):
        assert cavity_fwhm(1.0, 1.0) == 1.0

    @given(nu=st.floats(1e3, 1e15), q=st.floats(1e-3, 1e9))
    def test_doubling_q_halves_fwhm(self, nu, q):
        assert cavity_fwhm(nu, 2 * q) == pytest.approx(cavity_fwhm(nu, q) / 2, rel=1e-14)

    def test_rejects_bad_q(self):
        with pytest.raises(InvalidParameterError):
            cavity_fwhm(1e14, 0.0)


class TestPurcellProfile:
    def test_on_resonance(self):
        assert purcell_profile(0.0, 460.0, 4.7e9) == 460.0

    def test_half_width(self):
        kappa = 4.7e9
        assert purcell_profile(kappa / 2, 460.0, kappa) == pytest.approx(230.0)

    def test_one_linewidth_detuning(self):
        kappa = 4.7e9
        assert purcell_profile(kappa, 460.0, kappa) == pytest.approx(92.0)

    @given(delta=st.floats(-1e12, 1e12), p=st.floats(0, 1e4), kappa=st.floats(1e3, 1e12))
    def test_even_in_detuning(self, delta, p, kappa):
        assert purcell_profile(delta, p, kappa) == purcell_profile(-delta, p, kappa)

    @given(
        d1=st.floats(0, 1e12),
        d2=st.floats(0, 1e12),
        p=st.floats(0, 1e4),
        kappa=st.floats(1e3, 1e12),
    )
    def test_nonincreasing_in_detuning_magnitude(self, d1, d2, p, kappa):
        lo, hi = sorted((d1, d2))
        assert purcell_profile(hi, p, kappa) <= purcell_profile(lo, p, kappa)


class TestDecayRates:
    def test_large_enhancement_gives_microsecond_lifetime(self):
        gamma = enhanced_decay_rate(1.0 / 1.12e-3, 460.0)
        assert 1.0 / gamma == pytest.approx(2.43e-6, abs=0.005e-6)

    def test_zero_enhancement(self):
        assert enhanced_decay_rate(123.0, 0.0) == 123.0

    def test_unit_case(self):
        assert enhanced_decay_rate(1.0, 1.0) == 2.0

    def test_purcell_from_measured_lifetime_pair(self):
        p = purcell_from_lifetimes(2.43e-6, 1.12e-3)
        assert p == pytest.approx(459.9, abs=0.1)
        assert abs(p - 460.0) <= 1.0

    def test_equal_lifetimes(self):
        assert purcell_from_lifetimes(7.0, 7.0) == 0.0

    def test_double_lifetime(self):
        assert purcell_from_lifetimes(1.0, 2.0) == 1.0

    def test_rejects_nonpositive_lifetimes(self):
        with pytest.raises(InvalidParameterError):
            purcell_from_lifetimes(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            purcell_from_lifetimes(1.0, -1.0)

    @given(p=st.floats(0, 1e4), gamma0=st.floats(1e-2, 1e6))
    def test_roundtrip_through_lifetimes(self, p, gamma0):
        t1 = 1.0 / enhanced_decay_rate(gamma0, p)
        recovered = purcell_from_lifetimes(t1, 1.0 / gamma0)
        assert math.isclose(recovered, p, rel_tol=1e-12, abs_tol=1e-9)


class TestRadiativeLinewidth:
    def test_enhanced_lifetime_value(self):
        expected = 1.0 / (2.0 * math.pi * 2.43e-6)
        value = radiative_linewidth(2.43e-6)
        assert value == expected
        assert value == pytest.approx(65.5e3, rel=1e-3)

    def test_reciprocal_two_pi(self):
        assert radiative_linewidth(1.0 / (2.0 * math.pi)) == pytest.approx(1.0, rel=1e-14)

    def test_reference_lifetime_value(self):
        assert radiative_linewidth(1.12e-3) == pytest.approx(142.0, abs=0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            radiative_linewidth(0.0)

    @given(t1=st.floats(1e-9, 1e3))
    def test_product_identity(self, t1):
        assert abs(radiative_linewidth(t1) * 2.0 * math.pi * t1 - 1.0) < 1e-14


class TestExcitationProbability:
    def test_resonant(self):
        assert excitation_probability(0.0, 10e6, 0.7) == 0.7

    def test_half_maximum(self):
        assert excitation_probability(5e6, 10e6, 0.7) == pytest.approx(0.35)

    def test_far_detuned_limit(self):
        assert excitation_probability(1e15, 10e6, 1.0) < 1e-12

    def test_switched_off_emitter(self):
        assert excitation_probability(0.0, 10e6, 0.0) == 0.0

    @given(delta=st.floats(-1e12, 1e12), gamma_h=st.floats(1.0, 1e10), p=st.floats(0, 1))
    def test_bounded_by_peak(self, delta, gamma_h, p):
        value = excitation_probability(delta, gamma_h, p)
        assert 0.0 <= value <= p


class TestModelInvariants:
    def test_emitter_rejects_bad_fields(self):
        with pytest.raises(InvalidParameterError):
            EmitterModel(nu_ion_0=1e14, gamma_0=0.0, gamma_h=1e6, p_max=0.5)
        with pytest.raises(InvalidParameterError):
            EmitterModel(nu_ion_0=1e14, gamma_0=1.0, gamma_h=0.0, p_max=0.5)
        with pytest.raises(InvalidParameterError):
            EmitterModel(nu_ion_0=1e14, gamma_0=1.0, gamma_h=1e6, p_max=1.5)

    def test_emitter_allows_switched_off(self):
        em = EmitterModel(nu_ion_0=1e14, gamma_0=1.0, gamma_h=1e6, p_max=0.0)
        assert em.p_max == 0.0

    def test_diffusion_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            SpectralDiffusionParams(sigma_fast=-1.0)
        assert SpectralDiffusionParams().is_static

    def test_cavity_derived_fwhm(self):
        cav = CavityModel(nu_cav=1e14, q_factor=1e4, p_peak=0.0)
        assert cav.fwhm == 1e10

    def test_cavity_rejects_a_linewidth_that_underflows(self):
        # both fields are positive, but nu_cav / q_factor rounds to zero
        with pytest.raises(InvalidParameterError, match="nu_cav / q_factor"):
            CavityModel(nu_cav=1e-300, q_factor=1e300, p_peak=1.0)

    def test_branching_fraction(self):
        assert cavity_branching_fraction(0.0) == 0.0
        assert cavity_branching_fraction(460.0) == pytest.approx(460.0 / 461.0)
