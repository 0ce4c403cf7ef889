"""Analytic expectations for the tests, written from the formulas.

Nothing here imports from ``ersim.physics``: a test that computed its
expectation through the engine's own functions would check the sampling,
not the relations.
"""

import math

from ersim.errors import InvalidParameterError


def dark_count_floor(signal_rate_per_shot, dark_rate, t_coll, n_shots):
    """Expected coincidences per offset bin that involve at least one dark click.

    Dark clicks are i.i.d. across shots, so the floor is the same for every
    offset: n_shots * (2 S B + B^2) with S the mean signal clicks per shot and
    B = dark_rate * t_coll.
    """
    if not all(v >= 0 for v in (signal_rate_per_shot, dark_rate, t_coll, n_shots)):
        raise InvalidParameterError("rates, t_coll and n_shots must be >= 0")
    b = dark_rate * t_coll
    return n_shots * (2.0 * signal_rate_per_shot * b + b * b)


def enhanced_lifetime(gamma_0, purcell):
    """Lifetime 1 / (gamma_0 (1 + P)) of an emitter of bare decay rate gamma_0 at Purcell factor P."""
    return 1.0 / (gamma_0 * (1.0 + purcell))


def clicks_per_shot(config, laser):
    """Click probability in one shot of each emitter of ``config``, at laser frequency ``laser``.

    excitation x P / (P + 1) x efficiency x capture: the excitation line is a
    Lorentzian of FWHM gamma_h and peak p_max about the emitter's frequency;
    P = p_peak / (1 + (2 delta / kappa)^2) is the Purcell factor at the
    emitter's detuning delta from the cavity of FWHM kappa = nu_cav / Q; and
    capture = 1 - exp(-t_coll / t1) is the share of decays, at the enhanced
    lifetime t1, inside the collection window.
    """
    cavity, t_coll = config.cavity, config.sequence.t_coll
    kappa = cavity.nu_cav / cavity.q_factor
    probs = []
    for em in config.emitters:
        p = cavity.p_peak / (1.0 + (2.0 * (em.nu_ion_0 - cavity.nu_cav) / kappa) ** 2)
        half = 0.5 * em.gamma_h
        excitation = em.p_max * (half**2 / (half**2 + (laser - em.nu_ion_0) ** 2))
        capture = 1.0 - math.exp(-t_coll / enhanced_lifetime(em.gamma_0, p))
        probs.append(excitation * (p / (p + 1.0)) * config.detector.efficiency * capture)
    return probs


def g2_zero(probs, dark_mean):
    """Pulsed g2(0) of independent emitters plus Poisson dark counts.

    Emitter i clicks at most once a shot, with probability ``probs[i]``; the
    dark counts of a shot are Poisson of mean ``dark_mean``.  With N the
    clicks of a shot, g2(0) = E[N (N - 1)] / E[N]^2, where E[N] = S + mu for
    S = sum p_i and Var N = S - sum p_i^2 + mu; so
    g2(0) = 1 - sum p_i^2 / (S + mu)^2.
    """
    s = sum(probs)
    return 1.0 - sum(p * p for p in probs) / (s + dark_mean) ** 2


def signal_fraction(probs, dark_mean):
    """Signal fraction rho = S / (S + mu) of the clicks, S = sum p_i (see ``g2_zero``)."""
    s = sum(probs)
    return s / (s + dark_mean)
