"""Analytic expectations for the tests, written from the formulas.

Nothing here imports from ``ersim.physics``: a test that computed its
expectation through the engine's own functions would check the sampling,
not the relations.
"""

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
