"""Exact and asymptotic distributions of Chebyshev-polynomial pushforwards.

For a random variable X on [-1, 1] and the Chebyshev polynomial T_k, this
package computes the distribution of T_k(X) exactly (density and cdf), by
aliasing the input's Chebyshev series at any k, and by a second-order
asymptotic expansion, and provides the sampling and diagnostic tooling to
verify that everything converges to the arcsine law at the predicted rate.
"""

from .chebpoly import cheb_eval
from .densities import (
    Density,
    make_density,
    parse_density,
    sample,
)
from .montecarlo import (
    KSResult,
    SampleBatch,
    histogram,
    ks_statistic,
    push_samples,
    uniform_stream,
)
from .pushforward import (
    LIMIT_BOUNDED_FACTOR,
    ConvergenceReport,
    asymptotic_bounded_factor,
    bounded_factor,
    convergence_report,
    default_grid,
    mass_left_of_zero,
    pushforward_cdf,
    pushforward_mass,
    pushforward_pdf,
    series_bounded_factor,
    series_cdf,
    sup_error,
)
from .spectral import (
    ChebSeries,
    decayed_expansion,
    even_moment_sum,
    expand_density,
    normalization_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ChebSeries",
    "ConvergenceReport",
    "Density",
    "KSResult",
    "LIMIT_BOUNDED_FACTOR",
    "SampleBatch",
    "asymptotic_bounded_factor",
    "bounded_factor",
    "cheb_eval",
    "convergence_report",
    "decayed_expansion",
    "default_grid",
    "even_moment_sum",
    "expand_density",
    "histogram",
    "ks_statistic",
    "make_density",
    "mass_left_of_zero",
    "normalization_residual",
    "parse_density",
    "push_samples",
    "pushforward_cdf",
    "pushforward_mass",
    "pushforward_pdf",
    "sample",
    "series_bounded_factor",
    "series_cdf",
    "sup_error",
    "uniform_stream",
]
