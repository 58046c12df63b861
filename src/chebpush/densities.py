"""Catalog of probability densities on [-1, 1].

A Density bundles the analytic pdf/cdf/ppf triple with what the
pushforward machinery needs: the law of theta = arccos X in angle space,
interior smoothness breakpoints for piecewise quadrature, and an
expandability flag for the Chebyshev-series route. Every density carries
its angle law: angle_pdf(theta) = pdf(cos theta) * sin theta and
angle_cdf(theta) = 1 - cdf(cos theta), built from pdf and cdf by _density
unless the builder supplies an exact form. The arcsine law does (its angle
law is uniform), since pdf(cos theta) * sin theta loses relative accuracy
near theta = 0 when the pdf is singular at x = 1.

Each entry of _BUILDERS writes its forms as numpy expressions on float
arrays; _vectorized, applied once in _density, lets them take scalars too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .montecarlo import SampleBatch, uniform_stream

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Density:
    """A probability density on [-1, 1].

    pdf/cdf/ppf accept scalars or arrays; a scalar argument gives a Python
    float, and so do angle_pdf and angle_cdf, the density and the cdf of
    theta = arccos X on [0, pi]. breakpoints lists interior discontinuities
    of the pdf (jump locations strictly inside (-1, 1)), and the density is
    discontinuous exactly when it has one; expandable says whether the
    density is bounded so a Chebyshev expansion makes sense.
    """

    name: str
    pdf: Callable
    cdf: Callable
    ppf: Callable
    angle_pdf: Callable
    angle_cdf: Callable
    expandable: bool = True
    breakpoints: tuple = ()

    @property
    def discontinuous(self):
        return bool(self.breakpoints)


def _vectorized(fn):
    """fn, written for float arrays, as a function that also takes scalars."""

    def wrapped(x):
        out = fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    return wrapped


def _density(name, pdf, cdf, ppf, angle_pdf=None, angle_cdf=None, **meta):
    angle_pdf = angle_pdf or (lambda theta: pdf(np.cos(theta)) * np.sin(theta))
    angle_cdf = angle_cdf or (lambda theta: 1.0 - cdf(np.cos(theta)))
    return Density(name, *map(_vectorized, (pdf, cdf, ppf, angle_pdf, angle_cdf)), **meta)


def _arcsine():
    def pdf(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = 1.0 / (np.pi * np.sqrt((1.0 - x) * (1.0 + x)))
        return np.where(np.abs(x) < 1.0, val, np.where(np.abs(x) == 1.0, np.inf, 0.0))

    # arccos(X) is exactly uniform on [0, pi] here; supplying that form keeps
    # pushforward errors at rounding level instead of ~1e-9 near theta = 0.
    return _density("arcsine", pdf,
                    lambda x: 1.0 - np.arccos(np.clip(x, -1.0, 1.0)) / np.pi,
                    lambda u: -np.cos(np.pi * u), expandable=False,
                    angle_pdf=lambda theta: np.full(np.shape(theta), 1.0 / np.pi),
                    angle_cdf=lambda theta: theta / np.pi)


def _uniform():
    return _density("uniform",
                    lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0),
                    lambda x: 0.5 * (np.clip(x, -1.0, 1.0) + 1.0),
                    lambda u: 2.0 * u - 1.0)


def _ramp():
    """Linear ramp pdf (x + 1) / 2 on [-1, 1]."""
    return _density("ramp",
                    lambda x: np.where(np.abs(x) <= 1.0, 0.5 * (x + 1.0), 0.0),
                    lambda x: 0.25 * (np.clip(x, -1.0, 1.0) + 1.0) ** 2,
                    lambda u: 2.0 * np.sqrt(u) - 1.0)


def _uniform01():
    """Uniform on [0, 1]: bounded but with a jump at x = 0."""
    return _density("uniform01",
                    lambda x: np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0),
                    lambda x: np.clip(x, 0.0, 1.0),
                    np.copy, breakpoints=(0.0,))


def _bisect_ppf(cdf, u):
    """Vectorized bisection inverse on [-1, 1] of a monotone array cdf.

    48 halvings of a width-2 bracket land within ~7e-15, comfortably past
    the 1e-12 the sampler needs.
    """
    low = np.full(u.shape, -1.0)
    high = np.full(u.shape, 1.0)
    for _ in range(48):
        mid = 0.5 * (low + high)
        go_right = cdf(mid) < u
        low = np.where(go_right, mid, low)
        high = np.where(go_right, high, mid)
    return 0.5 * (low + high)


def _gauss(mu, sigma):
    """Normal(mu, sigma) truncated to [-1, 1]."""
    if not (np.isfinite(mu) and np.isfinite(sigma)) or sigma <= 0.0:
        raise ValueError(f"truncated gaussian needs finite mu and sigma > 0, got ({mu}, {sigma})")
    mu = float(mu)
    sigma = float(sigma)
    lo_cdf = float(ndtr((-1.0 - mu) / sigma))
    hi_cdf = float(ndtr((1.0 - mu) / sigma))
    mass = hi_cdf - lo_cdf
    if mass <= 0.0:
        raise ValueError(f"gaussian({mu}, {sigma}) has no mass on [-1, 1]")

    def pdf(x):
        t = (x - mu) / sigma
        val = np.exp(-0.5 * t * t) / (sigma * _SQRT_2PI * mass)
        return np.where(np.abs(x) <= 1.0, val, 0.0)

    def cdf(x):
        out = (ndtr((np.clip(x, -1.0, 1.0) - mu) / sigma) - lo_cdf) / mass
        return np.clip(out, 0.0, 1.0)

    return _density(f"gauss:{mu:g},{sigma:g}", pdf, cdf, lambda u: _bisect_ppf(cdf, u))


# Selector name -> builder. Only gauss takes parameters (mu, sigma).
_BUILDERS = {
    "arcsine": _arcsine,
    "uniform": _uniform,
    "ramp": _ramp,
    "uniform01": _uniform01,
    "gauss": _gauss,
}


def make_density(name, mu=None, sigma=None):
    """Construct a catalog density by name.

    Recognized names: arcsine, uniform, ramp, uniform01, and gauss, which
    requires sigma (mu defaults to 0). mu and sigma given to any other
    density raise ValueError.
    """
    key = str(name).strip().lower()
    if key not in _BUILDERS:
        raise ValueError(f"unknown density {name!r}; choose from {tuple(_BUILDERS)}")
    if key == "gauss":
        if sigma is None:
            raise ValueError("truncated gaussian needs sigma")
        return _gauss(0.0 if mu is None else mu, sigma)
    if mu is not None or sigma is not None:
        raise ValueError(f"density {key!r} takes no parameters")
    return _BUILDERS[key]()


def parse_density(text):
    """Parse a CLI density selector.

    Grammar: arcsine | uniform | ramp | uniform01 | gauss:MU,SIGMA.
    """
    base, _, rest = str(text).partition(":")
    base = base.strip().lower()
    if base != "gauss":
        if rest:
            raise ValueError(f"density {base!r} takes no parameters")
        return make_density(base)
    if not rest:
        raise ValueError("gauss selector needs parameters, e.g. gauss:0,0.25")
    parts = rest.split(",")
    if len(parts) != 2:
        raise ValueError(f"gauss selector needs MU,SIGMA, got {rest!r}")
    try:
        mu, sigma = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"gauss selector needs numeric MU,SIGMA, got {rest!r}") from None
    return make_density("gauss", mu=mu, sigma=sigma)


def sample(d, n, seed):
    """n inverse-cdf draws from d on the deterministic stream keyed by seed."""
    if n < 1 or not float(n).is_integer():
        raise ValueError(f"sample count must be a positive integer, got {n!r}")
    return SampleBatch(np.asarray(d.ppf(uniform_stream(seed, int(n))), dtype=float))
