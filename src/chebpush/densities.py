"""Catalog of probability densities on [-1, 1].

A Density bundles the analytic pdf/cdf/ppf triple with the metadata the
pushforward machinery needs: interior smoothness breakpoints for piecewise
quadrature, an expandability flag for the Chebyshev-series route, and
optional closed forms in angle space (theta = arccos x). The angle-space
fields exist because pdf(cos theta) * sin theta can lose relative accuracy
near theta = 0 when the pdf is singular at x = 1; a density that knows its
angle form exactly (the arcsine law does: it is constant) supplies it and
every downstream quantity inherits the full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr

from .montecarlo import SampleBatch, uniform_stream

_SQRT_2PI = math.sqrt(2.0 * math.pi)

CATALOG_NAMES = ("arcsine", "uniform", "ramp", "uniform01", "truncated_gaussian")


@dataclass(frozen=True)
class Density:
    """A probability density on a subinterval of [-1, 1].

    pdf/cdf/ppf accept scalars or arrays. breakpoints lists interior
    discontinuities of the pdf (jump locations strictly inside (-1, 1)), and
    the density is discontinuous exactly when it has one; expandable says
    whether the density is bounded so a Chebyshev expansion makes sense.
    angle_pdf(theta) is an optional exact form of pdf(cos theta) * sin theta
    and angle_cdf(theta) of 1 - cdf(cos theta), both on [0, pi].
    """

    name: str
    pdf: Callable
    cdf: Callable
    ppf: Callable
    support: tuple = (-1.0, 1.0)
    expandable: bool = True
    breakpoints: tuple = ()
    angle_pdf: Optional[Callable] = None
    angle_cdf: Optional[Callable] = None

    @property
    def discontinuous(self):
        return bool(self.breakpoints)


def _arcsine():
    def pdf(x):
        arr = np.asarray(x, dtype=float)
        inside = np.abs(arr) < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            val = 1.0 / (np.pi * np.sqrt((1.0 - arr) * (1.0 + arr)))
        out = np.where(inside, val, np.where(np.abs(arr) == 1.0, np.inf, 0.0))
        return float(out) if np.ndim(x) == 0 else out

    def cdf(x):
        arr = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        out = 1.0 - np.arccos(arr) / np.pi
        return float(out) if np.ndim(x) == 0 else out

    def ppf(u):
        arr = np.asarray(u, dtype=float)
        out = -np.cos(np.pi * arr)
        return float(out) if np.ndim(u) == 0 else out

    # arccos(X) is exactly uniform on [0, pi] here; supplying that form keeps
    # pushforward errors at rounding level instead of ~1e-9 near theta = 0.
    def angle_pdf(theta):
        arr = np.asarray(theta, dtype=float)
        return np.full(arr.shape, 1.0 / np.pi)

    def angle_cdf(theta):
        return np.asarray(theta, dtype=float) / np.pi

    return Density(name="arcsine", pdf=pdf, cdf=cdf, ppf=ppf,
                   expandable=False, angle_pdf=angle_pdf, angle_cdf=angle_cdf)


def _uniform():
    def pdf(x):
        arr = np.asarray(x, dtype=float)
        out = np.where(np.abs(arr) <= 1.0, 0.5, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(x):
        arr = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        out = 0.5 * (arr + 1.0)
        return float(out) if np.ndim(x) == 0 else out

    def ppf(u):
        arr = np.asarray(u, dtype=float)
        out = 2.0 * arr - 1.0
        return float(out) if np.ndim(u) == 0 else out

    return Density(name="uniform", pdf=pdf, cdf=cdf, ppf=ppf)


def _ramp():
    """Linear ramp pdf (x + 1) / 2 on [-1, 1]."""

    def pdf(x):
        arr = np.asarray(x, dtype=float)
        out = np.where(np.abs(arr) <= 1.0, 0.5 * (arr + 1.0), 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(x):
        arr = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        out = 0.25 * (arr + 1.0) ** 2
        return float(out) if np.ndim(x) == 0 else out

    def ppf(u):
        arr = np.asarray(u, dtype=float)
        out = 2.0 * np.sqrt(arr) - 1.0
        return float(out) if np.ndim(u) == 0 else out

    return Density(name="ramp", pdf=pdf, cdf=cdf, ppf=ppf)


def _uniform01():
    """Uniform on [0, 1]: bounded but with a jump at x = 0."""

    def pdf(x):
        arr = np.asarray(x, dtype=float)
        out = np.where((arr >= 0.0) & (arr <= 1.0), 1.0, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(x):
        arr = np.asarray(x, dtype=float)
        out = np.clip(arr, 0.0, 1.0)
        return float(out) if np.ndim(x) == 0 else out

    def ppf(u):
        arr = np.asarray(u, dtype=float)
        out = arr.copy() if np.ndim(u) else float(arr)
        return out

    return Density(name="uniform01", pdf=pdf, cdf=cdf, ppf=ppf,
                   support=(0.0, 1.0), breakpoints=(0.0,))


def _bisect_ppf(cdf, u, lo, hi, iters=48):
    """Vectorized bisection inverse of a monotone cdf on [lo, hi].

    48 halvings of a width-2 bracket land within ~7e-15, comfortably past
    the 1e-12 the sampler needs.
    """
    arr = np.asarray(u, dtype=float)
    low = np.full(arr.shape, float(lo))
    high = np.full(arr.shape, float(hi))
    for _ in range(iters):
        mid = 0.5 * (low + high)
        go_right = np.asarray(cdf(mid)) < arr
        low = np.where(go_right, mid, low)
        high = np.where(go_right, high, mid)
    return 0.5 * (low + high)


def _truncated_gaussian(mu, sigma):
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
        arr = np.asarray(x, dtype=float)
        t = (arr - mu) / sigma
        val = np.exp(-0.5 * t * t) / (sigma * _SQRT_2PI * mass)
        out = np.where(np.abs(arr) <= 1.0, val, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(x):
        arr = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        out = (ndtr((arr - mu) / sigma) - lo_cdf) / mass
        out = np.clip(out, 0.0, 1.0)
        return float(out) if np.ndim(x) == 0 else out

    def ppf(u):
        out = _bisect_ppf(cdf, u, -1.0, 1.0)
        return float(out) if np.ndim(u) == 0 else out

    name = f"gauss:{mu:g},{sigma:g}"
    return Density(name=name, pdf=pdf, cdf=cdf, ppf=ppf)


def make_density(name, mu=0.0, sigma=None):
    """Construct a catalog density by name.

    Recognized names: arcsine, uniform, ramp (alias linear_ramp), uniform01,
    truncated_gaussian (alias gauss; requires sigma, mu defaults to 0).
    """
    key = str(name).strip().lower()
    if key == "arcsine":
        return _arcsine()
    if key == "uniform":
        return _uniform()
    if key in ("ramp", "linear_ramp"):
        return _ramp()
    if key == "uniform01":
        return _uniform01()
    if key in ("gauss", "truncated_gaussian"):
        if sigma is None:
            raise ValueError("truncated gaussian needs sigma")
        return _truncated_gaussian(mu, sigma)
    raise ValueError(f"unknown density {name!r}; choose from {CATALOG_NAMES}")


def parse_density(text):
    """Parse a CLI density selector.

    Grammar: arcsine | uniform | ramp | uniform01 | gauss:MU,SIGMA.
    """
    base, _, rest = str(text).partition(":")
    base = base.strip().lower()
    if base in ("gauss", "truncated_gaussian"):
        if not rest:
            raise ValueError("gauss selector needs parameters, e.g. gauss:0,0.25")
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"gauss selector needs MU,SIGMA, got {rest!r}")
        try:
            mu, sigma = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"gauss selector needs numeric MU,SIGMA, got {rest!r}") from None
        return make_density("truncated_gaussian", mu=mu, sigma=sigma)
    if rest:
        raise ValueError(f"density {base!r} takes no parameters")
    return make_density(base)


def catalog():
    """All catalog densities with default parameters, as a tuple."""
    return (_arcsine(), _uniform(), _ramp(), _uniform01(),
            _truncated_gaussian(0.0, 0.25))


def sample(d, n, seed):
    """n inverse-cdf draws from d on the deterministic stream keyed by seed."""
    if int(n) != n or n < 1:
        raise ValueError(f"sample count must be a positive integer, got {n!r}")
    u = uniform_stream(seed, int(n))
    values = np.asarray(d.ppf(u), dtype=float)
    return SampleBatch(values=values, seed=int(seed), n=int(n), k=0, source=d.name)

