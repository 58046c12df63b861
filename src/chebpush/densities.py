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
arrays, its pdf as it reads on [-1, 1]. _density masks the public pdf to 0
outside [-1, 1], once for every density, and the default angle law reads
the unmasked form, since cos theta never leaves [-1, 1].
chebpoly._pointwise, applied once in _density, lets the forms take scalars
and lists too.

The truncated gaussian needs the standard normal cdf and its inverse, both
in numpy here. normal_cdf evaluates Phi(-|t|) = exp(-t^2/2) erfcx(|t|/sqrt 2)/2
with erfcx, the scaled complementary error function, as one rational of
degree 10 over 11 in |t| whose coefficients are all positive, and reflects
for t > 0 (Cody's form, fitted once by scripts/fit_normal.py against
mpmath). Its gap to 0.5 * math.erfc(-t / sqrt 2) is at most 2.2e-16 absolute
on [-40, 40] and below 3e-13 relative on [-37, 0], where the rounding of t^2
inside exp dominates. normal_ppf starts from a rational in
sqrt(-2 log p), good to 1.5e-6, and takes two Halley steps on normal_cdf,
so normal_cdf(normal_ppf(p)) = p to rounding for p down to 1e-300. The
gaussian's ppf is mu + sigma * normal_ppf(lo + u * mass), lo being Phi at
the window's lower end and mass its probability; for mu < 0 all three are
taken in the mirror image Phi(-t), so the window is in a lower tail either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebpoly import _index, _pointwise
from .montecarlo import SampleBatch, uniform_stream

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational fits, highest degree first, printed by scripts/fit_normal.py.
# erfcx(s / sqrt 2) ~ _ERFCX_NUM(s) / _ERFCX_DEN(s) on s >= 0, relative 1e-17:
_ERFCX_NUM = (6.550506962335929e-07, 1.925923389977755e-05, 0.0002805165959119677,
              0.0026241650507176327, 0.017308561344303825, 0.08369809598796399, 0.2998885314522669,
              0.786628272891654, 1.4510790556925928, 1.713755568807563, 1.0)
_ERFCX_DEN = (8.209842982479233e-07, 2.4137870120457168e-05, 0.0003523963997063221,
              0.0033130410268369746, 0.02204299807592308, 0.10814063440325047, 0.39685265894828287,
              1.0844559377856435, 2.1545807905767864, 2.9550779374016036, 2.51164012961043, 1.0)
# -normal_ppf(q) ~ _START_NUM(r) / _START_DEN(r), r = sqrt(-2 log q), q <= 1/2,
# to 1.5e-6 (absolute below 1, relative above):
_START_NUM = (0.16295666211185725, 2.1181794968457774, 3.010305669445145, -4.201848998721101,
              -2.9964007190019775)
_START_DEN = (0.1629351825356451, 2.1218962436971447, 3.7708334127196057, 1.0)
# normal_cdf works on |t| capped here, where exp(-t^2/2) is already 0, so
# that neither t^2 nor the powers in P/Q can overflow.
_T_CAP = 40.0
# normal_ppf's floor on the smaller tail: the Halley steps stay clear of
# subnormal cdf values and of an overflowing 1 / pdf.
_P_FLOOR = 1e-300
_HALLEY_STEPS = 2


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


def _density(name, pdf, cdf, ppf, angle_pdf=None, angle_cdf=None, **meta):
    # the angle law closes over the builder's pdf, not over the masked one
    angle_pdf = angle_pdf or (lambda theta: pdf(np.cos(theta)) * np.sin(theta))
    angle_cdf = angle_cdf or (lambda theta: 1.0 - cdf(np.cos(theta)))

    def support_pdf(x):
        # pdf is read only on [-1, 1], so that no point outside can overflow
        inside = np.abs(x) <= 1.0
        return np.where(inside, pdf(np.where(inside, x, 0.0)), 0.0)

    return Density(name, *map(_pointwise, (support_pdf, cdf, ppf, angle_pdf, angle_cdf)),
                   **meta)


def _arcsine():
    def pdf(x):
        # inf at x = +-1
        with np.errstate(divide="ignore"):
            return 1.0 / (np.pi * np.sqrt((1.0 - x) * (1.0 + x)))

    # arccos(X) is exactly uniform on [0, pi] here; supplying that form keeps
    # pushforward errors at rounding level instead of ~1e-9 near theta = 0.
    return _density("arcsine", pdf,
                    lambda x: 1.0 - np.arccos(np.clip(x, -1.0, 1.0)) / np.pi,
                    lambda u: -np.cos(np.pi * u), expandable=False,
                    angle_pdf=lambda theta: np.full(np.shape(theta), 1.0 / np.pi),
                    angle_cdf=lambda theta: theta / np.pi)


def _uniform():
    return _density("uniform",
                    lambda x: np.full(np.shape(x), 0.5),
                    lambda x: 0.5 * (np.clip(x, -1.0, 1.0) + 1.0),
                    lambda u: 2.0 * u - 1.0)


def _ramp():
    """Linear ramp pdf (x + 1) / 2 on [-1, 1]."""
    return _density("ramp",
                    lambda x: 0.5 * (x + 1.0),
                    lambda x: 0.25 * (np.clip(x, -1.0, 1.0) + 1.0) ** 2,
                    lambda u: 2.0 * np.sqrt(u) - 1.0)


def _uniform01():
    """Uniform on [0, 1]: bounded but with a jump at x = 0."""
    return _density("uniform01",
                    lambda x: np.where(x >= 0.0, 1.0, 0.0),
                    lambda x: np.clip(x, 0.0, 1.0),
                    lambda u: u.copy(), breakpoints=(0.0,))


def _horner(coeffs, x):
    out = coeffs[0] * x
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


@_pointwise
def normal_cdf(t):
    """Standard normal cdf Phi(t); see the module docstring for the form."""
    s = np.minimum(np.abs(t), _T_CAP)
    tail = np.exp(-0.5 * s * s)
    tail *= _horner(_ERFCX_NUM, s)
    tail /= _horner(_ERFCX_DEN, s)
    tail *= 0.5
    # tail is Phi(-|t|); where -t has its sign bit set (t > 0 or t = +0),
    # Phi(t) = 1 + (-tail)
    neg = -t
    return np.signbit(neg) + np.copysign(tail, neg)


@_pointwise
def normal_ppf(p):
    """Inverse of normal_cdf on [0, 1], solved in the smaller tail."""
    q = np.minimum(p, 1.0 - p)
    r = np.sqrt(-2.0 * np.log(np.maximum(q, _P_FLOOR)))
    t = -_horner(_START_NUM, r) / _horner(_START_DEN, r)
    for _ in range(_HALLEY_STEPS):
        # Newton step (Phi(t) - q) / phi(t); Phi'' / Phi' = -t gives Halley's factor
        step = (normal_cdf(t) - q) * _SQRT_2PI * np.exp(0.5 * t * t)
        t -= step / (1.0 + 0.5 * t * step)
    return np.where(p > 0.5, -t, t)


def _gauss(mu, sigma):
    """Normal(mu, sigma) truncated to [-1, 1]."""
    if not (np.isfinite(mu) and np.isfinite(sigma)) or sigma <= 0.0:
        raise ValueError(f"truncated gaussian needs finite mu and sigma > 0, got ({mu}, {sigma})")
    mu = float(mu)
    sigma = float(sigma)
    # For mu < 0 the window [-1, 1] lies in the normal's upper tail, where Phi
    # saturates at 1; side = -1 computes there through the mirror image,
    # Phi(-t), whose small values keep their relative precision. Dividing by
    # side * sigma negates t exactly, so mu >= 0 computes as without side.
    side = -1.0 if mu < 0.0 else 1.0
    side_sigma = side * sigma
    lo_cdf = normal_cdf((-1.0 - mu) / side_sigma)
    side_mass = normal_cdf((1.0 - mu) / side_sigma) - lo_cdf
    mass = side * side_mass
    if mass <= 0.0:
        raise ValueError(f"gaussian({mu}, {sigma}) has no mass on [-1, 1]")

    def pdf(x):
        t = (x - mu) / sigma
        return np.exp(-0.5 * t * t) / (sigma * _SQRT_2PI * mass)

    def cdf(x):
        out = (normal_cdf((np.clip(x, -1.0, 1.0) - mu) / side_sigma) - lo_cdf) / side_mass
        # + 0.0 turns the 0 / -mass = -0.0 of side = -1 at x = -1 into 0.0
        return np.clip(out, 0.0, 1.0) + 0.0

    def ppf(u):
        return np.clip(mu + side_sigma * normal_ppf(lo_cdf + u * side_mass), -1.0, 1.0)

    return _density(f"gauss:{mu:g},{sigma:g}", pdf, cdf, ppf)


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
    base, colon, rest = str(text).partition(":")
    base = base.strip().lower()
    if base != "gauss":
        if colon and base in _BUILDERS:
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
    n = _index(n, 1, "sample count")
    return SampleBatch(d.ppf(uniform_stream(seed, n)))
