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
inside exp dominates. normal_ppf is Wichura's AS241 (Appl. Statist. 37,
1988) with its published coefficients, as in CPython's
statistics.NormalDist.inv_cdf: a rational in 0.180625 - q^2, q = p - 1/2,
for |q| <= 0.425, and beyond that rationals in r = sqrt(-log min(p, 1 - p)),
split at r = 5, each evaluated on its own points only and none reading
normal_cdf. Its gap to mpmath's quantile is at most 4.5e-16 absolute for
|t| <= 1 and 5.8e-16 relative beyond, for p down to 1e-300, where p is
floored, so p = 0 and 1 give -+37.047, finite. The gaussian's ppf is
mu + sigma * normal_ppf(lo + u * mass), lo being Phi at the window's lower
end and mass its probability; for mu < 0 all three are taken in the mirror
image Phi(-t), so the window is in a lower tail either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebpoly import _in_chunks, _index, _pointwise
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
# normal_cdf and the gaussian's pdf and cdf work on |t| capped here, where
# exp(-t^2/2) is already 0, so that neither t^2 nor the powers in P/Q can
# overflow.
_T_CAP = 40.0
# Wichura's AS241 (Appl. Statist. 37, 1988), highest degree first, as
# published: normal_ppf's central rational in 0.180625 - q^2, q = p - 1/2,
_AS241_MID_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
                  4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
                  1.3314166789178437745e+2, 3.3871328727963666080e+0)
_AS241_MID_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
                  2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
                  4.2313330701600911252e+1, 1.0)
# and its tail rationals in r - 1.6 for r <= 5 and in r - 5 beyond,
# r = sqrt(-log min(p, 1 - p)):
_AS241_NEAR_NUM = (7.74545014278341407640e-4, 2.27238449892691845833e-2,
                   2.41780725177450611770e-1, 1.27045825245236838258e+0,
                   3.64784832476320460504e+0, 5.76949722146069140550e+0,
                   4.63033784615654529590e+0, 1.42343711074968357734e+0)
_AS241_NEAR_DEN = (1.05075007164441684324e-9, 5.47593808499534494600e-4,
                   1.51986665636164571966e-2, 1.48103976427480074590e-1,
                   6.89767334985100004550e-1, 1.67638483018380384940e+0,
                   2.05319162663775882187e+0, 1.0)
_AS241_FAR_NUM = (2.01033439929228813265e-7, 2.71155556874348757815e-5,
                  1.24266094738807843860e-3, 2.65321895265761230930e-2,
                  2.96560571828504891230e-1, 1.78482653991729133580e+0,
                  5.46378491116411436990e+0, 6.65790464350110377720e+0)
_AS241_FAR_DEN = (2.04426310338993978564e-15, 1.42151175831644588870e-7,
                  1.84631831751005468180e-5, 7.86869131145613259100e-4,
                  1.48753612908506148525e-2, 1.36929880922735805310e-1,
                  5.99832206555887937690e-1, 1.0)
# normal_ppf's floor on the smaller tail, so that p = 0 and 1 give finite
# values, -+Phi^-1(1e-300).
_P_FLOOR = 1e-300


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
    """Inverse of normal_cdf on [0, 1] by Wichura's AS241; see the module docstring."""
    flat = np.ravel(p)
    q = flat - 0.5
    x = np.empty_like(q)
    # each of the three rationals is evaluated on its own points only
    central = np.abs(q) <= 0.425
    mid, tail = np.flatnonzero(central), np.flatnonzero(~central)  # nan is in the tail
    q_mid = q[mid]
    r = 0.180625 - q_mid * q_mid
    x[mid] = q_mid * _horner(_AS241_MID_NUM, r) / _horner(_AS241_MID_DEN, r)
    p_tail = flat[tail]
    r = np.sqrt(-np.log(np.maximum(np.minimum(p_tail, 1.0 - p_tail), _P_FLOOR)))
    near = r <= 5.0
    r_near, r_far = r[near] - 1.6, r[~near] - 5.0
    r[near] = _horner(_AS241_NEAR_NUM, r_near) / _horner(_AS241_NEAR_DEN, r_near)
    r[~near] = _horner(_AS241_FAR_NUM, r_far) / _horner(_AS241_FAR_DEN, r_far)
    x[tail] = np.where(p_tail < 0.5, -r, r)
    return x.reshape(np.shape(p))


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

    # |x - mu| is capped at cap before it is divided by sigma, so that no
    # quotient can overflow however small sigma is
    cap = _T_CAP * sigma

    def pdf(x):
        t = np.clip(x - mu, -cap, cap) / sigma
        return np.exp(-0.5 * t * t) / (sigma * _SQRT_2PI * mass)

    def cdf(x):
        t = np.clip(np.clip(x, -1.0, 1.0) - mu, -cap, cap) / side_sigma
        out = (normal_cdf(t) - lo_cdf) / side_mass
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
    """n inverse-cdf draws from d on the deterministic stream keyed by seed.

    d.ppf is applied to the stream at most SUM_CHUNK variates at a time,
    each chunk's draws written back over its variates, so beyond the n
    draws the memory held is one chunk's. Every ppf is pointwise, so the
    draws are d.ppf(uniform_stream(seed, n)) bit for bit.
    """
    n = _index(n, 1, "sample count")
    u = uniform_stream(seed, n)
    return SampleBatch(_in_chunks(d.ppf, u, u))
