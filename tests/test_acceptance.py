"""Acceptance gate: the package's load-bearing numerical claims.

Each test pins one claim at its stated tolerance and runtime budget,
prints a single pass/fail line, and asserts. The claims are deliberately
end-to-end: they exercise the public API the way the command line does.

A runtime budget times the library calls only. Where a test builds its
expected values with an oracle from `oracles.py`, the oracle runs outside
the timed region and its time is printed beside the budget, so no gate
depends on how slow an oracle is.

One test is expected to fail and is kept failing on purpose:
criterion 4's narrow-gaussian half. For a bump of width sigma the
distance of S_k from 1/pi is dominated by a term that decays like
exp(-k^2 sigma^2 / 2) until the boundary-driven 1/k^2 term (whose
coefficient is proportional to pdf(1) + pdf(-1), about 1e-3 for
sigma = 0.25) takes over near k ~ 32. The quadratic regime therefore has
not set in over the k-window the criterion measures, and no correct
implementation can land in the stated band. The tolerance is kept rather
than loosened; see the test for the measured numbers.
"""

import time

import numpy as np

from chebpush.densities import make_density, parse_density, sample
from chebpush.montecarlo import SampleBatch, ks_statistic, push_samples
from chebpush.pushforward import (
    bounded_factor,
    asymptotic_bounded_factor,
    default_grid,
    mass_left_of_zero,
    pushforward_cdf,
    pushforward_mass,
    pushforward_pdf,
    series_bounded_factor,
    sup_error,
)
from chebpush.spectral import expand_density, normalization_residual

from oracles import branch_pushforward_pdf

GAUSS = "gauss:0,0.25"
CATALOG = ("arcsine", "uniform", "ramp", "uniform01", GAUSS)


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def _fit_order(ks, errs):
    return float(np.polyfit(np.log(np.asarray(ks, float)), np.log(np.asarray(errs)), 1)[0])


def test_criterion_01_arcsine_invariance():
    # arcsine input, every k up to 64: S_k sits on 1/pi to 1e-13 on the grid
    arc = make_density("arcsine")
    t0 = time.perf_counter()
    worst = max(sup_error(arc, k, grid=201) for k in range(1, 65))
    dt = time.perf_counter() - t0
    ok = worst < 1e-13 and dt < 1.0
    line = _report("arcsine_invariance", ok,
                   f"max |S_k - 1/pi| = {worst:.3e} (tol 1e-13), {dt:.2f} s (budget 1 s)")
    assert ok, line


def test_criterion_02_identity_anchor():
    # k = 1 reproduces the input pdf on the grid for every catalog density
    z = default_grid(201)
    worst = 0.0
    for name in CATALOG:
        d = parse_density(name)
        gap = float(np.max(np.abs(pushforward_pdf(d, 1, z) - np.asarray(d.pdf(z)))))
        worst = max(worst, gap)
    ok = worst < 1e-12
    line = _report("identity_anchor", ok, f"max pdf gap at k=1 = {worst:.3e} (tol 1e-12)")
    assert ok, line


def test_criterion_03_small_k_oracle():
    # k in {2, 3}: the analytic pushforward matches brute-force branchwise
    # inversion with exact sign tests; the budget times the library only
    t0 = time.perf_counter()
    z = np.cos(np.linspace(0.05, np.pi - 0.05, 41))
    cases = []
    for name in ("uniform", "ramp", GAUSS):
        d = parse_density(name)
        for k in (2, 3):
            cases.append((d, k, pushforward_pdf(d, k, z)))
    uni = make_density("uniform")
    closed = float(np.max(np.abs(pushforward_pdf(uni, 2, z)
                                 - 1.0 / (2.0 * np.sqrt(2.0 * (1.0 + z))))))
    dt = time.perf_counter() - t0
    t0 = time.perf_counter()
    worst = 0.0
    for d, k, vals in cases:
        oracle = np.array([branch_pushforward_pdf(d, k, zz) for zz in z])
        worst = max(worst, float(np.max(np.abs(vals - oracle))))
    dt_oracle = time.perf_counter() - t0
    ok = worst < 1e-9 and closed < 1e-9 and dt < 1.0
    line = _report("small_k_oracle", ok,
                   f"max gap vs branch oracle = {worst:.3e}, uniform k=2 closed form "
                   f"gap = {closed:.3e} (tol 1e-9), {dt:.2f} s (budget 1 s), "
                   f"oracle {dt_oracle:.2f} s (untimed)")
    assert ok, line


def test_criterion_04_quadratic_convergence():
    # sup error should shrink 4x per doubling of k and fit a log-log slope
    # of -2 over k = 8..128; holds for uniform, provably not yet for the
    # narrow gaussian (see module docstring), which keeps this test red
    t0 = time.perf_counter()
    details = []
    ok = True
    ks_fit = tuple(range(8, 129))
    for name in ("uniform", GAUSS):
        d = parse_density(name)
        errs = {k: sup_error(d, k) for k in (16, 32, 64, 128)}
        ratios = [errs[k] / errs[2 * k] for k in (16, 32, 64)]
        order = _fit_order(ks_fit, [sup_error(d, k) for k in ks_fit])
        part_ok = all(3.5 < r < 4.5 for r in ratios) and -2.2 < order < -1.8
        ok = ok and part_ok
        details.append(f"{name}: ratios {', '.join(f'{r:.2f}' for r in ratios)}, "
                       f"order {order:.3f} ({'ok' if part_ok else 'out of band'})")
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    line = _report("quadratic_convergence", ok,
                   f"{'; '.join(details)} (ratio band [3.5, 4.5], order band "
                   f"[-2.2, -1.8]), {dt:.2f} s (budget 5 s)")
    assert ok, line


def test_criterion_05_asymptotic_expansion_order():
    # the residual after subtracting the second-order expansion decays
    # like k^-4 for uniform input
    t0 = time.perf_counter()
    d = make_density("uniform")
    s = expand_density(d)
    z = default_grid(201)
    ks = (16, 32, 64, 128)
    errs = [float(np.max(np.abs(bounded_factor(d, k, z)
                                - asymptotic_bounded_factor(s, k, z)))) for k in ks]
    order = _fit_order(ks, errs)
    dt = time.perf_counter() - t0
    ok = -4.4 < order < -3.6 and dt < 5.0
    line = _report("asymptotic_expansion_order", ok,
                   f"fitted order {order:.3f} (band [-4.4, -3.6]), {dt:.2f} s (budget 5 s)")
    assert ok, line


def test_criterion_06_normalization():
    # the pushforward integrates to 1 for every catalog density and k <= 32
    t0 = time.perf_counter()
    worst = 0.0
    for name in CATALOG:
        d = parse_density(name)
        for k in range(1, 33):
            worst = max(worst, abs(pushforward_mass(d, k) - 1.0))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 10.0
    line = _report("normalization", ok,
                   f"max |mass - 1| = {worst:.3e} (tol 1e-6), {dt:.2f} s (budget 10 s)")
    assert ok, line


def test_criterion_07_constraint_identity():
    # coefficient sums weighted by the basis integrals reproduce mass 1:
    # at rounding level for the polynomial densities, 1e-8 for the gaussian
    t0 = time.perf_counter()
    exact = {name: normalization_residual(expand_density(make_density(name)))
             for name in ("uniform", "ramp")}
    gauss = normalization_residual(expand_density(parse_density(GAUSS)))
    dt = time.perf_counter() - t0
    ok = max(exact.values()) < 1e-14 and gauss < 1e-8 and dt < 1.0
    line = _report("constraint_identity", ok,
                   f"uniform {exact['uniform']:.2e}, ramp {exact['ramp']:.2e} "
                   f"(tol 1e-14), gauss {gauss:.2e} (tol 1e-8), {dt:.2f} s (budget 1 s)")
    assert ok, line


def test_criterion_08_closed_form_equivalence():
    # the series reassembly of S_k (aliasing of the input's Chebyshev
    # series) matches the direct angle sum for every k up to 64, odd and even
    t0 = time.perf_counter()
    z = default_grid(201)
    worst = 0.0
    for name in ("uniform", GAUSS):
        d = parse_density(name)
        s = expand_density(d)
        for k in range(1, 65):
            gap = float(np.max(np.abs(series_bounded_factor(s, k, z)
                                      - bounded_factor(d, k, z))))
            worst = max(worst, gap)
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 5.0
    line = _report("closed_form_equivalence", ok,
                   f"max series-vs-direct gap = {worst:.3e} (tol 1e-8), "
                   f"{dt:.2f} s (budget 5 s)")
    assert ok, line


def test_criterion_09_monte_carlo_consistency():
    # a million pushed samples match the exact distribution function at the
    # KS threshold for every density, including the jump density
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("uniform", GAUSS, "uniform01", "arcsine"):
        d = parse_density(name)
        draws = sample(d, 1_000_000, seed=42)
        for k in (8, 32):
            # the push is written over its array, so each k pushes a copy
            res = ks_statistic(SampleBatch(push_samples(draws.copy(), k)),
                               lambda x, d=d, k=k: pushforward_cdf(d, k, x))
            ok = ok and res.passed
            details.append(f"{name} k={k}: {res.statistic:.2e}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    line = _report("monte_carlo_consistency", ok,
                   f"KS vs exact cdf {'; '.join(details)} (threshold 1.95e-3), "
                   f"{dt:.2f} s (budget 30 s)")
    assert ok, line


def test_criterion_10_dance_pattern():
    # a centered bump hops between the endpoints with period two in even k
    # (mass left of zero alternates around 1/2) and has essentially
    # converged by k = 24
    t0 = time.perf_counter()
    d = parse_density(GAUSS)
    masses = {k: mass_left_of_zero(d, k) for k in (2, 4, 6, 8)}
    sup8, sup24 = sup_error(d, 8), sup_error(d, 24)
    dt = time.perf_counter() - t0
    ok = (masses[2] > 0.5 and masses[6] > 0.5 and masses[4] < 0.5 and masses[8] < 0.5
          and sup24 < sup8 and dt < 1.0)
    line = _report("dance_pattern", ok,
                   f"mass left of zero {', '.join(f'k={k}: {m:.4f}' for k, m in masses.items())}; "
                   f"sup error k=24 {sup24:.3e} < k=8 {sup8:.3e}: {sup24 < sup8}, "
                   f"{dt:.2f} s (budget 1 s)")
    assert ok, line
