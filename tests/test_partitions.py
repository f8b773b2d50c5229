"""Partition-of-unity construction and identities."""

import warnings

import numpy as np
import pytest

from plcalc.partitions import (
    _chi_values,
    build_bump,
    build_equidistant,
    build_homogeneous_dyadic,
    even_extension,
    tilde,
    to_inhomogeneous,
    validate_partition,
)


@pytest.fixture(scope="module")
def bump():
    return build_bump()


@pytest.fixture(scope="module")
def hom(bump):
    return build_homogeneous_dyadic(bump)


def test_bump_plateaus_and_midpoint(bump):
    assert bump(np.array([0.5]))[0] == 1.0
    assert bump(np.array([2.5]))[0] == 0.0
    # g(2-t) = g(t-1) at t = 3/2 by symmetry of the construction
    assert bump(np.array([1.5]))[0] == pytest.approx(0.5, abs=1e-14)


def masked_chi(t):
    """chi evaluated only where each exponential is defined (g(s) = 0 for s <= 0)."""
    def g(s):
        out = np.zeros_like(s)
        pos = s > 0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[pos] = np.exp(-1.0 / s[pos])
        return out

    num = g(2.0 - t)
    den = num + g(t - 1.0)
    out = np.ones_like(t)
    band = t > 1.0
    out[band] = num[band] / den[band]
    out[t >= 2.0] = 0.0
    return out


def test_chi_closed_form_equals_masked_form():
    edges = [0.0, 1.0, 2.0, 1e300, -1e300, np.nan]
    edges += [np.nextafter(e, d) for e in (1.0, 2.0) for d in (0.0, 3.0)]
    t = np.concatenate([np.linspace(-3.0, 5.0, 80001), 1.0 + np.logspace(-300, 0, 601),
                        2.0 - np.logspace(-300, 0, 601), edges])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = _chi_values(t)
    np.testing.assert_array_equal(v, masked_chi(t))
    assert np.all(v[np.isnan(t)] == 1.0)     # NaN falls on the t <= 1 plateau


def test_bump_monotone_and_bounded(bump):
    t = np.linspace(0.0, 3.0, 1201)
    v = bump(t)
    assert np.all(v >= 0) and np.all(v <= 1)
    assert np.all(np.diff(v) <= 1e-15)


def test_bump_derivatives_vanish_on_plateaus(bump):
    for k in range(1, 9):
        assert np.all(bump.derivative(k, np.array([0.3, 0.999, 2.001, 5.0])) == 0.0)


def test_bump_derivative_matches_finite_difference(bump):
    t = np.linspace(1.05, 1.95, 41)
    h = 1e-6
    fd = (bump(t + h) - bump(t - h)) / (2 * h)
    assert np.max(np.abs(bump.derivative(1, t) - fd)) < 1e-6


def test_homogeneous_window_values(hom):
    assert hom.window(0, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert hom.window(0, np.array([0.4]))[0] == 0.0
    assert hom.window(0, np.array([2.1]))[0] == 0.0


def test_homogeneous_sum_to_one(hom):
    t = np.logspace(np.log10(2.0**-30), np.log10(2.0**30), 4000)
    total = sum(hom.window(n, t) for n in range(-40, 41))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_dilation_covariance_exact(hom):
    t = np.logspace(-2, 2, 500)
    for n in (-3, 2, 7):
        assert np.array_equal(hom.window(n, t), hom.window(0, t * 2.0**-n))


def test_inhomogeneous_phi0_is_telescoped_tail(hom):
    inh = to_inhomogeneous(hom)
    t = np.logspace(-6, np.log10(2.0), 200)
    # phi0 = sum_{k <= 0} hom windows = chi; equals 1 for t <= 1
    tail = sum(hom.window(k, t) for k in range(-40, 1))
    assert np.max(np.abs(inh.window(0, t) - tail)) < 1e-12
    assert np.all(inh.window(0, t[t <= 1.0]) == 1.0)
    assert inh.window(0, np.array([2.1]))[0] == 0.0


def test_inhomogeneous_sum_to_one(hom):
    inh = to_inhomogeneous(hom)
    t = np.logspace(-8, 8, 2000)
    total = sum(inh.window(n, t) for n in range(0, 30))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_equidistant_sum_support_and_center(bump):
    equi = build_equidistant(bump)
    t = np.linspace(-10, 10, 2001)
    total = sum(equi.window(n, t) for n in range(-12, 13))
    assert np.max(np.abs(total - 1.0)) < 1e-12
    assert equi.window(0, np.array([-1.5]))[0] == 0.0
    assert equi.window(0, np.array([1.5]))[0] == 0.0
    assert equi.window(0, np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-15)
    # translation covariance is the same code path
    assert np.array_equal(equi.window(5, t), equi.window(0, t - 5))


def test_even_extension(hom):
    ev = even_extension(hom)
    assert ev.window(0, np.array([-1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert ev.window(0, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert ev.window(0, np.array([0.0]))[0] == 0.0
    t = np.concatenate([-np.logspace(-3, 3, 400), np.logspace(-3, 3, 400)])
    total = sum(ev.window(n, t) for n in range(-15, 15))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_tilde_widened_window_identities(hom):
    wide = tilde(hom, 0)
    assert wide(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    t = np.linspace(0.5, 2.0, 301)
    assert np.max(np.abs(wide(t) * hom.window(0, t) - hom.window(0, t))) < 1e-12
    # disjoint supports two or more indices apart
    t = np.logspace(-3, 3, 800)
    assert np.max(np.abs(wide(t) * hom.window(3, t))) == 0.0


def test_tilde_inhomogeneous_truncates_below_zero(hom):
    inh = to_inhomogeneous(hom)
    wide = tilde(inh, 0)
    t = np.logspace(-4, np.log10(4.0), 300)
    assert np.max(np.abs(wide(t) * inh.window(0, t) - inh.window(0, t))) < 1e-12


def test_window_smoothness_via_finite_differences(hom):
    # central differences up to order 6 stay bounded under refinement
    for k in (2, 4, 6):
        prev = None
        for n_pts in (400, 800):
            t = np.linspace(0.25, 4.0, n_pts)
            h = t[1] - t[0]
            v = hom.window(0, t)
            d = np.diff(v, k) / h**k
            bound = np.max(np.abs(d))
            if prev is not None:
                assert bound < 10 * max(prev, 1e3)  # no blow-up: continuous deriv
            prev = bound


def test_active_index_truncation(hom):
    lo, hi = 0.3, 40.0
    n0, n1 = hom.active_range(lo, hi)
    spectrum = np.logspace(np.log10(lo), np.log10(hi), 300)
    for n in (n0 - 1, n0 - 3, n1 + 1, n1 + 4):
        assert np.max(np.abs(hom.window(n, spectrum))) == 0.0


def test_validate_partition_report(hom):
    grid = np.logspace(-6, 6, 1500)
    rep = validate_partition(hom, grid)
    assert rep.ok
    assert rep.max_sum_defect <= 1e-10
    assert rep.max_overlap_count == 2
    assert rep.support_violation == 0.0
