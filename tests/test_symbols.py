"""Symbols, decay certificates, and the multiplier-norm estimators."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from plcalc.partitions import build_homogeneous_dyadic
from plcalc.symbols import (
    STABILITY_RTOL,
    NormStabilityError,
    Symbol,
    SymbolError,
    besov_norm_inf_1,
    iterated_difference,
    make_symbol,
    mihlin_norm,
    window_symbol,
)


@pytest.fixture(scope="module")
def hom():
    return build_homogeneous_dyadic()


def test_shipped_symbol_values():
    assert make_symbol("rho")(np.array([1.0]))[0] == pytest.approx(0.25, abs=1e-15)
    psi = make_symbol("psi_exp", a=1.0, b=1.0)
    assert psi(np.array([1.0]))[0] == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert make_symbol("power", theta=0.5)(np.array([4.0]))[0] == pytest.approx(2.0)
    assert abs(make_symbol("imag_power", s=0.7)(np.array([5.0]))[0]) == pytest.approx(1.0)


def test_symbol_parameter_validation():
    with pytest.raises(SymbolError):
        make_symbol("psi_exp", a=1.0, b=1.0, theta=2.0)   # theta is the norm's weight
    with pytest.raises(SymbolError):
        make_symbol("psi_res", a=1.0, b=0.5, lambda0=2.0)  # lambda0 on [0, inf)
    with pytest.raises(SymbolError):
        make_symbol("psi_res", a=2.0, b=0.5, lambda0=-1.0)  # a >= b
    with pytest.raises(SymbolError):
        make_symbol("res_frac", a=0.5, b=0.2)   # a >= b


def test_derivatives_load_no_third_party_package_but_numpy():
    # covers scipy (wanted only by the LU oracle) and any symbolic package;
    # smoothness is measured by the iterated differences of mihlin_norm
    code = """
import sys
import numpy as np

before = set(sys.modules)
import plcalc
from plcalc.partitions import build_homogeneous_dyadic
from plcalc.symbols import make_symbol, mihlin_norm, window_symbol

t = np.linspace(0.5, 2.5, 41)
for sym in (make_symbol("power", theta=0.5), make_symbol("rho"), make_symbol("exp"),
            make_symbol("psi_exp", a=2.0, b=1.0),
            make_symbol("psi_res", a=0.5, b=1.5, lambda0=-1 + 1j),
            make_symbol("res_frac", a=0.5, b=2.0), make_symbol("imag_power", s=0.7)):
    assert np.all(np.isfinite(sym(t)))
assert np.all(np.isfinite(window_symbol(build_homogeneous_dyadic(), 0)(t)))
assert mihlin_norm(make_symbol("rho"), alpha=1.5, window=(-8, 8)).value < np.inf
added = {m.split(".")[0] for m in set(sys.modules) - before}
third_party = sorted(added - set(sys.stdlib_module_names) - {"numpy", "plcalc"})
assert not third_party, third_party
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_decay_certificates_hold_on_sample():
    for sym in (make_symbol("rho"), make_symbol("psi_exp", a=2.0, b=1.0),
                make_symbol("res_frac", a=1.0, b=2.0)):
        cert = sym.decay
        r = np.logspace(-8, 8, 200)
        vals = np.abs(np.asarray(sym(r), dtype=complex))
        envelope = cert.C * np.minimum(r**cert.eps0, r**-cert.eps_inf)
        assert np.all(vals <= envelope * (1 + 1e-12))


def test_a_certificate_that_leaves_the_float_range_is_refused_by_kind():
    # the constant of psi_exp(100, 1) is about 1e376; its sample over- and
    # underflows to inf and NaN, which once read as the constant 0
    with pytest.raises(SymbolError, match="^psi_exp has no finite decay certificate"):
        make_symbol("psi_exp", a=100.0, b=1.0)
    # an envelope power that overflows where the other one is the minimum
    # leaves the constant finite, and is fitted without a warning
    assert 0 < make_symbol("psi_exp", a=38.0, b=1.0).decay.C < np.inf


def test_iterated_difference_annihilates_low_degree():
    g = lambda x: 3.0 - 2.0 * x + 0.5 * x**2
    d = iterated_difference(g, 3, 0.37, np.linspace(-2, 2, 50))
    assert np.max(np.abs(d)) < 1e-12


@pytest.mark.parametrize("M", [1, 2, 3])
def test_iterated_difference_evaluates_h_free_term_once(M):
    # the estimator's layout: h as a column, x as a row, both signs of h
    import math

    points = []

    def g(x):
        points.append(np.size(x))
        return np.sin(x) + 1j * np.cos(3 * x)

    xs = np.linspace(-2.0, 2.0, 11)[None, :]
    for hs in (np.logspace(-6, 0, 7)[:, None], -np.logspace(-6, 0, 7)[:, None]):
        points.clear()
        d = iterated_difference(g, M, hs, xs)
        assert sum(points) == xs.size + M * hs.size * xs.size
        term_by_term = np.zeros(d.shape, dtype=complex)
        for j in range(M + 1):
            term_by_term += (-1.0) ** (M - j) * math.comb(M, j) * g(xs + j * hs)
        np.testing.assert_array_equal(d, term_by_term)


@pytest.mark.parametrize("seed", range(3))
def test_difference_product_rule(seed):
    # D_h^M(g k) = sum_m C(M,m) D_h^m g * D_h^(M-m) tau_{mh} k
    import math

    rng = np.random.default_rng(seed)
    a1, a2, b1, b2 = rng.uniform(0.3, 2.0, 4)
    g = lambda x: np.sin(a1 * x) + 0.3 * np.cos(b1 * x)
    k = lambda x: np.exp(np.sin(a2 * x) * 0.5) + b2 * x**2 / (1 + x**2)
    gk = lambda x: g(x) * k(x)
    x = np.linspace(-3, 3, 41)
    M, h = 3, 0.21
    lhs = iterated_difference(gk, M, h, x)
    rhs = np.zeros_like(lhs)
    for m in range(M + 1):
        rhs += (math.comb(M, m) * iterated_difference(g, m, h, x)
                * iterated_difference(lambda y, m=m: k(y + m * h), M - m, h, x))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_besov_of_constant_is_the_constant():
    est = besov_norm_inf_1(lambda x: 2.5 * np.ones_like(x), alpha=1.0, M=2,
                           window=(-4, 4))
    assert est.value == pytest.approx(2.5, abs=1e-12)


def test_besov_annihilates_polynomials_below_M():
    # D^M_h kills the polynomial exactly; what is left of the integral term
    # is binomial-cancellation roundoff amplified by |h|^-alpha at h_min,
    # a relative noise floor of order eps * h_min^-alpha ~ 1e-6
    g = lambda x: 1.0 + 0.2 * x + 0.03 * x**2
    est = besov_norm_inf_1(g, alpha=1.5, M=3, window=(-2, 2))
    sup = np.max(np.abs(g(np.linspace(-2, 2, 1024))))
    assert est.value == pytest.approx(sup, rel=2e-5)


def test_besov_sin_finite_and_monotone_in_alpha():
    vals = []
    for alpha in (0.5, 1.0, 1.5):
        est = besov_norm_inf_1(np.sin, alpha=alpha, M=2, window=(-6, 6))
        vals.append(est.value)
    assert all(np.isfinite(v) for v in vals)
    assert vals[0] <= vals[1] <= vals[2]   # |h|^-alpha grows with alpha on |h|<1


def test_besov_requires_m_above_alpha():
    with pytest.raises(SymbolError):
        besov_norm_inf_1(np.sin, alpha=2.0, M=2)


def test_mihlin_norm_of_one_is_one():
    one = Symbol(evaluate=lambda t: np.ones_like(t))
    assert mihlin_norm(one, alpha=1.0, window=(-6, 6)).value == pytest.approx(1.0, abs=1e-12)


def test_mihlin_norm_window_refinement_consistency(hom):
    f = window_symbol(hom, 0)
    coarse = mihlin_norm(f, 1.5, window=(-3, 3), n_x=384, n_h=109)
    fine = mihlin_norm(f, 1.5, window=(-3, 3), n_x=768, n_h=217)
    assert abs(coarse.value - fine.value) <= 0.05 * fine.value


def test_mihlin_norm_keeps_refinement_and_widening_changes():
    est = mihlin_norm(make_symbol("rho"), 1.5, window=(-3, 3))
    for key in ("refine_rel", "widen_rel"):
        assert 0 <= est.method[key] < STABILITY_RTOL
    again = mihlin_norm(make_symbol("rho"), 1.5, window=(-3, 3))
    assert again.method == est.method


def test_mihlin_norm_flags_unbounded_symbol():
    ident = Symbol(evaluate=lambda t: t)
    with pytest.raises(NormStabilityError):
        mihlin_norm(ident, alpha=1.0, window=(-8, 8))


def test_mihlin_norm_dilation_invariance(hom):
    # rescaled window g(2^-k t) with the window shifted accordingly has the
    # same norm (grids shift with the window)
    f = window_symbol(hom, 0)
    base = mihlin_norm(f, 1.2, window=(-2.5, 2.5)).value
    for k in (3, -5):
        shifted = Symbol(evaluate=lambda t, k=k: f(t * 2.0**-k))
        ln2 = np.log(2.0)
        val = mihlin_norm(shifted, 1.2, window=(-2.5 + k * ln2, 2.5 + k * ln2)).value
        assert val == pytest.approx(base, rel=1e-9)


def test_mihlin_norm_finite_for_shipped_kinds():
    # the estimator's refinement and widening gates pass on a wide window
    for sym in (make_symbol("rho"), make_symbol("res_frac", a=1.0, b=2.0)):
        assert mihlin_norm(sym, alpha=1.5, window=(-8, 8)).value < np.inf


def test_psi_res_values_and_derivative():
    sym = make_symbol("psi_res", a=1.0, b=2.0, lambda0=-1.0)
    t = np.array([1.0, 2.0])
    want = t / (-1.0 - t) ** 2
    assert np.allclose(np.real(sym(t)), want, rtol=1e-12)
    # d/dt t (lambda0 - t)^-2 = (lambda0 - t)^-2 + 2 t (lambda0 - t)^-3, against
    # a central difference of the values (truncation error ~ h^2), away from
    # the critical point t = 1
    t = np.array([0.5, 2.0, 4.0])
    d1 = (-1.0 - t) ** -2 + 2.0 * t * (-1.0 - t) ** -3
    h = 1e-5
    np.testing.assert_allclose((sym(t + h) - sym(t - h)) / (2 * h), d1, rtol=1e-8)
    assert sym.decay is not None and sym.decay.eps0 == 1.0


def test_besov_value_row_blocks_are_bit_identical(monkeypatch):
    # a row's sup is a max, so the blocking cannot move the estimate; g(x)
    # is evaluated once per grid, the shifts once per point
    from plcalc import symbols
    from plcalc.experiments import DyadicSampleFamily, sample_dyadic_symbol

    points = []
    rho = make_symbol("rho")

    def g(x):
        points.append(np.size(x))
        return np.asarray(rho(np.exp(x)), dtype=complex)

    n_x, n_h, M = 384, 73, 2
    results = {}
    for block in (1, 4096, 10**9):           # one row, ~10 rows, one block
        monkeypatch.setattr(symbols, "BLOCK_POINTS", block)
        points.clear()
        results[block] = symbols._besov_value(symbols._OneFunction(g), 1.5, M, (-6.0, 6.0),
                                              n_x, n_h)
        assert sum(points) == n_x + 2 * M * n_h * n_x
    assert results[1] == results[4096] == results[10**9]
    # the unblocked estimate through the public iterated_difference
    xg = np.linspace(-6.0, 6.0, n_x)
    hs = np.exp(np.linspace(np.log(1e-6), 0.0, n_h))
    du = -np.log(1e-6) / (n_h - 1)
    integral = 0.0
    for sign in (1.0, -1.0):
        vals = hs**-1.5 * np.max(np.abs(iterated_difference(g, M, sign * hs[:, None],
                                                            xg[None, :])), axis=1)
        integral += float(du * (np.sum(vals) - 0.5 * (vals[0] + vals[-1])))
    sup_norm = float(np.max(np.abs(g(xg))))
    assert results[4096].tolist() == [sup_norm + integral]

    # a family of five dyadic samples: one table per block and shift serves
    # every member, and each member's estimate has the bits of that member
    # alone, whatever the blocking
    hom = build_homogeneous_dyadic()
    rng = np.random.default_rng(8)
    coeffs = rng.uniform(0.2, 1.0, (5, 9)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 9)))
    family = DyadicSampleFamily(hom, coeffs, -4)
    window = (-5.0, 4.0)
    alone = []
    for c in coeffs:
        ev = sample_dyadic_symbol(hom, c, -4).evaluate
        one = lambda x, ev=ev: np.asarray(ev(np.exp(np.asarray(x, dtype=float))), dtype=complex)
        alone += symbols._besov_value(symbols._OneFunction(one), 1.5, M, window, n_x, n_h).tolist()
    for block in (1, 4096, 10**9):
        monkeypatch.setattr(symbols, "BLOCK_POINTS", block)
        assert symbols._besov_value(family, 1.5, M, window, n_x, n_h).tolist() == alone
    assert len(set(alone)) == 5


def _dyadic_family():
    from plcalc.experiments import DyadicSampleFamily

    rng = np.random.default_rng(9)
    coeffs = rng.uniform(0.2, 1.0, (3, 9)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 9)))
    return DyadicSampleFamily(build_homogeneous_dyadic(), coeffs, -4), coeffs


def test_dyadic_family_is_exactly_zero_off_its_support():
    # the support (ln2 (n_lo - 1), ln2 (n_lo + width)) and SUPPORT_MARGIN
    # inside either end: every member reads exactly 0 there
    from plcalc import symbols

    family, _ = _dyadic_family()
    lo, hi = family.support
    assert (lo, hi) == (np.log(2.0) * -5, np.log(2.0) * 5)
    dense = np.linspace(lo - 4.0, hi + 4.0, 20001)
    near = np.array([d * s for d in (0.0, 1e-15, 1e-12, 1e-10, symbols.SUPPORT_MARGIN)
                     for s in (1.0, -1.0)])
    y = np.concatenate([dense[(dense <= lo) | (dense >= hi)], lo + near, hi + near])
    table = family.table(y)
    for k in range(family.size):
        assert not np.any(family.member(table, k))
    # (1 - chi rounds to 0 within about 0.026 of the lower end)
    inside = family.table(dense[(dense > lo + 0.1) & (dense < hi - 0.1)])
    assert all(np.all(family.member(inside, k) != 0) for k in range(family.size))


@pytest.mark.parametrize("window", [
    (-8.0, 7.0),    # the support lies inside the window
    (-2.0, 2.5),    # the support covers the window
    (4.0, 9.0),     # right of the support: the small-|h| row blocks see nothing
])
def test_besov_value_live_columns_keep_every_bit(monkeypatch, window):
    # the sweep over the columns that can reach the support gives the bits
    # of the full sweep (support None) and of each member alone, whatever
    # the blocking
    from plcalc import symbols
    from plcalc.experiments import sample_dyadic_symbol

    family, coeffs = _dyadic_family()
    n_x, n_h, M = 256, 49, 2
    alone = []
    for c in coeffs:
        ev = sample_dyadic_symbol(family.partition, c, -4).evaluate
        one = lambda x, ev=ev: np.asarray(ev(np.exp(np.asarray(x, dtype=float))), dtype=complex)
        alone += symbols._besov_value(symbols._OneFunction(one), 1.5, M, window, n_x, n_h).tolist()
    points = []
    table = family.table
    monkeypatch.setattr(family, "table", lambda y: points.append(np.size(y)) or table(y))
    support = family.support
    for block in (1, symbols.BLOCK_POINTS, 10**9):
        monkeypatch.setattr(symbols, "BLOCK_POINTS", block)
        family.support = None
        full = symbols._besov_value(family, 1.5, M, window, n_x, n_h).tolist()
        family.support = support
        points.clear()
        assert symbols._besov_value(family, 1.5, M, window, n_x, n_h).tolist() == full == alone
        # only a window inside the support keeps every column of every row
        swept = sum(points) - n_x
        assert (swept == 2 * M * n_h * n_x) == (window == (-2.0, 2.5))
    if window == (4.0, 9.0):
        assert 0.0 < alone[0]       # the large negative shifts reach the support
