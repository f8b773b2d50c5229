"""Symbols, decay certificates, and the multiplier-norm estimators."""

import numpy as np
import pytest

from plcalc.partitions import build_homogeneous_dyadic
from plcalc.symbols import (
    STABILITY_RTOL,
    NormStabilityError,
    Symbol,
    SymbolError,
    besov_norm_inf_1,
    difference_shift,
    iterated_difference,
    make_symbol,
    mihlin_l1_norm,
    mihlin_norm,
    mihlin_seminorm_classical,
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
        make_symbol("psi_exp", a=1.0, b=1.0, theta=2.0)   # a/b <= theta
    with pytest.raises(SymbolError):
        make_symbol("psi_res", a=1.0, b=0.5, lambda0=2.0)  # lambda0 on [0, inf)
    with pytest.raises(SymbolError):
        make_symbol("psi_res", a=2.0, b=0.5, lambda0=-1.0)  # a >= b + theta
    with pytest.raises(SymbolError):
        make_symbol("res_frac", a=0.5, b=0.2, theta=0.5)   # a - theta <= 0


def test_rho_analytic_derivatives_vs_fd():
    rho = make_symbol("rho")
    bare = Symbol(evaluate=rho.evaluate)      # finite-difference fallback
    t = np.logspace(-1, 1, 17)
    for k in (1, 2, 3):
        exact = rho.derivative(k, t)
        approx = bare.derivative(k, t)
        assert np.max(np.abs(exact - approx)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_decay_certificates_hold_on_sample():
    for sym in (make_symbol("rho"), make_symbol("psi_exp", a=2.0, b=1.0),
                make_symbol("res_frac", a=1.0, b=2.0)):
        cert = sym.decay
        r = np.logspace(-8, 8, 200)
        vals = np.abs(np.asarray(sym(r), dtype=complex))
        assert np.all(vals <= cert.bound(r) * (1 + 1e-12))


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
                * iterated_difference(difference_shift(k, m * h), M - m, h, x))
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


def test_classical_seminorm_constant_and_imag_power():
    one = Symbol(evaluate=lambda t: np.ones_like(t),
                 derivative_fn=lambda k, t: np.zeros_like(t, dtype=complex))
    assert mihlin_seminorm_classical(one, 2).value == pytest.approx(1.0, abs=1e-12)
    # |t^k d^k t^(is)| = |is (is-1) ... (is-k+1)|; s=1, k=1 gives 1
    est = mihlin_seminorm_classical(make_symbol("imag_power", s=1.0), 1)
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_classical_seminorm_rho_stable():
    est = mihlin_seminorm_classical(make_symbol("rho"), 2)
    assert np.isfinite(est.value) and est.value > 0


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


def test_mihlin_l1_compact_support_three_blocks(hom):
    f = window_symbol(hom, 0)   # supported in [1/2, 2]
    est = mihlin_l1_norm(f, 1.5, hom)
    assert set(est.method["blocks"]) <= {-1, 0, 1}
    assert est.method["tail_bound"] == 0.0


def test_mihlin_l1_rho_tail_decays(hom):
    est = mihlin_l1_norm(make_symbol("rho"), 1.5, hom)
    blocks = est.method["blocks"]
    assert np.isfinite(est.value)
    ns = sorted(blocks)
    # the outermost blocks decay at least like (1+|n|)^(-1-eps): compare
    # geometric-mean decay over the last decade of indices
    assert blocks[ns[-1]] < blocks[ns[-10]] / 4
    assert blocks[ns[0]] < blocks[ns[9]] / 4
    assert est.method["tail_bound"] < 1e-6 * est.value


def test_mihlin_l1_subadditive(hom):
    rng = np.random.default_rng(3)

    def rand_compact(seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(3)
        return Symbol(
            evaluate=lambda t: c[0] * hom.window(-1, t) + c[1] * hom.window(0, t)
            + c[2] * hom.window(1, t))

    f, g = rand_compact(1), rand_compact(2)
    fg = Symbol(evaluate=lambda t: f(t) + g(t))
    rng_range = (-3, 3)
    nf = mihlin_l1_norm(f, 1.5, hom, n_range=rng_range).value
    ng = mihlin_l1_norm(g, 1.5, hom, n_range=rng_range).value
    nfg = mihlin_l1_norm(fg, 1.5, hom, n_range=rng_range).value
    assert nfg <= nf + ng + 1e-9


def test_mihlin_l1_uncertified_nondecaying_tail_raises(hom):
    ident = Symbol(evaluate=lambda t: t)   # no certificate, no decay
    with pytest.raises(SymbolError):
        mihlin_l1_norm(ident, 1.5, hom)


def test_classical_implies_besov_for_shipped_kinds():
    # finiteness chain: classical seminorm finite => multiplier norm finite
    # (alpha below beta); realized as: the estimator gates pass
    for sym in (make_symbol("rho"), make_symbol("res_frac", a=1.0, b=2.0)):
        assert mihlin_seminorm_classical(sym, 3).value < np.inf
        assert mihlin_norm(sym, alpha=1.5, window=(-8, 8)).value < np.inf


def test_psi_res_values_and_derivative():
    sym = make_symbol("psi_res", a=1.0, b=2.0, lambda0=-1.0)
    t = np.array([1.0, 2.0])
    want = t / (-1.0 - t) ** 2
    assert np.allclose(np.real(sym(t)), want, rtol=1e-12)
    bare = Symbol(evaluate=sym.evaluate)
    d1 = sym.derivative(1, t)
    d1_fd = bare.derivative(1, t)
    assert np.max(np.abs(d1 - d1_fd)) < 1e-7
    assert sym.decay is not None and sym.decay.eps0 == 1.0
