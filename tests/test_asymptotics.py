import hashlib
import math

import numpy as np
import pytest

from fragtail import measures as M
from fragtail.asymptotics import (AlphaIndex, ExpansionSpec, TailShape,
                                  _merge_terms, _y_decay_integral, default_t0,
                                  expand_psi_over_x,
                                  extinction_log_tail, family_tail_shape,
                                  kennedy_log_tail, log_tail_grid,
                                  phi_expansion,
                                  tagged_log_tail, tail_ratio,
                                  tail_shape_from_expansion)
from fragtail.errors import ConfigError, DomainError
from fragtail.inversion import PsiSolver
from fragtail.laplace import PhiEvaluator
from fragtail.measures import intrinsic_alpha


def solver_for(spec):
    return PsiSolver(PhiEvaluator(spec))


def test_alpha_index_validation():
    with pytest.raises(ConfigError):
        AlphaIndex(0.5)
    assert AlphaIndex(-0.25).abs == 0.25


def test_uniform_two_exact_log_tail():
    # psi(r) = r - 2 makes the decay integral (t-3) - 2 log(t/3) from t0=3,
    # so the log tail equals 2 log t - t plus the constant 3 - 2 log 3
    s = solver_for(M.make_uniform(2))
    const = 3.0 - 2.0 * math.log(3.0)
    for t in (5.0, 12.0, 40.0, 90.0):
        est = extinction_log_tail(s, -1.0, t, t0=3.0)
        expected = 2.0 * math.log(t) - t + const
        assert abs(est.log_value - expected) < 1e-7


def test_empty_integral_prefactor_only():
    s = solver_for(M.make_uniform(2))
    est = extinction_log_tail(s, -1.0, 3.0, t0=3.0)
    assert abs(est.log_value - 0.0) < 1e-12  # psi(3)=1, psi'(3)=1
    tag = tagged_log_tail(s, -1.0, 3.0, t0=3.0)
    assert abs(tag.log_value - math.log(3.0)) < 1e-12


def test_formula_ratio_identity():
    for spec, alpha in [(M.make_uniform(2), -1.0),
                        (M.make_stable(1.5), intrinsic_alpha(M.make_stable(1.5))),
                        (M.make_beta_splitting(-1.6), -0.6)]:
        s = solver_for(spec)
        for t in np.linspace(25.0, 250.0, 8):
            d = (extinction_log_tail(s, alpha, float(t)).log_value
                 - tagged_log_tail(s, alpha, float(t)).log_value)
            target = math.log(tail_ratio(s, alpha, float(t)))
            assert abs(d - target) <= 1e-12 * max(1.0, abs(target))


def test_tail_ratio_values():
    s = solver_for(M.make_uniform(2))
    assert abs(tail_ratio(s, -1.0, 100.0) - 0.98) < 1e-9
    # finite measure: ratio converges to (|alpha| * total rate)**(1/|alpha|)
    assert abs(tail_ratio(s, -1.0, 1e5) - 1.0) < 1e-4
    # infinite measure: the ratio diverges; for index-2 growth of psi it
    # scales like t**2, exactly the gap between the two closed tail classes
    s2 = solver_for(M.make_stable(2.0))
    r1 = tail_ratio(s2, -0.5, 100.0)
    r2 = tail_ratio(s2, -0.5, 200.0)
    assert abs(r2 / r1 - 4.0) < 0.01


def test_t0_shift_is_constant_offset():
    s = solver_for(M.make_stable(1.5))
    alpha = intrinsic_alpha(M.make_stable(1.5))
    ts = np.geomspace(40.0, 300.0, 7)
    a = np.array([extinction_log_tail(s, alpha, float(t), t0=5.0).log_value
                  for t in ts])
    b = np.array([extinction_log_tail(s, alpha, float(t), t0=9.0).log_value
                  for t in ts])
    diff = a - b
    assert np.max(diff) - np.min(diff) < 1e-8


def test_default_t0_in_domain():
    for spec in (M.make_stable(1.25), M.make_uniform(2),
                 M.make_beta_splitting(-1.9)):
        alpha = intrinsic_alpha(spec) or -1.0
        s = solver_for(spec)
        t0 = default_t0(s, alpha)
        assert t0 * abs(alpha) > s.x_psi
        extinction_log_tail(s, alpha, t0 + 1.0)  # must not raise


def test_decay_integral_guards():
    s = solver_for(M.make_uniform(2))
    with pytest.raises(DomainError):
        extinction_log_tail(s, -1.0, 4.0, t0=1.0)  # t0 below domain
    for grid in ([8.0, 8.0], [9.0, 8.0], [], [[8.0, 9.0], [10.0, 11.0]]):
        with pytest.raises(DomainError):
            log_tail_grid(s, -1.0, grid)


# --- expansion engine --------------------------------------------------------

def test_psi_expansion_identity_at_zero_index():
    e = ExpansionSpec(gamma=0.0, terms=((3.0, 1.0),))
    out = expand_psi_over_x(e)
    assert out.gamma == 0.0
    assert out.terms == ((3.0, 1.0),)
    assert out.scale == 1.0


def test_psi_expansion_scaling_examples():
    # normalized index-1/2 expansion: coefficient doubles, exponent doubles
    out = expand_psi_over_x(ExpansionSpec(gamma=0.5, terms=((0.125, 1.0),)))
    assert out.gamma == 1.0
    assert out.terms == ((0.25, 2.0),)
    # ford a=1/2 carries exactly that expansion
    pe = phi_expansion(M.make_ford(0.5))
    assert pe.gamma == 0.5 and pe.scale == 1.0
    assert abs(pe.terms[0][0] - 0.125) < 1e-15
    assert expand_psi_over_x(pe).terms == ((0.25, 2.0),)


@pytest.mark.parametrize("spec,x", [(M.make_ford(0.5), 300.0),
                                    (M.make_stable(1.5), 300.0),
                                    (M.make_beta_splitting(-1.6), 300.0)])
def test_psi_expansion_matches_solver(spec, x):
    out = expand_psi_over_x(phi_expansion(spec))
    s = solver_for(spec)
    for xv in (x, 4.0 * x):
        approx = float(out.value(xv))
        exact = s.psi(xv) / xv
        assert abs(approx - exact) / exact < 2e-3
    err1 = abs(float(out.value(x)) - s.psi(x) / x) / (s.psi(x) / x)
    err2 = abs(float(out.value(8 * x)) - s.psi(8 * x) / (8 * x)) \
        / (s.psi(8 * x) / (8 * x))
    assert err2 < err1  # remainder decays


def test_engine_covers_low_exponents():
    # exponents at or below 1/2 bring cross terms: W = 1 - x**-0.4 W**-0.4
    # is 1 - x**-0.4 - 0.4 x**-0.8, which integrates to the exponential
    # terms t**0.6/0.6 and 0.4 t**0.2/0.2
    exp = ExpansionSpec(gamma=0.0, terms=((1.0, 0.4),))
    psi_terms = expand_psi_over_x(exp).terms
    assert [g for _, g in psi_terms] == [0.4, 0.8]
    assert [c for c, _ in psi_terms] == pytest.approx([1.0, 0.4])
    out = tail_shape_from_expansion(exp, -1.0)
    assert out.poly_exponent == 0.0
    assert [p for _, p in out.exp_terms] == pytest.approx([1.0, 0.6, 0.2])
    assert [c for c, _ in out.exp_terms] == pytest.approx([1.0, -1 / 0.6,
                                                           -2.0])
    # at 1/2 the square of the first term lands on order 1: a t-power
    half = tail_shape_from_expansion(
        ExpansionSpec(gamma=0.0, terms=((1.0, 0.5),)), -1.0)
    assert half.poly_exponent == pytest.approx(0.5)
    # zero coefficients at low exponents are dropped; exponents past 1 lie
    # past the last order that shapes the tail
    out = tail_shape_from_expansion(
        ExpansionSpec(gamma=0.0, terms=((0.0, 0.4), (2.0, 1.0), (5.0, 1.5))),
        -1.0)
    assert out.poly_exponent == 2.0 and out.exp_terms == ((1.0, 1.0),)
    with pytest.raises(ConfigError):
        tail_shape_from_expansion(ExpansionSpec(gamma=1.0), -1.0)


def test_engine_refuses_an_unbounded_solve():
    # the orders up to 1 of exponents 0.001 and 0.0013 number in the
    # hundreds of thousands; the solve is refused before it starts
    with pytest.raises(ConfigError):
        family_tail_shape(M.make_beta(0.001, 0.0013), -1.0)
    with pytest.raises(ConfigError):
        expand_psi_over_x(ExpansionSpec(gamma=0.0, terms=((1.0, 1e-13),)))


def test_merge_terms_one_tolerance():
    # exponents within 1e-12 are one term, which keeps the exponent listed
    # first; exact repeats sum in input order; zero sums are dropped
    assert _merge_terms([(1.0, 0.9), (2.0, 0.3 + 0.3 + 0.3), (4.0, 0.3)]) \
        == [(4.0, 0.3), (3.0, 0.9)]
    assert _merge_terms([(1.0, 1.0), (-1.0, 1.0 + 1e-13), (2.0, 2.0)]) \
        == [(2.0, 2.0)]
    assert ExpansionSpec(0.0, ((1.0, 0.9), (1.0, 0.3 * 3))).terms \
        == ((2.0, 0.9),)
    assert TailShape(0.0, ((1.0, 1.0), (1.0, 0.1), (1.0, 1 - 0.9))) \
        .exp_terms == ((1.0, 1.0), (2.0, 0.1))


def test_stable_closed_shapes():
    for g in (1.25, 1.5, 2.0):
        shape = family_tail_shape(M.make_stable(g))
        assert abs(shape.poly_exponent - (1.0 + g / 2.0)) < 1e-12
        coef, power = shape.exp_terms[0]
        assert abs(coef - (g - 1.0) ** (g - 1.0)) < 1e-12
        assert abs(power - g) < 1e-12


def test_ford_closed_shape():
    a = 0.5
    shape = family_tail_shape(M.make_ford(a))
    assert abs(shape.poly_exponent
               - (2 * a * a - 7 * a + 4) / (2 * a * (1 - a))) < 1e-12
    coef, power = shape.exp_terms[0]
    assert abs(coef - a ** (a / (1 - a)) * (1 - a)) < 1e-12
    assert abs(power - 1.0 / (1 - a)) < 1e-12


def test_beta_splitting_shapes():
    shape = family_tail_shape(M.make_beta_splitting(-1.5))
    # the linear term vanishes exactly at -3/2; leading (1/4) t^2
    assert shape.exp_terms == ((0.25, 2.0),)
    assert abs(shape.poly_exponent - 2.0) < 1e-12
    shape2 = family_tail_shape(M.make_beta_splitting(-1.6))
    assert len(shape2.exp_terms) == 2
    assert shape2.exp_terms[0][1] == pytest.approx(2.5)
    assert shape2.exp_terms[1][1] == 1.0
    # above -3/2 the powers of the first correction enter the exponential:
    # with gamma = 0.2, t**1.25 and the orders (1 - k 0.2)/0.8 below it
    shape3 = family_tail_shape(M.make_beta_splitting(-1.2))
    assert [p for _, p in shape3.exp_terms] \
        == pytest.approx([1.25, 1.0, 0.75, 0.5, 0.25])


# --- the closed-shape catalog, kept as the engine's oracle -------------------
# Shapes derived by hand, region by region, for the registry families; they
# share no code with the engine.

def _rescaled(poly, terms, r):
    """The shape of the measure r nu: t -> r t, constants dropped."""
    return TailShape(poly, tuple((c * r ** p, p) for c, p in terms))


def _beta_shape(a, b, a_abs):
    """(poly, terms) of the binary Beta(a, b) split family at unit rate:
    six regions for min(a, b) > 1/2 and four for min(a, b) in (1/3, 1/2]
    with max(a, b) in (1/2, 1)."""
    a, b = sorted((a, b))  # split law is symmetric in (a, b)
    ga, gb, gab = math.gamma(a), math.gamma(b), math.gamma(a + b)
    lead = (1.0, 1.0)
    term_a = (-gab / (gb * (1.0 - a) * a_abs ** a), 1.0 - a) \
        if a < 1.0 else None
    term_b = (-gab / (ga * (1.0 - b) * a_abs ** b), 1.0 - b) \
        if b < 1.0 else None
    tol = 1e-12
    if a > 0.5 + tol:
        if a >= 1.0 - tol and b >= 1.0 - tol:
            if a <= 1.0 + tol and b <= 1.0 + tol:
                return 2.0 / a_abs, (lead,)                # a = b = 1
            if a <= 1.0 + tol:
                return b / a_abs, (lead,)                  # b > a = 1
            return 0.0, (lead,)                            # b >= a > 1
        if b > 1.0 + tol:
            return 0.0, (lead, term_a)                     # b > 1 > a > 1/2
        if b >= 1.0 - tol:
            return a / a_abs, (lead, term_a)               # 1 = b > a > 1/2
        return 0.0, (lead, term_a, term_b)                 # 1 > b >= a > 1/2
    assert a > 1.0 / 3.0 + tol and 0.5 + tol < b < 1.0 - tol
    if a >= 0.5 - tol:                                     # a = 1/2
        return (math.gamma(b + 0.5) ** 2 / (2.0 * gb ** 2 * a_abs),
                (lead, term_a, term_b))
    term_2a = (-a * gab ** 2 / (gb ** 2 * (1.0 - 2.0 * a)
                                * a_abs ** (2.0 * a)), 1.0 - 2.0 * a)
    if a + b > 1.0 + tol:
        return 0.0, (lead, term_a, term_b, term_2a)
    if a + b >= 1.0 - tol:
        return 1.0 / (ga * gb * a_abs), (lead, term_a, term_b, term_2a)
    term_ab = (-(a + b) * gab ** 2
               / (ga * gb * (1.0 - a - b) * a_abs ** (a + b)), 1.0 - a - b)
    return 0.0, (lead, term_a, term_b, term_2a, term_ab)


def _catalog_shape(spec, alpha):
    a_abs = -alpha
    fam, r = spec.family, spec.scale
    if spec.variant == "atomic":
        return TailShape(0.0, ((M.total_mass(spec), 1.0),))
    if fam == "uniform-k":
        return _rescaled(2.0 / a_abs if spec.param("k") == 2 else 0.0,
                         ((1.0, 1.0),), r)
    if fam == "beta":
        return _rescaled(*_beta_shape(spec.param("a"), spec.param("b"),
                                      a_abs), r)
    if fam == "stable":
        g = spec.param("gamma")
        return _rescaled(1.0 + g / 2.0, (((g - 1.0) ** (g - 1.0), g),), r)
    if fam == "ford":
        a = spec.param("a")
        return _rescaled((2.0 * a * a - 7.0 * a + 4.0) / (2.0 * a * (1.0 - a)),
                         ((a ** (a / (1.0 - a)) * (1.0 - a), 1.0 / (1.0 - a)),),
                         r)
    beta = spec.param("beta")
    assert fam == "beta-splitting" and beta <= -1.5
    a_coef = (-beta - 1.0) ** ((-beta - 1.0) / (beta + 2.0)) * (beta + 2.0)
    b_coef = math.gamma(beta + 2.0) / math.gamma(2.0 * beta + 3.0) \
        / (beta + 2.0) if beta != -1.5 else 0.0
    return _rescaled((-2.0 * beta - 1.0) / (2.0 * (beta + 2.0)),
                     ((a_coef, 1.0 / (beta + 2.0)), (-b_coef, 1.0)), r)


_CATALOG = [pytest.param(M.make_beta(a, b), -0.7, id=f"{a}-{b}")
            for a, b in [(2.0, 3.0), (1.0, 2.0), (1.0, 1.0), (0.8, 2.0),
                         (0.8, 1.0), (0.7, 0.9), (0.75, 0.75)]] + [
    pytest.param(M.make_beta(a, b), alpha, id=f"beta-{a}-{b}-at-{alpha}")
    for a, b, alpha in [(3.0, 1.0, -1.5), (0.9, 0.6, -1.0), (0.5, 0.7, -1.0),
                        (0.4, 0.7, -0.5), (0.4, 0.6, -1.0),
                        (0.35, 0.6, -1.3), (0.45, 0.52, -1.0)]] + [
    pytest.param(spec, alpha, id=label) for label, spec, alpha in [
        ("uniform-2", M.make_uniform(2), -0.5),
        ("uniform-3", M.make_uniform(3), -1.0),
        ("identical-2", M.make_identical(2), -1.0),
        ("atomic-2-atoms", M.make_atomic([(0.5, (0.6, 0.2)),
                                          (1.5, (0.9, 0.1))]), -0.8),
        ("stable-1.25", M.make_stable(1.25), None),
        ("stable-1.5", M.make_stable(1.5), None),
        ("stable-2", M.make_stable(2.0), None),
        ("ford-0.3", M.make_ford(0.3), None),
        ("ford-0.5", M.make_ford(0.5), None),
        ("ford-0.7", M.make_ford(0.7), None),
        ("beta-splitting--1.5", M.make_beta_splitting(-1.5), None),
        ("beta-splitting--1.6", M.make_beta_splitting(-1.6), None),
        ("beta-splitting--1.9", M.make_beta_splitting(-1.9), None),
        ("uniform-2-scale-2.5", M.make_uniform(2, scale=2.5), -1.0),
        ("beta-0.7-0.9-scale-3", M.make_beta(0.7, 0.9, scale=3.0), -1.0),
        ("stable-1.5-scale-0.4", M.make_stable(1.5, scale=0.4), None)]]


@pytest.mark.parametrize("spec,alpha", _CATALOG)
def test_beta_table_matches_engine(spec, alpha):
    # every entry of the hand-written catalog, the beta region table first,
    # against the engine, in log value over t in [10, 1000]
    alpha = intrinsic_alpha(spec) if alpha is None else alpha
    table = _catalog_shape(spec, alpha)
    engine = family_tail_shape(spec, alpha)
    assert len(engine.exp_terms) == len(table.exp_terms)
    ts = np.geomspace(10.0, 1000.0, 41)
    ref = table.log_value(ts)
    assert np.max(np.abs(engine.log_value(ts) - ref) / np.abs(ref)) <= 1e-12


def test_beta_table_rows():
    # spot checks straight from the region table at |alpha| = 1
    assert family_tail_shape(M.make_beta(2.0, 3.0), -1.0).exp_terms \
        == ((1.0, 1.0),)
    assert family_tail_shape(M.make_beta(1.0, 1.0), -1.0).poly_exponent \
        == pytest.approx(2.0)
    shape = family_tail_shape(M.make_beta(1.0, 2.0), -1.0)
    assert shape.poly_exponent == pytest.approx(2.0)  # b/|alpha| with b=2
    shape = family_tail_shape(M.make_beta(0.8, 2.0), -1.0)
    assert shape.poly_exponent == 0.0
    assert shape.exp_terms[1][1] == pytest.approx(0.2)  # power 1 - a
    coef = -math.gamma(2.8) / (math.gamma(2.0) * 0.2)
    assert shape.exp_terms[1][0] == pytest.approx(coef)


def test_beta_extended_rows():
    s1 = family_tail_shape(M.make_beta(0.5, 0.7), -1.0)
    assert s1.poly_exponent == pytest.approx(
        math.gamma(1.2) ** 2 / (2.0 * math.gamma(0.7) ** 2))
    s2 = family_tail_shape(M.make_beta(0.4, 0.7), -1.0)   # a + b > 1
    assert s2.poly_exponent == 0.0 and len(s2.exp_terms) == 4
    s3 = family_tail_shape(M.make_beta(0.4, 0.6), -1.0)   # a + b = 1
    assert s3.poly_exponent == pytest.approx(
        1.0 / (math.gamma(0.4) * math.gamma(0.6)))
    s4 = family_tail_shape(M.make_beta(0.35, 0.6), -1.0)  # a + b < 1
    assert len(s4.exp_terms) == 5
    # past the table: 3 x 0.3 lands on b = 0.9, one term at power 0.1
    s5 = family_tail_shape(M.make_beta(0.3, 0.9), -1.0)
    assert s5.poly_exponent == 0.0
    assert [p for _, p in s5.exp_terms] == pytest.approx([1.0, 0.7, 0.4,
                                                          0.1])
    # 2 x 1/2 lands on order 1: the square of the a-term is a t-power
    s6 = family_tail_shape(M.make_beta(0.5, 1.5), -1.0)
    assert s6.poly_exponent == pytest.approx(2.0 / math.pi)
    assert [p for _, p in s6.exp_terms] == pytest.approx([1.0, 0.5])


def _next_order(spec):
    """p such that the first order past the engine's shape is t**-p: the
    smallest sum of the psi/x series exponents above rho, minus rho."""
    series = expand_psi_over_x(phi_expansion(spec))
    rho = 1.0 + series.gamma
    exps = [e for _, e in series.terms]
    sums, frontier = set(), {0.0}
    while frontier:
        grown = {s + e for s in frontier for e in exps}
        sums |= grown
        frontier = {s for s in grown if s <= rho + 1e-9}
    return min(s for s in sums if s > rho + 1e-9) - rho


@pytest.mark.parametrize("spec,alpha,bound", [
    (M.make_beta(0.3, 0.9), -1.0, 1e-4),
    (M.make_beta(0.45, 0.7), -1.0, 1e-4),
    (M.make_beta(0.2, 0.5), -1.0, 4e-4),
    (M.make_beta(0.4, 0.7), -1.0, 3e-4),
    (M.make_beta_splitting(-1.2), None, 2e-2),
    (M.make_beta_splitting(-1.3), None, 2e-3)],
    ids=["beta-0.3-0.9", "beta-0.45-0.7", "beta-0.2-0.5", "beta-0.4-0.7",
         "beta-splitting--1.2", "beta-splitting--1.3"])
def test_engine_shape_beyond_the_catalog(spec, alpha, bound):
    # the exact route minus the engine's shape is a constant plus the
    # orders past it, t**-p, t**-2p and t**-3p; the fit's largest residual
    # stays under a bound that the shape without its lowest-power term
    # exceeds.  Measured residuals: 3.4e-5, 3.4e-5, 1.6e-4, 1.1e-4, 7.8e-3
    # and 6.6e-4; without that term 2.1e-2, 5.3e-3, 1.2e-3, 1.0e-2, 9.1e-2
    # and 3.5e-2.
    alpha = intrinsic_alpha(spec) if alpha is None else alpha
    ts = np.geomspace(50.0, 5000.0, 25)
    log_ext, _ = log_tail_grid(solver_for(spec), alpha, ts)
    p = _next_order(spec)
    basis = np.column_stack([ts ** (-j * p) for j in range(4)])

    def worst_residual(shape):
        gap = log_ext - shape.log_value(ts)
        fit = np.linalg.lstsq(basis, gap, rcond=None)[0]
        return float(np.max(np.abs(basis @ fit - gap)))

    shape = family_tail_shape(spec, alpha)
    assert worst_residual(shape) <= bound
    dropped = TailShape(shape.poly_exponent, shape.exp_terms[:-1])
    assert worst_residual(dropped) > bound


def test_family_alpha_handling():
    with pytest.raises(DomainError):
        family_tail_shape(M.make_stable(2.0), -1.0)  # conflicts with -1/2
    with pytest.raises(DomainError):
        family_tail_shape(M.make_uniform(2))         # finite family needs it
    shape = family_tail_shape(M.make_uniform(2), -0.5)
    assert shape.poly_exponent == pytest.approx(4.0)  # 2/|alpha|
    assert family_tail_shape(M.make_uniform(3), -0.5).poly_exponent == 0.0


def test_scaling_law_on_closed_shapes():
    # replacing the measure by r nu and t by t/r leaves the class invariant
    r = 2.5
    for make in (M.make_identical, M.make_uniform):
        base = family_tail_shape(make(2), -1.0)
        scaled = family_tail_shape(make(2, scale=r), -1.0)
        ts = np.linspace(3.0, 30.0, 7)
        diff = scaled.log_value(ts) - base.log_value(r * ts)
        assert np.max(diff) - np.min(diff) < 1e-12


def test_tail_shape_normalization():
    s = TailShape(1.0, ((0.5, 1.0), (0.5, 1.0), (0.0, 2.0), (2.0, 3.0)))
    assert s.exp_terms == ((2.0, 3.0), (1.0, 1.0))
    with pytest.raises(ConfigError):
        TailShape(0.0, ((-1.0, 2.0),))     # leading coefficient negative
    with pytest.raises(ConfigError):
        TailShape(0.0, ((1.0, 0.5),))      # leading power below 1
    with pytest.raises(ConfigError):
        TailShape(0.0, ())


def test_kennedy_series_against_mpmath():
    # 39 terms at 40 digits; t >= 1 is where the series needs no cancelling
    mp = pytest.importorskip("mpmath")
    ts = [1.0, 1.3, 2.0, 5.0, 30.0, 200.0, 400.0]
    got = kennedy_log_tail(np.array(ts))
    for t, g in zip(ts, got):
        with mp.workdps(40):
            tm = mp.mpf(t)
            ref = float(mp.log(2 * mp.fsum(
                (2 * k * k * tm * tm - 1) * mp.exp(-k * k * tm * tm)
                for k in range(1, 40))))
        assert abs(g - ref) <= 1e-15 * max(1.0, abs(ref))
        assert kennedy_log_tail(t) == g  # scalar is the one-point array
    for bad in (0.99, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            kennedy_log_tail(bad)


def test_pipeline_agreement_single_family():
    spec = M.make_stable(1.5)
    s = solver_for(spec)
    ts = np.geomspace(50.0, 200.0, 7)
    log_ext, log_tag = log_tail_grid(s, intrinsic_alpha(spec), ts)
    drift = log_ext - family_tail_shape(spec).log_value(ts)
    assert np.max(drift) - np.min(drift) < 0.1
    # tagged tail drifts against its own closed class too
    tag_shape_log = ((1.0 - 1.5 / 2.0) * np.log(ts)
                     - (1.5 - 1.0) ** (1.5 - 1.0) * ts ** 1.5)
    drift2 = log_tag - tag_shape_log
    assert np.max(drift2) - np.min(drift2) < 0.1


def test_decay_integral_against_mpmath_oracle():
    # the y-space integral the tails run, between solved psi values, against
    # the r-space integral at 20 digits, with psi from mpmath's own root
    # finder on the gamma-function phi of beta-splitting(-1.6):
    # phi(y) = G(y + beta + 2)/G(y + 2 beta + 3) - G(beta + 2)/G(2 beta + 3)
    mp = pytest.importorskip("mpmath")
    spec = M.make_beta_splitting(-1.6)
    s = solver_for(spec)
    alpha = -0.6
    t0 = default_t0(s, alpha)
    with mp.workdps(20):
        beta, a_abs = mp.mpf(-1.6), mp.mpf(0.6)
        c0 = mp.gamma(beta + 2) / mp.gamma(2 * beta + 3)

        def phi(y):
            return mp.gamma(y + beta + 2) / mp.gamma(y + 2 * beta + 3) - c0

        def integrand(r):
            x = a_abs * r
            y = mp.findroot(lambda v: v / phi(v) - x, mp.mpf(s.psi(float(x))))
            return y / x

        i400 = mp.quad(integrand, [t0, 100, 400])
        i500 = i400 + mp.quad(integrand, [400, 500])
        y0 = s.psi(-alpha * t0)
        for t, oracle in ((400.0, i400), (500.0, i500)):
            y = s.psi(-alpha * t)
            value = _y_decay_integral(s.evaluator, y0, y) / -alpha
            assert abs(value - float(oracle)) <= 1e-12 * float(oracle)


EXACT_TAIL_SPECS = [
    M.make_stable(1.25), M.make_stable(1.5), M.make_stable(2.0),
    M.make_ford(0.5), M.make_beta_splitting(-1.6), M.make_uniform(2),
    M.make_beta(0.8, 0.9), M.make_beta(2.0, 3.0), M.make_identical(2),
    M.make_atomic([(1.0, (0.6, 0.3))]),
]


def _counting_tanh_sinh(monkeypatch):
    import fragtail.asymptotics as asy
    calls = []
    real = asy.tanh_sinh

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(asy, "tanh_sinh", counted)
    return calls


def _counting_psi(monkeypatch):
    calls = []
    real = PsiSolver.psi

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(PsiSolver, "psi", counted)
    return calls


def _counting_phi(monkeypatch):
    # phi' alone goes through phi_pair, so these two see every evaluation
    calls = []
    for name in ("phi", "phi_pair"):
        real = getattr(PhiEvaluator, name)

        def counted(self, x, real=real, name=name):
            calls.append(name)
            return real(self, x)

        monkeypatch.setattr(PhiEvaluator, name, counted)
    return calls


def test_tail_pair_shares_one_integration(monkeypatch):
    # a cold pair solves psi at t0 and t once each and integrates once; the
    # phi-layer calls are pinned: 1 for x_psi, 21 in the two solves, 1 pair
    # for the quadrature levels 0..4, where the integral stops, and 1 for
    # psi'
    solves = _counting_psi(monkeypatch)
    calls = _counting_tanh_sinh(monkeypatch)
    phi_calls = _counting_phi(monkeypatch)
    s = solver_for(M.make_stable(1.5))
    alpha = intrinsic_alpha(M.make_stable(1.5))
    extinction_log_tail(s, alpha, 120.0)
    tagged_log_tail(s, alpha, 120.0)
    assert len(solves) == 2
    assert len(calls) == 1
    assert len(phi_calls) == 24


@pytest.mark.parametrize("spec,method", [
    (M.make_uniform(2), "auto"), (M.make_beta(2.0, 3.0), "auto"),
    (M.make_stable(1.5), "auto"), (M.make_identical(2), "auto"),
    (M.make_ford(0.3), "auto"), (M.make_ford(0.5), "auto"),
    (M.make_beta_splitting(-1.5), "auto"),
    (M.make_beta_splitting(-1.6), "auto"),
    (M.make_beta(2.0, 3.0), "quadrature")],
    ids=["uniform-2", "beta-2-3", "stable-1.5", "identical-2", "ford-0.3",
         "ford-0.5", "beta-splitting--1.5", "beta-splitting--1.6",
         "beta-2-3-quadrature"])
def test_x_psi_is_one_phi_pair(monkeypatch, spec, method):
    # phi'(0) is finite for every measure, so phi(0) and phi'(0) come from
    # one pair call for every family and method
    calls = _counting_phi(monkeypatch)
    PhiEvaluator(spec, method=method).x_psi()
    assert calls == ["phi_pair"]


def test_grid_starting_at_t0_integrates_nothing_there(monkeypatch):
    # ts[0] == t0 is a zero-width first segment: its integral is 0 and the
    # one quadrature call covers the other segments only
    calls = _counting_tanh_sinh(monkeypatch)
    spec = M.make_stable(1.5)
    s = solver_for(spec)
    alpha = intrinsic_alpha(spec)
    t0 = default_t0(s, alpha)
    _, log_tag = log_tail_grid(s, alpha, [t0, 2.0 * t0, 3.0 * t0], t0)
    assert len(calls) == 1 and np.shape(calls[0][0]) == (2,)
    y0 = s.psi(-alpha * t0)
    prefactor = math.log(t0 * math.sqrt(s.psi_prime(-alpha * t0)) / y0)
    assert abs(log_tag[0] - prefactor) <= 1e-13 * abs(prefactor)


def test_grid_solves_each_point_once(monkeypatch):
    solves = _counting_psi(monkeypatch)
    calls = _counting_tanh_sinh(monkeypatch)
    spec = M.make_ford(0.5)
    ts = np.geomspace(50.0, 500.0, 13)
    log_tail_grid(solver_for(spec), intrinsic_alpha(spec), ts)
    assert len(solves) == len(ts) + 1
    assert len(calls) == 1


def test_scalar_tails_are_the_one_point_grid():
    for spec in EXACT_TAIL_SPECS:
        alpha = intrinsic_alpha(spec) or -1.0
        t0 = default_t0(solver_for(spec), alpha)
        for t in (30.0, 95.0, 400.0):
            for start in (None, 0.5 * (t0 + t)):
                log_ext, log_tag = log_tail_grid(solver_for(spec), alpha,
                                                 [t], start)
                s = solver_for(spec)
                assert (extinction_log_tail(s, alpha, t, start).log_value
                        == log_ext[0])
                assert (tagged_log_tail(s, alpha, t, start).log_value
                        == log_tag[0])


def test_tail_memo_bit_identical_and_exact_key(monkeypatch):
    # both tails on one solver equal, bit for bit, each tail computed on a
    # solver of its own; a changed t0 is a fresh integration
    for spec in EXACT_TAIL_SPECS:
        alpha = intrinsic_alpha(spec) or -1.0
        shared = solver_for(spec)
        for t in (30.0, 95.0, 400.0):
            ext = extinction_log_tail(shared, alpha, t).log_value
            tag = tagged_log_tail(shared, alpha, t).log_value
            assert ext == extinction_log_tail(solver_for(spec), alpha,
                                              t).log_value
            assert tag == tagged_log_tail(solver_for(spec), alpha,
                                          t).log_value
    calls = _counting_tanh_sinh(monkeypatch)
    s = solver_for(M.make_uniform(2))
    extinction_log_tail(s, -1.0, 40.0, t0=5.0)
    tagged_log_tail(s, -1.0, 40.0, t0=5.0)
    tagged_log_tail(s, -1.0, 40.0, t0=6.0)
    assert len(calls) == 2
    fresh = tagged_log_tail(solver_for(M.make_uniform(2)), -1.0, 40.0, t0=6.0)
    assert tagged_log_tail(s, -1.0, 40.0, t0=6.0).log_value == fresh.log_value


# ---------------------------------------------------------------------------
# frozen digests of the whole exact route

TAIL_TS = (30.0, 95.0, 400.0)
TAIL_GRID = np.geomspace(50.0, 500.0, 13)
_EXACT_ROUTE_CASES = {
    "stable-1.25": (M.make_stable(1.25), "auto", 301),
    "stable-1.5": (M.make_stable(1.5), "auto", 301),
    "stable-2": (M.make_stable(2.0), "auto", 301),
    "ford-0.5": (M.make_ford(0.5), "auto", 301),
    "beta-splitting--1.6": (M.make_beta_splitting(-1.6), "auto", 301),
    "uniform-2": (M.make_uniform(2), "auto", 301),
    "beta-0.8-0.9": (M.make_beta(0.8, 0.9), "auto", 301),
    "beta-2-3": (M.make_beta(2.0, 3.0), "auto", 301),
    "identical-2": (M.make_identical(2), "auto", 301),
    "atomic-0.6-0.3": (M.make_atomic([(1.0, (0.6, 0.3))]), "auto", 301),
    "atomic-4-part": (M.make_atomic([(0.5, (0.6, 0.2)), (1.5, (0.9, 0.1))]),
                      "auto", 301),
    # every quadrature point is a tanh-sinh integral of its own
    "beta-2-3-quadrature": (M.make_beta(2.0, 3.0), "quadrature", 31),
}


def _hex(values):
    arr = np.ascontiguousarray(np.asarray(values, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _exact_route_digests(spec, method, n_points):
    """SHA-256 prefixes of every layer of the exact route of one spec: phi
    and phi' batched and one point at a time, x_psi with psi and psi' at
    25 points, both log tails at three t and over the bench grid."""
    ev = PhiEvaluator(spec, method=method)
    xs = np.geomspace(1e-3, 1e5, n_points)
    few = xs[::10].tolist()
    s = PsiSolver(ev)
    ys = s.psi_values(s.x_psi * (1.0 + 2e-6) + np.geomspace(1e-6, 1e3, 25))
    alpha = intrinsic_alpha(spec) or -1.0
    tails = [log_tail_grid(PsiSolver(ev), alpha, [t]) for t in TAIL_TS]
    return {
        "phi": _hex(ev.phi(xs)),
        "phi_prime": _hex(ev.phi_prime(xs)),
        "scalar": _hex([ev.phi(x) for x in few]
                       + [ev.phi_prime(x) for x in few]),
        "psi": _hex([s.x_psi, *ys]),
        "psi_prime": _hex(s.psi_prime_at(ys)),
        "tails": _hex(np.concatenate([np.concatenate(p) for p in tails])),
        "grid": _hex(np.concatenate(log_tail_grid(s, alpha, TAIL_GRID))),
    }


_GOLDEN_EXACT_ROUTE = {
    "stable-1.25": {
        "phi": "7aafdbfea2741dad",
        "phi_prime": "d27e88e2094a66b0",
        "scalar": "fb9f77fc6ce06eeb",
        "psi": "dcf051987c48a0eb",
        "psi_prime": "467687ae1d28e883",
        "tails": "ac479fa0ef7607e9",
        "grid": "8eac46ce38e8e620",
    },
    "stable-1.5": {
        "phi": "af6403cb1206659f",
        "phi_prime": "9a353fec19fa5d4a",
        "scalar": "ed9b84d8751c565e",
        "psi": "8723479eb6e49555",
        "psi_prime": "7a1de3b9f0b702a0",
        "tails": "7ebbbf87b22b9a2b",
        "grid": "e3534c44533661a4",
    },
    "stable-2": {
        "phi": "c2ae735e09e740fe",
        "phi_prime": "ec7f5c22d10f2509",
        "scalar": "f4b38aedd02eb3b3",
        "psi": "5c3548785ea273f6",
        "psi_prime": "1b4183427b3ef529",
        "tails": "e6b113b4b4754c07",
        "grid": "1708c72083370b07",
    },
    "ford-0.5": {
        "phi": "65220f3afb35fa8e",
        "phi_prime": "dbe5c1c97a38637a",
        "scalar": "4b224f8e3e3b29bd",
        "psi": "9f1ba206b412bd71",
        "psi_prime": "8de95fedf8814352",
        "tails": "62c516b706f0c786",
        "grid": "b3b34cb89d6da8b1",
    },
    "beta-splitting--1.6": {
        "phi": "6af1f966ace7e72e",
        "phi_prime": "4ed5b154fe321ccc",
        "scalar": "20a494c876905d0f",
        "psi": "623ca272fea172af",
        "psi_prime": "eb1fe0552b285209",
        "tails": "a0609a67fed72742",
        "grid": "8ec7e1a42d34f07d",
    },
    "uniform-2": {
        "phi": "7c9f9b0a2eeece97",
        "phi_prime": "352ecca2e43c99c7",
        "scalar": "9d0351f9867c7754",
        "psi": "e748592559433a36",
        "psi_prime": "4dabb83c4852dbff",
        "tails": "7668cd519ad511d2",
        "grid": "14dea5a65a45007a",
    },
    "beta-0.8-0.9": {
        "phi": "6980628b61972b26",
        "phi_prime": "e724919ff4a79217",
        "scalar": "30123d709d6d17b2",
        "psi": "1ec82f25b99a80ed",
        "psi_prime": "dac2e2d3ab7e5570",
        "tails": "99949b4297a55c5d",
        "grid": "63385d823d221821",
    },
    "beta-2-3": {
        "phi": "4792059200e5e2e0",
        "phi_prime": "47362a99c4962860",
        "scalar": "9a9270ed4d9ad058",
        "psi": "5e38a64c19a9278c",
        "psi_prime": "a412ea1f712d5733",
        "tails": "723c6b2908a01a13",
        "grid": "ee553a5eea4af571",
    },
    "identical-2": {
        "phi": "524f226f18d906bc",
        "phi_prime": "af0ebd58097e0cef",
        "scalar": "703a8cfcbfcc28dc",
        "psi": "7f18877e249917d1",
        "psi_prime": "359d97f8f080c54f",
        "tails": "394efc91f12b8cfa",
        "grid": "2a31c5372b3beb06",
    },
    "atomic-0.6-0.3": {
        "phi": "384aeb9bab2a9737",
        "phi_prime": "3f86cd4741db522e",
        "scalar": "fd17b98caa9be3b6",
        "psi": "18ec0511799ecfec",
        "psi_prime": "002678fccc9e8c0d",
        "tails": "bd9607029e2c99a4",
        "grid": "dcb544c02c414c99",
    },
    "atomic-4-part": {
        "phi": "63fa3fe30330dfd4",
        "phi_prime": "6e7e161d434f4151",
        "scalar": "ab47d80f52e0bac0",
        "psi": "0d50f2cae4404d41",
        "psi_prime": "f339b86b4e196054",
        "tails": "fe97db3bd4397bf8",
        "grid": "dafd01952a82b6d8",
    },
    "beta-2-3-quadrature": {
        "phi": "cb2c49e06ae0c8ff",
        "phi_prime": "16c77b8994533485",
        "scalar": "437d4bfccfc15246",
        "psi": "99237b1c65156195",
        "psi_prime": "36989215145cf508",
        "tails": "0f08bea41ad2ab73",
        "grid": "e34f7a50906b7cd5",
    },
}


@pytest.mark.parametrize("label", list(_GOLDEN_EXACT_ROUTE))
def test_exact_route_matches_frozen_digests(label):
    """phi, phi', psi, psi' and both log tails of each exact-tail spec, the
    4-part atomic measure and quadrature beta(2, 3) hash to the values
    frozen under numpy 2.4.6 and scipy 1.17.1: a speed-up of any layer of
    the exact route must leave every bit of its output unchanged."""
    spec, method, n_points = _EXACT_ROUTE_CASES[label]
    assert _exact_route_digests(spec, method, n_points) \
        == _GOLDEN_EXACT_ROUTE[label]
