import math

import numpy as np
import pytest
from scipy.special import digamma

from fragtail import laplace
from fragtail import measures as M
from fragtail.errors import DomainError
from fragtail.laplace import PhiEvaluator, digamma_diff, gammaln_diff

FOUR_PART_ATOMIC = M.make_atomic([(0.5, (0.6, 0.2)), (1.5, (0.9, 0.1))])
ALL_FAMILIES = [
    M.make_identical(2),
    M.make_identical(3),
    M.make_uniform(2),
    M.make_uniform(5),
    M.make_beta(2.0, 3.0),
    M.make_beta(0.8, 0.9),
    M.make_stable(1.25),
    M.make_stable(2.0),
    M.make_ford(0.5),
    M.make_ford(0.7),
    M.make_beta_splitting(-1.9),
    M.make_beta_splitting(-1.5),
    FOUR_PART_ATOMIC,
]


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_batch_invariant_phi_prime(spec):
    # a point's phi' does not depend on the batch it is evaluated in
    ev = PhiEvaluator(spec)
    xs = np.geomspace(1e-3, 1e4, 25)
    batch = ev.phi_prime(xs)
    assert [float(v) for v in batch] == [ev.phi_prime(float(x)) for x in xs]
    assert [float(v) for v in batch] == [float(ev.phi_prime(xs[i:i + 1])[0])
                                        for i in range(len(xs))]


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_phi_pair_is_phi_and_phi_prime(spec):
    # the pair shares intermediates but not a bit of its result: each item
    # equals the separate call, batched or one point at a time
    ev = PhiEvaluator(spec)
    xs = np.geomspace(1e-3, 1e4, 25)
    phi, dphi = ev.phi_pair(xs)
    assert np.array_equal(phi, ev.phi(xs))
    assert np.array_equal(dphi, ev.phi_prime(xs))
    singles = [ev.phi_pair(x) for x in xs.tolist()]
    assert singles == [(ev.phi(x), ev.phi_prime(x)) for x in xs.tolist()]
    slices = [ev.phi_pair(xs[i:i + 1]) for i in range(len(xs))]
    # batch-invariant like phi' (above), and like phi where phi is: an
    # atomic phi is a BLAS product over the parts, whose summation order
    # depends on the batch, and 4 of these 25 points of the 4-part measure
    # move by an ulp between a batch and a single point
    assert [d for _, d in singles] == dphi.tolist()
    assert [float(d[0]) for _, d in slices] == dphi.tolist()
    if spec is not FOUR_PART_ATOMIC:
        assert [p for p, _ in singles] == phi.tolist()
        assert [float(p[0]) for p, _ in slices] == phi.tolist()


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_scalar_calls_stay_scalar(spec, monkeypatch):
    # a scalar phi or phi_pair runs every branch of every gamma-function
    # switch on scalars, never on 0-d arrays, and returns Python floats
    real = laplace._switch

    def scalar_only(branch):
        def run(y, c):
            assert not isinstance(y, np.ndarray)
            assert not isinstance(c, np.ndarray)
            return branch(y, c)
        return run

    def checked(y, c, use_first, first, second):
        return real(y, c, use_first, scalar_only(first), scalar_only(second))

    monkeypatch.setattr(laplace, "_switch", checked)
    ev = PhiEvaluator(spec)
    for x in [0.0, 0.1, 0.5] + np.geomspace(1e-3, 1e4, 25).tolist():
        phi, dphi = ev.phi_pair(x)
        assert type(phi) is float and type(dphi) is float
        assert type(ev.phi(x)) is float


def _ulps(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def test_scalar_and_batched_agree_at_branch_edges():
    # the Stirling switch at y + c = 50 and the safely-positive switch at
    # base = 0.5, one ulp either side: a scalar call gives the batched
    # value bit for bit, where the batch mixes both branches
    def same(fn, ys, c):
        batch = fn(np.array(ys), c).tolist()
        assert [float(fn(y, c)) for y in ys] == batch
        assert [float(fn(np.array([y]), c)[0]) for y in ys] == batch

    for c in (0.5, -1.0 / 1.5, 1.0):
        z = _ulps(50.0)
        ys = [v - c for v in z] + _ulps(50.0) + [49.0, 51.0]
        assert [y + c for y in ys[:3]] == z
        same(gammaln_diff, ys, c)
        same(digamma_diff, ys, c)
    for c in (0.5, -0.5, 0.3):
        bases = _ulps(0.5) + [v - c for v in _ulps(0.5)] + [0.2, 3.0]
        same(laplace._gamma_ratio, bases, c)
        same(laplace._gamma_ratio_deriv, bases, c)
    # digamma/Gamma on both sides of its near-pole switch
    zs = [-2.02, -1.0, -0.04, 0.0, 0.01, 0.2, 0.3, 0.5, 2.0]
    same(lambda z, _c: laplace._rgamma_psi(z), zs, None)
    # ford(0.5) reaches base = 0.5 at x = 0.5
    ev = PhiEvaluator(M.make_ford(0.5))
    xs = _ulps(0.5)
    phi, dphi = ev.phi_pair(np.array(xs))
    assert [ev.phi_pair(x) for x in xs] == list(zip(phi.tolist(),
                                                   dphi.tolist()))


def test_uniform_two_closed_form():
    ev = PhiEvaluator(M.make_uniform(2))
    x = np.array([0.5, 1.0, 2.0, 10.0])
    assert np.allclose(ev.phi(x), x / (x + 2.0), rtol=1e-13)
    assert abs(ev.phi(2.0) - 0.5) < 1e-13
    assert abs(ev.phi_prime(2.0) - 0.125) < 1e-13


@pytest.mark.parametrize("k", [2, 3, 5])
def test_uniform_phi_relative_accuracy_against_mpmath(k):
    # 1 - k! Gamma(x+2)/Gamma(x+k+1) to full relative precision, also where
    # phi ~ x is tiny and a 1 - exp(...) form cancels
    mp = pytest.importorskip("mpmath")
    ev = PhiEvaluator(M.make_uniform(k))
    xs = np.geomspace(1e-12, 1e4, 60)
    vals = ev.phi(xs)
    with mp.workdps(40):
        for x, v in zip(xs.tolist(), vals.tolist()):
            xm = mp.mpf(x)
            ref = 1 - mp.factorial(k) * mp.gamma(xm + 2) / mp.gamma(xm + k + 1)
            assert abs((v - ref) / ref) <= 1e-15, (k, x)
    assert ev.phi(0.0) == 0.0


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.8, 0.9), (1.0, 1.0)])
def test_beta_phi_relative_accuracy_against_mpmath(a, b):
    # 1 - E[B**(x+1)] - E[(1-B)**(x+1)] to full relative precision, also
    # where phi ~ x is tiny and the two expectations cancel against 1
    mp = pytest.importorskip("mpmath")
    ev = PhiEvaluator(M.make_beta(a, b))
    xs = np.geomspace(1e-12, 1e4, 60)
    vals = ev.phi(xs)
    with mp.workdps(40):
        norm = mp.beta(a, b)
        for x, v in zip(xs.tolist(), vals.tolist()):
            xm = mp.mpf(x)
            ref = (1 - mp.beta(a + xm + 1, b) / norm
                   - mp.beta(a, b + xm + 1) / norm)
            assert abs((v - ref) / ref) <= 1e-14, (a, b, x)
    assert ev.phi(0.0) == 0.0


def test_conservative_phi_vanishes_at_zero():
    for spec in (M.make_identical(2), M.make_uniform(2), M.make_beta(2, 3),
                 M.make_stable(1.5), M.make_ford(0.5),
                 M.make_beta_splitting(-1.6)):
        assert abs(PhiEvaluator(spec).phi(0.0)) < 1e-12


def test_stable_special_value():
    ev = PhiEvaluator(M.make_stable(2.0))
    assert abs(ev.phi(1.0) - math.sqrt(math.pi)) < 1e-12


def test_identical_two_derivative():
    ev = PhiEvaluator(M.make_identical(2))
    # phi(x) = 1 - 2**-x, phi'(1) = ln2 / 2
    assert abs(ev.phi(1.0) - 0.5) < 1e-15
    assert abs(ev.phi_prime(1.0) - math.log(2.0) / 2.0) < 1e-14


@pytest.mark.parametrize("spec", [M.make_beta(2.0, 3.0),
                                  M.make_beta(0.8, 0.9),
                                  M.make_uniform(2),
                                  M.make_beta(10.0, 0.2)])
def test_closed_form_matches_quadrature(spec):
    # acceptance criterion 2 compares the two methods over x > 0
    closed = PhiEvaluator(spec, method="closed-form")
    quad = PhiEvaluator(spec, method="quadrature")
    # the quadrature integrand is summed as two terms of one sign, so it
    # does not cancel as x -> 0 and the route reaches its own x_psi
    assert quad.phi(0.0) == 0.0
    assert abs(quad.x_psi() - closed.x_psi()) <= 1e-12 * closed.x_psi()


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_monotonicity_and_concavity_ratio(spec):
    # atomic exponents saturate at the total rate once the largest part to
    # the power x underflows eps, so strict monotonicity is asserted below
    ev = PhiEvaluator(spec)
    grid = np.geomspace(0.05, 30.0, 220)
    vals = ev.phi(grid)
    assert np.all(np.diff(vals) > 0.0)                # phi increasing
    assert np.all(np.diff(vals / grid) < 0.0)          # phi(x)/x decreasing
    ratio = ev.phi_prime(grid) * grid / vals
    assert np.all(ratio <= 1.0 + 1e-9)
    assert np.all(ratio > 0.0)


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_phi_prime_finite_differences(spec):
    ev = PhiEvaluator(spec)
    for x in (0.3, 1.7, 23.0, 400.0):
        h = 1e-6 * max(1.0, x)
        lo, hi = ev.phi(x - h), ev.phi(x + h)
        if hi - lo < 1e-11 * hi:
            continue  # saturated in double precision, difference is noise
        fd = (hi - lo) / (2.0 * h)
        assert abs(fd - ev.phi_prime(x)) / abs(fd) < 1e-6


def test_x_psi_values():
    assert abs(PhiEvaluator(M.make_uniform(2)).x_psi() - 2.0) < 1e-12
    assert abs(PhiEvaluator(M.make_identical(2)).x_psi()
               - 1.0 / math.log(2.0)) < 1e-12
    # dust at every split: phi(0) > 0, domain edge collapses to 0
    assert PhiEvaluator(M.make_atomic([(1.0, (0.5,))])).x_psi() == 0.0
    g = 2.0
    assert abs(PhiEvaluator(M.make_stable(g)).x_psi()
               - 1.0 / (g * math.gamma(1.0 - 1.0 / g))) < 1e-12
    # phi'(0) = Gamma(1/2) where the gamma ratio's base sits on the pole at 0
    for spec in (M.make_ford(0.5), M.make_beta_splitting(-1.5)):
        assert PhiEvaluator(spec).x_psi() == 1.0 / math.sqrt(math.pi)


@pytest.mark.parametrize("spec", [M.make_ford(a)
                                  for a in (0.1, 0.25, 0.3, 0.5, 0.7, 0.9)]
                         + [M.make_beta_splitting(b) for b in
                            (-1.1, -1.2, -1.5, -1.6, -1.9, -1.95)],
                         ids=lambda spec: f"{spec.family}-{spec.params[0][1]}")
def test_tree_family_x_psi_against_mpmath(spec):
    # x_psi = 1/phi'(0) of the alpha-model and of beta-splitting, whose
    # gamma ratios meet a pole of Gamma at 0 for a = 1/2 and beta = -3/2
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        if spec.family == "ford":
            a = mp.mpf(spec.param("a"))

            def g(x):
                return (mp.gamma(x + 1 - a) * mp.rgamma(x + 1 - 2 * a)
                        - (2 - 4 * a) * mp.gamma(x + 2 - a)
                        * mp.rgamma(x + 3 - 2 * a))
        else:
            b = mp.mpf(spec.param("beta"))

            def g(x):
                return mp.gamma(x + b + 2) * mp.rgamma(x + 2 * b + 3)
        ref = 1 / mp.diff(g, 0)
        got = PhiEvaluator(spec).x_psi()
        assert abs((got - ref) / ref) <= 2e-15


def test_rgamma_psi_against_mpmath_near_the_poles():
    # digamma/Gamma on both sides of the poles 0 and -1, inside the band
    # where the product of the two factors is replaced by reflection
    mp = pytest.importorskip("mpmath")
    zs = np.concatenate([np.linspace(-0.049, 0.049, 43),
                         np.linspace(-1.049, -0.951, 43), [0.0, -1.0]])
    got = laplace._rgamma_psi(zs)
    with mp.workdps(40):
        for z, v in zip(zs.tolist(), got.tolist()):
            # the limits at the poles: -1 at 0, 1 at -1
            ref = (-mp.mpf(1) if z == 0.0 else mp.mpf(1) if z == -1.0
                   else mp.digamma(z) / mp.gamma(z))
            assert abs((v - ref) / ref) <= 1e-14, z


def test_hypothesis_check():
    for g in (1.25, 1.5, 2.0):
        rep = PhiEvaluator(M.make_stable(g)).check_hypothesis(x_max=1e5)
        assert rep.passed
        assert abs(rep.tail_sup - (1.0 - 1.0 / g)) < 0.02
    rep1 = PhiEvaluator(M.make_identical(2)).check_hypothesis()
    assert rep1.passed and rep1.tail_sup < 0.05
    ev2 = PhiEvaluator(M.make_uniform(2))
    rep2 = ev2.check_hypothesis()
    expected = 2.0 / (rep2.grid + 2.0)
    assert np.allclose(rep2.ratio, expected, rtol=1e-10)
    with pytest.raises(DomainError):
        ev2.check_hypothesis(x_max=50.0)


def test_gammaln_diff_integer_offsets():
    # Gamma(y+2)/Gamma(y) = y (y+1) exactly
    for y in (0.3, 7.0, 49.0, 51.0, 1e6, 1e12):
        want = math.log(y) + math.log1p(y) if y > 1 else math.log(y * (y + 1))
        got = gammaln_diff(y, 2.0)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        assert abs(gammaln_diff(y, 1.0) - math.log(y)) < 1e-13 * max(
            1.0, abs(math.log(y)))


def test_digamma_diff_unit_offset():
    # digamma(y+1) - digamma(y) = 1/y exactly
    for y in (0.2, 3.0, 49.5, 50.5, 1e7, 1e13):
        assert abs(digamma_diff(y, 1.0) - 1.0 / y) < 1e-14 * max(1.0, 1.0 / y)
    y = 123.0
    assert abs(digamma_diff(y, 0.7)
               - (digamma(y + 0.7) - digamma(y))) < 1e-12
