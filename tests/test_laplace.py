import math

import numpy as np
import pytest
from scipy.special import digamma

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
