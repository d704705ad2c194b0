import math

import numpy as np
import pytest

from fragtail import measures as M
from fragtail.errors import DomainError
from fragtail.inversion import PsiSolver
from fragtail.laplace import PhiEvaluator

FAMILIES = [
    M.make_identical(2),
    M.make_uniform(2),
    M.make_beta(2.0, 3.0),
    M.make_stable(1.5),
    M.make_stable(2.0),
    M.make_ford(0.5),
    M.make_beta_splitting(-1.6),
]


def solver_for(spec):
    return PsiSolver(PhiEvaluator(spec))


def test_uniform_two_closed_form():
    s = solver_for(M.make_uniform(2))
    assert abs(s.psi(4.0) - 2.0) < 1e-9
    assert abs(s.psi(10.0) - 8.0) < 1e-9
    for x in (2.5, 7.0, 300.0):
        assert abs(s.psi_prime(x) - 1.0) < 1e-8


def test_identical_two_against_bisection_oracle():
    # root of y / (1 - 2**-y) = 5, solved independently by plain bisection
    def g(y):
        return y / (1.0 - 2.0 ** (-y)) - 5.0

    lo, hi = 0.1, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    s = solver_for(M.make_identical(2))
    assert abs(s.psi(5.0) - oracle) < 1e-8


@pytest.mark.parametrize("spec", FAMILIES)
def test_round_trip_residual(spec):
    s = solver_for(spec)
    grid = np.geomspace(1.0, 1e3, 60) * 1.02 + s.x_psi
    for x in grid:
        y = s.psi(float(x))
        assert abs(y / s.evaluator.phi(y) - x) <= 1e-10 * x


@pytest.mark.parametrize("spec", FAMILIES)
def test_monotonicity(spec):
    s = solver_for(spec)
    grid = np.geomspace(1.0, 500.0, 80) * 1.05 + s.x_psi
    vals = np.array([s.psi(float(x)) for x in grid])
    assert np.all(np.diff(vals) > 0.0)
    # psi(x)/x is strictly increasing; allow float flatness where phi
    # saturates at its total rate
    assert np.all(np.diff(vals / grid) > -1e-14 * (vals / grid)[:-1])


@pytest.mark.parametrize("spec", FAMILIES)
def test_psi_prime_against_finite_differences(spec):
    s = solver_for(spec)
    for x in np.geomspace(4.0, 800.0, 9) + s.x_psi:
        h = 1e-4 * x
        fd = (s.psi(float(x + h)) - s.psi(float(x - h))) / (2.0 * h)
        assert abs(s.psi_prime(float(x)) - fd) / fd < 1e-5


@pytest.mark.parametrize("spec", FAMILIES)
def test_psi_prime_growth_ratio_bounded(spec):
    # psi'(x) <= K psi(x)/x for one constant over the tail grid
    s = solver_for(spec)
    grid = np.geomspace(20.0, 2e3, 25) + s.x_psi
    ratios = [s.psi_prime(float(x)) * x / s.psi(float(x)) for x in grid]
    assert max(ratios) < 10.0


def test_domain_guard():
    s = solver_for(M.make_uniform(2))
    with pytest.raises(DomainError):
        s.psi(2.0)
    with pytest.raises(DomainError):
        s.psi(2.0 * (1.0 + 1e-9))
    s.psi(2.0 * (1.0 + 1e-5))  # just outside the guard band works


def test_psi_brackets_up_to_the_float_range():
    # stable(1.5) has psi(x) ~ x**1.5: the roots of 1e150 and 1e200 lie
    # near 1.8e225 and 1.8e300, found after 251 and 334 doublings; the root
    # of 1e300 is past the largest float, a domain error that names psi
    s = solver_for(M.make_stable(1.5))
    with np.errstate(over="ignore"):
        for x in (1e150, 1e200):
            y = s.psi(x)
            assert abs(y / s.evaluator.phi(y) - x) <= 1e-10 * x
        with pytest.raises(DomainError, match=r"psi\(1e\+300\)"):
            s.psi(1e300)


def test_growth_exponents():
    assert abs(solver_for(M.make_identical(2)).growth_exponent(1e4) - 1.0) \
        < 0.05
    assert abs(solver_for(M.make_uniform(2)).growth_exponent(1e4) - 1.0) \
        < 0.05
    assert abs(solver_for(M.make_stable(2.0)).growth_exponent(1e5) - 2.0) \
        < 0.05


def test_growth_exponent_solves_each_octave_point_once(monkeypatch):
    calls = []
    real = PsiSolver.psi

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(PsiSolver, "psi", counted)
    s = solver_for(M.make_stable(2.0))
    s.growth_exponent(1e5, octaves=6)
    assert len(calls) == 7
    # the solver keeps nothing beyond its inputs
    assert set(vars(s)) == {"evaluator", "x_psi"}


@pytest.mark.parametrize("spec", [M.make_identical(2), M.make_uniform(2),
                                  M.make_stable(2.0)])
def test_growth_exponent_respects_ratio_bound(spec):
    ev = PhiEvaluator(spec)
    rep = ev.check_hypothesis(x_max=1e5)
    kappa = PsiSolver(ev).growth_exponent(1e5)
    assert kappa <= 1.0 / (1.0 - rep.tail_sup) + 0.05


def test_interleaving_independent_values():
    # same inputs give bit-identical psi regardless of evaluation order
    spec = M.make_stable(1.5)
    xs = np.geomspace(1.0, 200.0, 25) + 0.3
    a = PsiSolver(PhiEvaluator(spec))
    b = PsiSolver(PhiEvaluator(spec))
    vals_a = [a.psi(float(x)) for x in xs]
    vals_b = [b.psi(float(x)) for x in reversed(xs)][::-1]
    assert vals_a == vals_b


def test_psi_values_sorted_batch_is_monotone():
    s = solver_for(M.make_beta(2.0, 3.0))
    xs = np.array([3.0, 5.5, 17.0, 40.0, 90.0])
    ys = s.psi_values(xs)
    assert np.all(np.diff(ys) > 0.0)
    assert np.all(np.diff(ys / xs) > 0.0)  # psi(x)/x increasing
    assert np.all(np.abs(ys / s.evaluator.phi(ys) - xs) <= 1e-10 * xs)


REGISTRY = FAMILIES + [
    M.make_identical(3),
    M.make_uniform(5),
    M.make_beta(0.8, 0.9),
    M.make_stable(1.25),
    M.make_ford(0.7),
    M.make_beta_splitting(-1.9),
    M.make_atomic([(1.0, (0.6, 0.3))]),
    M.make_atomic([(0.5, (0.6, 0.2)), (1.5, (0.9, 0.1))]),
]


@pytest.mark.parametrize("spec", REGISTRY)
def test_psi_values_bit_identical_to_scalar(spec):
    # a point's value does not depend on the batch it is solved in
    ev = PhiEvaluator(spec)
    xs = ev.x_psi() * (1.0 + 2e-6) + np.geomspace(1e-6, 1e3, 25)
    batch = PsiSolver(ev).psi_values(xs)
    one = PsiSolver(ev)
    assert [float(v) for v in batch] == [one.psi(float(x)) for x in xs]
    rev = PsiSolver(ev).psi_values(xs[::-1])[::-1]
    assert np.array_equal(rev, batch)


def test_psi_values_domain_guard():
    s = solver_for(M.make_uniform(2))
    for bad in ([3.0, 1.0], [3.0, np.nan], [np.inf]):
        with pytest.raises(DomainError):
            s.psi_values(bad)


@pytest.mark.parametrize("spec", REGISTRY)
def test_one_solve_evaluates_phi_once_per_point(spec):
    # the bracket ends and the returned root are not evaluated again
    ev = PhiEvaluator(spec)
    s = PsiSolver(ev)
    seen = []

    class Counting:
        def phi(self, y):
            seen.append(y)
            return ev.phi(y)

    s.evaluator = Counting()
    for x in s.x_psi * (1.0 + 2e-6) + np.geomspace(1e-6, 1e3, 9):
        seen.clear()
        y = s.psi(float(x))
        assert len(seen) == len(set(seen))
        assert y in seen
