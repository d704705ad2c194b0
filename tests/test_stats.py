import math

import numpy as np
import pytest

from fragtail.asymptotics import TailShape
from fragtail.errors import ConfigError, InsufficientWindow
from fragtail.simulate import _generator
from fragtail.stats import (SurvivalCurve, ks_two_sample, paired_mean_diff,
                            shape_fit, survival_curve,
                            synthetic_tail_samples)


def test_point_mass_survival():
    c = 3.7
    curve = survival_curve(np.full(200, c), np.array([c / 2.0, 2.0 * c]))
    assert list(curve.p_hat) == [1.0, 0.0]


def test_exponential_survival_value():
    g = _generator(4)
    samples = g.exponential(1.0, size=1000000)
    curve = survival_curve(samples, np.array([1.0]))
    p = curve.p_hat[0]
    ci = curve.ci_half[0]
    assert abs(p - math.exp(-1.0)) <= 4.0 * ci
    assert abs(ci - 1.96 * math.sqrt(p * (1 - p) / 1e6)) < 1e-12


def test_survival_time_rescaling_equivariance():
    g = _generator(5)
    samples = g.exponential(1.0, size=5000)
    grid = np.linspace(0.1, 5.0, 20)
    r = 2.5
    a = survival_curve(samples, grid)
    b = survival_curve(samples * r, grid * r)
    assert np.array_equal(a.p_hat, b.p_hat)


def test_min_sample_count():
    with pytest.raises(ConfigError):
        survival_curve(np.ones(50), np.array([1.0]))


SHAPE2 = TailShape(2.0, ((1.0, 1.0),))
SHAPE0 = TailShape(0.0, ((1.0, 1.0),))


def test_synthetic_sampler_matches_its_shape():
    g = _generator(6)
    s = synthetic_tail_samples(SHAPE2, 3.0, 200000, g)
    assert s.min() >= 3.0
    # survival at t equals shape(t)/shape(3) exactly
    for t in (4.0, 6.0, 9.0):
        p = (s > t).mean()
        want = math.exp(SHAPE2.log_value(t) - SHAPE2.log_value(3.0))
        se = math.sqrt(want * (1 - want) / len(s))
        assert abs(p - want) <= 4.0 * se


def test_shape_fit_discrimination():
    g = _generator(7)
    s = synthetic_tail_samples(SHAPE2, 3.0, 1000000, g)
    grid = np.quantile(s, 1.0 - np.geomspace(0.2, 1.5e-3, 16))
    curve = survival_curve(s, grid)
    good = shape_fit(curve, SHAPE2)
    bad = shape_fit(curve, SHAPE0)
    assert good.max_abs_residual < 0.05
    assert bad.max_abs_residual > 0.3


def test_shape_fit_constant_absorbs_scaling():
    g = _generator(8)
    s = synthetic_tail_samples(SHAPE2, 3.0, 200000, g)
    grid = np.quantile(s, 1.0 - np.geomspace(0.2, 2e-3, 12))
    curve = survival_curve(s, grid)
    fit = shape_fit(curve, SHAPE2)
    kappa = 0.37
    scaled = SurvivalCurve(t_grid=curve.t_grid, p_hat=curve.p_hat * kappa,
                           ci_half=curve.ci_half, n=curve.n)
    fit2 = shape_fit(scaled, SHAPE2, window=(1e-3 * kappa, 0.2))
    assert np.allclose(fit2.residuals, fit.residuals, atol=1e-12)
    assert fit2.fitted_constant == pytest.approx(
        fit.fitted_constant + math.log(kappa))


def test_shape_fit_window_guard():
    curve = survival_curve(np.linspace(0, 1, 200), np.linspace(0.2, 0.8, 4))
    with pytest.raises(InsufficientWindow):
        shape_fit(curve, SHAPE0, window=(1e-9, 1e-8))


def test_paired_mean_diff():
    g = _generator(9)
    x = g.random(10000)
    noise = 1e-3 * g.standard_normal(10000)
    est = paired_mean_diff(x, x + noise)
    assert abs(est.mean) <= 4.0 * est.stderr + 1e-4
    assert est.stderr < 1e-4  # pairing kills the shared variance


def test_ks_identical_and_separated():
    g = _generator(10)
    a = g.exponential(1.0, 10000)
    assert ks_two_sample(a, a).statistic == 0.0
    b = g.exponential(1.0 / 1.5, 10000)  # Exp(rate 1.5)
    assert not ks_two_sample(a, b).pass_1pct
    c = g.exponential(1.0, 10000)
    assert ks_two_sample(a, c).pass_1pct
    with pytest.raises(ConfigError):
        ks_two_sample(a[:100], b)
