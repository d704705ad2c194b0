"""Estimation utilities: survival curves, shape fits, paired differences,
two-sample tests.

Everything here is aggregation over immutable sample arrays.  Shape fits
work in log-survival space: the tail classes proved for these cascades hold
up to an unknown constant, so the honest criterion is a bounded residual
after fitting that one constant over a window of survival levels, never a
pointwise value match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientWindow

# asymptotic two-sided Kolmogorov-Smirnov critical value at the 1% level
KS_COEF_1PCT = 1.6276


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical survival probabilities with normal-approximation 95% bands."""

    t_grid: np.ndarray
    p_hat: np.ndarray
    ci_half: np.ndarray
    n: int


def survival_curve(samples, t_grid):
    """Empirical P(sample > t) over a grid, with 95% half-widths."""
    samples = np.asarray(samples, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    n = len(samples)
    if n < 100:
        raise ConfigError("need at least 100 samples for a survival curve")
    sorted_samples = np.sort(samples)
    exceed = n - np.searchsorted(sorted_samples, t_grid, side="right")
    p_hat = exceed / n
    ci_half = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / n)
    return SurvivalCurve(t_grid=t_grid, p_hat=p_hat, ci_half=ci_half, n=n)


def survival_grid(samples, hi, lo, n):
    """The sorted distinct sample quantiles at the n survival levels
    geomspace(hi, lo, n): a t grid for :func:`survival_curve`."""
    return np.unique(np.quantile(samples, 1.0 - np.geomspace(hi, lo, n)))


@dataclass(frozen=True)
class ShapeFit:
    """Least-squares constant fit of a tail shape to a survival curve.

    ``fitted_constant`` is the log-domain offset c minimizing the sum of
    squared residuals log p_hat - shape_log - c over the window points.
    """

    shape: object
    fitted_constant: float
    t_window: np.ndarray
    residuals: np.ndarray
    max_abs_residual: float


def shape_fit(curve, shape, window=(1e-3, 0.2)):
    """Fit the shape's constant over the survival window and report the
    residual profile.

    The default window keeps clear of both pre-asymptotic bias (survival
    above 0.2) and Monte Carlo noise (survival below 1e-3).
    """
    lo, hi = window
    sel = (curve.p_hat >= lo) & (curve.p_hat <= hi)
    if int(sel.sum()) < 5:
        raise InsufficientWindow(
            f"only {int(sel.sum())} grid points with survival in "
            f"[{lo:g}, {hi:g}]; need at least 5")
    t = curve.t_grid[sel]
    log_p = np.log(curve.p_hat[sel])
    model = shape.log_value(t)
    constant = float(np.mean(log_p - model))
    residuals = log_p - model - constant
    return ShapeFit(shape=shape, fitted_constant=constant, t_window=t,
                    residuals=residuals,
                    max_abs_residual=float(np.max(np.abs(residuals))))


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float


def paired_mean_diff(x, y):
    """Mean and standard error of x - y on common runs.

    The identities checked in this package are exact in law, so pairing the
    two estimators on the same runs removes the shared randomness and
    leaves only the (much smaller) conditional noise.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    n = len(d)
    return MomentEstimate(mean=float(d.mean()),
                          stderr=float(d.std(ddof=1) / math.sqrt(n)))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold_1pct: float
    pass_1pct: bool


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov distance with the asymptotic 1% gate
    1.6276 * sqrt((n+m)/(n m))."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    if n < 1000 or m < 1000:
        raise ConfigError("two-sample test needs at least 1000 per side")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n
    cdf_b = np.searchsorted(b, grid, side="right") / m
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    threshold = KS_COEF_1PCT * math.sqrt((n + m) / (n * m))
    return KSResult(statistic=stat, threshold_1pct=threshold,
                    pass_1pct=stat < threshold)


def synthetic_tail_samples(shape, t_start, n, rng):
    """Draw samples whose survival is exactly shape(t)/shape(t_start) for
    t >= t_start (and 1 below), by bisecting the log survival.

    The independent generator behind the shape-fit oracle tests: the fitted
    shape must then match with small residuals, a perturbed shape must not.
    """
    log_s0 = shape.log_value(t_start)
    u = 1.0 - rng.random(n)  # in (0, 1]: keeps log(u) finite
    target = np.log(u) + log_s0  # solve shape.log_value(t) = target
    lo = np.full(n, float(t_start))
    hi = np.full(n, float(t_start))
    step = np.ones(n)
    for _ in range(200):
        vals = shape.log_value(hi)
        todo = vals > target
        if not todo.any():
            break
        lo[todo] = hi[todo]
        hi[todo] = hi[todo] + step[todo]
        step[todo] *= 2.0
    else:
        raise ConfigError("tail shape does not decay on the sampled range")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        high_side = shape.log_value(mid) > target
        lo[high_side] = mid[high_side]
        hi[~high_side] = mid[~high_side]
    return 0.5 * (lo + hi)
