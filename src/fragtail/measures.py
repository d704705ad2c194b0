"""Dislocation measures: registry families and samplers.

A dislocation measure assigns rates to splits of a unit mass into a
nonincreasing sequence of fractions.  Three storage variants cover the
families supported here:

* ``atomic``          -- finitely many weighted atoms, each a fixed split;
* ``binary-density``  -- binary conservative splits ``(s, 1-s)`` with a
                         density for the larger piece on (1/2, 1);
* ``analytic``        -- infinite-rate families known only through a
                         closed-form Laplace exponent; no sampler.

Specs are frozen, hashable, pure-data objects so they can be shared across
workers and used as cache keys; all callables (densities, closed forms,
samplers) are resolved by family dispatch at call time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, expit

from .errors import ConfigError, UnsupportedSampling

ATOMIC = "atomic"
BINARY_DENSITY = "binary-density"
ANALYTIC = "analytic"

_FINITE_VARIANTS = (ATOMIC, BINARY_DENSITY)


@dataclass(frozen=True)
class DislocationSpec:
    """Immutable description of a dislocation measure.

    ``atoms`` stores unscaled atom data ``((weight, (s1, s2, ...)), ...)``;
    ``params`` stores family parameters as sorted ``(name, value)`` pairs.
    ``scale`` multiplies the whole measure (total rate) and leaves the split
    law unchanged.
    """

    family: str
    variant: str
    scale: float = 1.0
    params: tuple = ()
    atoms: tuple = None

    def __post_init__(self):
        if self.scale <= 0.0 or not math.isfinite(self.scale):
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.variant == ATOMIC:
            # every clock and phi value is bounded by the total rate
            try:
                rate = self.scale * self.base_mass
            except OverflowError:  # fsum's intermediate overflow
                rate = math.inf
            if not rate < math.inf:
                raise ConfigError(
                    f"total rate, scale {self.scale} times the sum of the "
                    f"atom weights, is not finite")

    def param(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def is_finite(self):
        return self.variant in _FINITE_VARIANTS

    @property
    def base_mass(self):
        """Mass of the unscaled measure (1.0 for the probability families)."""
        if self.variant == ATOMIC:
            return math.fsum(w for w, _ in self.atoms)
        if self.variant == BINARY_DENSITY:
            return 1.0
        raise UnsupportedSampling(
            f"family {self.family!r} has infinite total rate")


def total_mass(spec):
    """Total splitting rate of the measure; the exponential clock rate of a
    unit-mass fragment."""
    if not spec.is_finite:
        raise UnsupportedSampling(
            f"family {spec.family!r} has infinite total rate")
    return spec.scale * spec.base_mass


def intrinsic_alpha(spec):
    """Self-similarity index canonically attached to the tree families,
    None for the finite families (index is a free parameter there)."""
    if spec.family == "stable":
        g = spec.param("gamma")
        return 1.0 / g - 1.0
    if spec.family == "ford":
        return -spec.param("a")
    if spec.family == "beta-splitting":
        return 1.0 + spec.param("beta")
    return None


# ---------------------------------------------------------------------------
# constructors

def _validated_atoms(raw_atoms):
    atoms = []
    for weight, parts in raw_atoms:
        if isinstance(parts, str):
            raise ConfigError(f"atom parts must be a list, got {parts!r}")
        weight = float(weight)
        parts = tuple(float(p) for p in parts if p != 0.0)
        if not 0.0 < weight < math.inf:
            raise ConfigError(
                f"atom weight must be positive and finite, got {weight}")
        if not parts:
            raise ConfigError("atom must have at least one positive part")
        if not all(0.0 < p <= 1.0 for p in parts):
            raise ConfigError(f"atom parts must lie in (0, 1]: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ConfigError(f"atom parts must be nonincreasing: {parts}")
        if math.fsum(parts) > 1.0 + 4.0 * np.finfo(float).eps:
            raise ConfigError(f"atom parts sum above 1: {parts}")
        if parts[0] >= 1.0:
            raise ConfigError(
                "atom with largest part 1 performs no split; rejected")
        atoms.append((weight, parts))
    if not atoms:
        raise ConfigError("measure must charge at least one genuine split")
    return tuple(atoms)


def make_atomic(atoms, scale=1.0):
    return DislocationSpec(
        family="atomic", variant=ATOMIC, scale=scale,
        atoms=_validated_atoms(atoms))


# the most pieces of identical-k and uniform-k: an identical-k atom holds k
# parts and uniform-k's phi is a product of k - 1 factors, so a larger k
# only exhausts memory or time
_MAX_K = 10_000


def _piece_count(k, family):
    k = float(k)
    if not (k.is_integer() and 2.0 <= k <= _MAX_K):
        raise ConfigError(
            f"{family} requires an integer k in [2, {_MAX_K}], got {k}")
    return int(k)


def make_identical(k, scale=1.0):
    """Split into k equal pieces of mass 1/k."""
    k = _piece_count(k, "identical-k")
    return DislocationSpec(
        family="identical-k", variant=ATOMIC, scale=scale,
        params=(("k", k),), atoms=((1.0, (1.0 / k,) * k),))


def make_uniform(k, scale=1.0):
    """Uniform (flat Dirichlet) split into k pieces.

    k = 2 carries the sampler of a binary density; k >= 3 is kept
    analytic-only (closed-form Laplace exponent, no sampler), since general
    simplex densities are out of scope here.
    """
    k = _piece_count(k, "uniform-k")
    variant = BINARY_DENSITY if k == 2 else ANALYTIC
    return DislocationSpec(
        family="uniform-k", variant=variant, scale=scale, params=(("k", k),))


def make_beta(a, b, scale=1.0):
    """Binary split (B, 1-B) with B drawn from a Beta(a, b) density."""
    a, b = float(a), float(b)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ConfigError("beta family requires finite a > 0 and b > 0")
    return DislocationSpec(
        family="beta", variant=BINARY_DENSITY, scale=scale,
        params=(("a", a), ("b", b)))


def make_stable(gamma, scale=1.0):
    gamma = float(gamma)
    if not 1.0 < gamma <= 2.0:
        raise ConfigError("stable family requires gamma in (1, 2]")
    return DislocationSpec(
        family="stable", variant=ANALYTIC, scale=scale,
        params=(("gamma", gamma),))


def make_ford(a, scale=1.0):
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ConfigError("ford family requires a in (0, 1)")
    return DislocationSpec(
        family="ford", variant=ANALYTIC, scale=scale, params=(("a", a),))


def make_beta_splitting(beta, scale=1.0):
    beta = float(beta)
    if not -2.0 < beta < -1.0:
        raise ConfigError("beta-splitting family requires beta in (-2, -1)")
    return DislocationSpec(
        family="beta-splitting", variant=ANALYTIC, scale=scale,
        params=(("beta", beta),))


_BUILDERS = {
    "atomic": lambda p, r: make_atomic(
        [(atom["weight"], atom["parts"]) for atom in p["atoms"]], r),
    "identical-k": lambda p, r: make_identical(p["k"], r),
    "uniform-k": lambda p, r: make_uniform(p["k"], r),
    "beta": lambda p, r: make_beta(p["a"], p["b"], r),
    "stable": lambda p, r: make_stable(p["gamma"], r),
    "ford": lambda p, r: make_ford(p["a"], r),
    "beta-splitting": lambda p, r: make_beta_splitting(p["beta"], r),
}


def from_config(config):
    """Build a spec from the JSON document schema
    ``{"family": ..., "params": {...}, "scale": r}``."""
    if not isinstance(config, dict):
        raise ConfigError("measure config must be a JSON object")
    family = config.get("family")
    if not isinstance(family, str) or family not in _BUILDERS:
        raise ConfigError(
            f"unknown family {family!r}; expected one of {sorted(_BUILDERS)}")
    try:
        scale = float(config.get("scale", 1.0))
        return _BUILDERS[family](config.get("params", {}), scale)
    except KeyError as exc:
        raise ConfigError(f"family {family!r} missing parameter {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {family!r} measure config: {exc}") from exc


def load_measure(path):
    """Read a measure spec from a JSON file."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read measure spec {path!r}: {exc}") from exc
    return from_config(config)


# ---------------------------------------------------------------------------
# binary-density machinery: density / cdf of the larger piece on (1/2, 1)

def _beta_pdf(a, b, u, um1):
    lognorm = betaln(a, b)
    return np.exp((a - 1.0) * np.log(u) + (b - 1.0) * np.log(um1) - lognorm)


def split_density(spec, u, one_minus_u):
    """Density of the larger piece s1 at u in (1/2, 1), for the normalized
    (probability) split law."""
    if spec.variant != BINARY_DENSITY:
        raise UnsupportedSampling("split_density needs a binary-density spec")
    u = np.asarray(u, dtype=float)
    one_minus_u = np.asarray(one_minus_u, dtype=float)
    if spec.family == "uniform-k":
        return np.full_like(u, 2.0)
    a, b = spec.param("a"), spec.param("b")
    # the larger piece is max(B, 1-B): fold the Beta density at 1/2
    return _beta_pdf(a, b, u, one_minus_u) + _beta_pdf(a, b, one_minus_u, u)


def split_cdf(spec, u):
    """CDF of the larger piece s1 on (1/2, 1)."""
    if spec.variant != BINARY_DENSITY:
        raise UnsupportedSampling("split_cdf needs a binary-density spec")
    u = np.asarray(u, dtype=float)
    if spec.family == "uniform-k":
        return np.clip(2.0 * u - 1.0, 0.0, 1.0)
    a, b = spec.param("a"), spec.param("b")
    return betainc(a, b, u) - betainc(a, b, 1.0 - u)


# ---------------------------------------------------------------------------
# split sampler: the inverse CDF of the larger piece as tables of cells

_CELLS = 2 ** 12      # bulk cells, uniform in q: a power of two, so that q
                      # times it and the fraction of that are exact
_END_CELLS = 2 ** 9   # fewest and most cells of an end table
_MAX_END_CELLS = 2 ** 13
_CELL_ERROR = 1e-11   # the largest estimated error in q a cell may have
_REACH = 54.0         # end tables stop at q or 1 - q = 2^-54; the
                      # generator's uniforms stay 2^-53 from either end
_NEAR_HALF = 2.0 ** -40  # the head table stops at u = 1/2 + this ...
_NEAR_ONE = 2.0 ** -54   # ... and the tail at u = 1 - this, which rounds to 1
_START_POINTS = 400   # coarse grid that each node solve starts from
_LOGIT_CDF = 8.0      # F is taken from d = u - 1/2 up to y = log(d / v) = 8
_LN2 = math.log(2.0)


def _log(x):
    """log x, with -inf at x = 0 and no warning."""
    x = np.asarray(x, dtype=float)
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)


def _cell_error(log_slope, width):
    """Leading-order midpoint error in q of the cubic Hermite cells of an
    interpolant u(z) on uniform cells, from log |du/dz| at the nodes and
    the cells' q-widths.  The midpoint error in u is u''''(z) step^4 / 384,
    and u'''' / u' = l'^3 + 3 l' l'' + l''' for l = log |u'|, taken here in
    differences across the cells."""
    d1 = np.diff(log_slope)
    d2 = np.pad(np.diff(d1), 1, mode="edge")
    d3 = np.pad(np.diff(d1, 2), 1, mode="edge")
    d2 = 0.5 * (d2[:-1] + d2[1:])
    return np.abs(d1 ** 3 + 3.0 * d1 * d2 + d3) * width / 384.0


def _rounding_floor(log_f):
    """Error in q that rounding adds in each cell between nodes with these
    log densities: u in [1/2, 1) is held to 2^-53, which moves F by the
    density times that, and F itself is evaluated to about 2^-52."""
    return 2.0 ** -52 * (1.0 + np.exp(np.maximum(log_f[:-1], log_f[1:])))


def _hermite(u, slope):
    """(4, cells) coefficients of u = c0 + s (c1 + s (c2 + s c3)) for s in
    [0, 1] through the nodes u with the given slopes in s.  Each cell's
    slopes are limited to 3 times its secant, which keeps it monotone."""
    d = np.diff(u)
    limit = 3.0 * np.abs(d)
    m0 = np.copysign(np.minimum(np.abs(slope[:-1]), limit), d)
    m1 = np.copysign(np.minimum(np.abs(slope[1:]), limit), d)
    return np.array([u[:-1], m0, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d])


def _horner(coef, cell, s):
    """Each cell's cubic at its local s, summed in place."""
    c0, c1, c2, c3 = coef
    out = c3[cell]
    out *= s
    out += c2[cell]
    out *= s
    out += c1[cell]
    out *= s
    out += c0[cell]
    return out


class _BetaSplitLaw:
    """The larger piece's law under beta(a, b) in the forms the table build
    needs: log F(1/2 + d), the log survival log(1 - F(1 - v)) =
    log P(smaller piece < v) and the log density, each free of
    cancellation and of a log of 0; and F^-1 in the logits of u and q.

    The solve works in y = log(d / v), with d = u - 1/2 and v = 1 - u both
    taken from y without rounding loss, on logit q = log F - log(1 - F):
    near either end the map is close to linear, so one Newton step from a
    cubic interpolation of a coarse grid lands on the root."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        # F(1/2 + d) = I(1/2 + d) - I(1/2 - d) for the regularized
        # incomplete beta I with the parameters in either order; the order
        # with I(1/2) <= 1/2 cancels least
        self.near_half = (a, b) if betainc(a, b, 0.5) <= 0.5 else (b, a)
        self.lognorm = betaln(a, b)
        # from d = _NEAR_HALF to v = _NEAR_ONE / 4; F is taken from d up to
        # u = 3/4 here, close enough to find the median
        y = np.linspace(math.log(_NEAR_HALF / (0.5 - _NEAR_HALF)),
                        math.log((0.5 - _NEAR_ONE / 4.0) / (_NEAR_ONE / 4.0)),
                        _START_POINTS)
        g, dg_dy = self._logit_q(y, y <= 0.0)
        keep = np.isfinite(g) & (dg_dy > 0.0)
        self.grid = y[keep], g[keep], 1.0 / dg_dy[keep]
        # y at the median, past which the survival is the smaller side
        self.y_cdf = min(_LOGIT_CDF, float(np.interp(0.0, g[keep], y[keep])))

    def log_cdf(self, d):
        a, b = self.near_half
        return _log(betainc(a, b, 0.5 + d) - betainc(a, b, 0.5 - d))

    def log_sf(self, v):
        return _log(betainc(self.a, self.b, v) + betainc(self.b, self.a, v))

    def log_pdf(self, u, v):
        """log split_density(u) with v = 1 - u given exactly."""
        lu, lv = np.log(u), np.log(v)
        a1, b1 = self.a - 1.0, self.b - 1.0
        return np.logaddexp(a1 * lu + b1 * lv, a1 * lv + b1 * lu) - self.lognorm

    def _logit_q(self, y, cdf_side):
        """logit q at y and its derivative in y, with F from d where
        ``cdf_side`` holds and from the survival at v elsewhere."""
        d, v = _halves(y)
        log_small = np.empty_like(y)
        log_small[cdf_side] = self.log_cdf(d[cdf_side])
        log_small[~cdf_side] = self.log_sf(v[~cdf_side])
        log_large = _log(-np.expm1(log_small))
        g = np.where(cdf_side, log_small - log_large, log_large - log_small)
        # dq/du = f and du/dy = 2 d v
        log_dg = (self.log_pdf(_join(d, v, y), v) + math.log(2.0)
                  + np.log(d) + np.log(v) - log_small - log_large)
        return g, np.exp(log_dg)

    def nodes(self, log_q, log_p):
        """(u, log density at u) where F(u) = q, given log q and
        log p = log(1 - q): one Newton step in y from the cubic Hermite
        interpolation of the grid, kept in the grid's bracket of the
        root."""
        target = log_q - log_p
        y_grid, g_grid, dy_dg = self.grid
        k = np.clip(np.searchsorted(g_grid, target), 1, len(g_grid) - 1)
        lo, hi = y_grid[k - 1], y_grid[k]
        width = g_grid[k] - g_grid[k - 1]
        s = np.clip((target - g_grid[k - 1]) / width, 0.0, 1.0)
        r = 1.0 - s
        y = (lo * (1.0 + 2.0 * s) * r * r + hi * s * s * (3.0 - 2.0 * s)
             + width * s * r * (dy_dg[k - 1] * r - dy_dg[k] * s))
        g, dg_dy = self._logit_q(y, y <= self.y_cdf)
        step = np.isfinite(g) & (dg_dy > 0.0) & np.isfinite(dg_dy)
        y[step] -= (g[step] - target[step]) / dg_dy[step]
        np.clip(y, lo, hi, out=y)
        d, v = _halves(y)
        u = _join(d, v, y)
        return u, self.log_pdf(u, v)


def _halves(y):
    """d = u - 1/2 and v = 1 - u at y = log(d / v), as d + v = 1/2."""
    return 0.5 * expit(y), 0.5 * expit(-y)


def _join(d, v, y):
    """u from whichever of d and v is the smaller, so u rounds once."""
    return np.where(y <= 0.0, 0.5 + d, 1.0 - v)


class _EndTable:
    """u against z = -log2 y, where y = q on the head table and 1 - q on
    the tail table: cubic Hermite cells uniform in z from the switch z0,
    where the bulk table's node (u0, log density) is taken over, to the
    table's reach.  Past the reach one last cell holds the end value, 1/2
    on the head and 1 on the tail.  The cell count is the least power of
    two from _END_CELLS, at most _MAX_END_CELLS, whose cells all pass
    _CELL_ERROR.

    ``check_q`` are the cells' midpoints in q and ``check_floor`` their
    rounding floors (see ``_rounding_floor``).  The end cell maps q to its
    end value, which is off in q by at most ``end_bound``, and its q range
    starts at ``bound_q``."""

    def __init__(self, law, z0, u0, log_f0, head):
        self.z0 = z0
        end = 0.5 if head else 1.0
        reach = law.log_cdf(_NEAR_HALF) if head else law.log_sf(_NEAR_ONE)
        z1 = max(z0, min(_REACH, -float(reach) / _LN2))
        self.end_bound = 2.0 ** -z1
        self.bound_q = 0.0 if head else 1.0 - self.end_bound
        if z1 == z0:  # u rounds to its end value past the switch
            self.inv_step, self.last = 0.0, 0
            self.coef = np.array([[end], [0.0], [0.0], [0.0]])
            self.check_q = self.check_floor = np.empty(0)
            return
        cells = _END_CELLS
        while True:
            z = np.linspace(z0, z1, cells + 1)
            log_y = -_LN2 * z
            log_rest = np.log1p(-np.exp(log_y))
            u, log_f = law.nodes(*((log_y, log_rest) if head
                                   else (log_rest, log_y)))
            u[0], log_f[0] = u0, log_f0
            log_slope = log_y - log_f  # log(|du/dz| / ln 2)
            worst = _cell_error(log_slope,
                                np.abs(np.diff(np.exp(log_y)))).max()
            if worst <= _CELL_ERROR or cells >= _MAX_END_CELLS:
                break
            # a cell's error falls with the fourth power of its width
            cells = min(_MAX_END_CELLS, cells * 2 ** math.ceil(
                math.log2((worst / _CELL_ERROR) ** 0.25)))
        step = (z1 - z0) / cells
        sign = -1.0 if head else 1.0
        self.inv_step, self.last = 1.0 / step, cells
        self.coef = np.concatenate(
            [_hermite(u, sign * _LN2 * step * np.exp(log_slope)),
             [[end], [0.0], [0.0], [0.0]]], axis=1)
        mid = -_LN2 * (z[:-1] + 0.5 * step)
        self.check_q = np.exp(mid) if head else -np.expm1(mid)
        self.check_floor = _rounding_floor(log_f)

    def __call__(self, y):
        z = np.log2(np.maximum(y, 2.0 ** -(_REACH + 8.0)))
        p = np.multiply(z, -self.inv_step, out=z)
        p -= self.z0 * self.inv_step
        np.maximum(p, 0.0, out=p)
        cell = p.astype(np.intp)
        np.minimum(cell, self.last, out=cell)
        p -= cell
        out = _horner(self.coef, cell, p)
        return np.clip(out, 0.5, 1.0, out=out)


class _BetaSplitTable:
    """Inverse CDF of the larger piece under beta(a, b), from three tables
    of cubic Hermite cells.  Every node is exact: u = F^-1(q) solved by
    Newton's method, with slope 1/f(u) formed in log domain.

    The bulk table has _CELLS cells uniform in q, so a draw is one cell
    index, four coefficient gathers and a Horner sum.  Near q = 1, and near
    q = 0 when the density at 1/2 is small, u(q) turns singular; there the
    tail table, uniform in -log2(1 - q), and the head table, uniform in
    -log2 q, take over.  The switches are per spec: the bulk keeps the
    cells from the first to the last whose estimated error passes
    _CELL_ERROR.

    The build measures the table's error |F(icdf(q)) - q|, the
    Kolmogorov-Smirnov distance between the sampled and the exact law, at
    every cell's midpoint, where a Hermite cell's error peaks, and keeps
    twice that plus the cell's rounding floor as the cell's error; an end
    cell keeps its bound.  ``ks_error`` reads the largest over the cells
    that map to smaller pieces at or above a cutoff."""

    def __init__(self, spec):
        law = _BetaSplitLaw(spec.param("a"), spec.param("b"))
        n = _CELLS
        j = np.arange(1, n)
        u, log_f = law.nodes(np.log(j / n), np.log((n - j) / n))
        u = np.concatenate(([0.5], u, [1.0]))
        log_f = np.concatenate(([law.log_pdf(0.5, 0.5)], log_f, [np.nan]))
        good = np.flatnonzero(_cell_error(-log_f, 1.0 / n) <= _CELL_ERROR)
        lo, hi = (good[0], good[-1] + 1) if good.size else (n // 2, n // 2)
        coef = np.zeros((4, n + 1))
        coef[0] = u
        coef[:, lo:hi] = _hermite(u[lo:hi + 1], np.exp(-log_f[lo:hi + 1]) / n)
        self.coef = tuple(np.ascontiguousarray(c) for c in coef)
        self.head_q, self.tail_q = lo / n, hi / n
        self.head = (_EndTable(law, math.log2(n / lo), u[lo], log_f[lo], True)
                     if lo else None)
        self.tail = _EndTable(law, math.log2(n / (n - hi)), u[hi], log_f[hi],
                              False)

        ends = [t for t in (self.head, self.tail) if t is not None]
        q = np.concatenate([(np.arange(lo, hi) + 0.5) / n]
                           + [t.check_q for t in ends])
        error = 2.0 * np.abs(split_cdf(spec, self(q)) - q) + np.concatenate(
            [_rounding_floor(log_f[lo:hi + 1])] + [t.check_floor for t in ends])
        q = np.append(q, [t.bound_q for t in ends])
        error = np.append(error, [t.end_bound for t in ends])
        order = np.argsort(q, kind="stable")
        self.check_q = q[order]
        # a KS distance is at most 1
        self.check_error = np.minimum(np.maximum.accumulate(error[order]), 1.0)
        self.spec = spec

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        s = flat * _CELLS
        cell = s.astype(np.intp)
        s -= cell
        out = _horner(self.coef, cell, s)
        rows = np.flatnonzero(flat >= self.tail_q)
        if rows.size:
            out[rows] = self.tail(1.0 - flat[rows])
        if self.head is not None:
            rows = np.flatnonzero(flat < self.head_q)
            if rows.size:
                out[rows] = self.head(flat[rows])
        return out.reshape(q.shape)[()]

    def ks_error(self, cutoff):
        q = split_cdf(self.spec, max(1.0 - cutoff, 0.5))
        k = min(int(np.searchsorted(self.check_q, q)), len(self.check_q) - 1)
        return float(self.check_error[k])


class _UniformSplit:
    """uniform-2's exact inverse CDF, s1 = (1 + q) / 2."""

    def __call__(self, q):
        return 0.5 * (1.0 + np.asarray(q, dtype=float))

    def ks_error(self, cutoff):
        return 0.0


_SAMPLERS = {}


def _split_sampler(spec):
    if spec.variant != BINARY_DENSITY:
        raise UnsupportedSampling("the split sampler needs a binary-density "
                                  "spec")
    # keyed on the split law, which the scale leaves unchanged
    key = (spec.family, spec.params)
    if key not in _SAMPLERS:
        _SAMPLERS[key] = (_UniformSplit() if spec.family == "uniform-k" else
                          _BetaSplitTable(spec))
    return _SAMPLERS[key]


def split_icdf(spec, q):
    """Inverse CDF of the larger piece; the bulk sampler used everywhere so
    that draws are a pure inverse transform of uniforms.  The table is
    built on first use."""
    return _split_sampler(spec)(q)


def split_ks_error(spec, cutoff=0.0):
    """Kolmogorov-Smirnov distance between the law ``split_icdf`` samples
    and the exact split law, over the smaller pieces at or above
    ``cutoff`` (all of them at 0), as measured when the table was built:
    0 for uniform-2, whose inverse is exact."""
    return _split_sampler(spec).ks_error(cutoff)


# ---------------------------------------------------------------------------
# atom layout

def atom_arrays(spec):
    """Flat atom layout for vectorized work: cumulative normalized weights,
    flattened parts, atom sizes."""
    weights = np.array([w for w, _ in spec.atoms], dtype=float)
    cum = np.cumsum(weights) / weights.sum()
    cum[-1] = 1.0
    parts_flat = np.concatenate([np.asarray(p, dtype=float)
                                 for _, p in spec.atoms])
    sizes = np.array([len(p) for _, p in spec.atoms], dtype=np.int64)
    return cum, parts_flat, sizes
