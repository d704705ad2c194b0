"""Laplace exponent of the tagged-fragment subordinator and related
special-function utilities.

For a dislocation measure nu the exponent is

    phi(x) = integral of (1 - sum_i s_i**(x+1)) nu(ds),  x >= 0.

phi is increasing and concave, phi(x)/x is decreasing, and the whole tail
machinery downstream consumes only phi and its derivative.  Where both are
needed at the same points, :meth:`PhiEvaluator.phi_pair` returns the two
from the intermediates they share (the gamma-function ratio of the stable
family, the two Beta moments, the exp table of an atomic measure), equal
bit for bit to separate phi and phi' calls.  A scalar call runs on
np.float64 scalars from end to end, through the scalar branch of
:func:`_switch`: an np.float64 takes the same IEEE operations through the
same ufunc loops as a 0-d array, bit for bit, at about a tenth of the
cost per operation, and every psi solve is a chain of scalar phi calls.
Atomic measures are evaluated by exact weighted sums, density measures by
endpoint-aware tanh-sinh quadrature or by their log-gamma closed forms,
and the infinite-rate tree families only by closed forms, because their
specs hold no split density to integrate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gamma as gamma_fn, gammaln, rgamma, zeta

from .errors import DomainError
from .measures import ATOMIC, BINARY_DENSITY, atom_arrays, split_density
from .quadrature import tanh_sinh

_QUAD_RTOL = 1e-10  # tanh-sinh stopping tolerance of every quadrature here

# ---------------------------------------------------------------------------
# gamma-function helpers

_STIRLING_SWITCH = 50.0


def _stirling_tail(z):
    # remainder J(z) of log Gamma(z) = (z-1/2)log z - z + log(2 pi)/2 + J(z);
    # truncation below 1e-18 for z >= 50; 1/z squared underflows quietly
    # where z * z would overflow, and r / 12 where 12 z would
    r = 1.0 / z
    w = r * r
    return ((((1.0 / 1188.0) * w - 1.0 / 1680.0) * w + 1.0 / 1260.0) * w
            - 1.0 / 360.0) * w / z + r / 12.0


def _switch(y, c, use_first, first, second):
    """first(y, c) where the mask use_first(y, c) holds and second(y, c)
    elsewhere, over the broadcast of y and c.

    Two scalars (floats, of which np.float64 is one) stay scalars: a plain
    ``if`` picks the one branch, whose scalar result a nested switch takes
    as it is.  Wrapping them in 0-d arrays would run the same IEEE
    operations through the same ufunc loops, bit for bit, at about ten
    times the cost per operation, and reducing a 0-d mask costs more still.
    Arrays run one branch on the inputs as they are when the mask is
    uniform; only a mixed mask gathers and scatters."""
    if isinstance(y, float) and isinstance(c, float):
        return first(y, c) if use_first(y, c) else second(y, c)
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    mask = use_first(y, c)
    n_first = np.count_nonzero(mask)
    if n_first == mask.size:
        return first(y, c)
    if n_first == 0:
        return second(y, c)
    y_b, c_b = np.broadcast_arrays(y, c)
    rest = ~mask
    out = np.empty(mask.shape)
    out[mask] = first(y_b[mask], c_b[mask])
    out[rest] = second(y_b[rest], c_b[rest])
    return out


def _below_stirling(y, c):
    return (y < _STIRLING_SWITCH) | (y + c < _STIRLING_SWITCH)


def _gammaln_diff_stirling(y, c):
    return (c * np.log(y) + (y + c - 0.5) * np.log1p(c / y) - c
            + _stirling_tail(y + c) - _stirling_tail(y))


def gammaln_diff(y, c):
    """log Gamma(y+c) - log Gamma(y) without large-argument cancellation.

    The direct difference of two log-gamma values of size O(y log y) loses
    absolute accuracy ~ y log(y) * eps, which poisons exp() of the result at
    y beyond ~1e4.  For y >= 50 the difference is assembled from terms that
    are each O(c log y).  Requires y > 0 and y + c > 0.
    """
    return _switch(y, c, _below_stirling,
                   lambda y, c: gammaln(y + c) - gammaln(y),
                   _gammaln_diff_stirling)


def _digamma_diff_stirling(y, c):
    z = y + c

    def jp(z):  # derivative of the Stirling remainder
        r = 1.0 / z
        w = r * r
        return ((-1.0 / 252.0 * w + 1.0 / 120.0) * w - 1.0 / 12.0) * w

    return np.log1p(c / y) + 0.5 * c / y / z + jp(z) - jp(y)


def digamma_diff(y, c):
    """digamma(y+c) - digamma(y) without large-argument cancellation.

    Both digamma values grow like log y while their difference decays like
    c/y, so the direct difference loses all accuracy at large y; for
    y >= 50 the difference of the asymptotic expansions is summed term by
    term instead.  Requires y > 0 and y + c > 0.
    """
    return _switch(y, c, _below_stirling,
                   lambda y, c: digamma(y + c) - digamma(y),
                   _digamma_diff_stirling)


def _safely_positive(base, c):
    return (base > 0.5) & (base + c > 0.5)


def _gamma_ratio(base, c):
    """Gamma(base + c)/Gamma(base), valid through zeros and poles of the
    denominator.

    The offset c is taken exactly (never reconstructed from rounded sums,
    which would destroy it for base beyond ~1e13).  The log-gamma difference
    is used when both arguments are safely positive; otherwise
    Gamma(base+c) * (1/Gamma(base)) is formed directly, which is finite
    because 1/Gamma is entire.  Callers keep |c| small, so the direct branch
    never overflows.
    """
    return _switch(base, c, _safely_positive,
                   lambda b, c: np.exp(gammaln_diff(b, c)),
                   lambda b, c: gamma_fn(b + c) * rgamma(b))


def _near_pole(z, _c):
    return (z < 0.25) & (np.abs(z - np.round(z)) < 0.05)


def _rgamma_psi(z):
    """digamma(z) / Gamma(z), an entire function.

    Away from the poles of Gamma the product digamma * rgamma is used; near
    a pole both factors blow up while the product stays finite, so there it
    is taken from the reflection formula
    Gamma(1 - z) (digamma(1 - z) sin(pi z)/pi - cos(pi z)).  The switch
    stays close to the poles: further out the reflected form cancels near
    the negative zeros of digamma, where the product keeps full accuracy.
    """
    return _switch(
        z, 0.0, _near_pole,
        lambda z, _c: gamma_fn(1.0 - z) * (
            digamma(1.0 - z) * np.sin(np.pi * z) / np.pi - np.cos(np.pi * z)),
        lambda z, _c: digamma(z) * rgamma(z))


def _gamma_ratio_deriv(base, c):
    """d/dx [Gamma(x + c0 + c)/Gamma(x + c0)] at base = x + c0."""
    return _switch(
        base, c, _safely_positive,
        lambda b, c: np.exp(gammaln_diff(b, c)) * digamma_diff(b, c),
        lambda b, c: gamma_fn(b + c) * (digamma(b + c) * rgamma(b)
                                        - _rgamma_psi(b)))


# ---------------------------------------------------------------------------
# closed-form exponents per registry family (unscaled measures)


def _phi_uniform(k, x):
    # 1 - k! Gamma(x + 2)/Gamma(x + k + 1) = 1 - prod_{j=2..k} 1/(1 + x/j),
    # taken as -expm1(-sum log1p(x/j)) to keep full relative accuracy as
    # x -> 0, where 1 - exp(gamma-function difference) cancels
    log_prod = 0.0
    for j in range(2, k + 1):
        log_prod = log_prod + np.log1p(x / j)
    return -np.expm1(-log_prod)


def _pair_uniform(k, x):
    e = np.exp(gammaln(k + 1.0) - gammaln_diff(x + 2.0, k - 1.0))
    return _phi_uniform(k, x), e * digamma_diff(x + 2.0, k - 1.0)


# below this x, 1 - E[B**(x+1)] - E[(1-B)**(x+1)] cancels too much and
# _phi_beta sums its Taylor series instead; it lies under the smallest psi
# value the exact tail route evaluates, so those inputs keep the direct form
_BETA_SERIES_X = 0.25
_BETA_SERIES_TERMS = 30


@functools.lru_cache(maxsize=None)
def _lgamma_gap_coeffs(y1, y2):
    """Taylor coefficients in x, highest power first, of
    [lnG(y2 + x) - lnG(y2)] - [lnG(y1 + x) - lnG(y1)], y2 > y1 >= 1, from
    lnG(y + x) - lnG(y) = x digamma(y) + sum_{n>=2} (-x)**n zeta(n, y)/n.
    With x <= 1/4 and radius y1 >= 1, 30 terms reach 1e-19."""
    n = np.arange(_BETA_SERIES_TERMS, 1, -1)
    higher = (-1.0) ** n * (zeta(n, y2) - zeta(n, y1)) / n
    return np.concatenate([higher, [digamma(y2) - digamma(y1), 0.0]])


def _beta_moments(a, b, x):
    """E[B**(x+1)] and E[(1-B)**(x+1)] for B ~ Beta(a, b)."""
    eb = np.exp(gammaln(a + b) - gammaln(a) - gammaln_diff(x + 1.0 + a, b))
    ec = np.exp(gammaln(a + b) - gammaln(b) - gammaln_diff(x + 1.0 + b, a))
    return eb, ec


def _phi_beta(a, b, x):
    return _beta_phi_from_moments(a, b, x, *_beta_moments(a, b, x))


def _beta_phi_from_moments(a, b, x, eb, ec):
    def series(x, _direct):
        # E[B**(x+1)] = a/(a+b) exp(-gap(1+a, 1+a+b)), likewise for 1 - B;
        # both terms of the sum below are positive, so nothing cancels
        c = a + b + 1.0
        return -(a / (a + b) * np.expm1(
            -np.polyval(_lgamma_gap_coeffs(1.0 + a, c), x))
            + b / (a + b) * np.expm1(
            -np.polyval(_lgamma_gap_coeffs(1.0 + b, c), x)))

    return _switch(x, 1.0 - eb - ec, lambda x, _direct: x < _BETA_SERIES_X,
                   series, lambda _x, direct: direct)


def _pair_beta(a, b, x):
    eb, ec = _beta_moments(a, b, x)
    return (_beta_phi_from_moments(a, b, x, eb, ec),
            eb * digamma_diff(x + 1.0 + a, b)
            + ec * digamma_diff(x + 1.0 + b, a))


def _stable_ratio(g, x):
    # gamma(x + 1 - 1/g)/gamma(x) written pole-free as x * ratio(.., x+1)
    return np.exp(gammaln_diff(x + 1.0, -1.0 / g))


def _phi_stable(g, x):
    return g * x * _stable_ratio(g, x)


def _pair_stable(g, x):
    ratio = _stable_ratio(g, x)
    return (g * x * ratio,
            g * ratio * (1.0 - x * digamma_diff(x + 1.0 - 1.0 / g, 1.0 / g)))


def _ford_at_zero(a):
    """The two gamma-function terms of ford's phi at x = 0."""
    return (_gamma_ratio(1.0 - 2.0 * a, a),
            math.exp(gammaln(2.0 - a) - gammaln(3.0 - 2.0 * a)))


def _ford_g2(a, x):
    return np.exp(-gammaln_diff(x + 2.0 - a, 1.0 - a))


def _phi_ford(a, g1_0, g2_0, x, g2=None):
    g1 = _gamma_ratio(x + (1.0 - 2.0 * a), a)
    if g2 is None:
        g2 = _ford_g2(a, x)
    return (g1 - g1_0) + (2.0 - 4.0 * a) * (g2_0 - g2)


def _pair_ford(a, g1_0, g2_0, x):
    g2 = _ford_g2(a, x)
    d1 = _gamma_ratio_deriv(x + (1.0 - 2.0 * a), a)
    d2 = -g2 * digamma_diff(x + 2.0 - a, 1.0 - a)
    return _phi_ford(a, g1_0, g2_0, x, g2), d1 - (2.0 - 4.0 * a) * d2


def _beta_splitting_at_zero(beta):
    """The gamma-function ratio of beta-splitting's phi at x = 0."""
    return (_gamma_ratio(2.0 * beta + 3.0, -beta - 1.0),)


def _phi_beta_splitting(beta, g0, x):
    return _gamma_ratio(x + (2.0 * beta + 3.0), -beta - 1.0) - g0


def _pair_beta_splitting(beta, g0, x):
    return (_phi_beta_splitting(beta, g0, x),
            _gamma_ratio_deriv(x + (2.0 * beta + 3.0), -beta - 1.0))


# family -> (parameter names, phi, (phi, phi')) of the unscaled measure
_CLOSED_FORMS = {
    "uniform-k": (("k",), _phi_uniform, _pair_uniform),
    "beta": (("a", "b"), _phi_beta, _pair_beta),
    "stable": (("gamma",), _phi_stable, _pair_stable),
    "ford": (("a",), _phi_ford, _pair_ford),
    "beta-splitting": (("beta",), _phi_beta_splitting, _pair_beta_splitting),
}
# family -> constants of its phi that depend on the parameters alone; they
# follow the parameters in the arguments of phi and of the pair
_AT_ZERO = {"ford": _ford_at_zero, "beta-splitting": _beta_splitting_at_zero}


def _atomic_table(log_parts, x):
    return np.exp(np.multiply.outer(x + 1.0, log_parts))


def _atomic_phi(log_parts, weights, total, x):
    return total - _atomic_table(log_parts, x) @ weights


def _atomic_pair(log_parts, weights, total, x):
    table = _atomic_table(log_parts, x)
    # phi' adds the parts one at a time in a fixed order, not by a BLAS
    # product, whose summation order may depend on how many points are
    # evaluated together: a point's value must not depend on its batch
    terms = table * (weights * log_parts)
    acc = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        acc = acc + terms[..., j]
    return total - table @ weights, -acc


def _quad_phi(spec, x, derivative=False):
    """Unscaled phi (or phi') of a binary-density spec at each point of x,
    by tanh-sinh quadrature over the larger piece u in (1/2, 1); phi's
    integrand is summed as -[u expm1(x log u) + (1-u) expm1(x log(1-u))],
    two terms of one sign, so that it does not cancel as x -> 0."""

    def one(xv):
        def integrand(u, uma, bmx):
            log_u = np.log1p(-bmx)
            log_1mu = np.log(bmx)
            f = split_density(spec, u, bmx)
            if derivative:
                return -(np.exp((xv + 1.0) * log_u) * log_u
                         + np.exp((xv + 1.0) * log_1mu) * log_1mu) * f
            return -(u * np.expm1(xv * log_u)
                     + bmx * np.expm1(xv * log_1mu)) * f

        return tanh_sinh(integrand, 0.5, 1.0, rel_tol=_QUAD_RTOL)[0]

    return np.array([one(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _quad_pair(spec, x):
    return _quad_phi(spec, x), _quad_phi(spec, x, derivative=True)


def _in_domain(x, name):
    """x as an np.float64 scalar or a float array, if finite and >= 0."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[()]
        ok = 0.0 <= x < math.inf
    else:
        ok = ((x >= 0.0) & (x < math.inf)).all()
    if not ok:
        raise DomainError(f"{name} requires finite x >= 0")
    return x


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioBoundReport:
    """Diagnostic for the growth condition sup_x phi'(x) x / phi(x) < 1.

    The ratio equals the local log-log slope of phi; staying below 1 - delta
    on the tail bounds phi by x**c and the inverse function psi by
    x**(1/(1-c)) with c = tail_sup.
    """

    grid: np.ndarray
    ratio: np.ndarray
    tail_sup: float
    passed: bool
    delta: float


class PhiEvaluator:
    """Evaluates phi, phi', and derived quantities for one measure.

    ``method`` is one of ``atomic-sum`` (atomic specs), ``closed-form`` (the
    log-gamma forms of the registry families) or ``quadrature`` (the
    defining integral of a binary-density spec: the independent cross-check
    of the closed forms, valid down to x = 0); ``auto`` picks atomic-sum for
    atomic specs and closed-form otherwise.  The method is resolved once,
    here, which binds the two unscaled functions every later call
    evaluates: phi alone, and the pair (phi, phi') from shared
    intermediates; constants that depend on the parameters alone are bound
    with them.  Immutable and shareable: all methods are pure functions of
    their arguments.
    """

    def __init__(self, spec, method="auto"):
        if method == "auto":
            method = "atomic-sum" if spec.variant == ATOMIC else "closed-form"
        if method == "atomic-sum":
            if spec.variant != ATOMIC:
                raise DomainError("atomic-sum method needs an atomic spec")
            _, parts_flat, sizes = atom_arrays(spec)
            log_parts = np.log(parts_flat)
            weights = np.repeat(np.array([w for w, _ in spec.atoms]), sizes)
            total = math.fsum(w for w, _ in spec.atoms)
            bound = (log_parts, weights, total)
            phi, pair = _atomic_phi, _atomic_pair
        elif method == "quadrature":
            if spec.variant != BINARY_DENSITY:
                raise DomainError(
                    "quadrature method needs a binary-density spec")
            bound = (spec,)
            phi, pair = _quad_phi, _quad_pair
        elif method == "closed-form":
            if spec.family not in _CLOSED_FORMS:
                raise DomainError(
                    f"no closed form registered for {spec.family!r}")
            names, phi, pair = _CLOSED_FORMS[spec.family]
            bound = tuple(spec.param(name) for name in names)
            if spec.family in _AT_ZERO:
                bound += _AT_ZERO[spec.family](*bound)
        else:
            raise DomainError(f"unknown phi method {method!r}")
        self.spec = spec
        self.method = method
        self._phi = functools.partial(phi, *bound)
        self._pair = functools.partial(pair, *bound)

    # -- core evaluations ---------------------------------------------------

    def phi(self, x):
        """phi(x) for scalar or array finite x >= 0."""
        x = _in_domain(x, "phi")
        val = self.spec.scale * self._phi(x)
        return float(val) if x.ndim == 0 else val

    def phi_pair(self, x):
        """(phi(x), phi'(x)) for scalar or array finite x >= 0, computed
        from their shared intermediates; the two items equal phi(x) and
        phi_prime(x) bit for bit."""
        x = _in_domain(x, "phi_pair")
        phi, dphi = self._pair(x)
        scale = self.spec.scale
        if x.ndim == 0:
            return float(scale * phi), float(scale * dphi)
        return scale * phi, scale * dphi

    def phi_prime(self, x):
        """phi'(x) for scalar or array finite x >= 0."""
        return self.phi_pair(x)[1]

    # -- derived quantities --------------------------------------------------

    def x_psi(self):
        """Left edge of the domain of the inverse function psi.

        Equals lim_{x->0+} x/phi(x): the reciprocal of phi'(0) for
        conservative measures (phi(0) = 0), and 0 when phi(0) > 0.  phi'(0)
        is finite for every measure accepted here, so one :meth:`phi_pair`
        call at 0 gives both, for every family and method.
        """
        phi0, dphi0 = self.phi_pair(0.0)
        # phi(0) for conservative specs is exactly 0
        return 0.0 if phi0 > 1e-12 else 1.0 / dphi0

    def check_hypothesis(self, x_max=1e4, n_grid=200, delta=0.01):
        """Growth-ratio diagnostic over a log grid on [1, x_max].

        Reports sup of phi'(x) x / phi(x) over the upper half of the grid;
        a diagnostic only, downstream operations proceed (with the caller
        free to warn) when it fails.
        """
        if not 100.0 <= x_max < math.inf:
            raise DomainError("check_hypothesis requires finite x_max >= 100")
        if n_grid < 2:
            raise DomainError("check_hypothesis requires n_grid >= 2")
        grid = np.geomspace(1.0, x_max, int(n_grid))
        phi, dphi = self.phi_pair(grid)
        ratio = dphi * grid / phi
        tail = ratio[len(grid) // 2:]
        tail_sup = float(np.max(tail))
        return RatioBoundReport(grid=grid, ratio=ratio, tail_sup=tail_sup,
                                passed=bool(tail_sup < 1.0 - delta),
                                delta=delta)

    def error_estimate(self):
        """Crude per-call relative error of phi under the active method."""
        if self.method == "quadrature":
            return _QUAD_RTOL
        return 5e-15
