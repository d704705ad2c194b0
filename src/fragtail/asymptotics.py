"""Tail formulas for the extinction time of a fragmentation cascade.

Two independent pipelines produce the large-time behavior of the survival
probability P(extinction > t):

* the exact functional route: prefactors in psi and psi' times
  exp(-integral of psi(|alpha| r)/(|alpha| r) dr), evaluated numerically
  through :class:`~fragtail.inversion.PsiSolver`;
* the expansion route: phi's expansion at infinity is inverted, to every
  order that shapes the tail, into the expansion of psi(x)/x and
  integrated term by term to a closed shape t**a0 * exp(-sum a_i t**p_i).
  This one engine gives the shape of every registry family.

Both compute the same equivalence class up to a constant factor, which is
exactly what the cross-validation tests pin down.  All tail values are
handled in log domain; linear values are reported only above the underflow
floor.

On the exact route, :func:`log_tail_grid` is the one place the tail
prefactors are formed; the scalar tails are its one-point case.  Callers
ask for both tails at one t in turn, so the finished pair is kept in a memo
keyed by the solver and the exact (|alpha|, t, t0); a stored pair never
seeds a fresh computation, so a tail is the same with or without it.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from .errors import ConfigError, DomainError
from .measures import intrinsic_alpha, total_mass
from .quadrature import tanh_sinh

_LOG_FLOOR = -745.0  # below this exp() underflows to 0
_DECAY_RTOL = 1e-10  # tanh-sinh stopping tolerance of the decay integral


@dataclass(frozen=True)
class AlphaIndex:
    """Negative index of self-similarity: small fragments split faster."""

    alpha: float

    def __post_init__(self):
        if not self.alpha < 0.0:
            raise ConfigError(
                f"self-similarity index must be negative, got {self.alpha}")

    @property
    def abs(self):
        return -self.alpha


def as_alpha(alpha):
    if isinstance(alpha, AlphaIndex):
        return alpha
    return AlphaIndex(float(alpha))


_MERGE_TOL = 1e-12  # exponents closer than this are one term
_MAX_LEVELS = 1024  # orders the shape engine solves for at most


def _merge_terms(terms):
    """(coef, exponent) pairs summed over exponents within _MERGE_TOL of one
    another, sorted by increasing exponent, zero coefficients dropped.

    A merged term keeps the exponent of its first pair in input order, so an
    exact exponent listed first is not moved by a rounded copy of it formed
    as a sum of others (0.3 + 0.3 + 0.3 against 0.9)."""
    terms = [(float(c), float(e)) for c, e in terms]
    groups = []  # [exponent the group started at, first input index, sum]
    for i in sorted(range(len(terms)), key=lambda i: terms[i][1]):
        c, e = terms[i]
        if groups and e - groups[-1][0] <= _MERGE_TOL:
            groups[-1][1] = min(groups[-1][1], i)
            groups[-1][2] += c
        else:
            groups.append([e, i, c])
    return [(c, terms[i][1]) for _, i, c in groups if c != 0.0]


@dataclass(frozen=True)
class ExpansionSpec:
    """Asymptotic expansion scale * x**gamma * (1 - sum c_i / x**g_i).

    Used on the phi side (gamma in [0,1)) as input to the shape engine, and
    on the psi(x)/x side as its output, where gamma and the exponents may
    exceed 1.  Terms are merged by exponent and sorted; zero coefficients
    are dropped.
    """

    gamma: float
    terms: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ConfigError("leading index must be nonnegative")
        if not self.scale > 0.0:
            raise ConfigError("expansion scale must be positive")
        terms = tuple(_merge_terms(self.terms))
        if any(g <= 0.0 for _, g in terms):
            raise ConfigError("expansion exponents must be positive")
        object.__setattr__(self, "terms", terms)

    def value(self, x):
        """Evaluate the truncated expansion (remainder dropped)."""
        x = np.asarray(x, dtype=float)
        corr = np.ones_like(x)
        for c, g in self.terms:
            corr = corr - c * x ** (-g)
        return self.scale * x ** self.gamma * corr


def _levels(gs):
    """Every sum of the exponents gs up to 1, and 0, merged and sorted; a
    level keeps the exponent of its first, fewest-term sum.  The solve
    costs the square of their count, so past _MAX_LEVELS it is refused."""
    levels = [0.0]
    while True:
        if len(levels) > _MAX_LEVELS or gs and min(gs) <= _MERGE_TOL:
            raise ConfigError(
                f"phi's expansion exponents {gs} sum to more than "
                f"{_MAX_LEVELS} distinct orders up to 1")
        grown = [e for _, e in _merge_terms(
            [(1.0, e) for e in levels]
            + [(1.0, e + g) for e in levels for g in gs
               if e + g <= 1.0 + _MERGE_TOL])]
        if len(grown) == len(levels):
            return levels
        levels = grown


def _find(levels, e):
    """Index of the level within _MERGE_TOL of e, or None."""
    i = bisect.bisect_left(levels, e - _MERGE_TOL)
    return i if i < len(levels) and levels[i] <= e + _MERGE_TOL else None


def _psi_series(exp):
    """psi(x)/x = A x**kappa sum w_G x**(-rho G) for a phi expansion
    C x**gamma (1 - sum c_i x**-g_i), rho = 1/(1-gamma), kappa = gamma rho
    and A = C**rho; returns (A, [(w_G, G)]) with G running over the sums of
    the g_i up to 1, so to order x**-rho.

    With F = psi(x)/x, x = psi/phi(psi) gives F = phi(x F), that is the
    fixed point W = (1 - sum c_i (A x**rho W)**-g_i)**rho.  Its right side at
    level G reads W below G only, so one sweep up the levels solves it: at
    each level the sum, its power rho and the powers W**-g_i each come from
    the levels already fixed, a power f = s**p of s = 1 + ... by
    G f_G = sum_{H+K=G, H>0} (p H - K) s_H f_K.  A term with g_i > 1 lies
    past order rho and is dropped.
    """
    g0 = exp.gamma
    if not 0.0 <= g0 < 1.0:
        raise ConfigError(f"phi's leading index must lie in [0, 1), got {g0}")
    rho = 1.0 / (1.0 - g0)
    a_big = exp.scale ** rho
    pulls = [(c * a_big ** -g, g) for c, g in exp.terms
             if g <= 1.0 + _MERGE_TOL]
    levels = _levels([g for _, g in pulls])
    n = len(levels)
    # minus[i][j]: the level levels[i] - levels[j], for j = 1 .. i
    minus = [[_find(levels, levels[i] - levels[j]) for j in range(i + 1)]
             for i in range(n)]

    def power_at(i, s, f, p):
        return sum(s[j] * f[k] * (p * levels[j] - levels[k])
                   for j, k in enumerate(minus[i]) if j and k is not None
                   ) / levels[i]

    inner, w = [1.0] + [0.0] * (n - 1), [1.0] + [0.0] * (n - 1)
    w_pows = [[1.0] + [0.0] * (n - 1) for _ in pulls]  # W**-g_i
    shifted = [[_find(levels, e - g) for e in levels] for _, g in pulls]
    for i in range(1, n):
        inner[i] = -sum(c * wp[at[i]] for (c, _), wp, at
                        in zip(pulls, w_pows, shifted) if at[i] is not None)
        w[i] = power_at(i, inner, w, rho)
        for (_, g), wp in zip(pulls, w_pows):
            wp[i] = power_at(i, w, wp, -g)
    return a_big, list(zip(w, levels))


def expand_psi_over_x(exp):
    """The expansion of psi(x)/x, to order x**-rho, from a phi expansion.

    For phi = C x**gamma (1 - sum c_i x**-g_i + o(x**-1)) the result is
    C**rho x**(gamma rho) (1 - sum c_j' x**-g_j') + o(x**-rho), rho =
    1/(1-gamma), whose exponents g_j' are rho times the sums of the g_i up
    to 1; to first order c_j' = rho c_j / C**(rho g_j).
    """
    a_big, w = _psi_series(exp)
    onemg = 1.0 - exp.gamma
    return ExpansionSpec(gamma=exp.gamma / onemg,
                         terms=tuple((-c, g / onemg) for c, g in w[1:]),
                         scale=a_big)


@dataclass(frozen=True)
class TailShape:
    """Canonical tail class t**poly_exponent * exp(-sum coef * t**power).

    ``exp_terms`` is sorted by decreasing power; the leading (largest-power)
    coefficient must be positive and the largest power at least 1, which is
    what makes the class integrable against any polynomial.
    """

    poly_exponent: float
    exp_terms: tuple

    def __post_init__(self):
        terms = tuple(reversed(_merge_terms(self.exp_terms)))
        if not terms:
            raise ConfigError("tail shape needs at least one decay term")
        if any(p <= 0.0 for _, p in terms):
            raise ConfigError("tail shape powers must be positive")
        if terms[0][0] <= 0.0:
            raise ConfigError("leading decay coefficient must be positive")
        if terms[0][1] < 1.0 - 1e-12:
            raise ConfigError("leading decay power must be at least 1")
        object.__setattr__(self, "exp_terms", terms)

    def log_value(self, t):
        """log of the shape (up to the unknown constant) at finite t > 0."""
        t = np.asarray(t, dtype=float)
        if not ((t > 0.0) & (t < math.inf)).all():
            raise DomainError("tail shape is evaluated at finite t > 0")
        out = self.poly_exponent * np.log(t)
        for c, p in self.exp_terms:
            out = out - c * t ** p
        return float(out) if out.ndim == 0 else out


def tail_shape_from_expansion(exp, alpha):
    """Closed tail shape of the extinction time from a phi expansion.

    With psi(x)/x = A x**kappa sum w_G x**(-rho G) from
    :func:`expand_psi_over_x`, the survival probability is asymptotically a
    constant times exp(-integral of psi(|alpha| r)/(|alpha| r) dr) times
    the prefactor t**(kappa (1/|alpha| - 1/2)).  Integrated term by term,
    each G < 1 is the exponential term

        A w_G |alpha|**((gamma - G)/(1-gamma)) (1-gamma)/(1-G)
          * t**((1-G)/(1-gamma)),

    G = 0 (w = 1) the leading one, and G = 1 the power t**(-A w_1/|alpha|).
    """
    a_abs = as_alpha(alpha).abs
    g0 = exp.gamma
    a_big, w = _psi_series(exp)
    onemg = 1.0 - g0
    poly = g0 / onemg * (1.0 / a_abs - 0.5)
    terms = []
    for c, g in w:
        if abs(g - 1.0) <= _MERGE_TOL:
            poly -= a_big * c / a_abs
        else:
            terms.append((a_big * c * a_abs ** ((g0 - g) / onemg) * onemg
                          / (1.0 - g), (1.0 - g) / onemg))
    return TailShape(poly_exponent=poly, exp_terms=tuple(terms))


# ---------------------------------------------------------------------------
# registry family expansions and shapes


def phi_expansion(spec):
    """Asymptotic expansion of phi for a registry family, up to o(1/x).

    Exponent-1 coefficients are kept; anything decaying faster than 1/x is
    remainder and dropped.  Atomic families approach their total rate
    exponentially fast, hence carry no algebraic correction at all.
    """
    fam = spec.family
    r = spec.scale
    if spec.variant == "atomic":
        return ExpansionSpec(gamma=0.0, terms=(), scale=total_mass(spec))
    if fam == "uniform-k":
        k = spec.param("k")
        terms = ((2.0, 1.0),) if k == 2 else ()
        return ExpansionSpec(gamma=0.0, terms=terms, scale=r)
    if fam == "beta":
        a, b = sorted((spec.param("a"), spec.param("b")))
        terms = []
        for coef, g in ((math.exp(gammaln(a + b) - gammaln(b)), a),
                        (math.exp(gammaln(a + b) - gammaln(a)), b)):
            if g <= 1.0 + 1e-12:
                terms.append((coef, min(g, 1.0)))
        return ExpansionSpec(gamma=0.0, terms=tuple(terms), scale=r)
    if fam == "stable":
        g = spec.param("gamma")
        c1 = (1.0 - 1.0 / g) * (1.0 / g) / 2.0
        return ExpansionSpec(gamma=1.0 - 1.0 / g, terms=((c1, 1.0),),
                             scale=g * r)
    if fam == "ford":
        a = spec.param("a")
        c1 = 1.5 * a * a - 4.5 * a + 2.0
        return ExpansionSpec(gamma=a, terms=((c1, 1.0),), scale=r)
    if fam == "beta-splitting":
        beta = spec.param("beta")
        c1 = math.gamma(beta + 2.0) * float(rgamma(2.0 * beta + 3.0))
        c2 = (beta + 1.0) * (3.0 * beta + 4.0) / 2.0
        return ExpansionSpec(
            gamma=-beta - 1.0, terms=((c1, -beta - 1.0), (c2, 1.0)),
            scale=r)
    raise ConfigError(f"no expansion registered for family {fam!r}")


def family_tail_shape(spec, alpha=None):
    """Tail shape of a registry family: the engine on its phi expansion.

    For the tree families (stable, ford, beta-splitting) the index of
    self-similarity is intrinsic; passing a conflicting alpha raises.  For
    the finite families alpha must be supplied.
    """
    builtin = intrinsic_alpha(spec)
    if builtin is not None:
        if alpha is not None and abs(as_alpha(alpha).alpha - builtin) > 1e-9:
            raise DomainError(
                f"family {spec.family!r} has intrinsic index {builtin:.6g}")
        alpha = builtin
    elif alpha is None:
        raise DomainError(
            f"family {spec.family!r} needs an explicit self-similarity index")
    return tail_shape_from_expansion(phi_expansion(spec), alpha)


def kennedy_log_tail(t):
    """log P(zeta > t) for the extinction time zeta of the unit-rate
    stable(2) cascade, at finite t >= 1.

    zeta is sqrt(2) times the maximum of a standard Brownian excursion, whose
    law is Kennedy's series (J. Appl. Probab. 1976):

        P(zeta > t) = 2 sum_{k>=1} (2 k**2 t**2 - 1) exp(-k**2 t**2).

    For t >= 1 every term is positive and the terms past the eighth sum to
    below 1e-32 of the first, so eight terms summed in log domain keep full
    precision at any survival level.  Below t = 1 the leading terms cancel.
    """
    t = np.asarray(t, dtype=float)
    if not ((t >= 1.0) & (t < math.inf)).all():
        raise DomainError("Kennedy's series is evaluated at finite t >= 1")
    k2 = np.arange(1.0, 9.0).reshape((-1,) + (1,) * t.ndim) ** 2
    kt2 = k2 * (t * t)
    log_terms = np.log(2.0 * kt2 - 1.0) - kt2
    out = (math.log(2.0) + log_terms[0]
           + np.log1p(np.exp(log_terms[1:] - log_terms[0]).sum(axis=0)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# exact functional route


@dataclass(frozen=True)
class TailEstimate:
    """Log-domain tail value; ``value`` is None below the underflow floor."""

    log_value: float
    value: float
    t: float
    t0: float


def default_t0(solver, alpha):
    """Safe lower integration bound: keeps psi(|alpha| r) inside its domain
    for every r >= t0 regardless of |alpha|; any finite choice only shifts
    the log tail by a constant."""
    a_abs = as_alpha(alpha).abs
    x_psi = solver.x_psi
    return max((x_psi + 1.0) / a_abs, x_psi / a_abs + 1.0)


def _y_decay_integral(evaluator, y_lo, y_hi):
    """integral of (1 - y phi'(y)/phi(y)) dy over [y_lo, y_hi], for each
    pair of ends of two equal-shape arrays, in one quadrature call.

    This is |alpha| times the decay integral of psi(|alpha| r)/(|alpha| r)
    dr between the points whose psi values are y_lo and y_hi: substituting
    y = psi(|alpha| r), so that |alpha| r = y/phi(y) and
    psi(|alpha| r)/(|alpha| r) = phi(y), needs psi at the two ends only.
    The integrand is smooth and lies in (0, 1).  A segment of zero width
    integrates to 0 without evaluating anything.
    """
    y_lo = np.asarray(y_lo, dtype=float)
    y_hi = np.asarray(y_hi, dtype=float)

    def integrand(y, _ya, _by):
        phi, dphi = evaluator.phi_pair(y)
        return 1.0 - y * dphi / phi

    out = np.zeros(y_lo.shape)
    wide = y_hi != y_lo
    if wide.any():
        out[wide] = tanh_sinh(integrand, y_lo[wide], y_hi[wide],
                              rel_tol=_DECAY_RTOL)[0]
    return out


def _check_window(solver, alpha, t, t0):
    a_abs = as_alpha(alpha).abs
    if t0 * a_abs <= solver.x_psi:
        raise DomainError(
            f"t0 = {t0} puts the integrand outside the domain of psi")
    if t < t0:
        raise DomainError(f"t = {t} below the integration start t0 = {t0}")


def log_tail_grid(solver, alpha, ts, t0=None):
    """Both log tails over a sorted grid, sharing one cumulative integral.

    Returns (log_extinction, log_tagged) arrays, the logs of

        extinction  (psi(|a| t)/t)**(1/|a| - 1) * sqrt(psi'(|a| t))
                    * exp(-decay integral)
        tagged      t * sqrt(psi'(|a| t)) / psi(|a| t) * exp(-decay integral)

    with the decay integral of psi(|a| r)/(|a| r) over [t0, t].  psi is
    solved once at t0 and at each grid point, and nowhere else: the decay
    integral is the running sum over consecutive grid segments of the
    y-space integral between those solved values, one quadrature call for
    every segment, and psi' comes from the same values as
    phi(y)^2/(phi(y) - y phi'(y)).
    """
    alpha = as_alpha(alpha)
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DomainError("grid must be a non-empty 1-d sequence")
    if (np.diff(ts) <= 0.0).any():
        raise DomainError("grid must be strictly increasing")
    if t0 is None:
        t0 = default_t0(solver, alpha)
    _check_window(solver, alpha, float(ts[0]), t0)
    a_abs = alpha.abs
    ys = solver.psi_values(a_abs * np.concatenate(([t0], ts)))
    integral = np.cumsum(
        _y_decay_integral(solver.evaluator, ys[:-1], ys[1:]) / a_abs)
    psi_t = ys[1:]
    half_log_dpsi = 0.5 * np.log(solver.psi_prime_at(psi_t))
    log_ext = ((1.0 / a_abs - 1.0) * np.log(psi_t / ts) + half_log_dpsi
               - integral)
    log_tag = np.log(ts) + half_log_dpsi - np.log(psi_t) - integral
    return log_ext, log_tag


# solver -> {(|alpha|, t, t0): (log_extinction, log_tagged)}; an entry goes
# with its solver
_TAIL_PAIRS = weakref.WeakKeyDictionary()


def _tail_pair(solver, alpha, t, t0):
    """Both log tails at one t as the one-point :func:`log_tail_grid`,
    through the exact-repeat pair memo; returns (log_ext, log_tag, t0)."""
    alpha = as_alpha(alpha)
    if t0 is None:
        t0 = default_t0(solver, alpha)
    memo = _TAIL_PAIRS.setdefault(solver, {})
    key = (alpha.abs, t, t0)
    if key not in memo:
        log_ext, log_tag = log_tail_grid(solver, alpha, [t], t0)
        memo[key] = (float(log_ext[0]), float(log_tag[0]))
    return memo[key] + (t0,)


def _estimate(log_val, t, t0):
    value = math.exp(log_val) if log_val > _LOG_FLOOR else None
    return TailEstimate(log_value=log_val, value=value, t=t, t0=t0)


def extinction_log_tail(solver, alpha, t, t0=None):
    """Tail class of the extinction time of the whole cascade (formula in
    :func:`log_tail_grid`), returned in log domain together with the
    (possibly underflowing) linear value."""
    log_ext, _, t0 = _tail_pair(solver, alpha, t, t0)
    return _estimate(log_ext, t, t0)


def tagged_log_tail(solver, alpha, t, t0=None):
    """Tail class of the extinction time of one uniformly tagged fragment
    (formula in :func:`log_tail_grid`)."""
    _, log_tag, t0 = _tail_pair(solver, alpha, t, t0)
    return _estimate(log_tag, t, t0)


def tail_ratio(solver, alpha, t):
    """(psi(|a| t)/t)**(1/|a|): the exact algebraic ratio between the two
    tail classes above.  Converges to (|a| * total rate)**(1/|a|) for finite
    measures, diverges otherwise."""
    alpha = as_alpha(alpha)
    if t * alpha.abs <= solver.x_psi:
        raise DomainError(f"|alpha| t = {t * alpha.abs} not above x_psi")
    return (solver.psi(alpha.abs * t) / t) ** (1.0 / alpha.abs)
