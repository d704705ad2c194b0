"""Tail formulas for the extinction time of a fragmentation cascade.

Two independent pipelines produce the large-time behavior of the survival
probability P(extinction > t):

* the exact functional route: prefactors in psi and psi' times
  exp(-integral of psi(|alpha| r)/(|alpha| r) dr), evaluated numerically
  through :class:`~fragtail.inversion.PsiSolver`;
* the expansion route: a two-term asymptotic expansion of phi is pushed
  through the inversion algebra to a closed shape
  t**a0 * exp(-sum a_i t**p_i).

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

import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from .errors import (ConfigError, DomainError, UncoveredRegion,
                     UnsupportedExpansion)
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


def _normalize_terms(terms):
    merged = {}
    for c, g in terms:
        g = float(g)
        merged[g] = merged.get(g, 0.0) + float(c)
    out = tuple(sorted(((c, g) for g, c in merged.items() if c != 0.0),
                       key=lambda cg: cg[1]))
    if any(g <= 0.0 for _, g in out):
        raise ConfigError("expansion exponents must be positive")
    return out


@dataclass(frozen=True)
class ExpansionSpec:
    """Asymptotic expansion scale * x**gamma * (1 - sum c_i / x**g_i).

    Used on the phi side (gamma in [0,1), exponents up to 1) as input to the
    shape engine, and on the psi(x)/x side as its output, where gamma and
    the exponents may exceed 1.  Terms are merged by exponent and sorted;
    zero coefficients are dropped.
    """

    gamma: float
    terms: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ConfigError("leading index must be nonnegative")
        if not self.scale > 0.0:
            raise ConfigError("expansion scale must be positive")
        object.__setattr__(self, "terms", _normalize_terms(self.terms))

    def value(self, x):
        """Evaluate the truncated expansion (remainder dropped)."""
        x = np.asarray(x, dtype=float)
        corr = np.ones_like(x)
        for c, g in self.terms:
            corr = corr - c * x ** (-g)
        return self.scale * x ** self.gamma * corr


def _check_phi_side(exp):
    if not 0.0 <= exp.gamma < 1.0:
        raise UnsupportedExpansion(
            f"leading index must lie in [0, 1), got {exp.gamma}")
    for c, g in exp.terms:
        if g <= 0.5:
            raise UnsupportedExpansion(
                f"correction exponent {g} <= 1/2: second-order cross terms "
                "would contribute and are not implemented")
        if g > 1.0 + 1e-12:
            raise UnsupportedExpansion(
                f"correction exponent {g} > 1 belongs to the remainder; "
                "drop it before calling the engine")


def expand_psi_over_x(exp):
    """Transform a phi expansion into the expansion of psi(x)/x.

    For phi = C x**gamma (1 - sum c_i x**-g_i + O(x**-1-eps)) the inverse
    function algebra gives

        psi(x)/x = C**(1/(1-gamma)) * x**(gamma/(1-gamma))
                   * (1 - sum c_i' x**-g_i') + O(x**-1-eta)

    with g_i' = g_i/(1-gamma) and
    c_i' = c_i / ((1-gamma) * C**(g_i/(1-gamma))).
    Requires every correction exponent in (1/2, 1].
    """
    _check_phi_side(exp)
    g0 = exp.gamma
    onemg = 1.0 - g0
    c_big = exp.scale
    new_terms = tuple(
        (c / (onemg * c_big ** (g / onemg)), g / onemg) for c, g in exp.terms)
    return ExpansionSpec(gamma=g0 / onemg, terms=new_terms,
                         scale=c_big ** (1.0 / onemg))


@dataclass(frozen=True)
class TailShape:
    """Canonical tail class t**poly_exponent * exp(-sum coef * t**power).

    ``exp_terms`` is sorted by decreasing power; the leading (largest-power)
    coefficient must be positive and the largest power at least 1, which is
    what makes the class integrable against any polynomial.
    """

    poly_exponent: float
    exp_terms: tuple
    validity: str = ""

    def __post_init__(self):
        merged = {}
        for c, p in self.exp_terms:
            p = float(p)
            merged[p] = merged.get(p, 0.0) + float(c)
        terms = tuple(sorted(((c, p) for p, c in merged.items() if c != 0.0),
                             key=lambda cp: -cp[1]))
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

    def rescale_time(self, r):
        """Shape of t -> shape of (r t), constants dropped.

        This realizes the scaling law: multiplying the measure by r divides
        the extinction time by r, so shapes for scaled measures follow from
        the unit-rate shape by this substitution.
        """
        if not r > 0.0:
            raise ConfigError("time rescaling factor must be positive")
        return TailShape(
            poly_exponent=self.poly_exponent,
            exp_terms=tuple((c * r ** p, p) for c, p in self.exp_terms),
            validity=self.validity)


def tail_shape_from_expansion(exp, alpha):
    """Closed tail shape of the extinction time from a phi expansion.

    With phi = C x**gamma (1 - sum c_i x**-g_i + O(x**-1-eps)), exponents in
    (1/2, 1], the survival probability is asymptotically a constant times

        t**a0 * exp(-(1-gamma) |alpha|**(gamma/(1-gamma)) t**(1/(1-gamma))
                    + sum_{g_i < 1} c_i |alpha|**((gamma-g_i)/(1-gamma))
                      / (1-g_i) * t**((1-g_i)/(1-gamma)))

    where a0 = gamma/(1-gamma) (1/|alpha| - 1/2) + c_k/(|alpha| (1-gamma))
    and c_k is the coefficient at exponent 1.  A leading constant C /= 1 is
    absorbed exactly by the time change t -> C t.
    """
    alpha = as_alpha(alpha)
    _check_phi_side(exp)
    a_abs = alpha.abs
    g0 = exp.gamma
    onemg = 1.0 - g0
    c_k = 0.0
    corrections = []
    for c, g in exp.terms:
        if abs(g - 1.0) <= 1e-12:
            c_k += c
        else:
            corrections.append((c, g))
    poly = g0 / onemg * (1.0 / a_abs - 0.5) + c_k / (a_abs * onemg)
    terms = [(a_abs ** (g0 / onemg) * onemg, 1.0 / onemg)]
    for c, g in corrections:
        coef = -c * a_abs ** ((g0 - g) / onemg) / (1.0 - g)
        terms.append((coef, (1.0 - g) / onemg))
    shape = TailShape(poly_exponent=poly, exp_terms=tuple(terms))
    if exp.scale != 1.0:
        shape = shape.rescale_time(exp.scale)
    return shape


# ---------------------------------------------------------------------------
# registry family expansions and closed shapes


def phi_expansion(spec):
    """Two-term asymptotic expansion of phi for a registry family.

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


def _beta_shape(a, b, a_abs):
    """Closed tail shapes of the binary Beta(a, b) split family, unit rate.

    Six parameter regions for min(a, b) > 1/2 and four more for
    min(a, b) in (1/3, 1/2] with max(a, b) in (1/2, 1); everything else has
    extra expansion terms with no closed form implemented here.
    """
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
                return TailShape(2.0 / a_abs, (lead,),
                                 validity="a = b = 1")
            if a <= 1.0 + tol:
                return TailShape(b / a_abs, (lead,),
                                 validity="b > a = 1")
            return TailShape(0.0, (lead,), validity="b >= a > 1")
        if b > 1.0 + tol:
            return TailShape(0.0, (lead, term_a),
                             validity="b > 1 > a > 1/2")
        if b >= 1.0 - tol:
            return TailShape(a / a_abs, (lead, term_a),
                             validity="1 = b > a > 1/2")
        return TailShape(0.0, (lead, term_a, term_b),
                         validity="1 > b >= a > 1/2")
    if a > 1.0 / 3.0 + tol and 0.5 + tol < b < 1.0 - tol:
        if a >= 0.5 - tol:
            poly = math.gamma(b + 0.5) ** 2 / (2.0 * gb ** 2 * a_abs)
            return TailShape(poly, (lead, term_a, term_b),
                             validity="a = 1/2, 1/2 < b < 1")
        term_2a = (-a * gab ** 2 / (gb ** 2 * (1.0 - 2.0 * a)
                                    * a_abs ** (2.0 * a)), 1.0 - 2.0 * a)
        if a + b > 1.0 + tol:
            return TailShape(0.0, (lead, term_a, term_b, term_2a),
                             validity="1/3 < a < 1/2, a + b > 1")
        if a + b >= 1.0 - tol:
            poly = 1.0 / (ga * gb * a_abs)
            return TailShape(poly, (lead, term_a, term_b, term_2a),
                             validity="1/3 < a < 1/2, a + b = 1")
        term_ab = (-(a + b) * gab ** 2
                   / (ga * gb * (1.0 - a - b) * a_abs ** (a + b)),
                   1.0 - a - b)
        return TailShape(0.0, (lead, term_a, term_b, term_2a, term_ab),
                         validity="1/3 < a < 1/2, a + b < 1")
    raise UncoveredRegion(
        f"beta split family with (a, b) = ({a}, {b}) sits outside the "
        "regions with a known closed shape (more and more expansion terms "
        "appear as min(a, b) decreases)")


def family_tail_shape(spec, alpha=None):
    """Closed-form tail shape for a registry family.

    For the tree families (stable, ford, beta-splitting) the index of
    self-similarity is intrinsic; passing a conflicting alpha raises.  For
    the finite families alpha must be supplied.
    """
    builtin = intrinsic_alpha(spec)
    if builtin is not None:
        if alpha is not None and abs(as_alpha(alpha).alpha - builtin) > 1e-9:
            raise DomainError(
                f"family {spec.family!r} has intrinsic index {builtin:.6g}")
        alpha = AlphaIndex(builtin)
    elif alpha is None:
        raise DomainError(
            f"family {spec.family!r} needs an explicit self-similarity index")
    else:
        alpha = as_alpha(alpha)
    a_abs = alpha.abs
    fam = spec.family
    if spec.variant == "atomic":
        return TailShape(0.0, ((total_mass(spec), 1.0),),
                         validity="finite atomic measure")
    if fam == "uniform-k":
        k = spec.param("k")
        base = TailShape(2.0 / a_abs if k == 2 else 0.0, ((1.0, 1.0),),
                         validity=f"uniform split into k = {k}")
        return base.rescale_time(spec.scale)
    if fam == "beta":
        shape = _beta_shape(spec.param("a"), spec.param("b"), a_abs)
        return shape.rescale_time(spec.scale)
    if fam == "stable":
        g = spec.param("gamma")
        base = TailShape(1.0 + g / 2.0, (((g - 1.0) ** (g - 1.0), g),),
                         validity="stable branching index in (1, 2]")
        return base.rescale_time(spec.scale)
    if fam == "ford":
        a = spec.param("a")
        poly = (2.0 * a * a - 7.0 * a + 4.0) / (2.0 * a * (1.0 - a))
        coef = a ** (a / (1.0 - a)) * (1.0 - a)
        base = TailShape(poly, ((coef, 1.0 / (1.0 - a)),),
                         validity="alpha-model parameter in (0, 1)")
        return base.rescale_time(spec.scale)
    if fam == "beta-splitting":
        beta = spec.param("beta")
        if beta > -1.5 + 1e-12:
            raise UncoveredRegion(
                "beta-splitting closed shape covers beta in (-2, -3/2]; "
                "above -3/2 additional terms enter the exponential")
        a_coef = (-beta - 1.0) ** ((-beta - 1.0) / (beta + 2.0)) * (beta + 2.0)
        b_coef = math.gamma(beta + 2.0) * float(rgamma(2.0 * beta + 3.0)) \
            / (beta + 2.0)
        terms = [(a_coef, 1.0 / (beta + 2.0))]
        if b_coef != 0.0:
            terms.append((-b_coef, 1.0))
        base = TailShape((-2.0 * beta - 1.0) / (2.0 * (beta + 2.0)),
                         tuple(terms),
                         validity="beta-splitting parameter in (-2, -3/2]")
        return base.rescale_time(spec.scale)
    raise ConfigError(f"no closed shape registered for family {fam!r}")


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
