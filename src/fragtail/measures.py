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
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc, betaln

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


_ICDF_CACHE = {}
_ICDF_CELLS = 2 ** 14  # a power of two, so q * _ICDF_CELLS is exact


def _icdf_nodes(spec):
    """(q, u) nodes of the beta inverse CDF: u graded toward 1, where the
    CDF flattens whenever min(a, b) < 1, q strictly increasing from 0 to 1."""
    u_mid = np.linspace(0.5, 1.0 - 2.0 ** -8, 1200, endpoint=False)
    tail = 1.0 - 2.0 ** -8 * np.exp(
        np.linspace(0.0, math.log(2.0 ** -44), 800))
    u_nodes = np.unique(np.concatenate([[0.5], u_mid, tail, [1.0]]))
    q_nodes = np.asarray(split_cdf(spec, u_nodes), dtype=float)
    q_nodes[0], q_nodes[-1] = 0.0, 1.0
    keep = np.concatenate([[True], np.diff(q_nodes) > 0.0])
    keep[-1] = True
    q_nodes, u_nodes = q_nodes[keep], u_nodes[keep]
    if q_nodes[-2] >= 1.0:  # drop interior nodes that already saturate
        interior = q_nodes < 1.0
        interior[-1] = True
        q_nodes, u_nodes = q_nodes[interior], u_nodes[interior]
    return q_nodes, u_nodes


def _build_icdf(spec):
    """Inverse CDF of the larger piece on q in [0, 1].

    Beta families interpolate the nodes of ``_icdf_nodes`` monotonically
    (PCHIP) and evaluate scipy's own breakpoints and coefficients here,
    bit for bit as ``PchipInterpolator.__call__`` would: intervals are
    half-open [x_i, x_i+1) with the last one closed, and the cubic is summed
    as c3 + c2 s + c1 s^2 + c0 s^3 with s^3 = (s s) s.  The interval of q is
    found through _ICDF_CELLS equal cells over [0, 1]: a cell's first
    interval plus one step when q passes the next breakpoint, with a
    search only in the few cells that hold two or more breakpoints."""
    if spec.family == "uniform-k":
        return lambda q: 0.5 * (1.0 + np.asarray(q, dtype=float))
    pchip = PchipInterpolator(*_icdf_nodes(spec), extrapolate=False)
    x = pchip.x
    c0, c1, c2, c3 = pchip.c
    edges = np.arange(_ICDF_CELLS + 1) / _ICDF_CELLS
    first = np.minimum(np.searchsorted(x, edges, side="right") - 1,
                       len(x) - 2)
    # past the last interval the next breakpoint is +inf, so q = 1.0 (the
    # last cell, alone) stays in the closed last interval
    x_next = np.append(x[1:-1], np.inf)[first]
    crowded = np.append(np.searchsorted(x, edges[1:], side="left")
                        - np.searchsorted(x, edges[:-1], side="right") >= 2,
                        False)

    def icdf(q):
        # in place on a few q-sized buffers, with the docstring's products
        # and sums in their order
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        cell = (flat * _ICDF_CELLS).astype(np.intp)
        i = first[cell]
        i += flat >= x_next[cell]
        slow = np.flatnonzero(crowded[cell])
        del cell
        if slow.size:
            i[slow] = np.searchsorted(x, flat[slow], side="right") - 1
        s = x[i]
        np.subtract(flat, s, out=s)
        s2 = s * s
        out = c3[i]
        term = c2[i]
        term *= s
        out += term
        np.take(c1, i, out=term)
        term *= s2
        out += term
        s2 *= s
        np.take(c0, i, out=term)
        term *= s2
        out += term
        np.clip(out, 0.5, 1.0, out=out)
        return out.reshape(q.shape)[()]

    return icdf


def split_icdf(spec, q):
    """Inverse CDF of the larger piece; the bulk sampler used everywhere so
    that draws are a pure inverse transform of uniforms."""
    if spec.variant != BINARY_DENSITY:
        raise UnsupportedSampling("split_icdf needs a binary-density spec")
    if spec not in _ICDF_CACHE:
        _ICDF_CACHE[spec] = _build_icdf(spec)
    return _ICDF_CACHE[spec](q)


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
