import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from fragtail import measures as M
from fragtail.errors import ConfigError, UnsupportedSampling
from fragtail.measures import (from_config, split_cdf, split_icdf,
                               total_mass)
from fragtail.simulate import CascadeConfig, run_ensemble


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_identical_two_always_halves():
    # cutoff 0.3 keeps the two halves of the root and drops the quarters,
    # so every fragment alive at a checkpoint has mass 1 or 1/2
    cfg = CascadeConfig(alpha=-1.0, cutoff=0.3,
                        checkpoints=tuple(np.linspace(0.0, 6.0, 25)), seed=1)
    ens = run_ensemble(M.make_identical(2), cfg, 50)
    assert set(ens.largest.ravel()) <= {0.0, 0.5, 1.0}
    assert (ens.largest == 0.5).any()


def test_uniform_two_largest_piece_mean():
    # E[max(U, 1-U)] = 3/4 by direct integration
    draws = np.asarray(split_icdf(M.make_uniform(2), rng(2).random(100000)))
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 0.75) <= 4.0 * se


def test_degenerate_atom_rejected():
    with pytest.raises(ConfigError):
        M.make_atomic([(1.0, (1.0,))])
    with pytest.raises(ConfigError):
        M.make_atomic([(1.0, (1.0, 0.0))])


def test_atom_validation():
    with pytest.raises(ConfigError):
        M.make_atomic([(0.0, (0.5, 0.5))])       # zero weight
    with pytest.raises(ConfigError):
        M.make_atomic([(1.0, (0.3, 0.5))])        # not nonincreasing
    with pytest.raises(ConfigError):
        M.make_atomic([(1.0, (0.7, 0.7))])        # sums above 1
    with pytest.raises(ConfigError):
        M.make_atomic([])


def test_total_mass():
    assert total_mass(M.make_identical(2)) == 1.0
    spec = M.make_atomic([(0.3, (0.5, 0.5)), (0.7, (0.9, 0.1))])
    assert abs(total_mass(spec) - 1.0) < 1e-15
    scaled = M.make_atomic([(0.3, (0.5, 0.5)), (0.7, (0.9, 0.1))], scale=2.0)
    assert abs(total_mass(scaled) - 2.0) < 1e-15
    with pytest.raises(UnsupportedSampling):
        total_mass(M.make_stable(1.5))
    with pytest.raises(UnsupportedSampling):
        split_icdf(M.make_ford(0.5), 0.5)


def test_rescaling_leaves_split_law_unchanged():
    a = M.make_beta(2.0, 3.0)
    b = M.make_beta(2.0, 3.0, scale=5.0)
    q = rng(7).random(200)
    assert np.array_equal(split_icdf(a, q), split_icdf(b, q))
    # same uniforms, same splits: only the clock runs five times faster
    cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -6, seed=7)
    slow, fast = run_ensemble(a, cfg, 200), run_ensemble(b, cfg, 200)
    assert np.allclose(fast.zeta * 5.0, slow.zeta, rtol=1e-12, atol=0.0)


def test_random_atomic_split_invariants():
    # random atomic measures with a dust share: the engine only moves mass
    # down the tree or into dust, never creates it
    g = rng(11)
    cps = (0.25, 0.5, 1.0, 2.0, 4.0)
    for _ in range(20):
        k = int(g.integers(2, 5))
        raw = np.sort(g.random(k))[::-1]
        raw = raw / raw.sum() * g.uniform(0.5, 1.0)  # allow dust
        spec = M.make_atomic([(1.0, tuple(raw[raw > 1e-9]))])
        cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -6, checkpoints=cps,
                            seed=int(g.integers(2 ** 32)))
        ens = run_ensemble(spec, cfg, 300)
        assert np.all(np.diff(ens.sum_masses, axis=1) <= 1e-12)
        assert np.all(ens.sum_masses <= 1.0 + 1e-12)
        assert np.all(ens.largest <= ens.sum_masses + 1e-12)
        assert np.all(ens.sum_squares <= ens.largest * ens.sum_masses + 1e-12)


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.8, 0.9), (1.0, 1.0)])
def test_sampler_matches_analytic_cdf(a, b):
    spec = M.make_beta(a, b)
    g = rng(13)
    n = 10000
    draws = np.asarray(split_icdf(spec, g.random(n)))
    x = np.sort(draws)
    f = np.asarray(split_cdf(spec, x))
    ks = max(np.max(np.arange(1, n + 1) / n - f),
             np.max(f - np.arange(0, n) / n))
    assert ks < 1.63 / math.sqrt(n)


def test_icdf_round_trip_accuracy():
    spec = M.make_beta(2.0, 3.0)
    q = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    u = np.asarray(split_icdf(spec, q))
    back = np.asarray(split_cdf(spec, u))
    assert np.max(np.abs(back - q)) < 1e-9


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.8, 0.9), (10.0, 0.2),
                                 (0.3, 5.0)])
def test_icdf_matches_scipy_pchip_bit_for_bit(a, b):
    # the bucketed evaluator against scipy's own evaluation of the same
    # interpolant, on uniforms, every breakpoint and its neighbours, and
    # the ends: q = 1.0 lies in the closed last interval
    spec = M.make_beta(a, b)
    q_nodes, u_nodes = M._icdf_nodes(spec)
    pchip = PchipInterpolator(q_nodes, u_nodes, extrapolate=False)
    q = np.concatenate([rng(17).random(10 ** 6), q_nodes,
                        np.nextafter(q_nodes, 0.0), np.nextafter(q_nodes, 2.0),
                        [0.0, np.nextafter(1.0, 0.0), 1.0]])
    q = q[(q >= 0.0) & (q <= 1.0)]
    expected = np.clip(pchip(q), 0.5, 1.0)
    got = split_icdf(spec, q)
    assert got.dtype == expected.dtype
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    for scalar in (0.3, 1.0):
        expected = np.clip(pchip(scalar), 0.5, 1.0)
        got = split_icdf(spec, scalar)
        assert type(got) is type(expected)
        assert got == expected


def test_from_config_and_errors():
    spec = from_config({"family": "beta", "params": {"a": 2, "b": 3},
                        "scale": 1.5})
    assert spec.family == "beta" and spec.scale == 1.5
    with pytest.raises(ConfigError):
        from_config({"family": "nope", "params": {}})
    with pytest.raises(ConfigError):
        from_config({"family": "beta", "params": {"a": 2}})
    with pytest.raises(ConfigError):
        from_config({"family": "stable", "params": {"gamma": 3.0}})
    with pytest.raises(ConfigError):
        from_config({"family": "beta-splitting", "params": {"beta": -0.5}})
    # malformed values: each a ConfigError, never a bare ValueError or
    # TypeError, nor a measure silently built from a rounded or NaN value
    two = {"weight": 1.0, "parts": [0.5, 0.5]}
    for config in (
            {"family": "uniform-k", "params": {"k": 2}, "scale": "abc"},
            {"family": "uniform-k", "params": {"k": 2}, "scale": None},
            {"family": "beta", "params": {"a": "x", "b": 3}},
            {"family": "identical-k", "params": {"k": "two"}},
            {"family": "identical-k", "params": {"k": 2.7}},
            {"family": "uniform-k", "params": {"k": 2.7}},
            {"family": "identical-k", "params": {"k": 10 ** 9}},
            {"family": "atomic", "params": {"atoms": [
                {"weight": 1.0, "parts": "0.5"}]}},
            {"family": "atomic", "params": {"atoms": [
                {**two, "weight": math.nan}]}},
            {"family": "atomic", "params": {"atoms": [
                {**two, "weight": math.inf}]}},
            {"family": "atomic", "params": {"atoms": [
                {"weight": 1.0, "parts": [math.nan, 0.5]}]}},
            {"family": "beta", "params": {"a": math.nan, "b": 3}},
            {"family": "beta", "params": {"a": math.inf, "b": 3}}):
        with pytest.raises(ConfigError):
            from_config(config)
    assert from_config({"family": "identical-k",
                        "params": {"k": 3.0}}).param("k") == 3


_FAMILIES = ["atomic", "identical-k", "uniform-k", "beta", "stable", "ford",
             "beta-splitting"]


def _mostly(good, bad):
    # good three draws in four, so that valid specs are common among the
    # malformed ones
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


# JSON-like values: floats with NaN and infinities, ints of any size,
# strings, null and lists
_VALUES = _mostly(st.floats(-2.0, 2.0) | st.integers(0, 4),
                  st.floats() | st.integers() | st.text(max_size=4)
                  | st.none() | st.lists(st.floats(), max_size=3))
_ATOM = _mostly(st.fixed_dictionaries({
    "weight": _VALUES,
    "parts": _mostly(st.lists(_mostly(st.floats(0.0, 0.6), _VALUES),
                              min_size=1, max_size=4), _VALUES)}), _VALUES)
_PARAMS = _mostly(st.fixed_dictionaries({}, optional={
    "k": _VALUES, "a": _VALUES, "b": _VALUES, "gamma": _VALUES,
    "beta": _VALUES, "atoms": _mostly(st.lists(_ATOM, max_size=3), _VALUES)}),
    _VALUES)
_CONFIGS = st.fixed_dictionaries(
    {"family": st.sampled_from(_FAMILIES + ["nope", "", None, 2.0, []])},
    optional={"params": _PARAMS,
              "scale": _mostly(st.floats(0.5, 2.0), _VALUES)})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_CONFIGS)
def test_from_config_builds_a_finite_spec_or_raises_config_error(config):
    try:
        spec = from_config(config)
    except ConfigError:
        return
    assert isinstance(spec, M.DislocationSpec)
    values = [spec.scale] + [value for _, value in spec.params]
    for weight, parts in spec.atoms or ():
        values += [weight, *parts]
    assert all(math.isfinite(v) for v in values)


def test_intrinsic_alpha():
    assert M.intrinsic_alpha(M.make_stable(2.0)) == -0.5
    assert M.intrinsic_alpha(M.make_ford(0.3)) == -0.3
    assert abs(M.intrinsic_alpha(M.make_beta_splitting(-1.6)) - (-0.6)) < 1e-15
    assert M.intrinsic_alpha(M.make_uniform(2)) is None


def test_uniform_k_three_is_analytic_only():
    spec = M.make_uniform(3)
    assert not spec.is_finite
    with pytest.raises(UnsupportedSampling):
        split_icdf(spec, 0.5)
