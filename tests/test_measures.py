import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fragtail import measures as M
from fragtail.errors import ConfigError, UnsupportedSampling
from fragtail.measures import (from_config, split_cdf, split_icdf,
                               split_ks_error, total_mass)
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
    # one table serves every scale of the same split law
    assert M._split_sampler(a) is M._split_sampler(b)
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


def _dense_q():
    """2M uniform q, sweeps of q and 1 - q from 1 down to 2^-54 and 2^-52
    in log scale, and both ends, sorted."""
    ln2 = math.log(2.0)
    return np.sort(np.concatenate([
        rng(26).random(2_000_000),
        -np.expm1(-np.linspace(0.0, 52.0 * ln2, 100_001)),
        np.exp(-np.linspace(0.0, 54.0 * ln2, 100_001)), [0.0, 1.0]]))


def _round_trip(spec, q, cutoff):
    """icdf at q, and |F(icdf(q)) - q| over the q whose smaller piece is at
    least the cutoff."""
    u = split_icdf(spec, q)
    keep = q <= split_cdf(spec, 1.0 - cutoff)
    return u, np.abs(split_cdf(spec, u[keep]) - q[keep])


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.8, 0.9), (1.0, 1.0)])
def test_icdf_error_on_a_dense_grid(a, b):
    # the beta specs that the tests and the benchmark sample: over every
    # piece the error is at most 1e-9, and the error measured when the
    # table was built is no smaller than the one this grid finds
    spec = M.make_beta(a, b)
    u, err = _round_trip(spec, _dense_q(), 0.0)
    assert np.all(np.diff(u) >= 0.0)
    assert err.max() <= split_ks_error(spec) <= 1e-9


# KS error over smaller pieces of at least 2^-30 of the PCHIP interpolant
# that the cell tables replaced, measured with the grid above
_PCHIP_ERROR = {(0.5, 2.0): 4.01e-6, (0.3, 0.3): 7.41e-6,
                (0.05, 20.0): 7.04e-6, (5.0, 0.01): 1.57e-6,
                (50.0, 0.5): 2.39e-5, (10.0, 0.2): 1.52e-5,
                (0.3, 5.0): 1.19e-5}


@pytest.mark.parametrize("a,b", list(_PCHIP_ERROR))
def test_icdf_on_skewed_specs(a, b):
    # pieces below 2^-53 cannot be told from 0 next to 1, so the check
    # stops at smaller pieces of 2^-30, the default cutoff
    spec = M.make_beta(a, b)
    u, err = _round_trip(spec, _dense_q(), 2.0 ** -30)
    assert not np.isnan(u).any()
    assert np.all(np.diff(u) >= 0.0)
    assert err.max() <= split_ks_error(spec, 2.0 ** -30)
    assert err.max() <= _PCHIP_ERROR[a, b]


@pytest.mark.parametrize("spec", [M.make_uniform(2), M.make_beta(2.0, 3.0),
                                  M.make_beta(50.0, 0.5)])
def test_icdf_ends_scalars_and_batches(spec):
    # the ends map to the ends of (1/2, 1); a scalar gives a scalar; and a
    # draw does not depend on the batch it is drawn in
    assert split_icdf(spec, 0.0) == 0.5 and split_icdf(spec, 1.0) == 1.0
    ends = split_icdf(spec, np.linspace(0.0, 1.0, 8))
    assert ends[0] == 0.5 and ends[-1] == 1.0 and np.all(np.diff(ends) >= 0)
    for scalar in (0.3, 1.0, 1e-20):
        got = split_icdf(spec, scalar)
        assert np.ndim(got) == 0 and isinstance(got, float)
    q = np.concatenate([rng(27).random(5000), 1.0 - rng(28).random(50) ** 9,
                        rng(29).random(50) ** 9])
    whole = split_icdf(spec, q)
    assert np.array_equal(whole, np.concatenate(
        [split_icdf(spec, part) for part in np.array_split(q, 7)]))
    assert np.array_equal(whole[::-1], split_icdf(spec, q[::-1]))
    assert np.array_equal(whole[:200],
                          [split_icdf(spec, x) for x in q[:200]])
    assert np.array_equal(whole.reshape(50, 102),
                          split_icdf(spec, q.reshape(50, 102)))


def test_split_ks_error_shrinks_with_the_cutoff():
    # uniform-2's inverse is exact; a beta table's error over the pieces
    # a cutoff keeps can only grow as the cutoff falls
    assert split_ks_error(M.make_uniform(2), 2.0 ** -9) == 0.0
    spec = M.make_beta(0.3, 0.3)
    errors = [split_ks_error(spec, 2.0 ** -k) for k in (1, 9, 30, 50)]
    assert errors == sorted(errors) and errors[-1] <= split_ks_error(spec)
    with pytest.raises(UnsupportedSampling):
        split_ks_error(M.make_identical(2), 0.01)


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
