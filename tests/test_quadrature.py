import math

import numpy as np
import pytest
from scipy.special import gammaln

from fragtail.errors import NumericalFailure
from fragtail.quadrature import _FIRST_LEVELS, _nodes, tanh_sinh


def beta_exact(p, q):
    return math.exp(gammaln(p) + gammaln(q) - gammaln(p + q))


def test_constant():
    val, err, _ = tanh_sinh(lambda u, uma, bmx: np.ones_like(u), 0.0, 1.0)
    assert abs(val - 1.0) < 1e-12


def test_both_endpoint_singularities():
    val, _, _ = tanh_sinh(
        lambda u, uma, bmx: uma ** (-0.5) * bmx ** (-0.75), 0.0, 1.0)
    assert abs(val - beta_exact(0.5, 0.25)) / beta_exact(0.5, 0.25) < 1e-12


@pytest.mark.parametrize("p,q", [(1.5, 0.25), (0.3, 0.9), (2.0, 3.0)])
def test_beta_family(p, q):
    val, _, _ = tanh_sinh(
        lambda u, uma, bmx: uma ** (p - 1.0) * bmx ** (q - 1.0), 0.0, 1.0)
    assert abs(val - beta_exact(p, q)) / beta_exact(p, q) < 1e-10


def test_subinterval_with_upper_singularity():
    val, _, _ = tanh_sinh(lambda x, xma, bmx: bmx ** (-0.5), 0.5, 1.0)
    assert abs(val - 2.0 * math.sqrt(0.5)) < 1e-12


def test_zero_integrand():
    val, _, _ = tanh_sinh(lambda u, uma, bmx: np.zeros_like(u), 0.0, 1.0)
    assert val == 0.0


def test_node_cap_failure_reports_achieved():
    # a discontinuous integrand the doubling rule cannot settle at 1e-10
    def nasty(u, uma, bmx):
        return np.where(u < 1.0 / math.pi, 1.0, 0.0) * uma ** (-0.99)

    with pytest.raises(NumericalFailure) as info:
        tanh_sinh(nasty, 0.0, 1.0, rel_tol=1e-14, max_nodes=256)
    assert info.value.achieved is None or info.value.achieved > 0


def test_inverted_interval_rejected():
    with pytest.raises(NumericalFailure):
        tanh_sinh(lambda x, a, b: x, 1.0, 0.5)
    with pytest.raises(NumericalFailure):
        tanh_sinh(lambda x, a, b: x, np.array([0.0, 1.0]),
                  np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        tanh_sinh(lambda x, a, b: x, np.zeros(2), np.ones(3))


def _level_by_level(f, a, b, rel_tol=1e-10):
    """The one-interval rule evaluated one level per integrand call: the
    reference the batched evaluation must reproduce bit for bit.  Returns
    (value, err_estimate, level it stopped at)."""
    width = b - a
    prev = None
    level = 0
    while True:
        u, um1, w = _nodes(level, level + 1)[:3]
        vals = np.asarray(f(a + width * u, width * u, width * um1),
                          dtype=float)
        assert np.all(np.isfinite(vals * w))
        total = width * float(np.dot(w, vals))
        if level:
            total = 0.5 * prev + total
            err = abs(total - prev) / max(abs(total), 1e-300)
            if err <= rel_tol:
                return total, err, level
        prev = total
        level += 1


def _mixed(x, xma, bmx):
    # smooth left of 100, an endpoint singularity right of it
    return np.where(x < 100.0, np.cos(x), bmx ** -0.9)


def test_array_endpoints_give_each_interval_alone():
    # intervals that stop before, at and after the last level of the first
    # integrand call, in one call, each bit for bit its one-interval result
    a = np.array([0.0, 0.0, 0.0, 100.0, 0.0, 0.0])
    b = np.array([0.5, 30.0, 6.0, 101.0, 60.0, 9.0])
    ref = [_level_by_level(_mixed, lo, hi) for lo, hi in zip(a, b)]
    levels = {level for _, _, level in ref}
    assert min(levels) < _FIRST_LEVELS - 1 < max(levels)
    assert _FIRST_LEVELS - 1 in levels
    for shape in ((6,), (2, 3)):
        value, err, n_nodes = tanh_sinh(_mixed, a.reshape(shape),
                                        b.reshape(shape))
        assert type(n_nodes) is int
        assert value.shape == err.shape == shape
        assert value.ravel().tolist() == [v for v, _, _ in ref]
        assert err.ravel().tolist() == [e for _, e, _ in ref]
    for (v, e, _), lo, hi in zip(ref, a, b):
        value, err, _ = tanh_sinh(_mixed, float(lo), float(hi))
        assert type(value) is float and (value, err) == (v, e)


def test_nonfinite_past_convergence_is_never_seen():
    # nan at the nodes of the first call's last level: an interval that
    # stops before that level returns its value, one that reaches it fails
    # (near 1, nodes of several levels round to the same u)
    deep = _nodes(_FIRST_LEVELS - 1, _FIRST_LEVELS)[0]
    deep = deep[deep < 0.5]

    def poisoned(x, xma, bmx):
        return np.where(np.isin(x, deep), np.nan, 1.0 + x * x)

    value, err, level = _level_by_level(lambda x, xma, bmx: 1.0 + x * x,
                                        0.0, 1.0)
    assert level < _FIRST_LEVELS - 1
    assert tanh_sinh(poisoned, 0.0, 1.0)[:2] == (value, err)

    def poisoned_early(x, xma, bmx):
        early = _nodes(1, 2)[0]
        return np.where(np.isin(x, early[early < 0.5]), np.nan, 1.0 + x * x)

    with pytest.raises(NumericalFailure):
        tanh_sinh(poisoned_early, 0.0, 1.0)


def test_node_tables_built_once_and_read_only():
    from fragtail.quadrature import _nodes
    for first, stop in ((0, _FIRST_LEVELS), (3, 4)):
        tables = _nodes(first, stop)
        assert _nodes(first, stop) is tables
        u, um1, w, level_w, starts = tables
        assert sum(len(wl) for wl in level_w) == len(w)
        assert starts[-1] + len(level_w[-1]) == len(w)
        for arr in (u, um1, w) + level_w:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
