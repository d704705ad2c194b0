import math

import numpy as np
import pytest
from scipy.special import gammaln

from fragtail.errors import NumericalFailure
from fragtail.quadrature import tanh_sinh


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


def test_node_tables_built_once_and_read_only():
    from fragtail.quadrature import _nodes
    for level in (0, 3):
        tables = _nodes(level)
        assert _nodes(level) is tables
        for arr in tables:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
