"""Double-exponential (tanh-sinh) quadrature for endpoint singularities.

The integrands in this package typically carry algebraic singularities
``(b - x)**(p - 1)`` with ``p - 1`` in ``(-1, 0)`` at one or both endpoints.
The tanh-sinh substitution clusters nodes double-exponentially at the
endpoints, so such integrands converge without family-specific weights.

Integrands are called as ``f(x, x - a, b - x)`` with the two endpoint
distances supplied separately; they are computed from the transform without
cancellation, which is what keeps terms like ``(1 - u)**(-0.9)`` accurate at
``1 - u ~ 1e-250``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalFailure

_T_MAX = 6.0  # |t| beyond this contributes < 1e-260 for any exponent > -1


@functools.lru_cache(maxsize=None)
def _nodes(level):
    """Abscissa parameters t and weights for one refinement level.

    Level 0 uses spacing h=1 on all integer multiples; level L >= 1 adds the
    odd multiples of h = 2**-L.  Returns (u, one_minus_u, weight) for the
    unit interval, weight already including the spacing h.  Each level is
    built once and shared, so the arrays are read-only.
    """
    h = 0.5 ** level
    if level == 0:
        t = np.arange(-_T_MAX, _T_MAX + 0.5 * h, h)
    else:
        t = np.arange(-_T_MAX + h, _T_MAX, 2.0 * h)
    y = 0.5 * math.pi * np.sinh(t)
    em = np.exp(-2.0 * np.abs(y))
    denom = 1.0 + em
    small = em / denom
    big = 1.0 / denom
    u = np.where(t >= 0.0, big, small)
    um1 = np.where(t >= 0.0, small, big)
    w = math.pi * np.cosh(t) * em / denom ** 2 * h
    keep = (w > 0.0) & (small > 0.0)
    out = u[keep], um1[keep], w[keep]
    for arr in out:
        arr.flags.writeable = False
    return out


def tanh_sinh(f, a, b, rel_tol=1e-10, max_nodes=2 ** 14):
    """Integrate ``f(x, x-a, b-x)`` over (a, b).

    Returns ``(value, err_estimate, n_nodes)`` where ``err_estimate`` is the
    last inter-level difference relative to the result.  Raises
    :class:`NumericalFailure` if the node cap is hit before the requested
    relative tolerance is met.
    """
    if not b > a:
        raise NumericalFailure(f"empty or inverted interval ({a}, {b})")
    width = b - a
    total = 0.0
    n_nodes = 0
    prev = None
    err = math.inf
    level = 0
    while True:
        u, um1, w = _nodes(level)
        x = a + width * u
        vals = np.asarray(f(x, width * u, width * um1), dtype=float)
        if not np.all(np.isfinite(vals * w)):
            raise NumericalFailure("integrand not finite at quadrature nodes")
        if level == 0:
            total = width * float(np.dot(w, vals))
        else:
            # halving h rescales the previous grid's contribution by 1/2; the
            # new odd-multiple nodes already carry the new spacing in w
            total = 0.5 * prev + width * float(np.dot(w, vals))
        n_nodes += len(u)
        if prev is not None:
            scale = max(abs(total), 1e-300)
            err = abs(total - prev) / scale
            if err <= rel_tol:
                return total, err, n_nodes
        prev = total
        level += 1
        if n_nodes >= max_nodes:
            raise NumericalFailure(
                f"tanh-sinh did not reach rel_tol={rel_tol:g} within "
                f"{max_nodes} nodes",
                achieved=err,
            )
