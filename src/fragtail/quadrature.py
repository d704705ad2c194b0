"""Double-exponential (tanh-sinh) quadrature for endpoint singularities.

The integrands in this package typically carry algebraic singularities
``(b - x)**(p - 1)`` with ``p - 1`` in ``(-1, 0)`` at one or both endpoints.
The tanh-sinh substitution clusters nodes double-exponentially at the
endpoints, so such integrands converge without family-specific weights.

Integrands are called as ``f(x, x - a, b - x)`` with the two endpoint
distances supplied separately; they are computed from the transform without
cancellation, which is what keeps terms like ``(1 - u)**(-0.9)`` accurate at
``1 - u ~ 1e-250``.

One call integrates one interval or a whole array of intervals, and the
integrands of this package cost about as much per call for a few points
as for a few hundred.  So the first integrand call evaluates levels 0 to
4 of every interval at once, and each later call the next level of the
intervals still open.  Each interval then runs the level-by-level rule on
its own, in level order: the level's sum, the finiteness check of its
values, the stop once two levels agree to ``rel_tol`` and the node cap.
Its result is bit for bit the one a call per level would give, and nodes
of levels past the one where it stopped are evaluated but never read.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalFailure

_T_MAX = 6.0  # |t| beyond this contributes < 1e-260 for any exponent > -1
# levels the first integrand call evaluates; measured on the decay
# integrals of the exact tail route, which mostly stop at level 3 or 4
_FIRST_LEVELS = 5


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
    """Integrate ``f(x, x-a, b-x)`` over (a, b), or over every interval
    (a[i], b[i]) of equal-shape arrays of endpoints.

    Returns ``(value, err_estimate, n_nodes)``.  ``value`` and
    ``err_estimate`` (the last inter-level difference relative to the
    result) are floats for scalar endpoints and arrays of the endpoints'
    shape otherwise; ``n_nodes`` is the number of points ``f`` evaluated.
    ``f`` must act elementwise: it is called on flat arrays that hold the
    nodes of several levels and intervals at once.  Raises
    :class:`NumericalFailure` if an interval hits the node cap before the
    requested relative tolerance is met.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape:
        raise ValueError(f"endpoint shapes differ: {a_arr.shape} and "
                         f"{b_arr.shape}")
    los = a_arr.ravel().tolist()
    widths = []
    for left, right in zip(los, b_arr.ravel().tolist()):
        if not right > left:
            raise NumericalFailure(
                f"empty or inverted interval ({left}, {right})")
        widths.append(right - left)
    n = len(los)
    value = [0.0] * n
    err = [math.inf] * n
    prev = [0.0] * n
    used = [0] * n  # nodes per interval, for the cap
    n_nodes = 0
    todo = list(range(n))
    levels = range(_FIRST_LEVELS)
    while todo:
        tables = [_nodes(level) for level in levels]
        u, um1, w = (np.concatenate(parts) for parts in zip(*tables))
        lo = np.array([los[i] for i in todo])[:, None]
        width = np.array([widths[i] for i in todo])[:, None]
        vals = np.asarray(f((lo + width * u).ravel(), (width * u).ravel(),
                            (width * um1).ravel()), dtype=float)
        vals = vals.reshape(len(todo), -1)
        n_nodes += vals.size
        ends = np.cumsum([len(t[2]) for t in tables]).tolist()
        finite = np.logical_and.reduceat(np.isfinite(vals * w),
                                         [0] + ends[:-1], axis=1).tolist()
        still_open = []
        for i, row, row_finite in zip(todo, vals, finite):
            start = 0
            for level, (_, _, wl), end, ok in zip(levels, tables, ends,
                                                  row_finite):
                if not ok:
                    raise NumericalFailure(
                        "integrand not finite at quadrature nodes")
                part = widths[i] * float(np.dot(wl, row[start:end]))
                start = end
                # halving h rescales the previous grid's contribution by
                # 1/2; the new odd-multiple nodes already carry the new
                # spacing in w
                total = part if level == 0 else 0.5 * prev[i] + part
                used[i] += len(wl)
                if level > 0:
                    err[i] = abs(total - prev[i]) / max(abs(total), 1e-300)
                    if err[i] <= rel_tol:
                        value[i] = total
                        break
                prev[i] = total
                if used[i] >= max_nodes:
                    raise NumericalFailure(
                        f"tanh-sinh did not reach rel_tol={rel_tol:g} within "
                        f"{max_nodes} nodes",
                        achieved=err[i])
            else:
                still_open.append(i)
        todo = still_open
        levels = [levels[-1] + 1]
    if a_arr.ndim == 0:
        return value[0], err[0], n_nodes
    return (np.array(value).reshape(a_arr.shape),
            np.array(err).reshape(a_arr.shape), n_nodes)
