"""Inversion of x -> x/phi(x): the function psi driving every tail exponent.

psi is defined on (x_psi, infinity) by psi(x)/phi(psi(x)) = x.  Both psi and
psi(x)/x are strictly increasing because phi is increasing with phi(x)/x
decreasing, so the defining equation is solved by safeguarded bracketing on
the strictly increasing map y -> y/phi(y).  ``psi_values`` solves a batch
point by point.

Determinism contract: a solve for a given x always starts from the same
deterministic bracket and runs the same safeguarded iteration on scalar phi
values, so a point gets the bit-identical value whether it is solved alone,
in any batch, in any order, or by concurrent callers.  Scalar phi runs on
np.float64 scalars (see :mod:`fragtail.laplace`), which give the values a
0-d array would, bit for bit, at a fraction of the per-operation cost; the
solve is a chain of such calls.  Within one solve phi is evaluated once
per distinct point: the excesses y/phi(y) - x computed while bracketing
are kept in a dict local to the call, so ``brentq`` reuses the values at
its bracket ends and the residual check the value at the root it returns
(brentq only ever returns a point it evaluated).  The upper bracket
doubles while it stays finite, so every root below the largest float is
found; a root past it is a :class:`DomainError` of psi.  The solver holds
nothing beyond its evaluator and the domain edge x_psi: every call solves
afresh, and callers that need psi' or a decay integral at points they have
already solved pass the solved values on (:meth:`PsiSolver.psi_prime_at`,
:func:`fragtail.asymptotics.log_tail_grid`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, NumericalFailure

_EDGE_GUARD = 1e-6   # refuse x within this relative margin of x_psi
_RTOL = 1e-10        # residual contract: |psi(x)/phi(psi(x)) - x| <= _RTOL * x
_BRENT_RTOL = 4.0 * np.finfo(float).eps


class PsiSolver:
    """Inverts y -> y/phi(y) for one measure (a :class:`PhiEvaluator`).

    Each returned y satisfies |y/phi(y) - x| <= 1e-10 * x.
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.x_psi = evaluator.x_psi()

    def psi(self, x):
        """psi(x) for scalar, finite x > x_psi."""
        x = float(x)
        if not (math.isfinite(x) and x > 0.0
                and x > self.x_psi * (1.0 + _EDGE_GUARD)):
            raise DomainError(
                f"psi is defined for x > x_psi = {self.x_psi:.6g}, got {x}")

        phi = self.evaluator.phi
        seen = {}  # y -> y/phi(y) - x, for this solve only

        def excess(y):
            v = seen.get(y)
            if v is None:
                v = seen[y] = y / phi(y) - x
            return v

        # deterministic bracket: double up from max(1, x) until the ratio
        # y/phi(y) reaches x, halve down until it falls to x or below; the
        # sign of the excess is the sign of ratio - x, exactly
        hi = max(1.0, x)
        while not excess(hi) >= 0.0:
            if 2.0 * hi == math.inf:
                raise DomainError(
                    f"psi({x}) exceeds the float range: y/phi(y) < x up to "
                    f"y = {hi:.6g}")
            hi *= 2.0
        lo = 0.5 * hi
        for _ in range(400):
            if excess(lo) <= 0.0:
                break
            lo *= 0.5
        else:
            raise NumericalFailure(f"no lower bracket for psi({x})")

        y = brentq(excess, lo, hi, xtol=1e-300, rtol=_BRENT_RTOL, maxiter=300)
        residual = abs(excess(y))
        if residual > _RTOL * x:
            raise NumericalFailure(
                f"psi({x}) residual {residual:.3e} exceeds {_RTOL:.1e}*x",
                achieved=residual / x)
        return y

    def psi_values(self, xs):
        """psi at every point of ``xs``, as a flat array."""
        return np.array([self.psi(v)
                         for v in np.asarray(xs, dtype=float).ravel().tolist()])

    def psi_prime(self, x):
        """Derivative of psi at scalar x; see :meth:`psi_prime_at`."""
        return float(self.psi_prime_at(np.array([self.psi(x)]))[0])

    def psi_prime_at(self, ys):
        """psi' at the points x = y/phi(y), from their solved values
        y = psi(x), by implicit differentiation:
        psi'(x) = phi(y)^2 / (phi(y) - y phi'(y))."""
        ys = np.asarray(ys, dtype=float)
        phi_y, dphi_y = self.evaluator.phi_pair(ys)
        denom = phi_y - ys * dphi_y
        if not (denom > 0.0).all():
            raise NumericalFailure(
                f"psi': nonpositive denominator {np.min(denom):.3e} violates "
                "strict monotonicity of x/phi(x); evaluator inconsistency")
        return phi_y * phi_y / denom

    def growth_exponent(self, x_max, octaves=8):
        """Empirical growth exponent of psi near x_max.

        Takes the supremum of log2 psi(2x)/psi(x) over the top ``octaves``
        doubling steps below x_max.  Under a passing ratio-bound report with
        tail supremum c this must not exceed 1/(1-c) by more than a whisker.
        """
        x_lo_floor = max(4.0 * (self.x_psi + 1.0), 8.0)
        n = int(octaves)
        while n > 1 and x_max / 2.0 ** n < x_lo_floor:
            n -= 1
        if x_max / 2.0 < x_lo_floor:
            raise DomainError("x_max too small for a growth estimate")
        ys = self.psi_values(x_max / 2.0 ** n * 2.0 ** np.arange(n + 1))
        return float(np.max(np.log2(ys[1:] / ys[:-1])))
