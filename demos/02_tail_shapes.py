"""
Tail shapes from the expansion engine
=====================================

The survival probability of the extinction time always reduces to the
class t**a0 * exp(-sum a_i t**p_i).  Two independent routes produce it:

* the expansion engine, which inverts phi's expansion at infinity into
  the expansion of psi(x)/x, to every order that shapes the tail, and
  integrates it term by term;
* the exact functional route (prefactors in psi, psi' and a decay
  integral), evaluated numerically.

Their log difference must tend to a constant in t; this script prints,
for each spec, the psi/x expansion and the shape it gives, then that
drift.  The drift dies out like the first order past the shape: for
beta-splitting(-1.2) that is t**-0.25, with a large coefficient, since
the prefactor (psi(|alpha| t)/t)**(1/|alpha| - 1) raises psi's own
corrections to the power 4.
"""

import numpy as np

from fragtail import (PhiEvaluator, PsiSolver, expand_psi_over_x,
                      intrinsic_alpha, log_tail_grid, make_beta,
                      make_beta_splitting, make_ford, make_identical,
                      make_stable, make_uniform, phi_expansion,
                      tail_shape_from_expansion)

print("psi/x expansion, and the shape t^a0 * exp(-sum a_i t^p_i)")
print("-" * 72)
cases = [
    ("identical-2, a=-1", make_identical(2), -1.0),
    ("uniform-2,   a=-1", make_uniform(2), -1.0),
    ("beta(2,3),   a=-1", make_beta(2.0, 3.0), -1.0),
    ("beta(0.8,2), a=-1", make_beta(0.8, 2.0), -1.0),
    ("beta(0.4,0.7) a=-1", make_beta(0.4, 0.7), -1.0),
    ("beta(0.3,0.9) a=-1", make_beta(0.3, 0.9), -1.0),
    ("stable(2)", make_stable(2.0), None),
    ("ford(0.5)", make_ford(0.5), None),
    ("beta-splitting(-1.6)", make_beta_splitting(-1.6), None),
    ("beta-splitting(-1.2)", make_beta_splitting(-1.2), None),
]
for label, spec, alpha in cases:
    expansion = phi_expansion(spec)
    psi_x = expand_psi_over_x(expansion)
    series = " ".join(f"{-c:+.4f} x^-{g:.3f}" for c, g in psi_x.terms)
    print(f"{label:22s} psi/x = {psi_x.scale:.4f} x^{psi_x.gamma:.3f}"
          f" * (1 {series})")
    shape = tail_shape_from_expansion(
        expansion, intrinsic_alpha(spec) if alpha is None else alpha)
    terms = " ".join(f"{c:+.4f} t^{p:.3f}" for c, p in shape.exp_terms)
    print(f"{'':22s} shape = t^{shape.poly_exponent:.4f}"
          f" * exp(-[{terms}])")

print()
print("pipeline agreement: exact functional route minus engine shape")
print("-" * 72)
t_grid = np.geomspace(50.0, 500.0, 7)
for label, spec in [("stable(1.5)", make_stable(1.5)),
                    ("ford(0.5)", make_ford(0.5)),
                    ("beta-splitting(-1.6)", make_beta_splitting(-1.6)),
                    ("beta-splitting(-1.2)", make_beta_splitting(-1.2))]:
    alpha = intrinsic_alpha(spec)
    solver = PsiSolver(PhiEvaluator(spec))
    log_ext, _ = log_tail_grid(solver, alpha, t_grid)
    shape = tail_shape_from_expansion(phi_expansion(spec), alpha)
    drift = log_ext - shape.log_value(t_grid)
    print(f"{label:22s} log offset mean {drift.mean():+8.4f}, "
          f"variation over t in [50, 500]: {drift.max() - drift.min():.4f}")
