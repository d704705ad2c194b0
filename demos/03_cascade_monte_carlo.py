"""
Cascade Monte Carlo against the predicted tail shape
====================================================

Simulates uniform binary fragmentation at self-similarity index -1,
estimates the survival curve of the extinction time, and fits the
predicted class t**2 exp(-t) over the honest window of survival levels.
A deliberately wrong shape is fitted too, to show the residual criterion
actually discriminates.
"""

import numpy as np

from fragtail import (CascadeConfig, TailShape, make_uniform, run_ensemble,
                      shape_fit, survival_curve)

spec = make_uniform(2)
n_runs = 100000
cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -10, seed=2024,
                    record_sums=False, record_largest=False)
print(f"simulating {n_runs} cascades (dust cutoff 2^-10) ...")
ens = run_ensemble(spec, cfg, n_runs)
print(f"mean extinction estimate: {ens.zeta.mean():.4f}")

levels = np.geomspace(0.2, 2e-3, 14)
t_grid = np.quantile(ens.zeta, 1.0 - levels)
curve = survival_curve(ens.zeta, t_grid)

print()
print("survival curve in the fit window")
print("-" * 56)
for t, p, ci in zip(curve.t_grid, curve.p_hat, curve.ci_half):
    print(f"t = {t:6.3f}   P(ext > t) = {p:8.5f} +- {ci:.5f}")

right = TailShape(2.0, ((1.0, 1.0),))   # t^2 e^-t
wrong = TailShape(0.0, ((1.0, 1.0),))   # plain e^-t
fit_r = shape_fit(curve, right)
fit_w = shape_fit(curve, wrong)
print()
print(f"fit against t^2 exp(-t): max |log residual| = "
      f"{fit_r.max_abs_residual:.3f}  (constant exp({fit_r.fitted_constant:.3f}))")
print(f"fit against     exp(-t): max |log residual| = "
      f"{fit_w.max_abs_residual:.3f}  <- correctly rejected")
