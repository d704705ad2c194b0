"""
Tagged fragments: two constructions, one law
============================================

A uniformly tagged fragment can be simulated two ways: ride a full
cascade and follow the size-biased lineage, or simulate the lineage alone
as a multiplicative random walk with exponential waits.  Both realize the
same extinction-time law, whose mean is exactly 1/phi(|alpha|).

The same runs also check the separation-time identity for two tags:
P(T_sep > t) equals the expected tagged mass at t, and the expected
tagged mass equals the expected sum of squared fragment masses.
"""

import math

from fragtail import (CascadeConfig, PhiEvaluator, ks_two_sample,
                      make_identical, make_uniform, run_ensemble,
                      sample_zeta_tag)
from fragtail.acceptance import two_tag_identities
from fragtail.simulate import _generator

for spec, label in [(make_identical(2), "identical-2"),
                    (make_uniform(2), "uniform-2")]:
    target = 1.0 / PhiEvaluator(spec).phi(1.0)
    out = sample_zeta_tag(spec, -1.0, 1e-4, 50000, _generator(7))
    se = out["value"].std(ddof=1) / math.sqrt(len(out["value"]))
    print(f"{label:12s} mean tagged extinction {out['value'].mean():.4f} "
          f"(exact 1/phi(1) = {target:.4f}, {abs(out['value'].mean() - target) / se:.2f} se off)")

print()
print("law agreement: cascade lineage deaths vs direct lineage sampler")
spec = make_uniform(2)
cutoff = 2.0 ** -12
cfg = CascadeConfig(alpha=-1.0, cutoff=cutoff, seed=42, tags=1,
                    record_sums=False, record_largest=False)
ens = run_ensemble(spec, cfg, 10000)
tol = cutoff / PhiEvaluator(spec).phi(1.0)
direct = sample_zeta_tag(spec, -1.0, tol, 10000, _generator(43))
ks = ks_two_sample(ens.tag_death[0], direct["value"])
print(f"two-sample KS distance {ks.statistic:.4f} "
      f"(1% critical value {ks.threshold_1pct:.4f}) -> "
      f"{'same law' if ks.pass_1pct else 'MISMATCH'}")

print()
print("two-tag identities on common runs (paired z-scores, |z| <= 4 expected)")
suites = two_tag_identities(spec, -1.0, 2.0 ** -11, (1.0, 2.0, 4.0), 40000,
                            seed=44)
for tag_vs_s2, sep_vs_tag in zip(suites["tagmass"], suites["separation"]):
    print(f"t = {tag_vs_s2['t']:g}:  E[tag mass] - E[sum F_i^2] -> "
          f"z = {tag_vs_s2['z']:+.2f};   "
          f"P(T_sep > t) - E[tag mass] -> "
          f"z = {sep_vs_tag['z']:+.2f}")
