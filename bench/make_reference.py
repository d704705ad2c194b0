"""Regenerate ``reference.json``: the mean extinction time of each
cascade-bulk family at the bulk config, from a large run on a seed that
the benchmark never uses for its own inputs.

    python3 bench/make_reference.py

The cascade-bulk gate compares a run's pooled mean with this reference
within 4 combined standard errors.  Regenerate only when the law of the
simulated extinction time at the bulk config is meant to change.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as W  # noqa: E402
from fragtail import simulate  # noqa: E402

REFERENCE_SEED = 0x5EED_F00D_2021
RUNS = 50 * simulate.CHUNK_RUNS   # per family
WORKERS = 2                       # speed only: chunks are seeded by index


def main():
    out = {"seed": REFERENCE_SEED, "cutoff": W.BULK_CUTOFF, "runs": RUNS,
           "cascade-bulk": {}}
    for i, (label, spec) in enumerate(W.BULK_FAMILIES):
        cfg = W.bulk_config(W.derive_seed(REFERENCE_SEED, i))
        zeta = simulate.run_ensemble(spec, cfg, RUNS, workers=WORKERS).zeta
        out["cascade-bulk"][label] = {
            "mean": float(zeta.mean()),
            "se": float(zeta.std(ddof=1) / math.sqrt(len(zeta)))}
        print(label, out["cascade-bulk"][label], flush=True)
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
