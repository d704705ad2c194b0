"""The traced run: per-layer metrics and the tracing overhead.

One pass of the workload runs traced.  Then the fixed layer probes run,
the same on every workload, so that every per-layer metric is measured on
every workload:

* small passes of all three workloads, traced;
* the first ``split_icdf`` call on fresh beta(2, 3) specs (the table
  build), untraced;
* ``run_ensemble`` under tracemalloc: bytes are as tracemalloc counts
  them, not RSS; untraced;
* one config at 1 and at 2 workers (scaling efficiency), untraced;
* one cold tail pair per exact-tail spec, untraced and traced back to back
  (the tracing overhead).

Per-layer metrics aggregate the traced pass and the traced probes.  Spans
inside pool workers stay in the workers and are not collected: with 2
workers, ``simulate.run_ensemble`` self time is the parent's wait.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

import spans
import workloads as W
from fragtail import asymptotics, inversion, laplace, simulate
from fragtail import measures as M

perf = time.perf_counter
PROBE_PASS = 1_000_000   # pass index of the probes' inputs
OVERHEAD_T = 100.0       # t of the tracing-overhead probe
OVERHEAD_ROUNDS = 9
ICDF_BUILDS = 3          # fresh beta(2, 3) specs timed for the table build
SCALING_RUNS = 16384     # runs of the 1- and 2-worker scaling calls
EVENTS_PER_RUN_IDENTICAL_2 = 1023   # binary tree of depth 9 at cutoff 2^-9

BULK_LABELS = [label for label, _ in W.BULK_FAMILIES]

UNITS = {
    "laplace.phi.calls": "count",
    "laplace.phi.self_s": "s",
    "laplace.phi.us_per_call": "us",
    "laplace.phi.points_per_call": "count",
    "laplace.phi_prime.calls": "count",
    "inversion.psi.calls": "count",
    "inversion.psi.memo_hit_ratio": "ratio",
    "inversion.psi.solve_ms_p50": "ms",
    "inversion.phi_calls_per_solve": "count",
    "inversion.psi.self_s": "s",
    "asymptotics.decay_integral.calls": "count",
    "asymptotics.decay_integral.self_s": "s",
    "asymptotics.decay_integral.ms_p50": "ms",
    "asymptotics.psi_calls_per_integral": "count",
    "asymptotics.log_tail_grid.s": "s",
    "asymptotics.oracle_rel_err": "ratio",
    "asymptotics.ratio_mismatch_max": "ratio",
    "asymptotics.shape_span_max": "ratio",
    "quadrature.tanh_sinh.calls": "count",
    "quadrature.tanh_sinh.nodes": "count",
    "measures.split_icdf.calls": "count",
    "measures.split_icdf.self_s": "s",
    "measures.icdf_build_ms": "ms",
    **{f"simulate.runs_per_s.{label}": "1/s" for label in BULK_LABELS},
    "simulate.events_per_s": "1/s",
    "simulate.peak_alloc_mb": "MB",
    "simulate.truncated_frac": "ratio",
    "simulate.run_ensemble.self_s": "s",
    "simulate.scaling_eff_2w": "ratio",
    "simulate.zeta_tag.samples_per_s": "1/s",
    "cli.simulate.export_s": "s",
    "cli.csv_rows_per_s": "1/s",
    "cli.zeta_tag.rows_per_s": "1/s",
    "cli.fit.read_s": "s",
    "stats.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def traced_run(wl, ctx, seed, jsonl_path):
    """Returns (pass times, metrics, notes)."""
    tracer = ctx.tracer
    probe_wls = [W.ExactTail(ctx, seed, t_per_pass=1,
                             grid_labels=("uniform-2", "stable-1.5"),
                             residual_points=5),
                 W.CascadeBulk(ctx, seed, runs=1024),
                 W.CascadeObserved(ctx, seed, tag_samples=4096)]
    spans.install(tracer)
    tracer.enabled = True
    try:
        traced = W.run_passes(wl, ctx, 0.0, passes=1)
        for probe in probe_wls:
            probe.run_pass(PROBE_PASS)
        tracer.enabled = False
        notes = {}
        icdf_ms = _icdf_build_ms()
        peaks = _peak_alloc_mb(seed)
        notes["simulate.peak_alloc_mb by config"] = peaks
        eff, detail = _scaling(seed)
        notes["simulate.scaling_eff_2w"] = detail
    finally:
        tracer.enabled = False
        tracer.unpatch()
    overhead, notes["trace.overhead_s"] = _trace_overhead_s()
    wl.finish()
    for probe in probe_wls:
        probe.finish()
    tracer.write_jsonl(jsonl_path)
    notes["spans written to"] = str(jsonl_path.name)
    notes["pool workers"] = ("spans inside 2-worker run_ensemble calls stay "
                             "in the workers and are not collected")
    metrics = layer_metrics(tracer, ctx)
    metrics["measures.icdf_build_ms"] = icdf_ms
    metrics["simulate.peak_alloc_mb"] = max(peaks.values())
    metrics["simulate.scaling_eff_2w"] = eff
    metrics["trace.overhead_s"] = overhead
    return traced, {k: metrics[k] for k in UNITS}, notes


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, ctx):
    m = {}
    phi_calls = tr.calls["laplace.phi"]
    m["laplace.phi.calls"] = phi_calls
    m["laplace.phi.self_s"] = tr.self_s["laplace.phi"]
    m["laplace.phi.us_per_call"] = 1e6 * _ratio(tr.self_s["laplace.phi"],
                                                phi_calls)
    m["laplace.phi.points_per_call"] = _ratio(sum(tr.facts["laplace.phi"]),
                                              phi_calls)
    m["laplace.phi_prime.calls"] = tr.calls["laplace.phi_prime"]

    psi = tr.facts["inversion.psi"]          # (repeated, seconds)
    fresh = [s for repeated, s in psi if not repeated]
    m["inversion.psi.calls"] = len(psi)
    m["inversion.psi.memo_hit_ratio"] = _ratio(len(psi) - len(fresh),
                                               len(psi))
    m["inversion.psi.solve_ms_p50"] = (1e3 * statistics.median(fresh)
                                       if fresh else 0.0)
    m["inversion.phi_calls_per_solve"] = _ratio(
        tr.nested[("laplace.phi", "inversion.psi")], len(fresh))
    m["inversion.psi.self_s"] = tr.self_s["inversion.psi"]

    di = "asymptotics.decay_integral"
    m[di + ".calls"] = tr.calls[di]
    m[di + ".self_s"] = tr.self_s[di]
    m[di + ".ms_p50"] = (1e3 * statistics.median(tr.durations[di])
                         if tr.durations[di] else 0.0)
    m["asymptotics.psi_calls_per_integral"] = _ratio(
        tr.nested[("inversion.psi", di)], tr.calls[di])
    grid = tr.durations["asymptotics.log_tail_grid"]
    m["asymptotics.log_tail_grid.s"] = statistics.median(grid) if grid else 0.0
    for key in ("oracle_rel_err", "ratio_mismatch_max", "shape_span_max"):
        m["asymptotics." + key] = ctx.margins.get(key, 0.0)

    m["quadrature.tanh_sinh.calls"] = tr.calls["quadrature.tanh_sinh"]
    m["quadrature.tanh_sinh.nodes"] = sum(tr.facts["quadrature.tanh_sinh"])
    m["measures.split_icdf.calls"] = tr.calls["measures.split_icdf"]
    m["measures.split_icdf.self_s"] = tr.self_s["measures.split_icdf"]

    ens = tr.facts["simulate.run_ensemble"]
    bulk = [e for e in ens if e["zeta_only"] and e["workers"] == 1
            and e["cutoff"] == W.BULK_CUTOFF]
    for label in BULK_LABELS:
        mine = [e for e in bulk if e["family"] == label]
        m[f"simulate.runs_per_s.{label}"] = _ratio(
            sum(e["runs"] for e in mine), sum(e["seconds"] for e in mine))
    m["simulate.events_per_s"] = (EVENTS_PER_RUN_IDENTICAL_2
                                  * m["simulate.runs_per_s.identical-2"])
    m["simulate.truncated_frac"] = _ratio(sum(e["truncated"] for e in ens),
                                          sum(e["runs"] for e in ens))
    m["simulate.run_ensemble.self_s"] = tr.self_s["simulate.run_ensemble"]
    zt = tr.facts["simulate.sample_zeta_tag"]  # (n, seconds)
    m["simulate.zeta_tag.samples_per_s"] = _ratio(sum(n for n, _ in zt),
                                                  sum(s for _, s in zt))

    export = tr.self_s["cli.simulate"]
    m["cli.simulate.export_s"] = export
    m["cli.csv_rows_per_s"] = _ratio(sum(tr.facts["cli.simulate"]), export)
    m["cli.zeta_tag.rows_per_s"] = _ratio(sum(tr.facts["cli.zeta_tag"]),
                                          tr.self_s["cli.zeta_tag"])
    m["cli.fit.read_s"] = tr.self_s["cli.fit"]
    m["stats.self_s"] = (tr.self_s["stats.survival_curve"]
                         + tr.self_s["stats.shape_fit"])
    m["trace.spans"] = len(tr.spans)
    return m


def _icdf_build_ms():
    """First ``split_icdf`` call on beta(2, 3) specs this process has not
    sampled yet.  The scale differs per spec and leaves the split law (and
    so the table) unchanged."""
    q = np.linspace(0.0, 1.0, 8)
    times = []
    for k in range(1, ICDF_BUILDS + 1):
        spec = M.make_beta(2.0, 3.0, scale=1.0 + k * 2.0 ** -20)
        start = perf()
        M.split_icdf(spec, q)
        times.append(perf() - start)
    return 1e3 * statistics.median(times)


def _peak_alloc_mb(seed):
    """tracemalloc peak of one in-process ``run_ensemble`` call of 4096 runs
    for the bulk beta(2, 3) config and for the observed config."""
    configs = {
        "beta-2-3 zeta-only 2^-9": (
            M.make_beta(2.0, 3.0), W.bulk_config(W.derive_seed(seed, 9, 0))),
        "uniform-2 checkpoints+tags 2^-11": (
            M.make_uniform(2), simulate.CascadeConfig(
                alpha=W.OBS_ALPHA, cutoff=W.OBS_CUTOFF,
                checkpoints=W.OBS_CHECKPOINTS, tags=2,
                seed=W.derive_seed(seed, 9, 1))),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, (spec, cfg) in configs.items():
            tracemalloc.reset_peak()
            simulate.run_ensemble(spec, cfg, simulate.CHUNK_RUNS, workers=1)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    return peaks


def _scaling(seed):
    """2-worker runs/s over twice the 1-worker runs/s, uniform-2 bulk
    config.  On fewer than 2 cores this measures oversubscription."""
    spec = M.make_uniform(2)
    cfg = W.bulk_config(W.derive_seed(seed, 9, 2))
    seconds = {}
    for workers in (1, 2):
        start = perf()
        simulate.run_ensemble(spec, cfg, SCALING_RUNS, workers=workers)
        seconds[workers] = perf() - start
    eff = seconds[1] / (2.0 * seconds[2])
    return eff, (f"{SCALING_RUNS} runs: 1 worker {seconds[1]:.3f} s, "
                 f"2 workers {seconds[2]:.3f} s")


def _cold_tail(spec, alpha):
    solver = inversion.PsiSolver(laplace.PhiEvaluator(spec))
    asymptotics.extinction_log_tail(solver, alpha, OVERHEAD_T)
    asymptotics.tagged_log_tail(solver, alpha, OVERHEAD_T)


def _trace_overhead_s():
    """Tracing cost of one cold tail pair per exact-tail spec at t = 100.
    Each pair runs unpatched and under a fresh enabled tracer, back to back
    in alternating order, so a slow spell of the machine hits both.  The
    result is the median over rounds of the summed traced - untraced time.
    """
    cases = [(spec, W.spec_alpha(spec)) for _, spec in W.EXACT_SPECS]
    plain, traced = [], []
    for r in range(OVERHEAD_ROUNDS):
        sums = {False: 0.0, True: 0.0}
        for i, (spec, alpha) in enumerate(cases):
            for on in ((True, False) if (r + i) % 2 else (False, True)):
                tracer = spans.Tracer()
                if on:
                    spans.install(tracer)
                    tracer.enabled = True
                try:
                    start = perf()
                    _cold_tail(spec, alpha)
                    sums[on] += perf() - start
                finally:
                    tracer.unpatch()
        plain.append(sums[False])
        traced.append(sums[True])
    overhead = statistics.median(t - u for t, u in zip(traced, plain))
    return overhead, ("per round, traced - untraced seconds over "
                      f"{len(cases)} cold tail pairs: " + ", ".join(
                          f"{t:.3f} - {u:.3f}" for t, u in zip(traced, plain)))
