"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop of passes.  A pass is the workload's stated
size of work, made of ops; ``run_pass(p)`` draws pass p's inputs from the
run seed and p, so a seed fixes the input sequence.  Only op time counts as
program time: gate checks run between ops with the tracer paused.

Gates are law-level checks that hold for every seed (no bit digests), so a
change that versions the random stream can still be measured.  Gates over
a whole ensemble are pooled over every pass of the run and evaluated once
in ``finish``; a failed pooled gate marks every op it covers as failed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from fragtail import asymptotics, cli, inversion, laplace, simulate
from fragtail import measures as M

perf = time.perf_counter
Z_GATE = 4.0   # pooled statistical gates: within 4 standard errors


def derive_seed(*keys):
    """64-bit seed from the run seed and a key path (workload, pass, item)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(
        1, dtype=np.uint64)[0])


class Context:
    """Op timing, failure accounting and gate records for one run."""

    def __init__(self, tracer, workdir):
        self.tracer = tracer
        self.workdir = Path(workdir)
        self.ops = []             # [kind, seconds, failed, units, item]
        self.margins = {}         # accuracy margins, worst over the run
        self.gates = []           # (name, ok, detail)

    @contextlib.contextmanager
    def op(self, kind, item, units=1):
        """Time one op of ``kind`` on ``item`` (a spec, family or verb); an
        exception inside marks it failed and is swallowed so the run goes
        on and counts it."""
        record = [kind, 0.0, False, units, item]
        self.ops.append(record)
        self.tracer.op = len(self.ops) - 1
        start = perf()
        try:
            with self.tracer.span("op." + kind):
                yield record
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            record[2] = True
            self.gates.append((f"{kind} raised", False, repr(exc)))
        finally:
            record[1] = perf() - start
            self.tracer.op = None

    @contextlib.contextmanager
    def paused(self):
        was = self.tracer.enabled
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = was

    def margin(self, name, value):
        self.margins[name] = max(self.margins.get(name, 0.0), float(value))

    def gate(self, name, ok, detail, records=()):
        ok = bool(ok)
        if not ok:
            for record in records:
                record[2] = True
        self.gates.append((name, ok, detail))
        return ok


def run_passes(wl, ctx, seconds, passes=None):
    """Run passes until the next one would end after ``seconds`` (at least
    one), or exactly ``passes`` of them; returns each pass's program time,
    the sum of its op times."""
    start = perf()
    times = []
    p = 0
    while True:
        n_before = len(ctx.ops)
        wl.run_pass(p)
        times.append(sum(rec[1] for rec in ctx.ops[n_before:]))
        p += 1
        if passes is not None:
            if len(times) >= passes:
                break
            continue
        elapsed = perf() - start
        if elapsed + elapsed / len(times) > seconds:
            break
    return times


def _within(mean, target, se):
    return abs(mean - target) <= Z_GATE * se


class _Moments:
    """Running count, sum and sum of squares."""

    def __init__(self):
        self.n, self.s, self.ss = 0, 0.0, 0.0

    def add(self, x):
        x = np.asarray(x, dtype=float)
        self.n += x.size
        self.s += float(x.sum())
        self.ss += float((x * x).sum())

    @property
    def mean(self):
        return self.s / self.n

    @property
    def se(self):
        var = (self.ss - self.n * self.mean ** 2) / (self.n - 1)
        return math.sqrt(max(var, 0.0) / self.n)


# ---------------------------------------------------------------------------
# exact-tail: the analytic route alone

EXACT_SPECS = [
    ("stable-1.25", M.make_stable(1.25)),
    ("stable-1.5", M.make_stable(1.5)),
    ("stable-2", M.make_stable(2.0)),
    ("ford-0.5", M.make_ford(0.5)),
    ("beta-splitting--1.6", M.make_beta_splitting(-1.6)),
    ("uniform-2", M.make_uniform(2)),
    ("beta-0.8-0.9", M.make_beta(0.8, 0.9)),
    ("beta-2-3", M.make_beta(2.0, 3.0)),
    ("identical-2", M.make_identical(2)),
    ("atomic-0.6-0.3", M.make_atomic([(1.0, (0.6, 0.3))])),
]
# families whose closed shape criterion 5 compares with the exact route
SHAPE_CHECKED = ("stable-1.25", "stable-1.5", "stable-2", "ford-0.5",
                 "beta-splitting--1.6")
T_RANGE = (30.0, 400.0)
T_PER_PASS = 5        # cold ops per spec per pass
GRID = np.geomspace(50.0, 500.0, 13)
RESIDUAL_POINTS = 25  # psi solves per spec per pass in the residual sweep
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_points(offset, start, count):
    """Points start .. start+count-1 of the additive golden-ratio sequence
    on [0, 1) from a seeded offset.  Each point is uniform, and any run of
    consecutive points spreads evenly, so the cost of a pass and the latency
    quantiles of a run barely depend on the seed."""
    return (offset + GOLDEN * np.arange(start, start + count)) % 1.0


def spec_alpha(spec):
    """The family's intrinsic index, or -1 for the finite families."""
    alpha = M.intrinsic_alpha(spec)
    return -1.0 if alpha is None else alpha


class ExactTail:
    name = "exact-tail"
    unit_kind = "tail"

    def __init__(self, ctx, seed, t_per_pass=T_PER_PASS, grid_labels=None,
                 residual_points=RESIDUAL_POINTS):
        self.ctx = ctx
        self.seed = seed
        self.t_per_pass = t_per_pass
        self.residual_points = residual_points
        # per spec: offsets of the t sequence and of the residual x sequence
        self.offsets = np.random.default_rng(
            derive_seed(seed, 1)).random((len(EXACT_SPECS), 2))
        self.cases = []
        for label, spec in EXACT_SPECS:
            alpha = spec_alpha(spec)
            ev = laplace.PhiEvaluator(spec)
            shape = (asymptotics.family_tail_shape(spec)
                     if label in SHAPE_CHECKED else None)
            self.cases.append((label, spec, alpha, ev.x_psi(), shape))
        self.grid_labels = (grid_labels if grid_labels is not None
                            else [c[0] for c in self.cases])

    def run_pass(self, p):
        ctx = self.ctx
        lo, hi = (math.log(v) for v in T_RANGE)
        n_t, n_x = self.t_per_pass, self.residual_points
        jobs = []
        for case, (t_off, x_off) in zip(self.cases, self.offsets):
            for u in golden_points(t_off, p * n_t, n_t):
                jobs.append((self._cold_op, case,
                             math.exp(lo + u * (hi - lo))))
            if case[0] in self.grid_labels:
                jobs.append((self._grid_op, case, GRID))
            u = golden_points(x_off, p * n_x, n_x)
            jobs.append((self._residual_op, case,
                         case[3] + 1.05 * 10.0 ** (3.0 * u)))
        # shuffled, so a slow spell of the machine hits every kind of op
        rng = np.random.default_rng(derive_seed(self.seed, 1, p))
        for i in rng.permutation(len(jobs)):
            fn, case, arg = jobs[i]
            fn(case, arg)

    def _cold_op(self, case, t):
        label, spec, alpha, _, _ = case
        ctx = self.ctx
        with ctx.op("tail", label) as record:
            solver = inversion.PsiSolver(laplace.PhiEvaluator(spec))
            ext = asymptotics.extinction_log_tail(solver, alpha, t)
            tag = asymptotics.tagged_log_tail(solver, alpha, t)
        if record[2]:
            return
        with ctx.paused():
            a = -alpha
            x = a * t
            y = solver.psi(x)
            resid = abs(y / solver.evaluator.phi(y) - x) / x
            ctx.margin("psi_residual_max", resid)
            rel = 0.0
            # the two log tails differ by exactly log tail_ratio; their
            # rounding is relative to their own size, which reaches 1e5
            target = math.log(asymptotics.tail_ratio(solver, alpha, t))
            mismatch = (abs(ext.log_value - tag.log_value - target)
                        / max(1.0, abs(target), abs(ext.log_value),
                              abs(tag.log_value)))
            ctx.margin("ratio_mismatch_max", mismatch)
            if label == "uniform-2":
                # the decay integral the op used, recovered from its log tail
                t0 = ext.t0
                pref = ((1.0 / a - 1.0) * math.log(y / t)
                        + 0.5 * math.log(solver.psi_prime(x)))
                integral = pref - ext.log_value
                exact = (t - t0) - (2.0 / a) * math.log(t / t0)
                rel = abs(integral - exact) / abs(exact)
                ctx.margin("oracle_rel_err", rel)
        if resid > 1e-10 or mismatch > 1e-12 or rel > 1e-8:
            ctx.gate(f"tail {label} t={t:.6g}", False,
                     f"psi residual {resid:.2e} (<=1e-10), ratio mismatch "
                     f"{mismatch:.2e} (<=1e-12), oracle {rel:.2e} (<=1e-8)",
                     [record])

    def _grid_op(self, case, grid):
        label, spec, alpha, _, shape = case
        ctx = self.ctx
        with ctx.op("grid", label) as record:
            solver = inversion.PsiSolver(laplace.PhiEvaluator(spec))
            log_ext, _ = asymptotics.log_tail_grid(solver, alpha, grid)
        if record[2] or shape is None:
            return
        drift = log_ext - shape.log_value(grid)
        span = float(drift.max() - drift.min())
        ctx.margin("shape_span_max", span)
        if span > 0.2:
            ctx.gate(f"grid {label}", False, f"drift span {span:.3f} > 0.2",
                     [record])

    def _residual_op(self, case, xs):
        label, spec, _, _, _ = case
        ctx = self.ctx
        with ctx.op("residual", label) as record:
            solver = inversion.PsiSolver(laplace.PhiEvaluator(spec))
            ys = [solver.psi(float(x)) for x in xs]
        if record[2]:
            return
        with ctx.paused():
            ys = np.array(ys)
            resid = float(np.max(np.abs(ys / solver.evaluator.phi(ys) - xs)
                                 / xs))
            ctx.margin("psi_residual_max", resid)
            ok = resid <= 1e-10
            if label == "uniform-2":
                ok &= float(np.max(np.abs(ys - (xs - 2.0)))) <= 1e-9
        if not ok:
            ctx.gate(f"residual {label}", False, f"residual {resid:.2e}",
                     [record])

    def finish(self):
        """Every exact-tail gate is per op."""


# ---------------------------------------------------------------------------
# cascade-bulk: extinction-time-only ensembles, one worker

BULK_FAMILIES = [
    ("identical-2", M.make_identical(2)),
    ("uniform-2", M.make_uniform(2)),
    ("beta-2-3", M.make_beta(2.0, 3.0)),
    ("two-atom", M.make_atomic([(1.0, (0.6, 0.3)), (0.5, (0.5, 0.5))])),
]
BULK_CUTOFF = 2.0 ** -9
BULK_RUNS = 4096      # runs per family per pass: one engine chunk
REFERENCE = Path(__file__).with_name("reference.json")


def bulk_config(seed):
    return simulate.CascadeConfig(alpha=-1.0, cutoff=BULK_CUTOFF, seed=seed,
                                  record_sums=False, record_largest=False)


class CascadeBulk:
    name = "cascade-bulk"
    unit_kind = "ensemble"

    def __init__(self, ctx, seed, runs=BULK_RUNS):
        self.ctx = ctx
        self.seed = seed
        self.runs = runs
        self.reference = json.loads(REFERENCE.read_text())["cascade-bulk"]
        self.zeta = {label: _Moments() for label, _ in BULK_FAMILIES}
        self.first = {label: _Moments() for label, _ in BULK_FAMILIES}
        self.records = {label: [] for label, _ in BULK_FAMILIES}
        for label, spec in BULK_FAMILIES:
            if spec.variant == M.BINARY_DENSITY:
                M.split_icdf(spec, np.linspace(0.0, 1.0, 8))
            simulate.run_ensemble(spec, bulk_config(1), 64, workers=1)

    def run_pass(self, p):
        ctx = self.ctx
        for i, (label, spec) in enumerate(BULK_FAMILIES):
            cfg = bulk_config(derive_seed(self.seed, 2, p, i))
            with ctx.op("ensemble", label, units=self.runs) as record:
                ens = simulate.run_ensemble(spec, cfg, self.runs, workers=1)
            self.records[label].append(record)
            if record[2]:
                continue
            n_trunc = int(ens.truncated.sum())
            n_early = int(np.count_nonzero(ens.zeta < ens.first_event))
            if n_trunc or n_early or ens.n_runs != self.runs:
                ctx.gate(f"ensemble {label} pass {p}", False,
                         f"{n_trunc} truncated, {n_early} with zeta < first "
                         f"event, {ens.n_runs} runs", [record])
            self.zeta[label].add(ens.zeta)
            self.first[label].add(ens.first_event)

    def finish(self):
        ctx = self.ctx
        for label, spec in BULK_FAMILIES:
            z, f = self.zeta[label], self.first[label]
            if z.n < 2:
                continue
            ref = self.reference[label]
            se = math.hypot(z.se, ref["se"])
            ctx.gate(f"{label} mean zeta", _within(z.mean, ref["mean"], se),
                     f"{z.mean:.5f} vs reference {ref['mean']:.5f} "
                     f"({(z.mean - ref['mean']) / se:+.2f} se, n={z.n})",
                     self.records[label])
            rate = M.total_mass(spec)
            ctx.gate(f"{label} mean first event",
                     _within(f.mean, 1.0 / rate, f.se),
                     f"{f.mean:.5f} vs 1/rate {1.0 / rate:.5f} "
                     f"({(f.mean - 1.0 / rate) / f.se:+.2f} se)",
                     self.records[label])


# ---------------------------------------------------------------------------
# cascade-observed: the README's CLI pipeline

OBS_RUNS = 8192      # two engine chunks: one per worker
OBS_CUTOFF = 2.0 ** -11
OBS_CHECKPOINTS = (1.0, 2.0, 4.0, 6.0)
OBS_TAG_SAMPLES = 8192
OBS_ALPHA = -1.0


class CascadeObserved:
    name = "cascade-observed"
    unit_kind = "simulate"

    def __init__(self, ctx, seed, tag_samples=OBS_TAG_SAMPLES):
        self.ctx = ctx
        self.seed = seed
        self.runs = OBS_RUNS
        self.tag_samples = tag_samples
        self.workers = min(2, os.cpu_count() or 1)
        wd = ctx.workdir
        self.measure = wd / "uniform2.json"
        self.measure.write_text(json.dumps(
            {"family": "uniform-k", "params": {"k": 2}}))
        shape = asymptotics.family_tail_shape(M.make_uniform(2), OBS_ALPHA)
        self.shape = wd / "shape.json"
        self.shape.write_text(json.dumps(
            {"poly_exponent": shape.poly_exponent,
             "exp_terms": [list(term) for term in shape.exp_terms]}))
        self.runs_csv = wd / "runs.csv"
        self.tag_csv = wd / "tag.csv"
        self.fit_json = wd / "fit.json"
        self.identity = {(j, k): _Moments()
                         for j in range(len(OBS_CHECKPOINTS)) for k in "abc"}
        self.tag_values = _Moments()
        self.sim_records, self.tag_records = [], []
        self._simulate(512, 1, 0, wd / "warm.csv")
        self._zeta_tag(512, 0, wd / "warm_tag.csv")

    def _simulate(self, runs, workers, seed, out):
        return cli.main([
            "simulate", "--measure", str(self.measure),
            "--alpha", repr(OBS_ALPHA), "--runs", str(runs),
            "--cutoff", repr(OBS_CUTOFF),
            "--checkpoints", ",".join(f"{t:g}" for t in OBS_CHECKPOINTS),
            "--tags", "2", "--workers", str(workers), "--seed", str(seed),
            "--out", str(out)])

    def _zeta_tag(self, n, seed, out):
        return cli.main(["zeta-tag", "--measure", str(self.measure),
                         "--alpha", repr(OBS_ALPHA), "--n", str(n),
                         "--seed", str(seed), "--out", str(out)])

    def run_pass(self, p):
        ctx = self.ctx
        # an op that raises is marked failed and leaves its exit code at 1
        code = tag_code = fit_code = 1
        with ctx.op("simulate", "simulate", units=self.runs) as sim:
            code = self._simulate(self.runs, self.workers,
                                  derive_seed(self.seed, 3, p, 0),
                                  self.runs_csv)
        self.sim_records.append(sim)
        sim_ok = code == 0
        with ctx.op("zeta_tag", "zeta-tag") as tag:
            tag_code = self._zeta_tag(self.tag_samples,
                                      derive_seed(self.seed, 3, p, 1),
                                      self.tag_csv)
        self.tag_records.append(tag)
        with ctx.op("fit", "fit") as fit:
            if sim_ok:
                fit_code = cli.main(["fit", "--samples", str(self.runs_csv),
                                     "--shape", str(self.shape),
                                     "--out", str(self.fit_json)])
        with ctx.paused():
            # fit reads runs.csv, so a failed simulate fails it too
            if ctx.gate(f"simulate pass {p} exit", sim_ok,
                        f"exit code {code}", [sim, fit]):
                self._check_runs(p, sim)
            if ctx.gate(f"zeta-tag pass {p} exit", tag_code == 0,
                        f"exit code {tag_code}", [tag]):
                values = _read_csv(self.tag_csv)
                ctx.gate(f"zeta-tag pass {p} rows",
                         len(values["value"]) == self.tag_samples,
                         f"{len(values['value'])} rows", [tag])
                self.tag_values.add(values["value"])
            if ctx.gate(f"fit pass {p} exit", fit_code == 0,
                        f"exit code {fit_code}", [fit]):
                doc = json.loads(self.fit_json.read_text())
                finite = all(math.isfinite(doc[k]) for k in
                             ("fitted_constant", "max_abs_residual"))
                ctx.gate(f"fit pass {p} finite", finite,
                         f"constant {doc['fitted_constant']}, residual "
                         f"{doc['max_abs_residual']}", [fit])

    def _check_runs(self, p, record):
        cols = _read_csv(self.runs_csv)
        n = len(cols["run_id"])
        if not self.ctx.gate(f"runs.csv pass {p} rows", n == self.runs,
                             f"{n} rows for {self.runs} runs", [record]):
            return
        for j, t in enumerate(OBS_CHECKPOINTS):
            tag1, tag2 = cols[f"tag1_t{t:g}"], cols[f"tag2_t{t:g}"]
            s2 = cols[f"S2_t{t:g}"]
            self.identity[(j, "a")].add(tag1 - s2)
            self.identity[(j, "b")].add(
                (cols["t_sep"] > t).astype(float) - tag1)
            self.identity[(j, "c")].add(tag1 * tag2 - s2 * s2)

    def finish(self):
        ctx = self.ctx
        names = {"a": "E tag mass = E S2", "b": "P(t_sep > t) = E tag mass",
                 "c": "E tag1 tag2 = E S2^2"}
        for (j, k), mom in self.identity.items():
            if mom.n < 2:
                continue
            z = mom.mean / mom.se if mom.se > 0.0 else 0.0
            ctx.gate(f"identity {names[k]} at t={OBS_CHECKPOINTS[j]:g}",
                     abs(z) <= Z_GATE, f"{z:+.2f} se (n={mom.n})",
                     self.sim_records)
        tv = self.tag_values
        if tv.n >= 2:
            ctx.gate("zeta-tag mean = 1/phi(1) = 3",
                     _within(tv.mean, 3.0, tv.se),
                     f"{tv.mean:.4f} ({(tv.mean - 3.0) / tv.se:+.2f} se, "
                     f"n={tv.n})", self.tag_records)


def _read_csv(path):
    """Columns of a fragtail CSV (comment header, column row, numbers)."""
    with open(path) as fh:
        fh.readline()
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}


WORKLOADS = {cls.name: cls for cls in (ExactTail, CascadeBulk,
                                       CascadeObserved)}
