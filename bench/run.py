"""fragtail benchmark: one workload per invocation, in a fresh process.

    python3 bench/run.py --workload exact-tail --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Set-up (import and first-call lazy work) is timed in
this process and in ``SETUP_REPEATS - 1`` fresh subprocesses and reported
as their median.  The timed phase then runs passes of the workload in a
closed loop until ``--seconds`` would be exceeded (always at least one).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
traced, then the fixed layer probes, and prints the per-layer metrics
(``layers.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any correctness gate fails, 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "peak_rss_mb": "MB"}
# what one op is, per workload (ops_per_s and the op latencies)
OP_MEANING = {"exact-tail": "cold (spec, t) tail pair",
              "cascade-bulk": "run_ensemble call of 4096 runs",
              "cascade-observed": "simulate verb call of 8192 runs"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(OP_MEANING))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed, workdir):
    """Import the package and build the workload.  Returns (workload,
    context, set-up seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads
    ctx = workloads.Context(spans.Tracer(), workdir)
    wl = workloads.WORKLOADS[workload](ctx, seed)
    return wl, ctx, time.perf_counter() - start


def setup_samples(args, first):
    """Set-up seconds of this process and of fresh subprocesses that only
    set up."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def percentiles(values, probs):
    """Harrell-Davis quantiles: a mean of all order statistics weighted by
    a beta law.  The op latencies of a run form clusters by spec or family,
    and the plain sample quantile jumps across the gaps between them."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = np.arange(n + 1) / n
    out = []
    for p in probs:
        cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), edges)
        out.append(float(np.dot(np.diff(cdf), x)))
    return out


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(wl, ctx, n_passes, setups):
    """Every pass runs the same ops (kind, item) on fresh inputs.  Pass time
    and throughput are assembled from each op's median over the run, so a
    spell of a few seconds does not move them."""
    groups = {}
    for kind, seconds, _, units, item in ctx.ops:
        groups.setdefault((kind, item), []).append((seconds, units))
    pass_s = unit_s = unit_n = 0.0
    for (kind, _), samples in groups.items():
        per_pass = len(samples) / n_passes
        median = statistics.median(s for s, _ in samples)
        pass_s += per_pass * median
        if kind == wl.unit_kind:
            unit_s += per_pass * median
            unit_n += per_pass * samples[0][1]
    latencies = [rec[1] for rec in ctx.ops if rec[0] == wl.unit_kind]
    p50, p90 = percentiles(latencies, [0.5, 0.9])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": pass_s,
        "ops_per_s": unit_n / unit_s,
        "op_ms_p50": 1e3 * p50,
        "op_ms_p90": 1e3 * p90,
        "peak_rss_mb": peak_rss_mb(),
    }


def environment(seed):
    import numpy
    import scipy
    info = {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": platform.processor() or "?",
            "ram_gb": None, "commit": "unknown (not a git checkout)"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal"):
                    info["ram_gb"] = round(int(line.split()[1]) / 2 ** 20, 2)
                    break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        info["commit"] = ref
    return info


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fragtail" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no fragtail package under {ROOT / 'src'}; "
                         "run from a source checkout\n")
        return 2
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, ctx, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps(setup_s))
            return 0
        setups = setup_samples(args, setup_s)
        if args.trace:
            import layers
            pass_times, metrics, notes = layers.traced_run(
                wl, ctx, args.seed,
                out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
            units = layers.UNITS
        else:
            import workloads
            pass_times = workloads.run_passes(wl, ctx, args.seconds)
            wl.finish()
            metrics = end_to_end(wl, ctx, len(pass_times), setups)
            units = END_TO_END_UNITS
            notes = {}
        attempted = len(ctx.ops)
        failed = sum(1 for rec in ctx.ops if rec[2])
        correct = failed == 0 and all(ok for _, ok, _ in ctx.gates)
        env = environment(args.seed)
        report(args, wl, ctx, metrics, units, pass_times, setups,
               attempted, failed, correct, env, notes)
        record = {"workload": args.workload, "trace": args.trace,
                  "environment": env, "pass_seconds": pass_times,
                  "setup": setups, "metrics": metrics,
                  "gates": ctx.gates, "notes": notes, "ops": ctx.ops}
        (out_dir / f"result-{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, wl, ctx, metrics, units, pass_times, setups,
           attempted, failed, correct, env, notes):
    """Human-readable summary; every line but the last JSON one."""
    print(f"# fragtail bench: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("# environment: " + json.dumps(env))
    print(f"# {len(pass_times)} passes, program seconds per pass: "
          + ", ".join(f"{t:.3f}" for t in pass_times))
    print("# set-up seconds (fresh processes): "
          + ", ".join(f"{s:.3f}" for s in setups))
    if not args.trace:
        n_unit = sum(1 for rec in ctx.ops if rec[0] == wl.unit_kind)
        print(f"# op = {OP_MEANING[args.workload]}; {n_unit} ops sampled")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':40s} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    for key, value in notes.items():
        print(f"# note {key}: {value}")
    if ctx.margins:
        print("# accuracy margins (worst over the run): " + ", ".join(
            f"{k} {v:.3g}" for k, v in sorted(ctx.margins.items())))
    for name, ok, detail in ctx.gates:
        print(f"# gate {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"# correct: {correct}")


if __name__ == "__main__":
    try:
        code = main()
    except Exception:  # noqa: BLE001 - report, print no result, fail
        import traceback
        traceback.print_exc()
        code = 1
    sys.exit(code)
