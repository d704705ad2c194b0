"""Span tracing of fragtail's layers from outside the package.

The tracer replaces layer entry points (module functions and methods) with
wrappers that record one span per call: name, start, end, parent span and
the benchmark op that caused it.  Self time is computed online from a span
stack: a span's duration minus the time its child spans cover.  Spans are
kept in memory and written as JSONL when the run ends.

Functions that fragtail modules import by name are rebound in every
``fragtail.*`` module that holds the same object, so calls from inside the
package are seen too.  Pool workers inherit the wrappers but their spans
stay in the child process and are not collected.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    """Spans, call counts, self times and per-call facts by layer name."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []           # (id, parent, op, name, start, end)
        self._stack = []          # [id, name, child_seconds]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)   # inclusive seconds per call
        self.nested = Counter()   # (child name, parent name) -> calls
        self.facts = defaultdict(list)       # name -> per-call records
        self._patched = []
        self._seen_x = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            self.nested[(name, parent[1])] += 1
        self._stack.append([sid, name, 0.0])
        return sid, (parent[0] if parent is not None else None)

    def _exit(self, sid, parent, name, start, end):
        frame = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        self.durations[name].append(dur)
        self.spans.append((sid, parent, self.op, name, start, end))

    def span(self, name):
        """Context manager recording one span (used for benchmark ops)."""
        return _Span(self, name)

    def wrap(self, name, fn, fact=None, pre=None):
        """Wrapper recording a span per call.  ``pre(args)`` runs before the
        call, ``fact(args, kwargs, result, seconds, pre_value)`` after it
        returns; a non-None fact is kept under ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = pre(args) if pre is not None else None
            sid, parent = tracer._enter(name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer._exit(sid, parent, name, start, end)
            if fact is not None:
                record = fact(args, kwargs, result, end - start, before)
                if record is not None:
                    tracer.facts[name].append(record)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def patch_function(self, module, attr, name, **hooks):
        """Wrap ``module.attr`` and rebind it in every fragtail module that
        holds the same object.  Returns False when the target is absent."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fragtail"
                                   or mod_name.startswith("fragtail.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))
        return True

    def patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._patched.append((cls, attr, original))
        return True

    def unpatch(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def psi_repeat(self, args):
        """True when this solver was already asked for this x."""
        solver, x = args[0], float(args[1])
        seen = self._seen_x.setdefault(solver, set())
        repeated = x in seen
        seen.add(x)
        return repeated

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.enabled:
            self.ids = self.tracer._enter(self.name)
            self.start = perf()
        return self

    def __exit__(self, *exc):
        if self.tracer.enabled:
            self.tracer._exit(*self.ids, self.name, self.start, perf())
        return False


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


def install(tracer):
    """Wrap every layer entry point the per-layer metrics are built from."""
    from fragtail import (asymptotics, cli, inversion, laplace, measures,
                          quadrature, simulate, stats)

    tracer.patch_method(laplace.PhiEvaluator, "phi", "laplace.phi",
                        fact=lambda a, k, r, s, p: _size(a[1]))
    tracer.patch_method(laplace.PhiEvaluator, "phi_prime",
                        "laplace.phi_prime")
    tracer.patch_method(inversion.PsiSolver, "psi", "inversion.psi",
                        pre=tracer.psi_repeat,
                        fact=lambda a, k, r, s, repeated: (repeated, s))
    tracer.patch_function(asymptotics, "decay_integral",
                          "asymptotics.decay_integral")
    tracer.patch_function(asymptotics, "log_tail_grid",
                          "asymptotics.log_tail_grid")
    tracer.patch_function(asymptotics, "extinction_log_tail",
                          "asymptotics.extinction_log_tail")
    tracer.patch_function(asymptotics, "tagged_log_tail",
                          "asymptotics.tagged_log_tail")
    tracer.patch_function(quadrature, "tanh_sinh", "quadrature.tanh_sinh",
                          fact=lambda a, k, r, s, p: int(r[2]))
    tracer.patch_function(measures, "split_icdf", "measures.split_icdf")
    tracer.patch_function(simulate, "run_ensemble", "simulate.run_ensemble",
                          fact=_ensemble_fact)
    tracer.patch_function(simulate, "sample_zeta_tag",
                          "simulate.sample_zeta_tag",
                          fact=lambda a, k, r, s, p: (int(a[3]), s))
    tracer.patch_function(stats, "survival_curve", "stats.survival_curve")
    tracer.patch_function(stats, "shape_fit", "stats.shape_fit")
    tracer.patch_function(cli, "cmd_simulate", "cli.simulate",
                          fact=lambda a, k, r, s, p: int(a[0].runs))
    tracer.patch_function(cli, "cmd_zeta_tag", "cli.zeta_tag",
                          fact=lambda a, k, r, s, p: int(a[0].n))
    tracer.patch_function(cli, "cmd_fit", "cli.fit")


def _ensemble_fact(args, kwargs, result, seconds, _):
    spec, cfg, n_runs = args[0], args[1], int(args[2])
    workers = kwargs.get("workers", args[3] if len(args) > 3 else None)
    return {"family": family_label(spec), "runs": n_runs,
            "workers": workers, "seconds": seconds,
            "zeta_only": (not cfg.checkpoints and cfg.tags == 0
                          and cfg.snapshot_time is None),
            "cutoff": cfg.cutoff,
            "truncated": int(result.truncated.sum())}


def family_label(spec):
    """Short family name used in per-family metric names."""
    if spec.family == "atomic":
        return "two-atom" if len(spec.atoms) == 2 else "atomic"
    if spec.family in ("identical-k", "uniform-k"):
        return f"{spec.family[:-2]}-{spec.param('k')}"
    if spec.family == "beta":
        return f"beta-{spec.param('a'):g}-{spec.param('b'):g}"
    return spec.family
