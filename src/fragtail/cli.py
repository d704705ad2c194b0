"""Command-line interface.

One verb per capability; every run echoes its fully resolved configuration
(including defaulted values) into the output, floats are serialized with 17
significant digits so replays diff byte for byte, and errors exit with code
1 (numerical/domain) or 2 (configuration) carrying a machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import acceptance
from .errors import (ConfigError, DomainError, InsufficientWindow,
                     NumericalFailure, UnsupportedSampling)
from .measures import intrinsic_alpha, load_measure
from .laplace import PhiEvaluator
from .inversion import PsiSolver
from .asymptotics import (TailShape, default_t0, extinction_log_tail,
                          family_tail_shape, tagged_log_tail)
from .simulate import (CascadeConfig, resolve_workers, run_ensemble,
                       sample_zeta_tag, _generator)
from .stats import shape_fit, survival_curve, survival_grid

_CONFIG_EXIT = (ConfigError, UnsupportedSampling, OSError)
_NUMERIC_EXIT = (DomainError, NumericalFailure, InsufficientWindow)
_CSV_BLOCK_ROWS = 4096


def dumps17(value):
    """JSON text with floats at 17 significant digits (replay-exact)."""
    if isinstance(value, float):
        if math.isfinite(value):
            return format(value, ".17g")
        return json.dumps(value if value == value else None)
    if isinstance(value, (np.floating,)):
        return dumps17(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return dumps17(list(value))
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps17(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dumps17(v) for v in value) + "]"
    return json.dumps(value)


def _comma_list(text, option, kind=float, count=None):
    """The comma-separated values of a command-line option, each parsed by
    ``kind``; an empty text is the empty tuple.  A malformed item, or a
    length other than ``count`` when given, is a ConfigError."""
    try:
        values = tuple(kind(v) for v in text.split(",")) if text else ()
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        what = f"{count} comma-separated" if count else "comma-separated"
        raise ConfigError(
            f"{option} takes {what} {kind.__name__} values, got {text!r}")
    return values


def _emit(obj, out_path=None):
    text = dumps17(obj)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _alpha_for(spec, args):
    builtin = intrinsic_alpha(spec)
    alpha = getattr(args, "alpha", None)
    if alpha is None:
        if builtin is None:
            raise ConfigError("this family needs --alpha")
        return builtin
    if builtin is not None and abs(alpha - builtin) > 1e-9:
        raise ConfigError(
            f"family {spec.family!r} has intrinsic index {builtin:.6g}; "
            f"--alpha {alpha} conflicts")
    return float(alpha)


def _shape_json(shape):
    return {"poly_exponent": shape.poly_exponent,
            "exp_terms": [[c, p] for c, p in shape.exp_terms]}


# -- verbs -------------------------------------------------------------------

def cmd_phi(args):
    spec = load_measure(args.measure)
    ev = PhiEvaluator(spec, method=args.method)
    value = ev.phi(args.x)
    _emit({"value": value, "method": ev.method,
           "achieved_error": ev.error_estimate(),
           "config": {"measure": args.measure, "x": args.x,
                      "method": args.method}}, args.out)
    return 0


def cmd_psi(args):
    spec = load_measure(args.measure)
    solver = PsiSolver(PhiEvaluator(spec))
    y = solver.psi(args.x)
    residual = abs(y / solver.evaluator.phi(y) - args.x) / args.x
    _emit({"psi": y, "psi_prime": float(solver.psi_prime_at([y])[0]),
           "residual": residual, "x_psi": solver.x_psi,
           "config": {"measure": args.measure, "x": args.x}}, args.out)
    return 0


def cmd_hcheck(args):
    spec = load_measure(args.measure)
    report = PhiEvaluator(spec).check_hypothesis(x_max=args.xmax,
                                                 n_grid=args.ngrid)
    _emit({"tail_sup": report.tail_sup, "pass": report.passed,
           "delta": report.delta,
           "grid": list(report.grid), "ratio": list(report.ratio),
           "config": {"measure": args.measure, "xmax": args.xmax,
                      "ngrid": args.ngrid}}, args.out)
    return 0


_TAIL_MODES = {"theorem1": "exact", "exact": "exact",
               "lemma9": "shape", "expansion": "shape",
               "example": "shape", "family": "shape"}


def cmd_tail(args):
    spec = load_measure(args.measure)
    alpha = _alpha_for(spec, args)
    if _TAIL_MODES[args.mode] == "exact":
        solver = PsiSolver(PhiEvaluator(spec))
        t0 = args.t0 if args.t0 is not None else default_t0(solver, alpha)
        est = extinction_log_tail(solver, alpha, args.t, t0=t0)
        tagged = tagged_log_tail(solver, alpha, args.t, t0=t0)
        out = {"log_value": est.log_value, "value_or_null": est.value,
               "tagged_log_value": tagged.log_value, "t0": t0, "shape": None}
    else:
        shape = family_tail_shape(spec, alpha)
        log_value = float(shape.log_value(args.t))
        out = {"log_value": log_value,
               "value_or_null": math.exp(log_value)
               if log_value > -745.0 else None,
               "t0": None, "shape": _shape_json(shape)}
    out["config"] = {"measure": args.measure, "alpha": alpha, "t": args.t,
                     "mode": args.mode, "t0": args.t0}
    _emit(out, args.out)
    return 0


def cmd_shape(args):
    spec = load_measure(args.measure)
    alpha = _alpha_for(spec, args)
    shape = family_tail_shape(spec, alpha)
    _emit({"shape": _shape_json(shape),
           "config": {"measure": args.measure, "alpha": alpha}}, args.out)
    return 0


def _csv_column(values):
    """One numeric column as ``dumps17`` writes each value: floats with 17
    significant digits, integers and booleans as integers."""
    values = np.asarray(values)
    if values.dtype.kind != "f":
        return [str(v) for v in values.astype(np.int64).tolist()]
    if np.isfinite(values).all():
        return [format(v, ".17g") for v in values.tolist()]
    return [dumps17(v) for v in values.tolist()]


def _write_csv(path, config, header, columns):
    """The '# {config}' line, then header and rows with the line ends
    ``csv.writer`` uses, to ``path`` (None or '-': stdout); no field written
    here needs quoting.  Columns are formatted a block of rows at a time,
    so the strings held at once stay bounded for any run count."""
    fh = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        fh.write("# " + dumps17(config) + "\n")
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            cells = [_csv_column(c[lo:lo + _CSV_BLOCK_ROWS]) for c in columns]
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))
    finally:
        if fh is not sys.stdout:
            fh.close()


def cmd_simulate(args):
    checkpoints = _comma_list(args.checkpoints, "--checkpoints")
    spec = load_measure(args.measure)
    cfg = CascadeConfig(alpha=args.alpha, cutoff=args.cutoff,
                        checkpoints=checkpoints, max_events=args.max_events,
                        seed=args.seed, tags=args.tags)
    workers = resolve_workers(args.workers)
    ens = run_ensemble(spec, cfg, args.runs, workers=workers)
    config = {"measure": args.measure, "alpha": args.alpha,
              "runs": args.runs, "cutoff": args.cutoff,
              "checkpoints": list(checkpoints), "seed": args.seed,
              "tags": args.tags, "max_events": args.max_events,
              "workers": workers}
    if ens.split_ks_error is not None:
        config["split_ks_error"] = ens.split_ks_error
    cols = ["run_id", "extinction_est", "truncated", "first_event"]
    data = [np.arange(ens.n_runs), ens.zeta, ens.truncated, ens.first_event]
    for j, t in enumerate(checkpoints):
        cols += [f"F1_t{t:g}", f"S1_t{t:g}", f"S2_t{t:g}"]
        data += [ens.largest[:, j], ens.sum_masses[:, j],
                 ens.sum_squares[:, j]]
        for k in range(args.tags):
            cols.append(f"tag{k + 1}_t{t:g}")
            data.append(ens.tag_mass[k, :, j])
    if args.tags == 2:
        cols.append("t_sep")
        data.append(ens.separation_time)
    for k in range(args.tags):
        cols += [f"tag{k + 1}_death", f"tag{k + 1}_killed"]
        data += [ens.tag_death[k], ens.tag_killed[k]]
    _write_csv(args.out, config, cols, data)
    return 0


def cmd_zeta_tag(args):
    spec = load_measure(args.measure)
    out = sample_zeta_tag(spec, args.alpha, args.tol, args.n,
                          _generator(args.seed))
    config = {"measure": args.measure, "alpha": args.alpha, "n": args.n,
              "tol": args.tol, "seed": args.seed}
    _write_csv(args.out, config,
               ["sample_id", "value", "trunc_bound", "killed"],
               [np.arange(args.n), out["value"], out["bound"], out["killed"]])
    return 0


def _read_samples(path, column):
    with open(path) as fh:
        first = fh.readline()
        has_header_comment = first.startswith("#")
        if not has_header_comment:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, [])
        if column not in header:
            raise ConfigError(
                f"column {column!r} not in {path!r} (have {header})")
        idx = header.index(column)
        try:
            return np.array([float(row[idx]) for row in reader if row])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"column {column!r} of {path!r} has a short "
                              f"row or a non-numeric cell: {exc}") from exc


def cmd_fit(args):
    lo, hi = _comma_list(args.window, "--window", count=2)
    if not 0.0 < lo < hi <= 1.0:
        raise ConfigError(
            f"--window takes survival levels 0 < lo < hi <= 1, got {lo}, {hi}")
    if args.levels < 1:
        raise ConfigError(f"--levels must be at least 1, got {args.levels}")
    samples = _read_samples(args.samples, args.column)
    try:
        with open(args.shape) as fh:
            shape_doc = json.load(fh)
        shape = TailShape(
            poly_exponent=float(shape_doc["poly_exponent"]),
            exp_terms=tuple((float(c), float(p))
                            for c, p in shape_doc["exp_terms"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad tail shape {args.shape!r}: {exc!r}") from exc
    curve = survival_curve(
        samples, survival_grid(samples, hi, lo * 1.3, args.levels))
    fit = shape_fit(curve, shape, window=(lo, hi))
    _emit({"fitted_constant": fit.fitted_constant,
           "max_abs_residual": fit.max_abs_residual,
           "t_window": list(fit.t_window),
           "residuals": list(fit.residuals),
           "shape": _shape_json(shape),
           "config": {"samples": args.samples, "column": args.column,
                      "window": [lo, hi], "levels": args.levels}}, args.out)
    return 0


_IDENTITY_ALIASES = {"eq10": "separation", "separation": "separation",
                     "eq13": "restart", "restart": "restart",
                     "s2": "tagmass", "tagmass": "tagmass",
                     "joint": "joint"}


def cmd_identity(args):
    checkpoints = (_comma_list(args.checkpoints, "--checkpoints")
                   or (1.0, 2.0, 4.0, 6.0))
    spec = load_measure(args.measure)
    suite = _IDENTITY_ALIASES[args.suite]
    if suite == "restart":
        t_star, ks = acceptance.restart_ks(spec, args.alpha, args.cutoff,
                                           args.runs, args.seed, args.runs,
                                           workers=args.workers)
        out = {"suite": args.suite, "pass": ks.pass_1pct, "t_star": t_star,
               "ks_statistic": ks.statistic,
               "ks_threshold_1pct": ks.threshold_1pct}
    else:
        rows = acceptance.two_tag_identities(
            spec, args.alpha, args.cutoff, checkpoints, args.runs, args.seed,
            workers=args.workers)[suite]
        out = {"suite": args.suite,
               "pass": all(abs(r["z"]) <= 4.0 for r in rows), "rows": rows}
    out["config"] = {"measure": args.measure, "alpha": args.alpha,
                     "runs": args.runs, "cutoff": args.cutoff,
                     "seed": args.seed,
                     "checkpoints": list(checkpoints)}
    _emit(out, args.out)
    return 0 if out["pass"] else 1


def cmd_verify(args):
    only = set(_comma_list(args.only, "--only", kind=int)) or None
    results = acceptance.run_all(fast=args.fast, workers=args.workers,
                                 only=only)
    print(acceptance.format_table(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fragtail",
        description="Extinction-time tail asymptotics of self-similar "
                    "fragmentation cascades")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = add("phi", cmd_phi, help="evaluate the splitting Laplace exponent")
    p.add_argument("--measure", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--method", default="auto",
                   choices=["auto", "atomic-sum", "closed-form", "quadrature"])

    p = add("psi", cmd_psi, help="invert x -> x/phi(x)")
    p.add_argument("--measure", required=True)
    p.add_argument("--x", type=float, required=True)

    p = add("hcheck", cmd_hcheck,
            help="growth-ratio diagnostic sup phi'(x) x/phi(x) < 1")
    p.add_argument("--measure", required=True)
    p.add_argument("--xmax", type=float, default=1e4)
    p.add_argument("--ngrid", type=int, default=200)

    p = add("tail", cmd_tail, help="evaluate the extinction-time tail class")
    p.add_argument("--measure", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--mode", default="theorem1", choices=sorted(_TAIL_MODES))
    p.add_argument("--t0", type=float, default=None)

    p = add("shape", cmd_shape, help="closed tail shape of a registry family")
    p.add_argument("--measure", required=True)
    p.add_argument("--alpha", type=float, default=None)

    p = add("simulate", cmd_simulate, help="Monte Carlo cascade ensemble")
    p.add_argument("--measure", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--cutoff", type=float, default=2.0 ** -30)
    p.add_argument("--checkpoints", default="")
    p.add_argument("--max-events", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tags", type=int, default=0, choices=[0, 1, 2])
    p.add_argument("--workers", type=int, default=None)

    p = add("zeta-tag", cmd_zeta_tag,
            help="direct tagged-lineage extinction sampler")
    p.add_argument("--measure", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)

    p = add("fit", cmd_fit, help="fit a tail shape to extinction samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--column", default="extinction_est")
    p.add_argument("--shape", required=True)
    p.add_argument("--window", default="1e-3,0.2")
    p.add_argument("--levels", type=int, default=16)

    p = add("identity", cmd_identity,
            help="exact-in-law Monte Carlo identity suites")
    p.add_argument("--suite", required=True,
                   choices=sorted(_IDENTITY_ALIASES))
    p.add_argument("--measure", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--runs", type=int, default=20000)
    p.add_argument("--cutoff", type=float, default=2.0 ** -12)
    p.add_argument("--checkpoints", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None)

    p = add("verify", cmd_verify, help="run the full acceptance suite")
    p.add_argument("--fast", action="store_true",
                   help="reduced Monte Carlo sizes (tolerances unchanged)")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers")
    p.add_argument("--workers", type=int, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _NUMERIC_EXIT as exc:
        sys.stderr.write(dumps17({"error": type(exc).__name__,
                                  "message": str(exc)}) + "\n")
        return 1
    except _CONFIG_EXIT as exc:
        sys.stderr.write(dumps17({"error": type(exc).__name__,
                                  "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
