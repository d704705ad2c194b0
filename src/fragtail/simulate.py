"""Monte Carlo simulation of self-similar fragmentation cascades.

A fragment of mass m waits an exponential time with rate
``total_rate * m**alpha`` (alpha < 0: small fragments split faster), then
splits according to the normalized dislocation measure.  Children below the
dust cutoff leave the system, so each run's extinction time is the estimate
at that cutoff and is biased low.

One vectorized level-synchronous engine advances a whole frontier of
fragments at once across many runs (fragments evolve independently given
their masses, so no global event queue is needed for per-fragment birth and
death times).  No row carries its run id: the frontier is sorted by run and
keeps one row count per run, which gives the event counts and the segment
bounds of the per-run maximum.  A level builds only the children above the
cutoff, which are a prefix of each parent's parts, from the flat indices of
the keep mask; their quotient by the split width is the parent row, and a
search in it gives each run's next count and each tag's new row.  Each row
carries the time of the first checkpoint at or after its birth, so only the
rows that straddle a checkpoint are searched and binned.  A binary split
draws its larger piece by inverse transform, exactly for uniform-2 and for
beta from the cell tables of ``measures.split_icdf``, whose Kolmogorov-
Smirnov error over the pieces the cutoff keeps each ensemble reports as
``split_ks_error``.

The engine's law is checked against the exact law at its own cutoff: the
extinction time of a fragment of mass m solves the max-type recursive
equation zeta_m = E / (r m**alpha) + max over the kept children of
zeta_child (Aldous & Bandyopadhyay, Ann. Appl. Probab. 2005), so its CDF
F_m obeys F_m' = r m**alpha (E_split[prod over kept children F_child] -
F_m), a finite ODE system for an atomic measure and a (time, log mass)
system for a binary density.  The tests solve it from the measure's
definition, with no sampler code in common, and take a one-sample KS of
the engine's extinction times against it.

All randomness is consumed as inverse transforms of generator uniforms in a
documented order, so identical seed and configuration replay bit for bit.

Seed derivation (bit-exact contract): runs are processed in fixed chunks of
``CHUNK_RUNS``; chunk c uses ``PCG64(mix_seed(base_seed, c))`` where
``mix_seed`` is the splitmix64 finalizer applied to
``base + (c+1) * 0x9E3779B97F4A7C15`` (mod 2**64).  Per level the draw
order is: waiting-time uniforms for every frontier row, split uniforms
(atom choice or larger-piece inverse CDF), then tag-routing uniforms for
tag 1 and tag 2 in that order.  Aggregation across chunks is order
independent, so worker-pool scheduling cannot change results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure, UnsupportedSampling
from .laplace import PhiEvaluator
from .measures import (ATOMIC, BINARY_DENSITY, atom_arrays, split_icdf,
                       split_ks_error, total_mass)

CHUNK_RUNS = 4096
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(base, i):
    """splitmix64 finalizer of base + (i+1)*golden, the worker seed rule."""
    z = (int(base) + (int(i) + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _pow(x, p):
    """x**p, with cheaper or frozen forms: numpy's general power is slower
    than 1/x at p = -1, and at p = -1/2 it rounds differently from the
    reciprocal square root the alpha = -1/2 replay digests were frozen with.
    The p = -2 reciprocal keeps the form the alpha = -2 digests were frozen
    with."""
    if p == -1.0:
        return 1.0 / x
    if p == -0.5:
        return 1.0 / np.sqrt(x)
    if p == -2.0:
        return 1.0 / (x * x)
    return x ** p


def _part_table(spec):
    """(atoms, most parts) table of each atom's parts, padded with 0.0: a
    padded part has zero mass and falls below any cutoff."""
    table = np.zeros((len(spec.atoms), max(len(p) for _, p in spec.atoms)))
    for row, (_, parts) in zip(table, spec.atoms):
        row[:len(parts)] = parts
    return table


def _part_cum(part_table):
    """Each atom's own cumulative parts, padded with +inf, for size-biased
    part picks."""
    cum = np.cumsum(part_table, axis=1)
    cum[part_table == 0.0] = np.inf
    return cum


def _pick_atom(cum_w, u):
    """Atom of each uniform u < 1, for two or more atoms: the count of
    thresholds cum_w[:-1] <= u, the index np.searchsorted(cum_w, u,
    side="right") gives as cum_w[-1] = 1.  One pass over u per threshold,
    so the cost grows with the number of atoms."""
    idx = (u >= cum_w[0]).astype(np.intp)
    for c in cum_w[1:-1]:
        idx += u >= c
    return idx


def _pick_part(part_cum, atom, r):
    """Part count(r >= row) of each pick's atom row; the atom's size means
    the dust residual.  Summing within one atom keeps r < 1 from rounding
    up into the next part, as a cumsum across atoms or fragments would."""
    return np.count_nonzero(r[:, None] >= part_cum[atom], axis=1)


@dataclass(frozen=True)
class CascadeConfig:
    """Simulation configuration.

    ``cutoff`` is the dust threshold: children below it leave the system.
    Binary conservative measures keep total mass 1 until the cutoff bites,
    so the event count per run grows like 2/cutoff; the safety cap
    ``max_events`` turns a runaway configuration into a flagged truncated
    run instead of a hang.
    """

    alpha: float
    cutoff: float = 2.0 ** -30
    checkpoints: tuple = ()
    max_events: int = 10 ** 6
    seed: int = 0
    tags: int = 0
    record_sums: bool = True
    record_largest: bool = True
    snapshot_time: float = None

    def __post_init__(self):
        if not self.alpha < 0.0:
            raise ConfigError("cascade needs a negative self-similarity index")
        if not 0.0 < self.cutoff < 1.0:
            raise ConfigError("dust cutoff must lie in (0, 1)")
        cps = tuple(float(t) for t in self.checkpoints)
        if not all(0.0 <= t < math.inf for t in cps) or any(
                cps[i] > cps[i + 1] for i in range(len(cps) - 1)):
            raise ConfigError(
                f"checkpoints must be finite, at least 0 and sorted: {cps}")
        if (self.snapshot_time is not None
                and not 0.0 <= self.snapshot_time < math.inf):
            raise ConfigError(f"snapshot_time must be finite and at least 0, "
                              f"got {self.snapshot_time}")
        if self.tags not in (0, 1, 2):
            raise ConfigError("tags must be 0, 1 or 2")
        if not self.max_events >= 1:
            raise ConfigError(
                f"max_events must be at least 1, got {self.max_events}")
        object.__setattr__(self, "checkpoints", cps)


@dataclass
class EnsembleResult:
    """Column-wise results of many independent runs."""

    checkpoints: tuple
    zeta: np.ndarray
    truncated: np.ndarray
    first_event: np.ndarray
    largest: np.ndarray = None       # (n, ncp)
    sum_masses: np.ndarray = None
    sum_squares: np.ndarray = None
    tag_mass: np.ndarray = None      # (tags, n, ncp)
    tag_death: np.ndarray = None     # (tags, n)
    tag_killed: np.ndarray = None
    separation_time: np.ndarray = None
    snapshot_run: np.ndarray = None  # run ids of fragments alive at snapshot_time
    snapshot_mass: np.ndarray = None
    peak_rows: np.ndarray = None     # (chunks,) widest frontier of each
    # measured KS distance of the split sampler's law from the exact one
    # over the smaller pieces at or above the cutoff; None for atomic specs
    split_ks_error: float = None

    @property
    def n_runs(self):
        return len(self.zeta)


def _row_runs(seg_run, seg_end, rows):
    """Run ids of the given frontier rows: row i belongs to the first
    segment whose exclusive end is past it."""
    return seg_run[np.searchsorted(seg_end, rows, side="right")]


def _simulate_chunk(spec, cfg, n_runs, rng):
    """Level-synchronous cascade over n_runs independent trees.

    The frontier (all currently alive fragments across all runs) is a set
    of flat arrays sorted by run; every level samples all waiting times,
    records statistics for fragments whose lifetime straddles a checkpoint,
    then splits every fragment at once.  No row carries its run id: the
    frontier is one segment per run that still has rows, held as the short
    arrays ``seg_run`` and ``seg_cnt`` (its row count).  The counts give the
    event counts, and their cumsum the segment bounds for the per-run max
    of death times; run ids are looked up only for the few rows that need
    them (checkpoint straddlers, snapshot rows).

    A parent's children above the cutoff are always a prefix of its parts
    (atom parts are nonincreasing and the binary s1 is at least 1/2).  The
    kept children are gathered through the flat indices of the keep mask,
    in frontier order; their quotient by the split width is the parent
    row, nondecreasing, so a search in it counts the kept children of the
    rows before any row.  Searched at the segment ends it gives the next
    level's segment bounds, and so each run's next count; searched at a
    tag's row, plus the tag's part, the tag's new row.  Each row carries
    ``next_cp``, the time of the first checkpoint at or after its birth
    (inf past the last): a child's is its parent's first checkpoint at or
    after death, so the checkpoint search, key build and bincounts run
    only on the rows whose lifetime straddles a checkpoint.
    Binary splits draw s1 by inverse transform through
    ``measures.split_icdf``: one cell lookup and a cubic per draw for
    beta.  Tagged lineages are tracked as one frontier
    row index per run, so tag bookkeeping costs O(n_runs) per level
    regardless of frontier width.  ``peak_rows`` is the widest frontier of
    the chunk.
    """
    alpha = cfg.alpha
    eps = cfg.cutoff
    cps = np.asarray(cfg.checkpoints, dtype=float)
    ncp = len(cps)
    ntags = cfg.tags
    rate_total = total_mass(spec)
    binary = spec.variant == BINARY_DENSITY
    if not binary and spec.variant != ATOMIC:
        raise UnsupportedSampling(
            f"family {spec.family!r} cannot be simulated (infinite rate)")
    if binary:
        width = 2
    else:
        cum_w, _, sizes = atom_arrays(spec)
        part_table = _part_table(spec)
        part_cum = _part_cum(part_table)
        part_cols = part_table.T
        width = len(part_cols)
        single_atom = len(sizes) == 1

    zeta = np.zeros(n_runs)
    truncated = np.zeros(n_runs, dtype=bool)
    first_event = np.full(n_runs, np.nan)
    n_events = np.zeros(n_runs, dtype=np.int64)
    F1 = np.zeros((n_runs, ncp)) if cfg.record_largest and ncp else None
    S1 = np.zeros((n_runs, ncp)) if cfg.record_sums and ncp else None
    S2 = np.zeros((n_runs, ncp)) if cfg.record_sums and ncp else None
    tag_mass = np.zeros((ntags, n_runs, ncp))
    tag_death = np.full((ntags, n_runs), np.inf)
    tag_killed = np.zeros((ntags, n_runs), dtype=bool)
    t_sep = np.full(n_runs, np.inf)
    snap_runs, snap_masses = [], []

    # run seg_run[i] owns the seg_cnt[i] rows that end before seg_end[i]
    seg_run = np.arange(n_runs, dtype=np.int64)
    seg_cnt = np.ones(n_runs, dtype=np.int64)
    mass = np.ones(n_runs)
    birth = np.zeros(n_runs)
    track_cps = ncp and (S1 is not None or F1 is not None)
    if track_cps:
        # every checkpoint is at or after time 0, where the roots are born
        cps_inf = np.append(cps, np.inf)
        next_cp = np.full(n_runs, cps[0])
    # tag_row[k][r]: frontier row carrying tag k of run r, -1 once dead
    tag_row = np.tile(np.arange(n_runs, dtype=np.int64), (ntags, 1))
    peak_rows = 0
    level = 0

    while seg_run.size:
        peak_rows = max(peak_rows, mass.size)
        n_events[seg_run] += seg_cnt
        over = n_events[seg_run] > cfg.max_events
        if over.any():
            truncated[seg_run[over]] = True
            keep_rows = np.repeat(~over, seg_cnt)
            new_idx = np.cumsum(keep_rows) - 1
            carried = tag_row >= 0
            rows = tag_row[carried]
            tag_row[carried] = np.where(keep_rows[rows], new_idx[rows], -1)
            mass, birth = mass[keep_rows], birth[keep_rows]
            if track_cps:
                next_cp = next_cp[keep_rows]
            seg_run, seg_cnt = seg_run[~over], seg_cnt[~over]
            if seg_run.size == 0:
                break
        m = mass.size
        seg_end = np.cumsum(seg_cnt)

        # birth - log1p(-u) / (rate_total * mass**alpha), in place
        wait = rng.random(m)
        np.log1p(np.negative(wait, out=wait), out=wait)
        rate = _pow(mass, alpha)
        rate *= rate_total
        wait /= rate
        del rate
        death = np.subtract(birth, wait, out=wait)
        if level == 0:
            first_event[seg_run] = death
        seg_max = np.maximum.reduceat(death, seg_end - seg_cnt)
        zeta[seg_run] = np.maximum(zeta[seg_run], seg_max)

        # row i is alive at checkpoints lo <= j < hi, the counts of
        # checkpoints before its birth and before its death; one flattened
        # bincount over (run, checkpoint) keys of the straddling rows, in
        # frontier order, covers them all.  The children's next checkpoint
        # is the first at or after this death
        if track_cps:
            cross = np.flatnonzero(next_cp < death)
            if cross.size:
                lo = np.searchsorted(cps, birth[cross], side="left")
                hi = np.searchsorted(cps, death[cross], side="left")
                next_cp[cross] = cps_inf[hi]
                counts = hi - lo
                starts = np.cumsum(counts) - counts
                first_key = (_row_runs(seg_run, seg_end, cross) * ncp
                             + lo - starts)
                key = np.repeat(first_key, counts) \
                    + np.arange(int(counts.sum()), dtype=np.int64)
                mass_rep = np.repeat(mass[cross], counts)
                if S1 is not None:
                    s1_flat = S1.ravel()
                    np.add(s1_flat, np.bincount(
                        key, weights=mass_rep, minlength=n_runs * ncp),
                        out=s1_flat)
                    s2_flat = S2.ravel()
                    np.add(s2_flat, np.bincount(
                        key, weights=mass_rep * mass_rep,
                        minlength=n_runs * ncp), out=s2_flat)
                if F1 is not None:
                    # rows of one run straddle overlapping checkpoint
                    # ranges, so the flattened keys are NOT sorted; use the
                    # unordered scatter-max
                    np.maximum.at(F1.ravel(), key, mass_rep)
        if cfg.snapshot_time is not None:
            t = cfg.snapshot_time
            alive = np.flatnonzero((birth <= t) & (t < death))
            if alive.size:
                snap_runs.append(_row_runs(seg_run, seg_end, alive))
                snap_masses.append(mass[alive])

        # (parents, parts) child masses, filled column by column (faster
        # than a broadcast over the short axis); zero-mass children (density
        # endpoints, atom padding) fall straight below the cutoff
        child_mass = np.empty((m, width))
        if binary:
            s1 = np.asarray(split_icdf(spec, rng.random(m)))
            np.multiply(mass, s1, out=child_mass[:, 0])
            np.multiply(mass, 1.0 - s1, out=child_mass[:, 1])
        else:
            atom_idx = 0 if single_atom else _pick_atom(cum_w, rng.random(m))
            for j, col in enumerate(part_cols):
                np.multiply(mass, col[atom_idx], out=child_mass[:, j])
        # the kept children in frontier order: a flat index of the keep
        # mask over the width is the child's parent row, nondecreasing, so
        # a search in it counts the kept children of the rows before any row
        parent = np.flatnonzero(child_mass >= eps)
        children = child_mass.ravel()[parent]
        del child_mass
        parent //= width

        # each tag records its row's checkpoint masses, then picks part i
        # with probability equal to its relative mass (the dust residual
        # otherwise) and dies unless that part is among the kept prefix
        if ntags == 2:
            both_runs = np.flatnonzero(
                (tag_row[0] >= 0) & (tag_row[0] == tag_row[1]))
            both_parent = tag_row[0, both_runs]
        for k in range(ntags):
            runs_t = np.flatnonzero(tag_row[k] >= 0)
            rows = tag_row[k, runs_t]
            alive = (birth[rows, None] <= cps) & (cps < death[rows, None])
            at, j = np.nonzero(alive)
            tag_mass[k, runs_t[at], j] = mass[rows[at]]
            r = rng.random(rows.size)
            if binary:
                part = r >= s1[rows]
                to_dust = np.zeros(rows.size, dtype=bool)
            else:
                atom = 0 if single_atom else atom_idx[rows]
                part = _pick_part(part_cum, atom, r)
                to_dust = part == sizes[atom]
            # kept children before this row's, plus the part: the new row,
            # which holds a child of this row iff the part was kept
            new_row = np.searchsorted(parent, rows, side="left") + part
            survives = new_row < parent.size
            survives[survives] = parent[new_row[survives]] == rows[survives]
            lost = ~survives
            tag_death[k, runs_t[lost]] = death[rows[lost]]
            tag_killed[k, runs_t[lost]] = to_dust[lost]
            tag_row[k, runs_t] = np.where(survives, new_row, -1)
        if ntags == 2:
            # the tags part here unless both ride on into one kept child
            parted = (tag_row[0, both_runs] < 0) | (
                tag_row[0, both_runs] != tag_row[1, both_runs])
            t_sep[both_runs[parted]] = death[both_parent[parted]]

        # a run's rows on the next level end where its children do
        seg_cnt = np.diff(np.searchsorted(parent, seg_end, side="left"),
                          prepend=0)
        has_rows = seg_cnt > 0
        seg_run, seg_cnt = seg_run[has_rows], seg_cnt[has_rows]
        mass = children
        birth = death[parent]
        if track_cps:
            next_cp = next_cp[parent]
        del children, parent, death
        level += 1

    return {
        "zeta": zeta,
        "truncated": truncated,
        "first_event": first_event,
        "largest": F1,
        "sum_masses": S1,
        "sum_squares": S2,
        "tag_mass": tag_mass if ntags else None,
        "tag_death": tag_death if ntags else None,
        "tag_killed": tag_killed if ntags else None,
        "separation_time": t_sep if ntags == 2 else None,
        "snapshot_run": (np.concatenate(snap_runs) if snap_runs
                         else np.empty(0, dtype=np.int64)),
        "snapshot_mass": (np.concatenate(snap_masses) if snap_masses
                          else np.empty(0)),
        "peak_rows": np.array([peak_rows], dtype=np.int64),
    }


def _chunk_sizes(n_runs):
    sizes = [CHUNK_RUNS] * (n_runs // CHUNK_RUNS)
    if n_runs % CHUNK_RUNS:
        sizes.append(n_runs % CHUNK_RUNS)
    return sizes


def _run_chunk_job(args):
    spec, cfg, n, chunk_index = args
    rng = _generator(mix_seed(cfg.seed, chunk_index))
    return _simulate_chunk(spec, cfg, n, rng)


def resolve_workers(workers=None, unset=1):
    """The worker count to use: ``workers`` when given, else the
    FRAGTAIL_THREADS environment variable, else ``unset``.  A count below 1,
    or a FRAGTAIL_THREADS that is not an integer, is a ConfigError."""
    if workers is not None:
        if workers < 1:
            raise ConfigError(f"need at least 1 worker, got {workers}")
        return workers
    env = os.environ.get("FRAGTAIL_THREADS")
    if not env:
        return unset
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(
            f"FRAGTAIL_THREADS must be an integer, got {env!r}") from None


def run_ensemble(spec, cfg, n_runs, workers=None):
    """Simulate n_runs independent trajectories.

    Runs are processed in fixed chunks of CHUNK_RUNS; chunk c draws from
    PCG64(mix_seed(cfg.seed, c)), which makes the result independent of the
    worker count and bit-identical across replays.  ``workers`` (at least 1)
    defaults to the FRAGTAIL_THREADS environment variable (1 if unset).
    A binary-density spec's result carries ``split_ks_error`` at the
    config's cutoff.
    """
    if n_runs <= 0:
        raise ConfigError("need a positive number of runs")
    workers = resolve_workers(workers)
    # builds the split sampler, if any, before the pool starts
    split_error = (split_ks_error(spec, cfg.cutoff)
                   if spec.variant == BINARY_DENSITY else None)
    sizes = _chunk_sizes(n_runs)
    jobs = [(spec, cfg, n, i) for i, n in enumerate(sizes)]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk_job, jobs, chunksize=1))
    else:
        chunks = [_run_chunk_job(job) for job in jobs]
    return _merge_chunks(cfg, chunks, sizes, split_error)


def _merge_chunks(cfg, chunks, sizes, split_error):
    """One result from the chunk dicts in chunk order: the per-tag arrays
    join along their run axis 1, snapshot run ids are shifted by the
    chunk's first run, and ``peak_rows`` keeps one entry per chunk."""
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    merged = {}
    for key in chunks[0]:
        parts = [c[key] for c in chunks]
        if key == "snapshot_run":
            parts = [p + off for p, off in zip(parts, offsets)]
        merged[key] = None if parts[0] is None else np.concatenate(
            parts, axis=1 if key.startswith("tag_") else 0)
    return EnsembleResult(checkpoints=cfg.checkpoints,
                          split_ks_error=split_error, **merged)


# ---------------------------------------------------------------------------
# direct simulation of the tagged lineage


def sample_zeta_tag(spec, alpha, tol, n, rng):
    """Simulate n tagged-lineage extinction times directly.

    The lineage is a multiplicative random walk: wait an exponential with
    rate total_rate * m**alpha, then pick child i of the split with
    probability s_i (size biasing) or die to dust with the residual
    probability.  Stops once the expected remaining time
    m**|alpha| / phi(|alpha|) falls below ``tol``; that remainder is
    returned as the per-sample truncation bound.

    Returns dict with arrays ``value``, ``bound``, ``killed``.
    """
    if not alpha < 0.0:
        raise ConfigError("tagged lineage needs a negative index")
    if not tol > 0.0:
        raise ConfigError(f"stop tolerance must be positive, got {tol}")
    if n <= 0:
        raise ConfigError(f"need a positive number of samples, got {n}")
    if spec.variant not in (ATOMIC, BINARY_DENSITY):
        raise UnsupportedSampling(
            f"family {spec.family!r} cannot be sampled")
    abs_alpha = -alpha
    rate_total = total_mass(spec)
    inv_phi = 1.0 / PhiEvaluator(spec).phi(abs_alpha)
    binary = spec.variant == BINARY_DENSITY
    if not binary:
        cum_w, _, sizes = atom_arrays(spec)
        part_table = _part_table(spec)
        part_cum = _part_cum(part_table)
        last_col = part_table.shape[1] - 1

    m = np.ones(n)
    acc = np.zeros(n)
    bound = np.zeros(n)
    killed = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(100000):
        if active.size == 0:
            return {"value": acc, "bound": bound, "killed": killed}
        k = active.size
        u = rng.random(k)
        acc[active] += -np.log1p(-u) / (rate_total * _pow(m[active], alpha))
        if binary:
            s1 = np.asarray(split_icdf(spec, rng.random(k)))
            r = rng.random(k)
            frac = np.where(r < s1, s1, 1.0 - s1)
            died_dust = np.zeros(k, dtype=bool)
        else:
            if len(sizes) == 1:
                atom_idx = np.zeros(k, dtype=np.int64)
            else:
                atom_idx = _pick_atom(cum_w, rng.random(k))
            part = _pick_part(part_cum, atom_idx, rng.random(k))
            died_dust = part == sizes[atom_idx]
            # the dust pick (part = the atom's size, possibly the table's
            # width) keeps the mass; the lineage ends there anyway
            frac = np.where(died_dust, 1.0, part_table[
                atom_idx, np.minimum(part, last_col)])
        m[active] = m[active] * frac
        idx_killed = active[died_dust]
        killed[idx_killed] = True
        rem = _pow(m[active], abs_alpha) * inv_phi
        stopped = (rem < tol) & ~died_dust
        bound[active[stopped]] = rem[stopped]
        active = active[~(died_dust | stopped)]
    raise NumericalFailure("tagged lineage failed to reach the stop rule")
