import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse import csr_array

from fragtail import measures as M
from fragtail.acceptance import two_tag_identities
from fragtail.errors import ConfigError, UnsupportedSampling
from fragtail.simulate import (CHUNK_RUNS, CascadeConfig, _generator,
                               _simulate_chunk, mix_seed, run_ensemble,
                               sample_zeta_tag)
from fragtail.stats import KS_COEF_1PCT

EX1 = M.make_identical(2)
EX2 = M.make_uniform(2)


def test_config_validation():
    with pytest.raises(ConfigError):
        CascadeConfig(alpha=0.5)
    with pytest.raises(ConfigError):
        CascadeConfig(alpha=-1.0, cutoff=0.0)
    with pytest.raises(ConfigError):
        CascadeConfig(alpha=-1.0, checkpoints=(2.0, 1.0))
    with pytest.raises(ConfigError):
        CascadeConfig(alpha=-1.0, checkpoints=(math.nan, 1.0))
    with pytest.raises(ConfigError):
        CascadeConfig(alpha=-1.0, checkpoints=(-1.0, 0.5))
    for t in (-0.5, math.nan):
        with pytest.raises(ConfigError):
            CascadeConfig(alpha=-1.0, snapshot_time=t)
    with pytest.raises(ConfigError):
        CascadeConfig(alpha=-1.0, tags=3)
    # a cap below one event would truncate every run before its first split
    for cap in (0, -5):
        with pytest.raises(ConfigError):
            CascadeConfig(alpha=-1.0, cutoff=0.1, max_events=cap)


def test_mix_seed_is_frozen():
    # the chunk-seed derivation is a documented bit-exact contract
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(0, 1) == 7960286522194355700
    assert mix_seed(12345, 0) == 2454886589211414944
    assert all(0 <= mix_seed(7, i) <= 2 ** 64 - 1 for i in range(10))


def test_replay_bit_identical():
    cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -8, checkpoints=(1.0, 2.0),
                        seed=5, tags=2)
    a = run_ensemble(EX2, cfg, 500)
    b = run_ensemble(EX2, cfg, 500)
    assert np.array_equal(a.zeta, b.zeta)
    assert np.array_equal(a.sum_squares, b.sum_squares)
    assert np.array_equal(a.separation_time, b.separation_time)


def _digests(fields):
    """(dtype, shape, leading 16 hex digits of the SHA-256 of the bytes) of
    every field that is not None."""
    out = {}
    for name, value in fields.items():
        if value is not None:
            arr = np.ascontiguousarray(value)
            out[name] = (str(arr.dtype), arr.shape,
                         hashlib.sha256(arr.tobytes()).hexdigest()[:16])
    return out


_GOLDEN_RUNS = {
    "uniform-2": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "af279d5a76a642b9"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "e7e84a0ab543508c"),
        "largest": ("float64", (4396, 3), "991c5011d41f8dbb"),
        "sum_masses": ("float64", (4396, 3), "ea8598e86c546a54"),
        "sum_squares": ("float64", (4396, 3), "5d4853549c468768"),
        "tag_mass": ("float64", (2, 4396, 3), "9ea21d54c9841f39"),
        "tag_death": ("float64", (2, 4396), "702fb4c12ac7f8ee"),
        "tag_killed": ("bool", (2, 4396), "d34437bbda7d5f9b"),
        "separation_time": ("float64", (4396,), "805df64f61bc2355"),
        "snapshot_run": ("int64", (10111,), "a41099340ee8e4c8"),
        "snapshot_mass": ("float64", (10111,), "5c2db42349b20b03"),
        "peak_rows": ("int64", (2,), "e4a18577b740d1a1"),
    },
    "two-atom": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "9e3642e663d22688"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "3623e7cef13022ff"),
        "largest": ("float64", (4396, 3), "7ce5096ba261cbb3"),
        "sum_masses": ("float64", (4396, 3), "cca3e1a49d2ac5ac"),
        "sum_squares": ("float64", (4396, 3), "77e01c62d6c40d75"),
        "tag_mass": ("float64", (2, 4396, 3), "a27a9d9580280555"),
        "tag_death": ("float64", (2, 4396), "0ab554bc04ac7924"),
        "tag_killed": ("bool", (2, 4396), "01db09d27965b304"),
        "separation_time": ("float64", (4396,), "5f17d28027c6a010"),
        "snapshot_run": ("int64", (3124,), "bcabcfeafc258840"),
        "snapshot_mass": ("float64", (3124,), "4452fbd8d90abe29"),
        "peak_rows": ("int64", (2,), "9e05252a5fea8628"),
    },
}
# the same ensembles at alpha = -1/2, where the waiting-time rates take
# the reciprocal-square-root form of ``_pow``
_GOLDEN_RUNS_HALF = {
    "uniform-2": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "3bf7d24ec8700cf1"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "e7e84a0ab543508c"),
        "largest": ("float64", (4396, 3), "41388fffdd3bae2c"),
        "sum_masses": ("float64", (4396, 3), "a2e496a181d7e84a"),
        "sum_squares": ("float64", (4396, 3), "50ecfaf30b0421f5"),
        "tag_mass": ("float64", (2, 4396, 3), "b7839cea55b8e4e8"),
        "tag_death": ("float64", (2, 4396), "20f0793177232694"),
        "tag_killed": ("bool", (2, 4396), "d34437bbda7d5f9b"),
        "separation_time": ("float64", (4396,), "7b81e53d2f7f030e"),
        "snapshot_run": ("int64", (12044,), "b4ad3efec2d51c64"),
        "snapshot_mass": ("float64", (12044,), "907c8ca4646385e6"),
        "peak_rows": ("int64", (2,), "e4a18577b740d1a1"),
    },
    "two-atom": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "ca1463bd702c00a7"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "3623e7cef13022ff"),
        "largest": ("float64", (4396, 3), "e6144269df7735a4"),
        "sum_masses": ("float64", (4396, 3), "4f0e7fb898fe0b93"),
        "sum_squares": ("float64", (4396, 3), "5d7a465748524146"),
        "tag_mass": ("float64", (2, 4396, 3), "c17dd449b2d50a14"),
        "tag_death": ("float64", (2, 4396), "ea398088ae9d8d4a"),
        "tag_killed": ("bool", (2, 4396), "01db09d27965b304"),
        "separation_time": ("float64", (4396,), "aa9273bbd02ea2de"),
        "snapshot_run": ("int64", (18375,), "a66cc04208f0aa77"),
        "snapshot_mass": ("float64", (18375,), "0be356f1d5a20459"),
        "peak_rows": ("int64", (2,), "9e05252a5fea8628"),
    },
}
# the same ensembles at alpha = -2, where the waiting-time rates take
# the 1/(x*x) form of ``_pow``
_GOLDEN_RUNS_TWO = {
    "uniform-2": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "7e9bdf04e54c0b7e"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "e7e84a0ab543508c"),
        "largest": ("float64", (4396, 3), "bbc4f8252ee3e48d"),
        "sum_masses": ("float64", (4396, 3), "d46914968c91a689"),
        "sum_squares": ("float64", (4396, 3), "3f427228fca0d96a"),
        "tag_mass": ("float64", (2, 4396, 3), "a71afbe9817035a1"),
        "tag_death": ("float64", (2, 4396), "510510a2db2d3723"),
        "tag_killed": ("bool", (2, 4396), "d34437bbda7d5f9b"),
        "separation_time": ("float64", (4396,), "a4b68f1742159970"),
        "snapshot_run": ("int64", (4743,), "774bb833bfd8ce19"),
        "snapshot_mass": ("float64", (4743,), "5464fbc021df69b6"),
        "peak_rows": ("int64", (2,), "e4a18577b740d1a1"),
    },
    "two-atom": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "d7bff872840e056f"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "3623e7cef13022ff"),
        "largest": ("float64", (4396, 3), "6526a9ef70fa92ba"),
        "sum_masses": ("float64", (4396, 3), "cb1ea5cb9dcefd01"),
        "sum_squares": ("float64", (4396, 3), "9a351b2547776995"),
        "tag_mass": ("float64", (2, 4396, 3), "5beb84a90d83a928"),
        "tag_death": ("float64", (2, 4396), "864c76b64a3ce588"),
        "tag_killed": ("bool", (2, 4396), "01db09d27965b304"),
        "separation_time": ("float64", (4396,), "d66961a466418974"),
        "snapshot_run": ("int64", (508,), "5b4fb38d8d4ad456"),
        "snapshot_mass": ("float64", (508,), "8c3bda932a924a43"),
        "peak_rows": ("int64", (2,), "9e05252a5fea8628"),
    },
}
_GOLDEN_ZETA_TAG = {
    -1.0: {
        "value": ("float64", (1000,), "113f495396d3c93f"),
        "bound": ("float64", (1000,), "b6408a9409305995"),
        "killed": ("bool", (1000,), "541b3e9daa09b20b"),
    },
    -0.5: {
        "value": ("float64", (1000,), "848547c1785415be"),
        "bound": ("float64", (1000,), "1e8ee965a8ef7e79"),
        "killed": ("bool", (1000,), "541b3e9daa09b20b"),
    },
}
# the sampler paths the ensembles above miss, at alpha = -1: the PCHIP
# icdf, a single atom with three parts, several atoms with dust, and a
# run cap that truncates most runs mid-level
_GOLDEN_SAMPLERS = {
    "beta-2-3": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "b30eb5f6624837cd"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "e7e84a0ab543508c"),
        "largest": ("float64", (4396, 3), "15f77a6394b2700e"),
        "sum_masses": ("float64", (4396, 3), "87157e39d2bb6e15"),
        "sum_squares": ("float64", (4396, 3), "505f84dc9d6c8570"),
        "tag_mass": ("float64", (2, 4396, 3), "36dbd2955c4d590b"),
        "tag_death": ("float64", (2, 4396), "e0fce9223bbd966a"),
        "tag_killed": ("bool", (2, 4396), "d34437bbda7d5f9b"),
        "separation_time": ("float64", (4396,), "bd8fae58bcac86fe"),
        "snapshot_run": ("int64", (10971,), "be16d416298cf99c"),
        "snapshot_mass": ("float64", (10971,), "cb4c674a377de8ce"),
        "peak_rows": ("int64", (2,), "5bf7ca3caecbf755"),
    },
    "identical-3": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "73b5982cd8c99e14"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "e7e84a0ab543508c"),
        "largest": ("float64", (4396, 3), "4cab7e7c4d27a3d1"),
        "sum_masses": ("float64", (4396, 3), "0028c8b89cda8019"),
        "sum_squares": ("float64", (4396, 3), "0368bb7a1e9934ad"),
        "tag_mass": ("float64", (2, 4396, 3), "d7ffa873ef524d0e"),
        "tag_death": ("float64", (2, 4396), "f03fa71a2d4cc3db"),
        "tag_killed": ("bool", (2, 4396), "d34437bbda7d5f9b"),
        "separation_time": ("float64", (4396,), "ee622fe0ff3cb260"),
        "snapshot_run": ("int64", (8177,), "83488e7c6198e9fa"),
        "snapshot_mass": ("float64", (8177,), "cf22fbe5cdeb2240"),
        "peak_rows": ("int64", (2,), "51524e4fb35eed5b"),
    },
    "atoms-with-dust": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "3b8cc62c989bb0d1"),
        "truncated": ("bool", (4396,), "8204faf1c85ca40d"),
        "first_event": ("float64", (4396,), "3623e7cef13022ff"),
        "largest": ("float64", (4396, 3), "1734b170d07b7a03"),
        "sum_masses": ("float64", (4396, 3), "3010bf4e961ee4bb"),
        "sum_squares": ("float64", (4396, 3), "7da9795d32c908db"),
        "tag_mass": ("float64", (2, 4396, 3), "85fafe163873d77a"),
        "tag_death": ("float64", (2, 4396), "6ead7b8f3e154ac0"),
        "tag_killed": ("bool", (2, 4396), "4b8519664feaa766"),
        "separation_time": ("float64", (4396,), "400b45064acda6fe"),
        "snapshot_run": ("int64", (968,), "6f68b814f3654be6"),
        "snapshot_mass": ("float64", (968,), "37401d5ce338a0e7"),
        "peak_rows": ("int64", (2,), "ff7fded2bafc0a94"),
    },
    "truncated": {
        "checkpoints": ("float64", (3,), "7150415ca2ea2ff3"),
        "zeta": ("float64", (4396,), "ba1b8336bbf62dc6"),
        "truncated": ("bool", (4396,), "9ccbbb0c31ce3d84"),
        "first_event": ("float64", (4396,), "e7e84a0ab543508c"),
        "largest": ("float64", (4396, 3), "2c2d25cff5954021"),
        "sum_masses": ("float64", (4396, 3), "ada61ec082051543"),
        "sum_squares": ("float64", (4396, 3), "efdbf9d40682372c"),
        "tag_mass": ("float64", (2, 4396, 3), "ccd4cfb63a6d5649"),
        "tag_death": ("float64", (2, 4396), "d296987e19965af8"),
        "tag_killed": ("bool", (2, 4396), "d34437bbda7d5f9b"),
        "separation_time": ("float64", (4396,), "963b82a940a96b1d"),
        "snapshot_run": ("int64", (8835,), "649cfbaf4391de33"),
        "snapshot_mass": ("float64", (8835,), "4f2a5467e543d7ce"),
        "peak_rows": ("int64", (2,), "3b4bbaba64a7b5ba"),
    },
}
_GOLDEN_ZETA_TAG_BETA = {
    "value": ("float64", (1000,), "70e88776eab0caaf"),
    "bound": ("float64", (1000,), "7c66413ef14c365a"),
    "killed": ("bool", (1000,), "541b3e9daa09b20b"),
}


@pytest.mark.parametrize("label,spec", [
    ("uniform-2", EX2),
    ("two-atom", M.make_atomic([(1, (0.6, 0.3)), (2, (0.5, 0.5))])),
])
def test_replay_matches_frozen_digests(label, spec):
    """The replay contract across versions: every result field of a
    two-chunk ensemble at alpha = -1, -1/2 and -2, and one tagged-lineage
    draw at -1 and -1/2, hash to the values frozen under numpy 2.4.6.  A
    change that alters the random stream or any arithmetic on it must
    re-freeze these digests and say so."""
    for alpha, golden in ((-1.0, _GOLDEN_RUNS), (-0.5, _GOLDEN_RUNS_HALF),
                          (-2.0, _GOLDEN_RUNS_TWO)):
        cfg = CascadeConfig(alpha=alpha, cutoff=2.0 ** -6,
                            checkpoints=(0.5, 1.0, 2.0), seed=2024, tags=2,
                            snapshot_time=1.0)
        ens = run_ensemble(spec, cfg, CHUNK_RUNS + 300, workers=1)
        assert _digests(vars(ens)) == golden[label], alpha


def test_zeta_tag_matches_frozen_digests():
    # frozen with the ensembles above, under numpy 2.4.6
    for alpha, golden in _GOLDEN_ZETA_TAG.items():
        draw = sample_zeta_tag(EX2, alpha, 1e-4, 1000, _generator(2024))
        assert _digests(draw) == golden, alpha
    draw = sample_zeta_tag(M.make_beta(2, 3), -1.0, 1e-4, 1000,
                           _generator(2024))
    assert _digests(draw) == _GOLDEN_ZETA_TAG_BETA


@pytest.mark.parametrize("label,spec,cutoff,max_events", [
    ("beta-2-3", M.make_beta(2, 3), 2.0 ** -6, 10 ** 6),
    ("identical-3", M.make_identical(3), 2.0 ** -6, 10 ** 6),
    ("atoms-with-dust", M.make_atomic([(1, (0.5, 0.2)),
                                       (2, (0.4, 0.3, 0.1))]),
     2.0 ** -6, 10 ** 6),
    # 72% of the runs hit the cap, so rows leave the frontier mid-cascade
    ("truncated", EX2, 2.0 ** -5, 60),
])
def test_sampler_paths_match_frozen_digests(label, spec, cutoff, max_events):
    # frozen under numpy 2.4.6 with the ensembles above
    cfg = CascadeConfig(alpha=-1.0, cutoff=cutoff, max_events=max_events,
                        checkpoints=(0.5, 1.0, 2.0), seed=2024, tags=2,
                        snapshot_time=1.0)
    ens = run_ensemble(spec, cfg, CHUNK_RUNS + 300, workers=1)
    assert _digests(vars(ens)) == _GOLDEN_SAMPLERS[label]


@pytest.mark.parametrize("atoms", [2, 3, 7, 40])
def test_atom_pick_is_searchsorted(atoms):
    # the threshold count equals the binary search it replaces, on the
    # thresholds themselves, next to them and next to 1 as well
    from fragtail.simulate import _pick_atom
    rng = _generator(atoms)
    weights = rng.random(atoms)
    spec = M.make_atomic([(w, (0.5, 0.5)) for w in weights])
    cum_w = M.atom_arrays(spec)[0]
    u = np.concatenate([rng.random(5000), cum_w[:-1],
                        np.nextafter(cum_w[:-1], 0.0),
                        np.nextafter(cum_w[:-1], 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    picked = _pick_atom(cum_w, u)
    assert picked.dtype == np.intp
    assert np.array_equal(picked, np.searchsorted(cum_w, u, side="right"))


class _AlmostOne:
    """Generator stand-in whose every uniform is the largest double below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


def test_routing_uniform_near_one_stays_in_its_split():
    # a routing uniform just below 1 picks the last part of the split; a
    # cumulative sum over other fragments or atoms would round it up into
    # the dust residual and kill the tag of a conservative split
    cfg = CascadeConfig(alpha=-1.0, cutoff=0.3, tags=2)
    out = _simulate_chunk(EX1, cfg, 16, _AlmostOne())
    assert out["tag_killed"].shape == (2, 16)
    assert not out["tag_killed"].any()
    spec = M.make_atomic([(1, (0.5, 0.5)), (1, (0.5, 0.25, 0.25))])
    draw = sample_zeta_tag(spec, -1.0, 1e-4, 16, _AlmostOne())
    assert not draw["killed"].any()


def test_worker_count_does_not_change_results():
    cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -8, seed=6,
                        record_sums=False, record_largest=False)
    n = CHUNK_RUNS + 100  # forces at least two chunks
    serial = run_ensemble(EX2, cfg, n, workers=1)
    pooled = run_ensemble(EX2, cfg, n, workers=2)
    assert np.array_equal(serial.zeta, pooled.zeta)
    assert serial.peak_rows.shape == (2,)
    assert np.array_equal(serial.peak_rows, pooled.peak_rows)


def test_analytic_family_cannot_be_simulated():
    with pytest.raises(UnsupportedSampling):
        run_ensemble(M.make_stable(2.0),
                     CascadeConfig(alpha=-0.5, cutoff=0.01), 10)


def test_deterministic_split_geometry():
    # identical-2 with cutoff 0.3: root splits into two 1/2 fragments, the
    # four 1/4 grandchildren are dust, so exactly 3 events happen and the
    # sum of squares walks down 1 -> 1/2 -> 1/4 -> 0 in every run
    cfg = CascadeConfig(alpha=-1.0, cutoff=0.3,
                        checkpoints=tuple(np.linspace(0.0, 8.0, 33)), seed=9)
    ens = run_ensemble(EX1, cfg, 20)
    assert set(np.round(ens.sum_squares, 12).ravel()) <= {0.0, 0.25, 0.5, 1.0}
    assert set(np.round(ens.sum_masses, 12).ravel()) <= {0.0, 0.5, 1.0}
    assert np.all(ens.zeta >= ens.first_event)
    # the widest frontier is the two halves of every run
    assert ens.peak_rows.dtype == np.int64
    assert ens.peak_rows.tolist() == [2 * 20]


def test_many_part_split_keeps_every_child():
    # identical-130 at cutoff 1/200 keeps all 130 children of the root and
    # none of theirs: exactly 131 events a run, a split wider than 127
    for cap, truncated in ((131, False), (130, True)):
        cfg = CascadeConfig(alpha=-1.0, cutoff=1.0 / 200, max_events=cap,
                            checkpoints=(0.0,), seed=8, tags=1)
        ens = run_ensemble(M.make_identical(130), cfg, 20)
        assert np.all(ens.truncated == truncated)
    assert np.all(ens.sum_masses == 1.0)
    assert not ens.tag_killed.any()


def test_first_event_is_unit_exponential():
    cfg = CascadeConfig(alpha=-1.0, cutoff=0.3, seed=12, record_sums=False,
                        record_largest=False)
    ens = run_ensemble(EX1, cfg, 100000)
    mean = ens.first_event.mean()
    se = ens.first_event.std(ddof=1) / math.sqrt(ens.n_runs)
    assert abs(mean - 1.0) <= 4.0 * se


def test_checkpoint_invariants():
    cps = (0.5, 1.0, 2.0, 3.0, 5.0)
    cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -9, checkpoints=cps,
                        seed=14)
    ens = run_ensemble(EX2, cfg, 2000)
    assert np.all(np.diff(ens.largest, axis=1) <= 1e-12)
    assert np.all(np.diff(ens.sum_masses, axis=1) <= 1e-12)
    assert np.all(ens.sum_squares <= ens.sum_masses + 1e-12)
    assert np.all(ens.sum_masses <= 1.0 + 1e-12)
    assert np.all(np.isfinite(ens.zeta))
    assert not ens.truncated.any()


def test_max_events_flags_truncation():
    cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -20, max_events=10,
                        seed=15, record_sums=False, record_largest=False)
    ens = run_ensemble(EX2, cfg, 50)
    assert ens.truncated.all()
    assert np.all(np.isfinite(ens.zeta))


def test_simulate_zeta_tag_single():
    out = sample_zeta_tag(EX2, -1.0, 1e-4, 1, _generator(3))
    assert out["value"].shape == (1,)
    assert out["value"][0] > 0.0
    assert 0.0 <= out["bound"][0] < 1e-4


def test_zeta_tag_means():
    # mean tagged extinction = 1/phi(|alpha|): 2 for identical-2, 3 for
    # uniform-2 at alpha = -1
    for spec, target, seed in [(EX1, 2.0, 21), (EX2, 3.0, 22)]:
        out = sample_zeta_tag(spec, -1.0, 1e-4, 30000, _generator(seed))
        se = out["value"].std(ddof=1) / math.sqrt(len(out["value"]))
        assert abs(out["value"].mean() - target) <= 4.0 * se
        assert np.all(out["value"] > 0.0)
        assert 0.0 <= out["bound"].min() and out["bound"].max() < 1e-4
        assert not out["killed"].any()  # conservative: no dust routing


def test_zeta_tag_nonconservative():
    # measure with one part 1/2 and dust share 1/2: phi(1) = 3/4, and the
    # tagged lineage is killed at each split with probability 1/2
    spec = M.make_atomic([(1.0, (0.5,))])
    out = sample_zeta_tag(spec, -1.0, 1e-4, 30000, _generator(23))
    se = out["value"].std(ddof=1) / math.sqrt(len(out["value"]))
    assert abs(out["value"].mean() - 4.0 / 3.0) <= 4.0 * se
    assert out["killed"].mean() > 0.9


def test_two_tag_run_records():
    cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -8,
                        checkpoints=(0.5, 1.0, 2.0), seed=42, tags=2)
    ens = run_ensemble(EX1, cfg, 200)
    assert np.all(ens.zeta > 0.0)
    # every run separates its tags, at the latest at the split that kills
    # both by routing them into one sub-cutoff child
    assert np.all(np.isfinite(ens.separation_time))
    assert np.all(ens.separation_time <= ens.tag_death.min(axis=0))
    together = ens.tag_death[0] == ens.tag_death[1]
    assert np.array_equal(ens.separation_time[together],
                          ens.tag_death[0, together])
    assert np.all(ens.tag_death <= ens.zeta + 1e-12)
    assert not ens.tag_killed.any()
    assert ens.tag_mass.shape == (2, 200, 3)
    solo = run_ensemble(EX1, replace(cfg, tags=0), 200)
    assert np.all(solo.zeta > 0.0) and solo.tag_mass is None


def test_two_tags_identities():
    suites = two_tag_identities(EX2, -1.0, 2.0 ** -11, (1.0, 2.0, 4.0),
                                30000, 31, workers=2)
    for rows in suites.values():
        assert [r["t"] for r in rows] == [1.0, 2.0, 4.0]
        assert all(abs(r["z"]) <= 4.0 for r in rows)


def test_snapshot_consistent_with_sums():
    t_star = 2.0
    cfg = CascadeConfig(alpha=-1.0, cutoff=2.0 ** -9,
                        checkpoints=(t_star,), seed=33,
                        snapshot_time=t_star)
    ens = run_ensemble(EX2, cfg, 3000)
    s1_from_snap = np.bincount(ens.snapshot_run,
                               weights=ens.snapshot_mass,
                               minlength=ens.n_runs)
    assert np.allclose(s1_from_snap, ens.sum_masses[:, 0], atol=1e-12)


# The exact law at the engine's cutoff c.  A fragment of mass m waits an
# exponential time of rate r m**alpha, splits, and keeps the children of
# mass at least c, so zeta_m = E / (r m**alpha) + max over the kept children
# of zeta_child (Aldous & Bandyopadhyay, Ann. Appl. Probab. 2005) and
# F_m(t) = P(zeta_m <= t) solves
#     F_m' = r m**alpha (E_split[prod over kept children F_child] - F_m),
# with F_m(0) = 0.  The solves below build this system from the measure's
# definition and share no sampler code with the engine.

LAW_CUTOFF = 2.0 ** -6


def _atomic_law(spec, alpha, cutoff, t):
    """P(zeta <= t) at the sorted times t for an atomic measure: one state
    per mass reachable at or above the cutoff, each child formed as parent
    times part and kept iff at least the cutoff, as the engine does."""
    weights = np.array([w for w, _ in spec.atoms])
    width = max(len(parts) for _, parts in spec.atoms)
    index, masses, kids = {1.0: 0}, [1.0], []
    for m in masses:  # grows as new masses are reached
        row = []
        for _, parts in spec.atoms:
            kept = [m * p for p in parts if m * p >= cutoff]
            for child in kept:
                if child not in index:
                    index[child] = len(masses)
                    masses.append(child)
            # a dropped or missing part points at the trailing 1.0
            row.append([index[c] for c in kept] + [-1] * (width - len(kept)))
        kids.append(row)
    kids = np.array(kids).transpose(1, 0, 2)  # (atoms, states, parts)
    split_w = weights / weights.sum()
    rate = spec.scale * math.fsum(weights) * np.array(masses) ** alpha

    def rhs(_, f):
        split = split_w @ np.append(f, 1.0)[kids].prod(axis=2)
        return rate * (split - f)

    sol = solve_ivp(rhs, (0.0, t[-1]), np.zeros(len(masses)),
                    method="LSODA", t_eval=t, rtol=1e-10, atol=1e-12)
    assert sol.success
    return sol.y[0]


def _uniform2_law(alpha, cutoff, t, per_octave=12, nodes=200):
    """P(zeta <= t) at the sorted times t for uniform-2, whose larger piece
    s is uniform on (1/2, 1):
        F'(t, m) = m**alpha (2 int_{1/2}^1 F(t, ms) F(t, m(1-s)) ds - F(t, m)),
    with F = 1 below the cutoff, by the method of lines on x = log2(m/c):
    per_octave points per octave, midpoint nodes in s and linear
    interpolation in x."""
    n_x = round(-math.log2(cutoff)) * per_octave + 1
    x = np.arange(n_x) / per_octave
    s = 0.5 + (np.arange(nodes) + 0.5) / (2 * nodes)

    def interpolation(part):
        # rows (grid point, node) of weights on [F, 1]: linear in x at or
        # above the cutoff; below it, weight 1 on the trailing 1.0 (the
        # row's second entry, of weight 0, lands there too)
        at = (x[:, None] + np.log2(part)).ravel() * per_octave
        dust = at < 0.0
        lo = np.where(dust, n_x, np.minimum(at.astype(int), n_x - 2))
        frac = np.where(dust, 0.0, at - lo)
        cols = np.concatenate([lo, np.minimum(lo + 1, n_x)])
        return csr_array((np.concatenate([1.0 - frac, frac]),
                          (np.tile(np.arange(at.size), 2), cols)),
                         shape=(at.size, n_x + 1))

    larger, smaller = interpolation(s), interpolation(1.0 - s)
    rate = (cutoff * 2.0 ** x) ** alpha

    def rhs(_, f):
        f1 = np.append(f, 1.0)
        split = ((larger @ f1) * (smaller @ f1)).reshape(n_x, nodes)
        return rate * (split.mean(axis=1) - f)

    sol = solve_ivp(rhs, (0.0, t[-1]), np.zeros(n_x), method="LSODA",
                    t_eval=t, rtol=1e-10, atol=1e-12)
    assert sol.success
    return sol.y[-1]


@pytest.mark.parametrize("spec", [
    EX1,
    M.make_atomic([(1, (0.6, 0.3)), (2, (0.5, 0.5))]),
    M.make_atomic([(1, (0.5, 0.2)), (2, (0.4, 0.3, 0.1))]),
    EX2,
], ids=["identical-2", "two-atom", "atoms-with-dust", "uniform-2"])
def test_engine_matches_exact_law_at_its_cutoff(spec):
    # one-sample KS of the engine's extinction times against the CDF of the
    # law at the engine's own cutoff; against the law at 2**-12 every case
    # reads sqrt(n) D of 2.0 to 2.5, past the gate
    cfg = CascadeConfig(alpha=-1.0, cutoff=LAW_CUTOFF, seed=901,
                        record_sums=False, record_largest=False)
    zeta = np.sort(run_ensemble(spec, cfg, 20000).zeta)
    if spec.variant == M.ATOMIC:
        cdf = _atomic_law(spec, cfg.alpha, cfg.cutoff, zeta)
    else:
        cdf = _uniform2_law(cfg.alpha, cfg.cutoff, zeta)
    n = zeta.size
    rank = np.arange(1, n + 1) / n
    distance = max((rank - cdf).max(), (cdf - (rank - 1.0 / n)).max())
    assert distance < KS_COEF_1PCT / math.sqrt(n)


def test_largest_fragment_small_time_expansion():
    # conditioning on the first event: E[F1(t)] = e^-t + (1 - e^-t)/2 up to
    # O(t^2) from second splits, an independent check of checkpoint stats
    t = 0.05
    cfg = CascadeConfig(alpha=-1.0, cutoff=0.01, checkpoints=(t,), seed=50,
                        record_sums=False)
    ens = run_ensemble(EX1, cfg, 200000)
    est = ens.largest[:, 0]
    approx = math.exp(-t) + (1.0 - math.exp(-t)) * 0.5
    se = est.std(ddof=1) / math.sqrt(len(est))
    assert abs(est.mean() - approx) <= 4.0 * se + 2.0 * t * t
