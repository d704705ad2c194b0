import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

import fragtail.cli as cli
from fragtail import acceptance
from fragtail.cli import dumps17, main
from fragtail.errors import ConfigError


@pytest.fixture
def uniform2(tmp_path):
    path = tmp_path / "uniform2.json"
    path.write_text(json.dumps(
        {"family": "uniform-k", "params": {"k": 2}, "scale": 1.0}))
    return str(path)


@pytest.fixture
def stable2(tmp_path):
    path = tmp_path / "stable2.json"
    path.write_text(json.dumps({"family": "stable", "params": {"gamma": 2.0}}))
    return str(path)


@pytest.fixture
def stable15(tmp_path):
    path = tmp_path / "stable15.json"
    path.write_text(json.dumps({"family": "stable", "params": {"gamma": 1.5}}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dumps17_round_trip():
    values = [0.1, 1.0 / 3.0, 2.0 ** -52, math.pi, 1e300]
    text = dumps17({"v": values, "flag": True, "none": None})
    parsed = json.loads(text)
    assert parsed["v"] == values  # 17 significant digits round-trip exactly
    assert parsed["flag"] is True and parsed["none"] is None


def test_phi_verb(capsys, uniform2):
    code, out = run_json(capsys, ["phi", "--measure", uniform2, "--x", "2"])
    assert code == 0
    assert abs(out["value"] - 0.5) < 1e-12
    assert out["config"]["x"] == 2.0


def test_psi_verb(capsys, uniform2):
    code, out = run_json(capsys, ["psi", "--measure", uniform2, "--x", "4"])
    assert code == 0
    assert abs(out["psi"] - 2.0) < 1e-9
    assert out["residual"] < 1e-10


def test_hcheck_verb(capsys, stable2):
    code, out = run_json(capsys, ["hcheck", "--measure", stable2,
                                  "--xmax", "1000"])
    assert code == 0
    assert out["pass"] is True
    assert abs(out["tail_sup"] - 0.5) < 0.02


def test_tail_modes_agree_on_shape(capsys, stable2):
    code, exact = run_json(capsys, ["tail", "--measure", stable2,
                                    "--t", "60", "--mode", "exact"])
    assert code == 0 and exact["shape"] is None
    code, expn = run_json(capsys, ["tail", "--measure", stable2,
                                   "--t", "60", "--mode", "lemma9"])
    assert code == 0
    assert expn["shape"]["poly_exponent"] == 2.0
    assert expn["shape"]["exp_terms"] == [[1.0, 2.0]]
    code, fam = run_json(capsys, ["tail", "--measure", stable2,
                                  "--t", "60", "--mode", "example"])
    assert fam["shape"]["exp_terms"] == [[1.0, 2.0]]
    assert abs(expn["log_value"] - fam["log_value"]) < 1e-9


def test_shape_verb(capsys, stable2):
    code, out = run_json(capsys, ["shape", "--measure", stable2])
    assert code == 0
    assert out["shape"]["poly_exponent"] == 2.0


def test_simulate_replay_byte_identical(tmp_path, uniform2):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["simulate", "--measure", uniform2, "--alpha", "-1",
            "--runs", "50", "--cutoff", "0.01", "--checkpoints", "1,2",
            "--seed", "9", "--tags", "2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[1]
    assert header.split(",")[:4] == ["run_id", "extinction_est",
                                     "truncated", "first_event"]


def _rowwise_simulate_rows(ens, checkpoints, tags):
    """The simulate table written row by row through ``csv.writer``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    cols = ["run_id", "extinction_est", "truncated", "first_event"]
    for t in checkpoints:
        cols += [f"F1_t{t:g}", f"S1_t{t:g}", f"S2_t{t:g}"]
        cols += [f"tag{k + 1}_t{t:g}" for k in range(tags)]
    if tags == 2:
        cols.append("t_sep")
    for k in range(tags):
        cols += [f"tag{k + 1}_death", f"tag{k + 1}_killed"]
    writer.writerow(cols)
    for i in range(ens.n_runs):
        row = [i, dumps17(float(ens.zeta[i])), int(ens.truncated[i]),
               dumps17(float(ens.first_event[i]))]
        for j in range(len(checkpoints)):
            row.append(dumps17(float(ens.largest[i, j])))
            row.append(dumps17(float(ens.sum_masses[i, j])))
            row.append(dumps17(float(ens.sum_squares[i, j])))
            for k in range(tags):
                row.append(dumps17(float(ens.tag_mass[k, i, j])))
        if tags == 2:
            row.append(dumps17(float(ens.separation_time[i])))
        for k in range(tags):
            row.append(dumps17(float(ens.tag_death[k, i])))
            row.append(int(ens.tag_killed[k, i]))
        writer.writerow(row)
    return buf.getvalue()


def _capture(monkeypatch, name):
    """Record what the CLI's ``name`` returns while still running it."""
    results = []
    real = getattr(cli, name)

    def capture(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, capture)
    return results


def _table(path):
    """The file's bytes after the '# {...}' config line, as text."""
    data = path.read_bytes().decode()
    assert data.startswith("# ")
    return data[data.index("\n") + 1:]


@pytest.mark.parametrize("extra,checkpoints", [
    # the uniform-2 pipeline of the benchmark, at fewer runs
    (["--cutoff", repr(2.0 ** -11), "--checkpoints", "1,2,4,6",
      "--tags", "2", "--workers", "2"], (1.0, 2.0, 4.0, 6.0)),
    # every run truncated: tag deaths are written as Infinity
    (["--max-events", "10", "--tags", "2", "--checkpoints", "1,2",
      "--workers", "1"], (1.0, 2.0)),
    (["--cutoff", "0.01", "--workers", "1"], ()),
])
def test_simulate_csv_matches_rowwise_writer(tmp_path, monkeypatch, uniform2,
                                             extra, checkpoints):
    captured = _capture(monkeypatch, "run_ensemble")
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--measure", uniform2, "--alpha", "-1.0",
                 "--runs", "300", "--seed", "5", "--out", str(out)]
                + extra) == 0
    tags = 2 if "--tags" in extra else 0
    expected = _rowwise_simulate_rows(captured[0], checkpoints, tags)
    assert _table(out) == expected
    if "--max-events" in extra:
        assert "Infinity" in expected


def test_zeta_tag_csv_matches_rowwise_writer(tmp_path, monkeypatch,
                                             uniform2):
    # more rows than one formatting block of the writer
    captured = _capture(monkeypatch, "sample_zeta_tag")
    out = tmp_path / "tag.csv"
    assert main(["zeta-tag", "--measure", uniform2, "--alpha", "-1.0",
                 "--n", "5000", "--seed", "3", "--out", str(out)]) == 0
    sample = captured[0]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["sample_id", "value", "trunc_bound", "killed"])
    for i in range(5000):
        writer.writerow([i, dumps17(float(sample["value"][i])),
                         dumps17(float(sample["bound"][i])),
                         int(sample["killed"][i])])
    assert _table(out) == buf.getvalue()


def test_zeta_tag_and_fit_round_trip(tmp_path, capsys, uniform2):
    samples = tmp_path / "zt.csv"
    assert main(["zeta-tag", "--measure", uniform2, "--alpha", "-1",
                 "--n", "20000", "--seed", "4",
                 "--out", str(samples)]) == 0
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps(
        {"poly_exponent": 0.0, "exp_terms": [[1.0, 1.0]]}))
    code, out = run_json(capsys, [
        "fit", "--samples", str(samples), "--column", "value",
        "--shape", str(shape), "--window", "1e-2,0.3"])
    assert code == 0
    assert "max_abs_residual" in out and out["max_abs_residual"] < 2.0


def test_identity_verb(capsys, uniform2):
    code, out = run_json(capsys, [
        "identity", "--suite", "s2", "--measure", uniform2, "--alpha", "-1",
        "--runs", "4000", "--cutoff", "0.0005", "--checkpoints", "1,2",
        "--seed", "2"])
    assert code == 0
    assert out["pass"] is True
    assert len(out["rows"]) == 2


@pytest.mark.parametrize("suite", ["tagmass", "separation", "joint"])
def test_identity_with_zero_difference_on_every_run(capsys, uniform2, suite):
    # at t = 0 and past every run's extinction both sides agree run by run,
    # so the identity holds exactly: mean difference and stderr are both 0
    code, out = run_json(capsys, [
        "identity", "--suite", suite, "--measure", uniform2, "--alpha", "-1",
        "--runs", "200", "--cutoff", "0.01", "--checkpoints", "0,1e6"])
    assert code == 0
    assert [(r["mean_diff"], r["stderr"], r["z"]) for r in out["rows"]] \
        == [(0.0, 0.0, 0.0)] * 2


@pytest.mark.parametrize("verb,x", [("phi", "1e200"), ("psi", "1e150"),
                                   ("phi", "1e308")])
def test_large_arguments_warn_of_no_overflow(capsys, stable15, verb, x):
    # the Stirling terms at these arguments reach z ~ 1e200 and take 1/z
    # squared, which underflows quietly, where z squared would overflow; at
    # 1e308 they take 1/z over 12, where 12 z would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([verb, "--measure", stable15, "--x", x])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert all(math.isfinite(v) for v in json.loads(captured.out).values()
               if isinstance(v, float))


def test_exit_codes(capsys, uniform2, stable2, stable15):
    assert main(["psi", "--measure", uniform2, "--x", "1.0"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    # psi's root past the largest float is psi's domain error, not phi's
    with np.errstate(over="ignore"):
        assert main(["psi", "--measure", stable15, "--x", "1e300"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert err["message"].startswith("psi(1e+300)")
    assert main(["simulate", "--measure", stable2, "--alpha", "-1",
                 "--runs", "5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnsupportedSampling"
    assert main(["phi", "--measure", "/nonexistent.json", "--x", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", "-1", "--runs", "10", "--cutoff", "0.1"],
    ["identity", "--suite", "s2", "--alpha", "-1", "--runs", "1000"],
    ["verify", "--only", "9"],
], ids=lambda argv: argv[0])
def test_malformed_thread_count_is_a_config_error(capsys, monkeypatch,
                                                  uniform2, argv):
    monkeypatch.setenv("FRAGTAIL_THREADS", "two")
    if argv[0] != "verify":
        argv = argv + ["--measure", uniform2]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("argv,error", [
    (["fit", "--window", "a,b"], "ConfigError"),
    (["fit", "--window", "1e-3"], "ConfigError"),
    (["fit", "--window", "0,0.2"], "ConfigError"),
    (["fit", "--levels", "-1"], "ConfigError"),
    (["fit", "--samples", "bad_cell.csv"], "ConfigError"),
    (["fit", "--samples", "short_row.csv"], "ConfigError"),
    (["fit", "--samples", "empty.csv"], "ConfigError"),
    (["simulate", "--alpha", "-1", "--runs", "10", "--checkpoints", "1,x"],
     "ConfigError"),
    (["simulate", "--checkpoints", "nan,1", "--alpha", "-1", "--runs", "10"],
     "ConfigError"),
    (["simulate", "--checkpoints=-1,0.5", "--alpha", "-1", "--runs", "10"],
     "ConfigError"),
    (["identity", "--suite", "s2", "--alpha", "-1", "--runs", "1000",
      "--checkpoints", "1,x"], "ConfigError"),
    (["zeta-tag", "--alpha", "-1", "--n", "10", "--tol", "0"], "ConfigError"),
    (["zeta-tag", "--alpha", "-1", "--n", "10", "--tol", "nan"],
     "ConfigError"),
    (["zeta-tag", "--alpha", "-1", "--n", "-1"], "ConfigError"),
    (["zeta-tag", "--alpha", "-1", "--n", "0"], "ConfigError"),
    (["hcheck", "--ngrid", "0"], "DomainError"),
    (["simulate", "--alpha", "-1", "--runs", "10", "--workers", "0"],
     "ConfigError"),
    (["simulate", "--alpha", "-1", "--runs", "10", "--workers", "-3"],
     "ConfigError"),
    (["identity", "--suite", "s2", "--alpha", "-1", "--runs", "1000",
      "--workers", "0"], "ConfigError"),
    (["verify", "--only", "8", "--workers", "0"], "ConfigError"),
    (["simulate", "--alpha", "-1", "--runs", "10", "--max-events", "0"],
     "ConfigError"),
    (["phi", "--x", "1", "--measure", "nan_weight.json"], "ConfigError"),
    (["phi", "--x", "1", "--measure", "huge_weights.json"], "ConfigError"),
    (["phi", "--x", "1", "--measure", "huge_scale.json"], "ConfigError"),
    (["simulate", "--alpha", "-1", "--runs", "3", "--cutoff", "0.01",
      "--measure", "text_scale.json"], "ConfigError"),
    (["phi", "--x", "nan"], "DomainError"),
    (["phi", "--x", "inf"], "DomainError"),
    (["hcheck", "--xmax", "nan"], "DomainError"),
    (["hcheck", "--xmax", "inf"], "DomainError"),
    (["tail", "--mode", "family", "--alpha", "-1", "--t", "nan"],
     "DomainError"),
    (["tail", "--mode", "family", "--alpha", "-1", "--t", "-5"],
     "DomainError"),
    (["tail", "--mode", "expansion", "--alpha", "-1", "--t", "nan"],
     "DomainError"),
    (["tail", "--mode", "expansion", "--alpha", "-1", "--t", "-5"],
     "DomainError"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_malformed_options_fail_with_a_json_error(tmp_path, monkeypatch,
                                                  capsys, uniform2, argv,
                                                  error):
    if argv[0] == "fit":
        monkeypatch.chdir(tmp_path)
        good = "run_id,extinction_est\n" + "0,1.0\n" * 200
        for name, text in (("samples.csv", good),
                           ("bad_cell.csv", good + "1,x\n"),
                           ("short_row.csv", good + "1\n"),
                           ("empty.csv", "")):
            (tmp_path / name).write_text(text)
        (tmp_path / "shape.json").write_text(json.dumps(
            {"poly_exponent": 0.0, "exp_terms": [[1.0, 1.0]]}))
        if "--samples" not in argv:
            argv = argv + ["--samples", "samples.csv"]
        argv = argv + ["--shape", "shape.json"]
    elif "--measure" in argv:
        monkeypatch.chdir(tmp_path)
        atom = {"weight": math.nan, "parts": [0.5, 0.5]}
        (tmp_path / "nan_weight.json").write_text(json.dumps(
            {"family": "atomic", "params": {"atoms": [atom]}}))
        (tmp_path / "text_scale.json").write_text(json.dumps(
            {"family": "uniform-k", "params": {"k": 2}, "scale": "abc"}))
        # each weight and the scale are finite, the total rate is not
        huge = {"weight": 1e308, "parts": [0.5, 0.5]}
        (tmp_path / "huge_weights.json").write_text(json.dumps(
            {"family": "atomic", "params": {"atoms": [huge, huge]}}))
        ten = {"weight": 10.0, "parts": [0.5, 0.5]}
        (tmp_path / "huge_scale.json").write_text(json.dumps(
            {"family": "atomic", "params": {"atoms": [ten]}, "scale": 1e308}))
    elif argv[0] != "verify":
        argv = argv + ["--measure", uniform2]
    assert main(argv) == (2 if error == "ConfigError" else 1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


@pytest.mark.parametrize("argv,workers", [([], 2), (["--workers", "1"], 1)])
def test_simulate_records_the_worker_count_it_used(tmp_path, monkeypatch,
                                                   uniform2, argv, workers):
    monkeypatch.setenv("FRAGTAIL_THREADS", "2")
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--measure", uniform2, "--alpha", "-1",
                 "--runs", "10", "--cutoff", "0.01", "--out", str(out)]
                + argv) == 0
    config = json.loads(out.read_text().splitlines()[0][2:])
    assert config["workers"] == workers


@pytest.mark.parametrize("family,params,error", [
    ("beta", {"a": 2, "b": 3}, 1e-9), ("uniform-k", {"k": 2}, 0.0),
    ("identical-k", {"k": 2}, None)])
def test_simulate_config_line_shows_the_split_sampler_error(
        tmp_path, family, params, error):
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"family": family, "params": params}))
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--measure", str(measure), "--alpha", "-1",
                 "--runs", "10", "--cutoff", "0.01", "--workers", "1",
                 "--out", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0][2:])
    if error is None:
        assert "split_ks_error" not in config
    else:
        assert 0.0 <= config["split_ks_error"] <= error


@pytest.mark.parametrize("shape_text", ["", '{"exp_terms": [[1.0, 1.0]]}'],
                         ids=["empty", "no-poly-exponent"])
def test_unreadable_fit_shape_is_a_config_error(tmp_path, capsys,
                                                shape_text):
    samples = tmp_path / "samples.csv"
    samples.write_text("extinction_est\n" + "1.0\n" * 200)
    shape = tmp_path / "shape.json"
    shape.write_text(shape_text)
    assert main(["fit", "--samples", str(samples),
                 "--shape", str(shape)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ConfigError"


@pytest.mark.parametrize("only", ["99", "x", "1,99"])
def test_verify_unknown_criterion_is_a_config_error(capsys, only):
    assert main(["verify", "--only", only]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ConfigError"
    with pytest.raises(ConfigError):
        acceptance.run_criterion(99)


def test_identity_restart_suite_off_unit_alpha(capsys, uniform2):
    # at alpha = -0.5 the restarted masses enter as m**|alpha|: left at
    # power 1, the KS distance reads 0.14-0.16 against this 1% gate of 0.073
    code, out = run_json(capsys, [
        "identity", "--suite", "restart", "--measure", uniform2,
        "--alpha", "-0.5", "--runs", "1000", "--cutoff", repr(2.0 ** -12),
        "--seed", "2", "--workers", "1"])
    assert code == 0 and out["pass"] is True
    assert out["ks_statistic"] < out["ks_threshold_1pct"]
