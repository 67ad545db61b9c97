"""File formats and the command-line surface: lossless round-trips, format
errors with line numbers, determinism, and the exit-code contract."""

import argparse
import ast
import dataclasses
import filecmp
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import impactlab
from impactlab import (
    ConditionalResponse,
    EstimationError,
    FormatError,
    ImpactConfig,
    InputError,
    Kernel,
    LagCurve,
    ParameterError,
    SearchBudgetError,
    SignSeries,
    TradeTape,
    VolumeSeries,
    cli,
    gen_iid_signs,
    gen_volumes,
    predict_response,
    propagator_path,
    surprise_path,
)
from impactlab import estimators, exceptions, experiment, orderflow
from impactlab import io as iolib
from impactlab.exceptions import ensure
from impactlab.experiment import ExperimentConfig, expand_seeds, invert_stage, provenance
from impactlab.io import (
    config_sha256,
    read_curve,
    read_json,
    read_kernel,
    read_tape,
    write_curve,
    write_json,
    write_kernel,
    write_tape,
)


def _priced_tape(n=50, seed=3):
    tape = TradeTape(gen_iid_signs(n, 0.5, seed), gen_volumes(n, "lognormal", seed=seed + 1))
    p = propagator_path(tape, ImpactConfig(lam=0.1, noise_sigma=0.2, p0=100.0), seed=seed + 2)
    return TradeTape(tape.signs, tape.volumes, p)


def test_tape_round_trip_is_lossless(tmp_path):
    tape = _priced_tape()
    path = str(tmp_path / "tape.csv")
    write_tape(tape, path)
    back = read_tape(path)
    assert np.array_equal(back.eps, tape.eps)
    assert np.array_equal(back.v, tape.v)
    assert np.array_equal(back.prices, tape.prices)


def test_unpriced_tape_round_trip(tmp_path):
    tape = TradeTape(gen_iid_signs(20, 0.5, 1), gen_volumes(20))
    path = str(tmp_path / "bare.csv")
    write_tape(tape, path)
    back = read_tape(path)
    assert back.prices is None
    assert np.array_equal(back.eps, tape.eps)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_tape_format_errors_carry_line_numbers(tmp_path):
    cases = [
        ("head.csv", "x,epsilon,volume\n", "line 1"),
        ("eps.csv", "n,epsilon,volume\n0,0,1.0\n", "line 2"),
        ("vol.csv", "n,epsilon,volume\n0,1,-2.0\n", "line 2"),
        ("seq.csv", "n,epsilon,volume\n0,1,1.0\n5,1,1.0\n", "line 3"),
        ("width.csv", "n,epsilon,volume\n0,1\n", "line 2"),
        ("num.csv", "n,epsilon,volume\n0,1,abc\n", "line 2"),
        ("trail.csv", "n,epsilon,volume,price\n0,1,1.0,100.0\n", "line 3"),
        ("after.csv", "n,epsilon,volume,price\n0,1,1.0,100.0\n1,,,100.1\n2,1,1.0,100.2\n", "line 4"),
    ]
    for name, text, needle in cases:
        with pytest.raises(FormatError, match=needle):
            read_tape(_write(tmp_path / name, text))


def test_missing_files_are_input_errors(tmp_path):
    for path in (tmp_path / "nope.csv", tmp_path):  # missing, or a directory
        with pytest.raises(InputError, match=re.escape(f"cannot read {path}")):
            read_tape(str(path))
    with pytest.raises(InputError):
        read_json(str(tmp_path / "nope.json"))


def test_curve_round_trip_with_and_without_se(tmp_path):
    lags = np.arange(1, 9)
    c = LagCurve(lags, lags**-0.5, np.full(8, 100), "response", lags * 0.01)
    path = str(tmp_path / "curve.csv")
    write_curve(c, path)
    back = read_curve(path, "response")
    assert np.array_equal(back.lags, c.lags)
    assert np.array_equal(back.values, c.values)
    assert np.array_equal(back.se, c.se)
    bare = LagCurve(lags, lags**-0.5, np.full(8, 100), "sign_autocorr")
    write_curve(bare, str(tmp_path / "bare.csv"))
    back2 = read_curve(str(tmp_path / "bare.csv"), "sign_autocorr")
    assert back2.se is None and back2.role_tag == "sign_autocorr"


def test_kernel_round_trip_and_analytic_serialization(tmp_path):
    tab = Kernel.tabulated(np.arange(1, 9.0) ** -0.3)
    path = str(tmp_path / "kernel.csv")
    write_kernel(tab, path, se_proxy=np.full(8, 0.01))
    back, se = read_kernel(path)
    assert np.array_equal(back.values, tab.values)
    assert np.allclose(se, 0.01)
    with pytest.raises(ParameterError):
        write_kernel(Kernel.power_law(0.3), str(tmp_path / "p.csv"))  # not tabulated


def test_kernel_se_proxy_is_blank_for_a_square_inversion(tmp_path):
    lags = np.arange(1, 129)
    c = LagCurve(lags, 0.4 * lags**-0.6, np.full(128, 1000), "sign_autocorr")
    r = predict_response(Kernel.power_law(0.25), c, 1.0, 1.0, 1.0, max_lag=64, j_tail=128)
    # one kernel lag per equation: no residual degrees of freedom, no proxy
    square = str(tmp_path / "square")
    os.makedirs(square)
    rep, _, files = invert_stage(r, c, 1.0, 1.0, 1.0, square, j_tail=128)
    assert rep["equations"] == 64 and "se_proxy" not in rep
    path = os.path.join(square, files["kernel"])
    rows = Path(path).read_text().splitlines()[1:]
    assert len(rows) == 64 and all(row.endswith(",") for row in rows)
    assert read_kernel(path)[1] is None
    # over-determined: 64 equations for 32 lags keep a finite proxy per lag
    over = str(tmp_path / "over")
    os.makedirs(over)
    invert_stage(r, c, 1.0, 1.0, 1.0, over, 32, j_tail=128)
    _, se = read_kernel(os.path.join(over, "kernel.csv"))
    assert se.size == 32 and np.all(np.isfinite(se)) and np.all(se >= 0)


def test_json_round_trip_is_sorted_and_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json({"b": 1, "a": [1, 2]}, p1)
    write_json({"a": [1, 2], "b": 1}, p2)
    assert Path(p1).read_text() == Path(p2).read_text()
    assert read_json(p1) == {"a": [1, 2], "b": 1}
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParameterError):
        read_json(str(bad))


def test_config_hash_ignores_key_order():
    assert config_sha256({"x": 1, "y": 2}) == config_sha256({"y": 2, "x": 1})
    assert config_sha256({"x": 1}) != config_sha256({"x": 2})


@pytest.mark.parametrize("seed", [3, [1, 2]])
def test_numpy_seeds_hash_and_simulate_like_their_int_twins(tmp_path, seed):
    """A config may hold numpy integer seeds: its hash, tapes and meta JSON
    are those of the same config with Python ints."""
    numpy_seed = np.int64(seed) if isinstance(seed, int) else [np.int64(s) for s in seed]
    cfg, twin = ExperimentConfig(n=64, seed=numpy_seed), ExperimentConfig(n=64, seed=seed)
    assert cfg.sha256() == twin.sha256()
    for s in expand_seeds(seed):
        (tape, meta), (twin_tape, twin_meta) = (experiment.simulate(cfg, np.int64(s)),
                                                experiment.simulate(twin, s))
        assert np.array_equal(tape.eps, twin_tape.eps) and np.array_equal(tape.v, twin_tape.v)
        assert np.array_equal(tape.prices, twin_tape.prices)
        write_json(meta, str(tmp_path / "meta.json"))
        write_json(twin_meta, str(tmp_path / "twin.json"))
        assert filecmp.cmp(tmp_path / "meta.json", tmp_path / "twin.json", shallow=False)


def test_config_sections_are_stored_resolved():
    """A section spelling out some defaults or none hashes, and prints, as the
    resolved section it stands for."""
    bare = ExperimentConfig.from_dict({"n": 100})
    assert ExperimentConfig.from_dict({"n": 100, "estimator": {}}).sha256() == bare.sha256()
    spelled = {"n": 100, "estimator": {"max_lag": bare.estimator["max_lag"]}}
    assert ExperimentConfig.from_dict(spelled).sha256() == bare.sha256()
    assert bare.estimator == experiment._default_estimator()
    partial = ExperimentConfig.from_dict({"n": 100, "manip": {"betas": [0.5]}})
    assert partial.manip == {**experiment._default_manip(), "betas": [0.5]}
    assert partial.sha256() == ExperimentConfig.from_dict(partial.to_dict()).sha256()
    # an integer setting spelled as a float is stored, and hashes, as the integer
    as_float = ExperimentConfig.from_dict({"n": 100, "estimator": {"max_lag": 256.0}})
    assert as_float.estimator["max_lag"] == 256 and as_float.sha256() == bare.sha256()
    budget = ExperimentConfig.from_dict({"n": 100, "manip": {"budget": 1e7}})
    assert budget.sha256() == ExperimentConfig.from_dict({"n": 100, "manip": {}}).sha256()
    # a float setting spelled as an integer is stored, and hashes, as the float
    for section, as_int, as_float in (
            ("manip", {"lam": 1}, {}),
            ("manip", {"grid": [1, 2, 4, 8]}, {}),
            ("model", {"kind": "kyle", "lam": 1}, {"kind": "kyle", "lam": 1.0}),
            ("volumes", {"dist": "constant", "value": 2}, {"dist": "constant", "value": 2.0}),
            ("estimator", {"rho_psi_weight": 1}, {})):
        cfg = ExperimentConfig.from_dict({"n": 100, section: as_int})
        assert cfg.sha256() == ExperimentConfig.from_dict({"n": 100, section: as_float}).sha256()
        assert cfg.to_dict() == ExperimentConfig.from_dict(cfg.to_dict()).to_dict()
    kernel = {"form": "power_law", "beta": 1, "g1": 2}
    cfg = ExperimentConfig.from_dict({"n": 100, "model": {"kind": "propagator", "kernel": kernel}})
    assert cfg.model["kernel"] == {"form": "power_law", "beta": 1.0, "g1": 2.0}
    assert all(type(v) is float for v in cfg.model["kernel"].values() if v != "power_law")


@pytest.mark.parametrize("key", ["kernel", "predictor"])
def test_a_null_spec_stands_for_no_spec(key):
    cfg = ExperimentConfig.from_dict({"n": 100, "model": {"kind": "kyle", key: None}})
    assert cfg.model[key] is None and cfg.predictor is None
    assert cfg.impact == ExperimentConfig(n=100).impact


def test_experiment_config_round_trips_losslessly():
    cfg = ExperimentConfig(
        n=100, seed=[1, 3],
        generator={"kind": "markov", "c1": 0.3},
        volumes={"dist": "lognormal", "mu": 0.0, "sigma": 0.5},
        model={"kind": "kyle", "lam": 0.5},
    )
    d = cfg.to_dict()
    assert ExperimentConfig.from_dict(d).to_dict() == d
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({})
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"n": 10, "bogus": 1})


def test_cli_simulate_is_byte_deterministic(tmp_path):
    argv = ["simulate", "--n", "300", "--model", "kyle", "--lam", "0.1",
            "--noise-sigma", "0.2", "--seed", "5"]
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(argv + ["--out-dir", da]) == 0
    assert cli.main(argv + ["--out-dir", db]) == 0
    assert filecmp.cmp(os.path.join(da, "tape_seed5.csv"),
                       os.path.join(db, "tape_seed5.csv"), shallow=False)
    assert filecmp.cmp(os.path.join(da, "meta_seed5.json"),
                       os.path.join(db, "meta_seed5.json"), shallow=False)


def test_cli_simulate_seed_range_writes_per_seed_files(tmp_path):
    out = str(tmp_path / "multi")
    rc = cli.main(["simulate", "--n", "100", "--seed", "1:3", "--out-dir", out])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "simulate_summary.json" in names
    assert {"tape_seed1.csv", "tape_seed2.csv", "tape_seed3.csv"} <= set(names)


def test_cli_measure_then_invert_recovers_a_rough_kernel(tmp_path):
    out = str(tmp_path / "sim")
    rc = cli.main(["simulate", "--n", "16384", "--generator", "clipped_fractional",
                   "--gamma", "0.5", "--model", "propagator", "--beta", "0.25",
                   "--lam", "1", "--psi", "1", "--seed", "2", "--out-dir", out])
    assert rc == 0
    meas = str(tmp_path / "meas")
    rc = cli.main(["measure", os.path.join(out, "tape_seed2.csv"),
                   "--max-lag", "64", "--sign-max-lag", "128", "--out-dir", meas])
    assert rc == 0
    fits = read_json(os.path.join(meas, "tape_seed2_fits.json"))
    assert fits["errors"] == {}
    assert fits["notes"]["conditional"] == "skipped: constant volumes"
    assert 0.2 < fits["gamma_hat"]["exponent"] < 0.7
    inv = str(tmp_path / "inv")
    rc = cli.main(["invert",
                   "--response", os.path.join(meas, "tape_seed2_response.csv"),
                   "--autocorr", os.path.join(meas, "tape_seed2_sign_autocorr.csv"),
                   "--lam", "1", "--psi", "1", "--v", "1",
                   "--kernel-lags", "32", "--j-tail", "128", "--out-dir", inv])
    assert rc == 0
    report = read_json(os.path.join(inv, "invert_report.json"))
    assert 0.1 < report["beta_hat"]["exponent"] < 0.4 and report["errors"] == {}
    kern, se = read_kernel(os.path.join(inv, "kernel.csv"))
    assert kern.values.size == 32 and se is not None

    # default kernel length: one kernel lag per response lag, so the 128
    # response lags are solved exactly
    long = str(tmp_path / "long")
    assert cli.main(["measure", os.path.join(out, "tape_seed2.csv"), "--max-lag", "128",
                     "--sign-max-lag", "128", "--out-dir", long]) == 0
    rc = cli.main(["invert",
                   "--response", os.path.join(long, "tape_seed2_response.csv"),
                   "--autocorr", os.path.join(long, "tape_seed2_sign_autocorr.csv"),
                   "--out-dir", long])
    assert rc == 0
    report = read_json(os.path.join(long, "invert_report.json"))
    kern, _ = read_kernel(os.path.join(long, "kernel.csv"))
    assert report["equations"] == kern.values.size == 128
    r = read_curve(os.path.join(long, "tape_seed2_response.csv"), "response")
    assert report["residual_norm"] < 1e-9 * np.linalg.norm(r.values)


def test_cli_measure_partial_failure_keeps_other_curves(tmp_path):
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--n", "60", "--seed", "1", "--model", "kyle",
                     "--lam", "0.1", "--out-dir", out]) == 0
    meas = str(tmp_path / "meas")
    rc = cli.main(["measure", os.path.join(out, "tape_seed1.csv"),
                   "--max-lag", "200", "--sign-max-lag", "16", "--out-dir", meas])
    assert rc == 3  # response lag range exceeds the tape; partial success
    fits = read_json(os.path.join(meas, "tape_seed1_fits.json"))
    assert "response" in fits["errors"]
    assert os.path.exists(os.path.join(meas, "tape_seed1_sign_autocorr.csv"))


def test_cli_measure_burn_cuts_every_curve_but_the_sign_autocorrelation(tmp_path):
    tape = str(tmp_path / "tape.csv")
    write_tape(_priced_tape(n=2000), tape)

    def measure(burn):
        out = tmp_path / f"burn{burn}"
        rc = cli.main(["measure", tape, "--burn", str(burn), "--max-lag", "8",
                       "--sign-max-lag", "8", "--out-dir", str(out)])
        return rc, read_json(str(out / "tape_fits.json")), out

    rc, fits, out = measure(100)
    assert rc == 0 and fits["errors"] == {} and fits["burn"] == 100
    assert read_curve(str(out / "tape_response.csv"), "response").counts[0] == 1900
    assert read_curve(str(out / "tape_sign_autocorr.csv"), "sign_autocorr").counts[0] == 1999
    for burn in (2000, 2010):  # no trade left after the burn-in
        rc, fits, out = measure(burn)
        assert rc == 3
        assert sorted(fits["errors"]) == ["conditional", "diffusivity", "response", "rho"]
        assert (out / "tape_sign_autocorr.csv").exists()


def test_cli_measure_records_its_input_and_estimator_settings(tmp_path):
    tape = tmp_path / "tapes" / "day1.csv"
    tape.parent.mkdir()
    write_tape(_priced_tape(n=2000), str(tape))
    out = tmp_path / "meas"
    assert cli.main(["measure", str(tape), "--cond-lag", "3", "--max-lag", "8",
                     "--sign-max-lag", "8", "--out-dir", str(out)]) == 0
    fits = read_json(str(out / "day1_fits.json"))
    assert fits["input"] == os.path.join("..", "tapes", "day1.csv") and fits["burn"] == 0
    assert fits["estimator"] == {**experiment._default_estimator(), "cond_lag": 3,
                                 "max_lag": 8, "sign_max_lag": 8}
    assert type(fits["estimator"]["rho_psi_weight"]) is float
    assert sorted(os.listdir(out)) == sorted(
        f"day1_{name}" for name in ("response.csv", "sign_autocorr.csv", "diffusivity.csv",
                                    "conditional.csv", "fits.json"))


def test_cli_measure_notes_a_gamma_fit_skipped_on_a_short_curve(tmp_path, capsys):
    """A sign autocorrelation that ends before lag 16 leaves no tail to fit: a
    note, as for constant volumes, not an error, and exit 0."""
    n, tape = 20000, str(tmp_path / "tape.csv")
    flow = TradeTape(orderflow.gen_clipped_fractional_signs(n, 0.5, seed=3),
                     gen_volumes(n, "lognormal", seed=4))
    write_tape(TradeTape(flow.signs, flow.volumes,
                         propagator_path(flow, ImpactConfig(lam=0.1), seed=5)), tape)

    def measure(sign_max_lag):
        out = tmp_path / f"lag{sign_max_lag}"
        rc = cli.main(["measure", tape, "--max-lag", "8", "--sign-max-lag", str(sign_max_lag),
                       "--out-dir", str(out)])
        return rc, read_json(str(out / "tape_fits.json"))

    rc, fits = measure(8)
    assert rc == 0 and fits["errors"] == {} and "gamma_hat" not in fits
    assert fits["notes"] == {"gamma_fit": "skipped: the curve ends before lag 16"}
    rc, fits = measure(16)
    assert rc == 0 and fits["errors"] == {} and "notes" not in fits
    assert fits["gamma_hat"]["fit_range"] == [8.0, 16.0]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags, seed, fit_range", [
    (["--generator", "clipped_fractional", "--gamma", "0.5", "--vol-dist", "lognormal",
      "--model", "propagator", "--beta", "0.25"], 3, [8.0, 249.0]),
    (["--generator", "clipped_fractional", "--gamma", "0.5", "--vol-dist", "lognormal",
      "--model", "propagator", "--beta", "0.25"], 4, [8.0, 156.0]),
    (["--generator", "iid"], 5, None)], ids=["clipped-seed3", "clipped-seed4", "iid-seed5"])
def test_cli_measure_fits_the_positive_stretch_of_a_short_tape(tmp_path, capsys, flags, seed,
                                                              fit_range):
    """On 20000 trades C(l) reaches 0 inside lags 8..512 and the lowest volume
    bins can be negative: gamma is fitted up to the lag before C first reaches
    <= 0 and psi above the last non-positive bin, or a note says why not; exit 0."""
    assert cli.main(["simulate", "--n", "20000", *flags, "--seed", str(seed),
                     "--out-dir", str(tmp_path)]) == 0
    tape = tmp_path / f"tape_seed{seed}.csv"
    assert cli.main(["measure", str(tape), "--out-dir", str(tmp_path)]) == 0
    fits = read_json(str(tmp_path / f"tape_seed{seed}_fits.json"))
    assert fits["errors"] == {} and capsys.readouterr().err == ""
    c = read_curve(str(tmp_path / f"tape_seed{seed}_sign_autocorr.csv"), "sign_autocorr")
    if fit_range is None:  # no memory: C(8) is already <= 0
        assert "gamma_hat" not in fits and c.values[7] <= 0
        assert fits["notes"]["gamma_fit"] == ("skipped: C reaches <= 0 at lag 8, so its "
                                              "positive tail ends before lag 16")
        return
    assert fits["gamma_hat"]["fit_range"] == fit_range
    assert np.all(c.values[7:int(fit_range[1])] > 0) and c.values[int(fit_range[1])] <= 0
    cond = iolib.read_conditional(str(tmp_path / f"tape_seed{seed}_conditional.csv"))
    top = np.flatnonzero(cond.values <= 0)[-1] + 1  # the lowest bins are negative here
    assert fits["psi_hat"]["fit_range"] == [cond.centers[top], cond.centers[-1]]


def test_measure_notes_a_psi_fit_with_fewer_than_four_positive_bins():
    tape = _priced_tape(n=2000)
    results, errors = experiment.measure(tape, {"max_lag": 8, "sign_max_lag": 8, "n_bins": 3})
    assert errors == {} and "psi_hat" not in results["fits"]
    assert results["fits"]["notes"]["psi_fit"] == (
        "skipped: 3 positive bins at the top of the curve, fewer than 4")


def test_measure_returns_the_settings_it_used():
    """measure_stage writes these to the fits JSON rather than resolving the spec again."""
    spec = {"max_lag": 8, "sign_max_lag": 8.0, "n_bins": 3}
    results, _ = experiment.measure(_priced_tape(n=2000), spec)
    assert results["estimator"] == {**experiment._default_estimator(), **spec}
    assert type(results["estimator"]["sign_max_lag"]) is int


def test_cli_report_on_prices_that_never_move_writes_valid_json(tmp_path):
    """D(1) = 0 leaves no diffusion ratio to take: an error, not a NaN (which
    JSON cannot hold) and not a 'diffusive' flag."""
    write_json({"n": 2000, "seed": 4, "model": {"kind": "kyle", "lam": 0.0},
                "estimator": {"max_lag": 16, "sign_max_lag": 32}}, str(tmp_path / "cfg.json"))
    out = tmp_path / "out"
    assert cli.main(["report", "--config", str(tmp_path / "cfg.json"), "--criteria", "none",
                     "--out-dir", str(out)]) == 3

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    fits = json.loads((out / "tape_seed4_fits.json").read_text(), parse_constant=refuse)
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert "D(1) is 0" in fits["errors"]["diffusion_ratio"] and "rho" in fits["errors"]
    for written in (fits, report["fits"]["per_seed"]["4"]):
        assert "diffusion_ratio" not in written and "diffusion_flag" not in written


def test_cli_invert_refuses_mismatched_grids(tmp_path):
    lags = np.arange(1, 9)
    write_curve(LagCurve(lags, lags**-0.3, np.full(8, 10), "response"),
                str(tmp_path / "r.csv"))
    write_curve(LagCurve(lags, 0.2 * lags**-0.5, np.full(8, 10), "sign_autocorr"),
                str(tmp_path / "c.csv"))
    rc = cli.main(["invert", "--response", str(tmp_path / "r.csv"),
                   "--autocorr", str(tmp_path / "c.csv"),
                   "--kernel-lags", "8", "--j-tail", "4096",
                   "--out-dir", str(tmp_path)])
    assert rc == 1  # C horizon shorter than j_tail demands


def test_cli_invert_default_j_tail_follows_the_autocorrelation(tmp_path):
    lags = np.arange(1, 9)
    write_curve(LagCurve(lags, lags**-0.3, np.full(8, 10), "response"),
                str(tmp_path / "r.csv"))
    c_lags = np.arange(1, 17)
    write_curve(LagCurve(c_lags, 0.2 * c_lags**-0.5, np.full(16, 10), "sign_autocorr"),
                str(tmp_path / "c.csv"))
    rc = cli.main(["invert", "--response", str(tmp_path / "r.csv"),
                   "--autocorr", str(tmp_path / "c.csv"),
                   "--kernel-lags", "8", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = read_json(tmp_path / "invert_report.json")
    assert report["j_tail"] == 16  # min(4096, last autocorrelation lag)


def test_cli_invert_exits_three_when_the_beta_hat_fit_fails(tmp_path, capsys):
    """A negative response inverts to a negative kernel, which has no power-law
    fit: the error is recorded and printed, every file is written, exit 3."""
    lags = np.arange(1, 9)
    write_curve(LagCurve(lags, -(lags**-0.3), np.full(8, 10), "response"),
                str(tmp_path / "r.csv"))
    c_lags = np.arange(1, 17)
    write_curve(LagCurve(c_lags, 0.2 * c_lags**-0.5, np.full(16, 10), "sign_autocorr"),
                str(tmp_path / "c.csv"))
    out = tmp_path / "inv"
    rc = cli.main(["invert", "--response", str(tmp_path / "r.csv"),
                   "--autocorr", str(tmp_path / "c.csv"),
                   "--kernel-lags", "8", "--out-dir", str(out)])
    assert rc == 3
    report = read_json(out / "invert_report.json")
    assert "beta_hat" not in report and list(report["errors"]) == ["beta_fit"]
    assert capsys.readouterr().err.splitlines() == [
        f"invert: beta_fit: {report['errors']['beta_fit']}"]
    assert sorted(os.listdir(out)) == ["invert_report.json", "kernel.csv"]


def _invert_a_flat_response(tmp_path, autocorr):
    """invert of R = 1 on lags 1..8 against C = autocorr(l) on lags 1..64,
    with 8 kernel lags and j_tail 8: the exit code and output directory."""
    r_lags, c_lags = np.arange(1, 9), np.arange(1, 65)
    r, c, out = str(tmp_path / "r.csv"), str(tmp_path / "c.csv"), tmp_path / "inv"
    write_curve(LagCurve(r_lags, np.ones(8), np.full(8, 10), "response"), r)
    write_curve(LagCurve(c_lags, autocorr(c_lags), np.full(64, 10), "sign_autocorr"), c)
    rc = cli.main(["invert", "--response", r, "--autocorr", c, "--kernel-lags", "8",
                   "--j-tail", "8", "--out-dir", str(out)])
    return rc, out


def test_cli_invert_refuses_a_singular_system(tmp_path, capsys):
    """C = 1 at every lag makes the system's columns equal: exit 3, no output."""
    rc, out = _invert_a_flat_response(tmp_path, lambda lags: np.ones(lags.size))
    assert rc == 3
    assert capsys.readouterr().err == "impactlab: NumericError: inversion matrix is singular\n"
    assert not out.exists()


def test_cli_invert_notes_an_ill_conditioned_system(tmp_path, capsys):
    """C = 1 - 1e-9 l leaves the columns all but equal: the report flags the
    condition, about 2.75e10, and the note is printed on stderr."""
    rc, out = _invert_a_flat_response(tmp_path, lambda lags: 1.0 - 1e-9 * lags)
    report = read_json(out / "invert_report.json")
    assert report["ill_conditioned"] is True and report["condition"] > 1e10
    assert f"invert: {report['note']}" in capsys.readouterr().err.splitlines()
    assert rc == 3 and list(report["errors"]) == ["beta_fit"]  # the kernel has no power-law fit


def test_cli_invert_and_manip_reports_record_provenance(tmp_path):
    """Both reports carry the versions their bytes depend on, as every other
    JSON output does."""
    lags = np.arange(1, 9)
    write_curve(LagCurve(lags, lags**-0.3, np.full(8, 10), "response"),
                str(tmp_path / "r.csv"))
    write_curve(LagCurve(lags, 0.2 * lags**-0.5, np.full(8, 10), "sign_autocorr"),
                str(tmp_path / "c.csv"))
    assert cli.main(["invert", "--response", str(tmp_path / "r.csv"),
                     "--autocorr", str(tmp_path / "c.csv"), "--out-dir", str(tmp_path)]) == 0
    assert cli.main(["manip", "--betas", "0", "--psis", "0.5", "--max-len", "3",
                     "--out-dir", str(tmp_path)]) == 0
    for name in ("invert_report.json", "manip_report.json"):
        rep = read_json(tmp_path / name)
        assert rep["provenance"] == provenance() and "version" not in rep, name


def test_cli_manip_writes_the_frontier_grid(tmp_path):
    out = str(tmp_path / "man")
    rc = cli.main(["manip", "--betas", "0,0.8", "--psis", "1,0.3",
                   "--max-len", "6", "--grid", "1,5", "--out-dir", out])
    assert rc == 0
    rows = Path(out, "frontier.csv").read_text().splitlines()
    assert rows[0] == "beta,psi,min_cost,argmin_strategy"
    assert len(rows) == 5
    cells = [r.split(",") for r in rows[1:]]
    concave = [c for c in cells if float(c[0]) == 0.0 and float(c[1]) == 0.3]
    assert concave and float(concave[0][2]) < 0
    assert concave[0][3].startswith("1:")  # strategies anchor at slot 1


def test_cli_manip_budget_refusal_exits_three(tmp_path):
    rc = cli.main(["manip", "--betas", "0", "--psis", "0.5", "--max-len", "10",
                   "--grid", "1,2,4,8,9", "--budget", "100",
                   "--out-dir", str(tmp_path)])
    assert rc == 3


def test_cli_report_runs_a_criterion(tmp_path):
    out = str(tmp_path / "rep")
    rc = cli.main(["report", "--criteria", "10", "--out-dir", out])
    assert rc == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["acceptance"][0]["number"] == 10
    assert rep["acceptance"][0]["passed"] is True


@pytest.mark.parametrize("criteria", ["12,12", "7,14"])
def test_cli_report_refuses_a_repeated_or_unknown_criterion(tmp_path, capsys, criteria):
    """A usage error, exit 1, before the config's stages write anything."""
    out = str(tmp_path / "rep")
    write_json(_PIPELINE_CFG, str(tmp_path / "cfg.json"))
    assert cli.main(["report", "--config", str(tmp_path / "cfg.json"), "--criteria", criteria,
                     "--out-dir", out]) == 1
    assert "impactlab: error: " in capsys.readouterr().err
    assert not os.path.exists(out)


_PIPELINE_CFG = {
    "n": 4096, "seed": [1, 2],
    "generator": {"kind": "clipped_fractional", "gamma": 0.5},
    "volumes": {"dist": "lognormal", "mu": 0.0, "sigma": 0.5},
    "model": {"kind": "propagator", "lam": 1.0, "psi": 0.5,
              "kernel": {"form": "power_law", "beta": 0.25}},
    "estimator": {"max_lag": 16, "sign_max_lag": 32, "rho_window": 8,
                  "invert_lags": 8, "j_tail": 31},
    "manip": {"max_len": 6, "grid": [1, 5]},  # betas and psis as manip's defaults
}


def _report_with_config(tmp_path, out: str) -> int:
    cfg_path = str(tmp_path / "cfg.json")
    write_json(_PIPELINE_CFG, cfg_path)
    return cli.main(["report", "--config", cfg_path, "--criteria", "none", "--out-dir", out])


def test_cli_report_full_pipeline_with_config(tmp_path):
    out = str(tmp_path / "pipe")
    assert _report_with_config(tmp_path, out) == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["provenance"]["config_sha256"]
    assert rep["provenance"]["seeds"] == [1, 2]
    assert "pooled" in rep["fits"] and rep["errors"] == {}
    # every power-law fit is recorded in one form
    fit_keys = {f.name for f in dataclasses.fields(estimators.PowerLawFit)}
    for record in (rep["fits"]["pooled"]["gamma_hat"], rep["fits"]["per_seed"]["1"]["psi_hat"],
                   rep["invert"]["beta_hat"]):
        assert set(record) == fit_keys
    assert os.path.exists(os.path.join(out, "pooled_response.csv"))
    assert os.path.exists(os.path.join(out, "kernel.csv"))

    # report runs the stages the subcommands run: same files from the same inputs
    alone = str(tmp_path / "alone")
    assert cli.main(["simulate", "--config", str(tmp_path / "cfg.json"),
                     "--out-dir", alone]) == 0
    names = []
    for s in (1, 2):
        assert cli.main(["measure", os.path.join(alone, f"tape_seed{s}.csv"),
                         "--max-lag", "16", "--sign-max-lag", "32", "--rho-window", "8",
                         "--out-dir", alone]) == 0
        names += [f"tape_seed{s}.csv", f"meta_seed{s}.json", f"tape_seed{s}_fits.json"]
        names += [f"tape_seed{s}_{c}.csv" for c in
                  ("response", "sign_autocorr", "diffusivity", "conditional")]
    assert cli.main(["manip", "--max-len", "6", "--grid", "1,5", "--out-dir", alone]) == 0
    names.append("frontier.csv")
    for name in names:
        assert filecmp.cmp(os.path.join(out, name), os.path.join(alone, name),
                           shallow=False), name


def test_cli_report_bytes_do_not_depend_on_the_output_directory(tmp_path):
    outs = [str(tmp_path / "a"), str(tmp_path / "elsewhere" / "b")]
    for out in outs:
        assert _report_with_config(tmp_path, out) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "report.json" in names
    for name in names:
        assert filecmp.cmp(os.path.join(outs[0], name), os.path.join(outs[1], name),
                           shallow=False), name


def test_cli_commands_run_with_scipy_unimportable(tmp_path):
    """numpy is the only runtime dependency: all five commands, both price
    engines among them, run where importing scipy fails."""
    cfg_path = str(tmp_path / "cfg.json")
    write_json({**_PIPELINE_CFG, "manip": {"betas": [0.0], "psis": [0.5], "max_len": 4}},
               cfg_path)
    out, rep = str(tmp_path), str(tmp_path / "rep")
    stem = str(tmp_path / "tape_seed1")
    code = "\n".join([
        "import sys",
        "class NoScipy:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.split('.')[0] == 'scipy':",
        "            raise ImportError('scipy is not importable here: ' + name)",
        "sys.meta_path.insert(0, NoScipy())",
        "import impactlab.cli as cli",
        # 5 coefficients x 4096 trades: large enough that no small-size
        # shortcut would skip the FFT convolution
        f"assert cli.main(['simulate', '--n', '4096', '--model', 'surprise',"
        f" '--ar-coeffs', '0.3,0.1,0.05,0.02,0.01', '--seed', '2',"
        f" '--out-dir', {out!r}]) == 0",
        f"assert cli.main(['simulate', '--n', '4096', '--generator', 'clipped_fractional',"
        f" '--gamma', '0.5', '--model', 'propagator', '--beta', '0.25',"
        f" '--seed', '1', '--out-dir', {out!r}]) == 0",
        f"assert cli.main(['measure', {stem + '.csv'!r}, '--max-lag', '16',"
        f" '--sign-max-lag', '32', '--out-dir', {out!r}]) == 0",
        f"assert cli.main(['invert', '--response', {stem + '_response.csv'!r},"
        f" '--autocorr', {stem + '_sign_autocorr.csv'!r}, '--out-dir', {out!r}]) == 0",
        f"assert cli.main(['manip', '--betas', '0', '--psis', '0.5', '--max-len', '4',"
        f" '--out-dir', {out!r}]) == 0",
        f"assert cli.main(['report', '--config', {cfg_path!r}, '--criteria', 'none',"
        f" '--out-dir', {rep!r}]) == 0",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_the_package_exports_each_module_list_once():
    modules = [importlib.import_module(f"impactlab.{name}") for name in (
        "exceptions", "orderflow", "impact", "estimators", "manipulation", "experiment",
        "acceptance")]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names) == len(impactlab.__all__) - 1
    assert set(impactlab.__all__) == {"__version__", *names}
    assert all(getattr(impactlab, name) is getattr(module, name)
               for module in modules for name in module.__all__)


def _bare_parameter_checks(package: Path) -> list:
    """`if` statements with no else whose only statement raises a
    ParameterError, as file:line, outside `ensure` itself."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and f.name == "ensure" for n in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.If) and not node.orelse and len(node.body) == 1
                  and isinstance(node.body[0], ast.Raise)
                  and isinstance(node.body[0].exc, ast.Call)
                  and getattr(node.body[0].exc.func, "id", None) == "ParameterError"
                  and id(node) not in helper]
    return found


def test_every_parameter_check_states_what_must_hold():
    """A check written as `if <breach>: raise ParameterError(...)` lets NaN
    through, since every comparison with NaN is false; ensure(<rule>) refuses it."""
    assert _bare_parameter_checks(Path(impactlab.__file__).parent) == []


# the rules over a file's rows that the types state and the readers apply
_ROW_RULES = ["epsilon must be -1 or 1", "volume must be positive and finite",
              "price must be finite", "value must be finite", "count must be >= 1",
              "lags must be positive and strictly increasing",
              "bin edges must be finite, positive, 0 < v_lo < v_hi",
              "bins must be increasing and disjoint, v_lo >= the v_hi above",
              "tabulated kernel values must be finite"]


def test_each_row_rule_is_stated_once_and_io_has_no_check_of_its_own():
    """A row rule lives in its type alone: its message is one string in the
    package, and io.py finds no failing row itself (no np.all, np.any or
    np.argmin), leaving that to `ensure`."""
    package = Path(impactlab.__file__).parent
    strings = [node.value for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert {rule: strings.count(rule) for rule in _ROW_RULES} == dict.fromkeys(_ROW_RULES, 1)
    io_tree = ast.parse((package / "io.py").read_text())
    assert not [node.lineno for node in ast.walk(io_tree)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"
                and node.attr in ("all", "any", "argmin")]
    assert not hasattr(iolib, "_require") and not hasattr(iolib, "_curve_rows")


def test_ensure_names_the_first_row_that_breaks_a_rule_over_rows():
    with pytest.raises(ParameterError, match="^x must be positive$") as exc:
        ensure(np.array([1.0, 2.0, np.nan, -1.0]) > 0, "x must be positive")
    assert exc.value.row == 2
    with pytest.raises(ParameterError) as exc:
        ensure(False, "a rule over no rows")
    assert exc.value.row is None


def test_every_error_class_survives_a_pickle_round_trip():
    """A worker's error reaches the parent pickled, through the worker's pipe."""
    with pytest.raises(ParameterError) as row_error:
        ensure(np.array([1.0, -1.0]) > 0, "x must be positive")
    errors = [row_error.value, SearchBudgetError(12, 10)]
    errors += [getattr(exceptions, name)(f"{name} message") for name in exceptions.__all__
               if name not in ("ParameterError", "SearchBudgetError")]
    assert sorted(type(e).__name__ for e in errors) == sorted(exceptions.__all__)
    copies = [pickle.loads(pickle.dumps(error)) for error in errors]
    assert [(type(c), str(c)) for c in copies] == [(type(e), str(e)) for e in errors]
    assert copies[0].row == 1
    assert (copies[1].count, copies[1].budget) == (12, 10)


def test_the_build_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls its own table a beta
        config = pyprojecttoml.read_configuration(
            str(Path(__file__).parents[1] / "pyproject.toml"), expand=True)
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == impactlab.__version__


def test_provenance_imports_neither_scipy_nor_importlib_metadata():
    code = ("import sys\nimport impactlab.cli\nfrom impactlab.experiment import provenance\n"
            "import numpy\nprov = provenance()\n"
            "assert sorted(prov) == ['numpy', 'python', 'version'], prov\n"
            "assert prov['numpy'] == numpy.__version__, prov\n"
            "late = {'scipy', 'importlib.metadata', 'email'} & set(sys.modules)\n"
            "assert not late, late\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_simulate_provenance_is_the_versions_plus_the_config_hash_and_seed(tmp_path):
    """Each seed's meta and the multi-seed summary record provenance() and
    nothing else beyond the config hash and, per seed, the seed."""
    cfg_path = str(tmp_path / "cfg.json")
    write_json({"n": 300, "seed": [1, 2]}, cfg_path)
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", cfg_path, "--out-dir", out]) == 0
    sha = ExperimentConfig.from_dict(read_json(cfg_path)).sha256()
    for seed in (1, 2):
        meta = read_json(os.path.join(out, f"meta_seed{seed}.json"))
        assert meta["provenance"] == {**provenance(), "config_sha256": sha, "seed": seed}
    summary = read_json(os.path.join(out, "simulate_summary.json"))
    assert summary["provenance"] == {**provenance(), "config_sha256": sha}


def test_cli_config_file_overrides_flags(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    write_json({"generator": {"kind": "markov", "c1": 0.6}, "n": 64}, cfg_path)
    out = str(tmp_path / "o")
    rc = cli.main(["simulate", "--generator", "iid", "--p-buy", "0.9",
                   "--n", "999", "--config", cfg_path, "--seed", "1",
                   "--out-dir", out])
    assert rc == 0
    meta = read_json(os.path.join(out, "meta_seed1.json"))
    assert meta["generator"]["kind"] == "markov"
    assert meta["n"] == 64


@pytest.mark.parametrize("generator, sizes", [
    ({"kind": "clipped_fractional", "gamma": 0.5},
     {"whitening_grid": 16384, "embedding_size": 6000}),
    ({"kind": "clipped_fractional", "gamma": 0.5, "completion": "plain"}, {}),
    ({"kind": "iid", "p_buy": 0.5}, {})], ids=["martingale", "plain", "iid"])
def test_simulate_meta_records_the_clipped_process(generator, sizes):
    """3000 trades, no burn: the grid is the largest power of two <= 8 * 3000
    and the circulant embedding holds m = 2 * 3000 points."""
    _, meta = experiment.simulate(ExperimentConfig(n=3000, generator=generator), 1)
    assert meta["burn"] == 0
    assert {k: meta[k] for k in ("whitening_grid", "embedding_size") if k in meta} == sizes


@pytest.mark.parametrize("model", [
    {"kind": "surprise", "noise_sigma": 0.5, "predictor": {"coeffs": [0.3, 0.1]}},
    {"kind": "propagator", "noise_sigma": 0.5,
     "kernel": {"form": "tabulated", "values": [1.0, 0.6, 0.3]}}],
    ids=["surprise", "tabulated-kernel"])
def test_simulate_prices_the_burned_in_draw_with_the_config_engine(model):
    """The model's engine prices n + 4096 drawn trades, its noise seeded
    apart from the draw, and the first 4096 are cut."""
    cfg, seed = ExperimentConfig.from_dict({"n": 500, "model": model}), 3
    tape, meta = experiment.simulate(cfg, seed)
    full = experiment._draw(cfg, 500 + 4096, seed)
    noise_seed = seed + experiment._NOISE_SEED_OFFSET
    if cfg.predictor is None:
        assert np.array_equal(cfg.impact.kernel.values, [1.0, 0.6, 0.3])
        prices = propagator_path(full, cfg.impact, seed=noise_seed)
    else:
        prices = surprise_path(full, cfg.predictor, cfg.impact, seed=noise_seed)
    assert meta["burn"] == 4096
    assert np.array_equal(tape.eps, full.eps[4096:]) and np.array_equal(tape.v, full.v[4096:])
    assert np.array_equal(tape.prices, prices[4096:])


def test_cli_simulate_config_leaves_unset_sections_at_the_config_defaults(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    write_json({"n": 300, "seed": 1}, cfg_path)
    sim, rep = str(tmp_path / "sim"), str(tmp_path / "rep")
    assert cli.main(["simulate", "--config", cfg_path, "--out-dir", sim]) == 0
    # the default estimator lags exceed 300 trades: measure errors, exit 3
    assert cli.main(["report", "--config", cfg_path, "--criteria", "none",
                     "--out-dir", rep]) == 3
    for name in ("tape_seed1.csv", "meta_seed1.json"):
        assert filecmp.cmp(os.path.join(sim, name), os.path.join(rep, name), shallow=False)
    meta = read_json(os.path.join(sim, "meta_seed1.json"))
    assert meta["model"] == ExperimentConfig().model
    # a flag still builds its section, from the flag defaults
    mixed = str(tmp_path / "mixed")
    assert cli.main(["simulate", "--config", cfg_path, "--lam", "0.5", "--out-dir", mixed]) == 0
    meta = read_json(os.path.join(mixed, "meta_seed1.json"))
    assert meta["model"] == {"kind": "kyle", "lam": 0.5}
    assert meta["volumes"] == ExperimentConfig().volumes
    # without --config every section comes from the flag defaults, as before
    flags = str(tmp_path / "flags")
    assert cli.main(["simulate", "--n", "300", "--seed", "1", "--out-dir", flags]) == 0
    meta = read_json(os.path.join(flags, "meta_seed1.json"))
    assert meta["model"] == {"kind": "kyle"}
    assert meta["volumes"] == {"dist": "constant"}
    assert meta["generator"] == {"kind": "iid", "p_buy": 0.5}


def test_cli_flags_and_config_share_one_set_of_defaults(tmp_path):
    """The same settings as flags, as a config for simulate, and as a config
    for report write the same tape and meta bytes."""
    cfg_path = str(tmp_path / "cfg.json")
    write_json({"n": 300, "seed": 1}, cfg_path)
    dirs = {name: str(tmp_path / name) for name in ("flags", "config", "report")}
    assert cli.main(["simulate", "--n", "300", "--seed", "1", "--out-dir", dirs["flags"]]) == 0
    assert cli.main(["simulate", "--config", cfg_path, "--out-dir", dirs["config"]]) == 0
    # the default estimator lags exceed 300 trades: measure errors, exit 3
    assert cli.main(["report", "--config", cfg_path, "--criteria", "none",
                     "--out-dir", dirs["report"]]) == 3
    for name in ("tape_seed1.csv", "meta_seed1.json"):
        for other in ("config", "report"):
            assert filecmp.cmp(os.path.join(dirs["flags"], name),
                               os.path.join(dirs[other], name), shallow=False), (name, other)


def test_a_section_naming_no_other_kind_is_layered_over_its_default():
    cfg = ExperimentConfig(generator={"p_buy": 0.6}, volumes={"value": 2.0},
                           model={"lam": 0.5})
    assert cfg.generator == {"kind": "iid", "p_buy": 0.6}
    assert cfg.volumes == {"dist": "constant", "value": 2.0}
    assert cfg.model == {"kind": "kyle", "lam": 0.5}
    assert ExperimentConfig(generator={"kind": "iid"}).generator == {"kind": "iid", "p_buy": 0.5}
    markov = {"kind": "markov", "c1": 0.3}
    assert ExperimentConfig(generator=markov).generator == markov


@pytest.mark.parametrize("section, key", [
    ({"n": 300.7}, "n"),
    ({"n": True}, "n"),
    ({"estimator": {"max_lag": 16.9}}, "max_lag"),
    ({"estimator": {"n_bins": True}}, "n_bins"),
    ({"estimator": {"invert_lags": 2.5}}, "invert_lags"),
    ({"estimator": {"j_tail": False}}, "j_tail"),
    ({"manip": {"max_len": 3.9}}, "max_len"),
    ({"manip": {"budget": True}}, "budget"),
])
def test_cli_integer_settings_must_be_exact_integers(tmp_path, capsys, section, key):
    cfg = str(tmp_path / "cfg.json")
    write_json({"n": 600, "seed": 1, **section}, cfg)
    out = tmp_path / "o"
    assert cli.main(["report", "--config", cfg, "--criteria", "none",
                     "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ParameterError" in err and key in err and "integer" in err
    assert not os.path.exists(out / "tape_seed1.csv")


def test_every_integer_setting_has_one_range_entry():
    """Each section's range table holds its integer settings: the defaults
    that are ints, and the inversion keys, which have no default."""
    estimator = (experiment._default_estimator(), experiment._ESTIMATOR_INTS,
                 {"invert_lags", "j_tail"})
    manip = (experiment._default_manip(), experiment._MANIP_INTS, set())
    for defaults, ints, no_default in (estimator, manip):
        assert set(ints) == {k for k, v in defaults.items() if isinstance(v, int)} | no_default
        assert all(least is None or isinstance(least, int) for least in ints.values())


def test_integer_settings_accept_integral_floats(tmp_path):
    cfg = ExperimentConfig(n=300.0, estimator={"max_lag": 16.0, "j_tail": None},
                           manip={"budget": 1e7, "max_len": 2.0})
    assert cfg.n == 300 and isinstance(cfg.n, int)
    out = str(tmp_path / "o")
    assert cli.main(["manip", "--betas", "0.5", "--psis", "1", "--max-len", "2",
                     "--budget", "1e7", "--out-dir", out]) == 0


@pytest.mark.parametrize("seed", [-1, True, [True, 2], [-2, 3], [1, 2, -3], []])
def test_expand_seeds_rejects_negative_and_bool_seeds(seed):
    with pytest.raises(ParameterError):
        expand_seeds(seed)


def test_a_seed_list_names_each_seed_once(tmp_path, capsys):
    """A repeated seed would run one tape twice, its writes racing in two
    workers: report refuses it before it writes anything."""
    with pytest.raises(ParameterError, match="repeats a seed"):
        expand_seeds([1, 1, 1])
    assert expand_seeds([3, 3]) == [3]  # a range of one seed
    cfg, out = str(tmp_path / "cfg.json"), str(tmp_path / "o")
    write_json({"n": 50, "seed": [1, 2, 1]}, cfg)
    assert cli.main(["report", "--config", cfg, "--criteria", "none", "--out-dir", out]) == 1
    assert "repeats a seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_rejects_a_negative_or_bool_seed(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert cli.main(["simulate", "--n", "50", "--seed", "-1", "--out-dir", out]) == 1
    cfg = str(tmp_path / "cfg.json")
    write_json({"n": 50, "seed": [True, 2]}, cfg)
    assert cli.main(["simulate", "--config", cfg, "--out-dir", out]) == 1
    assert capsys.readouterr().err.count("ParameterError") == 2
    assert not os.path.exists(out)


def _subcommands() -> dict:
    """{name: parser} of the CLI's subcommands."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _config_dests(command: str) -> list:
    """The `section.key` dests of one subcommand's flags."""
    return [a.dest for a in _subcommands()[command]._actions if "." in a.dest]


def test_every_flag_dest_is_a_key_its_section_accepts():
    gen_params = {p for g in experiment._GENERATORS.values()
                  for p in inspect.signature(g).parameters}
    accepted = {
        "generator": {"kind"} | gen_params - {"n", "seed"},
        "volumes": {"dist"} | set().union(*orderflow._VOLUME_PARAMS.values()),
        "model": {"kind"} | experiment._IMPACT_KEYS,
        "kernel": experiment._KERNEL_SPEC_KEYS["power_law"][1],
        "predictor": experiment._PREDICTOR_KEYS,
    }
    simulate = _config_dests("simulate")
    assert len(simulate) == 21
    for dest in simulate:
        section, key = dest.split(".")
        assert key in accepted[section], dest
    assert (sorted(_config_dests("measure"))
            == sorted(f"estimator.{k}" for k in experiment._default_estimator()))
    assert (sorted(_config_dests("manip"))
            == sorted(f"manip.{k}" for k in experiment._default_manip()))
    assert _config_dests("invert") == _config_dests("report") == []
    parsers = _subcommands()
    assert all("--out-dir" in p._option_string_actions for p in parsers.values())
    for key, default in experiment._default_estimator().items():
        flag = parsers["measure"]._option_string_actions["--" + key.replace("_", "-")]
        assert flag.dest == f"estimator.{key}" and flag.type is type(default), key


def test_cli_out_dir_env_fallback(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "from_env")
    monkeypatch.setenv("IMPACTLAB_OUT_DIR", env_dir)
    rc = cli.main(["simulate", "--n", "50", "--seed", "1"])
    assert rc == 0
    assert os.path.exists(os.path.join(env_dir, "tape_seed1.csv"))


def test_cli_usage_and_config_errors_exit_one(tmp_path):
    assert cli.main(["simulate", "--no-such-flag"]) == 1
    assert cli.main(["measure", str(tmp_path / "missing.csv")]) == 1
    assert cli.main(["simulate", "--n", "0", "--out-dir", str(tmp_path)]) == 1
    bad_alpha = tmp_path / "bad_alpha"
    assert cli.main(["simulate", "--generator", "metaorder", "--alpha", "2.5", "--n", "50",
                     "--out-dir", str(bad_alpha)]) == 1
    assert not bad_alpha.exists()
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert cli.main(["report", "--config", str(empty),
                     "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--seed", "abc"], "bad --seed 'abc': use an int or first:last"),
    (["simulate", "--seed", "1:x"], "bad --seed '1:x': use an int or first:last"),
    (["manip", "--betas", "x"], "argument --betas: 'x' is not a list of comma-separated numbers"),
    (["report", "--criteria", "1,x"], "bad --criteria '1,x': use all, none, or numbers"),
], ids=["seed", "seed-range", "betas", "criteria"])
def test_cli_usage_errors_name_the_bad_value_and_write_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"impactlab: error: {message}\n")
    assert not out.exists()


def test_cli_without_a_command_prints_the_usage_and_exits_one(capsys):
    assert cli.main([]) == 1
    assert capsys.readouterr().out.startswith("usage: impactlab ")


@pytest.mark.parametrize("flags", [
    ["--beta", "0.25"],  # no --model: kyle
    ["--model", "kyle", "--ar-coeffs", "0.3"],
    ["--model", "surprise", "--ar-coeffs", "0.3", "--beta", "0.25"],
    ["--model", "propagator", "--beta", "0.25", "--ar-coeffs", "0.3"],
], ids=["kyle+kernel", "kyle+predictor", "surprise+kernel", "propagator+predictor"])
def test_cli_simulate_rejects_a_spec_its_engine_ignores(tmp_path, flags):
    out = str(tmp_path / "o")
    assert cli.main(["simulate", "--n", "50", "--seed", "1", *flags, "--out-dir", out]) == 1
    assert not os.path.exists(os.path.join(out, "meta_seed1.json"))


@pytest.mark.parametrize("section, flags", [
    ({"model": {"kind": "propagator",
                "kernel": {"form": "power_law", "beta": 0.25, "bta": 1}}}, []),
    ({"model": {"kind": "propagator",
                "kernel": {"form": "tabulated", "values": [1.0], "beta": 0.5}}}, []),
    ({"model": {"kind": "propagator", "kernel": {"form": "power_law", "g1": 2.0}}}, []),
    ({"volumes": {"dist": "lognormal", "sigam": 0.5}}, []),
    (None, ["--vol-dist", "lognormal", "--vol-value", "3"]),
    ({"model": {"kind": "surprise", "predictor": {"coefs": [0.3]}}}, []),
    ({"model": {"kind": "surprise", "predictor": {"coeffs": [0.3], "err_vr": 2}}}, []),
    ({"model": {"kind": "surprise", "predictor": {"coeffs": [0.3], "err_var": 2}}}, []),
    ({"estimator": {"max_lga": 16}}, []),
    ({"model": None}, []),
    (None, ["--model", "propagator", "--g1", "2"]),
    (None, ["--model", "propagator", "--plateau", "0.5"]),
], ids=["kernel-typo", "tabulated-extra", "no-beta", "volume-typo", "volume-flag",
        "predictor-typo", "predictor-extra", "predictor-err-var", "estimator-typo",
        "model-null",
        "g1-without-beta", "plateau-without-beta"])
def test_cli_simulate_rejects_unknown_or_missing_spec_keys(tmp_path, section, flags):
    if section is not None:
        flags = ["--config", str(tmp_path / "cfg.json")]
        write_json({"n": 50, "seed": 1, **section}, flags[1])
    assert cli.main(["simulate", "--n", "50", "--seed", "1", *flags,
                     "--out-dir", str(tmp_path)]) == 1
    assert not os.path.exists(tmp_path / "meta_seed1.json")


@pytest.mark.parametrize("command", ["measure", "invert", "manip", "report"])
def test_cli_seed_is_a_simulate_flag_only(tmp_path, command):
    """Only simulate reads --seed (report takes its seeds from its config);
    any other command refuses it before writing anything."""
    src = str(tmp_path / "src")
    stem = os.path.join(src, "tape_seed1")
    measure = ["measure", stem + ".csv", "--max-lag", "8", "--sign-max-lag", "15"]
    assert cli.main(["simulate", "--n", "300", "--seed", "1", "--out-dir", src]) == 0
    assert cli.main([*measure, "--out-dir", src]) == 0
    argv = {"measure": measure,
            "invert": ["invert", "--response", stem + "_response.csv",
                       "--autocorr", stem + "_sign_autocorr.csv"],
            "manip": ["manip", "--betas", "0.5", "--psis", "1", "--max-len", "2"],
            "report": ["report", "--criteria", "none"]}[command]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "plain")]) == 0
    seeded = tmp_path / "seeded"
    assert cli.main([*argv, "--seed", "1", "--out-dir", str(seeded)]) == 1
    assert not seeded.exists()


@pytest.mark.parametrize("section", [
    {"estimator": {"max_lga": 16}},
    {"estimator": {"invert_lags": 8, "j_tial": 31}},
    {"manip": {"max_lne": 3}},
    {"estimator": None},
    {"manip": []},
], ids=["measure-key", "invert-key", "manip-key", "estimator-null", "manip-list"])
def test_cli_report_rejects_unknown_section_keys(tmp_path, section):
    cfg = str(tmp_path / "cfg.json")
    write_json({"n": 600, "seed": 1, **section}, cfg)
    out = tmp_path / "o"
    assert cli.main(["report", "--config", cfg, "--criteria", "none",
                     "--out-dir", str(out)]) == 1
    assert not os.path.exists(out / "tape_seed1.csv")
    assert not os.path.exists(out / "frontier.csv")


def test_cli_invert_rejects_a_negative_j_tail(tmp_path):
    lags = np.arange(1, 9)
    write_curve(LagCurve(lags, lags**-0.3, np.full(8, 10), "response"),
                str(tmp_path / "r.csv"))
    write_curve(LagCurve(lags, 0.2 * lags**-0.5, np.full(8, 10), "sign_autocorr"),
                str(tmp_path / "c.csv"))
    rc = cli.main(["invert", "--response", str(tmp_path / "r.csv"),
                   "--autocorr", str(tmp_path / "c.csv"), "--j-tail", "-5",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    assert not os.path.exists(tmp_path / "invert_report.json")


_POWER_LAW = {"form": "power_law", "beta": 0.25}

# Configs that simulate and report refuse, each as sections over n 50 and
# seed 1 and, where flags can say the same, as simulate flags: the cases of
# the tests above.
_REFUSED = {
    "kyle+kernel": ({"model": {"kind": "kyle", "kernel": _POWER_LAW}}, ["--beta", "0.25"]),
    "kyle+predictor": ({"model": {"kind": "kyle", "predictor": {"coeffs": [0.3]}}},
                       ["--model", "kyle", "--ar-coeffs", "0.3"]),
    "surprise+kernel": (
        {"model": {"kind": "surprise", "predictor": {"coeffs": [0.3]}, "kernel": _POWER_LAW}},
        ["--model", "surprise", "--ar-coeffs", "0.3", "--beta", "0.25"]),
    "propagator+predictor": (
        {"model": {"kind": "propagator", "kernel": _POWER_LAW, "predictor": {"coeffs": [0.3]}}},
        ["--model", "propagator", "--beta", "0.25", "--ar-coeffs", "0.3"]),
    "kernel-typo": ({"model": {"kind": "propagator", "kernel": {**_POWER_LAW, "bta": 1}}}, None),
    "tabulated-extra": ({"model": {"kind": "propagator", "kernel": {
        "form": "tabulated", "values": [1.0], "beta": 0.5}}}, None),
    "g1-without-beta": ({"model": {"kind": "propagator", "kernel": {
        "form": "power_law", "g1": 2.0}}}, ["--model", "propagator", "--g1", "2"]),
    "plateau-without-beta": ({"model": {"kind": "propagator", "kernel": {
        "form": "power_law", "plateau": 0.5}}}, ["--model", "propagator", "--plateau", "0.5"]),
    "volume-typo": ({"volumes": {"dist": "lognormal", "sigam": 0.5}}, None),
    "volume-seed": ({"volumes": {"dist": "constant", "seed": 3}}, None),
    "volume-flag": ({"volumes": {"dist": "lognormal", "value": 3.0}},
                    ["--vol-dist", "lognormal", "--vol-value", "3"]),
    "predictor-typo": ({"model": {"kind": "surprise", "predictor": {"coefs": [0.3]}}}, None),
    "predictor-err-var": (
        {"model": {"kind": "surprise", "predictor": {"coeffs": [0.3], "err_var": 2}}}, None),
    "model-null": ({"model": None}, None),
    "estimator-typo": ({"estimator": {"max_lga": 16}}, None),
    "invert-key": ({"estimator": {"invert_lags": 8, "j_tial": 31}}, None),
    "manip-key": ({"manip": {"max_lne": 3}}, None),
    "manip-list": ({"manip": []}, None),
    "out-dir": ({"out_dir": "x"}, None),
    "fractional-n": ({"n": 300.7}, None),
    "fractional-lag": ({"estimator": {"max_lag": 16.9}}, None),
    "bool-budget": ({"manip": {"budget": True}}, None),
    "zero-n": ({"n": 0}, ["--n", "0"]),
    "negative-seed": ({"seed": -1}, ["--seed", "-1"]),
    "bool-seed": ({"seed": [True, 2]}, None),
    "nan-lam": ({"model": {"kind": "kyle", "lam": float("nan")}}, ["--lam", "nan"]),
    "inf-lam": ({"model": {"kind": "kyle", "lam": float("inf")}}, ["--lam", "inf"]),
    "nan-noise-sigma": ({"model": {"kind": "kyle", "noise_sigma": float("nan")}},
                        ["--noise-sigma", "nan"]),
    "nan-p0": ({"model": {"kind": "kyle", "p0": float("nan")}}, ["--p0", "nan"]),
    "nan-beta": ({"model": {"kind": "propagator", "kernel": {"form": "power_law",
                                                            "beta": float("nan")}}},
                 ["--model", "propagator", "--beta", "nan"]),
    "zero-max-lag": ({"estimator": {"max_lag": 0}}, None),
    "zero-min-count": ({"estimator": {"min_count": 0}}, None),
    "zero-invert-lags": ({"estimator": {"invert_lags": 0}}, None),
    "negative-j-tail": ({"estimator": {"j_tail": -1}}, None),
    "nan-rho-psi-weight": ({"estimator": {"rho_psi_weight": float("nan")}}, None),
    "nan-manip-psi": ({"manip": {"psis": [float("nan")], "betas": [0.5], "max_len": 2}}, None),
    "zero-manip-psi": ({"manip": {"psis": [0.5, 0.0]}}, None),
    "negative-manip-lam": ({"manip": {"lam": -1.0}}, None),
    "nan-manip-beta": ({"manip": {"betas": [0.5, float("nan")]}}, None),
    "manip-max-len": ({"manip": {"max_len": 13}}, None),
    "negative-manip-max-len": ({"manip": {"max_len": -5}}, None),
    "negative-manip-budget": ({"manip": {"budget": -1}}, None),
    "fractional-manip-grid": ({"manip": {"grid": [1.0, 2.5]}}, None),
    "manip-own-impact": ({"manip": {"own_impact": "none"}}, None),
    "manip-own-impact-list": ({"manip": {"own_impact": ["full"]}}, None),
    "manip-psis-not-a-list": ({"manip": {"psis": 0.5}}, None),
    "manip-text-lam": ({"manip": {"lam": "1"}}, None),
    "metaorder-fixed-length": ({"generator": {"kind": "metaorder", "alpha": 1.5,
                                              "fixed_length": 5}}, None),
    # a name is text, a kernel or predictor spec an object or null, and every
    # other setting a number: a bool, text or null is not one
    "text-lam": ({"model": {"kind": "kyle", "lam": "abc"}}, None),
    "numeric-text-lam": ({"model": {"kind": "kyle", "lam": "1.5"}}, None),
    "bool-lam": ({"model": {"kind": "kyle", "lam": True}}, None),
    "list-lam": ({"model": {"kind": "kyle", "lam": [1.0]}}, None),
    "null-psi": ({"model": {"kind": "kyle", "psi": None}}, None),
    "text-beta": ({"model": {"kind": "propagator", "kernel": {**_POWER_LAW, "beta": "0.3"}}},
                  None),
    "bool-beta": ({"model": {"kind": "propagator", "kernel": {**_POWER_LAW, "beta": True}}},
                  None),
    "list-beta": ({"model": {"kind": "propagator", "kernel": {**_POWER_LAW, "beta": [0.3]}}},
                  None),
    "text-in-values": ({"model": {"kind": "propagator", "kernel": {
        "form": "tabulated", "values": [1, "a"]}}}, None),
    "numeric-text-values": ({"model": {"kind": "propagator", "kernel": {
        "form": "tabulated", "values": ["1", "0.5"]}}}, None),
    "list-form": ({"model": {"kind": "propagator", "kernel": {
        "form": ["power_law"], "beta": 0.3}}}, None),
    "number-kernel": ({"model": {"kind": "propagator", "kernel": 5}}, None),
    "text-kernel": ({"model": {"kind": "propagator", "kernel": "x"}}, None),
    "list-kernel": ({"model": {"kind": "propagator", "kernel": [0.3]}}, None),
    "number-predictor": ({"model": {"kind": "surprise", "predictor": 5}}, None),
    "text-coeffs": ({"model": {"kind": "surprise", "predictor": {"coeffs": "0.5"}}}, None),
    "list-kind": ({"generator": {"kind": ["iid"]}}, None),
    "bool-p-buy": ({"generator": {"kind": "iid", "p_buy": True}}, None),
    "text-volume": ({"volumes": {"dist": "constant", "value": "2"}}, None),
    "bool-sigma": ({"volumes": {"dist": "lognormal", "sigma": True}}, None),
}


@pytest.mark.parametrize("command, case", [
    (command, case) for case, (_, flags) in _REFUSED.items()
    for command in ["simulate-flags"] * (flags is not None) + ["simulate", "report"]])
def test_a_refused_config_writes_nothing(tmp_path, capsys, command, case):
    """The config is checked in full before anything is written: no output
    directory, nothing on stdout."""
    section, flags = _REFUSED[case]
    if command == "simulate-flags":
        argv = ["simulate", "--n", "50", "--seed", "1", *flags]
    else:
        write_json({"n": 50, "seed": 1, **section}, str(tmp_path / "cfg.json"))
        argv = [command, "--config", str(tmp_path / "cfg.json")]
        argv += ["--criteria", "none"] if command == "report" else []
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "impactlab: ParameterError" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ({"form": ["power_law"]}, "'form' must be text"),
    ({"form": "power_law", "beta": "0.3"}, "'beta' must be a number"),
    (5, "kernel spec must be an object"),
], ids=["list-form", "text-beta", "number"])
def test_kernel_from_spec_applies_the_config_rule(spec, message):
    """A spec given to kernel_from_spec directly is checked as a config's is."""
    with pytest.raises(ParameterError, match=message):
        experiment.kernel_from_spec(spec)


def _curve_files(tmp_path):
    """A response on lags 1..8 and a sign autocorrelation on lags 1..16."""
    r_lags, c_lags = np.arange(1, 9), np.arange(1, 17)
    r, c = str(tmp_path / "r.csv"), str(tmp_path / "c.csv")
    write_curve(LagCurve(r_lags, r_lags**-0.3, np.full(8, 10), "response"), r)
    write_curve(LagCurve(c_lags, 0.2 * c_lags**-0.5, np.full(16, 10), "sign_autocorr"), c)
    return r, c


# Commands refused before they write: the argv, with {r}, {c} and {tape} for
# the input files, and the exit code. Estimator settings out of range and
# non-finite model or search parameters are config errors, not estimation
# errors.
_REFUSED_COMMANDS = {
    "manip-3": (["manip", "--budget", "1"], 3),
    "invert-1": (["invert", "--response", "{r}", "--autocorr", "{c}", "--j-tail", "-5"], 1),
    "measure-1": (["measure", "{tape}", "--max-lag", "8", "--burn", "-1"], 1),
    "manip-nan-psi": (["manip", "--psis", "nan"], 1),
    "manip-nan-beta": (["manip", "--betas", "nan"], 1),
    "manip-negative-max-len": (["manip", "--max-len", "-5"], 1),
    "manip-negative-budget": (["manip", "--budget", "-1"], 1),
    "measure-zero-max-lag": (["measure", "{tape}", "--max-lag", "0"], 1),
    "measure-zero-rho-window": (["measure", "{tape}", "--max-lag", "8", "--rho-window", "0"], 1),
    "measure-zero-cond-lag": (["measure", "{tape}", "--max-lag", "8", "--cond-lag", "0"], 1),
    "measure-zero-n-bins": (["measure", "{tape}", "--max-lag", "8", "--n-bins", "0"], 1),
    "measure-zero-min-count": (["measure", "{tape}", "--max-lag", "8", "--min-count", "0"], 1),
    "measure-nan-rho-psi-weight": (
        ["measure", "{tape}", "--max-lag", "8", "--rho-psi-weight", "nan"], 1),
    "measure-inf-rho-psi-weight": (
        ["measure", "{tape}", "--max-lag", "8", "--rho-psi-weight", "inf"], 1),
}


@pytest.mark.parametrize("case", list(_REFUSED_COMMANDS))
def test_a_refused_command_writes_nothing(tmp_path, capsys, case):
    r, c = _curve_files(tmp_path)
    tape = str(tmp_path / "tape.csv")
    write_tape(_priced_tape(), tape)
    argv, rc = _REFUSED_COMMANDS[case]
    argv = [a.format(r=r, c=c, tape=tape) for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == rc
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("impactlab: ")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("lam", "-1"), ("lam", "0"), ("lam", "inf"), ("v", "-2"), ("v", "0"), ("v", "inf"),
    ("psi", "0"), ("psi", "1.5"), ("ridge", "-1"), ("ridge", "inf")])
def test_cli_invert_rejects_out_of_range_inputs(tmp_path, capsys, flag, value):
    r, c = _curve_files(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["invert", "--response", r, "--autocorr", c, f"--{flag}", value,
                     "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ParameterError" in err and f"{flag} must be" in err and repr(float(value)) in err
    assert not out.exists()


def test_cli_report_records_stage_errors_and_keeps_every_file(tmp_path, capsys):
    """An inversion asking for more kernel lags than the response has and a
    frontier over its budget each record an error; report exits 3 and still
    writes every per-seed and pooled file."""
    cfg = {**_PIPELINE_CFG, "estimator": {**_PIPELINE_CFG["estimator"], "invert_lags": 17},
           "manip": {"max_len": 10, "grid": [1, 2, 4, 8, 9], "budget": 100}}
    write_json(cfg, str(tmp_path / "cfg.json"))
    out = tmp_path / "out"
    assert cli.main(["report", "--config", str(tmp_path / "cfg.json"), "--criteria", "none",
                     "--out-dir", str(out)]) == 3
    rep = read_json(str(out / "report.json"))
    assert "invert" not in rep and "manip" not in rep
    assert list(rep["errors"]) == ["invert", "manip"]
    assert "L <=" in rep["errors"]["invert"] and "budget" in rep["errors"]["manip"]
    # four curves and the fits per seed, besides its tape and meta
    per_seed = [name for s in (1, 2) for name in [f"tape_seed{s}.csv", f"meta_seed{s}.json",
                                                   *rep["files"].pop(str(s)).values()]]
    assert len(per_seed) == 2 * 7
    assert sorted(rep["files"]) == [f"pooled_{c}" for c in
                                    ("diffusivity", "response", "sign_autocorr")]
    assert sorted(os.listdir(out)) == sorted(
        per_seed + list(rep["files"].values()) + ["report.json"])
    assert capsys.readouterr().err.splitlines() == [
        f"report: {key}: {msg}" for key, msg in rep["errors"].items()]


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """The files a report on _PIPELINE_CFG writes when no stage fails."""
    tmp_path = tmp_path_factory.mktemp("clean")
    assert _report_with_config(tmp_path, str(tmp_path / "out")) == 0
    return sorted(os.listdir(tmp_path / "out"))


_real_fit = experiment._fit


def _failing_fit(*failing):
    """experiment._fit, failing for the records named in `failing`: "gamma_hat"
    only on a pooled curve, whose counts sum the seeds'."""
    def fit(key, curve, fit_range):
        seeds_own = key == "gamma_hat" and curve.counts[0] <= _PIPELINE_CFG["n"]
        if key in failing and not seeds_own:
            raise EstimationError(f"no {key} fit")
        return _real_fit(key, curve, fit_range)
    return fit


@pytest.mark.parametrize("key, error_key", [("gamma_hat", "pooled: gamma_fit"),
                                            ("beta_hat", "invert: beta_fit")],
                         ids=["pooled-gamma", "beta-hat"])
def test_cli_report_exits_three_on_a_failed_pooled_or_kernel_fit(
        tmp_path, capsys, monkeypatch, pipeline_files, key, error_key):
    """A fit that fails after the seeds' own, pooled or of the inverted
    kernel, is the one entry of `errors`, gives one message and sets exit 3;
    every file is still written. The forked seeds inherit the patch."""
    monkeypatch.setattr(experiment, "_fit", _failing_fit(key))
    out = tmp_path / "out"
    assert _report_with_config(tmp_path, str(out)) == 3
    rep = read_json(str(out / "report.json"))
    assert rep["errors"] == {error_key: f"no {key} fit"}
    record = rep["fits"]["pooled"] if key == "gamma_hat" else rep["invert"]
    assert key not in record
    assert capsys.readouterr().err.splitlines() == [f"report: {error_key}: no {key} fit"]
    assert sorted(os.listdir(out)) == pipeline_files


def _keys(obj):
    """Every key of every object nested in obj."""
    if isinstance(obj, dict):
        return [k for key, value in obj.items() for k in [key, *_keys(value)]]
    return [k for value in obj for k in _keys(value)] if isinstance(obj, list) else []


def test_every_failure_of_a_run_is_one_entry_of_one_errors_map(tmp_path, capsys, monkeypatch):
    """A seed's curve, the pooled gamma fit, the beta fit and the frontier fail
    in one run: report.json's `errors` holds exactly their keys, stderr a line
    for each in stage order, and no other key of report.json or of a written
    invert_report.json names an error."""
    cfg = {**_PIPELINE_CFG, "estimator": {**_PIPELINE_CFG["estimator"], "min_count": 10**6},
           "manip": {"max_len": 10, "grid": [1, 2, 4, 8, 9], "budget": 100}}
    write_json(cfg, str(tmp_path / "cfg.json"))
    monkeypatch.setattr(experiment, "_fit", _failing_fit("gamma_hat", "beta_hat"))
    out = tmp_path / "out"
    assert cli.main(["report", "--config", str(tmp_path / "cfg.json"), "--criteria", "none",
                     "--out-dir", str(out)]) == 3
    keys = ["seed 1: conditional", "seed 2: conditional", "pooled: gamma_fit",
            "invert: beta_fit", "manip"]
    rep = read_json(str(out / "report.json"))
    assert sorted(rep["errors"]) == sorted(keys)
    assert capsys.readouterr().err.splitlines() == [
        f"report: {key}: {rep['errors'][key]}" for key in keys]
    assert [k for k in _keys(rep) if "error" in k] == ["errors"]

    r, c = (str(out / f"pooled_{name}.csv") for name in ("response", "sign_autocorr"))
    assert cli.main(["invert", "--response", r, "--autocorr", c, "--kernel-lags", "8",
                     "--j-tail", "31", "--out-dir", str(tmp_path / "inv")]) == 3
    inv = read_json(str(tmp_path / "inv" / "invert_report.json"))
    assert inv["errors"] == {"beta_fit": "no beta_hat fit"}
    assert [k for k in _keys(inv) if "error" in k] == ["errors"]


@pytest.mark.parametrize("error", [cls(7, 3) if cls is SearchBudgetError else cls("boom")
                                   for cls in experiment._STAGE_ERRORS],
                         ids=[cls.__name__ for cls in experiment._STAGE_ERRORS])
@pytest.mark.parametrize("stage, written", [("invert", "kernel.csv"),
                                            ("manip", "frontier.csv")])
def test_every_stage_error_is_recorded_and_any_other_error_stops_the_run(
        tmp_path, capsys, monkeypatch, pipeline_files, stage, written, error):
    """Each error of the one set a run records, raised by the inversion or the
    frontier, is the entry `errors[stage]` in place of the stage's result:
    report exits 3 and writes every other file. A RuntimeError outside the set
    stops the run."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(experiment, f"{stage}_stage", fail)
    out = tmp_path / "out"
    assert _report_with_config(tmp_path, str(out)) == 3
    rep = read_json(str(out / "report.json"))
    assert rep["errors"] == {stage: str(error)} and stage not in rep
    assert capsys.readouterr().err.splitlines() == [f"report: {stage}: {error}"]
    assert sorted(os.listdir(out)) == [name for name in pipeline_files if name != written]

    def fail(*args, **kwargs):
        raise RuntimeError("not a stage error")

    monkeypatch.setattr(experiment, f"{stage}_stage", fail)
    with pytest.raises(RuntimeError, match="not a stage error"):
        _report_with_config(tmp_path, str(tmp_path / "stopped"))


def test_only_attempt_catches_a_stage_error():
    """experiment.py records a stage error in one place: no `except` outside
    _attempt names a class of _STAGE_ERRORS, the set itself or ValueError."""
    names = {cls.__name__ for cls in experiment._STAGE_ERRORS} | {"_STAGE_ERRORS", "ValueError"}
    tree = ast.parse(Path(experiment.__file__).read_text())
    attempt = next(f for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name == "_attempt")
    inside = {id(node) for node in ast.walk(attempt)}
    catches = [(handler.lineno, id(handler) in inside) for handler in ast.walk(tree)
               if isinstance(handler, ast.ExceptHandler) and handler.type is not None
               and names & {getattr(n, "id", getattr(n, "attr", None))
                            for n in ast.walk(handler.type)}]
    assert [inside for _, inside in catches] == [True], catches


@pytest.mark.parametrize("command, code, error", [
    ("measure", 2, "FormatError"), ("invert", 2, "FormatError"),
    ("report", 1, "ParameterError")])
def test_cli_refuses_input_that_is_not_utf8(tmp_path, capsys, command, code, error):
    """Bytes that do not decode are a contract error naming their line, not a
    traceback: a format error in a CSV, an invalid config in JSON."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\x00bad")
    r, _ = _curve_files(tmp_path)
    argv = {"measure": ["measure", str(bad)],
            "invert": ["invert", "--response", r, "--autocorr", str(bad)],
            "report": ["report", "--config", str(bad), "--criteria", "none"]}[command]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"impactlab: {error}: ")
    assert captured.err.rstrip().endswith("line 1: not UTF-8 text")
    assert not out.exists()


def test_a_byte_that_is_not_utf8_is_named_by_its_line(tmp_path):
    """Text is decoded a block of lines at a time, yet the error names the
    line of the bad byte, deep in a tape and in a curve."""
    tape = tmp_path / "tape.csv"
    write_tape(_priced_tape(n=800), str(tape))
    lines = tape.read_bytes().split(b"\n")
    assert len(b"\n".join(lines[:600])) > 3 * 8192
    lines[599] = lines[599].replace(b",", b",\xe9", 1)
    tape.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match="^line 600: not UTF-8 text$"):
        read_tape(str(tape))
    r, _ = _curve_files(tmp_path)
    Path(r).write_bytes(Path(r).read_bytes().replace(b"\n8,", b"\n\xc38,"))
    with pytest.raises(FormatError, match="^line 9: not UTF-8 text$"):
        read_curve(r, "response")


def test_cli_format_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("n,epsilon,volume\n0,0,1.0\n")
    assert cli.main(["measure", str(bad), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("price", ["inf", "nan"])
def test_cli_measure_refuses_a_price_that_is_not_finite(tmp_path, capsys, price):
    """A price JSON cannot hold is a format error on its line: exit 2, and
    nothing written."""
    tape = tmp_path / "tape.csv"
    write_tape(_priced_tape(n=40), str(tape))
    lines = tape.read_text().split("\n")
    lines[6] = ",".join(lines[6].split(",")[:3] + [price])  # trade 5
    tape.write_text("\n".join(lines))
    out = tmp_path / "out"
    assert cli.main(["measure", str(tape), "--out-dir", str(out)]) == 2
    assert "line 7: price must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_write_conditional_round_trip(tmp_path):
    from impactlab.io import read_conditional, write_conditional

    edges = np.geomspace(0.5, 4.0, 5)
    cr = ConditionalResponse(edges[:-1], edges[1:], np.array([1.0, 2.0, 3.0, 4.0]),
                             np.array([10, 20, 30, 40]), np.array([0.1, 0.2, 0.3, 0.4]))
    path = str(tmp_path / "cond.csv")
    write_conditional(cr, path)
    back = read_conditional(path)
    assert np.array_equal(back.values, cr.values)
    assert np.array_equal(back.counts, cr.counts)
    assert np.allclose(back.bin_lo, cr.bin_lo)
