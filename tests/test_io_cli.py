"""File formats and the command-line surface: lossless round-trips, format
errors with line numbers, determinism, and the exit-code contract."""

import argparse
import ast
import filecmp
import importlib.metadata
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import impactlab
from impactlab import (
    ConditionalResponse,
    FormatError,
    ImpactConfig,
    InputError,
    Kernel,
    LagCurve,
    ParameterError,
    SignSeries,
    TradeTape,
    VolumeSeries,
    cli,
    gen_iid_signs,
    gen_volumes,
    predict_response,
    propagator_path,
)
from impactlab import experiment, orderflow
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
    with pytest.raises(InputError):
        read_tape(str(tmp_path / "nope.csv"))
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
    rep, files = invert_stage(r, c, 1.0, 1.0, 1.0, square, j_tail=128)
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
    assert 0.1 < report["beta_hat"] < 0.4
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
    assert "pooled" in rep["fits"]
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
        names += [f"tape_seed{s}.csv", f"meta_seed{s}.json"]
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


def test_the_build_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls its own table a beta
        config = pyprojecttoml.read_configuration(
            str(Path(__file__).parents[1] / "pyproject.toml"), expand=True)
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == impactlab.__version__


def test_provenance_records_a_missing_scipy_as_none():
    real = importlib.metadata.version

    def version(dist):
        if dist == "scipy":
            raise importlib.metadata.PackageNotFoundError(dist)
        return real(dist)

    with mock.patch.object(importlib.metadata, "version", version):
        prov = provenance()
    assert prov["scipy"] is None
    assert prov["numpy"] == np.__version__


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


def _config_dests(command: str) -> list:
    """The `section.key` dests of one subcommand's flags."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a.dest for a in sub.choices[command]._actions if "." in a.dest]


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
    assert len(simulate) == 22
    for dest in simulate:
        section, key = dest.split(".")
        assert key in accepted[section], dest
    assert (sorted(_config_dests("measure"))
            == sorted(f"estimator.{k}" for k in experiment._default_estimator()))
    assert (sorted(_config_dests("manip"))
            == sorted(f"manip.{k}" for k in experiment._default_manip()))
    assert _config_dests("invert") == _config_dests("report") == []


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
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert cli.main(["report", "--config", str(empty),
                     "--out-dir", str(tmp_path)]) == 1


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
    assert list(rep["invert"]) == ["error"] and "L <=" in rep["invert"]["error"]
    assert list(rep["manip"]) == ["error"] and "budget" in rep["manip"]["error"]
    # four curves and the fits per seed, besides its tape and meta
    per_seed = [name for s in (1, 2) for name in [f"tape_seed{s}.csv", f"meta_seed{s}.json",
                                                   *rep["files"].pop(str(s)).values()]]
    assert len(per_seed) == 2 * 7
    assert sorted(rep["files"]) == [f"pooled_{c}" for c in
                                    ("diffusivity", "response", "sign_autocorr")]
    assert sorted(os.listdir(out)) == sorted(
        per_seed + list(rep["files"].values()) + ["report.json"])
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in lines] == [["report", " invert"],
                                                         ["report", " manip"]]


def test_cli_format_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("n,epsilon,volume\n0,0,1.0\n")
    assert cli.main(["measure", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_write_conditional_round_trip(tmp_path):
    from impactlab.io import read_conditional, write_conditional

    edges = np.geomspace(0.5, 4.0, 5)
    cr = ConditionalResponse(edges[:-1], edges[1:], np.array([1.0, 2.0, 3.0, 4.0]),
                             np.array([10, 20, 30, 40]), 2,
                             np.array([0.1, 0.2, 0.3, 0.4]))
    path = str(tmp_path / "cond.csv")
    write_conditional(cr, path)
    back = read_conditional(path, T=2)
    assert np.array_equal(back.values, cr.values)
    assert np.array_equal(back.counts, cr.counts)
    assert np.allclose(back.bin_lo, cr.bin_lo)
    assert back.T == 2
