"""run_config's per-seed simulate + measure in forked workers: the same bytes,
the same errors and the same exit codes as the seeds run one after another
in one process, and no worker process left behind."""

import errno
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import weakref

import pytest

from impactlab import cli, experiment, orderflow
from impactlab import io as iolib
from impactlab.exceptions import NumericError
from impactlab.experiment import ExperimentConfig, run_config

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the workers are forked")

_CFG = {
    "n": 3000,
    "generator": {"kind": "clipped_fractional", "gamma": 0.5},
    "volumes": {"dist": "lognormal", "mu": 0.0, "sigma": 0.5},
    "model": {"kind": "propagator", "lam": 1.0, "psi": 0.5,
              "kernel": {"form": "power_law", "beta": 0.25}},
    "estimator": {"max_lag": 16, "sign_max_lag": 32, "rho_window": 8},
    "manip": {"betas": [0.0, 0.5], "psis": [0.5], "max_len": 4, "grid": [1, 2]},
}

# where _recording_seed_run writes the process that ran each seed; a module
# global, so forked workers inherit it
_PID_DIR = None
_real_seed_run = experiment._seed_run


def _recording_seed_run(config, seed, out):
    with open(os.path.join(_PID_DIR, str(seed)), "w") as fh:
        fh.write(str(os.getpid()))
    return _real_seed_run(config, seed, out)


def _run(monkeypatch, tmp_path, name: str, cpus: int, seeds):
    """run_config on `seeds` with `cpus` usable CPUs, into tmp_path/name.
    Returns (the report.json bytes of its bundle, {seed: pid that ran it})."""
    pid_dir = tmp_path / f"{name}_pids"
    pid_dir.mkdir()
    monkeypatch.setattr(sys.modules[__name__], "_PID_DIR", str(pid_dir))
    monkeypatch.setattr(experiment, "_seed_run", _recording_seed_run)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    bundle, _ = run_config(ExperimentConfig.from_dict({**_CFG, "seed": seeds}),
                           str(tmp_path / name))
    assert multiprocessing.active_children() == []
    iolib.write_json(bundle, str(tmp_path / f"{name}_bundle.json"))
    return ((tmp_path / f"{name}_bundle.json").read_bytes(),
            {int(p.name): int(p.read_text()) for p in pid_dir.iterdir()})


@pytest.mark.parametrize("seeds", [[1, 2], [4, 5, 6]], ids=["2 seeds", "3 seeds"])
def test_workers_write_the_bytes_and_bundle_of_the_serial_run(tmp_path, monkeypatch, seeds):
    """3 seeds run on 2 workers, so one worker runs two seeds."""
    serial, serial_pids = _run(monkeypatch, tmp_path, "serial", 1, seeds)
    pooled, pool_pids = _run(monkeypatch, tmp_path, "pool", 2, seeds)
    assert set(serial_pids.values()) == {os.getpid()}
    assert sorted(pool_pids) == seeds and os.getpid() not in pool_pids.values()
    assert pooled == serial
    names = sorted(os.listdir(tmp_path / "serial"))
    assert names == sorted(os.listdir(tmp_path / "pool"))
    assert {f"tape_seed{s}.csv" for s in seeds} <= set(names)
    for name in names:
        assert ((tmp_path / "pool" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes()), name


def test_workers_share_the_parents_eigenvalues(tmp_path, monkeypatch):
    """The parent computes the clipped-fractional eigenvalues before forking,
    under the key the generator reads, so no worker whitens again."""
    cfg = ExperimentConfig.from_dict({**_CFG, "seed": [1, 2]})
    orderflow._embedding_eigenvalues.cache_clear()
    parent, whiten = os.getpid(), orderflow.latent_autocorr

    def whiten_in_the_parent_only(*args):
        if os.getpid() != parent:
            raise NumericError("a worker whitened again")
        return whiten(*args)

    monkeypatch.setattr(orderflow, "latent_autocorr", whiten_in_the_parent_only)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    run_config(cfg, str(tmp_path))
    assert orderflow._embedding_eigenvalues.cache_info().misses == 1


_real_write_tape = iolib.write_tape
_ERRORS = [OSError(errno.ENOSPC, "No space left on device"), NumericError("the path blew up")]


def _fail_on_seed(failing: int, error: Exception):
    def write_tape(tape, path):
        if os.path.basename(path) == f"tape_seed{failing}.csv":
            raise error
        return _real_write_tape(tape, path)
    return write_tape


@pytest.mark.parametrize("failing", [1, 2, 3])
@pytest.mark.parametrize("error", _ERRORS, ids=["OSError", "NumericError"])
def test_a_failing_worker_raises_the_serial_error(tmp_path, monkeypatch, capsys, failing,
                                                  error):
    """write_tape, patched before the fork, fails in the worker of one seed:
    run_config raises what the serial run raises, report exits with its code
    and prints its message, and no worker is left running."""
    monkeypatch.setattr(iolib, "write_tape", _fail_on_seed(failing, error))
    cfg = ExperimentConfig.from_dict({**_CFG, "seed": [1, 3]})
    cfg_path = str(tmp_path / "cfg.json")
    iolib.write_json({**_CFG, "seed": [1, 3]}, cfg_path)
    raised, codes = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        with pytest.raises(type(error)) as exc_info:
            run_config(cfg, str(tmp_path / f"run{cpus}"))
        raised.append((type(exc_info.value), str(exc_info.value)))
        assert multiprocessing.active_children() == []
        capsys.readouterr()
        codes.append((cli.main(["report", "--config", cfg_path, "--criteria", "none",
                                "--out-dir", str(tmp_path / f"report{cpus}")]),
                      capsys.readouterr().err))
        assert multiprocessing.active_children() == []
    assert raised[0] == raised[1] == (type(error), str(error))
    assert codes[0] == codes[1] and codes[0][0] == (1 if isinstance(error, OSError) else 3)


def test_a_terminated_worker_removes_its_temp_file(tmp_path, monkeypatch):
    """Seed 2's worker is stopped in the middle of writing its tape when seed
    1 fails: the partial write is removed, as in a failed write of its own."""
    out = tmp_path / "out"
    out.mkdir()

    def write_tape(tape, path):
        if path.endswith("tape_seed2.csv"):
            def chunks():
                yield "partial\n"
                time.sleep(60)
            iolib._atomic_write(path, chunks())
        deadline = time.monotonic() + 60
        while not any(".csv." in name for name in os.listdir(out)):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(iolib, "write_tape", write_tape)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(OSError, match="No space left"):
        run_config(ExperimentConfig.from_dict({**_CFG, "seed": [1, 2]}), str(out))
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []
    assert not [name for name in os.listdir(out) if ".csv." in name]


def test_a_worker_that_dies_without_a_result_is_an_error(tmp_path, monkeypatch):
    """A worker killed from outside, here one that exits in the middle of
    seed 2, sends nothing: the run raises instead of waiting for it."""
    def exit_on_seed_2(config, seed, out):
        if seed == 2:
            os._exit(3)
        return _real_seed_run(config, seed, out)

    monkeypatch.setattr(experiment, "_seed_run", exit_on_seed_2)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="seed 2 exited with code 3"):
        run_config(ExperimentConfig.from_dict({**_CFG, "seed": [1, 3]}), str(tmp_path))
    assert multiprocessing.active_children() == []


def _sigterm_in_a_weakref_callback():
    experiment._exit_on_sigterm()
    obj = type("Referent", (), {})()
    weakref.finalize(obj, os.kill, os.getpid(), signal.SIGTERM)
    del obj
    os._exit(7)  # reached only if the handler's exit was swallowed


def test_sigterm_in_a_weakref_callback_still_ends_the_worker():
    """SIGTERM handled inside a weakref callback, where an exception raised by
    the handler would be swallowed: the worker still exits, with code 1."""
    proc = multiprocessing.get_context("fork").Process(target=_sigterm_in_a_weakref_callback)
    proc.start()
    proc.join(60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 1


_REPEATED_FAILURES = """
import errno, json, os, sys, tempfile
from impactlab import experiment
from impactlab import io as iolib
from impactlab.experiment import ExperimentConfig, run_config

write_tape, failing = iolib.write_tape, [0]

def fail_on_one_seed(tape, path):
    if path.endswith(f"tape_seed{failing[0]}.csv"):
        raise OSError(errno.ENOSPC, "No space left on device")
    return write_tape(tape, path)

iolib.write_tape = fail_on_one_seed
experiment._usable_cpus = lambda: 2
cfg = ExperimentConfig.from_dict({**json.loads(sys.argv[1]), "seed": [1, 3]})
with tempfile.TemporaryDirectory() as out:
    for i in range(20):
        failing[0] = 1 + i % 3
        try:
            run_config(cfg, os.path.join(out, str(i)))
        except OSError:
            continue
        raise AssertionError(f"run {i} did not fail")
"""


def test_repeated_failing_runs_all_end():
    """Twenty forked runs that each fail on one of their three seeds, in a
    process of their own: a run that hangs fails the test at the timeout
    instead of stalling the suite, and its process group is killed."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", _REPEATED_FAILURES, json.dumps(_CFG)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a failing forked run did not end within 120 s")
    assert proc.returncode == 0, err


def test_importing_the_cli_leaves_multiprocessing_unimported():
    """The workers' module is imported when a run forks, not at start-up,
    nor when the acceptance criteria are imported."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys\nimport impactlab.cli\nimport impactlab.acceptance\n"
            "assert 'multiprocessing' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('multiprocessing'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
