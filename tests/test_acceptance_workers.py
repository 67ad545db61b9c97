"""run_criteria's tasks in forked workers: the results of the criteria run
one after another in one process, in the order asked, the same errors, no
worker process left behind, and criteria 3-6 alone reading the shared
reference."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from impactlab import acceptance, experiment
from impactlab.exceptions import NumericError, ParameterError, SearchBudgetError

_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                           reason="the workers are forked")

# cheap criteria only, in an order that is not numeric
_CHEAP = [13, 7, 12, 10]


def _json(results) -> list:
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


@pytest.mark.parametrize("cpus", [2, 1])
def test_criteria_give_the_in_process_results_in_the_order_asked(monkeypatch, cpus):
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    results = acceptance.run_criteria(_CHEAP)
    assert multiprocessing.active_children() == []
    assert _json(results) == _json([acceptance.ALL_CRITERIA[n]() for n in _CHEAP])


def _pid_criterion(number: int):
    return lambda: acceptance.CriterionResult(number, "pid", True, {"pid": os.getpid()})


@_fork
def test_the_shared_reference_criteria_run_in_one_worker(monkeypatch):
    """Criteria 3-6, asked among others in any order, are one worker's task."""
    for n in acceptance.ALL_CRITERIA:
        monkeypatch.setitem(acceptance.ALL_CRITERIA, n, _pid_criterion(n))
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    asked = [5, 7, 3, 12, 6, 4]
    results = acceptance.run_criteria(asked)
    assert [r.number for r in results] == asked
    pids = {r.number: r.details["pid"] for r in results}
    assert pids[3] == pids[4] == pids[5] == pids[6] != os.getpid()
    assert len(set(pids.values())) == 2


def test_the_shared_group_runs_in_its_own_order_whatever_the_order_asked(monkeypatch):
    """Criterion 3 draws before criterion 4 frees the eigenvalues, so asked
    as 4, 3 the group still runs as (3, 4) and whitens once. The task is
    placed once, where its first criterion was asked, and the results come
    back in the order asked."""
    tasks = []

    def recorder(fn, items, name):
        tasks.extend(items)
        return [[acceptance.CriterionResult(n, "recorded", True, {}) for n in task]
                for task in items]

    monkeypatch.setattr(acceptance, "_fork_map", recorder)
    assert [r.number for r in acceptance.run_criteria([4, 3])] == [4, 3]
    assert tasks == [(3, 4)]
    tasks.clear()
    assert [r.number for r in acceptance.run_criteria([6, 7, 4, 3])] == [6, 7, 4, 3]
    assert tasks == [(7,), (3, 4, 6)]


@_fork
@pytest.mark.parametrize("error", [NumericError("criterion 12 failed"),
                                   SearchBudgetError(10**8, 10**7)],
                         ids=["NumericError", "SearchBudgetError"])
def test_a_criterion_failing_in_a_worker_raises_its_error(monkeypatch, error):
    parent = os.getpid()

    def fail():
        assert os.getpid() != parent, "criterion 12 ran in the parent"
        raise error

    monkeypatch.setitem(acceptance.ALL_CRITERIA, 12, fail)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    with pytest.raises(type(error)) as exc_info:
        acceptance.run_criteria(_CHEAP)
    assert multiprocessing.active_children() == []
    assert str(exc_info.value) == str(error)


@_fork
def test_a_criteria_worker_that_dies_without_a_result_is_an_error(monkeypatch):
    monkeypatch.setitem(acceptance.ALL_CRITERIA, 12, lambda: os._exit(3))
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="worker of criteria 12 exited with code 3"):
        acceptance.run_criteria(_CHEAP)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("numbers, message", [([12, 14], r"unknown criteria \[14\]"),
                                              ([12, 7, 12], "repeats a criterion")])
def test_an_unknown_or_repeated_criterion_is_refused(numbers, message):
    with pytest.raises(ParameterError, match=message):
        acceptance.run_criteria(numbers)


# Runs every criterion outside the shared group in forked workers of a fresh
# process, each checking after its criterion that the reference caches are
# still empty.
_GUARD = """
from impactlab import acceptance, experiment, orderflow

caches = [acceptance._reference_signs, acceptance._reference_tape,
          acceptance._reference_sign_autocorr, orderflow._embedding_eigenvalues]

def guarded(number, criterion):
    def run():
        result = criterion()
        filled = [c.__name__ for c in caches if c.cache_info().currsize]
        assert not filled, f"criterion {number} filled {filled}"
        return result
    return run

others = sorted(set(acceptance.ALL_CRITERIA) - set(acceptance._SHARED_REFERENCE))
for n in others:
    acceptance.ALL_CRITERIA[n] = guarded(n, acceptance.ALL_CRITERIA[n])
experiment._usable_cpus = lambda: 2
assert all(r.passed for r in acceptance.run_criteria(others))
"""


def _run_fresh(code: str) -> None:
    """Runs code in a fresh python process that imports this checkout."""
    src = os.path.dirname(os.path.dirname(acceptance.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_only_the_shared_group_reads_the_reference():
    """A criterion outside 3-6 that built the reference, or whitened, would
    build it again in a worker of its own."""
    _run_fresh(_GUARD)


# Runs criteria 3-6 in a fresh process under tracemalloc, counting the
# whitenings: latent_autocorr is called once per eigenvalue computation.
_SHARED = """
import tracemalloc
from impactlab import acceptance, orderflow

whitenings = []
latent_autocorr = orderflow.latent_autocorr
orderflow.latent_autocorr = lambda *a: whitenings.append(a) or latent_autocorr(*a)
tracemalloc.start()
assert all(r.passed for r in acceptance._run_task(acceptance._SHARED_REFERENCE))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
info = acceptance._reference_tape.cache_info()
assert (info.currsize, info.misses) == (1, 1), info
assert len(whitenings) == 1, whitenings
info = orderflow._embedding_eigenvalues.cache_info()
assert (info.currsize, info.hits, info.misses) == (0, 0, 0), info
volumes = acceptance._reference_tape().v
assert volumes.strides == (0,) and not volumes.flags.writeable
assert peak <= 60 * 2**20, peak / 2**20
"""


def test_the_shared_group_caches_the_matched_tape_alone():
    """Criterion 4's control tapes are priced uncached, so after criteria 3-6
    run in one process the cache holds one tape, built once; a cached control
    would stay resident for the rest of the group's task. The group whitens
    once, and the eigenvalues are freed once the reference signs are drawn
    (cache_clear resets the counts, so none is left). The unit volumes are
    one double, and the traced peak is 56.7 MiB: three 8 MiB arrays above it
    (the eigenvalues, a column of ones, criterion 4's returns) used to stay
    resident while criterion 4 priced its controls."""
    _run_fresh(_SHARED)
