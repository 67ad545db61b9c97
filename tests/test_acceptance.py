"""Acceptance table: one test per criterion, one pass/fail line under
pytest -v. Each criterion function returns a CriterionResult whose details
carry the measured numbers; the assertion message echoes them on failure.
"""

import numpy as np
import pytest

from impactlab import acceptance
from impactlab.exceptions import ParameterError


def _run(number):
    res = acceptance.ALL_CRITERIA[number]()
    assert res.passed, f"criterion {number} ({res.name}) failed: {res.details}"
    return res


def test_criterion_01_kyle_response_is_lag_flat():
    _run(1)


def test_criterion_02_rho_clean_unity_and_noise_dilution():
    _run(2)


def test_criterion_03_long_memory_generators_hit_gamma_band():
    _run(3)


def test_criterion_04_matched_kernel_restores_diffusion():
    _run(4)


def test_criterion_05_response_prediction_matches_measurement():
    _run(5)


def test_criterion_06_kernel_inversion_recovers_truth():
    _run(6)


def test_criterion_07_predictor_and_kernel_routes_agree():
    _run(7)


def test_criterion_08_surprise_costs_split_by_confirmation():
    _run(8)


def test_criterion_09_volume_exponent_and_barra_fit():
    _run(9)


def test_criterion_10_quotes_spread_and_kappa_stability():
    _run(10)


def test_criterion_11_manipulation_frontier():
    _run(11)


def test_criterion_12_master_curve_collapse():
    _run(12)


def test_criterion_13_pipeline_reproducibility_round_trips():
    _run(13)


def test_each_criterion_number_is_registered_once():
    """The registry holds criteria 1..13, each under the number its function
    is named for, and refuses a number registered before, keeping the first."""
    assert sorted(acceptance.ALL_CRITERIA) == list(range(1, 14))
    assert all(fn.__name__.startswith(f"criterion_{n:02d}_")
               for n, fn in acceptance.ALL_CRITERIA.items())
    first = acceptance.ALL_CRITERIA[12]
    with pytest.raises(ParameterError, match="criterion 12 must be registered once"):
        acceptance._criterion(12, "again")(lambda: (True, {}))
    assert acceptance.ALL_CRITERIA[12] is first


def test_the_reference_tapes_share_one_volume_array():
    """The cached reference tape and criterion 4's two control tapes each hold
    a read-only broadcast of one unit volume, not a column of ones of their own."""
    tapes = [acceptance._reference_tape()]
    tapes += [acceptance._priced_reference(beta) for beta in (0.0, 0.45)]
    assert all(tape.v.strides == (0,) and not tape.v.flags.writeable for tape in tapes)
