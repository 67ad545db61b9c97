"""Order-flow generators: domain validation, determinism, and the
population targets each generator is built around."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import (
    ParameterError,
    SignSeries,
    VolumeSeries,
    gen_clipped_fractional_signs,
    gen_iid_signs,
    gen_markov_signs,
    gen_metaorder_signs,
    gen_volumes,
    latent_autocorr,
    sign_autocorr,
    sign_balance_zscore,
    target_sign_autocorr,
)
from impactlab.orderflow import _pareto_lengths


def test_sign_series_rejects_values_off_the_unit_alphabet():
    with pytest.raises(ParameterError):
        SignSeries(np.array([1.0, 0.0, -1.0]))


def test_volume_series_rejects_nonpositive_and_nonfinite():
    with pytest.raises(ParameterError):
        VolumeSeries(np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        VolumeSeries(np.array([1.0, np.inf]))


def test_iid_signs_are_deterministic_per_seed():
    a = gen_iid_signs(1000, 0.5, 42)
    b = gen_iid_signs(1000, 0.5, 42)
    c = gen_iid_signs(1000, 0.5, 43)
    assert np.array_equal(a.signs, b.signs)
    assert not np.array_equal(a.signs, c.signs)
    assert set(np.unique(a.signs)) <= {-1.0, 1.0}


def test_iid_signs_validation():
    with pytest.raises(ParameterError):
        gen_iid_signs(0, 0.5, 1)
    with pytest.raises(ParameterError):
        gen_iid_signs(10, 1.5, 1)


def test_iid_sign_balance_within_iid_bound():
    # spec'd invariant for summable-correlation flow: |mean| <= 4/sqrt(N)
    z = sign_balance_zscore(gen_iid_signs(100_000, 0.5, 3))
    assert z <= 4.0


def test_biased_iid_signs_lean_the_right_way():
    s = gen_iid_signs(50_000, 0.8, 7)
    assert abs(s.signs.mean() - 0.6) < 0.02


def test_latent_autocorr_plain_completion_is_the_shifted_power_law():
    got = latent_autocorr(0.5, 4, completion="plain")
    want = (1.0 + np.arange(5.0)) ** -0.5
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_latent_autocorr_starts_at_one_and_decays():
    rho = latent_autocorr(0.5, 64)
    assert rho[0] == 1.0
    assert np.all(np.diff(rho) < 0)
    with pytest.raises(ParameterError):
        latent_autocorr(1.5, 8)
    with pytest.raises(ParameterError):
        latent_autocorr(0.5, 8, completion="bogus")


def test_target_sign_autocorr_is_the_arcsine_image_of_the_latent():
    # clipping a bivariate normal maps correlation rho to (2/pi)arcsin(rho)
    rho = latent_autocorr(0.5, 8, completion="plain")
    tgt = target_sign_autocorr(0.5, 8, completion="plain")
    assert np.allclose(tgt, (2.0 / np.pi) * np.arcsin(rho), rtol=0, atol=1e-15)
    assert abs((2.0 / np.pi) * np.arcsin(0.5) - 1.0 / 3.0) < 1e-15


def test_clipped_generator_matches_its_target_at_short_lags():
    s = gen_clipped_fractional_signs(2**18, 0.5, seed=4)
    meas = sign_autocorr(s, 8).values
    tgt = target_sign_autocorr(0.5, 8)[1:]
    # sampling error at this N is a few parts in a thousand
    assert np.max(np.abs(meas - tgt)) < 0.02


def test_clipped_generator_is_deterministic_per_seed():
    a = gen_clipped_fractional_signs(4096, 0.5, seed=1)
    b = gen_clipped_fractional_signs(4096, 0.5, seed=1)
    assert np.array_equal(a.signs, b.signs)


def test_metaorder_fixed_length_floor_makes_one_parent_order():
    s = gen_metaorder_signs(500, 1.5, seed=2, fixed_length=10_000)
    assert np.all(s.signs == s.signs[0])
    # centering a constant series wipes the signal; flagged, not fatal
    assert sign_autocorr(s, 4).meta.get("degenerate") is True


def _metaorder_loop(n, alpha, seed, fixed_length=None):
    """The metaorder generator one metaorder at a time, kept as the oracle
    of the vectorised one: a length draw, then a direction draw."""
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    pos = 0
    while pos < n:
        if fixed_length is not None:
            length = fixed_length
        else:
            length = int(np.ceil(rng.random() ** (-1.0 / alpha)))
        direction = 1.0 if rng.random() < 0.5 else -1.0
        take = min(length, n - pos)
        out[pos : pos + take] = direction
        pos += take
    return out


@pytest.mark.parametrize("n", [1, 7, 5000, 100_000])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_metaorder_signs_repeat_the_loop_exactly(n, alpha):
    for seed in range(1, 11):
        got = gen_metaorder_signs(n, alpha, seed=seed).signs
        assert np.array_equal(got, _metaorder_loop(n, alpha, seed))


def test_metaorder_signs_repeat_the_loop_at_full_length():
    n = 2**20 + 4096  # the chain's tape with its burn-in
    assert np.array_equal(gen_metaorder_signs(n, 1.5, seed=1).signs,
                          _metaorder_loop(n, 1.5, 1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), alpha=st.floats(1.01, 1.99), seed=st.integers(0, 2**32),
       fixed_length=st.one_of(st.none(), st.integers(1, 4000)))
def test_metaorder_signs_repeat_the_loop(n, alpha, seed, fixed_length):
    got = gen_metaorder_signs(n, alpha, seed=seed, fixed_length=fixed_length).signs
    assert np.array_equal(got, _metaorder_loop(n, alpha, seed, fixed_length))


def test_pareto_lengths_follow_the_scalar_power_at_integers():
    # u = k^-alpha puts u^(-1/alpha) within rounding of the integer k, where
    # a last-bit difference between vector and scalar powers moves the ceiling
    for alpha in (1.2, 1.5, 1.9):
        u = np.arange(2.0, 400.0) ** -alpha
        want = [min(int(np.ceil(x ** (-1.0 / alpha))), 1000) for x in u.tolist()]
        assert _pareto_lengths(u, alpha, 1000).tolist() == want


def test_pareto_lengths_clip_at_the_tape_length():
    # a zero draw is one metaorder over the rest of the tape
    assert _pareto_lengths(np.array([0.0, 1e-300, 0.5]), 1.5, 10).tolist() == [10, 10, 2]


def test_metaorder_validation():
    with pytest.raises(ParameterError):
        gen_metaorder_signs(100, 2.5, seed=1)
    with pytest.raises(ParameterError):
        gen_metaorder_signs(100, 1.5, seed=1, fixed_length=0)


def test_markov_signs_hit_the_geometric_autocorrelation():
    s = gen_markov_signs(200_000, 0.4, 9)
    c = sign_autocorr(s, 2)
    assert abs(c.values[0] - 0.4) < 0.02
    assert abs(c.values[1] - 0.16) < 0.02
    with pytest.raises(ParameterError):
        gen_markov_signs(100, 1.0, 1)


def test_constant_volumes():
    v = gen_volumes(100, "constant", value=2.5)
    assert np.all(v.volumes == 2.5)
    with pytest.raises(ParameterError):
        gen_volumes(10, "constant", value=0.0)


def test_lognormal_volume_mean():
    v = gen_volumes(400_000, "lognormal", seed=5, mu=0.0, sigma=1.0)
    assert abs(v.volumes.mean() / np.exp(0.5) - 1.0) < 0.03


def test_pareto_volume_mean_and_floor():
    v = gen_volumes(400_000, "pareto", seed=6, x_min=1.0, tail=3.0)
    assert v.volumes.min() >= 1.0
    assert abs(v.volumes.mean() / 1.5 - 1.0) < 0.03


def test_volume_validation():
    with pytest.raises(ParameterError):
        gen_volumes(10, "pareto", tail=1.0)
    with pytest.raises(ParameterError):
        gen_volumes(10, "pareto", x_min=-1.0)
    with pytest.raises(ParameterError):
        gen_volumes(10, "lognormal", sigma=0.0)
    with pytest.raises(ParameterError):
        gen_volumes(10, "uniform")
    with pytest.raises(ParameterError, match="sigam"):
        gen_volumes(10, "lognormal", sigam=0.5)
    with pytest.raises(ParameterError, match="value"):
        gen_volumes(10, "lognormal", value=3.0)
