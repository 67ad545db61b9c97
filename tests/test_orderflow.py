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
)
from impactlab import orderflow
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
    eps = gen_iid_signs(100_000, 0.5, 3).signs
    assert abs(eps.mean()) * np.sqrt(eps.size) <= 4.0


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


def test_clipped_generator_matches_its_target_at_short_lags():
    s = gen_clipped_fractional_signs(2**18, 0.5, seed=4)
    meas = sign_autocorr(s, 8).values
    # clipping a bivariate normal maps correlation rho to (2/pi)arcsin(rho)
    tgt = (2.0 / np.pi) * np.arcsin(latent_autocorr(0.5, 8)[1:])
    # sampling error at this N is a few parts in a thousand
    assert np.max(np.abs(meas - tgt)) < 0.02


def test_clipped_generator_is_deterministic_per_seed():
    a = gen_clipped_fractional_signs(4096, 0.5, seed=1)
    b = gen_clipped_fractional_signs(4096, 0.5, seed=1)
    assert np.array_equal(a.signs, b.signs)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 4097, 2**20, 2**20 + 4096])
def test_clipped_signs_match_the_complex_fft_synthesis(monkeypatch, n):
    """The oracle is the synthesis as first written: complex fft eigenvalues of
    the embedding, and the real part of one complex ifft of both draws."""
    rho = latent_autocorr(0.5, n)
    # the whitening is computed once per n; the generator reads the same rho
    monkeypatch.setattr(orderflow, "latent_autocorr", lambda *args: rho)
    emb = np.concatenate([rho, rho[-2:0:-1]])
    m = emb.size
    scale = np.sqrt(np.clip(np.real(np.fft.fft(emb)), 0.0, None))
    ev = orderflow._embedding_eigenvalues(0.5, n, "martingale")
    assert ev.size == m // 2 + 1
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        old = np.real(np.fft.ifft(scale * z)) * np.sqrt(m)
        new = orderflow._circulant_latent(ev, seed)
        assert new.size == m and np.max(np.abs(new - old)) <= 1e-13
        signs = gen_clipped_fractional_signs(n, 0.5, seed).signs
        assert np.array_equal(signs, np.where(old[:n] >= 0.0, 1.0, -1.0))


def _one_expression_latent(ev, seed):
    """The Hermitian-fold synthesis as one expression over both whole draws,
    before the fold was built in place."""
    m = 2 * (ev.size - 1)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(m), rng.standard_normal(m)
    mirror = -np.arange(ev.size)  # index m - k, taken mod m
    fold = (x[: ev.size] + x[mirror]) / 2 + 1j * ((y[: ev.size] - y[mirror]) / 2)
    return np.fft.irfft(np.sqrt(ev) * fold, m) * np.sqrt(m)


@pytest.mark.parametrize("size", [2, 3, 5, 1000, 4097])
def test_circulant_latent_is_the_one_expression_synthesis_bitwise(size):
    ev = orderflow._embedding_eigenvalues(0.5, size - 1, "martingale")
    assert ev.size == size
    for seed in (1, 2):
        new = orderflow._circulant_latent(ev, seed)
        assert new.tobytes() == _one_expression_latent(ev, seed).tobytes()


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("grid", [8, 64, 1024, 2**14])
def test_whitening_autocorr_is_the_two_power_formula_bitwise(gamma, grid):
    b, half = (1.0 - gamma) / 2.0, grid // 2
    j = np.arange(1, half + 1, dtype=np.float64)
    coef = np.zeros(grid)
    coef[0] = 1.0
    coef[1 : half + 1] = -(j ** (-b) - (j + 1) ** (-b))
    acov = np.fft.irfft(1.0 / np.abs(np.fft.rfft(coef)) ** 2, grid)
    n_lags = grid // 4
    assert np.array_equal(orderflow._whitening_autocorr(gamma, n_lags, grid),
                          acov[: n_lags + 1] / acov[0])


def test_whitening_grid_is_the_float_formula_up_to_2_pow_21():
    n = np.arange(1, 2**21 + 1)
    want = 1 << np.floor(np.log2(8 * np.maximum(n, 1024))).astype(np.int64)
    assert [orderflow._whitening_grid(k) for k in range(1, 2**21 + 1)] == want.tolist()


@pytest.mark.parametrize("n", [2**10, 2**14, 2**16])
def test_latent_autocorr_keeps_the_old_grid_at_a_power_of_two(n):
    """The grid was 8 * 2^ceil(log2 n); at a power of two it is unchanged."""
    old_grid = 8 * 2 ** int(np.ceil(np.log2(n)))
    old = np.sin(0.5 * np.pi * orderflow._whitening_autocorr(0.5, n, old_grid))
    assert np.array_equal(latent_autocorr(0.5, n), old)


@pytest.mark.parametrize("n", [1000, 2**14 + 1, 2**15 - 1])
def test_latent_autocorr_is_one_process_per_octave(n):
    """Every n in [2^k, 2^(k+1)) draws from the process of 2^k, on a grid
    of at most 8 max(n, 1024) points."""
    k = n.bit_length() - 1
    assert np.array_equal(latent_autocorr(0.5, n)[: 2**k + 1], latent_autocorr(0.5, 2**k))
    assert orderflow._whitening_grid(n) <= 8 * max(n, 1024)


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
