"""Order-flow generators: domain validation, determinism, and the
population targets each generator is built around."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import (
    ParameterError,
    SignSeries,
    TradeTape,
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


@pytest.mark.parametrize("priced", [True, False], ids=["priced", "unpriced"])
def test_drop_cuts_the_burn_in_as_views(priced):
    n = 20
    signs, vols = gen_iid_signs(n, 0.5, 1), gen_volumes(n, "lognormal", seed=2)
    prices = np.cumsum(np.arange(n + 1.0)) if priced else None
    tape = TradeTape(signs, vols, prices)
    for burn in (0, 7, n, n + 5):
        k = min(burn, n)  # a cut at or past the end keeps the final price
        cut = tape.drop(burn)
        assert cut.n == n - k
        assert np.array_equal(cut.eps, tape.eps[k:]) and np.array_equal(cut.v, tape.v[k:])
        assert k == n or (np.shares_memory(cut.eps, tape.eps)
                          and np.shares_memory(cut.v, tape.v))  # an empty array shares none
        if priced:
            assert np.array_equal(cut.prices, prices[k:])
            assert np.shares_memory(cut.prices, prices)
        else:
            assert cut.prices is None
    with pytest.raises(ParameterError, match="burn must be >= 0, got -1"):
        tape.drop(-1)


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
@pytest.mark.parametrize("grid", [8, 64, 1024, 2**14, 2**18])
def test_whitening_autocorr_is_the_two_power_formula_to_16_eps(gamma, grid):
    """The half-grid transforms reorder the sums, so values move at ulp level;
    the error grows with the grid and is largest at gamma = 0.1."""
    b, half = (1.0 - gamma) / 2.0, grid // 2
    j = np.arange(1, half + 1, dtype=np.float64)
    coef = np.zeros(grid)
    coef[0] = 1.0
    coef[1 : half + 1] = -(j ** (-b) - (j + 1) ** (-b))
    acov = np.fft.irfft(1.0 / np.abs(np.fft.rfft(coef)) ** 2, grid)
    n_lags = grid // 4
    new = orderflow._whitening_autocorr(gamma, n_lags, grid)
    assert np.max(np.abs(new - acov[: n_lags + 1] / acov[0])) <= 16 * np.finfo(float).eps


def _record_transforms(monkeypatch) -> list:
    """The list to which each of orderflow's transforms then appends its
    name and its longest length, input or output, as it runs."""
    events = []

    def recorded(name, transform):
        def call(a, *args, **kwargs):
            out = transform(a, *args, **kwargs)
            events.append((name, max(a.shape[-1], out.shape[-1])))
            return out
        return call

    for name in ("rfft", "irfft", "fft"):
        monkeypatch.setattr(orderflow, name, recorded(name, getattr(orderflow, name)))
    return events


def test_whitening_calls_no_transform_longer_than_a_quarter_of_the_grid(monkeypatch):
    events = _record_transforms(monkeypatch)
    grid = 2**14
    orderflow._whitening_autocorr(0.5, grid // 4, grid)
    assert events and max(length for _, length in events) <= grid // 4


def test_whitening_transforms_the_odd_class_before_building_the_even_half(monkeypatch):
    """The odd class's grid/4-point complex input and pocketfft's work buffers
    for it are the whitening's largest arrays. Built and transformed after
    the even half's buffers were freed, which raises glibc's mmap threshold,
    they stood on memory the heap kept, and the eigenvalues of 2^20 + 4096
    trades peaked at 139.3 MB in a fresh process against 131.2 MB odd first."""
    events = _record_transforms(monkeypatch)
    even_half = orderflow._even_half_inputs

    def recorded(*args):
        events.append(("even half inputs", None))
        return even_half(*args)

    monkeypatch.setattr(orderflow, "_even_half_inputs", recorded)
    grid = 2**14
    orderflow._whitening_autocorr(0.5, grid // 4, grid)
    first = events[: events.index(("even half inputs", None))]
    assert first == [("fft", grid // 4), ("rfft", grid // 4)]


def test_whitening_is_the_same_bits_in_any_chunking(monkeypatch):
    """The coefficients are computed chunk by chunk, and every chunk size gives
    the same bits. One-element chunks are not tried: numpy rounds an in-place
    complex product of one element outside its vector loop. Chunks are powers
    of two, like the grid, so one has a single element only at grid 8, where
    it is the whole class."""
    grid = 2**14
    want = orderflow._whitening_autocorr(0.5, grid // 4, grid)
    for chunk in (2, 333, grid):
        monkeypatch.setattr(orderflow, "_CHUNK", chunk)
        assert orderflow._whitening_autocorr(0.5, grid // 4, grid).tobytes() == want.tobytes()


def _one_accumulator_whitening(gamma, n_lags, grid):
    """The whitening with its three transform inputs built at once, in one
    pass over c, and the classes summed smallest first into one accumulator:
    the order that _whitening_autocorr changed, kept as its bitwise oracle."""
    beta = (1.0 - gamma) / 2.0
    half, quarter, eighth = grid // 2, grid // 4, grid // 8
    last = orderflow._steps(half, half + 1, beta)[0]
    top = np.empty(quarter, dtype=np.complex128)
    even = np.empty(quarter)
    sub = np.empty(eighth, dtype=np.complex128)
    for lo in range(0, eighth, orderflow._CHUNK):
        hi = min(lo + orderflow._CHUNK, eighth)
        a, b, c, d = (orderflow._steps(lo + k * eighth, hi + k * eighth, beta) for k in range(4))
        if lo == 0:
            a[0] = 1.0 - last
        for r, re, im in ((lo, a, c), (lo + eighth, b, d)):
            part = top[r : r + hi - lo]
            part.real = re
            np.negative(im, out=part.imag)
            part *= orderflow._twiddle(r, r + hi - lo, half)
        if lo == 0:
            a[0] = 1.0 + last
        np.add(a, c, out=even[lo:hi])
        np.add(b, d, out=even[lo + eighth : hi + eighth])
        part = sub[lo:hi]
        np.subtract(a, c, out=part.real)
        np.subtract(d, b, out=part.imag)
        part *= orderflow._twiddle(lo, hi, quarter)
    acov = np.zeros(n_lags + 1)
    orderflow._add_dct(acov, orderflow._odd_class_dct(sub), eighth)
    spec = np.fft.rfft(even)
    orderflow._inverse_power(spec)
    spec.imag = 0.0
    period = np.fft.irfft(spec, quarter)
    period *= eighth
    for start in range(0, acov.size, quarter):
        part = acov[start : start + quarter]
        part += period[: part.size]
    orderflow._add_dct(acov, orderflow._odd_class_dct(top), quarter)
    acov /= acov[0]
    return acov


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("grid", [8, 64, 1024, 2**14, 2**18])
def test_odd_class_first_is_the_one_accumulator_whitening_bitwise(gamma, grid):
    want = _one_accumulator_whitening(gamma, grid // 4, grid)
    assert orderflow._whitening_autocorr(gamma, grid // 4, grid).tobytes() == want.tobytes()


def test_eigenvalues_on_the_one_accumulator_whitening_are_the_same_bits(monkeypatch):
    n = 2**16 + 4096
    want = orderflow._embedding_eigenvalues.__wrapped__(0.5, n, "martingale")
    monkeypatch.setattr(orderflow, "_whitening_autocorr", _one_accumulator_whitening)
    got = orderflow._embedding_eigenvalues.__wrapped__(0.5, n, "martingale")
    assert got.tobytes() == want.tobytes()


def _grid_length_whitening(gamma, n_lags, grid):
    """The whitening autocorrelation from one rfft and one irfft over the whole grid."""
    b, half = (1.0 - gamma) / 2.0, grid // 2
    j = np.arange(1, half + 1, dtype=np.float64)
    coef = np.zeros(grid)
    coef[0] = 1.0
    coef[1 : half + 1] = -(j ** (-b) - (j + 1) ** (-b))
    acov = np.fft.irfft(1.0 / np.abs(np.fft.rfft(coef)) ** 2, grid)
    return acov[: n_lags + 1] / acov[0]


def test_half_grid_whitening_flips_no_sign_at_a_non_power_of_two_size(monkeypatch):
    """At 2^16 + 4096 trades, as with burn-in, the eigenvalues built from the
    grid-length whitening give exactly the generator's signs."""
    n = 2**16 + 4096
    monkeypatch.setattr(orderflow, "_whitening_autocorr", _grid_length_whitening)
    ev = orderflow._embedding_eigenvalues.__wrapped__(0.5, n, "martingale")
    monkeypatch.undo()
    for seed in (1, 2, 3):
        latent = orderflow._circulant_latent(ev, seed)
        signs = gen_clipped_fractional_signs(n, 0.5, seed).signs
        assert np.array_equal(signs, np.where(latent[:n] >= 0.0, 1.0, -1.0))


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


def test_sign_autocorr_of_a_constant_series_is_zero():
    # centering a constant series wipes the signal, which is not fatal
    assert np.all(sign_autocorr(SignSeries(np.ones(500)), 4).values == 0)


def _metaorder_loop(n, alpha, seed):
    """The metaorder generator one metaorder at a time, kept as the oracle
    of the vectorised one: a length draw, then a direction draw."""
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    pos = 0
    while pos < n:
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
@given(n=st.integers(1, 3000), alpha=st.floats(1.01, 1.99), seed=st.integers(0, 2**32))
def test_metaorder_signs_repeat_the_loop(n, alpha, seed):
    got = gen_metaorder_signs(n, alpha, seed=seed).signs
    assert np.array_equal(got, _metaorder_loop(n, alpha, seed))


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


def test_metaorder_signs_take_no_fixed_length():
    """Every metaorder draws its length; a config's generator.fixed_length
    reaches this TypeError, which the experiment reports as a ParameterError."""
    with pytest.raises(TypeError):
        gen_metaorder_signs(100, 1.5, seed=1, fixed_length=5)


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
