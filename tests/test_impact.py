"""Price engines: worked examples, cross-engine equivalences, the FFT
convolution against the direct sums it computes, quote arithmetic, and the
model-config validity rules."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import (
    ArPredictor,
    ImpactConfig,
    InputError,
    Kernel,
    ParameterError,
    SignSeries,
    TradeTape,
    VolumeSeries,
    burn_in_length,
    gen_iid_signs,
    gen_markov_signs,
    gen_volumes,
    impact_sizes,
    kernel_from_predictor,
    propagator_path,
    quotes,
    surprise_path,
)
from impactlab.impact import _fast_len, _fft_convolve


def _tape(eps, vols=None):
    eps = np.asarray(eps, dtype=np.float64)
    v = gen_volumes(eps.size) if vols is None else vols
    return TradeTape(SignSeries(eps), v)


def test_kyle_path_worked_example():
    # default flat kernel, eps (+1,-1,+1), v=1, lam=0.1: 100 -> 100.1 -> 100.0 -> 100.1
    p = propagator_path(_tape([1, -1, 1]), ImpactConfig(lam=0.1, p0=100.0))
    assert np.allclose(p, [100.0, 100.1, 100.0, 100.1], rtol=0, atol=1e-12)


def test_null_model_is_a_constant_price():
    p = propagator_path(_tape([1, -1, 1, 1]), ImpactConfig(lam=0.0, p0=5.0))
    assert np.all(p == 5.0)


def test_noise_only_path_diffuses_at_unit_rate():
    tape = _tape(gen_iid_signs(100_000, 0.5, 1).signs)
    p = propagator_path(tape, ImpactConfig(lam=0.0, noise_sigma=1.0), seed=7)
    assert abs(np.var(np.diff(p)) - 1.0) < 0.05


def test_noise_is_reproducible_per_seed():
    tape = _tape(gen_iid_signs(100, 0.5, 1).signs)
    cfg = ImpactConfig(lam=0.1, noise_sigma=0.5)
    assert np.array_equal(propagator_path(tape, cfg, seed=3), propagator_path(tape, cfg, seed=3))
    assert not np.array_equal(propagator_path(tape, cfg, seed=3),
                              propagator_path(tape, cfg, seed=4))


def test_propagator_tabulated_worked_example():
    # G = (1, 0.5), two buys: p = (0, 1, 1.5)
    cfg = ImpactConfig(1.0, 1.0, Kernel.tabulated([1.0, 0.5]), 0.0, 0.0)
    assert np.array_equal(propagator_path(_tape([1, 1]), cfg), [0.0, 1.0, 1.5])


def test_permanent_propagator_reproduces_kyle_bitwise():
    # the default kernel and any constant table price by the Kyle walk
    # p0 + lam * cumsum(u) + cumsum(noise), bit for bit
    tape = _tape(gen_markov_signs(2000, 0.5, 11).signs)
    cfg = ImpactConfig(lam=0.3, psi=0.7, noise_sigma=0.5, p0=5.0)
    eta = 0.5 * np.random.default_rng(3).standard_normal(tape.n)
    walk = 5.0 + (0.3 * np.cumsum(impact_sizes(tape, 0.7)) + np.cumsum(eta))
    assert np.array_equal(propagator_path(tape, cfg, seed=3), np.concatenate([[5.0], walk]))
    flat = dataclasses.replace(cfg, kernel=Kernel.tabulated([1.0, 1.0, 1.0]))
    assert np.array_equal(propagator_path(tape, flat, seed=3), propagator_path(tape, cfg, seed=3))


def test_paths_are_translation_invariant_and_sign_odd():
    tape = _tape(gen_markov_signs(500, 0.5, 11).signs)
    k = Kernel.power_law(0.25)
    pa = propagator_path(tape, ImpactConfig(0.3, 0.7, k, 0.0, 5.0))
    pb = propagator_path(tape, ImpactConfig(0.3, 0.7, k, 0.0, 9.0))
    assert np.allclose(pb - pa, 4.0, rtol=0, atol=1e-12)
    flipped = _tape(-tape.eps)
    pf = propagator_path(flipped, ImpactConfig(0.3, 0.7, k, 0.0, 5.0))
    assert np.allclose(pf - 5.0, -(pa - 5.0), rtol=0, atol=1e-12)


def test_surprise_path_with_matched_kernel_equals_propagator():
    tape = _tape(gen_markov_signs(2000, 0.5, 11).signs)
    pred = ArPredictor([0.5])
    cfg = ImpactConfig(1.0, 1.0, kernel_from_predictor(pred, 6), 0.0, 0.0)
    rs = np.diff(surprise_path(tape, pred, cfg))
    rp = np.diff(propagator_path(tape, cfg))
    assert np.max(np.abs(rs - rp)) / np.max(np.abs(rp)) < 1e-12


def test_surprise_path_with_zero_predictor_equals_kyle():
    tape = _tape(gen_iid_signs(300, 0.5, 2).signs)
    cfg = ImpactConfig(lam=0.2, psi=0.8, p0=1.0)
    ps = surprise_path(tape, ArPredictor([0.0]), cfg)
    assert np.allclose(ps, propagator_path(tape, cfg), rtol=0, atol=1e-14)


def test_kernel_eval_forms():
    k = Kernel.power_law(0.25, g1=2.0, plateau=0.5)
    assert k.eval(1) == 2.5
    assert abs(k.eval(16) - (2.0 * 16**-0.25 + 0.5)) < 1e-15
    t = Kernel.tabulated([1.0, 0.7, 0.6])
    assert t.eval(2) == 0.7
    assert t.eval(50) == 0.6  # table extrapolates at its last value
    assert t.finite_horizon == 3 and k.finite_horizon == 0
    assert Kernel.permanent().is_constant and not k.is_constant
    with pytest.raises(ParameterError):
        k.eval(0)


def test_kernel_validation():
    with pytest.raises(ParameterError):
        Kernel.power_law(-0.1)
    with pytest.raises(ParameterError):
        Kernel.power_law(0.3, g1=0.0)
    with pytest.raises(ParameterError):
        Kernel.tabulated([])
    with pytest.raises(ParameterError):
        Kernel.tabulated([1.0, np.nan])
    with pytest.raises(ParameterError, match="unknown kernel form 'x'"):
        Kernel(form="x")
    for bad in ({"beta": np.nan}, {"beta": np.inf}, {"beta": 0.3, "g1": np.nan},
                {"beta": 0.3, "g1": np.inf}, {"beta": 0.3, "plateau": np.nan}):
        with pytest.raises(ParameterError, match="finite"):
            Kernel.power_law(**bad)


def test_impact_config_validation():
    assert ImpactConfig(lam=0.0).lam == 0.0  # lam=0 legal
    assert ImpactConfig().kernel == Kernel.permanent()
    with pytest.raises(ParameterError):
        ImpactConfig(lam=-1.0)
    with pytest.raises(ParameterError):
        ImpactConfig(psi=0.0)
    with pytest.raises(ParameterError):
        ImpactConfig(psi=1.2)
    with pytest.raises(ParameterError):
        ImpactConfig(noise_sigma=-0.5)
    with pytest.raises(ParameterError, match="kernel"):
        ImpactConfig(kernel=None)
    for bad in ({"lam": np.nan}, {"lam": np.inf}, {"noise_sigma": np.nan},
                {"noise_sigma": np.inf}, {"p0": np.nan}, {"p0": -np.inf}):
        with pytest.raises(ParameterError, match="finite"):
            ImpactConfig(**bad)


@pytest.mark.parametrize("engine", [
    lambda tape: propagator_path(tape, ImpactConfig(kernel=Kernel.power_law(0.4))),
    lambda tape: propagator_path(tape, ImpactConfig(lam=0.1)),
    lambda tape: surprise_path(tape, ArPredictor([0.3]), ImpactConfig())],
    ids=["propagator", "propagator-flat", "surprise"])
def test_both_price_engines_refuse_a_tape_of_no_trades(engine):
    empty = TradeTape(SignSeries(np.array([])), VolumeSeries(np.array([])))
    with pytest.raises(InputError, match="empty tape"):
        engine(empty)


def test_impact_sizes_are_signed_powers_of_volume():
    tape = _tape([1, -1], gen_volumes(2, "constant", value=4.0))
    assert np.array_equal(impact_sizes(tape, 0.5), [2.0, -2.0])


def test_kernel_from_predictor_worked_example():
    # a = (0.3, 0.2): G = 1, 1-.3, 1-.5, then flat
    k = kernel_from_predictor(ArPredictor([0.3, 0.2]), 4)
    assert np.array_equal(k.eval([1, 2, 3, 4]), [1.0, 0.7, 0.5, 0.5])


def test_predict_series_is_the_lagged_convolution():
    ps = ArPredictor([0.5]).predict_series(np.array([1.0, 1.0, -1.0]))
    assert np.array_equal(ps, [0.0, 0.5, 0.5])


# ---- the FFT convolution of both engines against the direct sums ----

PROPERTY = settings(max_examples=150, deadline=None)
signs = st.sampled_from([-1.0, 1.0])


@st.composite
def kernels(draw, n):
    """Power laws with and without a plateau; tables shorter and longer than
    the tape (held at their last value beyond it)."""
    if draw(st.booleans()):
        plateau = draw(st.sampled_from([0.0, 0.05, 0.5]))
        return Kernel.power_law(draw(st.floats(0.0, 1.5)), draw(st.floats(0.1, 10.0)), plateau)
    size = draw(st.one_of(st.integers(1, max(1, n - 1)), st.integers(n + 1, 2 * n + 8)))
    return Kernel.tabulated(draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size)))


@PROPERTY
@given(st.integers(1, 300).flatmap(lambda n: st.tuples(
    st.lists(signs, min_size=n, max_size=n),
    st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n), kernels(n))),
    st.floats(0.05, 0.95), st.sampled_from([1e-3, 1.0, 1e3]), st.floats(-50.0, 50.0))
def test_propagator_path_matches_the_double_loop(drawn, psi, lam, p0):
    eps, vols, kernel = drawn
    tape = _tape(eps, VolumeSeries(vols))
    p = propagator_path(tape, ImpactConfig(lam, psi, kernel, 0.0, p0))
    u = np.asarray(eps) * np.asarray(vols) ** psi
    g = kernel.eval(np.arange(1, tape.n + 1))
    want, scale = np.full(tape.n + 1, p0), abs(p0)
    for n in range(1, tape.n + 1):
        terms = [g[n - m - 1] * u[m] for m in range(n)]  # G(n - m) u_m
        want[n] += lam * sum(terms)
        scale = max(scale, abs(p0) + lam * sum(map(abs, terms)))
    assert p[0] == p0
    assert np.all(np.abs(p - want) <= 1e-12 * scale)


@PROPERTY
@given(st.lists(signs, min_size=0, max_size=300),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=400))
def test_predict_series_matches_np_convolve(eps, coeffs):
    eps = np.array(eps)
    pred = ArPredictor(coeffs).predict_series(eps)
    assert pred.shape == eps.shape
    if eps.size:
        assert pred[0] == 0.0
        want = np.convolve(eps, coeffs)[: eps.size - 1]
        assert np.all(np.abs(pred[1:] - want) <= 1e-12 * max(1.0, np.abs(coeffs).sum()))


def test_predict_series_of_no_trades_is_empty():
    assert ArPredictor([0.5]).predict_series(np.array([])).size == 0


# ---- the FFT length: even 2·3·5-smooth, never past the power of two ----

def _pow2_convolve(x, h, n):
    """The convolution padded to the power of two at or above
    x.size + h.size - 1: the oracle where _fast_len picks that length."""
    size = 1 << (x.size + h.size - 2).bit_length()
    spec = np.fft.rfft(x, size)
    spec *= np.fft.rfft(h, size)
    return np.fft.irfft(spec, size)[:n]


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fast_len_is_the_smallest_even_5_smooth_length():
    want = 1  # a power of two or an even 5-smooth number
    for need in range(1, 5001):
        want = max(want, need)
        while not (want == 1 or (want % 2 == 0 and _is_5_smooth(want))):
            want += 1
        assert _fast_len(need) == want, need


def test_fast_len_never_passes_the_power_of_two():
    for k in range(25):
        for need in {max(1, 2**k - 1), 2**k, 2**k + 1}:
            size = _fast_len(need)
            assert need <= size <= 1 << (need - 1).bit_length()
            assert size == 1 or (size % 2 == 0 and _is_5_smooth(size))
        assert _fast_len(2**k) == 2**k


@pytest.mark.parametrize("n", [1, 2, 3, 5, 1000, 4095, 4096, 4097, 2**10 + 3, 2**13 + 3])
def test_fft_convolve_matches_the_direct_sums(n):
    rng = np.random.default_rng(n)
    x, h = rng.standard_normal(n), rng.uniform(0.0, 1.0, n)
    got = _fft_convolve(x, h, n)
    want = np.convolve(x, h)[:n]
    assert got.shape == (n,)
    assert np.all(np.abs(got - want) <= 1e-12 * np.convolve(np.abs(x), h)[:n].max())


@pytest.mark.parametrize("nx, nh", [(1, 1), (1, 2), (2, 2), (2, 3), (512, 512),
                                    (2048, 2049), (2**14, 2**14)])
def test_fft_convolve_at_a_power_of_two_is_the_old_convolution(nx, nh):
    assert _fast_len(nx + nh - 1) == 1 << (nx + nh - 2).bit_length()
    rng = np.random.default_rng(nx + nh)
    x, h = rng.standard_normal(nx), rng.standard_normal(nh)
    assert np.array_equal(_fft_convolve(x, h, nx), _pow2_convolve(x, h, nx))


def test_decaying_propagator_is_the_scaled_convolution_plus_the_walk_bitwise():
    tape = _tape(gen_markov_signs(3000, 0.5, 11).signs)
    cfg = ImpactConfig(0.3, 0.7, Kernel.power_law(0.4), noise_sigma=0.5, p0=5.0)
    u = impact_sizes(tape, 0.7)
    s = _fft_convolve(u, cfg.kernel.eval(np.arange(1, tape.n + 1)), tape.n)
    eta = 0.5 * np.random.default_rng(3).standard_normal(tape.n)
    want = np.concatenate([[5.0], 5.0 + (0.3 * s + np.cumsum(eta))])
    assert np.array_equal(propagator_path(tape, cfg, seed=3), want)


@pytest.mark.parametrize("n", [1, 2, 1000, 2**16 + 4096])
def test_propagator_path_is_the_one_product_of_spectra_bitwise(n):
    """The flow's spectrum times the kernel's, inverted once: the same bits
    whatever order the transforms run in."""
    tape = _tape(gen_markov_signs(n, 0.5, n).signs, gen_volumes(n, "lognormal", seed=n))
    cfg = ImpactConfig(0.3, 0.7, Kernel.power_law(0.4), p0=5.0)
    u = impact_sizes(tape, 0.7)
    g = cfg.kernel.eval(np.arange(1, n + 1))
    size = _fast_len(2 * n - 1)
    s = np.fft.irfft(np.fft.rfft(u, size) * np.fft.rfft(g, size), size)[:n]
    want = np.concatenate([[5.0], 0.3 * s + 5.0])
    assert propagator_path(tape, cfg).tobytes() == want.tobytes()


def test_quotes_worked_examples():
    q = quotes(100.0, 0.5, ImpactConfig(), 1.0)
    assert (q.ask, q.bid, q.spread) == (100.5, 98.5, 2.0)
    q2 = quotes(50.0, -0.25, ImpactConfig(psi=0.5), 4.0)
    assert q2.spread == 4.0
    assert abs((q2.ask - q2.bid) - q2.spread) < 1e-12


def test_quotes_raise_on_predictor_blow_up():
    with pytest.raises(ParameterError, match="blow-up"):
        quotes(100.0, 1.0, ImpactConfig(), 1.0)
    with pytest.raises(ParameterError):
        quotes(100.0, 0.5, ImpactConfig(), 0.0)


def test_quotes_reproduce_the_transaction_path():
    """A trade at the quote before it, the ask for a buy and the bid for a
    sell, moves the price to the noiseless surprise path's next value."""
    tape = _tape(gen_markov_signs(2000, 0.5, 11).signs)
    pred = ArPredictor([0.5])
    cfg = ImpactConfig(1.0, 1.0, kernel_from_predictor(pred, 6), 0.3, 0.0)
    p = surprise_path(tape, pred, dataclasses.replace(cfg, noise_sigma=0.0))
    hats = pred.predict_series(tape.eps)
    quoted = [quotes(p[n], hats[n], cfg, tape.v[n]) for n in range(tape.n)]
    fills = [q.ask if e > 0 else q.bid for q, e in zip(quoted, tape.eps)]
    assert np.allclose(fills, p[1:], rtol=0, atol=1e-12)
    assert all(q.spread == 2.0 for q in quoted)


def test_burn_in_lengths_by_model_memory():
    assert burn_in_length(kernel=Kernel.permanent()) == 0
    assert burn_in_length(Kernel.permanent(), ArPredictor([0.5])) == 4096
    assert burn_in_length(kernel=Kernel.power_law(0.3)) == 4096
    long_table = Kernel.tabulated(np.arange(1, 3001.0) ** -0.3)
    assert burn_in_length(kernel=long_table) == 6000
