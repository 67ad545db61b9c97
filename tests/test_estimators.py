"""Estimators: exact values on constructed tapes, error handling, the
FFT lag estimators against the direct per-lag loops they replaced, and the
forward-predict / invert pair on a known kernel."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import estimators
from impactlab import (
    ArPredictor,
    ConditionalResponse,
    EstimationError,
    ImpactConfig,
    InputError,
    Kernel,
    LagCurve,
    ParameterError,
    QuotePair,
    SignSeries,
    TradeTape,
    VolumeSeries,
    conditional_response,
    diffusivity,
    fit_barra,
    fit_power_law,
    gen_clipped_fractional_signs,
    gen_iid_signs,
    gen_volumes,
    invert_response,
    levinson_durbin,
    master_curve_rescale,
    normalized_autocorr,
    pool_curves,
    predict_response,
    propagator_path,
    quotes,
    response,
    rho,
    sign_autocorr,
)


def _priced_tape(eps, prices, vols=None):
    eps = np.asarray(eps, dtype=np.float64)
    v = np.ones(eps.size) if vols is None else np.asarray(vols, dtype=np.float64)
    return TradeTape(
        SignSeries(eps),
        VolumeSeries(v),
        np.asarray(prices, dtype=np.float64),
    )


def _kyle_tape(eps, v, lam=0.25, psi=1.0, p0=10.0):
    tape = TradeTape(SignSeries(eps), VolumeSeries(v))
    p = propagator_path(tape, ImpactConfig(lam=lam, psi=psi, p0=p0))
    return TradeTape(tape.signs, tape.volumes, p)


def test_response_matches_hand_computation():
    # eps (+1,-1,+1), prices (0,1,0.5,1.2); R(1) = mean(dp*eps) - mean(dp)mean(eps)
    tape = _priced_tape([1, -1, 1], [0.0, 1.0, 0.5, 1.2])
    r = response(tape, max_lag=2)
    dp = np.array([1.0, -0.5, 0.7])
    want = dp.mean() * 0 + (dp * np.array([1, -1, 1])).mean() - dp.mean() * (1 / 3)
    assert abs(r.values[0] - want) < 1e-15
    assert r.counts[0] == 3 and r.counts[1] == 2
    assert r.role_tag == "response"


def test_response_nonoverlap_uses_disjoint_windows():
    tape = _priced_tape([1, 1, -1, 1, 1], [0.0, 1.0, 2.0, 1.0, 2.0, 3.0])
    r = response(tape, max_lag=2, overlap=False)
    # windows start at 0 and 2: (p2-p0)*e0, (p4-p2)*e2
    want = np.mean([2.0 * 1, 0.0 * -1]) - np.mean([2.0, 0.0]) * np.mean([1, -1])
    assert abs(r.value_at(2) - want) < 1e-15
    assert r.counts[1] == 2


@pytest.mark.parametrize("m", [255, 256, 257])
def test_response_nonoverlap_takes_every_window_that_fits(m):
    """The windows start at n = 0, l, 2l, ... <= m - l: m // l of them, the
    last ending at p[m] whenever l divides m."""
    rng = np.random.default_rng(5)
    eps = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    tape = _kyle_tape(eps, rng.uniform(0.5, 2.0, m))
    r = response(tape, max_lag=9, overlap=False, batches=4)
    p, e = tape.prices, tape.eps
    for i, l in enumerate(r.lags):
        starts = np.arange(0, m - l + 1, l)
        dp = np.array([p[n + l] - p[n] for n in starts])
        prod = dp * e[starts]
        bs = prod.size // 4
        se = prod[: 4 * bs].reshape(4, bs).mean(axis=1).std(ddof=1) / 2.0
        assert r.counts[i] == m // l == starts.size
        np.testing.assert_allclose(r.values[i], prod.mean() - dp.mean() * e[starts].mean(),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(r.se[i], se, rtol=1e-12, atol=1e-15)


def test_response_requires_prices_and_a_lag_spec():
    bare = TradeTape(
        SignSeries(np.ones(10)), VolumeSeries(np.ones(10))
    )
    with pytest.raises(Exception):
        response(bare, max_lag=2)
    tape = _priced_tape([1, -1, 1], [0.0, 1.0, 0.5, 1.2])
    with pytest.raises(ParameterError):
        response(tape)
    with pytest.raises(ParameterError):
        response(tape, max_lag=10)


@pytest.mark.parametrize("measure", [
    lambda tape: response(tape, max_lag=2),
    lambda tape: diffusivity(tape, 2),
    lambda tape: rho(tape, 2),
    lambda tape: conditional_response(tape, 2, min_count=1),
], ids=["response", "diffusivity", "rho", "conditional_response"])
def test_estimators_reject_an_unpriced_tape(measure):
    bare = TradeTape(
        SignSeries(np.ones(10)), VolumeSeries(np.ones(10))
    )
    with pytest.raises(InputError, match="no prices"):
        measure(bare)


def _small_tape():
    eps = np.tile([1.0, -1.0, -1.0, 1.0], 8)
    return _kyle_tape(eps, np.linspace(1.0, 2.0, eps.size))


def _binned():
    edges = np.geomspace(1.0, 8.0, 4)
    return ConditionalResponse(edges[:-1], edges[1:], np.array([1.0, 2.0, 3.0]), np.full(3, 10), 1)


# Each public float parameter, as the call that takes it, and the burn of
# the lag estimators: what each must refuse, and the message that says so.
_NUMBERS = {
    "sigma": lambda x: fit_barra(_binned(), x, 1.0),
    "psi_weight": lambda x: rho(_small_tape(), 4, psi_weight=x),
    "delta": lambda x: master_curve_rescale([(1.0, 1.0, _binned()), (2.0, 1.0, _binned())], x),
    "err_var": lambda x: ArPredictor([0.3], err_var=x),
    "quote-v": lambda x: quotes(100.0, 0.5, ImpactConfig(), x),
    "ask": lambda x: QuotePair(x, 0.0, 1.0),
    "kernel-lag": lambda x: Kernel.power_law(0.5).eval([1.0, x]),
    "constant-value": lambda x: gen_volumes(4, "constant", value=x),
    "lognormal-mu": lambda x: gen_volumes(4, "lognormal", mu=x),
    "lognormal-sigma": lambda x: gen_volumes(4, "lognormal", sigma=x),
    "pareto-x_min": lambda x: gen_volumes(4, "pareto", x_min=x),
    "pareto-tail": lambda x: gen_volumes(4, "pareto", tail=x),
    "capitalization": lambda x: master_curve_rescale([(x, 1.0, _binned()), (2.0, 1.0, _binned())]),
    "bins": lambda x: conditional_response(_small_tape(), 1, bins=[1.0, 1.5, x], min_count=1),
    "bin_lo": lambda x: ConditionalResponse([x], [2.0], [1.0], [10], 1),
    "bin_hi": lambda x: ConditionalResponse([1.0], [x], [1.0], [10], 1),
    "lam": lambda x: predict_response(Kernel.power_law(0.5), np.zeros(8), x, 1.0, 1.0, 4, 8),
    "psi": lambda x: predict_response(Kernel.power_law(0.5), np.zeros(8), 1.0, x, 1.0, 4, 8),
    "v": lambda x: predict_response(Kernel.power_law(0.5), np.zeros(8), 1.0, 1.0, x, 4, 8),
}
_REFUSED_NUMBERS = [(f"{name}={x}", call, x, "finite") for name, call in _NUMBERS.items()
                    for x in (np.nan, np.inf, -np.inf)] + [
    ("response-burn", lambda b: response(_small_tape(), max_lag=2, burn=b), -1,
     "burn must be >= 0"),
    ("diffusivity-burn", lambda b: diffusivity(_small_tape().prices, 2, burn=b), -1,
     "burn must be >= 0")]


@pytest.mark.parametrize("call, value, match", [case[1:] for case in _REFUSED_NUMBERS],
                         ids=[case[0] for case in _REFUSED_NUMBERS])
def test_public_numbers_are_checked_on_both_sides(call, value, match):
    with pytest.raises(ParameterError, match=match):
        call(value)


# ---- the direct per-lag definitions, kept as oracles of the FFT path ----

def _window_energy(p, l):
    """Mean over the windows of the squared returns inside each, the
    magnitude that the FFT identities sum (what the mean squared move would
    be if the returns were uncorrelated)."""
    cs = np.concatenate(([0.0], np.cumsum(np.diff(p) ** 2)))
    return np.mean(cs[l:] - cs[:-l])


def _loop_response(tape, lags, burn=0):
    """(values, counts, SEs, scale) per lag over overlapping windows; the
    scale is the larger of the mean squared product and the window energy."""
    p, e = tape.prices[burn:], tape.eps[burn:]
    rows = []
    for l in lags:
        dp = p[l:] - p[:-l]
        ee = e[: dp.size]
        prod = dp * ee
        rows.append((prod.mean() - dp.mean() * ee.mean(), prod.size,
                     prod.std() / np.sqrt(prod.size),
                     max(np.mean(prod * prod), _window_energy(p, l))))
    vals, cnts, ses, second = map(np.array, zip(*rows))
    return vals, cnts.astype(np.int64), ses, second


def _loop_diffusivity(prices, max_lag, burn=0):
    """(values, counts, scale / lag) per lag, the scale as in _loop_response."""
    p = np.asarray(prices, dtype=np.float64)[burn:]
    rows = []
    for l in range(1, max_lag + 1):
        d = p[l:] - p[:-l]
        rows.append((d.var() / l, d.size, max(np.mean(d * d), _window_energy(p, l)) / l))
    vals, cnts, second = map(np.array, zip(*rows))
    return vals, cnts.astype(np.int64), second


TOL = 1e-12


def _assert_near(got, want, scale):
    """Relative TOL, measured against the larger of the value and the scale
    of what was summed (a value that cancels to ~0 has no relative digits)."""
    assert np.all(np.abs(got - want) <= TOL * np.maximum(np.abs(want), scale))


def _assert_spread_near(got, want, second):
    """A spread is a difference of second moments: its error is TOL of their
    scale, and relative TOL wherever it keeps >= 10% of that scale."""
    assert np.all(np.abs(got - want) <= TOL * second)
    kept = want >= 0.1 * second
    assert np.all(np.abs(got - want)[kept] <= TOL * want[kept])


def _assert_response_matches_loop(r, tape, burn=0):
    vals, cnts, ses, second = _loop_response(tape, r.lags, burn)
    assert np.array_equal(r.counts, cnts)
    _assert_near(r.values, vals, np.sqrt(second))
    _assert_spread_near(r.se**2 * cnts, ses**2 * cnts, second)
    kept = ses**2 * cnts >= 0.1 * second
    assert np.all(np.abs(r.se - ses)[kept] <= TOL * ses[kept])


nonzero_unit = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def priced_tapes(draw, max_n=120):
    """Signs, and prices p0 + cumsum(impact * eps + noise) at a drawn scale."""
    n = draw(st.integers(3, max_n))
    eps = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    noise = np.array(draw(st.lists(nonzero_unit, min_size=n, max_size=n)))
    impact = draw(st.sampled_from([0.0, 0.1, 1.0]))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    p0 = draw(st.floats(-50.0, 50.0))
    prices = scale * (p0 + np.concatenate(([0.0], np.cumsum(impact * eps + noise))))
    return _priced_tape(eps, prices)


PROPERTY = settings(max_examples=150, deadline=None)

# FFT block length for _fft_corr: the default (one block on these short
# series) or 1, i.e. as short as the lags allow, so that a series spans
# many blocks
BLOCKS = st.sampled_from([estimators._FFT_BLOCK, 1])


def _fft_blocks(block):
    return mock.patch.object(estimators, "_FFT_BLOCK", block)


@PROPERTY
@given(priced_tapes(), st.data())
def test_response_matches_the_per_lag_loop(tape, data):
    burn = data.draw(st.integers(0, tape.n - 2))
    top = tape.n - burn - 1  # the largest lag the post-burn tape admits
    with _fft_blocks(data.draw(BLOCKS)):
        max_lag = data.draw(st.one_of(st.just(top), st.integers(1, top)))
        r = response(tape, max_lag=max_lag, burn=burn)
        assert np.array_equal(r.lags, np.arange(1, max_lag + 1))
    _assert_response_matches_loop(r, tape, burn)
    assert np.all(np.isfinite(r.se)) and np.all(r.se >= 0)


@st.composite
def price_arrays(draw, max_n=120):
    """Plain price arrays: random walks at a drawn scale, or bounded levels."""
    n = draw(st.integers(3, max_n))
    x = np.array(draw(st.lists(nonzero_unit, min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    p0 = draw(st.floats(-50.0, 50.0))
    return scale * (p0 + (np.cumsum(x) if draw(st.booleans()) else x))


@PROPERTY
@given(price_arrays(), st.data())
def test_diffusivity_matches_the_per_lag_loop(p, data):
    burn = data.draw(st.integers(0, p.size - 3))
    top = p.size - burn - 2
    max_lag = data.draw(st.one_of(st.just(top), st.integers(1, top)))
    with _fft_blocks(data.draw(BLOCKS)):
        d = diffusivity(p, max_lag, burn=burn)
    vals, cnts, second = _loop_diffusivity(p, max_lag, burn)
    assert np.array_equal(d.counts, cnts)
    _assert_spread_near(d.values, vals, second)


@pytest.mark.parametrize("block", [estimators._FFT_BLOCK, 2048])
def test_lag_estimators_match_the_loops_on_a_long_memory_tape(block):
    # clipped-fractional signs priced by a decaying kernel, levels near 1e3;
    # a 2048-point FFT block splits the tape into a dozen blocks
    n = 1 << 14
    signs = gen_clipped_fractional_signs(n, 0.5, seed=4)
    vols = VolumeSeries(np.random.default_rng(5).lognormal(0.0, 0.5, n))
    bare = TradeTape(signs, vols)
    cfg = ImpactConfig(1.0, 1.0, Kernel.power_law(0.25, 1.0, 0.0), 0.0, 1000.0)
    tape = TradeTape(signs, vols, propagator_path(bare, cfg))
    with _fft_blocks(block):
        for burn in (0, 1024):
            _assert_response_matches_loop(response(tape, max_lag=600, burn=burn), tape, burn)
            d = diffusivity(tape, 600, burn=burn)
            vals, cnts, second = _loop_diffusivity(tape.prices, 600, burn)
            assert np.array_equal(d.counts, cnts)
            _assert_spread_near(d.values, vals, second)


@PROPERTY
@given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=300), st.data())
def test_autocorrelations_match_the_per_lag_sums(eps, data):
    eps = np.array(eps)
    n = eps.size
    max_lag = data.draw(st.integers(1, n - 1))
    with _fft_blocks(data.draw(BLOCKS)):
        c = sign_autocorr(eps, max_lag)
        raw = estimators._fft_corr(eps, eps, max_lag)
    want = np.array([eps[: n - d] @ eps[d:] for d in range(max_lag + 1)])
    assert np.all(np.abs(raw - want) <= TOL * n)  # exact integers, up to rounding
    mu = eps.mean()
    assert np.all(np.abs(c.values - (want[1:] / (n - c.lags) - mu * mu)) <= TOL)


@PROPERTY
@given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=200),
       st.sampled_from([0.1, 0.25, 1.0]), st.floats(-100.0, 100.0))
def test_response_se_on_a_constant_volume_kyle_tape(eps, lam, p0):
    # every lag-1 product is lam exactly: no spread, and no NaN from rounding
    tape = _kyle_tape(np.array(eps), np.ones(len(eps)), lam=lam, p0=p0)
    r = response(tape, max_lag=len(eps) - 1)
    assert np.isfinite(r.se[0]) and r.se[0] >= 0
    assert r.se[0] < 1e-6 * lam  # criterion 1 floors the SE at 1e-5 lam
    _assert_response_matches_loop(r, tape)


def test_conditional_response_is_exact_on_discrete_volumes():
    # noiseless linear kyle: (p_{n+1}-p_n) eps_n = lam * v_n exactly
    rng = np.random.default_rng(42)
    n = 3000
    eps = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    v = rng.choice([1.0, 2.0, 3.0], n)
    tape = _kyle_tape(eps, v)
    cr = conditional_response(tape, 1, bins=[0.5, 1.5, 2.5, 3.5], min_count=10)
    assert np.allclose(cr.values, [0.25, 0.5, 0.75], rtol=0, atol=1e-14)
    assert cr.counts.sum() == n  # every trade has a next price on a full tape
    assert np.allclose(cr.centers, np.sqrt([0.5 * 1.5, 1.5 * 2.5, 2.5 * 3.5]))


def test_conditional_response_occupancy_floor():
    tape = _kyle_tape(np.array([1.0, -1.0] * 50), np.ones(100))
    with pytest.raises(EstimationError):
        conditional_response(tape, 1, bins=[0.5, 1.5], min_count=1000)


def test_conditional_response_refuses_an_empty_bin_floor():
    tape = _kyle_tape(np.array([1.0, -1.0] * 50), np.linspace(1.0, 2.0, 100))
    with pytest.raises(ParameterError, match="min_count"):
        conditional_response(tape, 1, n_bins=40, min_count=0)
    for n_bins in (0, -1, 2.5, np.nan, True):
        with pytest.raises(ParameterError, match="n_bins must be an integer >= 1"):
            conditional_response(tape, 1, n_bins=n_bins, min_count=1)
    assert conditional_response(tape, 1, n_bins=np.int64(2), min_count=1).values.size == 2


@pytest.mark.parametrize("counts, values", [([5, 0], [1.0, 2.0]), ([5, 5], [1.0, np.nan])])
def test_conditional_response_holds_occupied_finite_bins(counts, values):
    with pytest.raises(ParameterError):
        ConditionalResponse(np.array([1.0, 2.0]), np.array([2.0, 3.0]), np.array(values),
                            np.array(counts), 1)


@pytest.mark.parametrize("lo, hi", [([0.0], [1.0]), ([-2.0], [-1.0]), ([2.0, 1.0], [3.0, 4.0]),
                                    ([1.0, 2.0], [3.0, 4.0])],
                         ids=["zero", "negative", "decreasing", "overlapping"])
def test_conditional_response_refuses_bad_bin_edges(lo, hi):
    with pytest.raises(ParameterError, match="bin edges must be finite, positive"):
        ConditionalResponse(lo, hi, np.ones(len(lo)), np.full(len(lo), 10), 1)


def test_rho_is_unity_for_noiseless_linear_impact():
    rng = np.random.default_rng(1)
    eps = np.where(rng.random(5000) < 0.5, 1.0, -1.0)
    v = rng.lognormal(0.0, 0.3, 5000)
    tape = _kyle_tape(eps, v)
    assert abs(rho(tape, 8) - 1.0) < 1e-12
    with pytest.raises(EstimationError):
        rho(_kyle_tape(eps[:4], v[:4]), 4)


def test_sign_autocorr_centered_covariance_exact():
    # alternating signs, odd N: raw lag-1 term is -1, centering adds -mean^2
    s = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    c = sign_autocorr(s, 2)
    assert abs(c.values[0] - (-1.0 - 0.2**2)) < 1e-15
    assert c.meta.get("range_flag") is True  # below -1 is flagged, not fatal
    assert np.array_equal(c.counts, [4, 3])
    with pytest.raises(ParameterError):
        sign_autocorr(s, 5)


def test_diffusivity_of_a_random_walk_is_flat():
    rng = np.random.default_rng(17)
    p = np.concatenate([[0.0], np.cumsum(rng.standard_normal(100_000))])
    d = diffusivity(p, 64)
    assert d.values.min() > 0.9 and d.values.max() < 1.1
    assert d.role_tag == "diffusivity"


def test_normalized_autocorr_leads_with_one():
    rng = np.random.default_rng(3)
    ac = normalized_autocorr(rng.standard_normal(10_000), 8)
    assert ac[0] == 1.0
    assert np.max(np.abs(ac[1:])) < 0.05
    with pytest.raises(EstimationError):
        normalized_autocorr(np.ones(100), 4)


def test_fit_power_law_recovers_exact_parameters():
    lags = np.arange(1, 101)
    f = fit_power_law((lags, 2.5 * lags**-0.7), (1, 100))
    assert abs(f.exponent - 0.7) < 1e-12
    assert abs(f.prefactor - 2.5) < 1e-10
    assert f.r_squared > 1 - 1e-12
    assert f.exponent_se < 1e-12
    assert f.fit_range == (1, 100)


def test_fit_power_law_guards():
    lags = np.arange(1, 10)
    with pytest.raises(EstimationError):
        fit_power_law((lags, -1.0 * lags), (1, 9))
    with pytest.raises(EstimationError):
        fit_power_law((lags, 1.0 * lags), (1, 2))  # too few points


def test_predict_response_flat_kernel_uncorrelated_flow():
    c0 = LagCurve(np.arange(1, 33), np.zeros(32), np.full(32, 100), "sign_autocorr")
    pr = predict_response(Kernel.permanent(), c0, 0.25, 1.0, 1.0, max_lag=8, j_tail=32)
    assert np.allclose(pr.values, 0.25, rtol=0, atol=1e-15)
    assert pr.meta["truncation_bound"] >= 0.0


def test_predict_then_invert_recovers_the_kernel():
    lags = np.arange(1, 201)
    c = LagCurve(lags, 0.4 * lags**-0.6, np.full(lags.size, 1000), "sign_autocorr")
    g_true = np.arange(1, 17) ** -0.3
    r = predict_response(Kernel.tabulated(g_true), c, 1.0, 1.0, 1.0, max_lag=32, j_tail=200)
    k, report = invert_response(r, c, 1.0, 1.0, 1.0, 16, j_tail=200)
    assert np.max(np.abs(k.values - g_true) / g_true) < 1e-10
    assert report["condition"] < 1e6
    assert len(report["se_proxy"]) == 16
    with pytest.raises(ParameterError):
        invert_response(r, c, 1.0, 1.0, 1.0, 64, j_tail=200)  # L above R horizon


# ---- the per-lag three-term sum that predict_response computed before its
# response matrix, kept as its oracle ----

def _loop_predict(kernel, c, lam, psi, v, max_lag, j_tail):
    """Per lag l = 1..max_lag: lam*v^psi * [G(l) + sum_{0<j<l} G(l-j)C(j)
    + sum_{j=1..j_tail} (G(l+j)-G(j))C(j)], and the same sum over the
    magnitudes of its terms, the scale of its rounding error."""
    scale = lam * v**psi
    jt = np.arange(1, j_tail + 1)
    g_jt = kernel.eval(jt)
    vals, mags = np.empty(max_lag), np.empty(max_lag)
    for i, l in enumerate(range(1, max_lag + 1)):
        j = np.arange(1, l)
        mid = kernel.eval(l - j) * c[j - 1]
        tail = (kernel.eval(l + jt) - g_jt) * c[jt - 1]
        vals[i] = scale * (float(kernel.eval(l)) + np.sum(mid) + np.sum(tail))
        spread = (np.abs(kernel.eval(l + jt)) + np.abs(g_jt)) * np.abs(c[jt - 1])
        mags[i] = scale * (abs(float(kernel.eval(l))) + np.sum(np.abs(mid)) + np.sum(spread))
    return vals, mags


@st.composite
def propagator_cases(draw):
    """(kernel, C as an array or a LagCurve, max_lag, j_tail): power laws with
    and without a plateau, tables shorter and longer than max_lag + j_tail,
    j_tail = 0, and random C."""
    max_lag = draw(st.integers(1, 40))
    j_tail = draw(st.one_of(st.just(0), st.integers(0, 60)))
    if draw(st.booleans()):
        plateau = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
        kernel = Kernel.power_law(draw(st.floats(0.0, 1.5)), draw(st.floats(0.1, 3.0)), plateau)
    else:
        size = draw(st.integers(1, max_lag + j_tail + 10))
        kernel = Kernel.tabulated(draw(st.lists(st.floats(-1.0, 2.0), min_size=size,
                                                max_size=size)))
    size = max(max_lag - 1, j_tail) + draw(st.integers(0, 5))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    if size and draw(st.booleans()):
        c = LagCurve(np.arange(1, size + 1), c, np.full(size, 10), "sign_autocorr")
    return kernel, c, max_lag, j_tail


@PROPERTY
@given(propagator_cases(), st.floats(0.1, 2.0), st.floats(0.2, 1.0), st.floats(0.5, 4.0))
def test_predict_response_matches_the_per_lag_sum(case, lam, psi, v):
    kernel, c, max_lag, j_tail = case
    pr = predict_response(kernel, c, lam, psi, v, max_lag=max_lag, j_tail=j_tail)
    dense = c.values if isinstance(c, LagCurve) else c
    vals, mags = _loop_predict(kernel, dense, lam, psi, v, max_lag, j_tail)
    assert np.array_equal(pr.lags, np.arange(1, max_lag + 1))
    assert np.all(np.abs(pr.values - vals) <= TOL * mags)


@pytest.mark.parametrize("n_eq", [16, 40], ids=["square", "overdetermined"])
@pytest.mark.parametrize("j_tail", [5, 16, 60], ids=["j<L", "j=L", "j>L"])
def test_invert_recovers_a_predicted_table(n_eq, j_tail):
    lags = np.arange(1, 101)
    c = LagCurve(lags, 0.4 * lags**-0.6, np.full(lags.size, 1000), "sign_autocorr")
    g = 0.2 + np.arange(1, 17) ** -0.4  # L = 16 lags, then flat at G(16)
    lam, psi, v = 0.7, 0.5, 2.0
    r = predict_response(Kernel.tabulated(g), c, lam, psi, v, max_lag=n_eq, j_tail=j_tail)
    k, report = invert_response(r, c, lam, psi, v, g.size, j_tail=j_tail)
    assert np.max(np.abs(k.values - g) / g) < 1e-10
    assert report["residual_norm"] < 1e-12
    assert report["j_tail"] == j_tail and report["equations"] == n_eq
    assert (report["se_proxy"] is None) == (n_eq == g.size)


@pytest.mark.parametrize("ridge", [0.0, 1e-6, 1e-2])
def test_invert_reads_every_result_from_one_svd(ridge):
    """The kernel minimizes ||A G - b||^2 + ridge ||G||^2: lstsq's solution at
    ridge 0, else the solution of (A^T A + ridge I) G = A^T b; se_proxy is
    residual^2 / (n - L) * diag((A^T A + ridge I)^-1). One SVD, no other
    factorization."""
    lags = np.arange(1, 201)
    c = LagCurve(lags, 0.4 * lags**-0.6, np.full(lags.size, 1000), "sign_autocorr")
    lam, psi, v, n_eq, big_l, j_tail = 0.7, 0.5, 2.0, 48, 16, 100
    # a power law is not flat past L, so the fit leaves a residual
    r = predict_response(Kernel.power_law(0.4), c, lam, psi, v, max_lag=n_eq, j_tail=j_tail)
    refuse = {"side_effect": AssertionError("a second factorization")}
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            mock.patch.object(np.linalg, "lstsq", **refuse), \
            mock.patch.object(np.linalg, "solve", **refuse), \
            mock.patch.object(np.linalg, "pinv", **refuse):
        k, report = invert_response(r, c, lam, psi, v, big_l, j_tail=j_tail, ridge=ridge)
    assert svd.call_count == 1
    a = estimators._response_matrix(c, n_eq, j_tail)
    a[:, big_l - 1] = a[:, big_l - 1 :].sum(axis=1)
    a = a[:, :big_l]
    b = r.values / (lam * v**psi)
    g = k.values
    if ridge == 0:
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))
    else:
        lhs, rhs = (a.T @ a + ridge * np.eye(big_l)) @ g, a.T @ b
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))
    residual = np.linalg.norm(a @ g - b)
    assert residual > 0 and report["residual_norm"] == pytest.approx(residual, rel=1e-12)
    var = residual**2 / (n_eq - big_l) * np.diag(np.linalg.inv(a.T @ a + ridge * np.eye(big_l)))
    assert np.allclose(report["se_proxy"], np.sqrt(var), rtol=1e-9, atol=0)
    sv = np.linalg.svd(a, compute_uv=False)
    assert report["condition"] == pytest.approx(sv[0] / sv[-1], rel=1e-12)
    assert report["ridge"] == ridge


@pytest.mark.parametrize("lam, psi, v", [(-1.0, 1.0, 1.0), (1.0, 5.0, 1.0), (1.0, 1.0, 0.0)],
                         ids=["negative-lam", "psi-above-1", "zero-v"])
def test_the_response_relation_refuses_the_same_scale_both_ways(lam, psi, v):
    c = 0.4 * np.arange(1, 65) ** -0.6
    r = predict_response(Kernel.power_law(0.3), c, 1.0, 1.0, 1.0, max_lag=8, j_tail=8)
    with pytest.raises(ParameterError, match="must be finite"):
        predict_response(Kernel.power_law(0.3), c, lam, psi, v, max_lag=8, j_tail=8)
    with pytest.raises(ParameterError, match="must be finite"):
        invert_response(r, c, lam, psi, v, 8, j_tail=8)


def test_the_response_relation_rejects_a_negative_j_tail():
    c = 0.4 * np.arange(1, 65) ** -0.6
    with pytest.raises(ParameterError, match="j_tail"):
        predict_response(Kernel.power_law(0.3), c, 1.0, 1.0, 1.0, max_lag=8, j_tail=-7)
    r = predict_response(Kernel.power_law(0.3), c, 1.0, 1.0, 1.0, max_lag=8, j_tail=8)
    with pytest.raises(ParameterError, match="j_tail"):
        invert_response(r, c, 1.0, 1.0, 1.0, 8, j_tail=-5)


def test_levinson_durbin_identifies_an_ar1():
    pred = levinson_durbin(0.5 ** np.arange(1, 9), 8)
    assert abs(pred.coeffs[0] - 0.5) <= 1e-12
    assert np.all(np.abs(pred.coeffs[1:]) <= 1e-12)
    assert 0 < pred.err_var <= 1.0
    curve = LagCurve(np.arange(1, 9), 0.5 ** np.arange(1, 9.0), np.full(8, 10), "sign_autocorr")
    pred2 = levinson_durbin(curve, 8)
    assert np.allclose(pred.coeffs, pred2.coeffs, rtol=0, atol=1e-15)


def test_levinson_durbin_rejects_non_positive_definite_input():
    with pytest.raises(Exception):
        levinson_durbin(np.array([1.5, 1.4]), 2)  # |C| > gamma0 is impossible


def test_master_curve_identical_stocks_collapse_to_zero():
    xg = np.geomspace(0.5, 2.0, 8)
    cv = ConditionalResponse(xg * 0.95, xg * 1.05, xg**0.3, np.full(8, 100, dtype=np.int64), 1)
    res = master_curve_rescale([(1.0, 1.0, cv), (1.0, 1.0, cv)], delta=0.3)
    assert res.metric < 1e-12
    assert res.delta == 0.3
    with pytest.raises(ParameterError):
        master_curve_rescale([(1.0, 1.0, cv)])


def test_fit_barra_recovers_the_prefactor():
    xg = np.geomspace(0.5, 2.0, 8)
    shell = ConditionalResponse(xg * 0.95, xg * 1.05, np.ones(8), np.full(8, 100, dtype=np.int64),
                                1)
    vals = 1.7 * 0.02 * np.sqrt(shell.centers / 5.0)
    cv = ConditionalResponse(xg * 0.95, xg * 1.05, vals, np.full(8, 100, dtype=np.int64), 1)
    fit = fit_barra(cv, 0.02, 5.0)
    assert abs(fit.A - 1.7) < 1e-12
    assert fit.r_squared > 1 - 1e-12


def test_pool_curves_weights_by_counts():
    c1 = LagCurve(np.array([1, 2]), np.array([0.0, 0.0]), np.array([1, 1]), "response")
    c2 = LagCurve(np.array([1, 2]), np.array([4.0, 4.0]), np.array([3, 3]), "response")
    pooled = pool_curves([c1, c2])
    assert np.array_equal(pooled.values, [3.0, 3.0])
    assert np.array_equal(pooled.counts, [4, 4])
    c3 = LagCurve(np.array([1, 3]), np.array([0.0, 0.0]), np.array([1, 1]), "response")
    with pytest.raises(ParameterError):
        pool_curves([c1, c3])


def test_lag_curve_validation_and_lookup():
    with pytest.raises(ParameterError):
        LagCurve(np.array([2, 1]), np.zeros(2), np.ones(2), "response")
    with pytest.raises(ParameterError):
        LagCurve(np.array([1, 2]), np.zeros(2), np.ones(2), "bogus_role")
    with pytest.raises(ParameterError):
        LagCurve(np.array([1, 2]), -np.ones(2), np.ones(2), "diffusivity")
    c = LagCurve(np.array([1, 2, 4]), np.array([3.0, 2.0, 1.0]), np.ones(3), "response")
    assert c.value_at(4) == 1.0
    assert len(c) == 3
    with pytest.raises(ParameterError):
        c.value_at(3)
    with pytest.raises(ParameterError):
        c.dense_values(3)  # lag 3 missing
