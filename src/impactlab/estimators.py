"""Impact observables measured from priced tapes, exponent fits, the
forward response prediction from a kernel plus sign autocorrelation, and the
linear inversion of that relation for the kernel.

Conventions shared by the lag statistics:
- prices have length N+1 for N trades; the product at index n pairs the
  sign of trade n with the price move that starts at the pre-trade price.
- the statistics take the whole tape they are given; callers cut the
  measurement-side burn-in first, with TradeTape.drop.
- the estimators report the naive SE = std/sqrt(count), which
  understates the error under dependence.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import EstimationError, InputError, NumericError, ensure
from .impact import ArPredictor, Kernel
from .orderflow import SignSeries, TradeTape

__all__ = [
    "LagCurve",
    "ConditionalResponse",
    "PowerLawFit",
    "BarraFit",
    "response",
    "conditional_response",
    "rho",
    "sign_autocorr",
    "diffusivity",
    "normalized_autocorr",
    "fit_power_law",
    "predict_response",
    "invert_response",
    "levinson_durbin",
    "master_curve_rescale",
    "fit_barra",
    "pool_curves",
]

ROLES = ("response", "sign_autocorr", "diffusivity")


def _check_rows(counts: np.ndarray, values: np.ndarray, se: np.ndarray | None) -> None:
    """Every row of a curve averages at least one sample to a finite value,
    and standard errors, when given, are one per row."""
    ensure(np.isfinite(values), "value must be finite")
    ensure(counts >= 1, "count must be >= 1")
    ensure(se is None or se.shape == values.shape, "se must match values in shape")


@dataclass
class LagCurve:
    """A per-lag statistic with sample counts and optional standard errors.

    role_tag is one of "response", "sign_autocorr", "diffusivity". A sign
    autocorrelation may leave [-1, 1] (by O(1/N^2) for odd-length alternating signs).
    """

    lags: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    role_tag: str
    se: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lags = np.asarray(self.lags, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.se = None if self.se is None else np.asarray(self.se, dtype=np.float64)
        ensure(self.role_tag in ROLES, f"unknown role_tag '{self.role_tag}'")
        ensure(self.lags.size == self.values.size == self.counts.size,
               "lags, values, counts must have equal length")
        ensure(self.lags.size > 0, "curve must be nonempty")
        ensure(np.diff(self.lags, prepend=0) > 0, "lags must be positive and strictly increasing")
        _check_rows(self.counts, self.values, self.se)
        ensure((self.role_tag != "diffusivity") | (self.values >= 0),
               "diffusivity values must be >= 0")

    def __len__(self):
        return self.lags.size

    def value_at(self, lag: int) -> float:
        idx = np.searchsorted(self.lags, lag)
        ensure(idx < self.lags.size and self.lags[idx] == lag, f"lag {lag} not in curve")
        return float(self.values[idx])

    def dense_values(self, upto: int) -> np.ndarray:
        """Values on contiguous lags 1..upto as a plain array (index l-1).
        Requires the curve to cover exactly those lags from 1."""
        ensure(self.lags[0] == 1 and np.array_equal(self.lags[:upto], np.arange(1, upto + 1)),
               f"{self.role_tag} curve must cover contiguous lags 1..{upto}, "
               f"got {self.lags[0]}..{self.lags[-1]} ({self.lags.size} rows)")
        return self.values[:upto]


@dataclass
class ConditionalResponse:
    """Per-volume-bin response at a fixed lag T: mean of (p_{n+T}-p_n)*eps_n
    over trades whose volume falls in the bin. Like its CSV, it holds the
    bins and not T."""

    bin_lo: np.ndarray
    bin_hi: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    se: np.ndarray | None = None

    def __post_init__(self):
        self.bin_lo = np.asarray(self.bin_lo, dtype=np.float64)
        self.bin_hi = np.asarray(self.bin_hi, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.se = None if self.se is None else np.asarray(self.se, dtype=np.float64)
        sizes = {self.bin_lo.size, self.bin_hi.size, self.values.size, self.counts.size}
        ensure(len(sizes) == 1 and self.bin_lo.size > 0,
               "bins, values, counts must be nonempty and equal length")
        ensure((0 < self.bin_lo) & (self.bin_lo < self.bin_hi) & (self.bin_hi < np.inf),
               "bin edges must be finite, positive, 0 < v_lo < v_hi")
        # each bin begins at or after the one above ends, so no volume counts twice
        ensure(self.bin_lo >= np.append(0.0, self.bin_hi[:-1]),
               "bins must be increasing and disjoint, v_lo >= the v_hi above")
        _check_rows(self.counts, self.values, self.se)

    @property
    def centers(self) -> np.ndarray:
        """Geometric bin centers."""
        return np.exp(0.5 * (np.log(self.bin_lo) + np.log(self.bin_hi)))


@dataclass
class PowerLawFit:
    """Log-log least-squares line. exponent is the slope magnitude; the
    signed slope says whether the curve decays (negative) or grows."""

    exponent: float
    slope: float
    prefactor: float
    fit_range: tuple
    r_squared: float
    exponent_se: float = float("nan")


@dataclass
class BarraFit:
    """Least-squares coefficient of the square-root impact family
    R(v) = A * sigma * sqrt(v/V)."""

    A: float
    r_squared: float


def _priced(tape) -> np.ndarray:
    """The prices of a priced tape, or a price array."""
    prices = tape.prices if isinstance(tape, TradeTape) else tape
    if prices is None:
        raise InputError("tape has no prices; run a price engine or load a priced tape")
    return np.asarray(prices, np.float64)


# FFT length of one block in _fft_corr, unless the lags need a longer one or
# the whole series fits a shorter one. Blocks keep the work arrays at a few
# hundred kB, where one FFT over a 2^20-trade tape needs 16-32 MB arrays.
_FFT_BLOCK = 1 << 16


def _fft_corr(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_k x[k] y[k+d] for d = 0..max_lag (x, y of equal length), by real
    FFTs over blocks of x, each against the stretch of y that its lags reach.
    A block of size - max_lag samples padded to size never wraps a lag around,
    and the work arrays stay at the block's size however long x is."""
    size = min(1 << int(x.size + max_lag - 1).bit_length(),
               max(_FFT_BLOCK, 1 << int(2 * max_lag).bit_length()))
    step = size - max_lag
    out = np.zeros(max_lag + 1)
    for s in range(0, x.size, step):
        fx = rfft(x[s : s + step], size)
        fy = rfft(y[s : s + step + max_lag], size)
        out += irfft(fx.conj() * fy, size)[: max_lag + 1]
    return out


def _window_sums(p: np.ndarray, max_lag: int, e: np.ndarray | None = None):
    """For the moves d_n = p[n+l] - p[n], n = 0..m-l, of a path p_0..p_m and
    each l = 1..max_lag (index l-1): sum d_n, sum d_n^2 and, given e_0..e_{m-1},
    sum d_n e_n. Exact identities over the returns r = diff(p), never the
    levels, in O(m log m + max_lag):
    - sum d_n = sum_{i<l} (p[m-i] - p[i]);
    - sum d_n^2 = Q(l), Q(j+1) - Q(j) = A(0) + 2 sum_{0<d<=j} A(d)
      - (p[j] - p[0])^2 - (p[m] - p[m-j])^2 with A(d) = sum_k r[k] r[k+d];
    - sum d_n e_n = sum_{d<l} X(d) - sum_{m-l<n<m} e[n] (p[m] - p[n]) with
      X(d) = sum_k e[k] r[k+d]."""
    m = p.size - 1
    r = np.diff(p)
    j = np.arange(max_lag)
    head, tail = p[j] - p[0], p[m] - p[m - j]
    a = _fft_corr(r, r, max_lag - 1)
    a_cum = np.concatenate(([0.0], np.cumsum(a[1:])))
    sq = np.cumsum(a[0] + 2.0 * a_cum - head * head - tail * tail)
    sdp = np.cumsum(p[m - j] - p[j])
    if e is None:
        return sdp, sq
    edge = np.concatenate(([0.0], np.cumsum(e[m - 1 : m - max_lag : -1] * tail[1:])))
    return sdp, sq, np.cumsum(_fft_corr(e, r, max_lag - 1)) - edge


def response(tape: TradeTape, max_lag: int | None = None) -> LagCurve:
    """Average price move after a trade, signed by that trade:
    R(l) = mean_n[(p_{n+l} - p_n) eps_n] - mean[p_{n+l} - p_n] * mean[eps_n]
    on lags 1..max_lag, over every start n (naive SE), at O(N log N + max lag)
    cost through FFT correlations of the returns.
    """
    p = _priced(tape)
    e = tape.eps
    m = e.size
    ensure(max_lag is not None and 1 <= max_lag < m,
           "max_lag must be given, positive and below the (post-burn) tape length")
    lag_arr = np.arange(1, max_lag + 1, dtype=np.int64)
    sdp, sq, sprod = _window_sums(p, max_lag, e)
    cnts = m + 1 - lag_arr
    mean = sprod / cnts
    # sum of e_0..e_{m-l}: all signs but the last l-1
    e_tail = np.concatenate(([0.0], np.cumsum(e[m - 1 : m - max_lag : -1])))
    vals = mean - sdp / cnts * ((e.sum() - e_tail) / cnts)
    # eps = +-1, so the mean squared product is sq / count
    ses = np.sqrt(np.maximum(sq / cnts - mean * mean, 0.0)) / np.sqrt(cnts)
    return LagCurve(lag_arr, vals, cnts, "response", ses)


def conditional_response(
    tape: TradeTape,
    T: int,
    n_bins: int = 12,
    min_count: int = 50,
) -> ConditionalResponse:
    """Volume-conditioned response: per-bin mean of (p_{n+T}-p_n)*eps_n over
    trades with v_n in the bin. The bins are logarithmic between the 0.001
    and 0.999 volume quantiles; bins under min_count are dropped."""
    p = _priced(tape)
    e, v = tape.eps, tape.v
    m = e.size
    ensure(1 <= T < m, "T must be in [1, post-burn tape length)")
    ensure(min_count >= 1, f"min_count must be >= 1, got {min_count!r}")
    ensure(isinstance(n_bins, (int, np.integer)) and not isinstance(n_bins, bool) and n_bins >= 1,
           f"n_bins must be an integer >= 1, got {n_bins!r}")
    dp = p[T:] - p[:-T]
    y = dp * e[: dp.size]
    vv = v[: dp.size]
    lo, hi = np.quantile(vv, [0.001, 0.999])
    if not 0 < lo < hi:
        raise EstimationError("volume quantiles do not span a positive range")
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), n_bins + 1))
    idx = np.digitize(vv, edges)
    ys = [y[idx == b] for b in range(1, edges.size)]  # ys[i]: volumes in [edges[i], edges[i+1])
    kept = np.flatnonzero([yb.size >= min_count for yb in ys])
    if not kept.size:
        raise EstimationError(f"all volume bins under the occupancy floor {min_count}")
    cnts = np.array([ys[b].size for b in kept], dtype=np.int64)
    return ConditionalResponse(edges[kept], edges[kept + 1], np.array([ys[b].mean() for b in kept]),
                               cnts, np.array([ys[b].std() for b in kept]) / np.sqrt(cnts))


def rho(tape: TradeTape, T: int, psi_weight: float = 1.0) -> float:
    """Correlation between the window price change and the psi-weighted
    signed flow over non-overlapping windows of length T:
    E[dp * Q] / sqrt(E[dp^2] * E[Q^2]) with Q = sum eps * v^psi_weight."""
    p = _priced(tape)
    e, v = tape.eps, tape.v
    m = e.size
    ensure(T >= 1 and np.isfinite(psi_weight),
           f"T must be >= 1 and psi_weight finite, got {T!r}, {psi_weight!r}")
    w = m // T
    if w < 2:
        raise EstimationError(f"fewer than 2 non-overlapping windows of length {T}")
    dp = p[T * np.arange(1, w + 1)] - p[T * np.arange(w)]
    q = (e * v**psi_weight)[: w * T].reshape(w, T).sum(axis=1)
    denom = np.sqrt((dp * dp).mean() * (q * q).mean())
    if denom == 0:
        raise EstimationError("degenerate windows: zero price or flow variance")
    return float((dp * q).mean() / denom)


def sign_autocorr(signs, max_lag: int) -> LagCurve:
    """Sample sign autocorrelation on lags 1..max_lag:
    C(l) = mean_n[eps_n eps_{n+l}] - (mean eps)^2.

    Computed by FFT; per-lag counts are N-l. A (near-)constant series makes
    the estimator 0 at every lag.
    """
    eps = signs.signs if isinstance(signs, SignSeries) else np.asarray(signs, dtype=np.float64)
    n = eps.size
    ensure(1 <= max_lag < n, "max_lag must be in [1, N)")
    mu = eps.mean()
    raw = _fft_corr(eps, eps, max_lag)
    cnt = n - np.arange(max_lag + 1)
    cov = raw / cnt - mu * mu
    return LagCurve(np.arange(1, max_lag + 1), cov[1:], cnt[1:], "sign_autocorr")


def diffusivity(prices, max_lag: int) -> LagCurve:
    """Variance of l-step price changes per unit lag, D(l) = Var(p_{n+l}-p_n)/l,
    over all sliding windows, at O(N log N + max_lag) cost through the return
    autocovariance. Flat D characterizes a random walk."""
    p = _priced(prices)
    ensure(max_lag >= 1 and p.size >= max_lag + 2,
           "need max_lag >= 1 and at least max_lag+2 prices after burn")
    lags = np.arange(1, max_lag + 1, dtype=np.int64)
    cnts = p.size - lags
    sdp, sq = _window_sums(p, max_lag)
    mean = sdp / cnts
    vals = np.maximum(sq / cnts - mean * mean, 0.0) / lags
    return LagCurve(lags, vals, cnts, "diffusivity")


def normalized_autocorr(x, max_lag: int) -> np.ndarray:
    """Plain normalized autocorrelation of a series (lag 0..max_lag, biased
    normalization by the lag-0 sum). Utility for whiteness checks on
    returns or predictor residuals; not a LagCurve role."""
    x = np.asarray(x, dtype=np.float64)
    xc = x - x.mean()
    raw = _fft_corr(xc, xc, max_lag)
    if raw[0] == 0:
        raise EstimationError("zero-variance series")
    return raw / raw[0]


def fit_power_law(curve, fit_range) -> PowerLawFit:
    """Least-squares line in log-log coordinates over points whose x lies in
    fit_range = (lo, hi) inclusive. Accepts a LagCurve (x = lags), a
    ConditionalResponse (x = geometric bin centers), or an (x, y) pair.
    All y in range must be strictly positive."""
    if isinstance(curve, LagCurve):
        x, y = curve.lags.astype(np.float64), curve.values
    elif isinstance(curve, ConditionalResponse):
        x, y = curve.centers, curve.values
    else:
        x, y = (np.asarray(c, dtype=np.float64) for c in curve)
    lo, hi = fit_range
    mask = (x >= lo) & (x <= hi)
    if mask.sum() < 4:
        raise EstimationError("need at least 4 points in the fit range")
    xs, ys = x[mask], y[mask]
    if np.any(ys <= 0):
        raise EstimationError("nonpositive values in fit range; shift the range")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    ss_res = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res < 1e-24 else max(0.0, 1.0 - ss_res / ss_tot) if ss_tot > 0 else 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    se = float(np.sqrt(ss_res / (xs.size - 2) / sxx)) if xs.size > 2 and sxx > 0 else float("nan")
    return PowerLawFit(
        exponent=float(abs(slope)),
        slope=float(slope),
        prefactor=float(np.exp(intercept)),
        fit_range=(float(lo), float(hi)),
        r_squared=float(r2),
        exponent_se=se,
    )


def _dense_C(C, upto: int) -> np.ndarray:
    if isinstance(C, LagCurve):
        return C.dense_values(upto)
    c = np.asarray(C, dtype=np.float64)
    ensure(c.size >= upto, f"need C on lags 1..{upto}, got {c.size}")
    return c[:upto]


def _truncation_bound(kernel: Kernel, c: np.ndarray, lam, psi, v, max_ell: int, j_tail: int) -> float:
    """Majorant of the dropped tail sum_{j>J} (G(l+j)-G(j)) C(j), using a
    power-law extension of C fitted on its tail. The plateau part of G
    cancels in the difference, so the bound converges for gamma < 1."""
    scale = lam * v**psi
    if kernel.is_constant:
        return 0.0  # G(l+j) - G(j) vanishes identically
    if kernel.form == "tabulated" and j_tail >= kernel.finite_horizon:
        return 0.0
    if not np.any(np.abs(c) > 0):
        return 0.0  # no measured correlation, nothing dropped
    lo = max(1, j_tail // 8)
    try:
        cfit = fit_power_law((np.arange(1, c.size + 1), np.abs(c)), (lo, j_tail))
    except EstimationError:
        return float("nan")
    gam, pref = cfit.exponent, cfit.prefactor
    if kernel.form == "power_law":
        bg = kernel.beta  # > 0, as a constant kernel returned above
        # |G(j)-G(j+l)| <= g1*beta*l*j^(-beta-1); integral remainder past J
        return scale * kernel.g1 * bg * max_ell * pref * j_tail ** (-bg - gam) / (bg + gam)
    # tabulated with j_tail < table length: finite numeric remainder
    js = np.arange(j_tail + 1, kernel.finite_horizon + 1)
    diff = np.abs(kernel.eval(np.minimum(js + max_ell, kernel.finite_horizon)) - kernel.eval(js))
    return scale * float(np.sum(diff * pref * js ** (-gam)))


def _response_matrix(C, n_lags: int, j_tail: int) -> np.ndarray:
    """The propagator relation as a matrix: R(l) / (lam*v^psi) =
    sum_k A[l-1, k-1] G(k) over k = 1..n_lags+j_tail, for l = 1..n_lags and
    R(l) = lam*v^psi * [G(l) + sum_{0<j<l} G(l-j)C(j)
                          + sum_{j=1..j_tail} (G(l+j)-G(j))C(j)].
    Row l holds C(|k-l|) for k <= l+j_tail, with C(0) = 1, and C(k) is
    subtracted on the columns k <= j_tail."""
    ensure(n_lags >= 1, "lags must be >= 1")
    ensure(j_tail >= 0, "j_tail must be >= 0")
    c = _dense_C(C, max(n_lags - 1, j_tail))  # raises on insufficient horizon
    # band[i] = C(|i - (n_lags-1)|) from n_lags-1 lags below the diagonal to
    # j_tail above it; row l of A is the window of band starting at n_lags-l
    band = np.zeros(2 * n_lags + j_tail - 1)
    band[: n_lags - 1] = c[: n_lags - 1][::-1]
    band[n_lags - 1] = 1.0
    band[n_lags : n_lags + j_tail] = c[:j_tail]
    a = sliding_window_view(band, n_lags + j_tail)[::-1].copy()
    a[:, :j_tail] -= c[:j_tail]
    return a


def _check_scale(lam, psi, v):
    """The impact scale lam*v^psi that predict_response applies and
    invert_response divides out: finite lam > 0 and v > 0, 0 < psi <= 1."""
    ensure(0 < lam < np.inf, f"lam must be finite and > 0, got {lam!r}")
    ensure(0 < v < np.inf, f"v must be finite and > 0, got {v!r}")
    ensure(0 < psi <= 1, f"psi must be finite, in (0, 1], got {psi!r}")


def predict_response(
    kernel: Kernel, C, lam: float, psi: float, v: float, max_lag: int, j_tail: int = 4096,
) -> LagCurve:
    """Forward response on lags 1..max_lag implied by a kernel and a sign
    autocorrelation, R = lam*v^psi * A G with A from _response_matrix.

    The infinite tail sum is truncated at j_tail; a majorant of the dropped
    part is reported in meta["truncation_bound"]. Derived for constant
    volumes; with fluctuating volumes pass the per-trade reference scale v
    (approximate mode, see invert_response). It needs finite lam > 0 and
    v > 0 and 0 < psi <= 1, as invert_response."""
    _check_scale(lam, psi, v)
    c = _dense_C(C, max(max_lag - 1, j_tail))
    a = _response_matrix(c, max_lag, j_tail)
    vals = lam * v**psi * (a @ kernel.eval(np.arange(1, a.shape[1] + 1)))
    bound = _truncation_bound(kernel, c, lam, psi, v, max_lag, j_tail)
    return LagCurve(
        np.arange(1, max_lag + 1), vals, np.ones(max_lag, dtype=np.int64), "response", None,
        {"truncation_bound": bound},
    )


# invert_response flags a system whose condition estimate exceeds this
_COND_THRESHOLD = 1e10


def invert_response(
    R: LagCurve, C, lam: float, psi: float, v: float, L: int,
    j_tail: int = 4096, ridge: float = 0.0,
):
    """Least-squares kernel G(1..L) from measured response and sign
    autocorrelation, inverting the predict_response relation with G held at
    G(L) beyond the table (plateau extrapolation): G minimizes
    ||A G - b||^2 + ridge * ||G||^2.

    Returns (Kernel.tabulated, report). The report carries the residual
    norm, the condition estimate (flagged above _COND_THRESHOLD with a
    suggestion to use ridge > 0), the equation count, and se_proxy (None
    when L equals the equation count). It needs finite lam > 0 and v > 0,
    0 < psi <= 1 (as ImpactConfig) and a finite ridge >= 0."""
    ensure(isinstance(R, LagCurve), "R must be a LagCurve")
    _check_scale(lam, psi, v)
    ensure(0 <= ridge < np.inf, f"ridge must be finite and >= 0, got {ridge!r}")
    n_eq = int(R.lags.max())
    r_dense = R.dense_values(n_eq)
    ensure(1 <= L <= n_eq, "need 1 <= L <= max measured response lag")
    a = _response_matrix(C, n_eq, j_tail)
    a[:, L - 1] = a[:, L - 1 :].sum(axis=1)  # G(k) = G(L) for k > L
    a = a[:, :L]
    b = r_dense / (lam * v**psi)
    # one thin SVD a = u diag(sv) vt gives the solution, the condition and the
    # proxy; singular values at or below lstsq's default cutoff count as 0
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    if sv[-1] == 0:
        raise NumericError("inversion matrix is singular")
    k = int(np.count_nonzero(sv > np.finfo(np.float64).eps * max(a.shape) * sv[0]))
    u, s, vt = u[:, :k], sv[:k], vt[:k]
    sol = vt.T @ (s / (s * s + ridge) * (u.T @ b))
    cond = float(sv[0] / sv[-1])
    residual = float(np.linalg.norm(a @ sol - b))
    # per-lag spread proxy: OLS standard errors from the residual scale,
    # diag((a^T a + ridge I)^-1) = sum_j vt[j]^2 / (s_j^2 + ridge); ignores
    # correlation of errors across response lags, hence a proxy.
    # A square system has no residual degrees of freedom, hence no proxy.
    se_proxy = None
    if n_eq > L:
        var = residual**2 / (n_eq - L) * (1.0 / (s * s + ridge) @ (vt * vt))
        se_proxy = np.sqrt(var).tolist()
    report = {
        "residual_norm": residual,
        "condition": cond,
        "ill_conditioned": cond > _COND_THRESHOLD,
        "ridge": ridge,
        "equations": n_eq,
        "j_tail": j_tail,
        "se_proxy": se_proxy,
    }
    if report["ill_conditioned"]:
        report["note"] = "condition estimate above threshold; ridge regularization suggested"
    return Kernel.tabulated(sol), report


def levinson_durbin(C, order: int) -> ArPredictor:
    """AR(order) coefficients solving the Yule-Walker equations for the
    normalized autocorrelation sequence (1, C(1), C(2), ...), by the
    standard recursion; a reflection coefficient of modulus >= 1 or a
    vanishing prediction-error variance is a NumericError."""
    ensure(order >= 1, "order must be >= 1")
    c = _dense_C(C, order)
    r = np.concatenate([[1.0], c])
    a = np.zeros(order)
    e = 1.0
    for k in range(1, order + 1):
        acc = r[k] - np.dot(a[: k - 1], r[1:k][::-1])
        kappa = acc / e
        if not np.isfinite(kappa) or abs(kappa) >= 1.0:
            raise NumericError(
                f"autocovariance not positive-definite at recursion step {k} "
                f"(reflection coefficient {kappa:.6g})"
            )
        a[: k - 1] = a[: k - 1] - kappa * a[: k - 1][::-1]  # right side first: no copy needed
        a[k - 1] = kappa
        e *= 1.0 - kappa * kappa
        if e <= 0:
            raise NumericError(f"prediction-error variance vanished at step {k}")
    return ArPredictor(a)


def master_curve_rescale(stocks, delta: float = 0.3) -> float:
    """Collapse metric of the capitalization rescaling of per-stock impact
    curves: each (M, vbar, curve) maps to x = M^delta * v / vbar, y = M^delta
    * R(v). Curves are compared on a common log grid of 50 points spanning
    the overlap of their x-supports (log-log interpolation, exact on power
    laws); the metric is the mean over the grid of (max-min)/mean across
    curves, 0 for a perfect collapse."""
    ensure(len(stocks) >= 2 and np.isfinite(delta),
           f"need at least 2 stocks and a finite delta, got {delta!r}")
    xs, ys = [], []
    for m_cap, vbar, curve in stocks:
        ensure(0 < m_cap < np.inf and 0 < vbar < np.inf,
               "capitalization and mean volume must be positive and finite")
        x = m_cap**delta * curve.centers / vbar
        y = m_cap**delta * curve.values
        if np.any(y <= 0):
            raise EstimationError("curves must be positive for log-log collapse")
        xs.append(x)
        ys.append(y)
    lo = max(x.min() for x in xs)
    hi = min(x.max() for x in xs)
    if not lo < hi:
        raise EstimationError("no overlapping x-support across stocks")
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), 50))
    interp = [
        np.exp(np.interp(np.log(grid), np.log(x), np.log(y))) for x, y in zip(xs, ys)
    ]
    stack = np.vstack(interp)
    return float(np.mean((stack.max(axis=0) - stack.min(axis=0)) / stack.mean(axis=0)))


def fit_barra(curve: ConditionalResponse, sigma: float, V: float) -> BarraFit:
    """Least-squares amplitude of the square-root impact family against a
    volume-conditioned response curve: minimizes sum (R(v) - A sigma
    sqrt(v/V))^2 over the occupied bins."""
    ensure(0 < sigma < np.inf and 0 < V < np.inf, "sigma and V must be finite and positive")
    s = sigma * np.sqrt(curve.centers / V)
    denom = float(np.sum(s * s))
    if denom == 0:
        raise EstimationError("degenerate curve: zero regressor")
    a_hat = float(np.sum(curve.values * s) / denom)
    resid = curve.values - a_hat * s
    ss_tot = float(np.sum((curve.values - curve.values.mean()) ** 2))
    if ss_tot == 0:
        raise EstimationError("degenerate curve: zero variance across bins")
    return BarraFit(A=a_hat, r_squared=1.0 - float(np.sum(resid**2)) / ss_tot)


def pool_curves(curves) -> LagCurve:
    """Count-weighted pooling of per-seed curves measured on identical lag
    grids; the pooled curve is what acceptance bands are checked against
    when a single seed is too noisy."""
    ensure(len(curves) >= 1, "need at least one curve")
    first = curves[0]
    for c in curves[1:]:
        ensure(np.array_equal(c.lags, first.lags) and c.role_tag == first.role_tag,
               "curves must share lags and role")
    w = np.vstack([c.counts for c in curves]).astype(np.float64)
    v = np.vstack([c.values for c in curves])
    tot = w.sum(axis=0)
    vals = (v * w).sum(axis=0) / tot
    return LagCurve(first.lags, vals, tot.astype(np.int64), first.role_tag)
