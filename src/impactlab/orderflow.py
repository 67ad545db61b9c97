"""Synthetic trade-sign and volume generators.

Sign generators cover three autocorrelation regimes: independent signs,
long memory from a clipped fractional Gaussian latent series, and long
memory from metaorder splitting. All generators are pure functions of
(parameters, seed).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import fft, irfft, rfft

from .exceptions import ParameterError, ensure

__all__ = [
    "SignSeries",
    "VolumeSeries",
    "TradeTape",
    "gen_iid_signs",
    "gen_clipped_fractional_signs",
    "gen_metaorder_signs",
    "gen_markov_signs",
    "gen_volumes",
    "latent_autocorr",
]


@dataclass
class SignSeries:
    """A +-1 trade-sign sequence."""

    signs: np.ndarray

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.float64)
        ensure(np.isin(self.signs, (-1.0, 1.0)), "epsilon must be -1 or 1")

    def __len__(self):
        return self.signs.size


@dataclass
class VolumeSeries:
    """Per-trade volumes, strictly positive."""

    volumes: np.ndarray

    def __post_init__(self):
        self.volumes = np.asarray(self.volumes, dtype=np.float64)
        ensure((0 < self.volumes) & (self.volumes < np.inf), "volume must be positive and finite")

    def __len__(self):
        return self.volumes.size


@dataclass
class TradeTape:
    """Aligned signs and volumes, optionally with a price path.

    Prices, when present, hold p_0..p_N for N trades: prices[n] is the
    price just before trade n.
    """

    signs: SignSeries
    volumes: VolumeSeries
    prices: np.ndarray | None = None

    def __post_init__(self):
        ensure(len(self.signs) == len(self.volumes), "signs and volumes must have equal length")
        if self.prices is not None:
            self.prices = np.asarray(self.prices, dtype=np.float64)
            ensure(self.prices.size == len(self.signs) + 1, "prices must have length N+1")
            ensure(np.isfinite(self.prices), "price must be finite")

    @property
    def n(self) -> int:
        return len(self.signs)

    @property
    def eps(self) -> np.ndarray:
        return self.signs.signs

    @property
    def v(self) -> np.ndarray:
        return self.volumes.volumes

    def drop(self, burn: int) -> "TradeTape":
        """The tape without its first `burn` trades and their pre-trade
        prices, as views: the measurement-side burn-in. A cut at or past the
        end leaves no trades, and the final price if the tape is priced."""
        ensure(burn >= 0, f"burn must be >= 0, got {burn!r}")
        k = min(burn, self.n)
        return TradeTape(SignSeries(self.eps[k:]), VolumeSeries(self.v[k:]),
                         None if self.prices is None else self.prices[k:])


def gen_iid_signs(n: int, p_buy: float, seed: int) -> SignSeries:
    """Independent signs with P(+1) = p_buy."""
    ensure(n >= 1, "n must be >= 1")
    ensure(0.0 <= p_buy <= 1.0, "p_buy must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(n) < p_buy, 1.0, -1.0)
    return SignSeries(signs)


def _inverse_power(spectrum: np.ndarray) -> np.ndarray:
    """1 / |spectrum|^2, written over the real part of the spectrum."""
    density = np.abs(spectrum, out=spectrum.real)
    np.square(density, out=density)
    return np.divide(1.0, density, out=density)


_CHUNK = 1 << 16  # whitening coefficients computed at a time


def _steps(lo: int, hi: int, beta: float) -> np.ndarray:
    """The whitening filter's c_j = (j+1)^(-beta) - j^(-beta) for j = lo..hi-1,
    with c_0 = 1: each the difference of two vector powers, bitwise as over
    the whole range at once."""
    first = max(lo, 1)
    power = np.arange(first, hi + 1, dtype=np.float64) ** (-beta)
    c = np.empty(hi - lo)
    c[: first - lo] = 1.0
    np.subtract(power[1:], power[:-1], out=c[first - lo :])
    return c


def _twiddle(lo: int, hi: int, length: int) -> np.ndarray:
    """e^(-i pi r/length) for r = lo..hi-1."""
    twiddle = np.arange(lo, hi, dtype=np.complex128)
    twiddle *= -1j * np.pi / length
    return np.exp(twiddle, out=twiddle)


def _step_chunks(beta: float, grid: int, sign: float):
    """(lo, hi, a, b, c, d) over the chunks of r < grid/8, with a, b, c, d the
    coefficients c_r, c_(r+J/4), c_(r+J/2) and c_(r+3J/4), J = grid/2, and
    c_0 + sign c_J in place of c_0: one pass over c, each c_j computed once."""
    half, eighth = grid // 2, grid // 8
    last = _steps(half, half + 1, beta)[0]  # c_J
    for lo in range(0, eighth, _CHUNK):
        hi = min(lo + _CHUNK, eighth)
        a, b, c, d = (_steps(lo + k * eighth, hi + k * eighth, beta) for k in range(4))
        if lo == 0:
            a[0] = 1.0 + sign * last
        yield lo, hi, a, b, c, d


def _odd_class_input(beta: float, grid: int) -> np.ndarray:
    """z of the grid's odd class, the largest transform input of
    _whitening_autocorr, from its own pass over c."""
    half, quarter, eighth = grid // 2, grid // 4, grid // 8
    top = np.empty(quarter, dtype=np.complex128)
    for lo, hi, a, b, c, d in _step_chunks(beta, grid, -1.0):  # c_J folds on with a minus
        for r, re, im in ((lo, a, c), (lo + eighth, b, d)):
            part = top[r : r + hi - lo]
            part.real = re
            np.negative(im, out=part.imag)
            part *= _twiddle(r, r + hi - lo, half)
    return top


def _even_half_inputs(beta: float, grid: int) -> list:
    """[h, z of the even half's odd class], the even half's two transform
    inputs of _whitening_autocorr, from one pass over c: no grid/2-point
    array exists."""
    quarter, eighth = grid // 4, grid // 8
    even = np.empty(quarter)
    sub = np.empty(eighth, dtype=np.complex128)
    for lo, hi, a, b, c, d in _step_chunks(beta, grid, 1.0):  # c_J folds on with a plus
        np.add(a, c, out=even[lo:hi])
        np.add(b, d, out=even[lo + eighth : hi + eighth])
        part = sub[lo:hi]
        np.subtract(a, c, out=part.real)
        np.subtract(d, b, out=part.imag)
        part *= _twiddle(lo, hi, quarter)
    return [even, sub]


def _odd_class_dct(z: np.ndarray) -> np.ndarray:
    """Makhoul's w_t = e^(-i pi t/L) V_t, t = 0..L/4, for the odd class of a
    real sequence y of even length L, given z_r = (y_r - i y_(r+L/2))
    e^(-i pi r/L), r < L/2: V is the real FFT of 1/|DFT z|^2, and
    y_t = Re w_t and y_(L/2-t) = -Im w_t give the class's DCT-II of length
    L/2. z is transformed in place, and freed before the real FFT when the
    caller holds no other reference to it."""
    length = 2 * z.size
    fft(z, out=z)
    density = _inverse_power(z).copy()
    del z
    w = rfft(density)
    del density
    w *= _twiddle(0, w.size, length)
    return w


def _add_dct(acov: np.ndarray, w: np.ndarray, size: int) -> None:
    """acov[t] += y_t for t < acov.size <= 2 size + 1, where y is the DCT-II
    of length `size` given by its Makhoul w (see _odd_class_dct), continued
    past `size` by y_(2 size-t) = -y_t."""
    h = w.size - 1
    pieces = ((0, w.real, np.add),  # y_t = Re w_t
              (h + 1, w.imag[size - h - 1 :: -1], np.subtract),  # y_(size-t) = -Im w_t
              (size + 1, w.imag[1 : size - h], np.add),  # y_(size+t) = Im w_t
              (2 * size - h, w.real[::-1], np.subtract))  # y_(2 size-t) = -Re w_t
    for start, values, op in pieces:
        stop = min(acov.size, start + values.size)
        if start < stop:
            op(acov[start:stop], values[: stop - start], out=acov[start:stop])


def _whitening_autocorr(gamma: float, n_lags: int, grid: int) -> np.ndarray:
    """Autocorrelation at lags 0..n_lags <= grid/4 of the stationary
    autoregressive flow whose one-step coefficients a_j = j^(-b) - (j+1)^(-b),
    b = (1-gamma)/2, exactly whiten the matched power-law impact kernel.

    Computed spectrally: S_k = 1/|X_k|^2 with X the DFT of c = (1, -a_1, ..,
    -a_J) zero-padded to the grid N = 2J >= 8, then an inverse transform.
    The coefficient sum is 1 - (J+1)^(-b) < 1 at truncation J, so the
    spectrum stays finite at w = 0.

    No transform is longer than J/2 = grid/4; exact DFT identities split the
    grid's frequencies into the classes 2p+1, 4q+2 and 4q:
    - The odd class of a real sequence y of length L, its DFT at the odd
      frequencies of 2L, is the length-L/2 DFT of
      z_r = (y_r - i y_(r+L/2)) e^(-i pi r/L), in Makhoul's order (below).
    - X_(2p+1) is the odd class of g = c[:J] with c_0 - c_J in place of c_0.
    - X_2p is the length-J DFT of g = c[:J] with c_0 + c_J in place of c_0.
      Split once more, X_4q is the length-J/2 real DFT of
      h_r = g_r + g_(r+J/2), and X_(4q+2) the odd class of
      x_r = g_r - g_(r+J/2).
    - N acov[t] = (J/2) irfft(S_4q, J/2)[t] + 2 DCT-II_(J/4)(S_(4q+2))[t]
      + 2 DCT-II_(J/2)(S_(2p+1))[t], with DCT-II_M(s)[t] =
      sum_q s_q cos(pi (2q+1) t/(2M)). The irfft term is periodic in J/2,
      and the short DCT continues past J/4 by y_(J/2-t) = -y_t.
    Each DCT-II is one real FFT of half its length after Makhoul's
    reordering (J. Makhoul, "A fast cosine transform in one and two
    dimensions", IEEE Trans. ASSP 28(1), 1980). That reordering of the
    density is exactly the order in which the DFT of z returns |X|, so
    1/|DFT z|^2 feeds it as it is.
    c is computed chunk by chunk straight into the transform inputs, once
    per class group: the odd class, then the even half. The odd class, the
    largest, runs first, from its own input, into a buffer of its own.
    Transformed after the even half's buffers were freed, which raises
    glibc's mmap threshold, its input and work buffers stood on memory the
    heap kept, and set a peak 8 MB higher. The even half's classes are then
    summed into acov smallest first, each input freed once its transform is
    done, and the odd buffer is added last. Each acov[t] gets one odd-class
    term y, and a + (+-y) = a +- y exactly, so the bits are those of one
    accumulator taking the classes smallest first.
    """
    beta = (1.0 - gamma) / 2.0
    quarter, eighth = grid // 4, grid // 8
    odd = np.zeros(n_lags + 1)
    _add_dct(odd, _odd_class_dct(_odd_class_input(beta, grid)), quarter)
    inputs = _even_half_inputs(beta, grid)  # popped, so each is freed in turn
    acov = np.zeros(n_lags + 1)  # N acov / 2
    _add_dct(acov, _odd_class_dct(inputs.pop()), eighth)
    spec = rfft(inputs.pop())
    # kept complex, so irfft makes no complex copy of a real input
    _inverse_power(spec)
    spec.imag = 0.0
    period = irfft(spec, quarter)
    del spec
    period *= eighth  # (J/4) irfft(S_4q, J/2), periodic in J/2
    for start in range(0, acov.size, quarter):
        part = acov[start : start + quarter]
        part += period[: part.size]
    del period
    acov += odd
    acov /= acov[0]
    return acov


def _whitening_grid(n_lags: int) -> int:
    """The whitening grid for lags 0..n_lags: the largest power of two no
    greater than 8 max(n_lags, 1024), so between 4x and 8x the lags. Every
    n_lags in one octave [2^k, 2^(k+1)) gets the grid, and so the process, of 2^k."""
    return 1 << ((8 * max(n_lags, 1024)).bit_length() - 1)


def latent_autocorr(gamma: float, n_lags: int, completion: str = "martingale") -> np.ndarray:
    """Latent Gaussian autocorrelation at lags 0..n_lags used by the clipped
    generator. completion="martingale" makes the clipped signs' correlation
    equal that of the flow exactly whitened by the matched power-law kernel;
    completion="plain" is the simple (1+l)^(-gamma) profile.
    """
    ensure(0.0 < gamma < 1.0, "gamma must lie in (0, 1)")
    if completion == "martingale":
        c_target = _whitening_autocorr(gamma, n_lags, _whitening_grid(n_lags))
        # invert the clipping map so the sign autocorrelation equals c_target
        return np.sin(0.5 * np.pi * c_target)
    if completion == "plain":
        lags = np.arange(n_lags + 1, dtype=np.float64)
        rho = (1.0 + lags) ** (-gamma)
        rho[0] = 1.0
        return rho
    raise ParameterError(f"unknown completion '{completion}'")


@lru_cache(maxsize=8)
def _embedding_eigenvalues(gamma: float, n: int, completion: str) -> np.ndarray:
    """Eigenvalues 0..m/2 of the circulant embedding, m = 2n, of the latent
    covariance at lags 0..n; the rest mirror them. The embedding is symmetric,
    so they are real. Tiny negative ones from the embedding are clipped to zero."""
    rho = latent_autocorr(gamma, n, completion)
    return np.clip(rfft(np.concatenate([rho, rho[-2:0:-1]])).real, 0.0, None)


def _circulant_latent(ev: np.ndarray, seed: int) -> np.ndarray:
    """The m = 2(ev.size - 1) values of a Gaussian series with the circulant
    covariance of eigenvalues ev (Davies & Harte 1987; Wood & Chan 1994).

    It is the real part of ifft(sqrt(ev) * (x + iy)) * sqrt(m) over the full
    spectrum, for two standard_normal(m) draws x then y, computed as one
    irfft of that spectrum's Hermitian part
    H_k = sqrt(ev_k) ((x_k + x_{m-k})/2 + i (y_k - y_{m-k})/2), k = 0..m/2.

    H is built in place in one complex array from views of each draw, x then
    y, each freed once folded: at 2^20 trades and more these m-sized
    temporaries set the per-seed peak memory of the synthesis.
    """
    size = ev.size
    m = 2 * (size - 1)
    rng = np.random.default_rng(seed)
    fold = np.empty(size, dtype=np.complex128)
    for part, combine in ((fold.real, np.add), (fold.imag, np.subtract)):
        draw = rng.standard_normal(m)
        combine(draw[:1], draw[:1], out=part[:1])
        # draw[m - k] for k = 1..size-1 is the reversed view draw[m-1 .. size-1]
        combine(draw[1:size], draw[: size - 2 : -1], out=part[1:])
        del draw
        part /= 2
    fold *= np.sqrt(ev)
    latent = irfft(fold, m)
    latent *= np.sqrt(m)
    return latent


def gen_clipped_fractional_signs(
    n: int, gamma: float, seed: int, completion: str = "martingale"
) -> SignSeries:
    """Signs of a long-memory Gaussian latent series, sign autocorrelation
    tail proportional to l^(-gamma).

    The latent series is synthesized exactly by circulant-embedding spectral
    synthesis, as one real inverse FFT of the Hermitian fold of the complex
    Gaussian spectrum (see _circulant_latent); the clipping map
    C_sign(l) = (2/pi) arcsin(rho_latent(l)) preserves the tail exponent.
    """
    ensure(n >= 1, "n must be >= 1")
    ensure(0.0 < gamma < 1.0, "gamma must lie in (0, 1); the long-memory regime")
    latent = _circulant_latent(_embedding_eigenvalues(float(gamma), int(n), completion), seed)
    return SignSeries(np.where(latent[:n] >= 0.0, 1.0, -1.0))


def _pareto_lengths(u: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """ceil(u^(-1/alpha)) clipped at n, as the scalar `float ** float` gives it.

    The vector power may differ from the scalar one in the last bit, which
    moves the ceiling only where the power lies within a few ulps of an
    integer; those rare values are recomputed with the scalar power. A draw
    of exactly 0 gives n."""
    with np.errstate(divide="ignore"):
        x = np.minimum(u ** (-1.0 / alpha), n)
    near = (np.abs(x - np.rint(x)) <= 4 * np.spacing(x)) & (x < n)
    for i in np.flatnonzero(near):
        x[i] = min(float(u[i]) ** (-1.0 / alpha), n)
    return np.ceil(x).astype(np.int64)


def gen_metaorder_signs(n: int, alpha: float, seed: int) -> SignSeries:
    """Signs from sequential metaorder splitting: lengths L are Pareto with
    P(L > l) = l^(-alpha), each metaorder emits L equal signs of random
    direction. Tail exponent of the sign autocorrelation is gamma = alpha-1.

    Each metaorder draws two uniforms in turn, its length then its
    direction (< 0.5 buys), so a block of 2B uniforms holds B metaorders:
    lengths at even positions, directions at odd ones. Lengths are clipped
    at n, which leaves the tape unchanged.
    """
    ensure(n >= 1, "n must be >= 1")
    ensure(1.0 < alpha < 2.0, "alpha must lie in (1, 2): finite mean, long memory")
    rng = np.random.default_rng(seed)
    block = n // 2 + 64  # mean lengths exceed 2, so one block mostly covers n
    lengths, buys, covered = [], [], 0
    while covered < n:
        u = rng.random(2 * block).reshape(block, 2)
        # integer ceiling of the continuous Pareto gives P(L>l) = l^(-alpha) exactly
        size = _pareto_lengths(u[:, 0], alpha, n)
        lengths.append(size)
        buys.append(u[:, 1] < 0.5)
        covered += int(size.sum())
    size = np.concatenate(lengths)
    m = int(np.searchsorted(np.cumsum(size), n)) + 1  # metaorders that reach n
    out = np.repeat(np.where(np.concatenate(buys)[:m], 1.0, -1.0), size[:m])[:n]
    return SignSeries(out)


def gen_markov_signs(n: int, c1: float, seed: int) -> SignSeries:
    """Two-state Markov signs with E[eps_n | eps_{n-1}] = c1 * eps_{n-1},
    hence autocorrelation C(l) = c1^l. The reference short-memory flow for
    predictor and quote checks."""
    ensure(n >= 1, "n must be >= 1")
    ensure(-1.0 < c1 < 1.0, "c1 must lie in (-1, 1)")
    rng = np.random.default_rng(seed)
    stay = 0.5 * (1.0 + c1)
    flips = rng.random(n) >= stay  # flips[0] decides against the initial +1
    start = 1.0 if rng.random() < 0.5 else -1.0
    # cumulative parity of flips gives the chain in one vectorized pass
    parity = np.cumsum(flips[1:]) % 2
    signs = np.empty(n)
    signs[0] = start
    signs[1:] = start * np.where(parity == 1, -1.0, 1.0)
    return SignSeries(signs)


_VOLUME_PARAMS = {"constant": {"value"}, "lognormal": {"mu", "sigma"},
                  "pareto": {"x_min", "tail"}}


def gen_volumes(n: int, dist: str = "constant", seed: int = 0, **params) -> VolumeSeries:
    """Per-trade volumes.

    dist="constant": params value (default 1.0).
    dist="lognormal": params mu, sigma (defaults 0.0, 1.0).
    dist="pareto": params x_min, tail (defaults 1.0, 3.0); tail > 1 for a
    finite mean x_min*tail/(tail-1).
    """
    ensure(n >= 1, "n must be >= 1")
    ensure(dist in _VOLUME_PARAMS, f"unknown volume distribution '{dist}'")
    unknown = set(params) - _VOLUME_PARAMS[dist]
    ensure(not unknown,
           f"unknown parameters for volume distribution '{dist}': {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    if dist == "constant":
        value = float(params.get("value", 1.0))
        ensure(0 < value < np.inf, "constant volume must be positive and finite")
        v = np.full(n, value)
    elif dist == "lognormal":
        mu = float(params.get("mu", 0.0))
        sigma = float(params.get("sigma", 1.0))
        ensure(np.isfinite(mu), "lognormal mu must be finite")
        ensure(0 < sigma < np.inf, "lognormal sigma must be positive and finite")
        v = rng.lognormal(mu, sigma, n)
    else:
        x_min = float(params.get("x_min", 1.0))
        tail = float(params.get("tail", 3.0))
        ensure(0 < x_min < np.inf, "pareto x_min must be positive and finite")
        ensure(1.0 < tail < np.inf, "pareto tail must be finite and exceed 1 for a finite mean")
        v = x_min * rng.random(n) ** (-1.0 / tail)
    return VolumeSeries(v)
