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
        ensure(np.isin(self.signs, (-1.0, 1.0)), "sign series must contain only -1 and +1")

    def __len__(self):
        return self.signs.size


@dataclass
class VolumeSeries:
    """Per-trade volumes, strictly positive."""

    volumes: np.ndarray

    def __post_init__(self):
        self.volumes = np.asarray(self.volumes, dtype=np.float64)
        ensure((0 < self.volumes) & (self.volumes < np.inf),
               "volumes must be strictly positive and finite")

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


def _whitening_autocorr(gamma: float, n_lags: int, grid: int) -> np.ndarray:
    """Autocorrelation at lags 0..n_lags <= grid/4 of the stationary
    autoregressive flow whose one-step coefficients a_j = j^(-b) - (j+1)^(-b),
    b = (1-gamma)/2, exactly whiten the matched power-law impact kernel.

    Computed spectrally: S_k = 1/|X_k|^2 with X the DFT of c = (1, -a_1, ..,
    -a_J) zero-padded to the grid N = 2J, then an inverse transform. The
    coefficient sum is 1 - (J+1)^(-b) < 1 at truncation J, so the spectrum
    stays finite at w = 0.

    No transform is longer than J = grid/2; exact DFT identities split the
    grid into even and odd frequencies:
    - X_2p is the length-J DFT of c[:J] with c_0 + c_J in place of c_0.
    - With g = c[:J], g_0 = c_0 - c_J, and
      z_r = (g_r - i g_(r+J/2)) e^(-i pi r/J), the length-J/2 DFT of z
      holds X_(4q+1) at q < J/4 and conj X_(2J-4q-1) at q >= J/4.
    - N acov[t] = J irfft(S_even, J)[t] + 2 sum_p S_(2p+1) cos(pi (2p+1) t/J).
      The sum is a DCT-II of length J/2, computed with Makhoul's reordering
      and one real FFT of length J/2 (J. Makhoul, "A fast cosine transform
      in one and two dimensions", IEEE Trans. ASSP 28(1), 1980). That
      reordering of S_odd is exactly the order in which the DFT of z
      returns |X|, so 1/|DFT z|^2 feeds it as it is.
    The odd half is done first, so beside each length-J transform only its
    input and the short DCT result are alive.
    """
    beta = (1.0 - gamma) / 2.0
    half, quarter, eighth = grid // 2, grid // 4, grid // 8
    power = np.arange(1, half + 2, dtype=np.float64) ** (-beta)
    coef = np.empty(half + 1)
    coef[0] = 1.0
    np.subtract(power[1:], power[:-1], out=coef[1:])  # -a_j, j = 1..half
    del power
    odd = np.empty(quarter, dtype=np.complex128)
    odd.real = coef[:quarter]
    odd.real[0] = coef[0] - coef[half]
    np.negative(coef[quarter:half], out=odd.imag)
    twiddle = np.arange(quarter, dtype=np.complex128)
    twiddle *= -1j * np.pi / half
    odd *= np.exp(twiddle, out=twiddle)  # e^(-i pi r/J)
    twiddle = twiddle[: eighth + 1].copy()  # all the DCT needs, kept small during the fft
    fft(odd, out=odd)
    dct = rfft(_inverse_power(odd))
    del odd
    # with V = dct and w_t = e^(-i pi t/J) V_t for t <= J/4:
    # DCT-II[t] / 2 = Re w_t and DCT-II[J/2 - t] / 2 = -Im w_t
    dct *= twiddle
    del twiddle
    coef[0] += coef[half]
    even = rfft(coef[:half])
    del coef
    # kept complex, so irfft makes no complex copy of a real input
    _inverse_power(even)
    even.imag = 0.0
    acov = irfft(even, half)[: n_lags + 1]
    acov *= quarter  # N acov / 2 = (J/2) irfft(S_even, J) + DCT-II / 2
    acov += np.concatenate((dct.real, -dct.imag[-2::-1]))[: n_lags + 1]
    return acov / acov[0]


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


def gen_metaorder_signs(
    n: int, alpha: float, seed: int, fixed_length: int | None = None
) -> SignSeries:
    """Signs from sequential metaorder splitting: lengths L are Pareto with
    P(L > l) = l^(-alpha), each metaorder emits L equal signs of random
    direction. Tail exponent of the sign autocorrelation is gamma = alpha-1.

    Each metaorder draws two uniforms in turn, its length then its
    direction (< 0.5 buys), so a block of 2B uniforms holds B metaorders:
    lengths at even positions, directions at odd ones. Lengths are clipped
    at n, which leaves the tape unchanged.

    fixed_length is a test hook that bypasses the Pareto draw (1 gives
    independent signs, >= n a single metaorder covering the tape); each
    metaorder then draws its direction only.
    """
    ensure(n >= 1, "n must be >= 1")
    ensure(fixed_length is not None or 1.0 < alpha < 2.0,
           "alpha must lie in (1, 2): finite mean, long memory")
    ensure(fixed_length is None or fixed_length >= 1, "fixed_length must be >= 1")
    rng = np.random.default_rng(seed)
    per = 1 if fixed_length is not None else 2  # uniforms drawn per metaorder
    block = n // 2 + 64  # mean lengths exceed 2, so one block mostly covers n
    lengths, buys, covered = [], [], 0
    while covered < n:
        u = rng.random(per * block).reshape(block, per)
        if fixed_length is None:
            # integer ceiling of the continuous Pareto gives P(L>l) = l^(-alpha) exactly
            size = _pareto_lengths(u[:, 0], alpha, n)
        else:
            size = np.full(block, min(fixed_length, n))
        lengths.append(size)
        buys.append(u[:, -1] < 0.5)
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
