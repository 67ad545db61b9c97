"""Price-path engines: permanent impact, decaying-propagator impact, and the
equivalent surprise (predictor-based) formulation, plus the quote engine.

All engines return N+1 prices for an N-trade tape; prices[n] is the price
immediately before trade n, prices[N] the final price. The infinite
pre-history of the stationary model is truncated at the first trade; see
burn_in_length for the measurement-side discard policy.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.fft import irfft, rfft

from .exceptions import InputError, ParameterError
from .orderflow import TradeTape

__all__ = [
    "Kernel",
    "ArPredictor",
    "ImpactConfig",
    "QuotePair",
    "impact_sizes",
    "propagator_path",
    "surprise_path",
    "quotes",
    "quote_series",
    "vol_per_trade_to_per_time",
    "kernel_from_predictor",
    "predictor_from_kernel",
    "burn_in_length",
]


@dataclass
class Kernel:
    """Lag-decay profile G(l) of a single trade's impact, l >= 1.

    form="power_law": G(l) = g1 * l^(-beta) + plateau; beta=0 with plateau=0
    degenerates to a flat (permanent) kernel. form="tabulated": explicit
    values for l = 1..L, held at G(L) beyond the table (plateau hold), so
    plateau is reported as the last tabulated value.
    """

    form: str
    beta: float = 0.0
    g1: float = 1.0
    plateau: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.form == "power_law":
            if self.beta < 0:
                raise ParameterError("beta must be >= 0")
            if self.g1 <= 0:
                raise ParameterError("g1 must be positive")
            if self.plateau < 0:
                raise ParameterError("plateau must be >= 0")
        elif self.form == "tabulated":
            if self.values is None:
                raise ParameterError("tabulated kernel needs values")
            self.values = np.asarray(self.values, dtype=np.float64)
            if self.values.ndim != 1 or self.values.size < 1:
                raise ParameterError("tabulated kernel values must be a nonempty 1-d array")
            if not np.all(np.isfinite(self.values)):
                raise ParameterError("tabulated kernel values must be finite")
            self.plateau = float(self.values[-1])
        else:
            raise ParameterError(f"unknown kernel form '{self.form}'")

    @classmethod
    def power_law(cls, beta: float, g1: float = 1.0, plateau: float = 0.0) -> "Kernel":
        return cls(form="power_law", beta=beta, g1=g1, plateau=plateau)

    @classmethod
    def permanent(cls) -> "Kernel":
        return cls(form="power_law", beta=0.0)

    @classmethod
    def tabulated(cls, values) -> "Kernel":
        return cls(form="tabulated", values=values)

    @property
    def is_constant(self) -> bool:
        if self.form == "power_law":
            return self.beta == 0.0
        return bool(np.all(self.values == self.values[0]))

    @property
    def finite_horizon(self) -> int:
        """Table length for tabulated kernels, 0 for analytic forms
        (unbounded support)."""
        return self.values.size if self.form == "tabulated" else 0

    def eval(self, lags):
        """G at integer lags >= 1 (scalar or array)."""
        ell = np.asarray(lags, dtype=np.float64)
        if np.any(ell < 1):
            raise ParameterError("kernel lags must be >= 1")
        if self.form == "power_law":
            out = self.g1 * ell ** (-self.beta) + self.plateau
        else:
            idx = np.minimum(ell.astype(np.int64), self.values.size) - 1
            out = self.values[idx]
        return out if out.ndim else float(out)


def _fft_convolve(x: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the full convolution x*h, from one real FFT padded to
    a power of two at least x.size + h.size - 1 long, so nothing wraps."""
    size = 1 << (x.size + h.size - 2).bit_length()
    spec = rfft(x, size)
    spec *= rfft(h, size)
    return irfft(spec, size)[:n]


@dataclass
class ArPredictor:
    """Linear sign predictor: hat(eps)_n = sum_{j=1..J} coeffs[j-1] * eps_{n-j},
    with zero pre-history before the tape starts."""

    coeffs: np.ndarray
    err_var: float = 1.0

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if self.coeffs.ndim != 1:
            raise ParameterError("predictor coefficients must be 1-d")
        if not np.all(np.isfinite(self.coeffs)):
            raise ParameterError("predictor coefficients must be finite")
        if self.err_var <= 0:
            raise ParameterError("predictor err_var must be positive")

    @property
    def order(self) -> int:
        return self.coeffs.size

    @property
    def worst_case_prediction(self) -> float:
        """Largest |prediction| over +-1 histories, sum of |a_j|. Values >= 1
        mean some history predicts outside (-1, 1); quotes() and
        quote_series() reject each such prediction where it occurs."""
        return float(np.abs(self.coeffs).sum())

    def predict_series(self, eps: np.ndarray) -> np.ndarray:
        """Predicted sign before each trade, pred[n] = sum_j a_j eps[n-j]."""
        eps = np.asarray(eps, dtype=np.float64)
        pred = np.zeros(eps.size)
        if eps.size > 1:
            pred[1:] = _fft_convolve(eps, self.coeffs, eps.size - 1)
        return pred


@dataclass
class ImpactConfig:
    """Shared knobs of every price engine: scale lam (price per volume^psi),
    volume exponent psi, decay kernel (the flat kernel G = 1 of permanent,
    Kyle-type impact unless given; the surprise engine ignores it), additive
    noise level, and starting price.

    lam=0 is admitted for the degenerate noise-only model used in control
    experiments, although the impact models proper assume lam > 0.
    """

    lam: float = 1.0
    psi: float = 1.0
    kernel: Kernel = field(default_factory=Kernel.permanent)
    noise_sigma: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError("lam must be >= 0")
        if not isinstance(self.kernel, Kernel):
            raise ParameterError(f"kernel must be a Kernel, got {self.kernel!r}")
        if not 0.0 < self.psi <= 1.0:
            raise ParameterError("psi must lie in (0, 1]")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")


def impact_sizes(tape: TradeTape, psi: float) -> np.ndarray:
    """Signed impact magnitudes u_n = eps_n * v_n^psi."""
    return tape.eps * tape.v**psi


def _check_nonempty(tape: TradeTape):
    if tape.n == 0:
        raise InputError("empty tape")


def _noise_increments(n: int, cfg: ImpactConfig, seed: int):
    if cfg.noise_sigma == 0.0:
        return None
    rng = np.random.default_rng(seed)
    return cfg.noise_sigma * rng.standard_normal(n)


def propagator_path(tape: TradeTape, cfg: ImpactConfig, seed: int = 0) -> np.ndarray:
    """Decaying-impact path: p_n = p0 + lam * sum_{m<n} G(n-m) u_m + noise walk.

    A constant kernel, such as the default flat one (permanent impact), takes
    a cumulative sum, so no convolution round-off enters."""
    _check_nonempty(tape)
    kernel = cfg.kernel
    u = impact_sizes(tape, cfg.psi)
    n = tape.n
    if kernel.is_constant:
        g1 = float(kernel.eval(1))
        if g1 < 0:
            raise ParameterError("kernel values must be >= 0")
        s = g1 * np.cumsum(u)
    else:
        g = kernel.eval(np.arange(1, n + 1))
        if np.min(g) < 0:
            raise ParameterError("kernel values must be >= 0")
        s = _fft_convolve(u, g, n)
    cum = cfg.lam * s
    eta = _noise_increments(n, cfg, seed)
    if eta is not None:
        cum = cum + np.cumsum(eta)
    return np.concatenate([[cfg.p0], cfg.p0 + cum])


def surprise_path(
    tape: TradeTape, predictor: ArPredictor, cfg: ImpactConfig, seed: int = 0
) -> np.ndarray:
    """Surprise-form path: price moves only on the unpredicted part of the sign,
    dp_n = lam * v_n^psi * (eps_n - hat(eps)_n) + eta_n.

    An all-zero predictor reproduces propagator_path on the flat kernel; the
    predictor implied by a kernel (predictor_from_kernel) reproduces
    propagator_path with that kernel on unit volumes."""
    _check_nonempty(tape)
    pred = predictor.predict_series(tape.eps)
    inc = cfg.lam * tape.v**cfg.psi * (tape.eps - pred)
    eta = _noise_increments(tape.n, cfg, seed)
    if eta is not None:
        inc = inc + eta
    return np.concatenate([[cfg.p0], cfg.p0 + np.cumsum(inc)])


@dataclass
class QuotePair:
    """One pre-trade quote: ask and bid are the expected post-trade prices
    after a buy and a sell; spread = ask - bid = 2*lam*v^psi exactly."""

    ask: float
    bid: float
    spread: float

    def __post_init__(self):
        if not self.ask > self.bid:
            raise ParameterError("ask must exceed bid")


def quotes(prev_price: float, predictor_value: float, cfg: ImpactConfig, v: float) -> QuotePair:
    """Quotes around prev_price given the one-step sign prediction: the
    market maker concedes exactly the surprise-model move to either side, so
    trading at the quote leaves no ex-post regret. Noise never enters."""
    if not abs(predictor_value) < 1.0:
        raise ParameterError(
            f"predictor value {predictor_value} outside (-1, 1): predictor blow-up"
        )
    if v <= 0:
        raise ParameterError("volume must be positive")
    half = cfg.lam * v**cfg.psi
    ask = prev_price + half * (1.0 - predictor_value)
    bid = prev_price + half * (-1.0 - predictor_value)
    return QuotePair(ask=ask, bid=bid, spread=2.0 * cfg.lam * v**cfg.psi)


def quote_series(tape: TradeTape, predictor: ArPredictor, cfg: ImpactConfig):
    """Vectorized quotes before every trade on a tape, around the noiseless
    surprise-model path. Returns (ask, bid, spread) arrays of length N;
    transacting at ask (buy) or bid (sell) reproduces the path exactly."""
    _check_nonempty(tape)
    p = surprise_path(tape, predictor, replace(cfg, noise_sigma=0.0))
    pred = predictor.predict_series(tape.eps)
    if np.any(np.abs(pred) >= 1.0):
        raise ParameterError("predictor value outside (-1, 1) on this tape: predictor blow-up")
    half = cfg.lam * tape.v**cfg.psi
    ask = p[:-1] + half * (1.0 - pred)
    bid = p[:-1] + half * (-1.0 - pred)
    spread = 2.0 * cfg.lam * tape.v**cfg.psi
    return ask, bid, spread


def vol_per_trade_to_per_time(sigma1: float, f: float) -> float:
    """Volatility per unit time from volatility per trade and trade
    frequency: sigma = sigma1 * sqrt(f)."""
    if sigma1 < 0:
        raise ParameterError("sigma1 must be >= 0")
    if f <= 0:
        raise ParameterError("trade frequency must be positive")
    return sigma1 * float(np.sqrt(f))


def kernel_from_predictor(predictor: ArPredictor, max_lag: int) -> Kernel:
    """Tabulated kernel implied by a sign predictor: G(l) = 1 - sum_{j<l} a_j.

    With max_lag covering the whole tape, the surprise path and the
    propagator path with this kernel coincide exactly on unit volumes."""
    if max_lag < 1:
        raise ParameterError("max_lag must be >= 1")
    a = predictor.coeffs
    partial = np.zeros(max_lag)
    upto = min(max_lag - 1, a.size)
    if upto > 0:
        partial[1 : upto + 1] = np.cumsum(a[:upto])
    if upto < max_lag - 1:
        partial[upto + 1 :] = partial[upto]
    return Kernel.tabulated(1.0 - partial)


def predictor_from_kernel(kernel: Kernel, order: int) -> ArPredictor:
    """Sign predictor implied by a decay kernel via a_j = G(j) - G(j+1),
    normalized by G(1). Inverse of kernel_from_predictor."""
    if order < 1:
        raise ParameterError("order must be >= 1")
    lags = np.arange(1, order + 2)
    g = np.asarray(kernel.eval(lags), dtype=np.float64)
    if g[0] == 0:
        raise ParameterError("kernel must have G(1) != 0")
    a = (g[:-1] - g[1:]) / g[0]
    return ArPredictor(a)


def burn_in_length(kernel: Kernel | None = None, predictor: ArPredictor | None = None) -> int:
    """Measurement-side burn-in: number of leading steps to discard from
    statistics so the truncated pre-history is immaterial. Permanent-impact
    paths need none; decaying kernels and predictors ramp up over their
    horizon, floored at 4096 for unbounded-support forms."""
    if kernel is None and predictor is None:
        return 0
    if predictor is not None:
        return max(4096, 2 * predictor.order)
    if kernel.is_constant:
        return 0
    return max(4096, 2 * kernel.finite_horizon)
