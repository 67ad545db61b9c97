"""Price-path engines: permanent impact, decaying-propagator impact, and the
equivalent surprise (predictor-based) formulation, plus the quote engine.

All engines return N+1 prices for an N-trade tape; prices[n] is the price
immediately before trade n, prices[N] the final price. The infinite
pre-history of the stationary model is truncated at the first trade; see
burn_in_length for the measurement-side discard policy.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from .exceptions import InputError, ParameterError, ensure
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
    "kernel_from_predictor",
    "burn_in_length",
]


@dataclass
class Kernel:
    """Lag-decay profile G(l) of a single trade's impact, l >= 1.

    form="power_law": G(l) = g1 * l^(-beta) + plateau; beta=0 with plateau=0
    degenerates to a flat (permanent) kernel. form="tabulated": explicit
    values for l = 1..L, held at G(L) beyond the table; only the power-law
    form reads beta, g1 and plateau.
    """

    form: str
    beta: float = 0.0
    g1: float = 1.0
    plateau: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.form == "power_law":
            ensure(0 <= self.beta < np.inf, "beta must be finite and >= 0")
            ensure(0 < self.g1 < np.inf, "g1 must be finite and positive")
            ensure(0 <= self.plateau < np.inf, "plateau must be finite and >= 0")
        elif self.form == "tabulated":
            ensure(self.values is not None, "tabulated kernel needs values")
            self.values = np.asarray(self.values, dtype=np.float64)
            ensure(self.values.ndim == 1 and self.values.size >= 1,
                   "tabulated kernel values must be a nonempty 1-d array")
            ensure(np.isfinite(self.values), "tabulated kernel values must be finite")
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
        ensure((1 <= ell) & (ell < np.inf), "kernel lags must be finite and >= 1")
        if self.form == "power_law":
            out = self.g1 * ell ** (-self.beta) + self.plateau
        else:
            idx = np.minimum(ell.astype(np.int64), self.values.size) - 1
            out = self.values[idx]
        return out if out.ndim else float(out)


_BLOCK = 1 << 17  # longest operand block transformed at once


def _fft_convolve(x: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """First n <= x.size + h.size - 1 terms of the full convolution x*h, by
    overlap-add over blocks of at most _BLOCK terms, each transformed at the
    power of two at or above bx + bh - 1 for block lengths bx and bh, so
    nothing wraps. The products X_i·H_j of one diagonal d = i + j are
    summed, inverted once and added into the output d blocks in. Operands
    of at most _BLOCK terms are one diagonal: the one product of their
    padded spectra.

    h's blocks are transformed first, then x's; when the caller holds no
    other reference to an input, it is freed as soon as its spectra exist.
    The diagonals run last-first, so X_d and H_d meet H_0 and X_0 for the
    last time at diagonal d: its sum accumulates in place in X_d, and each
    spectrum is freed after its last use. The output is allocated once the
    first diagonal is summed, never beside every spectrum and a product."""
    bx, bh = min(x.size, _BLOCK), min(h.size, _BLOCK)
    step, size = max(bx, bh), 1 << (bx + bh - 2).bit_length()
    hs = [rfft(h[lo:lo + bh], size) for lo in range(0, min(h.size, n), bh)]
    del h
    xs = [rfft(x[lo:lo + bx], size) for lo in range(0, min(x.size, n), bx)]
    del x
    out, filled = None, n  # out[filled:] holds the diagonals above d
    for d in range(min(len(xs) + len(hs) - 2, (n - 1) // step), -1, -1):
        first, last = max(0, d - len(hs) + 1), min(d, len(xs) - 1)
        if last == d:
            acc, xs[d] = xs[d], None
            acc *= hs[0]
        else:
            acc = xs[last] * hs[d - last]
        for i in range(first, last):
            acc += xs[i] * hs[d - i]
        if d < len(hs):
            hs[d] = None
        y = irfft(acc, size)
        del acc
        if out is None:
            out = np.empty(n)
        lo, hi = d * step, min(n, d * step + bx + bh - 1)
        out[lo:filled] = y[:filled - lo]
        out[filled:hi] += y[filled - lo:hi - lo]
        filled = lo
    return out


@dataclass
class ArPredictor:
    """Linear sign predictor: hat(eps)_n = sum_{j=1..J} coeffs[j-1] * eps_{n-j},
    with zero pre-history before the tape starts."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        ensure(self.coeffs.ndim == 1, "predictor coefficients must be 1-d")
        ensure(np.isfinite(self.coeffs), "predictor coefficients must be finite")

    @property
    def order(self) -> int:
        return self.coeffs.size

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
        ensure(0 <= self.lam < np.inf, "lam must be finite and >= 0")
        ensure(isinstance(self.kernel, Kernel),
               f"kernel must be a Kernel, got {type(self.kernel).__name__}")
        ensure(0.0 < self.psi <= 1.0, "psi must lie in (0, 1]")
        ensure(0 <= self.noise_sigma < np.inf, "noise_sigma must be finite and >= 0")
        ensure(np.isfinite(self.p0), "p0 must be finite")


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


def _kernel_table(kernel: Kernel, n: int) -> np.ndarray:
    """G(1..n), checked non-negative."""
    g = kernel.eval(np.arange(1, n + 1))
    ensure(g >= 0, "kernel values must be >= 0")
    return g


def propagator_path(tape: TradeTape, cfg: ImpactConfig, seed: int = 0) -> np.ndarray:
    """Decaying-impact path: p_n = p0 + lam * sum_{m<n} G(n-m) u_m + noise walk.

    A constant kernel, such as the default flat one (permanent impact), takes
    a cumulative sum, so no convolution round-off enters. Any other kernel
    takes _fft_convolve: one product of spectra for tapes of at most _BLOCK
    trades, and products of _BLOCK-term block spectra, added block by block,
    for longer ones, so no transform is longer than 2 * _BLOCK = 2^18 points."""
    _check_nonempty(tape)
    kernel = cfg.kernel
    n = tape.n
    if kernel.is_constant:
        # a Python float times the temporary sum: numpy reuses its buffer
        s = float(_kernel_table(kernel, 1)[0]) * np.cumsum(impact_sizes(tape, cfg.psi))
    else:
        # handed over unnamed, so the convolution frees each once transformed
        s = _fft_convolve(impact_sizes(tape, cfg.psi), _kernel_table(kernel, n), n)
    prices = np.empty(n + 1)
    prices[0] = cfg.p0
    cum = prices[1:]
    np.multiply(cfg.lam, s, out=cum)
    del s  # frees the convolution before the noise is drawn
    eta = _noise_increments(n, cfg, seed)
    if eta is not None:
        cum += np.cumsum(eta)
    cum += cfg.p0
    return prices


def surprise_path(
    tape: TradeTape, predictor: ArPredictor, cfg: ImpactConfig, seed: int = 0
) -> np.ndarray:
    """Surprise-form path: price moves only on the unpredicted part of the sign,
    dp_n = lam * v_n^psi * (eps_n - hat(eps)_n) + eta_n.

    An all-zero predictor reproduces propagator_path on the flat kernel, and
    any predictor reproduces it on unit volumes with the kernel it implies
    over the tape's length (kernel_from_predictor)."""
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
        ensure(-np.inf < self.bid < self.ask < np.inf, "ask must exceed bid, both finite")


def quotes(prev_price: float, predictor_value: float, cfg: ImpactConfig, v: float) -> QuotePair:
    """Quotes around prev_price given the one-step sign prediction: the
    market maker concedes exactly the surprise-model move to either side, so
    trading at the quote leaves no ex-post regret. Noise never enters."""
    ensure(abs(predictor_value) < 1.0,
           f"predictor value {predictor_value} outside (-1, 1): predictor blow-up")
    ensure(0 < v < np.inf, f"v must be finite and > 0, got {v!r}")
    half = cfg.lam * v**cfg.psi
    ask = prev_price + half * (1.0 - predictor_value)
    bid = prev_price + half * (-1.0 - predictor_value)
    return QuotePair(ask=ask, bid=bid, spread=2.0 * cfg.lam * v**cfg.psi)


def kernel_from_predictor(predictor: ArPredictor, max_lag: int) -> Kernel:
    """Tabulated kernel implied by a sign predictor: G(l) = 1 - sum_{j<l} a_j.

    With max_lag covering the whole tape, the surprise path and the
    propagator path with this kernel coincide exactly on unit volumes."""
    ensure(max_lag >= 1, "max_lag must be >= 1")
    partial = np.cumsum(np.concatenate(([0.0], predictor.coeffs[: max_lag - 1])))
    return Kernel.tabulated(1.0 - np.pad(partial, (0, max_lag - partial.size), mode="edge"))


def burn_in_length(kernel: Kernel, predictor: ArPredictor | None = None) -> int:
    """Measurement-side burn-in: number of leading steps to discard from
    statistics so the truncated pre-history is immaterial. Permanent-impact
    paths need none; decaying kernels and predictors ramp up over their
    horizon, floored at 4096 for unbounded-support forms."""
    if predictor is not None:
        return max(4096, 2 * predictor.order)
    if kernel.is_constant:
        return 0
    return max(4096, 2 * kernel.finite_horizon)
