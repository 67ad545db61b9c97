"""Quantitative acceptance criteria for the whole laboratory.

Thirteen numbered checks, each a pure function returning a CriterionResult
with pass/fail and the measured numbers. They drive both the test suite
(tests/test_acceptance.py, one test per criterion) and `impactlab report`.

Everything is deterministic: seeds are pinned here, and the expensive
reference simulation (a 2^20-trade long-memory tape priced under the
decaying-kernel model) is computed once and shared by criteria 4, 5 and 6;
criterion 3 draws from the same long-memory process, whose eigenvalues are
cached. run_criteria runs the criteria in forked workers, each one a task of
its own, except that criteria 3-6 share the reference and together are one
worker's task, so it is still built once.
"""

from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import SearchBudgetError, ensure
from .experiment import _fork_map
from .impact import (
    ArPredictor,
    ImpactConfig,
    Kernel,
    kernel_from_predictor,
    propagator_path,
    quotes,
    surprise_path,
)
from .orderflow import (
    SignSeries,
    TradeTape,
    VolumeSeries,
    gen_clipped_fractional_signs,
    gen_iid_signs,
    gen_markov_signs,
    gen_metaorder_signs,
    gen_volumes,
)
from . import estimators as est
from .estimators import ConditionalResponse, LagCurve
from .manipulation import Strategy, count_round_trips, search_round_trips, strategy_cost

__all__ = ["CriterionResult", "run_criteria", "ALL_CRITERIA"]

REFERENCE_SEED = 3
REFERENCE_N = 2**20
BURN = 4096


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _unit_volumes(n: int) -> VolumeSeries:
    return VolumeSeries(np.ones(n))


@lru_cache(maxsize=1)
def _reference_signs() -> SignSeries:
    return gen_clipped_fractional_signs(REFERENCE_N, 0.5, seed=REFERENCE_SEED)


@lru_cache(maxsize=4)
def _reference_tape(beta: float) -> TradeTape:
    """The shared long-memory tape priced under a power-law kernel,
    lam=1, psi=1, unit volumes, noiseless."""
    signs = _reference_signs()
    vols = _unit_volumes(REFERENCE_N)
    tape = TradeTape(signs, vols)
    cfg = ImpactConfig(lam=1.0, psi=1.0, kernel=Kernel.power_law(beta))
    prices = propagator_path(tape, cfg)
    return TradeTape(signs, vols, prices=prices)


@lru_cache(maxsize=1)
def _reference_sign_autocorr() -> LagCurve:
    # dense to 4608 so prediction/inversion tails (j_tail=4096) are covered
    return est.sign_autocorr(_reference_signs(), 4608)


def criterion_01_permanent_flat_response() -> CriterionResult:
    """Permanent impact on i.i.d. flow: R(l) is flat at lam."""
    n, lam = 10**5, 0.1
    signs = gen_iid_signs(n, 0.5, seed=1)
    tape = TradeTape(signs, _unit_volumes(n))
    prices = propagator_path(tape, ImpactConfig(lam=lam, psi=1.0))
    tape = TradeTape(signs, _unit_volumes(n), prices=prices)
    r = est.response(tape, max_lag=64)
    # constant volumes make the lag-1 products deterministic, so the naive
    # SE collapses there while the mean-centering term still moves the
    # estimate by O(lam/N); floor the SE well above that but far below the
    # statistical bands of the stochastic lags
    se = np.maximum(r.se, lam * 1e-5)
    dev = np.abs(r.values - lam) / se
    passed = bool(np.all(dev <= 3.0))
    return CriterionResult(
        1, "permanent impact gives a lag-independent response", passed,
        {"max_abs_dev_in_se": float(dev.max()), "band_se": 3.0, "lam": lam},
    )


def criterion_02_rho_unity_and_dilution() -> CriterionResult:
    """Window flow/price correlation: 1 without noise, 1/sqrt(2) when the
    noise variance matches the impact variance."""
    n, T = 10**6, 16
    signs = gen_iid_signs(n, 0.5, seed=2)
    vols = _unit_volumes(n)
    tape = TradeTape(signs, vols)
    cfg = ImpactConfig(lam=1.0, psi=1.0)
    clean = TradeTape(signs, vols, prices=propagator_path(tape, cfg))
    rho_clean = est.rho(clean, T)
    noisy_cfg = ImpactConfig(lam=1.0, psi=1.0, noise_sigma=1.0)
    noisy = TradeTape(signs, vols, prices=propagator_path(tape, noisy_cfg, seed=902))
    rho_noisy = est.rho(noisy, T)
    target = 1.0 / np.sqrt(2.0)
    ok_clean = abs(rho_clean - 1.0) <= 1e-9
    ok_noisy = abs(rho_noisy - target) <= 0.02
    return CriterionResult(
        2, "flow-price correlation is 1 noiseless and 1/sqrt(2) at equal noise",
        bool(ok_clean and ok_noisy),
        {"rho_noiseless": float(rho_clean), "rho_noisy": float(rho_noisy),
         "target_noisy": float(target), "tol_noiseless": 1e-9, "tol_noisy": 0.02},
    )


def criterion_03_long_memory_generators() -> CriterionResult:
    """Both long-memory sign generators hit the target tail exponent 0.5,
    measured over 5 seeds per generator.

    The band applies to the pooled 5-seed estimate: metaorder splitting has
    heavy-tailed parent sizes, so single-seed tail fits at this N disperse
    far beyond the band width and only the seed-pooled curve is a fair
    estimator. Per-seed fits are recorded alongside.
    """
    seeds = [1, 2, 3, 4, 5]
    fit_range = (8, 512)
    out: dict = {"fit_range": list(fit_range), "seeds": seeds}
    passed = True
    for name, gen in (
        ("clipped_fractional", lambda s: gen_clipped_fractional_signs(REFERENCE_N, 0.5, seed=s)),
        ("metaorder", lambda s: gen_metaorder_signs(REFERENCE_N, 1.5, seed=s)),
    ):
        curves = [est.sign_autocorr(gen(s), 600) for s in seeds]
        per_seed = [est.fit_power_law(c, fit_range).exponent for c in curves]
        pooled = est.fit_power_law(est.pool_curves(curves), fit_range).exponent
        ok = 0.4 <= pooled <= 0.6
        out[name] = {"gamma_hat_pooled": float(pooled),
                     "gamma_hats_per_seed": [float(g) for g in per_seed],
                     "in_band": ok}
        passed = passed and ok
    return CriterionResult(
        3, "long-memory generators land in gamma 0.4..0.6 over 5 seeds", passed, out
    )


def criterion_04_martingale_exponent() -> CriterionResult:
    """Kernel decay beta=(1-gamma)/2 makes prices diffusive; flatter or
    steeper kernels visibly trend or mean-revert on the same flow."""
    tape = _reference_tape(0.25)
    d = est.diffusivity(tape, 256, burn=BURN)
    ratios = d.values / d.values[0]
    ok_flat = bool(np.all((ratios >= 0.7) & (ratios <= 1.4)))
    r = np.diff(tape.prices[BURN:])
    ac = est.normalized_autocorr(r, 32)[1:]
    bound = 3.0 / np.sqrt(r.size)
    ok_white = bool(np.max(np.abs(ac)) <= bound)
    d0 = est.diffusivity(_reference_tape(0.0), 256, burn=BURN)
    trend_ratio = float(d0.values[-1] / d0.values[0])
    d45 = est.diffusivity(_reference_tape(0.45), 256, burn=BURN)
    revert_ratio = float(d45.values[-1] / d45.values[0])
    ok_controls = trend_ratio > 2.0 and revert_ratio < 0.7
    return CriterionResult(
        4, "matched kernel decay yields diffusive prices; controls break it",
        bool(ok_flat and ok_white and ok_controls),
        {"diffusivity_ratio_range": [float(ratios.min()), float(ratios.max())],
         "max_abs_return_autocorr": float(np.max(np.abs(ac))),
         "whiteness_bound": float(bound),
         "permanent_control_ratio": trend_ratio,
         "steep_control_ratio": revert_ratio},
    )


def criterion_05_response_decomposition() -> CriterionResult:
    """Measured response matches the kernel/autocorrelation prediction and
    tends to a non-vanishing long-lag limit."""
    tape = _reference_tape(0.25)
    chat = _reference_sign_autocorr()
    pred = est.predict_response(Kernel.power_law(0.25), chat, 1.0, 1.0, 1.0, max_lag=128)
    meas = est.response(tape, max_lag=128, overlap=False, batches=32, burn=BURN)
    dev = np.abs(meas.values - pred.values) / meas.se
    ok_point = bool(np.all(dev <= 3.0))
    wide = est.response(tape, max_lag=512, burn=BURN)
    ratio = wide.value_at(512) / wide.value_at(8)
    ok_limit = 0.5 <= ratio <= 2.0
    return CriterionResult(
        5, "response matches its kernel decomposition and keeps a floor",
        bool(ok_point and ok_limit),
        {"max_abs_dev_in_se": float(dev.max()), "band_se": 3.0,
         "r512_over_r8": ratio,
         "truncation_bound": float(pred.meta["truncation_bound"])},
    )


def criterion_06_kernel_inversion() -> CriterionResult:
    """Response inversion: exact synthetic round trip, then kernel exponent
    recovery from the simulated tape."""
    lags_c = np.arange(1, 6001)
    c_exact = LagCurve(lags_c, 0.4 * lags_c**-0.6, np.ones(lags_c.size, dtype=np.int64),
                       "sign_autocorr")
    true_g = np.arange(1, 33, dtype=np.float64) ** -0.3
    kern = Kernel.tabulated(true_g)
    r_exact = est.predict_response(kern, c_exact, 1.0, 1.0, 1.0, max_lag=64)
    recovered, rep = est.invert_response(r_exact, c_exact, 1.0, 1.0, 1.0, 32)
    rel = float(np.max(np.abs(recovered.values - true_g) / true_g))
    ok_exact = rel <= 1e-6

    r_meas = est.response(_reference_tape(0.25), max_lag=256, burn=BURN)
    ghat, rep2 = est.invert_response(r_meas, _reference_sign_autocorr(), 1.0, 1.0, 1.0, 128)
    fit = est.fit_power_law((np.arange(1, 129, dtype=np.float64), ghat.values), (1, 64))
    ok_sim = 0.2 <= fit.exponent <= 0.3
    return CriterionResult(
        6, "kernel inversion is exact on synthetic data, 0.2..0.3 on simulated",
        bool(ok_exact and ok_sim),
        {"exact_max_rel_err": rel, "exact_tol": 1e-6,
         "exact_residual": float(rep["residual_norm"]),
         "beta_hat": float(fit.exponent), "sim_condition": float(rep2["condition"])},
    )


def criterion_07_surprise_propagator_identity() -> CriterionResult:
    """The fitted-predictor surprise model and the kernel implied by that
    predictor price a tape identically; the recursion solver is exact on a
    geometric autocorrelation."""
    n = 10**5
    signs = gen_markov_signs(n, 0.5, seed=7)
    tape = TradeTape(signs, _unit_volumes(n))
    chat = est.sign_autocorr(signs, 8)
    pred = est.levinson_durbin(chat, 8)
    cfg = ImpactConfig(lam=1.0, psi=1.0)
    p1 = surprise_path(tape, pred, cfg)
    kern = kernel_from_predictor(pred, pred.order + 1)
    p2 = propagator_path(tape, ImpactConfig(lam=1.0, psi=1.0, kernel=kern))
    r1, r2 = np.diff(p1), np.diff(p2)
    rel = float(np.max(np.abs(r1 - r2)) / np.max(np.abs(r1)))
    ok_paths = rel <= 1e-9

    exact = est.levinson_durbin(0.5 ** np.arange(1, 9, dtype=np.float64), 8)
    a = exact.coeffs
    ok_ld = abs(a[0] - 0.5) <= 1e-12 and float(np.max(np.abs(a[1:]))) <= 1e-12
    return CriterionResult(
        7, "surprise and implied-kernel models price identically",
        bool(ok_paths and ok_ld),
        {"max_rel_return_gap": rel, "tol": 1e-9,
         "a1": float(a[0]), "max_abs_rest": float(np.max(np.abs(a[1:])))},
    )


def criterion_08_asymmetric_impact() -> CriterionResult:
    """Under a predictive flow, expected trades move the price less than
    surprising ones: 0.5*lam vs 1.5*lam exactly without noise, same
    ordering at 3 SE with noise."""
    n, lam = 10**5, 1.0
    signs = gen_markov_signs(n, 0.5, seed=5)
    tape = TradeTape(signs, _unit_volumes(n))
    pred = ArPredictor(np.array([0.5]))
    p = surprise_path(tape, pred, ImpactConfig(lam=lam, psi=1.0))
    y = np.diff(p) * signs.signs
    confirm = signs.signs[1:] == signs.signs[:-1]
    y1 = y[1:]
    dev_conf = float(np.max(np.abs(y1[confirm] - 0.5 * lam)))
    dev_contra = float(np.max(np.abs(y1[~confirm] - 1.5 * lam)))
    ok_exact = dev_conf <= 1e-12 and dev_contra <= 1e-12

    p_noisy = surprise_path(tape, pred, ImpactConfig(lam=lam, psi=1.0, noise_sigma=0.5),
                            seed=905)
    y2 = (np.diff(p_noisy) * signs.signs)[1:]
    a, b = y2[confirm], y2[~confirm]
    se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    gap_in_se = float((b.mean() - a.mean()) / se)
    ok_noisy = a.mean() < b.mean() and gap_in_se > 3.0
    return CriterionResult(
        8, "expected trades impact 0.5 lam, surprising ones 1.5 lam",
        bool(ok_exact and ok_noisy),
        {"max_dev_confirming": dev_conf, "max_dev_contrarian": dev_contra,
         "noisy_gap_in_se": gap_in_se,
         "mean_confirming": float(a.mean()), "mean_contrarian": float(b.mean())},
    )


def criterion_09_concavity_recovery() -> CriterionResult:
    """Volume-conditioned response recovers the concavity exponent, and the
    square-root family fits it well."""
    n = 10**6
    signs = gen_iid_signs(n, 0.5, seed=11)
    vols = gen_volumes(n, "lognormal", seed=12, mu=0.0, sigma=1.0)
    tape = TradeTape(signs, vols)
    cfg = ImpactConfig(lam=1.0, psi=0.5, kernel=Kernel.power_law(0.25))
    prices = propagator_path(tape, cfg)
    tape = TradeTape(signs, vols, prices=prices)
    cond = est.conditional_response(tape, 1, burn=BURN)
    centers = cond.centers
    fit = est.fit_power_law(cond, (float(centers[0]), float(centers[-1])))
    ok_psi = 0.45 <= fit.exponent <= 0.55
    sigma1 = float(np.std(np.diff(prices[BURN:])))
    v_mean = float(np.mean(vols.volumes[BURN:]))
    barra = est.fit_barra(cond, sigma1, v_mean)
    ok_barra = barra.r_squared > 0.9
    return CriterionResult(
        9, "concave impact exponent recovered; sqrt family fits",
        bool(ok_psi and ok_barra),
        {"psi_hat": float(fit.exponent), "band": [0.45, 0.55],
         "barra_r2": float(barra.r_squared), "barra_amplitude": float(barra.A),
         "n_bins_kept": int(cond.values.size)},
    )


def criterion_10_spread_duality() -> CriterionResult:
    """Quotes reproduce S = 2 lam v^psi exactly, and per-trade volatility is
    proportional to the spread across a lam sweep."""
    q1 = quotes(100.0, 0.5, ImpactConfig(lam=1.0, psi=1.0), 1.0)
    q2 = quotes(50.0, -0.25, ImpactConfig(lam=1.0, psi=0.5), 4.0)
    ok_exact = (
        q1.spread == 2.0 and q1.ask == 100.5 and q1.bid == 98.5 and q2.spread == 4.0
    )
    pred = ArPredictor(np.array([0.5]))
    kappas = []
    for i, lam in enumerate((0.5, 1.0, 2.0)):
        signs = gen_markov_signs(10**5, 0.5, seed=21 + i)
        tape = TradeTape(signs, _unit_volumes(10**5))
        p = surprise_path(tape, pred, ImpactConfig(lam=lam, psi=1.0))
        sigma1 = float(np.std(np.diff(p)))
        spread = 2.0 * lam
        kappas.append(sigma1 / spread)
    kappas = np.array(kappas)
    stability = float(np.max(np.abs(kappas - kappas.mean())) / kappas.mean())
    ok_sweep = stability <= 0.05
    return CriterionResult(
        10, "spread is 2 lam v^psi and volatility per trade tracks it",
        bool(ok_exact and ok_sweep),
        {"spread_values": [float(q1.spread), float(q2.spread)],
         "kappas": [float(k) for k in kappas], "max_rel_spread_of_kappa": stability,
         "tol": 0.05},
    )


def criterion_11_manipulation_frontier() -> CriterionResult:
    """Exhaustive round-trip search: no free lunch on the diagonal and
    above, guaranteed profit for permanent-plus-concave."""
    grid = (1.0, 2.0, 4.0, 8.0, 9.0)
    max_len = 10
    n_candidates = count_round_trips(max_len, grid)
    # the grid has over 10^7 candidates, so the default budget refuses it;
    # confirm, then raise the budget to exactly the candidate count as the
    # error suggests
    try:
        search_round_trips(Kernel.permanent(), 1.0, 1.0, max_len, grid)
        refused = False
    except SearchBudgetError:
        refused = True
    details: dict = {"candidates": int(n_candidates), "default_budget": 10**7,
                     "default_budget_refused": refused, "budget_used": int(n_candidates)}

    def cell(beta, psi):
        cost, strat, _ = search_round_trips(
            Kernel.power_law(beta), 1.0, psi, max_len, grid, budget=n_candidates
        )
        return cost, strat

    c_lin, _ = cell(0.0, 1.0)
    c_conc, s_conc = cell(0.0, 0.5)
    c_diag, _ = cell(0.5, 0.5)
    c_above, _ = cell(0.6, 0.6)
    nine = Strategy(tuple((s, 1.0) for s in range(1, 10)) + ((10, -9.0),), 10)
    nine_cost = strategy_cost(nine, Kernel.permanent(), 1.0, 0.5).expected_cost
    ok = (
        c_lin >= 0.0
        and c_conc <= -9.0
        and abs(nine_cost - (-9.0)) <= 1e-9
        and c_conc <= nine_cost + 1e-9
        and c_diag >= 0.0
        and c_above >= 0.0
    )
    details.update(
        {"cost_linear_permanent": float(c_lin), "cost_concave_permanent": float(c_conc),
         "cost_diagonal": float(c_diag), "cost_above_diagonal": float(c_above),
         "nine_buy_cost": float(nine_cost),
         "argmin_concave": None if s_conc is None else list(s_conc.trades)}
    )
    return CriterionResult(
        11, "no round-trip profit on/above the diagonal; concave permanent leaks", ok,
        details,
    )


def criterion_12_master_curve_collapse() -> CriterionResult:
    """An exactly self-similar curve family collapses at the right exponent
    and fails without rescaling."""
    delta = 0.3
    x = np.exp(np.linspace(np.log(0.1), np.log(10.0), 15))
    step = x[1] / x[0]
    stocks = []
    for m_cap, vbar in ((1.0, 1.0), (10.0, 2.0), (100.0, 5.0)):
        centers = x * vbar * m_cap**-delta
        values = m_cap**-delta * x**delta  # R = M^-d F(M^d v / vbar), F(x)=x^d
        # contiguous bins share their edges, so rounding cannot overlap them
        edges = np.append(centers / np.sqrt(step), centers[-1] * np.sqrt(step))
        counts = np.full(x.size, 100, dtype=np.int64)
        stocks.append((m_cap, vbar, ConditionalResponse(edges[:-1], edges[1:], values, counts, 1)))
    good = est.master_curve_rescale(stocks, delta=delta)
    bad = est.master_curve_rescale(stocks, delta=0.0)
    ok = good.metric < 1e-9 and bad.metric > 0.5
    return CriterionResult(
        12, "self-similar family collapses at delta=0.3, not at 0", bool(ok),
        {"metric_at_delta": float(good.metric), "metric_at_zero": float(bad.metric)},
    )


def criterion_13_determinism_round_trips() -> CriterionResult:
    """Identical configs give byte-identical outputs; every file format
    round-trips losslessly."""
    import filecmp
    import tempfile
    import os

    from . import io as iolib
    from .experiment import ExperimentConfig, simulate_stage

    cfg = ExperimentConfig(
        n=2000,
        seed=1,
        generator={"kind": "markov", "c1": 0.3},
        volumes={"dist": "lognormal", "mu": 0.0, "sigma": 0.5},
        model={"kind": "propagator", "lam": 0.5, "psi": 0.5, "noise_sigma": 0.1,
               "p0": 100.0, "kernel": {"form": "power_law", "beta": 0.3,
                                       "g1": 1.0, "plateau": 0.0}},
    )
    details: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [os.path.join(tmp, run) for run in ("a", "b")]
        for run in runs:
            tape, _, files = simulate_stage(cfg, 1, run)
        details["byte_identical"] = all(
            filecmp.cmp(os.path.join(runs[0], f), os.path.join(runs[1], f), shallow=False)
            for f in files.values())

        back = iolib.read_tape(os.path.join(runs[0], files["tape"]))
        tape_rt = (
            np.array_equal(back.eps, tape.eps)
            and np.array_equal(back.v, tape.v)
            and np.array_equal(back.prices, tape.prices)
        )
        details["tape_round_trip"] = bool(tape_rt)

        curve = est.response(tape, max_lag=16, overlap=False, batches=4)
        cpath = os.path.join(tmp, "curve.csv")
        iolib.write_curve(curve, cpath)
        c2 = iolib.read_curve(cpath, "response")
        curve_rt = (
            np.array_equal(c2.lags, curve.lags)
            and np.array_equal(c2.values, curve.values)
            and np.array_equal(c2.counts, curve.counts)
            and np.array_equal(c2.se, curve.se)
        )
        details["curve_round_trip"] = bool(curve_rt)

        kpath = os.path.join(tmp, "kernel.csv")
        kern = Kernel.tabulated(np.arange(1, 9, dtype=np.float64) ** -0.3)
        iolib.write_kernel(kern, kpath)
        k2, _ = iolib.read_kernel(kpath)
        details["kernel_round_trip"] = bool(np.array_equal(k2.values, kern.values))

        d = cfg.to_dict()
        jpath = os.path.join(tmp, "config.json")
        iolib.write_json(d, jpath)
        cfg2 = ExperimentConfig.from_dict(iolib.read_json(jpath))
        details["config_round_trip"] = bool(cfg2.to_dict() == d)

    ok = all(
        details[k]
        for k in ("byte_identical", "tape_round_trip", "curve_round_trip",
                  "kernel_round_trip", "config_round_trip")
    )
    return CriterionResult(13, "byte-identical reruns and lossless round-trips",
                           bool(ok), details)


ALL_CRITERIA = {
    1: criterion_01_permanent_flat_response,
    2: criterion_02_rho_unity_and_dilution,
    3: criterion_03_long_memory_generators,
    4: criterion_04_martingale_exponent,
    5: criterion_05_response_decomposition,
    6: criterion_06_kernel_inversion,
    7: criterion_07_surprise_propagator_identity,
    8: criterion_08_asymmetric_impact,
    9: criterion_09_concavity_recovery,
    10: criterion_10_spread_duality,
    11: criterion_11_manipulation_frontier,
    12: criterion_12_master_curve_collapse,
    13: criterion_13_determinism_round_trips,
}


# the criteria that read the lru-cached reference signs, tapes and sign
# autocorrelation, and criterion 3 the eigenvalues of the reference process:
# one worker runs them, so each is built once
_SHARED_REFERENCE = (3, 4, 5, 6)


def _check_criteria(numbers) -> list:
    """The criterion numbers as a list; each must be one of ALL_CRITERIA, and
    named once: a repeat would run a criterion twice."""
    numbers = list(numbers)
    unknown = [n for n in numbers if n not in ALL_CRITERIA]
    ensure(not unknown, f"unknown criteria {unknown}: valid numbers are 1..13")
    ensure(len(set(numbers)) == len(numbers), f"criteria list {numbers} repeats a criterion")
    return numbers


def _run_task(task: tuple) -> list:
    return [ALL_CRITERIA[n]() for n in task]


def run_criteria(numbers=None) -> list:
    """Run the selected criteria (all by default), returning their results in
    the order asked. Each criterion is a task of its own, but those of
    _SHARED_REFERENCE asked for form one; the tasks run in forked workers
    through experiment._fork_map."""
    numbers = sorted(ALL_CRITERIA) if numbers is None else _check_criteria(numbers)
    shared = tuple(n for n in numbers if n in _SHARED_REFERENCE)
    tasks = [shared if n in shared else (n,) for n in numbers if n not in shared[1:]]
    done = _fork_map(_run_task, tasks, lambda task: f"criteria {', '.join(map(str, task))}")
    by_number = {r.number: r for results in done for r in results}
    return [by_number[n] for n in numbers]
