"""Quantitative acceptance criteria for the whole laboratory.

Thirteen numbered checks, each a pure function returning (passed, details):
pass/fail and the measured numbers. `@_criterion(number, name)` above a check
is the one place its number and name are written: it registers the check in
ALL_CRITERIA as a function returning its CriterionResult, and refuses a number
registered before. They drive both the test suite (tests/test_acceptance.py,
one test per criterion) and `impactlab report`.

Everything is deterministic: seeds are pinned here, and the expensive
reference simulation (a 2^20-trade long-memory tape priced under the
decaying-kernel model) is computed once and shared by criteria 4, 5 and 6;
criterion 3 draws from the same long-memory process, whose eigenvalues are
cached until the reference signs are drawn. run_criteria runs the criteria in
forked workers, each one a task of its own, except that criteria 3-6 share the
reference and together are one worker's task, so it is still built once.
"""

import os
import tempfile
from dataclasses import asdict, dataclass, field
from functools import lru_cache, wraps

import numpy as np

from . import io as iolib
from .exceptions import SearchBudgetError, ensure
from .experiment import ExperimentConfig, _fork_map, simulate_stage
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
    _embedding_eigenvalues,
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


ALL_CRITERIA: dict = {}  # number -> the registered check, returning its CriterionResult


def _criterion(number: int, name: str):
    """Registers the check it decorates as criterion `number` of ALL_CRITERIA;
    the registered function returns the check's (passed, details) as the
    criterion's CriterionResult."""
    ensure(number not in ALL_CRITERIA, f"criterion {number} must be registered once")

    def register(check):
        @wraps(check)
        def run() -> CriterionResult:
            passed, details = check()
            return CriterionResult(number, name, bool(passed), details)

        ALL_CRITERIA[number] = run
        return run

    return register


def _priced_tape(signs: SignSeries, volumes: VolumeSeries, cfg: ImpactConfig,
                 seed: int = 0) -> TradeTape:
    """The trades priced by propagator_path under cfg, noise drawn from seed."""
    return TradeTape(signs, volumes, propagator_path(TradeTape(signs, volumes), cfg, seed))


def _unit_volumes(n: int) -> VolumeSeries:
    """n unit volumes: a read-only view of one double."""
    return VolumeSeries(np.broadcast_to(np.float64(1.0), (n,)))


@lru_cache(maxsize=1)
def _reference_signs() -> SignSeries:
    signs = gen_clipped_fractional_signs(REFERENCE_N, 0.5, seed=REFERENCE_SEED)
    # criterion 3, run before, has drawn the process's other signs: nothing whitens again
    _embedding_eigenvalues.cache_clear()
    return signs


@lru_cache(maxsize=1)
def _reference_volumes() -> VolumeSeries:  # one array that every reference tape shares
    return _unit_volumes(REFERENCE_N)


def _priced_reference(beta: float) -> TradeTape:
    """The shared long-memory tape priced under a power-law kernel,
    lam=1, psi=1, unit volumes, noiseless, after its first BURN trades."""
    cfg = ImpactConfig(lam=1.0, psi=1.0, kernel=Kernel.power_law(beta))
    return _priced_tape(_reference_signs(), _reference_volumes(), cfg).drop(BURN)


@lru_cache(maxsize=1)
def _reference_tape() -> TradeTape:
    """The reference tape under the matched kernel, beta = (1 - 0.5)/2, that
    criteria 4-6 read. Criterion 4's controls are priced uncached, so neither
    outlives its diffusivity."""
    return _priced_reference(0.25)


@lru_cache(maxsize=1)
def _reference_sign_autocorr() -> LagCurve:
    # dense to 4608 so prediction/inversion tails (j_tail=4096) are covered
    return est.sign_autocorr(_reference_signs(), 4608)


@_criterion(1, "permanent impact gives a lag-independent response")
def criterion_01_permanent_flat_response():
    """Permanent impact on i.i.d. flow: R(l) is flat at lam."""
    n, lam = 10**5, 0.1
    tape = _priced_tape(gen_iid_signs(n, 0.5, seed=1), _unit_volumes(n),
                        ImpactConfig(lam=lam, psi=1.0))
    r = est.response(tape, max_lag=64)
    # constant volumes make the lag-1 products deterministic, so the naive
    # SE collapses there while the mean-centering term still moves the
    # estimate by O(lam/N); floor the SE well above that but far below the
    # statistical bands of the stochastic lags
    se = np.maximum(r.se, lam * 1e-5)
    dev = np.abs(r.values - lam) / se
    return np.all(dev <= 3.0), {"max_abs_dev_in_se": float(dev.max()), "band_se": 3.0, "lam": lam}


@_criterion(2, "flow-price correlation is 1 noiseless and 1/sqrt(2) at equal noise")
def criterion_02_rho_unity_and_dilution():
    """Window flow/price correlation: 1 without noise, 1/sqrt(2) when the
    noise variance matches the impact variance."""
    n, T = 10**6, 16
    signs, vols = gen_iid_signs(n, 0.5, seed=2), _unit_volumes(n)
    rho_clean = est.rho(_priced_tape(signs, vols, ImpactConfig(lam=1.0, psi=1.0)), T)
    noisy_cfg = ImpactConfig(lam=1.0, psi=1.0, noise_sigma=1.0)
    rho_noisy = est.rho(_priced_tape(signs, vols, noisy_cfg, seed=902), T)
    target = 1.0 / np.sqrt(2.0)
    passed = abs(rho_clean - 1.0) <= 1e-9 and abs(rho_noisy - target) <= 0.02
    return passed, {"rho_noiseless": float(rho_clean), "rho_noisy": float(rho_noisy),
                    "target_noisy": float(target), "tol_noiseless": 1e-9, "tol_noisy": 0.02}


@_criterion(3, "long-memory generators land in gamma 0.4..0.6 over 5 seeds")
def criterion_03_long_memory_generators():
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
    return passed, out


@_criterion(4, "matched kernel decay yields diffusive prices; controls break it")
def criterion_04_martingale_exponent():
    """Kernel decay beta=(1-gamma)/2 makes prices diffusive; flatter or
    steeper kernels visibly trend or mean-revert on the same flow."""
    tape = _reference_tape()
    d = est.diffusivity(tape, 256)
    ratios = d.values / d.values[0]
    ok_flat = np.all((ratios >= 0.7) & (ratios <= 1.4))
    r = np.diff(tape.prices)
    ac = est.normalized_autocorr(r, 32)[1:]
    bound = 3.0 / np.sqrt(r.size)
    del r  # freed before the controls are priced
    ok_white = np.max(np.abs(ac)) <= bound
    d0 = est.diffusivity(_priced_reference(0.0), 256)
    trend_ratio = float(d0.values[-1] / d0.values[0])
    d45 = est.diffusivity(_priced_reference(0.45), 256)
    revert_ratio = float(d45.values[-1] / d45.values[0])
    ok_controls = trend_ratio > 2.0 and revert_ratio < 0.7
    return ok_flat and ok_white and ok_controls, {
        "diffusivity_ratio_range": [float(ratios.min()), float(ratios.max())],
        "max_abs_return_autocorr": float(np.max(np.abs(ac))),
        "whiteness_bound": float(bound),
        "permanent_control_ratio": trend_ratio,
        "steep_control_ratio": revert_ratio}


@_criterion(5, "response matches its kernel decomposition and keeps a floor")
def criterion_05_response_decomposition():
    """Measured response matches the kernel/autocorrelation prediction and
    tends to a non-vanishing long-lag limit. Each point's SE is from batch
    means: the spread of the response over 32 contiguous, equal blocks of
    the reference tape, over sqrt(32); unlike the naive SE it allows for long memory."""
    tape = _reference_tape()
    chat = _reference_sign_autocorr()
    pred = est.predict_response(Kernel.power_law(0.25), chat, 1.0, 1.0, 1.0, max_lag=128)
    wide = est.response(tape, max_lag=512)
    batches, size = 32, tape.n // 32
    blocks = [est.response(TradeTape(SignSeries(tape.eps[a : a + size]),
                                     VolumeSeries(tape.v[a : a + size]),
                                     tape.prices[a : a + size + 1]), 128).values
              for a in range(0, batches * size, size)]
    se = np.std(blocks, axis=0, ddof=1) / np.sqrt(batches)
    dev = np.abs(wide.values[:128] - pred.values) / se
    ratio = wide.value_at(512) / wide.value_at(8)
    return np.all(dev <= 3.0) and 0.5 <= ratio <= 2.0, {
        "max_abs_dev_in_se": float(dev.max()), "band_se": 3.0, "r512_over_r8": ratio,
        "truncation_bound": float(pred.meta["truncation_bound"])}


@_criterion(6, "kernel inversion is exact on synthetic data, 0.2..0.3 on simulated")
def criterion_06_kernel_inversion():
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

    r_meas = est.response(_reference_tape(), max_lag=256)
    ghat, rep2 = est.invert_response(r_meas, _reference_sign_autocorr(), 1.0, 1.0, 1.0, 128)
    fit = est.fit_power_law((np.arange(1, 129, dtype=np.float64), ghat.values), (1, 64))
    return rel <= 1e-6 and 0.2 <= fit.exponent <= 0.3, {
        "exact_max_rel_err": rel, "exact_tol": 1e-6,
        "exact_residual": float(rep["residual_norm"]),
        "beta_hat": float(fit.exponent), "sim_condition": float(rep2["condition"])}


@_criterion(7, "surprise and implied-kernel models price identically")
def criterion_07_surprise_propagator_identity():
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

    exact = est.levinson_durbin(0.5 ** np.arange(1, 9, dtype=np.float64), 8)
    a = exact.coeffs
    rest = float(np.max(np.abs(a[1:])))
    return rel <= 1e-9 and abs(a[0] - 0.5) <= 1e-12 and rest <= 1e-12, {
        "max_rel_return_gap": rel, "tol": 1e-9, "a1": float(a[0]), "max_abs_rest": rest}


@_criterion(8, "expected trades impact 0.5 lam, surprising ones 1.5 lam")
def criterion_08_asymmetric_impact():
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
    return ok_exact and ok_noisy, {
        "max_dev_confirming": dev_conf, "max_dev_contrarian": dev_contra,
        "noisy_gap_in_se": gap_in_se,
        "mean_confirming": float(a.mean()), "mean_contrarian": float(b.mean())}


@_criterion(9, "concave impact exponent recovered; sqrt family fits")
def criterion_09_concavity_recovery():
    """Volume-conditioned response recovers the concavity exponent, and the
    square-root family fits it well."""
    n = 10**6
    cfg = ImpactConfig(lam=1.0, psi=0.5, kernel=Kernel.power_law(0.25))
    tape = _priced_tape(gen_iid_signs(n, 0.5, seed=11),
                        gen_volumes(n, "lognormal", seed=12, mu=0.0, sigma=1.0), cfg).drop(BURN)
    cond = est.conditional_response(tape, 1)
    centers = cond.centers
    fit = est.fit_power_law(cond, (float(centers[0]), float(centers[-1])))
    sigma1 = float(np.std(np.diff(tape.prices)))
    barra = est.fit_barra(cond, sigma1, float(np.mean(tape.v)))
    return 0.45 <= fit.exponent <= 0.55 and barra.r_squared > 0.9, {
        "psi_hat": float(fit.exponent), "band": [0.45, 0.55],
        "barra_r2": float(barra.r_squared), "barra_amplitude": float(barra.A),
        "n_bins_kept": int(cond.values.size)}


@_criterion(10, "spread is 2 lam v^psi and volatility per trade tracks it")
def criterion_10_spread_duality():
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
    return ok_exact and stability <= 0.05, {
        "spread_values": [float(q1.spread), float(q2.spread)],
        "kappas": [float(k) for k in kappas], "max_rel_spread_of_kappa": stability,
        "tol": 0.05}


@_criterion(11, "no round-trip profit on/above the diagonal; concave permanent leaks")
def criterion_11_manipulation_frontier():
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
        refused, default_budget = False, None
    except SearchBudgetError as exc:
        refused, default_budget = True, exc.budget
    details: dict = {"candidates": int(n_candidates), "default_budget": default_budget,
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
    nine_cost = strategy_cost(nine, Kernel.permanent(), 1.0, 0.5)
    passed = (
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
         "nine_buy_cost": nine_cost,
         "argmin_concave": None if s_conc is None else list(s_conc.trades)}
    )
    return passed, details


@_criterion(12, "self-similar family collapses at delta=0.3, not at 0")
def criterion_12_master_curve_collapse():
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
        stocks.append((m_cap, vbar, ConditionalResponse(edges[:-1], edges[1:], values, counts)))
    good = est.master_curve_rescale(stocks, delta=delta)
    bad = est.master_curve_rescale(stocks, delta=0.0)
    return good < 1e-9 and bad > 0.5, {"metric_at_delta": good, "metric_at_zero": bad}


@_criterion(13, "byte-identical reruns and lossless round-trips")
def criterion_13_determinism_round_trips():
    """Identical configs give byte-identical outputs; every file format
    round-trips losslessly."""
    import filecmp

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

        def reads_back(path, read, original, *fields) -> bool:
            # the values read back against the originals: a writer that drops
            # digits would still rewrite its own output byte for byte
            back = read(path)
            return all(np.array_equal(getattr(back, f), getattr(original, f)) for f in fields)

        details["tape_round_trip"] = reads_back(os.path.join(runs[0], files["tape"]),
                                                iolib.read_tape, tape, "eps", "v", "prices")
        curve = est.response(tape, max_lag=16)
        cpath = os.path.join(tmp, "curve.csv")
        iolib.write_curve(curve, cpath)
        details["curve_round_trip"] = reads_back(cpath, lambda p: iolib.read_curve(p, "response"),
                                                 curve, "lags", "values", "counts", "se")
        kern = Kernel.tabulated(np.arange(1, 9, dtype=np.float64) ** -0.3)
        kpath = os.path.join(tmp, "kernel.csv")
        iolib.write_kernel(kern, kpath)
        details["kernel_round_trip"] = reads_back(kpath, lambda p: iolib.read_kernel(p)[0],
                                                  kern, "values")

        d = cfg.to_dict()
        jpath = os.path.join(tmp, "config.json")
        iolib.write_json(d, jpath)
        cfg2 = ExperimentConfig.from_dict(iolib.read_json(jpath))
        details["config_round_trip"] = bool(cfg2.to_dict() == d)

    return all(details.values()), details


# the criteria that read the lru-cached reference signs, tapes and sign
# autocorrelation, and criterion 3 the eigenvalues of the reference process:
# one worker runs them, so each is built once
_SHARED_REFERENCE = (3, 4, 5, 6)


def _check_criteria(numbers) -> list:
    """The criterion numbers as a list; each must be one of ALL_CRITERIA, and
    named once: a repeat would run a criterion twice."""
    numbers = list(numbers)
    unknown = [n for n in numbers if n not in ALL_CRITERIA]
    ensure(not unknown, f"unknown criteria {unknown}: valid numbers are "
                        f"{min(ALL_CRITERIA)}..{max(ALL_CRITERIA)}")
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
