"""Market price-impact laboratory: order-flow generation with controlled
long memory, permanent/transient/surprise price formation, impact
estimators and kernel inversion, manipulation-cost search, and a
deterministic CLI."""

from ._version import __version__
from .exceptions import (
    EstimationError,
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    SearchBudgetError,
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
    latent_autocorr,
    sign_balance_zscore,
    target_sign_autocorr,
)
from .impact import (
    ArPredictor,
    ImpactConfig,
    Kernel,
    QuotePair,
    burn_in_length,
    impact_sizes,
    kernel_from_predictor,
    predictor_from_kernel,
    propagator_path,
    quote_series,
    quotes,
    surprise_path,
    vol_per_trade_to_per_time,
)
from .estimators import (
    BarraFit,
    CollapseResult,
    ConditionalResponse,
    LagCurve,
    PowerLawFit,
    conditional_response,
    diffusivity,
    fit_barra,
    fit_power_law,
    invert_response,
    levinson_durbin,
    master_curve_rescale,
    normalized_autocorr,
    pool_curves,
    predict_response,
    response,
    rho,
    sign_autocorr,
)
from .manipulation import (
    CostReport,
    Strategy,
    count_round_trips,
    gatheral_frontier,
    search_round_trips,
    strategy_cost,
)
from .experiment import (
    ExperimentConfig,
    expand_seeds,
    measure,
    provenance,
    simulate,
)
from .acceptance import ALL_CRITERIA, CriterionResult, run_criteria

__all__ = [
    "__version__",
    # exceptions
    "ParameterError", "InputError", "FormatError",
    "EstimationError", "NumericError", "SearchBudgetError",
    # order flow
    "SignSeries", "VolumeSeries", "TradeTape",
    "gen_iid_signs", "gen_clipped_fractional_signs", "gen_metaorder_signs",
    "gen_markov_signs", "gen_volumes",
    "latent_autocorr", "target_sign_autocorr", "sign_balance_zscore",
    # impact models
    "Kernel", "ArPredictor", "ImpactConfig", "QuotePair",
    "impact_sizes", "propagator_path", "surprise_path",
    "quotes", "quote_series", "vol_per_trade_to_per_time",
    "kernel_from_predictor", "predictor_from_kernel", "burn_in_length",
    # estimators
    "LagCurve", "ConditionalResponse", "PowerLawFit", "BarraFit",
    "CollapseResult",
    "response", "conditional_response", "rho", "sign_autocorr",
    "diffusivity", "normalized_autocorr", "fit_power_law",
    "predict_response", "invert_response", "levinson_durbin",
    "master_curve_rescale", "fit_barra", "pool_curves",
    # manipulation
    "Strategy", "CostReport", "strategy_cost", "count_round_trips",
    "search_round_trips", "gatheral_frontier",
    # experiments
    "ExperimentConfig", "expand_seeds", "simulate", "measure", "provenance",
    # acceptance
    "CriterionResult", "run_criteria", "ALL_CRITERIA",
]
