"""Experiment configuration and the stages behind the CLI.

An ExperimentConfig bundles order-flow generation, the impact model, and
estimator settings into one JSON-serializable object, checked when built.
simulate and measure work in memory. Each *_stage function is the one
implementation of a step that its subcommand and `report` both run: it
writes its files under an output directory and returns its result with
their names, relative to that directory; run_config runs them for a config,
each seed's simulate and measure in a forked worker process where it can.
_fork_map is that map of items over forked workers, in order, and
acceptance.run_criteria maps its criteria through it too.

A stage fails one way: _attempt records the message of an error in
_STAGE_ERRORS in the stage's `errors` map and the run goes on; any other stops
it. run_config gathers the maps into report.json's. _fit records every fit,
and _fit_or_note adds it, its error or the note of a skipped one.

Provenance is the package and library versions plus the config hash and
seed; no timestamps, so reruns are byte-identical.
"""

import contextlib
import dataclasses
import functools
import os
import platform
from dataclasses import asdict, dataclass, field

import numpy as np

from . import io as iolib
from ._version import __version__
from .exceptions import (EstimationError, InputError, NumericError, ParameterError,
                         SearchBudgetError, ensure)
from .impact import (
    ArPredictor,
    ImpactConfig,
    Kernel,
    burn_in_length,
    propagator_path,
    surprise_path,
)
from .orderflow import (
    TradeTape,
    gen_clipped_fractional_signs,
    gen_iid_signs,
    gen_markov_signs,
    gen_metaorder_signs,
    gen_volumes,
    _embedding_eigenvalues,
    _whitening_grid,
)
from .manipulation import _check_search, gatheral_frontier
from . import estimators as est

__all__ = [
    "ExperimentConfig",
    "expand_seeds",
    "simulate",
    "measure",
    "simulate_stage",
    "measure_stage",
    "pool_stage",
    "invert_stage",
    "manip_stage",
    "run_config",
    "provenance",
    "kernel_from_spec",
]

# Offsets deriving independent RNG streams from one experiment seed. Signs
# use the seed itself; volumes and price noise must not share its stream.
_VOLUME_SEED_OFFSET = 1_000_003
_NOISE_SEED_OFFSET = 2_000_003


def _default_generator():
    return {"kind": "iid", "p_buy": 0.5}


def _default_volumes():
    return {"dist": "constant"}


def _default_model():
    return {"kind": "kyle"}


def _default_estimator():
    return {
        "max_lag": 256,
        "sign_max_lag": 512,
        "rho_window": 16,
        "rho_psi_weight": 1.0,
        "cond_lag": 1,
        "n_bins": 12,
        "min_count": 50,
    }


def _default_manip():
    return {
        "betas": [0.0, 0.25, 0.5, 0.75, 1.0],
        "psis": [0.25, 0.5, 0.75, 1.0],
        "max_len": 8,
        "grid": [1.0, 2.0, 4.0, 8.0],
        "budget": 10**7,
        "lam": 1.0,
        "own_impact": "full",
    }


# Each integer setting of a section and its least value: settings must hold
# exact integers, as 300.7 trades or lags would otherwise be truncated
# silently. A max_lag at or past the tape's length is the estimators' to
# refuse, as it depends on the data. invert_lags and j_tail have no default:
# invert_stage reads them, not measure.
_ESTIMATOR_INTS = {"max_lag": 1, "sign_max_lag": 1, "rho_window": 1, "cond_lag": 1,
                   "n_bins": 1, "min_count": 1, "invert_lags": 1, "j_tail": 0}
_MANIP_INTS = {"max_len": 0, "budget": 0}

# sections that name a kind: (default, the key naming it)
_KINDED_SECTIONS = {
    "generator": (_default_generator, "kind"),
    "volumes": (_default_volumes, "dist"),
    "model": (_default_model, "kind"),
}


def _check_keys(what: str, spec: dict, allowed, required=()) -> None:
    unknown, missing = set(spec) - set(allowed), set(required) - set(spec)
    ensure(not unknown, f"unknown keys for {what}: {sorted(unknown)}")
    ensure(not missing, f"{what} needs {sorted(missing)}")


def _is_number(x) -> bool:
    """True for an int or a float; a bool is not a number here."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    """True for an int, or a float holding an exact integer (1e7)."""
    return _is_number(x) and float(x).is_integer()


# The rule for every value of a config section but its integer settings: one
# under _NAME_KEYS is text, one under _SPEC_KEYS an object, checked by the same
# rule, or null (no spec), and any other a number, or under _LIST_KEYS a list of
# numbers too. A bool, text or null is not a number.
_NAME_KEYS = {"kind", "dist", "completion", "form", "own_impact"}
_SPEC_KEYS = {"kernel", "predictor"}
_LIST_KEYS = {"values", "coeffs", "betas", "psis", "grid"}


def _as_floats(what: str, section: dict, ints=()) -> dict:
    """`section`, each value but the integer settings `ints` checked, with each number a
    float, so a float setting spelled 2 is stored, and hashes, as 2.0."""
    out = {}
    for key, value in section.items():
        if key in _NAME_KEYS:
            ensure(isinstance(value, str), f"{what}: '{key}' must be text, got {value!r}")
        elif key in _SPEC_KEYS:
            ensure(value is None or isinstance(value, dict),
                   f"{what}: '{key}' must be an object or null, got {value!r}")
            value = value if value is None else _as_floats(f"{what}: '{key}'", value)
        elif key not in ints:
            many = key in _LIST_KEYS and isinstance(value, (list, tuple))
            ensure(all(map(_is_number, value)) if many else _is_number(value),
                   f"{what}: '{key}' must be {'numbers' if many else 'a number'}, got {value!r}")
            value = [float(v) for v in value] if many else float(value)
        out[key] = value
    return out


def _over_defaults(what: str, defaults: dict, spec: dict | None, ints: dict) -> dict:
    """`defaults` updated by `spec`, whose keys must be among those of the
    defaults and `ints`, and whose other values pass _as_floats. Each key of
    `ints` must hold an exact integer, no less than its least value, and is
    stored as an int, so 256.0 and 1e7 hash as 256 and 10000000; one without
    a default may also be None, which stands for its absence."""
    out = {**defaults, **(spec or {})}
    _check_keys(what, out, set(defaults) | set(ints))
    out = _as_floats(what, out, ints)
    for key, least in ints.items():
        value = out.get(key)
        if value is None and key not in defaults:
            continue
        ensure(_is_integer(value), f"{what}: '{key}' must be an integer, got {value!r}")
        ensure(value >= least, f"{what}: '{key}' must be >= {least}, got {value!r}")
        out[key] = int(value)
    return out


def _estimator_spec(what: str, spec: dict | None) -> dict:
    """The estimator settings: `spec` over the defaults, each in its range."""
    s = _over_defaults(what, _default_estimator(), spec, _ESTIMATOR_INTS)
    ensure(np.isfinite(s["rho_psi_weight"]),
           f"{what}: 'rho_psi_weight' must be a finite number, got {s['rho_psi_weight']!r}")
    return s


def _manip_spec(what: str, spec: dict | None) -> dict:
    """The frontier settings: `spec` over the defaults, each value one that the
    kernel and the search accept, so no frontier is refused after its tapes."""
    m = _over_defaults(what, _default_manip(), spec, _MANIP_INTS)
    for key in ("betas", "psis", "grid"):
        ensure(isinstance(m[key], list), f"{what}: '{key}' must be a list, got {m[key]!r}")
    for beta in m["betas"]:
        Kernel.power_law(beta)
    for psi in m["psis"]:
        _check_search(m["lam"], psi, m["own_impact"], m["max_len"], m["grid"])
    return m


@dataclass
class ExperimentConfig:
    """Everything a run needs; round-trips losslessly through JSON. Building
    one checks every section and resolves the model into `impact` and `predictor`."""

    n: int = 100_000
    seed: object = 1  # int, or [first, last] inclusive for a seed range
    generator: dict = field(default_factory=_default_generator)
    volumes: dict = field(default_factory=_default_volumes)
    model: dict = field(default_factory=_default_model)
    estimator: dict = field(default_factory=_default_estimator)
    manip: dict | None = None  # optional frontier stage for `report`, over _default_manip()

    def __post_init__(self):
        ensure(_is_integer(self.n) and self.n >= 1, f"n must be a positive integer, got {self.n!r}")
        self.n = int(self.n)
        expand_seeds(self.seed)  # validates shape
        for name in ("generator", "volumes", "model", "estimator", "manip"):
            section = getattr(self, name)
            ensure(isinstance(section, dict) or (name == "manip" and section is None),
                   f"config section '{name}' must be an object")
        # a section that names no other kind fills its gaps from the default
        for name, (default, tag) in _KINDED_SECTIONS.items():
            base, section = default(), getattr(self, name)
            if section.get(tag, base[tag]) == base[tag]:
                section = {**base, **section}
            setattr(self, name, _as_floats(f"section '{name}'", section))
        # stored resolved, so a config hashes the same however many defaults
        # it spells out, and a mistyped key cannot run at its default unnoticed;
        # every number but an integer setting is stored as a float
        self.estimator = _estimator_spec("section 'estimator'", self.estimator)
        if self.manip is not None:
            self.manip = _manip_spec("section 'manip'", self.manip)
        # the resolved model: attributes, not fields, so to_dict() and the hash skip them
        self.impact, self.predictor = _build_model(self.model)
        _draw(self, 1, 0)  # the generators check their own parameters, on one trade

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        ensure(len(d) > 0, "empty config")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        ensure(not unknown, f"unknown config keys: {sorted(unknown)}")
        # absent sections get the defaults and a section naming no other
        # kind is layered over its default, so to_dict() gives a config that
        # builds the same dict again
        return cls(**{k: d[k] for k in known if k in d})

    def sha256(self) -> str:
        return iolib.config_sha256(self.to_dict())


# the errors a run records and continues past, each a failed curve, fit,
# inversion or frontier; the CLI maps every one but ParameterError and
# InputError to exit 3, and report --config exits 3 on any it records
_STAGE_ERRORS = (ParameterError, InputError, EstimationError, NumericError, SearchBudgetError)


def _attempt(errors: dict, name: str, fn, *args):
    """fn(*args), or None with errors[name] = the message of a stage error."""
    try:
        return fn(*args)
    except _STAGE_ERRORS as exc:
        errors[name] = str(exc)


def _is_seed(s) -> bool:
    return isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 0


def expand_seeds(seed) -> list:
    """int -> [int]; [first, last] -> inclusive range; list -> as given.
    Seeds are non-negative ints, as numpy's generators require, and a list
    names each seed once: a repeat would run one tape twice."""
    if _is_seed(seed):
        return [int(seed)]
    if isinstance(seed, (list, tuple)) and seed and all(_is_seed(s) for s in seed):
        if len(seed) == 2:
            first, last = int(seed[0]), int(seed[1])
            ensure(first <= last, f"seed range [{first}, {last}] is empty")
            return list(range(first, last + 1))
        seeds = [int(s) for s in seed]
        ensure(len(set(seeds)) == len(seeds), f"seed list {seeds} repeats a seed")
        return seeds
    raise ParameterError(f"seed must be a non-negative int or [first, last], got {seed!r}")


def provenance(config: ExperimentConfig | None = None, seed: int | None = None) -> dict:
    """Package and library versions, since outputs are byte-identical only
    per version, plus the config hash and seed when given."""
    from importlib.metadata import PackageNotFoundError, version

    # no output depends on scipy; its installed version stays on record, read
    # from the metadata without importing it, or None where it is absent
    try:
        scipy = version("scipy")
    except PackageNotFoundError:
        scipy = None
    out = {"version": __version__, "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy}
    if config is not None:
        out["config_sha256"] = config.sha256()
    if seed is not None:
        out["seed"] = int(seed)
    return out


# keys of a kernel spec by form: (required, allowed)
_KERNEL_SPEC_KEYS = {
    "power_law": ({"beta"}, {"beta", "g1", "plateau"}),
    "tabulated": ({"values"}, {"values"}),
}


def kernel_from_spec(spec: dict) -> Kernel:
    """The Kernel a config's kernel spec names, checked by the config rule."""
    ensure(isinstance(spec, dict), f"kernel spec must be an object, got {spec!r}")
    d = _as_floats("kernel spec", spec)
    form = d.pop("form", None)
    ensure(form in _KERNEL_SPEC_KEYS, f"unknown kernel form {form!r}")
    required, allowed = _KERNEL_SPEC_KEYS[form]
    _check_keys(f"kernel form '{form}'", d, allowed, required)
    return Kernel(form=form, **d)


_GENERATORS = {
    "iid": gen_iid_signs,
    "clipped_fractional": gen_clipped_fractional_signs,
    "metaorder": gen_metaorder_signs,
    "markov": gen_markov_signs,
}

# the keys of a model section that set ImpactConfig fields (a key left out
# keeps the field's default), and those of a predictor spec
_IMPACT_KEYS = {f.name for f in dataclasses.fields(ImpactConfig)} - {"kernel"}
_PREDICTOR_KEYS = {"coeffs"}


def _draw(config: ExperimentConfig, n: int, seed: int) -> TradeTape:
    """n trades of the config's signs and volumes, each generator checking its parameters."""
    d = dict(config.generator)
    kind = d.pop("kind")
    ensure(kind in _GENERATORS, f"unknown generator kind {kind!r}")
    try:
        return TradeTape(_GENERATORS[kind](n, seed=seed, **d),
                         gen_volumes(n, seed=seed + _VOLUME_SEED_OFFSET, **config.volumes))
    except TypeError as exc:
        raise ParameterError(f"bad generator or volume parameters: {exc}") from None


def _drawn(config: ExperimentConfig):
    """(n + burn, the completion of its clipped-fractional signs or None): the
    trades simulate draws, and the process whose eigenvalues they share."""
    total = config.n + burn_in_length(kernel=config.impact.kernel, predictor=config.predictor)
    gen = config.generator
    return total, (gen.get("completion", "martingale")
                   if gen["kind"] == "clipped_fractional" else None)


def _build_model(model: dict):
    """Returns (ImpactConfig, predictor or None). A model without a kernel
    spec keeps ImpactConfig's flat kernel; a section with a kernel or
    predictor its engine ignores is an error."""
    d = dict(model)
    kind = d.pop("kind")
    ensure(kind in ("kyle", "propagator", "surprise"), f"unknown model kind {kind!r}")
    kernel_spec, predictor_spec = d.pop("kernel", None), d.pop("predictor", None)
    for key, spec, owner in (("kernel", kernel_spec, "propagator"),
                             ("predictor", predictor_spec, "surprise")):
        ensure(kind != owner or spec is not None, f"{owner} model needs a {key} spec")
        ensure(kind == owner or spec is None, f"{kind} model takes no {key} spec")
    kernel_kw = {} if kernel_spec is None else {"kernel": kernel_from_spec(kernel_spec)}
    predictor = None
    if predictor_spec is not None:
        _check_keys("predictor spec", predictor_spec, _PREDICTOR_KEYS, _PREDICTOR_KEYS)
        predictor = ArPredictor(predictor_spec["coeffs"])
    _check_keys("model", d, _IMPACT_KEYS)
    return ImpactConfig(**kernel_kw, **d), predictor


def simulate(config: ExperimentConfig, seed: int):
    """Generate n + burn trades, price them, and keep the last n.

    Returns (TradeTape with prices, meta dict). The discarded prefix length
    is recorded as meta['burn']; the emitted price array is aligned so
    prices[i] is the pre-trade price of emitted trade i. Clipped-fractional
    signs with the martingale completion also record the process they were
    drawn from: its whitening grid (truncation J = grid/2) and the size m
    of its circulant embedding.
    """
    total, completion = _drawn(config)
    burn = total - config.n
    full = _draw(config, total, seed)
    noise_seed = seed + _NOISE_SEED_OFFSET
    if config.predictor is not None:
        prices = surprise_path(full, config.predictor, config.impact, seed=noise_seed)
    else:
        prices = propagator_path(full, config.impact, seed=noise_seed)
    tape = TradeTape(full.signs, full.volumes, prices).drop(burn)
    meta = {
        "burn": burn,
        "n": config.n,
        "model": dict(config.model),
        "generator": dict(config.generator),
        "volumes": dict(config.volumes),
        "provenance": provenance(config, seed),
    }
    if completion == "martingale":
        meta.update(whitening_grid=_whitening_grid(total), embedding_size=2 * total)
    return tape, meta


def measure(tape: TradeTape, spec: dict | None = None, burn: int = 0):
    """All standard curves and fits from one priced tape: the sign
    autocorrelation over every trade, the other curves over tape.drop(burn).

    Returns (results dict, errors dict); results["estimator"] holds the
    settings used. Estimation failures are collected per curve; everything
    that can be computed still is.
    """
    s = _estimator_spec("estimator spec", spec)
    post = tape.drop(burn)
    curves = {"response": (est.response, post, s["max_lag"]),
              "sign_autocorr": (est.sign_autocorr, tape.signs, s["sign_max_lag"]),
              "diffusivity": (est.diffusivity, post, s["max_lag"]),
              "rho": (est.rho, post, s["rho_window"], s["rho_psi_weight"]),
              "conditional": (est.conditional_response, post, s["cond_lag"], s["n_bins"],
                              s["min_count"])}
    results, errors, fits = {}, {}, {}
    if post.n and post.v.min() == post.v.max():
        # constant volumes cannot be binned; a structural skip, not a failure
        del curves["conditional"]
        fits["notes"] = {"conditional": "skipped: constant volumes"}
    results.update((name, value) for name, call in curves.items()
                   if (value := _attempt(errors, name, *call)) is not None)
    _gamma_fit(results, fits, errors)
    if "conditional" in results:  # the psi fit on the bins above the last one <= 0
        cond = results["conditional"]
        top = cond.centers[np.max(np.flatnonzero(cond.values <= 0), initial=-1) + 1:]
        _fit_or_note(fits, errors, "psi", cond, top[[0, -1]].tolist() if top.size >= 4 else None,
                     f"{top.size} positive bins at the top of the curve, fewer than 4")
    if "diffusivity" in results:
        fits.update(_attempt(errors, "diffusion_ratio", _diffusion_ratio,
                             results["diffusivity"]) or {})
    if "rho" in results:
        fits["rho"] = float(results["rho"])
    results["fits"] = fits
    results["estimator"] = {key: s[key] for key in _default_estimator()}
    return results, errors


def _fit(key: str, curve, fit_range) -> dict:
    """{key: the power-law fit of curve over fit_range}, the one record of a fit."""
    return {key: asdict(est.fit_power_law(curve, fit_range))}


def _fit_or_note(fits: dict, errors: dict, name: str, curve, fit_range, why: str = ""):
    """Adds fits[name + "_hat"], the fit of curve over fit_range: a failed fit is
    errors[name + "_fit"], and no fit_range a note, fits["notes"][name + "_fit"]."""
    if fit_range is None:
        fits.setdefault("notes", {})[f"{name}_fit"] = f"skipped: {why}"
    else:
        fits.update(_attempt(errors, f"{name}_fit", _fit, f"{name}_hat", curve, fit_range) or {})


def _gamma_fit(curves: dict, fits: dict, errors: dict):
    """The gamma fit of curves["sign_autocorr"], if any, on lags 8..min(512, L), L the
    last lag before the first lag >= 8 where C <= 0; an L below 16 is skipped."""
    if "sign_autocorr" in curves:
        c = curves["sign_autocorr"]
        cut = c.lags[(c.lags >= 8) & (c.values <= 0)]
        last = int(cut[0]) - 1 if cut.size else int(c.lags[-1])  # its lags are consecutive
        _fit_or_note(fits, errors, "gamma", c, (8, min(512, last)) if last >= 16 else None,
                     f"C reaches <= 0 at lag {cut[0]}, so its positive tail ends before lag 16"
                     if cut.size else "the curve ends before lag 16")


def _diffusion_ratio(curve) -> dict:
    """D at the last lag over D(1), and its reading: near 1 for a random walk."""
    if curve.values[0] == 0:
        raise EstimationError("D(1) is 0: the prices never move")
    ratio = float(curve.values[-1] / curve.values[0])
    return {"diffusion_ratio": ratio, "diffusion_flag": "superdiffusive" if ratio > 2.0
            else "subdiffusive" if ratio < 0.5 else "diffusive"}


def simulate_stage(config: ExperimentConfig, seed: int, out: str):
    """simulate one seed and write its tape and meta JSON.
    Returns (tape, meta, files)."""
    tape, meta = simulate(config, seed)
    files = {"tape": f"tape_seed{seed}.csv", "meta": f"meta_seed{seed}.json"}
    iolib.write_tape(tape, os.path.join(out, files["tape"]))
    iolib.write_json(meta, os.path.join(out, files["meta"]))
    return tape, meta, files


def measure_stage(tape: TradeTape, spec: dict | None, out: str, source: str, burn: int = 0):
    """measure a tape and write each curve and the fits JSON, named by the
    stem of `source`, the tape file's path relative to `out`. The fits JSON
    also records `source` as "input", `burn`, the estimator settings used
    and the per-curve errors. Returns (results, errors, files)."""
    results, errors = measure(tape, spec, burn=burn)
    stem, files = os.path.splitext(os.path.basename(source))[0], {}
    for name in ("response", "sign_autocorr", "diffusivity", "conditional"):
        if name in results:
            files[name] = f"{stem}_{name}.csv"
            write = iolib.write_conditional if name == "conditional" else iolib.write_curve
            write(results[name], os.path.join(out, files[name]))
    files["fits"] = f"{stem}_fits.json"
    iolib.write_json({**results["fits"], "input": source, "burn": burn,
                      "estimator": results["estimator"], "errors": errors},
                     os.path.join(out, files["fits"]))
    return results, errors, files


def pool_stage(per_seed: list, out: str):
    """Pool each curve that every seed's measure results hold, write the
    pooled curves, fit the pooled sign autocorrelation and average rho.
    Returns (the pooled curves and their "fits", errors, files)."""
    pooled, fits, errors, files = {}, {}, {}, {}
    for name in ("response", "sign_autocorr", "diffusivity"):
        curves = [r[name] for r in per_seed if name in r]
        if len(curves) == len(per_seed):
            pooled[name] = est.pool_curves(curves)
            files[f"pooled_{name}"] = f"pooled_{name}.csv"
            iolib.write_curve(pooled[name], os.path.join(out, files[f"pooled_{name}"]))
    _gamma_fit(pooled, fits, errors)
    rhos = [r["rho"] for r in per_seed if "rho" in r]
    if rhos:
        fits["rho_mean"] = float(np.mean(rhos))
        if len(rhos) > 1:
            fits["rho_se"] = float(np.std(rhos, ddof=1) / np.sqrt(len(rhos)))
    pooled["fits"] = fits
    return pooled, errors, files


def invert_stage(response_curve, sign_curve, lam: float, psi: float, v: float, out: str,
                 n_kernel_lags: int | None = None, j_tail: int | None = None,
                 ridge: float = 0.0):
    """Recover the kernel table G(1..L) from a response and a sign
    autocorrelation, fit its decay exponent beta_hat on lags 1..min(64, L)
    and write kernel.csv. Returns (report, errors, files): a failed fit is
    errors["beta_fit"].

    L defaults to the last response lag: the inversion holds G flat past its
    table, so a shorter kernel misspecifies the fit. j_tail defaults to
    min(4096, last autocorrelation lag)."""
    j_tail = int(min(4096, sign_curve.lags[-1]) if j_tail is None else j_tail)
    n_lags = int(response_curve.lags[-1] if n_kernel_lags is None else n_kernel_lags)
    kern, rep = est.invert_response(response_curve, sign_curve, lam, psi, v, n_lags,
                                    j_tail=j_tail, ridge=ridge)
    files = {"kernel": "kernel.csv"}
    iolib.write_kernel(kern, os.path.join(out, files["kernel"]), se_proxy=rep.pop("se_proxy"))
    lags, errors = np.arange(1, kern.values.size + 1, dtype=np.float64), {}
    _fit_or_note(rep, errors, "beta", (lags, kern.values), (1, min(64, kern.values.size)))
    return rep, errors, files


def manip_stage(spec: dict, out: str):
    """The frontier of minimum round-trip costs over the (beta, psi) grid of
    `spec` layered over _default_manip(); writes frontier.csv.
    Returns ({rows, max_len, volume_grid, lam, own_impact}, files)."""
    m = _manip_spec("manip spec", spec)
    rows = gatheral_frontier(m["betas"], m["psis"], max_len=m["max_len"], volume_grid=m["grid"],
                             lam=m["lam"], budget=m["budget"], own_impact=m["own_impact"])
    files = {"frontier": "frontier.csv"}
    iolib.write_frontier(rows, os.path.join(out, files["frontier"]))
    return {"rows": rows, "max_len": m["max_len"], "volume_grid": m["grid"], "lam": m["lam"],
            "own_impact": m["own_impact"]}, files


def _seed_run(config: ExperimentConfig, seed: int, out: str):
    """simulate and measure one seed, writing its files. Returns (its tape's
    mean volume, measure results, errors, measure files)."""
    tape, _, files = simulate_stage(config, seed, out)
    return float(tape.v.mean()), *measure_stage(tape, config.estimator, out, files["tape"])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_sigterm(signum, frame):
    """Remove the temp files of the writes in progress and exit at once. An
    exception raised here could be swallowed (in a weakref callback, say),
    leaving the worker alive and the parent waiting for it."""
    try:
        for tmp in list(iolib._TEMP_FILES):
            with contextlib.suppress(FileNotFoundError):  # renamed or removed since
                os.unlink(tmp)
    finally:
        os._exit(1)


def _worker(run, items: list, conn):
    """A forked worker: runs its items in order, sending each result, or the
    error that stops it, down a pipe of its own. It shares no lock with the
    parent or another worker, so it can be terminated anywhere: SIGTERM
    removes its temp files and exits."""
    import signal

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        for item in items:
            conn.send(run(item))
    except Exception as exc:
        conn.send(exc)


def _fork_map(run, items: list, name) -> list:
    """run(item) of each item, in order. The items are dealt out in turn to
    forked workers, one per item up to the usable CPUs, or run here with one
    item, one CPU or no fork. An error is that of the first failing item, as
    run in order; the workers still running are then terminated. A worker
    that exits without a result is a ChildProcessError naming its item as
    name(item)."""
    workers = min(len(items), _usable_cpus())
    if workers > 1:
        import multiprocessing  # here, not at import: it would slow every command's start

        if "fork" in multiprocessing.get_all_start_methods():
            ctx, procs, conns, results = multiprocessing.get_context("fork"), [], [], []
            try:
                for w in range(workers):
                    conn, end = ctx.Pipe(duplex=False)
                    procs.append(ctx.Process(target=_worker, args=(run, items[w::workers], end)))
                    procs[-1].start()
                    conns.append(conn)
                    end.close()  # the worker holds the only copy: EOF once it exits
                for i, item in enumerate(items):
                    try:
                        results.append(conns[i % workers].recv())
                    except EOFError:
                        procs[i % workers].join()
                        raise ChildProcessError(f"the worker of {name(item)} exited with code "
                                                f"{procs[i % workers].exitcode}") from None
                    if isinstance(results[-1], Exception):
                        raise results[-1]
                return results
            except BaseException:
                for proc in procs:
                    proc.terminate()
                raise
            finally:
                for proc, conn in zip(procs, conns):
                    proc.join()
                    conn.close()
    return [run(item) for item in items]


def run_config(config: ExperimentConfig, out: str) -> dict:
    """The stages of `report --config` in order: simulate and measure each seed,
    pool across seeds, invert the pooled curves (one seed's, alone) at the model's
    lam and psi, then the manip frontier if configured. Returns the bundle, the
    one record of the run; its `errors` map holds each stage's errors in stage order."""
    seeds = expand_seeds(config.seed)
    # any clipped-fractional eigenvalues first, so the seed workers share
    # them copy-on-write instead of each whitening again
    total, completion = _drawn(config)
    if completion is not None:
        _embedding_eigenvalues(config.generator["gamma"], total, completion)
    mean_volumes, measured, seed_errors, files = zip(
        *_fork_map(functools.partial(_seed_run, config, out=out), seeds, "seed {}".format))
    keys = [str(s) for s in seeds]
    errors = {f"seed {s}: {name}": msg for s, errs in zip(seeds, seed_errors)
              for name, msg in errs.items()}
    bundle: dict = {"provenance": {**provenance(config), "seeds": seeds},
                    "files": dict(zip(keys, files)), "errors": errors,
                    "fits": {"per_seed": {k: r["fits"] for k, r in zip(keys, measured)}}}
    curves = measured[0]
    if len(seeds) > 1:
        pooled, pool_errors, pooled_files = pool_stage(measured, out)
        bundle["fits"]["pooled"] = pooled.pop("fits")
        errors.update((f"pooled: {name}", msg) for name, msg in pool_errors.items())
        bundle["files"].update(pooled_files)
        curves = pooled or curves
    if "response" in curves and "sign_autocorr" in curves:
        # the volume scale is the first tape's mean volume
        done = _attempt(errors, "invert", invert_stage, curves["response"],
                        curves["sign_autocorr"], config.impact.lam, config.impact.psi,
                        mean_volumes[0], out, config.estimator.get("invert_lags"),
                        config.estimator.get("j_tail"))
        if done is not None:
            bundle["invert"], invert_errors, invert_files = done
            errors.update((f"invert: {name}", msg) for name, msg in invert_errors.items())
            bundle["files"].update(invert_files)
    if config.manip is not None:
        done = _attempt(errors, "manip", manip_stage, config.manip, out)
        if done is not None:
            bundle["manip"] = done[0]["rows"]
            bundle["files"].update(done[1])
    return bundle
