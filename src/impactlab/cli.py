"""Command-line surface: simulate / measure / invert / manip / report.

Every command is a pure function of its config and input files: outputs are
written atomically and reruns are byte-identical. Exit codes: 0 success,
1 usage or config error, 2 input-format error, 3 estimation or numeric
error (including search-budget refusals and partial measure success),
4 acceptance-criteria failure.

Flag precedence: built-in defaults, then command-line flags, then --config
(the config file overrides flags section by section). --out-dir falls back
to $IMPACTLAB_OUT_DIR, then the working directory.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import estimators as est
from . import io as iolib
from ._version import __version__
from .exceptions import (
    EstimationError,
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    SearchBudgetError,
)
from .experiment import (
    ExperimentConfig,
    expand_seeds,
    invert as run_invert,
    manip_frontier,
    measure as run_measure,
    provenance,
    simulate as run_simulate,
)

ENV_OUT_DIR = "IMPACTLAB_OUT_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _parse_seed(text: str):
    try:
        if ":" in text:
            first, last = text.split(":", 1)
            return [int(first), int(last)]
        return int(text)
    except ValueError:
        raise _UsageError(f"bad --seed '{text}': use an int or first:last") from None


def _parse_floats(text: str, flag: str):
    try:
        return [float(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise _UsageError(f"bad {flag} '{text}': comma-separated numbers") from None


def _resolve_out_dir(args, config: ExperimentConfig | None = None) -> str:
    if getattr(args, "out_dir", None):
        out = args.out_dir
    elif config is not None and config.out_dir:
        out = config.out_dir
    else:
        out = os.environ.get(ENV_OUT_DIR, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _add_universal(p: argparse.ArgumentParser):
    p.add_argument("--seed", default=None,
                   help="seed as an int, or first:last for an inclusive range")
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default ${ENV_OUT_DIR} or '.')")


def _section_from_flags(pairs) -> dict:
    return {k: v for k, v in pairs if v is not None}


def _config_from_args(args) -> ExperimentConfig:
    """Defaults < flags < config file, section by section."""
    gen_kind = args.generator or "iid"
    gen = {"kind": gen_kind}
    gen.update(_section_from_flags([
        ("p_buy", args.p_buy), ("gamma", args.gamma), ("completion", args.completion),
        ("alpha", args.alpha), ("fixed_length", args.fixed_length), ("c1", args.c1),
    ]))
    if gen_kind == "iid":
        gen.setdefault("p_buy", 0.5)  # symmetric flow is the iid default
    vol_dist = args.vol_dist or "constant"
    vol = {"dist": vol_dist}
    vol.update(_section_from_flags([
        ("value", args.vol_value), ("mu", args.vol_mu), ("sigma", args.vol_sigma),
        ("x_min", args.vol_xmin), ("tail", args.vol_tail),
    ]))
    model_kind = args.model or "kyle"
    model = {"kind": model_kind}
    model.update(_section_from_flags([
        ("lam", args.lam), ("psi", args.psi),
        ("noise_sigma", args.noise_sigma), ("p0", args.p0),
    ]))
    kern = _section_from_flags([
        ("beta", args.beta), ("g1", args.g1), ("plateau", args.plateau)])
    if kern:
        kern.setdefault("beta", 0.0)
        kern["form"] = "power_law"
        model["kernel"] = kern
    if args.ar_coeffs is not None:
        model["predictor"] = {"coeffs": _parse_floats(args.ar_coeffs, "--ar-coeffs")}
    d = {"generator": gen, "volumes": vol, "model": model}
    if args.n is not None:
        d["n"] = args.n
    if args.seed is not None:
        d["seed"] = _parse_seed(args.seed)
    if args.config:
        file_cfg = iolib.read_json(args.config)
        if not file_cfg:
            raise ParameterError("empty config")
        d.update(file_cfg)
    return ExperimentConfig.from_dict(d)


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    out = _resolve_out_dir(args, cfg)
    print(json.dumps({"effective_config": cfg.to_dict()}, sort_keys=True))
    seeds = expand_seeds(cfg.seed)
    files = {}
    for s in seeds:
        tape, meta = run_simulate(cfg, s)
        tape_path = os.path.join(out, f"tape_seed{s}.csv")
        meta_path = os.path.join(out, f"meta_seed{s}.json")
        iolib.write_tape(tape, tape_path)
        iolib.write_json(_jsonable(meta), meta_path)
        files[str(s)] = {"tape": tape_path, "meta": meta_path}
        print(f"simulate: seed {s}: {tape.n} trades, burn {meta['burn']}, "
              f"wrote {tape_path}")
    if len(seeds) > 1:
        summary = {"seeds": seeds, "files": files, "provenance": provenance(cfg)}
        iolib.write_json(summary, os.path.join(out, "simulate_summary.json"))
    return 0


def _write_measure_outputs(results, errors, stem: str, out: str, extra: dict):
    files = {}
    for name in ("response", "sign_autocorr", "diffusivity"):
        if name in results:
            path = os.path.join(out, f"{stem}_{name}.csv")
            iolib.write_curve(results[name], path)
            files[name] = path
    if "conditional" in results:
        path = os.path.join(out, f"{stem}_conditional.csv")
        iolib.write_conditional(results["conditional"], path)
        files["conditional"] = path
    fits = dict(results.get("fits", {}))
    fits.update(extra)
    if "notes" in results:
        fits["notes"] = results["notes"]
    fits["errors"] = errors
    fits_path = os.path.join(out, f"{stem}_fits.json")
    iolib.write_json(_jsonable(fits), fits_path)
    files["fits"] = fits_path
    return files


def cmd_measure(args) -> int:
    tape = iolib.read_tape(args.tape)
    spec = _section_from_flags([
        ("max_lag", args.max_lag), ("sign_max_lag", args.sign_max_lag),
        ("rho_window", args.rho_window), ("rho_psi_weight", args.rho_psi_weight),
        ("cond_lag", args.cond_lag), ("n_bins", args.n_bins),
        ("min_count", args.min_count),
    ])
    results, errors = run_measure(tape, spec, burn=args.burn)
    out = _resolve_out_dir(args)
    stem = os.path.splitext(os.path.basename(args.tape))[0]
    files = _write_measure_outputs(results, errors, stem, out,
                                   {"input": args.tape, "burn": args.burn})
    for name, msg in errors.items():
        print(f"measure: {name}: {msg}", file=sys.stderr)
    print(f"measure: wrote {len(files)} files under {out}")
    return 3 if errors else 0


def cmd_invert(args) -> int:
    r = iolib.read_curve(args.response, "response")
    c = iolib.read_curve(args.autocorr, "sign_autocorr")
    # by default the tail sum runs as far as the autocorrelation file reaches
    j_tail = min(4096, int(c.lags[-1])) if args.j_tail is None else args.j_tail
    kern, rep = run_invert(r, c, args.lam, args.psi, args.v,
                           args.kernel_lags, j_tail=j_tail, ridge=args.ridge)
    out = _resolve_out_dir(args)
    se = rep.pop("se_proxy", None)
    kernel_path = os.path.join(out, "kernel.csv")
    iolib.write_kernel(kern, kernel_path, se_proxy=se)
    try:
        lags = np.arange(1, kern.values.size + 1, dtype=np.float64)
        fit = est.fit_power_law((lags, kern.values), (1, min(64, kern.values.size)))
        rep["beta_hat"] = fit.exponent
        rep["beta_hat_se"] = fit.exponent_se
    except EstimationError as exc:
        rep["beta_hat_error"] = str(exc)
    rep["inputs"] = {"response": args.response, "autocorr": args.autocorr}
    rep["version"] = __version__
    report_path = os.path.join(out, "invert_report.json")
    iolib.write_json(_jsonable(rep), report_path)
    print(f"invert: residual {rep['residual_norm']:.6g}, "
          f"condition {rep['condition']:.6g}, wrote {kernel_path}")
    if rep.get("ill_conditioned"):
        print(f"invert: {rep['note']}", file=sys.stderr)
    return 0


def cmd_manip(args) -> int:
    betas = _parse_floats(args.betas, "--betas")
    psis = _parse_floats(args.psis, "--psis")
    grid = _parse_floats(args.grid, "--grid")
    if not betas or not psis or not grid:
        raise _UsageError("--betas, --psis and --grid must be non-empty")
    rows = manip_frontier(betas, psis, max_len=args.max_len, volume_grid=grid,
                          lam=args.lam, budget=int(args.budget),
                          own_impact=args.own_impact)
    out = _resolve_out_dir(args)
    frontier_path = os.path.join(out, "frontier.csv")
    iolib.write_frontier(rows, frontier_path)
    report = {"rows": _jsonable(rows), "version": __version__,
              "max_len": args.max_len, "volume_grid": grid, "lam": args.lam,
              "own_impact": args.own_impact}
    iolib.write_json(report, os.path.join(out, "manip_report.json"))
    for r in rows:
        print(f"manip: beta={r['beta']:g} psi={r['psi']:g} "
              f"min_cost={r['min_cost']:.6g}")
    print(f"manip: wrote {frontier_path}")
    return 0


def _parse_criteria(text: str):
    from .acceptance import ALL_CRITERIA

    if text == "all":
        return sorted(ALL_CRITERIA)
    if text == "none":
        return []
    try:
        numbers = [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise _UsageError(f"bad --criteria '{text}': use all, none, or numbers") from None
    bad = [n for n in numbers if n not in ALL_CRITERIA]
    if bad:
        raise _UsageError(f"unknown criteria {bad}: valid numbers are 1..13")
    return numbers


def _pipeline(cfg: ExperimentConfig, out: str, bundle: dict) -> int:
    """simulate -> measure (per seed + pooled) -> invert -> manip.

    Returns the exit code contributed by stage failures (0 if clean);
    partial outputs are always retained.
    """
    rc = 0
    seeds = expand_seeds(cfg.seed)
    per_seed = {}
    tapes = {}
    for s in seeds:
        tape, meta = run_simulate(cfg, s)
        tapes[s] = tape
        tape_path = os.path.join(out, f"tape_seed{s}.csv")
        iolib.write_tape(tape, tape_path)
        iolib.write_json(_jsonable(meta), os.path.join(out, f"meta_seed{s}.json"))
        results, errors = run_measure(tape, cfg.estimator)
        files = _write_measure_outputs(results, errors, f"tape_seed{s}", out,
                                       {"seed": s})
        per_seed[s] = {"results": results, "errors": errors, "files": files}
        if errors:
            rc = 3
            for name, msg in errors.items():
                print(f"report: seed {s}: {name}: {msg}", file=sys.stderr)
    bundle["files"] = {str(s): d["files"] for s, d in per_seed.items()}
    bundle["measure_errors"] = {str(s): d["errors"] for s, d in per_seed.items()}

    fits_by_seed = {str(s): _jsonable(d["results"].get("fits", {}))
                    for s, d in per_seed.items()}
    bundle["fits"] = {"per_seed": fits_by_seed}

    pooled = {}
    if len(seeds) > 1:
        for name in ("response", "sign_autocorr", "diffusivity"):
            curves = [d["results"][name] for d in per_seed.values()
                      if name in d["results"]]
            if len(curves) == len(seeds):
                pooled[name] = est.pool_curves(curves)
                path = os.path.join(out, f"pooled_{name}.csv")
                iolib.write_curve(pooled[name], path)
                bundle["files"][f"pooled_{name}"] = path
        pooled_fits = {}
        if "sign_autocorr" in pooled:
            c = pooled["sign_autocorr"]
            try:
                f = est.fit_power_law(c, (8, min(512, int(c.lags[-1]))))
                pooled_fits["gamma_hat"] = {"exponent": f.exponent,
                                            "exponent_se": f.exponent_se,
                                            "r_squared": f.r_squared}
            except EstimationError as exc:
                pooled_fits["gamma_hat_error"] = str(exc)
        rhos = [d["results"]["rho"] for d in per_seed.values()
                if "rho" in d["results"]]
        if rhos:
            pooled_fits["rho_mean"] = float(np.mean(rhos))
            if len(rhos) > 1:
                pooled_fits["rho_se"] = float(np.std(rhos, ddof=1) / np.sqrt(len(rhos)))
        bundle["fits"]["pooled"] = _jsonable(pooled_fits)

    # inversion from the pooled curves when available, else the single seed
    source = pooled if pooled else per_seed[seeds[0]]["results"]
    if "response" in source and "sign_autocorr" in source:
        r_curve, c_curve = source["response"], source["sign_autocorr"]
        model_cfg = cfg.model
        invert_lags = min(int(cfg.estimator.get("invert_lags", 64)),
                          int(r_curve.lags[-1]))
        j_tail = min(int(cfg.estimator.get("j_tail", 4096)), int(c_curve.lags[-1]))
        v_ref = float(np.mean(tapes[seeds[0]].v))
        try:
            kern, rep = run_invert(
                r_curve, c_curve, float(model_cfg.get("lam", 1.0)),
                float(model_cfg.get("psi", 1.0)), v_ref, invert_lags, j_tail=j_tail)
            se = rep.pop("se_proxy", None)
            kernel_path = os.path.join(out, "kernel.csv")
            iolib.write_kernel(kern, kernel_path, se_proxy=se)
            bundle["files"]["kernel"] = kernel_path
            try:
                lags = np.arange(1, kern.values.size + 1, dtype=np.float64)
                f = est.fit_power_law((lags, kern.values),
                                      (1, min(64, kern.values.size)))
                rep["beta_hat"] = f.exponent
                rep["beta_hat_se"] = f.exponent_se
            except EstimationError as exc:
                rep["beta_hat_error"] = str(exc)
            bundle["invert"] = _jsonable({k: v for k, v in rep.items()})
        except (ParameterError, EstimationError, NumericError) as exc:
            bundle["invert"] = {"error": str(exc)}
            print(f"report: invert: {exc}", file=sys.stderr)
            rc = rc or 3

    if cfg.manip is not None:
        m = dict(cfg.manip)
        try:
            rows = manip_frontier(
                m.get("betas", [0.0, 0.5]), m.get("psis", [0.5, 1.0]),
                max_len=int(m.get("max_len", 8)),
                volume_grid=m.get("grid", [1.0, 2.0, 4.0, 8.0]),
                lam=float(m.get("lam", 1.0)), budget=int(m.get("budget", 10**7)),
                own_impact=m.get("own_impact", "full"))
            frontier_path = os.path.join(out, "frontier.csv")
            iolib.write_frontier(rows, frontier_path)
            bundle["files"]["frontier"] = frontier_path
            bundle["manip"] = _jsonable(rows)
        except (ParameterError, SearchBudgetError) as exc:
            bundle["manip"] = {"error": str(exc)}
            print(f"report: manip: {exc}", file=sys.stderr)
            rc = rc or 3
    return rc


def cmd_report(args) -> int:
    from .acceptance import run_criteria

    numbers = _parse_criteria(args.criteria)
    bundle: dict = {"provenance": {"version": __version__}}
    cfg = None
    if args.config:
        file_cfg = iolib.read_json(args.config)
        cfg = ExperimentConfig.from_dict(file_cfg)
        bundle["provenance"]["config_sha256"] = cfg.sha256()
        bundle["provenance"]["seeds"] = expand_seeds(cfg.seed)
    out = _resolve_out_dir(args, cfg)
    stage_rc = 0
    if cfg is not None:
        stage_rc = _pipeline(cfg, out, bundle)

    results = run_criteria(numbers)
    bundle["acceptance"] = [r.to_dict() for r in results]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number:2d}: {r.name}")
    n_fail = sum(not r.passed for r in results)
    report_path = os.path.join(out, "report.json")
    iolib.write_json(_jsonable(bundle), report_path)
    if numbers:
        print(f"report: {len(results) - n_fail}/{len(results)} criteria passed, "
              f"wrote {report_path}")
    else:
        print(f"report: wrote {report_path}")
    if n_fail:
        return 4
    return stage_rc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="impactlab",
                     description="Price-impact simulation and estimation laboratory")
    parser.add_argument("--version", action="version", version=f"impactlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sim = sub.add_parser("simulate", help="generate a priced trade tape")
    p_sim.add_argument("--config", default=None, help="JSON config file (overrides flags)")
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--generator", default=None,
                       choices=["iid", "clipped_fractional", "metaorder", "markov"])
    p_sim.add_argument("--p-buy", type=float, default=None)
    p_sim.add_argument("--gamma", type=float, default=None)
    p_sim.add_argument("--completion", default=None, choices=["martingale", "plain"])
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--fixed-length", type=int, default=None)
    p_sim.add_argument("--c1", type=float, default=None)
    p_sim.add_argument("--vol-dist", default=None,
                       choices=["constant", "lognormal", "pareto"])
    p_sim.add_argument("--vol-value", type=float, default=None)
    p_sim.add_argument("--vol-mu", type=float, default=None)
    p_sim.add_argument("--vol-sigma", type=float, default=None)
    p_sim.add_argument("--vol-xmin", type=float, default=None)
    p_sim.add_argument("--vol-tail", type=float, default=None)
    p_sim.add_argument("--model", default=None, choices=["kyle", "propagator", "surprise"])
    p_sim.add_argument("--lam", type=float, default=None)
    p_sim.add_argument("--psi", type=float, default=None)
    p_sim.add_argument("--noise-sigma", type=float, default=None)
    p_sim.add_argument("--p0", type=float, default=None)
    p_sim.add_argument("--beta", type=float, default=None)
    p_sim.add_argument("--g1", type=float, default=None)
    p_sim.add_argument("--plateau", type=float, default=None)
    p_sim.add_argument("--ar-coeffs", default=None,
                       help="comma-separated AR coefficients for the surprise model")
    _add_universal(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_meas = sub.add_parser("measure", help="estimate curves and fits from a tape")
    p_meas.add_argument("tape", help="tape CSV with prices")
    p_meas.add_argument("--max-lag", type=int, default=None)
    p_meas.add_argument("--sign-max-lag", type=int, default=None)
    p_meas.add_argument("--rho-window", type=int, default=None)
    p_meas.add_argument("--rho-psi-weight", type=float, default=None)
    p_meas.add_argument("--cond-lag", type=int, default=None)
    p_meas.add_argument("--n-bins", type=int, default=None)
    p_meas.add_argument("--min-count", type=int, default=None)
    p_meas.add_argument("--burn", type=int, default=0)
    _add_universal(p_meas)
    p_meas.set_defaults(func=cmd_measure)

    p_inv = sub.add_parser("invert", help="recover the impact kernel from curves")
    p_inv.add_argument("--response", required=True, help="response curve CSV")
    p_inv.add_argument("--autocorr", required=True, help="sign-autocorrelation CSV")
    p_inv.add_argument("--lam", type=float, default=1.0)
    p_inv.add_argument("--psi", type=float, default=1.0)
    p_inv.add_argument("--v", type=float, default=1.0,
                       help="reference volume scale of the tape")
    p_inv.add_argument("--kernel-lags", type=int, default=64,
                       help="number of kernel lags to solve for")
    p_inv.add_argument("--j-tail", type=int, default=None,
                       help="tail-sum length (default: min(4096, last autocorrelation lag))")
    p_inv.add_argument("--ridge", type=float, default=0.0)
    _add_universal(p_inv)
    p_inv.set_defaults(func=cmd_invert)

    p_man = sub.add_parser("manip", help="minimum round-trip cost over a (beta,psi) grid")
    p_man.add_argument("--betas", default="0,0.25,0.5,0.75,1")
    p_man.add_argument("--psis", default="0.25,0.5,0.75,1")
    p_man.add_argument("--max-len", type=int, default=8)
    p_man.add_argument("--grid", default="1,2,4,8", help="volume grid (positive values)")
    p_man.add_argument("--budget", type=float, default=10**7,
                       help="maximum number of canonical candidate strategies")
    p_man.add_argument("--lam", type=float, default=1.0)
    p_man.add_argument("--own-impact", default="full", choices=["full", "half"])
    _add_universal(p_man)
    p_man.set_defaults(func=cmd_manip)

    p_rep = sub.add_parser("report", help="run the pipeline and the acceptance table")
    p_rep.add_argument("--config", default=None,
                       help="JSON experiment config; omitted runs criteria only")
    p_rep.add_argument("--criteria", default="all",
                       help="all, none, or comma-separated criterion numbers")
    _add_universal(p_rep)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"impactlab: error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"impactlab: error: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, InputError) as exc:
        print(f"impactlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"impactlab: FormatError: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, NumericError, SearchBudgetError) as exc:
        print(f"impactlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # unreadable input or unwritable output directory
        print(f"impactlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
