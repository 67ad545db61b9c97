"""Command-line surface: simulate / measure / invert / manip / report.

Every command is a pure function of its config and input files: outputs are
written atomically, the first one creating the output directory, so a
command whose config or inputs are rejected leaves nothing behind; reruns
are byte-identical. Exit codes: 0 success, 1 usage or config error, 2
input-format error, 3 estimation or numeric error (including search-budget
refusals and partial measure success), 4 acceptance-criteria failure.

Each simulate, measure and manip flag is stored under its config key (its
dest is `section.key`, e.g. `model.lam`), and the defaults live only in
experiment.py: a setting no flag and no config gives takes the same default
whichever way a run starts. A --config file overrides the flags section by
section. Only simulate takes --seed: report runs its config's seeds, and
every stage, through experiment.run_config. --out-dir falls back to
$IMPACTLAB_OUT_DIR, then the working directory.
"""

import argparse
import json
import os
import sys

from . import io as iolib
from ._version import __version__
from .exceptions import (
    EstimationError,
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    SearchBudgetError,
    ensure,
)
from .experiment import (
    ExperimentConfig,
    expand_seeds,
    invert_stage,
    manip_stage,
    measure_stage,
    provenance,
    run_config,
    simulate_stage,
)

ENV_OUT_DIR = "IMPACTLAB_OUT_DIR"

# the exit code of each error category
_EXIT_CODES = {ParameterError: 1, InputError: 1, FormatError: 2,
               EstimationError: 3, NumericError: 3, SearchBudgetError: 3}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_seed(text: str):
    try:
        if ":" in text:
            first, last = text.split(":", 1)
            return [int(first), int(last)]
        return int(text)
    except ValueError:
        raise _UsageError(f"bad --seed '{text}': use an int or first:last") from None


def _float_list(text: str) -> list:
    """argparse type: one or more comma-separated numbers."""
    try:
        values = [float(t) for t in text.split(",") if t != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"'{text}' is not a list of comma-separated numbers")
    return values


def _resolve_out_dir(args, config: ExperimentConfig | None = None) -> str:
    return args.out_dir or (config and config.out_dir) or os.environ.get(ENV_OUT_DIR, ".")


def _add_universal(p: argparse.ArgumentParser):
    p.add_argument("--out-dir", help=f"output directory (default ${ENV_OUT_DIR} or '.')")


def _flag_sections(args) -> dict:
    """{section: {key: value}} of the flags given, from their `section.key`
    dests."""
    given = [(dest.split(".", 1), value) for dest, value in vars(args).items()
             if "." in dest and value is not None]
    return {section: {k: v for (sec, k), v in given if sec == section}
            for (section, _), _ in given}


def _config_from_args(args) -> ExperimentConfig:
    """The flags given, then the --config file over them section by section;
    ExperimentConfig fills in what neither sets, the same way for both."""
    d = _flag_sections(args)
    if "kernel" in d:
        d["model"] = {**d.get("model", {}), "kernel": {"form": "power_law", **d.pop("kernel")}}
    if "predictor" in d:
        d["model"] = {**d.get("model", {}), "predictor": d.pop("predictor")}
    if args.n is not None:
        d["n"] = args.n
    if args.seed is not None:
        d["seed"] = _parse_seed(args.seed)
    if args.config:
        file_cfg = iolib.read_json(args.config)
        ensure(len(file_cfg) > 0, "empty config")
        d.update(file_cfg)
    return ExperimentConfig.from_dict(d) if d else ExperimentConfig()


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    out = _resolve_out_dir(args, cfg)
    print(json.dumps({"effective_config": cfg.to_dict()}, sort_keys=True))
    seeds = expand_seeds(cfg.seed)
    files = {}
    for s in seeds:
        tape, meta, files[str(s)] = simulate_stage(cfg, s, out)
        print(f"simulate: seed {s}: {tape.n} trades, burn {meta['burn']}, "
              f"wrote {os.path.join(out, files[str(s)]['tape'])}")
    if len(seeds) > 1:
        summary = {"seeds": seeds, "files": files, "provenance": provenance(cfg)}
        iolib.write_json(summary, os.path.join(out, "simulate_summary.json"))
    return 0


def cmd_measure(args) -> int:
    tape = iolib.read_tape(args.tape)
    out = _resolve_out_dir(args)
    stem = os.path.splitext(os.path.basename(args.tape))[0]
    _, errors, files = measure_stage(
        tape, _flag_sections(args).get("estimator"), out, stem, burn=args.burn,
        extra={"input": os.path.relpath(args.tape, out), "burn": args.burn})
    for name, msg in errors.items():
        print(f"measure: {name}: {msg}", file=sys.stderr)
    print(f"measure: wrote {len(files)} files under {out}")
    return 3 if errors else 0


def cmd_invert(args) -> int:
    r = iolib.read_curve(args.response, "response")
    c = iolib.read_curve(args.autocorr, "sign_autocorr")
    out = _resolve_out_dir(args)
    rep, files = invert_stage(r, c, args.lam, args.psi, args.v, out, args.kernel_lags,
                              j_tail=args.j_tail, ridge=args.ridge)
    rep["inputs"] = {"response": os.path.relpath(args.response, out),
                     "autocorr": os.path.relpath(args.autocorr, out)}
    rep["provenance"] = provenance()
    iolib.write_json(rep, os.path.join(out, "invert_report.json"))
    print(f"invert: residual {rep['residual_norm']:.6g}, "
          f"condition {rep['condition']:.6g}, wrote {os.path.join(out, files['kernel'])}")
    if rep.get("ill_conditioned"):
        print(f"invert: {rep['note']}", file=sys.stderr)
    return 0


def cmd_manip(args) -> int:
    out = _resolve_out_dir(args)
    report, files = manip_stage(_flag_sections(args).get("manip"), out)
    report["provenance"] = provenance()
    iolib.write_json(report, os.path.join(out, "manip_report.json"))
    for r in report["rows"]:
        print(f"manip: beta={r['beta']:g} psi={r['psi']:g} "
              f"min_cost={r['min_cost']:.6g}")
    print(f"manip: wrote {os.path.join(out, files['frontier'])}")
    return 0


def _parse_criteria(text: str):
    from .acceptance import ALL_CRITERIA, _check_criteria

    if text == "all":
        return sorted(ALL_CRITERIA)
    if text == "none":
        return []
    try:
        return _check_criteria([int(t) for t in text.split(",") if t != ""])
    except ParameterError as exc:  # a ValueError too: caught first
        raise _UsageError(str(exc)) from None
    except ValueError:
        raise _UsageError(f"bad --criteria '{text}': use all, none, or numbers") from None


def cmd_report(args) -> int:
    """With --config, runs its stages first (experiment.run_config); a failing
    stage records its error in report.json and sets exit code 3, keeping the
    other outputs."""
    from .acceptance import run_criteria

    numbers = _parse_criteria(args.criteria)
    cfg = ExperimentConfig.from_dict(iolib.read_json(args.config)) if args.config else None
    out = _resolve_out_dir(args, cfg)
    bundle, messages = run_config(cfg, out) if cfg else ({"provenance": provenance()}, [])
    for msg in messages:
        print(f"report: {msg}", file=sys.stderr)
    results = run_criteria(numbers)
    bundle["acceptance"] = [r.to_dict() for r in results]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number:2d}: {r.name}")
    n_fail = sum(not r.passed for r in results)
    report_path = os.path.join(out, "report.json")
    iolib.write_json(bundle, report_path)
    if numbers:
        print(f"report: {len(results) - n_fail}/{len(results)} criteria passed, "
              f"wrote {report_path}")
    else:
        print(f"report: wrote {report_path}")
    return 4 if n_fail else 3 if messages else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="impactlab",
                     description="Price-impact simulation and estimation laboratory")
    parser.add_argument("--version", action="version", version=f"impactlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sim = sub.add_parser("simulate", help="generate a priced trade tape")
    p_sim.add_argument("--config", help="JSON config file (overrides flags)")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--generator", dest="generator.kind",
                       choices=["iid", "clipped_fractional", "metaorder", "markov"])
    p_sim.add_argument("--p-buy", dest="generator.p_buy", type=float)
    p_sim.add_argument("--gamma", dest="generator.gamma", type=float)
    p_sim.add_argument("--completion", dest="generator.completion",
                       choices=["martingale", "plain"])
    p_sim.add_argument("--alpha", dest="generator.alpha", type=float)
    p_sim.add_argument("--fixed-length", dest="generator.fixed_length", type=int)
    p_sim.add_argument("--c1", dest="generator.c1", type=float)
    p_sim.add_argument("--vol-dist", dest="volumes.dist",
                       choices=["constant", "lognormal", "pareto"])
    p_sim.add_argument("--vol-value", dest="volumes.value", type=float)
    p_sim.add_argument("--vol-mu", dest="volumes.mu", type=float)
    p_sim.add_argument("--vol-sigma", dest="volumes.sigma", type=float)
    p_sim.add_argument("--vol-xmin", dest="volumes.x_min", type=float)
    p_sim.add_argument("--vol-tail", dest="volumes.tail", type=float)
    p_sim.add_argument("--model", dest="model.kind",
                       choices=["kyle", "propagator", "surprise"])
    p_sim.add_argument("--lam", dest="model.lam", type=float)
    p_sim.add_argument("--psi", dest="model.psi", type=float)
    p_sim.add_argument("--noise-sigma", dest="model.noise_sigma", type=float)
    p_sim.add_argument("--p0", dest="model.p0", type=float)
    p_sim.add_argument("--beta", dest="kernel.beta", type=float)
    p_sim.add_argument("--g1", dest="kernel.g1", type=float)
    p_sim.add_argument("--plateau", dest="kernel.plateau", type=float)
    p_sim.add_argument("--ar-coeffs", dest="predictor.coeffs", type=_float_list,
                       help="comma-separated AR coefficients for the surprise model")
    p_sim.add_argument("--seed", help="seed as an int, or first:last for an inclusive range")
    _add_universal(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_meas = sub.add_parser("measure", help="estimate curves and fits from a tape")
    p_meas.add_argument("tape", help="tape CSV with prices")
    p_meas.add_argument("--max-lag", dest="estimator.max_lag", type=int)
    p_meas.add_argument("--sign-max-lag", dest="estimator.sign_max_lag", type=int)
    p_meas.add_argument("--rho-window", dest="estimator.rho_window", type=int)
    p_meas.add_argument("--rho-psi-weight", dest="estimator.rho_psi_weight", type=float)
    p_meas.add_argument("--cond-lag", dest="estimator.cond_lag", type=int)
    p_meas.add_argument("--n-bins", dest="estimator.n_bins", type=int)
    p_meas.add_argument("--min-count", dest="estimator.min_count", type=int)
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
    p_inv.add_argument("--kernel-lags", type=int,
                       help="number of kernel lags to solve for (default: the last response lag)")
    p_inv.add_argument("--j-tail", type=int,
                       help="tail-sum length (default: min(4096, last autocorrelation lag))")
    p_inv.add_argument("--ridge", type=float, default=0.0)
    _add_universal(p_inv)
    p_inv.set_defaults(func=cmd_invert)

    p_man = sub.add_parser("manip", help="minimum round-trip cost over a (beta,psi) grid")
    p_man.add_argument("--betas", dest="manip.betas", type=_float_list)
    p_man.add_argument("--psis", dest="manip.psis", type=_float_list)
    p_man.add_argument("--max-len", dest="manip.max_len", type=int)
    p_man.add_argument("--grid", dest="manip.grid", type=_float_list,
                       help="volume grid (positive values)")
    p_man.add_argument("--budget", dest="manip.budget", type=float,
                       help="maximum number of canonical candidate strategies")
    p_man.add_argument("--lam", dest="manip.lam", type=float)
    p_man.add_argument("--own-impact", dest="manip.own_impact", choices=["full", "half"])
    _add_universal(p_man)
    p_man.set_defaults(func=cmd_manip)

    p_rep = sub.add_parser("report", help="run the pipeline and the acceptance table")
    p_rep.add_argument("--config",
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
        if getattr(args, "command", None) is None:
            parser.print_help()
            return 1
        return args.func(args)
    except _UsageError as exc:
        print(f"impactlab: error: {exc}", file=sys.stderr)
        return 1
    except tuple(_EXIT_CODES) as exc:
        print(f"impactlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    except OSError as exc:
        # unreadable input or unwritable output directory
        print(f"impactlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
