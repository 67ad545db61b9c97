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
from .acceptance import ALL_CRITERIA, _check_criteria, run_criteria
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
    _default_estimator,
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


def _print_errors(command: str, errors: dict) -> int:
    """A stderr line per recorded error, in order; 3 when there is one, else 0."""
    for key, msg in errors.items():
        print(f"{command}: {key}: {msg}", file=sys.stderr)
    return 3 if errors else 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    print(json.dumps({"effective_config": cfg.to_dict()}, sort_keys=True))
    seeds = expand_seeds(cfg.seed)
    files = {}
    for s in seeds:
        tape, meta, files[str(s)] = simulate_stage(cfg, s, args.out_dir)
        print(f"simulate: seed {s}: {tape.n} trades, burn {meta['burn']}, "
              f"wrote {os.path.join(args.out_dir, files[str(s)]['tape'])}")
    if len(seeds) > 1:
        summary = {"seeds": seeds, "files": files, "provenance": provenance(cfg)}
        iolib.write_json(summary, os.path.join(args.out_dir, "simulate_summary.json"))
    return 0


def cmd_measure(args) -> int:
    tape = iolib.read_tape(args.tape)
    _, errors, files = measure_stage(tape, _flag_sections(args).get("estimator"), args.out_dir,
                                     os.path.relpath(args.tape, args.out_dir), burn=args.burn)
    print(f"measure: wrote {len(files)} files under {args.out_dir}")
    return _print_errors("measure", errors)


def cmd_invert(args) -> int:
    r = iolib.read_curve(args.response, "response")
    c = iolib.read_curve(args.autocorr, "sign_autocorr")
    rep, errors, files = invert_stage(r, c, args.lam, args.psi, args.v, args.out_dir,
                                      args.kernel_lags, j_tail=args.j_tail, ridge=args.ridge)
    rep.update(inputs={"response": os.path.relpath(args.response, args.out_dir),
                       "autocorr": os.path.relpath(args.autocorr, args.out_dir)},
               provenance=provenance(), errors=errors)
    iolib.write_json(rep, os.path.join(args.out_dir, "invert_report.json"))
    print(f"invert: residual {rep['residual_norm']:.6g}, "
          f"condition {rep['condition']:.6g}, wrote {os.path.join(args.out_dir, files['kernel'])}")
    if rep.get("ill_conditioned"):
        print(f"invert: {rep['note']}", file=sys.stderr)
    return _print_errors("invert", errors)


def cmd_manip(args) -> int:
    report, files = manip_stage(_flag_sections(args).get("manip"), args.out_dir)
    report["provenance"] = provenance()
    iolib.write_json(report, os.path.join(args.out_dir, "manip_report.json"))
    for r in report["rows"]:
        print(f"manip: beta={r['beta']:g} psi={r['psi']:g} "
              f"min_cost={r['min_cost']:.6g}")
    print(f"manip: wrote {os.path.join(args.out_dir, files['frontier'])}")
    return 0


def _parse_criteria(text: str):
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
    numbers = _parse_criteria(args.criteria)
    cfg = ExperimentConfig.from_dict(iolib.read_json(args.config)) if args.config else None
    bundle = run_config(cfg, args.out_dir) if cfg else {"provenance": provenance()}
    code = _print_errors("report", bundle.get("errors", {}))
    results = run_criteria(numbers)
    bundle["acceptance"] = [r.to_dict() for r in results]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number:2d}: {r.name}")
    n_fail = sum(not r.passed for r in results)
    report_path = os.path.join(args.out_dir, "report.json")
    iolib.write_json(bundle, report_path)
    if numbers:
        print(f"report: {len(results) - n_fail}/{len(results)} criteria passed, "
              f"wrote {report_path}")
    else:
        print(f"report: wrote {report_path}")
    return 4 if n_fail else code


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
    p_sim.set_defaults(func=cmd_simulate)

    p_meas = sub.add_parser("measure", help="estimate curves and fits from a tape")
    p_meas.add_argument("tape", help="tape CSV with prices")
    for key, default in _default_estimator().items():
        p_meas.add_argument("--" + key.replace("_", "-"), dest=f"estimator.{key}",
                            type=type(default))
    p_meas.add_argument("--burn", type=int, default=0)
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
    p_man.set_defaults(func=cmd_manip)

    p_rep = sub.add_parser("report", help="run the pipeline and the acceptance table")
    p_rep.add_argument("--config",
                       help="JSON experiment config; omitted runs criteria only")
    p_rep.add_argument("--criteria", default="all",
                       help="all, none, or comma-separated criterion numbers")
    p_rep.set_defaults(func=cmd_report)
    for p in sub.choices.values():
        p.add_argument("--out-dir", help=f"output directory (default ${ENV_OUT_DIR} or '.')")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help()
            return 1
        args.out_dir = args.out_dir or os.environ.get(ENV_OUT_DIR, ".")
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
