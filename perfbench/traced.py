"""In-process run of one workload's invocations through impactlab.cli.main.

    python3 perfbench/traced.py --workload W --seed N --out-dir D --result R

Every public function in each module's __all__ (for cli, every public
function), and each of the 13 acceptance criteria, is wrapped in a span
before the calls run. Names that other modules bound with
`from .x import y`, and the entries of ALL_CRITERIA, are rebound to the
wrappers, so those calls are traced too. Spans stay in memory and are
written to R with the timings when the run ends, together with the cost of
one span, timed on a wrapped no-op, from which run.py reports the tracing
overhead.
"""

import argparse
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

import workloads

LAYERS = ("orderflow", "impact", "io", "estimators", "manipulation", "experiment",
          "acceptance", "cli")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_hook(name: str):
    """Work counted at a span boundary, from the call's arguments and result."""
    func = name.split(".", 1)[1]
    if name.startswith("orderflow.gen_") and func.endswith("_signs"):
        return lambda a, k, out: {"orderflow.signs_generated": len(out.signs)}
    if func in ("kyle_path", "propagator_path", "surprise_path"):
        return lambda a, k, out: {"impact.trades_priced": _arg(a, k, 0, "tape").n}
    if name.startswith("io.write_"):
        return lambda a, k, out: {"io.bytes_written": _size(_arg(a, k, 1, "path"))}
    if name.startswith("io.read_"):
        return lambda a, k, out: {"io.bytes_read": _size(_arg(a, k, 0, "path"))}
    if name in ("estimators.response", "estimators.diffusivity",
                "estimators.sign_autocorr"):
        return lambda a, k, out: {"estimators.window_products": int(out.counts.sum())}
    if name == "manipulation.search_round_trips":
        return lambda a, k, out: {
            "manipulation.candidates": int(out[2].get("candidates", 0)),
            "manipulation.candidates_evaluated": int(out[2]["evaluated"])}
    if name == "cli.main":
        return lambda a, k, out: {"cli.invocations": 1}
    return None


class Tracer:
    """Spans as [name, start, end, parent index, exception name or None]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name: str, fn):
        hook = _count_hook(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, out).items():
                    counts[key] = counts.get(key, 0) + value
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap the public functions of every layer and rebind every name
        that refers to them, in every impactlab module."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"impactlab.{layer}")
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{n}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "impactlab" or mod_name.startswith("impactlab."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped and inspect.isfunction(value):
                        setattr(mod, attr, wrapped[id(value)])
        criteria = importlib.import_module("impactlab.acceptance").ALL_CRITERIA
        for number, fn in list(criteria.items()):
            criteria[number] = self.wrap(f"acceptance.c{number:02d}", fn)


def span_cost(calls: int = 100_000) -> float:
    """Seconds a span adds to one call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap("cli.noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, ((t1 - t0) - (perf_counter() - t1)) / calls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import impactlab.cli as cli  # the CLI's start-up cost, timed
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()  # rebinds cli.main too
    steps = workloads.steps(args.workload, args.seed, args.out_dir)
    rcs = {}
    epoch = perf_counter()
    for name, step_argv in steps:
        rcs[name] = cli.main(step_argv)
    calls_wall_s = perf_counter() - epoch
    result = {
        "import_s": import_s,
        "calls_wall_s": calls_wall_s,
        "rcs": rcs,
        "counts": tracer.counts,
        "span_cost_s": span_cost(),
        "epoch": epoch,
        "spans": tracer.spans,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
