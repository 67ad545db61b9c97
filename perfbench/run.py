"""Benchmark of the impactlab CLI: one workload end to end, or per layer.

    python3 perfbench/run.py --workload pipeline|chain|acceptance|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The program runs from the working tree
(PYTHONPATH=src, nothing installed), one CLI process at a time, with
BLAS/OpenMP pinned to one thread. A run repeats whole rounds of the
workload until --seconds have passed (at least one round) and checks every
round's outputs with the benchmark's own code (checks.py).

--trace 0 prints the end-to-end metrics: wall_s, cpu_s, peak_rss_mb and
setup_s. --trace 1 runs the round once in-process with every layer traced
(traced.py), and prints the per-layer metrics with the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the checks' own numpy runs on one thread too, before numpy is first imported
os.environ.update(THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")
RECORDS = os.path.join(BENCH_DIR, "records", "runs.jsonl")

RUN_BUDGET_S = 170.0  # a run must end within 180 s
# setup_s is a median over at least this many start-ups; bare start-ups make
# up the count when a round has fewer invocations. More would push the
# benchmark's full series of runs past its time budget in slow host phases.
SETUP_SAMPLES = 5

# Imports the CLI the way the `impactlab` console script does, writes the
# wall-clock time at which it is ready to argv[1], then runs the command.
LAUNCH = (
    "import sys, time\n"
    "import impactlab.cli\n"
    "ready = time.time()\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(repr(ready))\n"
    "if len(sys.argv) > 2:\n"
    "    sys.exit(impactlab.cli.main(sys.argv[2:]))\n"
)

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

PER_LAYER = (
    [("orderflow.clipped_fractional_s", "s"), ("orderflow.metaorder_s", "s"),
     ("orderflow.other_s", "s"), ("orderflow.signs_generated", "count"),
     ("impact.path_s", "s"), ("impact.trades_priced", "count"),
     ("io.write_tape_s", "s"), ("io.read_tape_s", "s"), ("io.other_s", "s"),
     ("io.bytes_written", "bytes"), ("io.bytes_read", "bytes"),
     ("estimators.response_s", "s"), ("estimators.diffusivity_s", "s"),
     ("estimators.sign_autocorr_s", "s"), ("estimators.other_s", "s"),
     ("estimators.window_products", "count"),
     ("manipulation.search_s", "s"), ("manipulation.count_s", "s"),
     ("manipulation.candidates", "count"), ("manipulation.candidates_evaluated", "count"),
     ("manipulation.budget_refusals", "count"),
     ("experiment.self_s", "s")]
    + [(f"acceptance.c{n:02d}_s", "s") for n in range(1, 14)]
    + [("acceptance.self_s", "s"),
       ("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.invocations", "count"),
       ("trace.overhead_s", "s"), ("trace.span_cost_s", "s"), ("trace.spans", "count")]
)

# span name -> self-time metric, where it is not "<layer>.other_s"
SELF_TIME = {
    "orderflow.gen_clipped_fractional_signs": "orderflow.clipped_fractional_s",
    "orderflow.gen_metaorder_signs": "orderflow.metaorder_s",
    "io.write_tape": "io.write_tape_s",
    "io.read_tape": "io.read_tape_s",
    "estimators.response": "estimators.response_s",
    "estimators.diffusivity": "estimators.diffusivity_s",
    "estimators.sign_autocorr": "estimators.sign_autocorr_s",
    "manipulation.count_round_trips": "manipulation.count_s",
}
LAYER_SELF_TIME = {"impact": "impact.path_s", "manipulation": "manipulation.search_s",
                   "experiment": "experiment.self_s", "acceptance": "acceptance.self_s",
                   "cli": "cli.self_s"}


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "IMPACTLAB_OUT_DIR"}
    env.update(THREADS)
    env["PYTHONPATH"] = SRC
    return env


def spawn_wait(argv: list, log_path: str, deadline: float):
    """Run one process to its end. Returns (exit code, wall s, user s, system
    s, peak RSS in MB, wall-clock time at spawn); the process is killed at
    deadline."""
    with open(log_path, "wb") as log:
        spawned_at = time.time()
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime, usage.ru_stime,
            usage.ru_maxrss / 1024.0, spawned_at)


def invoke(cli_args: list, run_dir: str, name: str, deadline: float) -> dict:
    """One CLI invocation; setup_s is spawn to `import impactlab.cli` done."""
    ready_path = os.path.join(run_dir, f"{name}.ready")
    argv = [sys.executable, "-c", LAUNCH, ready_path] + cli_args
    rc, wall, user, system, rss, spawned_at = spawn_wait(
        argv, os.path.join(run_dir, f"{name}.log"), deadline)
    setup = None
    if os.path.exists(ready_path):
        with open(ready_path) as fh:
            setup = float(fh.read()) - spawned_at
        os.remove(ready_path)
    return {"name": name, "rc": rc, "wall_s": wall, "cpu_s": user + system,
            "sys_s": system, "rss_mb": rss, "setup_s": setup}


def count_ops(workload: str, rcs: dict, chk: checks.Checks):
    """Operations of one round and those that failed: one per invocation,
    one per criterion on acceptance."""
    bad = chk.failed_ops()
    if workload == "acceptance":
        crashed = rcs.get("report") not in (0, 4)
        ops = [f"c{n:02d}" for n in range(1, 14)]
        return ops, [op for op in ops if crashed or op in bad]
    return list(rcs), [op for op, rc in rcs.items() if rc != 0 or op in bad]


def check_outputs(workload: str, seed: int, out_dir: str, rcs: dict,
                  deadline: float) -> checks.Checks:
    """The round's checks, run in their own process (see checks.py)."""
    chk = checks.Checks()
    argv = [sys.executable, os.path.join(BENCH_DIR, "checks.py"), workload, str(seed),
            out_dir, json.dumps(rcs)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        chk.results = [("checks", "process", False, f"timed out after {exc.timeout:.0f} s")]
        return chk
    try:
        chk.results = [tuple(r) for r in json.loads(proc.stdout)]
    except ValueError:
        chk.results = [("checks", "process", False,
                        f"exit {proc.returncode}: {proc.stderr[-300:]}")]
    return chk


def print_round(workload: str, index: int, rcs: dict, chk: checks.Checks, failed: list,
                attempted: int, invocations=()):
    for inv in invocations:
        setup = "n/a" if inv["setup_s"] is None else f"{inv['setup_s']:.3f} s"
        print(f"  {workload} round {index}: {inv['name']}: exit {inv['rc']}, "
              f"wall {inv['wall_s']:.3f} s, cpu {inv['cpu_s']:.3f} s "
              f"(system {inv['sys_s']:.3f} s), "
              f"peak rss {inv['rss_mb']:.1f} MB, setup {setup}")
    if not invocations:
        print(f"  {workload} round {index}: exit codes {rcs}")
    for op, name, ok, detail in chk.results:
        print(f"  check {op}: {name}: {'ok' if ok else 'FAIL'}"
              + (f" ({detail})" if detail else ""))
    print(f"  operations: attempted {attempted}, failed {len(failed)}"
          + (f" ({', '.join(failed)})" if failed else ""))


def run_untraced(workload: str, seed: int, seconds: int, run_dir: str, deadline: float):
    n_steps = len(workloads.steps(workload, seed, run_dir))
    setups = []
    for i in range(max(0, SETUP_SAMPLES - n_steps)):
        setups.append(invoke([], run_dir, f"setup{i}", deadline)["setup_s"])
    walls, cpus, systems, rsss = [], [], [], []
    attempted, failed, correct = 0, 0, True
    start = perf_counter()
    while True:
        round_start = perf_counter()
        out = os.path.join(run_dir, f"round{len(walls)}")
        os.makedirs(out)
        invs = [invoke(argv, run_dir, name, deadline)
                for name, argv in workloads.steps(workload, seed, out)]
        rcs = {inv["name"]: inv["rc"] for inv in invs}
        chk = check_outputs(workload, seed, out, rcs, deadline)
        shutil.rmtree(out)
        ops, bad = count_ops(workload, rcs, chk)
        print_round(workload, len(walls), rcs, chk, bad, len(ops), invs)
        attempted += len(ops)
        failed += len(bad)
        correct = correct and chk.all_ok
        walls.append(sum(inv["wall_s"] for inv in invs))
        cpus.append(sum(inv["cpu_s"] for inv in invs))
        systems.append(sum(inv["sys_s"] for inv in invs))
        rsss.append(max(inv["rss_mb"] for inv in invs))
        setups.extend(inv["setup_s"] for inv in invs)
        now = perf_counter()
        if now - start >= seconds or deadline - now < 1.5 * (now - round_start):
            break
    setups = [s for s in setups if s is not None]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setups) if setups else float("nan"),
    }
    extra = {"rounds": len(walls), "setup_samples": len(setups),
             "system_s": statistics.median(systems)}
    return correct, attempted, failed, metrics, dict(END_TO_END), extra


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics from the traced run's spans and counts. Self time
    is a span's duration minus the durations of its child spans."""
    spans = result["spans"]
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out = {name: 0 for name, _ in PER_LAYER}
    for i, (name, start, end, _, exc) in enumerate(spans):
        layer, func = name.split(".", 1)
        key = SELF_TIME.get(name) or LAYER_SELF_TIME.get(layer) or f"{layer}.other_s"
        out[key] += self_s[i]
        if layer == "acceptance" and func.startswith("c"):
            out[f"{name}_s"] += end - start
        if name == "manipulation.search_round_trips" and exc == "SearchBudgetError":
            out["manipulation.budget_refusals"] += 1
    out.update(result["counts"])
    out["cli.import_s"] = result["import_s"]
    out["trace.span_cost_s"] = result["span_cost_s"]
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = result["span_cost_s"] * len(spans)
    return out


def run_in_process(workload: str, seed: int, out: str, run_dir: str, deadline: float):
    result_path = os.path.join(run_dir, "result.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "traced.py"), "--workload", workload,
            "--seed", str(seed), "--out-dir", out, "--result", result_path]
    rc, *_ = spawn_wait(argv, os.path.join(run_dir, "traced.log"), deadline)
    if rc != 0 or not os.path.exists(result_path):
        return None
    with open(result_path) as fh:
        return json.load(fh)


def run_traced(workload: str, seed: int, run_dir: str, deadline: float):
    out = os.path.join(run_dir, "traced")
    os.makedirs(out)
    traced = run_in_process(workload, seed, out, run_dir, deadline)
    n_ops = 13 if workload == "acceptance" else len(workloads.steps(workload, seed, out))
    if traced is None:
        print(f"  {workload}: the in-process run failed; see its log")
        return False, n_ops, n_ops, {name: 0 for name, _ in PER_LAYER}, dict(PER_LAYER), {}
    chk = check_outputs(workload, seed, out, traced["rcs"], deadline)
    ops, bad = count_ops(workload, traced["rcs"], chk)
    print_round(workload, 0, traced["rcs"], chk, bad, len(ops))
    metrics = layer_metrics(traced)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}-{int(time.time())}.json")
    epoch = traced["epoch"]
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "columns":
                   ["name", "start_s", "end_s", "parent", "exception"],
                   "spans": [[n, s - epoch, e - epoch, p, x]
                             for n, s, e, p, x in traced["spans"]]}, fh)
    extra = {"calls_wall_s": traced["calls_wall_s"],
             "trace_file": os.path.relpath(trace_path, ROOT)}
    print(f"  tracing overhead: {metrics['trace.spans']} spans at "
          f"{1e6 * metrics['trace.span_cost_s']:.2f} us each = "
          f"{metrics['trace.overhead_s']:.6f} s of {traced['calls_wall_s']:.3f} s traced; "
          f"written to {extra['trace_file']}")
    return chk.all_ok, len(ops), len(bad), metrics, dict(PER_LAYER), extra


def reference_loop() -> dict:
    """A fixed numpy loop timed before and after each run, to tell host
    drift from a regression. It is not a metric."""
    x = np.random.default_rng(0).standard_normal(1 << 18)
    t0, c0 = perf_counter(), time.process_time()
    acc = 0.0
    for _ in range(24):
        acc += float(np.sort(x)[-1]) + float(np.abs(np.fft.rfft(x)).sum())
    return {"wall_s": perf_counter() - t0, "cpu_s": time.process_time() - c0,
            "checksum": acc}


def commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"commit": commit(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "blas": openblas,
            "threads": THREADS}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    run_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)  # left by a killed run with this pid
    os.makedirs(run_dir)
    print(f"{workload}: seed {seed}, {'traced' if trace else 'untraced'}")
    ref_before = reference_loop()
    try:
        if trace:
            result = run_traced(workload, seed, run_dir, deadline)
        else:
            result = run_untraced(workload, seed, seconds, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct, attempted, failed, values, units, extra = result
    ref = {"before": ref_before, "after": reference_loop()}
    for name, value in values.items():
        print(f"  metric {name} = {value:.6g} {units[name]}")
    print(f"  correct {correct}, attempted {attempted}, failed {failed}")
    record = {"workload": workload, "seed": seed, "trace": trace, "time": time.time(),
              **environment(), "reference_loop": ref, **extra,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": values}
    print("record: " + json.dumps(record, sort_keys=True))
    os.makedirs(os.path.dirname(RECORDS), exist_ok=True)
    with open(RECORDS, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in values}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the output checks catch corrupted files")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "impactlab", "cli.py")):
        print(f"perfbench: no impactlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    # compile the package once, so no run pays the first import's compilation
    compileall.compile_dir(os.path.join(SRC, "impactlab"), quiet=1)
    if args.self_test:
        import selftest
        return selftest.main(invoke, OUT_DIR, perf_counter() + RUN_BUDGET_S)
    if args.workload is None:
        ap.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    if any(math.isnan(m["value"]) for m in final["metrics"].values()):
        print("perfbench: no CLI process got as far as importing impactlab.cli",
              file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
