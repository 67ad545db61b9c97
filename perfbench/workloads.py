"""The benchmark's workloads: the CLI invocations each one makes.

Shared by run.py, which starts one CLI process per invocation, and by
traced.py, which calls impactlab.cli.main in-process for the traced run.
"""

import json
import os

N_TRADES = 1 << 20

WORKLOADS = ("pipeline", "chain", "acceptance")

# Kernel and impact parameters of the pipeline config; the checks use them.
PIPELINE_LAM = 1.0
PIPELINE_PSI = 1.0


def pipeline_seeds(seed: int) -> list:
    """Two tape seeds per benchmark seed, disjoint between benchmark seeds."""
    return [2 * seed, 2 * seed + 1]


def pipeline_config(seed: int) -> dict:
    """The fixed end-to-end config: 2 seeds x 2^20 trades of clipped
    fractional signs (gamma 0.5), lognormal volumes (sigma 0.5), propagator
    with beta 0.25, lam 1, psi 1, default estimators, 2x2 manipulation grid."""
    first, last = pipeline_seeds(seed)
    return {
        "n": N_TRADES,
        "seed": [first, last],
        "generator": {"kind": "clipped_fractional", "gamma": 0.5},
        "volumes": {"dist": "lognormal", "mu": 0.0, "sigma": 0.5},
        "model": {
            "kind": "propagator", "lam": PIPELINE_LAM, "psi": PIPELINE_PSI,
            "kernel": {"form": "power_law", "beta": 0.25, "g1": 1.0, "plateau": 0.0},
        },
        "manip": {"betas": [0.0, 0.5], "psis": [0.5, 1.0], "max_len": 8,
                  "grid": [1, 2, 4, 8]},
    }


def chain_simulate_args(seed: int, n: int = N_TRADES) -> list:
    """Metaorder signs (alpha 1.5), Pareto volumes (x_min 1, tail 2.5),
    propagator with beta 0.25 and psi 0.5; lam stays at its default 1."""
    return ["simulate", "--n", str(n), "--generator", "metaorder", "--alpha", "1.5",
            "--vol-dist", "pareto", "--vol-xmin", "1", "--vol-tail", "2.5",
            "--model", "propagator", "--beta", "0.25", "--psi", "0.5",
            "--seed", str(seed)]


def steps(workload: str, seed: int, out_dir: str) -> list:
    """(name, argv) of every CLI invocation of one round, in order.

    Writes the pipeline config into out_dir. Only --out-dir is added to the
    chain's measure, invert and manip steps; every other flag is default."""
    if workload == "pipeline":
        cfg_path = os.path.join(out_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(pipeline_config(seed), fh, indent=1)
        return [("report", ["report", "--config", cfg_path, "--criteria", "none",
                            "--out-dir", out_dir])]
    if workload == "chain":
        stem = os.path.join(out_dir, f"tape_seed{seed}")
        return [
            ("simulate", chain_simulate_args(seed) + ["--out-dir", out_dir]),
            ("measure", ["measure", stem + ".csv", "--out-dir", out_dir]),
            ("invert", ["invert", "--response", stem + "_response.csv",
                        "--autocorr", stem + "_sign_autocorr.csv", "--out-dir", out_dir]),
            ("manip", ["manip", "--out-dir", out_dir]),
        ]
    if workload == "acceptance":
        return [("report", ["report", "--out-dir", out_dir])]
    raise ValueError(f"unknown workload {workload!r}")
