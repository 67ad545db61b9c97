"""Output checks made apart from the program.

Every check here parses the files the CLI wrote with its own readers and
recomputes what it compares in plain numpy. Nothing is imported from
impactlab, so a fault shared by a writer and its reader, or by an estimator
and its caller, cannot hide itself.

run.py runs the checks of a round in their own process,

    python3 perfbench/checks.py WORKLOAD SEED OUT_DIR EXIT_CODES_JSON

which prints the results as one JSON list. The benchmark process so stays
small: a process it spawns starts from its peak resident set, and a parsed
tape would raise that floor above the peak of some invocations.
"""

import json
import math
import os
import sys

import numpy as np

from workloads import (
    N_TRADES,
    PIPELINE_LAM,
    PIPELINE_PSI,
    pipeline_seeds,
)

RTOL = 1e-9  # recomputed curve values, rho, fits and costs
POOL_RTOL = 1e-12  # pooled curves: one weighted mean per lag
RESIDUAL_RTOL = 1e-7  # inversion residual norm: a norm of differences
RHO_WINDOW = 16  # measure's default rho window (psi weight 1)
FRONTIER_MAX_LEN = 8
FRONTIER_GRID = (1.0, 2.0, 4.0, 8.0)


class CheckError(Exception):
    """A check that does not hold; the message says what differs."""


def require(ok, message: str):
    if not ok:
        raise CheckError(message)


def close(mine: float, theirs: float, rtol: float = RTOL, atol: float = 1e-12) -> bool:
    return abs(mine - theirs) <= rtol * abs(theirs) + atol


class Checks:
    """Collects (operation, check, ok, detail) results of one round."""

    def __init__(self):
        self.results = []

    def run(self, op: str, name: str, fn, *args):
        """Run one check; a failure of any kind is recorded, not raised.
        Returns fn's result, or None when the check failed."""
        try:
            out = fn(*args)
        except Exception as exc:  # a broken output must not stop the benchmark
            self.results.append((op, name, False, f"{type(exc).__name__}: {exc}"))
            return None
        self.results.append((op, name, True, out if isinstance(out, str) else ""))
        return out

    def failed_ops(self) -> set:
        return {op for op, _, ok, _ in self.results if not ok}

    @property
    def all_ok(self) -> bool:
        return all(ok for _, _, ok, _ in self.results)


# ---------------------------------------------------------------- readers

TAPE_HEADER = b"n,epsilon,volume,price"


def read_tape(path: str, n_expected: int):
    """Parse a priced tape CSV and check its structure. Returns (eps, v, p)
    with p holding n + 1 prices, the last from the trailing final-price row."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(data.endswith(b"\n"), "tape does not end with a newline")
    header, _, rest = data.partition(b"\n")
    require(header == TAPE_HEADER, f"bad header {header[:60]!r}")
    n_rows = data.count(b"\n") - 2  # header and final-price row
    require(n_rows == n_expected, f"{n_rows} trades, expected {n_expected}")
    last = rest[:-1].rpartition(b"\n")[2].split(b",")
    require(len(last) == 4 and last[1] == b"" and last[2] == b"",
            f"missing final-price row, last row is {b','.join(last)[:60]!r}")
    require(last[0] == str(n_rows).encode(), f"final-price row has n={last[0]!r}")
    p_final = float(last[3])
    # loadtxt refuses a row with a missing or extra field
    rows = np.loadtxt(path, delimiter=",", skiprows=1, max_rows=n_rows, ndmin=2)
    require(rows.shape == (n_rows, 4), f"parsed shape {rows.shape}")
    require(np.array_equal(rows[:, 0], np.arange(n_rows)), "n is not consecutive from 0")
    eps, v = rows[:, 1], rows[:, 2]
    require(np.all(np.abs(eps) == 1.0), "epsilon outside {-1, 1}")
    require(np.all(np.isfinite(v) & (v > 0)), "volume not positive and finite")
    p = np.append(rows[:, 3], p_final)
    require(np.all(np.isfinite(p)), "non-finite price")
    return eps, v, p


def _read_table(path: str, header: list) -> list:
    with open(path) as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0] == ",".join(header), f"{os.path.basename(path)}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    require(rows, f"{os.path.basename(path)}: no rows")
    require(all(len(r) == len(header) for r in rows),
            f"{os.path.basename(path)}: a row has the wrong field count")
    return rows


def read_curve(path: str):
    """Lag-curve CSV `lag,value,count,se` -> (lags, values, counts, se)."""
    rows = _read_table(path, ["lag", "value", "count", "se"])
    lags = np.array([int(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    counts = np.array([int(r[2]) for r in rows])
    se = np.array([float(r[3]) if r[3] else np.nan for r in rows])
    require(np.array_equal(lags, np.arange(1, lags.size + 1)),
            f"{os.path.basename(path)}: lags not 1..L")
    return lags, vals, counts, se


def read_kernel(path: str) -> np.ndarray:
    rows = _read_table(path, ["lag", "G", "se_proxy"])
    require([int(r[0]) for r in rows] == list(range(1, len(rows) + 1)),
            "kernel lags not 1..L")
    return np.array([float(r[1]) for r in rows])


def read_frontier(path: str) -> list:
    """Frontier CSV -> [(beta, psi, min_cost, trades)], trades as (slot, q)."""
    out = []
    for beta, psi, cost, arg in _read_table(path, ["beta", "psi", "min_cost",
                                                    "argmin_strategy"]):
        trades = []
        for pair in arg.split(";") if arg else []:
            slot, q = pair.split(":")
            trades.append((int(slot), float(q)))
        out.append((float(beta), float(psi), float(cost), trades))
    return out


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------- recomputed values

def check_lags(top: int) -> list:
    """Powers of two up to the last lag, and the last lag."""
    lags = [1 << k for k in range(top.bit_length()) if 1 << k <= top]
    return sorted(set(lags + [top]))


def response_at(eps, p, lag: int):
    """R(l) over every window start n = 0..N-l (the final price included):
    mean(dp*eps) - mean(dp)*mean(eps), with its naive standard error."""
    dp = p[lag:] - p[:-lag]
    ee = eps[: dp.size]
    prod = dp * ee
    return prod.mean() - dp.mean() * ee.mean(), prod.size, prod.std() / math.sqrt(prod.size)


def diffusivity_at(p, lag: int):
    d = p[lag:] - p[:-lag]
    return d.var() / lag, d.size


def sign_autocorr_at(eps, lag: int):
    mu = eps.mean()
    return float(np.dot(eps[:-lag], eps[lag:])) / (eps.size - lag) - mu * mu, eps.size - lag


def rho_of(eps, v, p, window: int = RHO_WINDOW) -> float:
    w = eps.size // window
    dp = p[window * np.arange(1, w + 1)] - p[window * np.arange(w)]
    q = (eps * v)[: w * window].reshape(w, window).sum(axis=1)
    return float((dp * q).mean() / math.sqrt((dp * dp).mean() * (q * q).mean()))


def check_curves(tape, stem: str) -> str:
    """response, diffusivity and sign_autocorr CSVs of one tape against
    values recomputed from the parsed tape at the check lags; counts on
    every lag."""
    eps, _, p = tape
    n = eps.size
    compared = 0
    for name in ("response", "diffusivity", "sign_autocorr"):
        lags, vals, counts, se = read_curve(f"{stem}_{name}.csv")
        top = int(lags[-1])
        expect_counts = (n - lags) if name == "sign_autocorr" else (n + 1 - lags)
        require(np.array_equal(counts, expect_counts), f"{name}: counts differ")
        for lag in check_lags(top):
            got = float(vals[lag - 1])
            if name == "response":
                mine, _, mine_se = response_at(eps, p, lag)
                require(close(mine_se, se[lag - 1]), f"response se at lag {lag}: "
                        f"{float(se[lag - 1])!r} written, {float(mine_se)!r} recomputed")
            elif name == "diffusivity":
                mine, _ = diffusivity_at(p, lag)
            else:
                mine, _ = sign_autocorr_at(eps, lag)
            require(close(mine, got), f"{name} at lag {lag}: {got!r} written, "
                    f"{float(mine)!r} recomputed")
            compared += 1
    return f"{compared} values"


def check_rho(tape, reported: float) -> str:
    mine = rho_of(*tape)
    require(close(mine, reported), f"rho {reported!r} reported, {mine!r} recomputed")
    return f"rho {mine:.6f}"


def check_pooling(out_dir: str, seeds: list) -> str:
    """pooled_<name>.csv is the count-weighted mean of the per-seed curves."""
    for name in ("response", "sign_autocorr", "diffusivity"):
        per_seed = [read_curve(os.path.join(out_dir, f"tape_seed{s}_{name}.csv"))
                    for s in seeds]
        lags, vals, counts, _ = read_curve(os.path.join(out_dir, f"pooled_{name}.csv"))
        w = np.array([c[2] for c in per_seed], dtype=np.float64)
        v = np.array([c[1] for c in per_seed])
        require(np.array_equal(lags, per_seed[0][0]), f"pooled {name}: lags differ")
        require(np.array_equal(counts, w.sum(axis=0)), f"pooled {name}: counts differ")
        mine = (v * w).sum(axis=0) / w.sum(axis=0)
        bad = np.nonzero(np.abs(mine - vals) > POOL_RTOL * np.abs(vals) + 1e-15)[0]
        require(bad.size == 0, f"pooled {name}: {bad.size} lags differ")
    return f"{len(seeds)} seeds"


def power_law_exponent(lags, vals, lo: int, hi: int) -> float:
    """|slope| of the least-squares line through (log lag, log value) on
    lo <= lag <= hi."""
    mask = (lags >= lo) & (lags <= hi)
    require(np.all(vals[mask] > 0), "non-positive values in the fit range")
    x, y = np.log(lags[mask].astype(np.float64)), np.log(vals[mask])
    xc = x - x.mean()
    return abs(float(np.dot(xc, y - y.mean()) / np.dot(xc, xc)))


def check_gamma(out_dir: str, report: dict) -> str:
    lags, vals, _, _ = read_curve(os.path.join(out_dir, "pooled_sign_autocorr.csv"))
    mine = power_law_exponent(lags, vals, 8, min(512, int(lags[-1])))
    reported = report["fits"]["pooled"]["gamma_hat"]["exponent"]
    require(close(mine, reported, rtol=1e-8), f"pooled gamma_hat {reported!r} "
            f"reported, {mine!r} recomputed")
    require(0.4 <= mine <= 0.6, f"pooled gamma_hat {mine:.4f} outside 0.4..0.6")
    return f"gamma_hat {mine:.4f}"


def check_diffusive(out_dir: str, report: dict, seeds: list) -> str:
    ratios = []
    for s in seeds:
        _, vals, _, _ = read_curve(os.path.join(out_dir, f"tape_seed{s}_diffusivity.csv"))
        ratio = vals[-1] / vals[0]
        flag = report["fits"]["per_seed"][str(s)]["diffusion_flag"]
        require(flag == "diffusive" and 0.5 <= ratio <= 2.0,
                f"seed {s}: flag {flag}, D(last)/D(1) {ratio:.4f}")
        ratios.append(f"{ratio:.3f}")
    return "D(last)/D(1) " + " ".join(ratios)


def forward_response(g, c, n_eq: int, j_tail: int) -> np.ndarray:
    """R(l)/(lam v^psi) = G(l) + sum_{0<j<l} G(l-j)C(j)
    + sum_{j=1..j_tail} (G(l+j) - G(j))C(j), G held at its last value past
    the table. Tail terms with j >= L cancel exactly, so the tail stops at
    min(j_tail, L - 1)."""
    size = g.size

    def gl(lags):
        return g[np.minimum(lags, size) - 1]

    jt = np.arange(1, min(j_tail, size - 1) + 1)
    out = np.empty(n_eq)
    for lag in range(1, n_eq + 1):
        j = np.arange(1, lag)
        mid = float(np.sum(gl(lag - j) * c[j - 1])) if lag > 1 else 0.0
        tail = float(np.sum((gl(lag + jt) - gl(jt)) * c[jt - 1])) if jt.size else 0.0
        out[lag - 1] = gl(np.array([lag]))[0] + mid + tail
    return out


def check_inversion(kernel_path: str, response_path: str, autocorr_path: str,
                    rep: dict, scale: float) -> str:
    """The kernel's forward sum reproduces the reported residual norm."""
    g = read_kernel(kernel_path)
    _, r, _, _ = read_curve(response_path)
    _, c, _, _ = read_curve(autocorr_path)
    n_eq = int(rep["equations"])
    require(n_eq == r.size, f"{n_eq} equations for {r.size} response lags")
    require(c.size >= max(n_eq - 1, g.size - 1), "sign autocorrelation too short")
    fitted = forward_response(g, c, n_eq, int(rep["j_tail"]))
    mine = float(np.linalg.norm(fitted - r / scale))
    reported = rep["residual_norm"]
    # an exact fit leaves a residual of rounding size: compare it to |R|
    atol = 1e-9 * float(np.linalg.norm(r / scale))
    require(close(mine, reported, rtol=RESIDUAL_RTOL, atol=atol),
            f"residual_norm {reported!r} reported, {mine!r} recomputed")
    return f"residual {mine:.6g}, L={g.size}"


def round_trip_cost(trades, beta: float, psi: float, lam: float = 1.0) -> float:
    """sum_n q_n * lam * [sum_{m<n} G(t_n - t_m) u_m + G(1) u_n] with
    G(l) = l^-beta and u = sign(q)|q|^psi, own impact charged in full."""
    slots = [s for s, _ in trades]
    q = [x for _, x in trades]
    u = [math.copysign(abs(x) ** psi, x) for x in q]
    cost = 0.0
    for i in range(len(trades)):
        past = sum((slots[i] - slots[m]) ** -beta * u[m] for m in range(i))
        cost += q[i] * lam * (past + u[i])
    return cost


def check_frontier(frontier_path: str, json_rows: list) -> str:
    rows = read_frontier(frontier_path)
    require(len(rows) == len(json_rows), "CSV and JSON row counts differ")
    cells = {}
    for (beta, psi, cost, trades), jrow in zip(rows, json_rows):
        where = f"cell beta={beta:g} psi={psi:g}"
        require(cost <= 0.0, f"{where}: min_cost {cost!r} > 0")
        if trades:
            slots = [s for s, _ in trades]
            require(all(1 <= a < b <= FRONTIER_MAX_LEN for a, b in zip(slots, slots[1:]))
                    and slots[0] >= 1, f"{where}: bad slots {slots}")
            require(all(abs(q) in FRONTIER_GRID for _, q in trades),
                    f"{where}: volume off the grid")
            require(sum(q for _, q in trades) == 0, f"{where}: not a round trip")
            mine = round_trip_cost(trades, beta, psi)
            require(close(mine, cost), f"{where}: min_cost {cost!r}, argmin costs {mine!r}")
        else:
            require(cost == 0.0, f"{where}: min_cost {cost!r} without a strategy")
        require(beta == jrow["beta"] and psi == jrow["psi"]
                and cost == jrow["min_cost"], f"{where}: CSV and JSON differ")
        cells[(beta, psi)] = cost
    require(cells.get((0.0, 1.0)) == 0.0, "linear permanent cell is not exactly 0")
    require(cells.get((0.0, 0.5), 0.0) < 0.0, "concave permanent cell is not negative")
    return f"{len(rows)} cells, concave permanent {cells[(0.0, 0.5)]:.6g}"


# ------------------------------------------------------------- workloads

def check_pipeline(out_dir: str, seed: int, chk: Checks, op: str = "report"):
    seeds = pipeline_seeds(seed)
    report = chk.run(op, "report.json", read_json, os.path.join(out_dir, "report.json"))
    tapes = {}
    for s in seeds:
        stem = os.path.join(out_dir, f"tape_seed{s}")
        tapes[s] = chk.run(op, f"tape seed {s}", read_tape, stem + ".csv", N_TRADES)
        if tapes[s] is not None:
            chk.run(op, f"curves seed {s}", check_curves, tapes[s], stem)
            if report is not None:
                chk.run(op, f"rho seed {s}", lambda t=tapes[s], s=s: check_rho(
                    t, report["fits"]["per_seed"][str(s)]["rho"]))
    chk.run(op, "pooling", check_pooling, out_dir, seeds)
    if report is None:
        return
    chk.run(op, "pooled gamma_hat in 0.4..0.6", check_gamma, out_dir, report)
    chk.run(op, "every seed diffusive", check_diffusive, out_dir, report, seeds)
    if tapes[seeds[0]] is not None:
        v_ref = float(np.mean(tapes[seeds[0]][1]))
        chk.run(op, "inversion forward sum", lambda: check_inversion(
            os.path.join(out_dir, "kernel.csv"),
            os.path.join(out_dir, "pooled_response.csv"),
            os.path.join(out_dir, "pooled_sign_autocorr.csv"),
            report["invert"], PIPELINE_LAM * v_ref**PIPELINE_PSI))
    chk.run(op, "frontier", lambda: check_frontier(
        os.path.join(out_dir, "frontier.csv"), report["manip"]))


def check_chain(out_dir: str, seed: int, chk: Checks, rcs: dict):
    stem = os.path.join(out_dir, f"tape_seed{seed}")
    tape = None
    if rcs.get("simulate") == 0:
        tape = chk.run("simulate", "tape", read_tape, stem + ".csv", N_TRADES)
    if rcs.get("measure") == 0 and tape is not None:
        chk.run("measure", "curves", check_curves, tape, stem)
        chk.run("measure", "rho", lambda: check_rho(
            tape, read_json(stem + "_fits.json")["rho"]))
    if rcs.get("invert") == 0:
        # the invert defaults: lam 1, psi 1, v 1
        chk.run("invert", "inversion forward sum", lambda: check_inversion(
            os.path.join(out_dir, "kernel.csv"), stem + "_response.csv",
            stem + "_sign_autocorr.csv",
            read_json(os.path.join(out_dir, "invert_report.json")), 1.0))
    if rcs.get("manip") == 0:
        chk.run("manip", "frontier", lambda: check_frontier(
            os.path.join(out_dir, "frontier.csv"),
            read_json(os.path.join(out_dir, "manip_report.json"))["rows"]))


NINE_BUYS = [(s, 1.0) for s in range(1, 10)] + [(10, -9.0)]


def check_acceptance(out_dir: str, chk: Checks):
    """One operation per criterion: it must be reported as passed, and the
    numbers with a closed form must match the benchmark's own value."""
    report = chk.run("report", "report.json", read_json,
                     os.path.join(out_dir, "report.json"))
    entries = {e["number"]: e for e in (report or {}).get("acceptance", [])}
    for number in range(1, 14):
        op = f"c{number:02d}"
        entry = entries.get(number, {"passed": False, "details": "missing"})
        chk.run(op, "passed", require, entry["passed"], "missing or reported FAIL")
        if not entry["passed"]:
            continue
        d = entry["details"]
        if number == 2:
            chk.run(op, "rho_noiseless = 1", lambda: require(
                close(d["rho_noiseless"], 1.0), f"rho_noiseless {d['rho_noiseless']!r}"))
        elif number == 10:
            # S = 2 lam v^psi for (lam, psi, v) = (1, 1, 1) and (1, 0.5, 4)
            mine = [2.0 * 1.0 * 1.0**1.0, 2.0 * 1.0 * 4.0**0.5]
            chk.run(op, "spreads 2 and 4", lambda: require(
                len(d["spread_values"]) == 2
                and all(close(a, b) for a, b in zip(d["spread_values"], mine)),
                f"spread_values {d['spread_values']!r}, expected {mine!r}"))
        elif number == 11:
            mine = round_trip_cost(NINE_BUYS, 0.0, 0.5)
            chk.run(op, "nine_buy_cost = -9", lambda: require(
                close(d["nine_buy_cost"], mine) and close(mine, -9.0),
                f"nine_buy_cost {d['nine_buy_cost']!r}, recomputed {mine!r}"))
            trades = [(int(s), float(q)) for s, q in d["argmin_concave"] or []]
            chk.run(op, "concave argmin re-costed", lambda: require(
                close(round_trip_cost(trades, 0.0, 0.5), d["cost_concave_permanent"]),
                f"cost_concave_permanent {d['cost_concave_permanent']!r}"))


def check_workload(workload: str, seed: int, out_dir: str, rcs: dict) -> Checks:
    """All checks of one round, given the exit code of each invocation."""
    chk = Checks()
    if workload == "pipeline":
        if rcs["report"] == 0:
            check_pipeline(out_dir, seed, chk)
    elif workload == "chain":
        check_chain(out_dir, seed, chk, rcs)
    else:
        check_acceptance(out_dir, chk)
    return chk


if __name__ == "__main__":
    _workload, _seed, _out_dir, _rcs = sys.argv[1:]
    print(json.dumps(check_workload(_workload, int(_seed), _out_dir, json.loads(_rcs)).results))
