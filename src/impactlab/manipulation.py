"""Round-trip cost evaluation and exhaustive manipulation search.

A strategy is a finite set of signed trades on integer time slots. Its
expected cost under a decaying-impact model decides manipulability: a
negative-cost round trip is a price manipulation. The search enumerates
every round trip on a slot grid with volumes from a finite grid, exactly,
under an explicit candidate budget.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .exceptions import InputError, SearchBudgetError, ensure
from .impact import Kernel

__all__ = [
    "Strategy",
    "CostReport",
    "strategy_cost",
    "count_round_trips",
    "search_round_trips",
    "gatheral_frontier",
]


@dataclass
class Strategy:
    """Trades as (slot, signed volume q != 0) pairs on strictly increasing
    integer slots within 1..horizon; in a round trip the volumes sum to 0."""

    trades: tuple
    horizon: int

    def __post_init__(self):
        trades = tuple((int(s), float(q)) for s, q in self.trades)
        self.trades = trades
        slots = [s for s, _ in trades]
        ensure(all(q != 0 and np.isfinite(q) for _, q in trades),
               "trade volumes must be nonzero and finite")
        if any(s < 1 or s > self.horizon for s in slots):
            raise InputError("trade slots must lie in 1..horizon")
        ensure(all(a < b for a, b in zip(slots, slots[1:])), "slots must be strictly increasing")


@dataclass
class CostReport:
    """Expected cost of a strategy with its per-trade execution prices
    (relative to p0 = 0)."""

    expected_cost: float
    exec_prices: np.ndarray


def strategy_cost(
    strategy: Strategy, kernel: Kernel, lam: float, psi: float, own_impact: str = "full"
) -> CostReport:
    """Expected cost sum_n q_n * (exec price_n - p0) where the trade at slot
    n executes at p0 + lam * [sum_{m<n} G(n-m) u_m + G(1) u_n], u = sign(q)
    |q|^psi. Charging the full own immediate impact is the conservative
    convention; own_impact="half" charges half of it for sensitivity
    analysis. Noise is zero-mean and excluded."""
    own = _check_search(lam, psi, own_impact)
    if not strategy.trades:
        return CostReport(0.0, np.empty(0))
    slots = np.array([s for s, _ in strategy.trades], dtype=np.float64)
    q = np.array([qq for _, qq in strategy.trades])
    u = np.sign(q) * np.abs(q) ** psi
    prices = lam * (_pattern_w(kernel, slots, own * float(kernel.eval(1))) @ u)
    return CostReport(float(np.dot(q, prices)), prices)


def _symbol_values(volume_grid) -> np.ndarray:
    grid = sorted(set(float(g) for g in volume_grid))
    ensure(all(0 < g < np.inf for g in grid), "volume grid entries must be positive and finite")
    ensure(all(g == int(g) for g in grid),
           "volume grid entries must be integers (exact zero-sum tests)")
    return np.array([-g for g in reversed(grid)] + grid)


def count_round_trips(max_len: int, volume_grid) -> int:
    """Exact number of canonical candidate strategies the exhaustive search
    evaluates: k trades (2 <= k <= max_len) on slot patterns starting at
    slot 1 (costs are translation invariant), zero-sum volume tuples from
    the signed grid, counted once per sign orbit (first trade positive)."""
    if max_len < 2 or not len(volume_grid):
        return 0
    vals = [int(v) for v in _symbol_values(volume_grid) if v > 0]
    span = max_len * max(vals)
    ensure(span <= 10**6, "volume grid too wide for exact zero-sum counting")
    # dp over achievable sums, arbitrary-precision counts
    dp = np.zeros(2 * span + 1, dtype=object)
    dp[span] = 1
    z = [0] * (max_len + 1)
    z[0] = 1
    sym = [v for v in vals] + [-v for v in vals]
    for k in range(1, max_len + 1):
        nxt = np.zeros_like(dp)
        for v in sym:
            if v >= 0:
                nxt[v:] += dp[: dp.size - v]
            else:
                nxt[: dp.size + v] += dp[-v:]
        dp = nxt
        z[k] = int(dp[span])
    return sum(comb(max_len - 1, k - 1) * z[k] for k in range(2, max_len + 1)) // 2


def _index_tuples(n_sym: int, length: int, first_positive: bool, values: np.ndarray):
    idx = np.indices((n_sym,) * length).reshape(length, -1).T
    if first_positive:
        idx = idx[values[idx[:, 0]] > 0]
    return idx


def _pattern_w(kernel: Kernel, slots: np.ndarray, own_g1: float):
    k = slots.size
    w = np.zeros((k, k))
    for i in range(k):
        w[i, i] = own_g1
        if i > 0:
            w[i, :i] = kernel.eval(slots[i] - slots[:i])
    return w


# Largest cost block one matrix product forms: 2^16 float64 entries (512 KB),
# small enough to stay in cache between the product and its argmin.
_BLOCK_ENTRIES = 1 << 16


def _sum_groups(sums: np.ndarray, partner: np.ndarray):
    """Left rows sorted stably by `sums`, right rows stably by `-partner`,
    and the slices (r0, r1, l0, l1) pairing each left sum s, ascending, with
    the right rows of sum -s. Within a slice rows keep their index order."""
    lorder = np.argsort(sums, kind="stable")
    rorder = np.argsort(-partner, kind="stable")
    ls, rs = sums[lorder], -partner[rorder]
    keys = np.unique(ls)
    bounds = np.stack([np.searchsorted(rs, keys, "left"), np.searchsorted(rs, keys, "right"),
                       np.searchsorted(ls, keys, "left"), np.searchsorted(ls, keys, "right")])
    return lorder, rorder, [tuple(b) for b in bounds.T.tolist() if b[1] > b[0]]


def _tiles(r0: int, r1: int, l0: int, l1: int):
    """Tiles (r0, r1, l0, l1) of one group's right x left cost matrix, each
    at most _BLOCK_ENTRIES entries, in the group's row-major order: whole
    left ranges per tile, or single right rows split across tiles."""
    width = l1 - l0
    if width <= _BLOCK_ENTRIES:
        step = _BLOCK_ENTRIES // width
        for r in range(r0, r1, step):
            yield r, min(r + step, r1), l0, l1
    else:
        for r in range(r0, r1):
            for c in range(l0, l1, _BLOCK_ENTRIES):
                yield r, r + 1, c, min(c + _BLOCK_ENTRIES, l1)


# the share of its own immediate impact a trade pays, by own_impact
_OWN_SHARES = {"full": 1.0, "half": 0.5}


def _check_search(lam: float, psi: float, own_impact: str, max_len: int = 0,
                  volume_grid=()) -> float:
    """Refuse a cost, or given max_len and volume_grid a search, that no model
    takes, without searching; returns the own-impact share."""
    ensure(max_len <= 12, "max_len above the exhaustive regime (12)")
    ensure(0 <= lam < np.inf and 0 < psi < np.inf,
           "lam must be finite and >= 0, and psi finite and positive")
    ensure(isinstance(own_impact, str) and own_impact in _OWN_SHARES,
           "own_impact must be 'full' or 'half'")
    _symbol_values(volume_grid)
    return _OWN_SHARES[own_impact]


def search_round_trips(
    kernel: Kernel,
    lam: float,
    psi: float,
    max_len: int,
    volume_grid,
    budget: int = 10**7,
    own_impact: str = "full",
):
    """Exhaustive minimum-cost round trip with at most max_len trades on
    slots 1..max_len and volumes from the signed grid.

    Costs depend only on slot differences, so patterns are anchored at slot
    1; sign orbits are counted once (mirror a result for the other sign).
    The candidate count is computed exactly first and the search refuses
    above `budget`. Returns (best_cost, best_strategy or None for the empty
    strategy, report dict of the pairs `evaluated` and, past the trivial
    cases, the `candidates` counted). best_cost <= 0 always: the empty
    strategy is admissible at cost 0.

    A strategy splits into a left half (its first k//2 trades, the first
    one positive) and a right half whose volumes sum to minus the left's.
    For a slot pattern with impact matrix W, the cost of a pair is
    q_r W_x u_l + c_l + c_r, where u = sign(q) |q|^psi, W_x is the block
    of W by which left trades move right prices, and c_l, c_r are each
    half's cost on its own. It is evaluated as one matrix product
    [q_r W_x | c_r | 1] . [u_l | 1 | c_l] over blocks of at most
    _BLOCK_ENTRIES pairs.

    The enumeration order is deterministic: trade count, then slot pattern,
    then left sum ascending, then right rows, then left rows. Within a
    block the first minimum wins; a later block replaces the best only when
    strictly lower by more than 1e-15.
    """
    own = _check_search(lam, psi, own_impact, max_len, volume_grid)
    report = {"evaluated": 0}
    if max_len < 2 or not len(volume_grid):
        return 0.0, None, report
    n_candidates = count_round_trips(max_len, volume_grid)
    report["candidates"] = n_candidates
    if n_candidates > budget:
        raise SearchBudgetError(n_candidates, budget)
    values = _symbol_values(volume_grid)
    n_sym = values.size
    uvals = np.sign(values) * np.abs(values) ** psi
    own_g1 = float(kernel.eval(1)) * own

    best_cost = 0.0
    best = None
    for k in range(2, max_len + 1):
        kl = k // 2
        kr = k - kl
        left = _index_tuples(n_sym, kl, True, values)
        right = _index_tuples(n_sym, kr, False, values)
        lorder, rorder, groups = _sum_groups(values[left].sum(axis=1),
                                             values[right].sum(axis=1))
        if not groups:
            continue
        ql, qr = values[left[lorder]], values[right[rorder]]
        ul, ur = uvals[left[lorder]], uvals[right[rorder]]
        tiles = [t for g in groups for t in _tiles(*g)]
        per_pattern = sum((r1 - r0) * (l1 - l0) for r0, r1, l0, l1 in tiles)
        # cost[r, l] = R[r] . L[l]: the cross term plus each half's own cost
        lmat = np.ones((ql.shape[0], kl + 2))
        lmat[:, :kl] = ul
        rmat = np.ones((qr.shape[0], kl + 2))
        for pat in combinations(range(2, max_len + 1), k - 1):
            slots = np.array((1,) + pat, dtype=np.float64)
            w = _pattern_w(kernel, slots, own_g1)
            lmat[:, kl + 1] = ((ql @ w[:kl, :kl]) * ul).sum(axis=1)
            rmat[:, kl] = ((qr @ w[kl:, kl:]) * ur).sum(axis=1)
            rmat[:, :kl] = qr @ w[kl:, :kl]
            report["evaluated"] += per_pattern
            for r0, r1, l0, l1 in tiles:
                cost = rmat[r0:r1] @ lmat[l0:l1].T
                am = int(cost.argmin())
                cmin = float(cost.flat[am])
                if lam * cmin < best_cost - 1e-15:
                    ridx, lidx = divmod(am, l1 - l0)
                    q = np.concatenate([ql[l0 + lidx], qr[r0 + ridx]])
                    best_cost = lam * cmin
                    best = Strategy(
                        tuple((int(s), float(qq)) for s, qq in zip(slots, q)),
                        max_len,
                    )
    return best_cost, best, report


def gatheral_frontier(
    beta_values,
    psi_values,
    max_len: int = 8,
    volume_grid=(1, 2, 4, 8),
    lam: float = 1.0,
    budget: int = 10**7,
    own_impact: str = "full",
):
    """Minimum round-trip cost over a (beta, psi) grid of power-law kernels;
    negative entries are empirical manipulation counterexamples. Raw minima
    only: boundary cases (beta + psi = 1) are reported, not classified. Each
    row also holds the search's `candidates` counted, the pairs `evaluated`
    and the `budget` they were held to."""
    rows = []
    for beta in beta_values:
        kernel = Kernel.power_law(beta)
        for psi in psi_values:
            cost, strat, rep = search_round_trips(
                kernel, lam, psi, max_len, volume_grid, budget, own_impact
            )
            rows.append(
                {
                    "beta": float(beta),
                    "psi": float(psi),
                    "min_cost": cost,
                    "argmin": None if strat is None else strat.trades,
                    "candidates": rep.get("candidates", 0),
                    "evaluated": rep["evaluated"],
                    "budget": int(budget),
                }
            )
    return rows
