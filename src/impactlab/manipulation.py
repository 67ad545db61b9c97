"""Round-trip cost evaluation and exhaustive manipulation search.

A strategy is a finite set of signed trades on integer time slots. Its
expected cost under a decaying-impact model decides manipulability: a
negative-cost round trip is a price manipulation. The search enumerates
every round trip on a slot grid with volumes from a finite grid, exactly,
under an explicit candidate budget.
"""

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .exceptions import InputError, SearchBudgetError, ensure
from .impact import Kernel

__all__ = [
    "Strategy",
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


def strategy_cost(
    strategy: Strategy, kernel: Kernel, lam: float, psi: float, own_impact: str = "full"
) -> float:
    """Expected cost sum_n q_n * (exec price_n - p0) where the trade at slot
    n executes at p0 + lam * [sum_{m<n} G(n-m) u_m + G(1) u_n], u = sign(q)
    |q|^psi. Charging the full own immediate impact is the conservative
    convention; own_impact="half" charges half of it for sensitivity
    analysis. Noise is zero-mean and excluded."""
    own = _check_search(lam, psi, own_impact)
    if not strategy.trades:
        return 0.0
    slots, q = np.array(list(zip(*strategy.trades)))
    u = np.sign(q) * np.abs(q) ** psi
    prices = lam * (_pattern_w(kernel, slots[None], own * float(kernel.eval(1)))[0] @ u)
    return float(np.dot(q, prices))


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
    z = [1]  # z[k]: the zero-sum k-tuples of the signed grid
    for k in range(1, max_len + 1):
        nxt = np.zeros_like(dp)
        for v in vals:
            nxt[v:] += dp[: dp.size - v]
            nxt[: dp.size - v] += dp[v:]
        dp = nxt
        z.append(int(dp[span]))
    return sum(comb(max_len - 1, k - 1) * z[k] for k in range(2, max_len + 1)) // 2


def _index_tuples(n_sym: int, length: int, first_positive: bool, values: np.ndarray):
    idx = np.indices((n_sym,) * length).reshape(length, -1).T
    if first_positive:
        idx = idx[values[idx[:, 0]] > 0]
    return idx


def _pattern_w(kernel: Kernel, slots: np.ndarray, own_g1: float):
    """Impact matrices of a stack of slot patterns, shape (P, k), from one
    kernel evaluation: W[p, i, j] = G(slots[p, i] - slots[p, j]) below the
    diagonal, own_g1 on it and 0 above."""
    n_pat, k = slots.shape
    i, j = np.tril_indices(k, -1)
    w = np.zeros((n_pat, k, k))
    w[:, i, j] = kernel.eval(slots[:, i] - slots[:, j])
    w[:, range(k), range(k)] = own_g1
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
    keys = ls[np.concatenate(([True], ls[1:] != ls[:-1]))]
    bounds = np.stack([np.searchsorted(rs, keys, "left"), np.searchsorted(rs, keys, "right"),
                       np.searchsorted(ls, keys, "left"), np.searchsorted(ls, keys, "right")])
    return lorder, rorder, [tuple(b) for b in bounds.T.tolist() if b[1] > b[0]]


def _tiles(r0: int, r1: int, l0: int, l1: int):
    """Tiles (r0, r1, l0, l1) of one group's right x left cost matrix, each
    at most _BLOCK_ENTRIES entries, in the group's row-major order: whole
    left ranges per tile, or single right rows split across tiles."""
    step = max(1, _BLOCK_ENTRIES // (l1 - l0))
    for r in range(r0, r1, step):
        for c in range(l0, l1, _BLOCK_ENTRIES):
            yield r, min(r + step, r1), c, min(c + _BLOCK_ENTRIES, l1)


@functools.lru_cache(maxsize=1)
def _search_tables(max_len: int, values: tuple, block: int):
    """Per trade count k with a zero-sum pair, what a search at `max_len` over
    the signed grid `values` reads whatever its kernel, lam and psi: (kl, the
    halves' index rows in `_sum_groups`' orders, the slot patterns (P, k), the
    tiles (r0, r1, l0, l1, patterns per product), patterns per batch, pairs
    per pattern). `block`, the _BLOCK_ENTRIES `_tiles` reads, keys the cache
    too. Shared by the next search on the same values; the arrays are read-only."""
    vals = np.array(values)
    out = []
    for k in range(2, max_len + 1):
        kl = k // 2
        left = _index_tuples(vals.size, kl, True, vals)
        right = _index_tuples(vals.size, k - kl, False, vals)
        lorder, rorder, groups = _sum_groups(vals[left].sum(axis=1), vals[right].sum(axis=1))
        if not groups:
            continue
        tiles = [t for g in groups for t in _tiles(*g)]
        stack = np.array([(1,) + pat for pat in combinations(range(2, max_len + 1), k - 1)],
                         dtype=np.float64)
        arrays = (left[lorder], right[rorder], stack)
        for a in arrays:
            a.setflags(write=False)
        # a product holds at most `block` entries, a batch's half matrices about 4 * block
        out.append((kl, *arrays,
                    tuple((*t, max(1, block // ((t[1] - t[0]) * (t[3] - t[2])))) for t in tiles),
                    max(1, 4 * block // ((len(left) + len(right)) * (kl + 2))),
                    sum((r1 - r0) * (l1 - l0) for r0, r1, l0, l1 in tiles)))
    return tuple(out)


def _half_costs(qw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row's sum over j of qw[..., j] * u[:, j], added left to right as
    numpy's `sum(axis=-1)` adds a short row, column by column."""
    cost = qw[..., 0] * u[:, 0]
    for j in range(1, u.shape[1]):
        cost += qw[..., j] * u[:, j]
    return cost


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


def search_round_trips(kernel: Kernel, lam: float, psi: float, max_len: int, volume_grid,
                       budget: int = 10**7, own_impact: str = "full"):
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
    [q_r W_x | c_r | 1] . [u_l | 1 | c_l] per tile of at most
    _BLOCK_ENTRIES pairs, stacked over a batch of slot patterns to at most
    _BLOCK_ENTRIES entries, from tables shared by searches on one grid.

    The enumeration order is deterministic: trade count, then slot pattern,
    then left sum ascending, then right rows, then left rows. Within a
    tile the first minimum wins; a later tile replaces the best only when
    its cost per unit lam is lower by more than 1e-15, and only at a cost
    below 0, so lam = 0 keeps the empty strategy.
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
    uvals = np.sign(values) * np.abs(values) ** psi
    own_g1 = float(kernel.eval(1)) * own

    best, best_trades = 0.0, None  # the cost per unit lam
    for kl, lrows, rrows, stack, tiles, batch, pairs in _search_tables(
            max_len, tuple(values.tolist()), _BLOCK_ENTRIES):
        ql, qr, ul, ur = values[lrows], values[rrows], uvals[lrows], uvals[rrows]
        w = _pattern_w(kernel, stack, own_g1)
        report["evaluated"] += pairs * len(stack)
        for p0 in range(0, len(stack), batch):
            wb = w[p0:p0 + batch]
            # cost[p, r, l] = R[p, r] . L[p, l]: the cross term plus each half's own cost
            lmat = np.ones((len(wb), len(ql), kl + 2))
            lmat[:, :, :kl] = ul
            lmat[:, :, kl + 1] = _half_costs(ql @ wb[:, :kl, :kl], ul)
            rmat = np.ones((len(wb), len(qr), kl + 2))
            rmat[:, :, kl] = _half_costs(qr @ wb[:, kl:, kl:], ur)
            rmat[:, :, :kl] = qr @ wb[:, kl:, :kl]
            mins = np.empty((len(wb), len(tiles)))
            args = np.empty((len(wb), len(tiles)), dtype=np.intp)
            for t, (r0, r1, l0, l1, step) in enumerate(tiles):
                for s in range(0, len(wb), step):
                    cost = (rmat[s:s + step, r0:r1] @ lmat[s:s + step, l0:l1].transpose(0, 2, 1)
                            ).reshape(-1, (r1 - r0) * (l1 - l0))
                    args[s:s + step, t] = am = cost.argmin(axis=1)
                    mins[s:s + step, t] = cost[np.arange(len(cost)), am]
            flat = mins.ravel()  # pattern-major, then tile order
            for i in np.flatnonzero(flat < best - 1e-15).tolist():
                if flat[i] < best - 1e-15 and lam * flat[i] < 0:
                    best = float(flat[i])
                    p, t = divmod(i, len(tiles))
                    r0, _, l0, l1, _ = tiles[t]
                    ridx, lidx = divmod(int(args[p, t]), l1 - l0)
                    best_trades = tuple(zip(stack[p0 + p],
                                            np.concatenate([ql[l0 + lidx], qr[r0 + ridx]])))
    return lam * best, None if best_trades is None else Strategy(best_trades, max_len), report


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
