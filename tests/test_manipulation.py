"""Round-trip cost engine and exhaustive search, cross-checked against a
direct brute-force enumeration at small scale, against the grouped search
and the per-pattern search it replaced, and against the psi = 1
positive-definiteness certificate."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import (
    InputError,
    Kernel,
    ParameterError,
    SearchBudgetError,
    Strategy,
    count_round_trips,
    gatheral_frontier,
    search_round_trips,
    strategy_cost,
)
from impactlab import manipulation
from impactlab.manipulation import (_BLOCK_ENTRIES, _index_tuples, _search_tables, _sum_groups,
                                    _symbol_values)


def _brute_force(kernel, lam, psi, max_len, grid):
    """Reference enumeration: slot patterns anchored at slot 1, zero-sum
    volumes off the signed grid, one representative per sign orbit."""
    best, best_strategy, n_seen = 0.0, None, 0
    signed = [float(g) for g in grid] + [-float(g) for g in grid]
    for k in range(2, max_len + 1):
        for tail in combinations(range(2, max_len + 1), k - 1):
            slots = (1,) + tail
            for qs in product(signed, repeat=k):
                if sum(qs) != 0 or qs[0] < 0:
                    continue
                n_seen += 1
                cost = strategy_cost(Strategy(tuple(zip(slots, qs)), max_len), kernel, lam, psi)
                if cost < best - 1e-15:
                    best, best_strategy = cost, tuple(zip(slots, qs))
    return best, best_strategy, n_seen


def _per_row_w(kernel, slots, own_g1):
    """The impact matrix of one slot pattern, built row by row with one
    kernel evaluation per row: the search's builder before pattern stacking."""
    k = slots.size
    w = np.zeros((k, k))
    for i in range(k):
        w[i, i] = own_g1
        if i > 0:
            w[i, :i] = kernel.eval(slots[i] - slots[:i])
    return w


def _grouped_search(kernel, lam, psi, max_len, volume_grid, budget=10**7,
                    own_impact="full"):
    """The search before the fused cost product, kept as its oracle: per sum
    group it gathers both halves' rows and adds the two half costs to their
    cross term, over blocks of up to 4M candidates."""
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
    own_g1 = float(kernel.eval(1)) * (1.0 if own_impact == "full" else 0.5)

    best_cost = 0.0
    best = None
    for k in range(2, max_len + 1):
        kl = k // 2
        kr = k - kl
        left = _index_tuples(n_sym, kl, True, values)
        right = _index_tuples(n_sym, kr, False, values)
        if left.size == 0 or right.size == 0:
            continue
        sl = values[left].sum(axis=1)
        sr = values[right].sum(axis=1)
        ql, ul = values[left], uvals[left]
        qr, ur = values[right], uvals[right]
        sums = np.unique(sl)
        groups = []
        for ssum in sums:
            li = np.nonzero(sl == ssum)[0]
            ri = np.nonzero(sr == -ssum)[0]
            if li.size and ri.size:
                groups.append((li, ri))
        if not groups:
            continue
        for pat in combinations(range(2, max_len + 1), k - 1):
            slots = np.array((1,) + pat, dtype=np.float64)
            w = _per_row_w(kernel, slots, own_g1)
            wl = w[:kl, :kl]
            wr = w[kl:, kl:]
            wx = w[kl:, :kl]
            cl = np.einsum("bi,ij,bj->b", ql, wl, ul)
            cr = np.einsum("bi,ij,bj->b", qr, wr, ur)
            xr = qr @ wx
            for li, ri in groups:
                report["evaluated"] += li.size * ri.size
                chunk = max(1, 4_000_000 // max(1, li.size))
                for c0 in range(0, ri.size, chunk):
                    rc = ri[c0 : c0 + chunk]
                    cross = xr[rc] @ ul[li].T
                    cost = cross + cl[li][None, :] + cr[rc][:, None]
                    am = np.unravel_index(np.argmin(cost), cost.shape)
                    cmin = float(cost[am])
                    if lam * cmin < best_cost - 1e-15:
                        lidx, ridx = li[am[1]], rc[am[0]]
                        q = np.concatenate([values[left[lidx]], values[right[ridx]]])
                        best_cost = lam * cmin
                        best = Strategy(
                            tuple((int(s), float(qq)) for s, qq in zip(slots, q)),
                            max_len,
                        )
    return best_cost, best, report


def _per_pattern_search(kernel, lam, psi, max_len, volume_grid, budget=10**7,
                        own_impact="full"):
    """The search before pattern stacking, kept as its bit-exact oracle: one
    cost product per slot pattern and tile, each pattern's impact matrix
    built row by row, the tie rule on lam-scaled costs (alike at lam = 1)."""
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
    own_g1 = float(kernel.eval(1)) * (1.0 if own_impact == "full" else 0.5)

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
        tiles = [t for g in groups for t in manipulation._tiles(*g)]
        per_pattern = sum((r1 - r0) * (l1 - l0) for r0, r1, l0, l1 in tiles)
        lmat = np.ones((ql.shape[0], kl + 2))
        lmat[:, :kl] = ul
        rmat = np.ones((qr.shape[0], kl + 2))
        for pat in combinations(range(2, max_len + 1), k - 1):
            slots = np.array((1,) + pat, dtype=np.float64)
            w = _per_row_w(kernel, slots, own_g1)
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


def _assert_matches_per_pattern_search(kernel, psi, max_len, grid, own_impact="full"):
    """The same cost bits, argmin strategy and report as the per-pattern search."""
    args = (kernel, 1.0, psi, max_len, grid, 10**7, own_impact)
    cost, strat, rep = search_round_trips(*args)
    o_cost, o_strat, o_rep = _per_pattern_search(*args)
    assert cost == o_cost and strat == o_strat and rep == o_rep


def _assert_matches_grouped_search(args, scale, ties=False):
    """Same evaluated count and argmin as the grouped search, and a minimum
    within 1e-12 of `scale`, the size of the largest term a cost sums. With
    `ties`, the argmins may differ where both re-cost alike within that
    margin: an exact tie that the rounding of each sum order decides."""
    kernel, lam, psi, _, _, _, own_impact = args
    cost, strat, rep = search_round_trips(*args)
    w_cost, w_strat, w_rep = _grouped_search(*args)
    assert rep == w_rep
    assert abs(cost - w_cost) <= 1e-12 * scale
    if ties and strat != w_strat:
        recost = [0.0 if s is None else strategy_cost(s, kernel, lam, psi, own_impact)
                  for s in (strat, w_strat)]
        assert abs(recost[0] - recost[1]) <= 1e-12 * scale
    else:
        assert strat == w_strat


def test_strategy_validation():
    with pytest.raises(ParameterError):
        Strategy(((1, 0.0),), 4)
    with pytest.raises(InputError):
        Strategy(((5, 1.0),), 4)
    with pytest.raises(ParameterError):
        Strategy(((2, 1.0), (2, -1.0)), 4)


def test_single_buy_pays_its_own_impact():
    assert strategy_cost(Strategy(((1, 1.0),), 1), Kernel.permanent(), 1.0, 1.0) == 1.0


def test_the_empty_strategy_costs_nothing():
    assert strategy_cost(Strategy((), 5), Kernel.power_law(0.5), 1.0, 0.5) == 0.0


def test_own_impact_half_charges_half():
    s = Strategy(((1, 2.0),), 1)
    assert strategy_cost(s, Kernel.permanent(), 1.0, 1.0) == 4.0
    assert strategy_cost(s, Kernel.permanent(), 1.0, 1.0, own_impact="half") == 2.0
    with pytest.raises(ParameterError):
        strategy_cost(s, Kernel.permanent(), 1.0, 1.0, own_impact="none")


def test_nine_buys_one_sell_worked_example():
    # permanent impact, psi=0.5: buys walk the price up 1..9, the sell of 9
    # only concedes sqrt(9)=3, banking 9
    nine = Strategy(tuple((s, 1.0) for s in range(1, 10)) + ((10, -9.0),), 10)
    assert abs(strategy_cost(nine, Kernel.permanent(), 1.0, 0.5) + 9.0) < 1e-12
    # linear impact: the same shape strictly loses
    lin = strategy_cost(nine, Kernel.permanent(), 1.0, 1.0)
    assert abs(lin - 45.0) < 1e-12
    assert strategy_cost(nine, Kernel.permanent(), 2.0, 1.0) == 2 * lin


def test_cost_is_odd_under_mirroring_and_linear_in_lam():
    s = Strategy(((1, 2.0), (3, -1.0), (5, -1.0)), 6)
    k = Kernel.power_law(0.4)
    c = strategy_cost(s, k, 1.3, 0.6)
    mirrored = Strategy(tuple((slot, -q) for slot, q in s.trades), s.horizon)
    assert strategy_cost(mirrored, k, 1.3, 0.6) == c
    assert abs(strategy_cost(s, k, 2.6, 0.6) - 2 * c) < 1e-14


def test_count_round_trips_matches_brute_force():
    _, _, seen = _brute_force(Kernel.permanent(), 1.0, 1.0, 4, (1, 2))
    assert count_round_trips(4, (1, 2)) == seen == 33
    _, _, seen6 = _brute_force(Kernel.permanent(), 1.0, 1.0, 6, (1, 5))
    assert count_round_trips(6, (1, 5)) == seen6 == 396


def test_count_degenerate_grids():
    assert count_round_trips(1, (1, 2)) == 0
    assert count_round_trips(4, ()) == 0
    with pytest.raises(ParameterError):
        count_round_trips(4, (1.5,))


def test_search_matches_brute_force_minimum():
    kern = Kernel.permanent()
    b_cost, b_strat, _ = _brute_force(kern, 1.0, 0.3, 6, (1, 5))
    cost, strat, report = search_round_trips(kern, 1.0, 0.3, 6, (1.0, 5.0))
    assert abs(cost - b_cost) < 1e-12
    assert strat.trades == b_strat
    assert report["evaluated"] == report["candidates"] == 396
    # concave impact lets five unit buys ride ahead of one block sell
    assert abs(b_cost - 5.0 * (5.0**0.3 - 2.0)) < 1e-12


def test_search_returns_empty_strategy_when_no_profit_exists():
    cost, strat, _ = search_round_trips(Kernel.permanent(), 1.0, 1.0, 6, (1.0, 2.0))
    assert cost == 0.0 and strat is None


def test_search_budget_refusal_reports_the_size():
    with pytest.raises(SearchBudgetError) as exc_info:
        search_round_trips(Kernel.permanent(), 1.0, 0.5, 10, (1, 2, 4, 8, 9), budget=100)
    err = exc_info.value
    assert err.count == count_round_trips(10, (1, 2, 4, 8, 9)) == 266_637_232
    assert err.budget == 100
    assert str(err.count) in str(err) and "100" in str(err)


def test_search_guards():
    with pytest.raises(ParameterError):
        search_round_trips(Kernel.permanent(), 1.0, 0.5, 13, (1,))
    with pytest.raises(ParameterError):
        search_round_trips(Kernel.permanent(), -1.0, 0.5, 4, (1,))
    s = Strategy(((1, 2.0), (2, -2.0)), 2)
    for lam, psi in ((np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ParameterError, match="finite"):
            search_round_trips(Kernel.permanent(), lam, psi, 4, (1,))
        with pytest.raises(ParameterError, match="finite"):
            strategy_cost(s, Kernel.permanent(), lam, psi)


def test_frontier_rows_follow_the_diagonal_rule():
    rows = gatheral_frontier([0.0, 0.8], [1.0, 0.3], max_len=6, volume_grid=(1, 5))
    table = {(r["beta"], r["psi"]): r for r in rows}
    assert len(rows) == 4
    assert table[(0.0, 1.0)]["min_cost"] >= 0.0
    assert table[(0.0, 0.3)]["min_cost"] < 0.0  # deep concavity leaks profit
    assert table[(0.8, 1.0)]["min_cost"] >= 0.0
    assert table[(0.8, 0.3)]["candidates"] == 396
    assert table[(0.0, 0.3)]["argmin"] is not None


def test_frontier_rows_count_the_pairs_evaluated_against_the_budget():
    """Each row holds the candidates counted, the pairs evaluated and the
    budget, the first two the exact count of the grid's round trips."""
    n = count_round_trips(5, (1, 2, 3))
    rows = gatheral_frontier([0.0, 0.5], [0.5], max_len=5, volume_grid=(1, 2, 3), budget=n)
    assert n > 0 and len(rows) == 2
    for row in rows:
        assert (row["candidates"], row["evaluated"], row["budget"]) == (n, n, n)
    assert gatheral_frontier([0.5], [0.5], max_len=1)[0]["evaluated"] == 0


@settings(max_examples=80, deadline=None)
@given(
    grid=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
    max_len=st.integers(2, 7),
    beta=st.floats(0.0, 1.5),
    psi=st.floats(0.0, 1.2, exclude_min=True).filter(lambda p: p >= 0.01),
    own_impact=st.sampled_from(["full", "half"]),
)
def test_search_matches_the_grouped_search(grid, max_len, beta, psi, own_impact):
    kern = Kernel.power_law(beta)
    args = (kern, 1.0, psi, max_len, tuple(grid), 10**7, own_impact)
    # the permanent kernel with half own impact ties many round trips exactly
    _assert_matches_grouped_search(args, max_len**2 * max(grid) ** (1.0 + psi), ties=True)


@pytest.mark.parametrize("values", [
    (1.0, 0.25, 0.75, 0.5, 0.5, 0.25),
    (1.0, 0.5, 1.0, 0.25),
    (1.0, 0.125, 0.5, 0.5, 0.25, 0.25, 0.125),
])
@pytest.mark.parametrize("grid", [(1, 2, 3), (1, 2, 4), (1, 3)])
@pytest.mark.parametrize("own_impact", ["full", "half"])
def test_exact_ties_keep_the_first_round_trip(values, grid, own_impact):
    """Dyadic kernel values at psi = 1 make every cost exact in any sum
    order, so many round trips tie bit for bit; the enumeration order and
    the first-strictly-better rule alone pick the argmin."""
    kern = Kernel.tabulated(np.array(values))
    for max_len in (5, 7):
        args = (kern, 1.0, 1.0, max_len, grid, 10**7, own_impact)
        _assert_matches_grouped_search(args, scale=0.0)  # exact


def test_default_frontier_matches_the_grouped_search():
    # the 20 cells `manip` runs with default flags
    grid = (1.0, 2.0, 4.0, 8.0)
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        for psi in (0.25, 0.5, 0.75, 1.0):
            args = (Kernel.power_law(beta), 1.0, psi, 8, grid, 10**7, "full")
            _assert_matches_grouped_search(args, 64 * 8.0 ** (1.0 + psi))


def test_search_splits_groups_wider_than_a_block(monkeypatch):
    """At a block of 4 entries, a group of at most 4 left rows is tiled by
    whole rows and a wider one by pieces of single right rows; either way the
    tiles cover the group in row-major order and the search still matches the
    grouped search."""
    monkeypatch.setattr(manipulation, "_BLOCK_ENTRIES", 4)
    tiles, made = manipulation._tiles, []

    def recording(*group):
        made.append((group, list(tiles(*group))))
        return made[-1][1]

    monkeypatch.setattr(manipulation, "_tiles", recording)
    for beta, psi in ((0.5, 0.5), (0.25, 0.3), (1.0, 1.0)):
        args = (Kernel.power_law(beta), 1.0, psi, 6, (1, 2, 3), 10**7, "full")
        _assert_matches_grouped_search(args, 36 * 3.0 ** (1.0 + psi), ties=True)
    widths = {l1 - l0 for (_, _, l0, l1), _ in made}
    assert min(widths) <= 4 < max(widths)
    for (r0, r1, l0, l1), group_tiles in made:
        cells = [(r, c) for t0, t1, c0, c1 in group_tiles
                 for r in range(t0, t1) for c in range(c0, c1)]
        assert cells == [(r, c) for r in range(r0, r1) for c in range(l0, l1)]
        assert all((t1 - t0) * (c1 - c0) <= 4 for t0, t1, c0, c1 in group_tiles)
        if l1 - l0 > 4:
            assert all(t1 - t0 == 1 for t0, t1, _, _ in group_tiles)


_DEFAULT_CELLS = [(beta, psi) for beta in (0.0, 0.25, 0.5, 0.75, 1.0)
                  for psi in (0.25, 0.5, 0.75, 1.0)]


@pytest.mark.parametrize("own_impact", ["full", "half"])
def test_default_frontier_matches_the_per_pattern_search(own_impact):
    # the 20 cells `manip` runs with default flags, bit for bit
    for beta, psi in _DEFAULT_CELLS:
        _assert_matches_per_pattern_search(Kernel.power_law(beta), psi, 8, (1, 2, 4, 8),
                                           own_impact)


@pytest.mark.parametrize("kernel", [Kernel.power_law(0.5), Kernel.power_law(0.3, g1=1.7,
                                                                            plateau=0.01)])
def test_search_matches_the_per_pattern_search(kernel):
    for grid, max_len in (((1, 2), 6), ((1, 3, 5), 7), ((1, 2, 4, 8), 8)):
        for psi in (0.3, 0.75):
            for own_impact in ("full", "half"):
                _assert_matches_per_pattern_search(kernel, psi, max_len, grid, own_impact)


def test_search_at_a_block_of_four_matches_the_per_pattern_search(monkeypatch):
    """At a block of 4 entries tiles split single right rows and each batch
    holds one slot pattern, as in the per-pattern search."""
    monkeypatch.setattr(manipulation, "_BLOCK_ENTRIES", 4)
    grid, max_len = (1, 2, 4), 6
    tables = _search_tables(max_len, tuple(_symbol_values(grid).tolist()), 4)
    assert {batch for _, _, _, _, _, batch, _ in tables} == {1}
    # a right row split across consecutive tiles
    assert any(a[0] == b[0] for table in tables for a, b in zip(table[4], table[4][1:]))
    for beta, psi in ((0.5, 0.5), (0.25, 0.3), (1.0, 1.0)):
        for own_impact in ("full", "half"):
            _assert_matches_per_pattern_search(Kernel.power_law(beta), psi, max_len, grid,
                                               own_impact)


def test_searches_share_the_tables_of_their_grid(monkeypatch):
    """Searches alternating grids and lengths match the per-pattern search;
    a grid spelled with repeats and out of order reuses the tables of its
    sorted distinct values; a block size other than the one the tables were
    tiled at builds them anew; the shared arrays are read-only."""
    kern = Kernel.power_law(0.25)
    for grid, max_len in (((1, 2, 4, 8), 6), ((1, 2), 8), ((1, 2, 4, 8), 8), ((1, 2), 6),
                          ((1, 2, 4, 8), 6)):
        _assert_matches_per_pattern_search(kern, 0.5, max_len, grid)
    hits = _search_tables.cache_info().hits
    spelled = search_round_trips(kern, 1.0, 0.5, 6, (2, 1, 1, 4, 8))
    assert _search_tables.cache_info().hits == hits + 1
    assert spelled == search_round_trips(kern, 1.0, 0.5, 6, (1, 2, 4, 8))
    tables = _search_tables(6, tuple(_symbol_values((1, 2, 4, 8)).tolist()), _BLOCK_ENTRIES)
    for _, lrows, rrows, stack, _, _, _ in tables:
        for a in (lrows, rrows, stack):
            with pytest.raises(ValueError):
                a[0, 0] = 2
    monkeypatch.setattr(manipulation, "_BLOCK_ENTRIES", 4)
    tiles, made = manipulation._tiles, []

    def recording(*group):
        made.extend(tiles(*group))
        return tiles(*group)

    monkeypatch.setattr(manipulation, "_tiles", recording)
    _assert_matches_per_pattern_search(kern, 0.5, 6, (1, 2, 4, 8))
    assert made and all((r1 - r0) * (l1 - l0) <= 4 for r0, r1, l0, l1 in made)


def test_the_tie_tolerance_is_per_unit_lam():
    """Costs are linear in lam, so a cell that manipulates at lam = 1 does at
    every lam > 0, with the same argmin; lam = 0 keeps the empty strategy."""
    kern = Kernel.permanent()
    cost, strat, _ = search_round_trips(kern, 1.0, 0.3, 6, (1, 5))
    assert cost == -1.8967170165361882
    assert strat.trades == tuple((s, 1.0) for s in range(1, 6)) + ((6, -5.0),)
    for lam in (1e-3, 1e-14, 1e-16, 1e-18):
        assert search_round_trips(kern, lam, 0.3, 6, (1, 5))[:2] == (lam * cost, strat)
    assert search_round_trips(kern, 0.0, 0.3, 6, (1, 5))[:2] == (0.0, None)


def test_frontier_evaluates_the_kernel_once_per_trade_count(monkeypatch):
    """A default frontier cell calls Kernel.eval for G(1) and once per trade
    count, 8 times, not once per impact-matrix row."""
    calls, evaluate = [], Kernel.eval

    def counting(self, lags):
        calls.append(np.size(lags))
        return evaluate(self, lags)

    monkeypatch.setattr(Kernel, "eval", counting)
    rows = gatheral_frontier([0.0, 0.25, 0.5, 0.75, 1.0], [0.25, 0.5, 0.75, 1.0])
    assert len(rows) == 20 and len(calls) <= 8 * 20


def _psi1_form(slots, beta, own=1.0):
    """S with q' S q the psi = 1 cost of volumes q on `slots` under the
    power law G(l) = l^-beta: own * G(1) on the diagonal, G(|t_i - t_j|) / 2
    off it."""
    t = np.asarray(slots, dtype=np.float64)
    gap = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(gap, 1.0)
    s = 0.5 * gap ** (-beta)
    np.fill_diagonal(s, own)
    return s


def test_psi1_form_is_the_strategy_cost():
    slots, q = (1, 2, 5, 6), np.array([2.0, -1.0, 3.0, -4.0])
    for beta in (0.0, 0.7):
        s = _psi1_form(slots, beta)
        cost = strategy_cost(Strategy(tuple(zip(slots, q)), 6), Kernel.power_law(beta), 1.0, 1.0)
        assert abs(cost - q @ s @ q) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 1.5])
def test_psi1_certificate_and_the_search_agree(beta):
    """Full own impact at psi = 1: S is positive definite on the zero-sum
    subspace for every pattern of up to 10 slots (Gatheral 2010; Alfonsi,
    Schied and Slynko 2012), so no round trip profits and the search keeps
    the empty strategy at exactly 0."""
    smallest = np.inf
    for k in range(2, 11):
        basis = np.linalg.qr((np.eye(k) - 1.0 / k)[:, :-1])[0]  # zero-sum subspace
        for tail in combinations(range(2, 11), k - 1):
            s = _psi1_form((1,) + tail, beta)
            smallest = min(smallest, np.linalg.eigvalsh(basis.T @ s @ basis)[0])
    assert smallest >= 0.25
    for grid in ((1,), (1, 2), (1, 3, 5), (2, 7)):
        cost, strat, _ = search_round_trips(Kernel.power_law(beta), 1.0, 1.0, 6, grid)
        assert cost == 0.0 and strat is None


def test_search_memory_stays_bounded_past_the_block_cap():
    """A search whose largest zero-sum group holds more candidates than one
    cost block allocates under 16 MB at its peak: the index tables, the two
    augmented operands and one block. The grouped search held up to three
    4M-entry (32 MB) arrays at once."""
    grid, max_len = (1, 2, 3, 4, 5, 6, 7), 8
    values = _symbol_values(grid)
    left = values[_index_tuples(values.size, 4, True, values)].sum(axis=1)
    right = values[_index_tuples(values.size, 4, False, values)].sum(axis=1)
    largest = max(int((left == s).sum()) * int((right == -s).sum()) for s in np.unique(left))
    assert largest > _BLOCK_ENTRIES
    budget = count_round_trips(max_len, grid)
    tracemalloc.start()
    try:
        _, _, rep = search_round_trips(Kernel.power_law(0.5), 1.0, 0.5, max_len, grid,
                                       budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["evaluated"] == budget
    assert peak < 16 * 2**20
