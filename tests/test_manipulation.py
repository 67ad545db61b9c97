"""Round-trip cost engine and exhaustive search, cross-checked against a
direct brute-force enumeration at small scale, against the grouped search
it replaced, and against the psi = 1 positive-definiteness certificate."""

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
from impactlab.manipulation import _BLOCK_ENTRIES, _index_tuples, _pattern_w, _symbol_values


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
                cost = strategy_cost(
                    Strategy(tuple(zip(slots, qs)), max_len), kernel, lam, psi
                ).expected_cost
                if cost < best - 1e-15:
                    best, best_strategy = cost, tuple(zip(slots, qs))
    return best, best_strategy, n_seen


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
            w = _pattern_w(kernel, slots, own_g1)
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
        recost = [0.0 if s is None else
                  strategy_cost(s, kernel, lam, psi, own_impact).expected_cost
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
    rep = strategy_cost(Strategy(((1, 1.0),), 1), Kernel.permanent(), 1.0, 1.0)
    assert rep.expected_cost == 1.0
    assert rep.exec_prices[0] == 1.0


def test_own_impact_half_charges_half():
    s = Strategy(((1, 2.0),), 1)
    assert strategy_cost(s, Kernel.permanent(), 1.0, 1.0).expected_cost == 4.0
    assert strategy_cost(s, Kernel.permanent(), 1.0, 1.0, own_impact="half").expected_cost == 2.0
    with pytest.raises(ParameterError):
        strategy_cost(s, Kernel.permanent(), 1.0, 1.0, own_impact="none")


def test_nine_buys_one_sell_worked_example():
    # permanent impact, psi=0.5: buys walk the price up 1..9, the sell of 9
    # only concedes sqrt(9)=3, banking 9
    nine = Strategy(tuple((s, 1.0) for s in range(1, 10)) + ((10, -9.0),), 10)
    assert abs(strategy_cost(nine, Kernel.permanent(), 1.0, 0.5).expected_cost + 9.0) < 1e-12
    # linear impact: the same shape strictly loses
    lin = strategy_cost(nine, Kernel.permanent(), 1.0, 1.0).expected_cost
    assert abs(lin - 45.0) < 1e-12
    assert strategy_cost(nine, Kernel.permanent(), 2.0, 1.0).expected_cost == 2 * lin


def test_cost_is_odd_under_mirroring_and_linear_in_lam():
    s = Strategy(((1, 2.0), (3, -1.0), (5, -1.0)), 6)
    k = Kernel.power_law(0.4)
    c = strategy_cost(s, k, 1.3, 0.6).expected_cost
    mirrored = Strategy(tuple((slot, -q) for slot, q in s.trades), s.horizon)
    assert strategy_cost(mirrored, k, 1.3, 0.6).expected_cost == c
    assert abs(strategy_cost(s, k, 2.6, 0.6).expected_cost - 2 * c) < 1e-14


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
        cost = strategy_cost(Strategy(tuple(zip(slots, q)), 6), Kernel.power_law(beta),
                             1.0, 1.0).expected_cost
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
