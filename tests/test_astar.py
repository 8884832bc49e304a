"""Best-first decoding: exactness, admissibility, dominance, limits."""

import random

import pytest

from amparse.astar import HEURISTICS, astar_parse, build_heuristic
from amparse.chart import GOAL_SIG, chart_parse, outside_costs
from amparse.costs import INF, SentenceCosts, gen_synthetic
from amparse.trees import BOTTOM, IGNORE, ROOT


def test_gold_zero_all_heuristics(costs, gold, lex):
    for h in HEURISTICS:
        res = astar_parse(costs, lex, heuristic=h)
        assert res.ok and res.cost == 0.0 and res.tree == gold


def test_unknown_heuristic_rejected(costs, lex):
    with pytest.raises(ValueError):
        astar_parse(costs, lex, heuristic="psychic")


def test_matches_chart_on_random_costs(lex):
    rng = random.Random(3)
    for seed in range(40):
        n = rng.randint(2, 7)
        c = gen_synthetic(seed, n, lex)
        exact = chart_parse(c, lex)
        want = exact.cost if exact.ok else INF
        for h in HEURISTICS:
            res = astar_parse(c, lex, heuristic=h, k_tags=None)
            got = res.cost if res.ok else INF
            if want == INF:
                assert got == INF, f"seed {seed} {h}"
            else:
                assert got == pytest.approx(want, abs=1e-9), f"seed {seed} {h}"
                assert res.tree == exact.tree or abs(got - want) < 1e-9


def test_estimates_admissible_and_dominated(lex):
    """Each estimate under-counts the true outside cost; later kinds dominate
    earlier ones pointwise (including the head attachment floor)."""
    for seed in range(12):
        c = gen_synthetic(seed, 5, lex)
        res = chart_parse(c, lex, record_hyperedges=True)
        if not res.ok:
            continue
        out = outside_costs(res)
        tables = {h: build_heuristic(h, c, lex) for h in HEURISTICS}
        for sig, true_outside in out.items():
            if sig == GOAL_SIG:
                continue
            i, k, head, _ = sig
            prev = None
            for h in HEURISTICS:
                est = tables[h].estimate(i, k, head)
                assert est <= true_outside + 1e-9, (h, sig)
                if prev is not None:
                    assert est >= prev - 1e-9, (h, sig)
                prev = est


def test_sharper_heuristics_dequeue_no_more(lex):
    """Consistency makes every dequeue count <= the chart's signature count;
    the informed heuristics should also beat trivial in aggregate."""
    totals = {h: 0 for h in HEURISTICS}
    chart_items = 0
    for seed in range(15):
        c = gen_synthetic(seed, 6, lex)
        chart_items += chart_parse(c, lex).stats.n_items
        for h in HEURISTICS:
            totals[h] += astar_parse(c, lex, heuristic=h, k_tags=None).stats.dequeued
    assert totals["ignore-aware"] <= totals["trivial"]
    for h in HEURISTICS:
        assert totals[h] <= chart_items


def test_dequeue_limit_aborts(costs, lex):
    res = astar_parse(costs, lex, dequeue_limit=1)
    assert res.stats.limit_hit and not res.ok and res.cost == INF


def test_settle_once(lex):
    # consistent estimates mean no signature is ever popped twice, so the
    # number of dequeues can never exceed the number of settled signatures
    c = gen_synthetic(5, 6, lex)
    res = astar_parse(c, lex, heuristic="ignore-aware", k_tags=None)
    assert res.stats.dequeued <= len(res.settled)


def test_outside_memo_matches_direct_sum(lex):
    c = gen_synthetic(11, 7, lex)
    for h in HEURISTICS:
        tables = build_heuristic(h, c, lex)
        for _ in range(2):  # the second round reads the memo
            for i in range(1, c.n + 1):
                for k in range(i + 1, c.n + 2):
                    direct = 0.0
                    for j, x in enumerate(tables.per_token, start=1):
                        if not i <= j < k:
                            direct += x
                    assert tables.outside(i, k) == direct


def test_long_sparse_sentence_does_not_recurse(lex):
    """1,500 tokens, one real token, a chain of 1,499 skips to extract."""
    n = 1500
    tags = {(1, "writer"): 1.0}
    edges = {(0, 1, ROOT): 1.0}
    for j in range(2, n + 1):
        tags[(j, BOTTOM)] = 0.0
        edges[(0, j, IGNORE)] = 0.0
    c = SentenceCosts(n, tuple(f"w{i}" for i in range(1, n + 1)), tags, edges)
    res = astar_parse(c, lex)
    assert res.ok and res.cost == 2.0
    assert res.tree.token(1).label == ROOT
