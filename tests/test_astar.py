"""Best-first decoding: exactness, admissibility, dominance, limits."""

import heapq
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse import astar
from amparse.astar import HEURISTICS, HeuristicTables, astar_parse, build_heuristic
from amparse.chart import GOAL_SIG, chart_parse, outside_costs
from amparse.costs import INF, CostParams, SentenceCosts, gen_synthetic
from amparse.trees import BOTTOM, IGNORE, ROOT
from test_lexicon import small_lexicons


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


def test_dequeue_limit_below_one_rejected(costs, lex):
    with pytest.raises(ValueError, match=r"^dequeue_limit must be at least 1, got 0$"):
        astar_parse(costs, lex, dequeue_limit=0)


def thinned_costs(seed, n, lexicon):
    """Uniform costs with each tag deleted with probability 1/3, so that many
    sentences have no parse."""
    c = gen_synthetic(seed, n, lexicon)
    rng = random.Random(10 * seed + n)
    for key in list(c.tag_cost):
        if rng.random() < 1 / 3:
            del c.tag_cost[key]
    return c


def brute_force_estimate(kind, c):
    """(per_token, attach_floor) of an estimate, from its definition in
    amparse.astar over tag_cost and the edge_cost view."""
    per, floor = [], []
    for j in range(1, c.n + 1):
        tags = {g: x for (i, g), x in c.tag_cost.items() if i == j}
        real = min((x for g, x in tags.items() if g != BOTTOM), default=INF)
        any_tag = min(tags.values(), default=INF)
        into = [(label, x) for (_, t, label), x in c.edge_cost.items() if t == j]
        attach = min((x for label, x in into if label.kind in ("app", "mod")), default=INF)
        root = min((x for label, x in into if label == ROOT), default=INF)
        ignore = min((x for label, x in into if label == IGNORE), default=INF)
        per.append({
            "trivial": 0.0,
            "supertag": any_tag,
            "edge": any_tag + min(attach, root, ignore),
            "ignore-aware": min(tags.get(BOTTOM, INF) + ignore, real + attach, real + root),
        }[kind])
        floor.append(0.0 if kind in ("trivial", "supertag") else min(attach, root))
    return tuple(per), tuple(floor)


def thinned_everywhere(seed, n, lexicon):
    """Uniform costs with each tag and each edge dropped with probability 1/3."""
    c = gen_synthetic(seed, n, lexicon)
    rng = random.Random(seed)
    return SentenceCosts(n, c.forms, {k: x for k, x in c.tag_cost.items() if rng.random() >= 1 / 3},
                         {k: x for k, x in c.edge_cost.items() if rng.random() >= 1 / 3}, c.sid)


def assert_estimates_match_their_definitions(c):
    for h in HEURISTICS:
        tables = build_heuristic(h, c, None)  # no estimate reads the lexicon
        assert (tables.per_token, tables.attach_floor) == brute_force_estimate(h, c), h


@pytest.mark.parametrize("seed", range(6))
def test_every_estimate_is_its_definition_bit_for_bit(lex, closed_lex, costs, seed):
    """Both tables of every estimate equal the brute-force formula exactly,
    on uniform and thinned costs, read from rows a decode has built."""
    if seed == 0:
        assert_estimates_match_their_definitions(costs)
    for lexicon in (lex, closed_lex):
        for n in (1, 3, 6):
            for c in (gen_synthetic(seed, n, lexicon), thinned_costs(seed, n, lexicon),
                      thinned_everywhere(seed, n, lexicon)):
                astar_parse(c, lexicon, k_tags=2 if seed % 2 else None)
                assert_estimates_match_their_definitions(c)


@given(small_lexicons(), st.integers(1, 5), st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_every_estimate_is_its_definition_on_random_lexicons(lexicon, n, seed, thin):
    c = (thinned_everywhere if thin else gen_synthetic)(seed, n, lexicon)
    assert_estimates_match_their_definitions(c)


def test_limit_at_exhaustion_is_not_hit(closed_lex):
    """A no-parse search limited to its own unlimited dequeued count reports
    no limit: the entries left at the limit are stale ones of settled
    signatures, which are no work.  It ends exactly as the unlimited run."""
    checked = 0
    for seed in range(40):
        for n in range(2, 7):
            c = thinned_costs(seed, n, closed_lex)
            for k in (1, 2, None):
                full = astar_parse(c, closed_lex, k_tags=k)
                if full.ok or full.stats.dequeued == 0:
                    continue
                at = astar_parse(c, closed_lex, k_tags=k, dequeue_limit=full.stats.dequeued)
                assert (at.stats, list(at.settled)) == (full.stats, list(full.settled))
                checked += 1
    assert checked > 100


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


@given(st.lists(st.floats(0, 1e6) | st.sampled_from([0.0, 0.1, 0.2, 0.3, INF]),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_outside_equals_the_direct_sum_bit_for_bit(per_token):
    tables = HeuristicTables("edge", tuple(per_token), (0.0,) * len(per_token))
    n = len(per_token)
    for i in range(1, n + 1):
        for k in range(i + 1, n + 2):
            direct = 0.0
            for x in per_token[: i - 1] + per_token[k - 1:]:
                direct += x
            assert tables.outside(i, k) == direct, (i, k)


def _peaked(seed, n, lx):
    """Costs in [1, 2) except 0 on the decisions of a projective optimum."""
    tree = chart_parse(gen_synthetic(seed, n, lx), lx).tree
    c = gen_synthetic(seed + 1, n, lx, CostParams(1.0, 2.0))
    tags, edges = dict(c.tag_cost), dict(c.edge_cost.items())
    for i, e in enumerate(tree.entries, 1):
        tags[(i, e.constant)] = 0.0
        edges[(e.head, i, e.label)] = 0.0
    return SentenceCosts(n, c.forms, tags, edges)


def test_pushes_of_a_signature_strictly_fall(closed_lex, monkeypatch):
    """The push bar: a signature enters the queue again only at a lower cost."""
    pushed = []

    def record(heap, entry):
        pushed.append((entry[7], entry[6]))  # (sig, inside cost)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(astar, "heapq", SimpleNamespace(heappush=record, heappop=heapq.heappop))
    for seed in range(8):
        for c in (gen_synthetic(seed, 3 + seed, closed_lex), _peaked(seed, 3 + seed, closed_lex)):
            for h in HEURISTICS:
                pushed.clear()
                res = astar_parse(c, closed_lex, heuristic=h)
                assert len(pushed) == res.stats.pushed
                last = {}
                for sig, cost in pushed:
                    assert cost < last.get(sig, INF), (seed, h, sig)
                    last[sig] = cost


@pytest.mark.parametrize("n", [10, 14])
def test_pushes_per_pop_are_bounded_on_uniform_costs(closed_lex, n):
    """Without the bar A* pushed up to 31 (n = 10) and 59 (n = 14) items per pop here."""
    for seed in range(1000, 1010):
        stats = astar_parse(gen_synthetic(seed, n, closed_lex), closed_lex).stats
        assert stats.pushed <= 8 * stats.dequeued, (seed, stats)


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
