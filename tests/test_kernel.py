"""The compiled type table, and the decoders that read it, on random closed
lexicons as well as the demo lexicon."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse import rules
from amparse.astar import HEURISTICS, astar_parse
from amparse.chart import chart_parse
from amparse.costs import INF, gen_synthetic
from amparse.exhaustive import best_analysis_cost
from amparse.lexicon import augment_closure
from amparse.rules import ParseItem
from amparse.trees import app, label_id
from amparse.types import EMPTY_TYPE, parse_type, serialize_type, type_combine

from test_golden import _make_fixtures
from test_lexicon import small_lexicons

closed_lexicons = small_lexicons().map(augment_closure)
tie_heavy = _make_fixtures().tie_heavy


def _costs(lx, n, seed, ties):
    """Uniform synthetic costs, or the same decisions redrawn from {0, 1, 2}."""
    c = gen_synthetic(seed, n, lx)
    return tie_heavy(c, seed) if ties else c


def test_demo_table(closed_lex):
    table = closed_lex.type_table
    assert [str(t) for t in table.types] == ["[]", "[m, s]", "[m]", "[o[s], s]", "[s]"]
    assert table.empty_id == table.ids[EMPTY_TYPE] == 0
    # sleep takes its subject from the left: [] on the left, [s] heads on the right
    sleep, writer = table.ids[parse_type("[s]")], table.ids[parse_type("[]")]
    assert [(str(l), i, r, h) for l, i, r, h in table.combine[writer][sleep]] == [
        ("APP_s", label_id(app("s")), 0, False)
    ]
    assert closed_lex.type_table is table


@given(closed_lexicons)
@settings(max_examples=60, deadline=None)
def test_combine_agrees_with_type_combine(lx):
    table = lx.type_table
    for name in lx.constants:
        assert lx.type_of(name) in table.ids
    for lt, left in enumerate(table.types):
        for rt, right in enumerate(table.types):
            want = []
            for lbl in lx.arc_labels:
                for head, arg, head_is_left in ((left, right, True), (right, left, False)):
                    result = type_combine(lbl, head, arg)
                    if result is not None:
                        assert result in table.ids, "table not closed under combination"
                        want.append((lbl, label_id(lbl), table.ids[result], head_is_left))
            assert table.combine[lt][rt] == tuple(want)


@given(closed_lexicons)
@settings(max_examples=60, deadline=None)
def test_ids_follow_serialization_order(lx):
    table = lx.type_table
    texts = [serialize_type(t) for t in table.types]
    assert texts == sorted(set(texts))
    assert all(table.ids[t] == i for i, t in enumerate(table.types))


@given(closed_lexicons, st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_chart_matches_enumeration(lx, n, seed):
    c = gen_synthetic(seed, n, lx)
    res = chart_parse(c, lx)
    got = res.cost if res.ok else INF
    want = best_analysis_cost(c, lx)
    assert (got == want == INF) or abs(got - want) <= 1e-12


@given(closed_lexicons, st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_astar_matches_chart(lx, n, seed):
    c = gen_synthetic(seed, n, lx)
    exact = chart_parse(c, lx)
    want = exact.cost if exact.ok else INF
    for h in HEURISTICS:
        res = astar_parse(c, lx, heuristic=h, k_tags=None)
        got = res.cost if res.ok else INF
        assert (got == want == INF) or abs(got - want) <= 1e-9, h


@pytest.mark.parametrize("decode", [chart_parse, astar_parse])
def test_unknown_constant_is_a_clear_error(lex, costs, decode):
    costs.tag_cost[(2, "nosuch")] = 0.0
    with pytest.raises(ValueError, match=r"^sentence demo: tag for unknown constant 'nosuch'$"):
        decode(costs, lex)


@given(closed_lexicons, st.integers(1, 6), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_bar_leaves_the_chart_exact(lx, n, seed, ties):
    """The chart's bar drops only consequences that could not replace an item:
    the chart equals the one built without a bar (recording hyperedges turns
    it off), key for key in insertion order, with the same costs and
    back-pointers."""
    c = _costs(lx, n, seed, ties)
    barred = chart_parse(c, lx).best
    unbarred = chart_parse(c, lx, record_hyperedges=True).best
    assert list(barred.items()) == list(unbarred.items())


@given(closed_lexicons, st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_arcs_emits_what_beats_the_bar(lx, ties, data):
    """With a bar, arcs emits exactly the consequences of the barless run
    whose cost is strictly below the bar, in the same order."""
    n = data.draw(st.integers(2, 6))
    c = _costs(lx, n, data.draw(st.integers(0, 10**6)), ties)
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(i + 1, n))
    k = data.draw(st.integers(j + 1, n + 1))
    cost = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 10)
    tids = st.integers(0, len(lx.type_table.types) - 1)

    def side(lo, hi):
        heads_and_types = st.tuples(st.integers(lo, hi - 1), tids)
        pairs = data.draw(st.lists(heads_and_types, min_size=1, max_size=8, unique=True))
        return [(lo, hi, head, typ) for head, typ in pairs]

    lefts, rights = side(i, j), side(j, k)
    items = {sig: ParseItem(data.draw(cost), ("init", "g")) for sig in lefts + rights}

    def run(bar):
        out = []
        rules.arcs(c, lx.type_table, items, lefts, rights, lambda *e: out.append(e), bar)
        return out

    everything = run(rules.NO_BAR)
    assert all(e[1] < INF for e in everything)
    sigs = sorted({e[0] for e in everything})
    # bar values at the emitted costs and the antecedent sums probe both tests' edges
    sums = {items[l].cost + items[r].cost for l in lefts for r in rights}
    values = st.sampled_from(sorted(sums | {e[1] for e in everything})) | cost
    bars = st.dictionaries(st.sampled_from(sigs), values, min_size=1) if sigs else st.just({})
    bar = data.draw(bars)
    assert run(bar.get) == [e for e in everything if e[1] < bar.get(e[0], INF)]
