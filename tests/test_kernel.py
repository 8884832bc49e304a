"""The compiled type table, and the decoders that read it, on random closed
lexicons as well as the demo lexicon."""

from hypothesis import given, settings
from hypothesis import strategies as st

from amparse.astar import HEURISTICS, astar_parse
from amparse.chart import chart_parse
from amparse.costs import INF, gen_synthetic
from amparse.exhaustive import best_analysis_cost
from amparse.lexicon import augment_closure
from amparse.types import EMPTY_TYPE, parse_type, serialize_type, type_combine

from test_lexicon import small_lexicons

closed_lexicons = small_lexicons().map(augment_closure)


def test_demo_table(closed_lex):
    table = closed_lex.type_table
    assert [str(t) for t in table.types] == ["[]", "[m, s]", "[m]", "[o[s], s]", "[s]"]
    assert table.empty_id == table.ids[EMPTY_TYPE] == 0
    # sleep takes its subject from the left: [] on the left, [s] heads on the right
    sleep, writer = table.ids[parse_type("[s]")], table.ids[parse_type("[]")]
    assert [(str(l), r, h) for l, r, h in table.combine[writer][sleep]] == [("APP_s", 0, False)]
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
                        want.append((lbl, table.ids[result], head_is_left))
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
