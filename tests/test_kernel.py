"""The compiled type table, and the decoders that read it, on random closed
lexicons as well as the demo lexicon."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse import rules
from amparse.astar import HEURISTICS, astar_parse
from amparse.chart import chart_parse
from amparse.costs import INF, SentenceCosts, gen_synthetic
from amparse.exhaustive import best_analysis_cost
from amparse.lexicon import augment_closure
from amparse.rules import ParseItem
from amparse.trees import IGNORE, ROOT, app
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
        ("APP_s", table.labels.index(app("s")), 0, False)
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
                        want.append((lbl, table.labels.index(lbl), table.ids[result], head_is_left))
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
    """With per-span slot lists, arcs emits exactly the consequences of the
    unbarred run whose cost is strictly below their slot, in the same order.
    Items on one side may end (left) or start (right) anywhere, as A*'s
    calls pass them, so consequences fall in several spans."""
    n = data.draw(st.integers(2, 6))
    c = _costs(lx, n, data.draw(st.integers(0, 10**6)), ties)
    j = data.draw(st.integers(2, n))
    cost = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 10)
    width = len(lx.type_table.types)
    tids = st.integers(0, width - 1)

    def side(ends):
        def item(span):
            lo, hi = span
            return st.tuples(st.just(span), st.integers(lo, hi - 1), tids)
        sigs = data.draw(st.lists(ends.flatmap(item), min_size=1, max_size=8, unique=True))
        return [((lo, hi, head, typ), data.draw(cost), head, typ) for (lo, hi), head, typ in sigs]

    lefts = side(st.integers(1, j - 1).map(lambda i: (i, j)))
    rights = side(st.integers(j + 1, n + 1).map(lambda k: (j, k)))

    def run(limits):
        out = []
        rules.arcs(c, lx.type_table, rules.label_bases(c, lx.type_table), lefts, rights,
                   lambda *e: out.append(e), limits)
        return out

    everything = run(lambda i, k: [INF] * ((k - i) * width))
    assert all(e[1] < INF for e in everything)
    slots = sorted({e[0] for e in everything})
    # slot values at the emitted costs and the antecedent sums probe both tests' edges
    sums = {left[1] + right[1] for left in lefts for right in rights}
    values = st.sampled_from(sorted(sums | {e[1] for e in everything})) | cost
    bar = data.draw(st.dictionaries(st.sampled_from(slots), values, min_size=1)
                    if slots else st.just({}))

    def limits(i, k):
        return [bar.get((i, k, i + s // width, s % width), INF) for s in range((k - i) * width)]

    assert run(limits) == [e for e in everything if e[1] < bar.get(e[0], INF)]


def test_arcs_reads_each_direction_at_its_own_head(closed_lex):
    """A combine cell with a left-headed and a right-headed arc: for one pair,
    arcs emits both in table order, each at its own head's slot, edge key and
    cost.  Every edge is priced key / 1000, so a delta names the key it read,
    and every slot but the open ones bars all, so a wrong slot drops the
    consequence."""
    table = closed_lex.type_table
    width = len(table.types)
    lt, rt, entries = next(
        (lt, rt, e) for lt, row in enumerate(table.combine) for rt, e in enumerate(row)
        if {head_is_left for *_, head_is_left in e} == {True, False}
    )
    n, m = 6, 7
    edges = {(cid * m + o) * m + t: ((cid * m + o) * m + t) / 1000
             for cid in sorted({lid + 2 for _, lid, _, _ in entries})  # ids in the costs' labels
             for o in range(1, m) for t in range(1, m) if o != t}
    c = SentenceCosts.from_table(n, ("w",) * n, {}, edges, (ROOT, IGNORE) + table.labels)
    lsig, rsig = (2, 4, 3, lt), (4, 7, 5, rt)  # li = 2, rk = 7: slot (head - 2) * width + type
    want = []
    for lbl, lid, typ, head_is_left in entries:
        hd, dep = (3, 5) if head_is_left else (5, 3)
        delta = (((lid + 2) * m + hd) * m + dep) / 1000
        assert delta == c.edge(hd, dep, lbl) != c.edge(dep, hd, lbl)
        want.append(((2, 7, hd, typ), 0.5 + 0.25 + delta, delta, ("arc", lsig, rsig, lbl)))

    def run(open_sigs):
        slots = [0.0] * (5 * width)
        for sig in open_sigs:
            slots[(sig[2] - 2) * width + sig[3]] = INF
        out = []
        rules.arcs(c, table, rules.label_bases(c, table), [(lsig, 0.5, 3, lt)], [(rsig, 0.25, 5, rt)],
                   lambda *e: out.append(e), lambda i, k: slots if (i, k) == (2, 7) else None)
        return out

    assert run([w[0] for w in want]) == want
    assert [run([w[0]]) for w in want] == [[w] for w in want]


@pytest.mark.parametrize("which", ["demo", "uniform"])
def test_decoders_store_plain_parse_items(which, lex, costs, closed_lex):
    """The records both deductive decoders store are ParseItem instances equal
    to the ones the namedtuple constructor builds."""
    lx, c = (lex, costs) if which == "demo" else (closed_lex, gen_synthetic(7, 5, closed_lex))
    for items in (chart_parse(c, lx).best, astar_parse(c, lx).settled):
        assert items
        for item in items.values():
            assert type(item) is ParseItem
            assert item == ParseItem(item.cost, item.back)
            assert repr(item) == f"ParseItem(cost={item.cost!r}, back={item.back!r})"


# --- deduction parity on the benchmark's chart and A* inputs -----------------


def _deduction_digest(sentences, lexicon, decoder, k_tags):
    """sha256 over each sentence's tree text, cost repr, work counters and
    items: the chart's n_items, arcs_checked and best items in order, or A*'s
    dequeued, pushed, limit_hit and settled signatures in pop order."""
    import hashlib

    from amparse import fileformats as ff

    h = hashlib.sha256()
    for c in sentences:
        if decoder == "chart":
            res = chart_parse(c, lexicon, k_tags=k_tags)
            work = f"{res.stats.n_items} {res.stats.arcs_checked}\n{list(res.best.items())!r}"
        else:
            res = astar_parse(c, lexicon, heuristic="ignore-aware", k_tags=k_tags)
            s = res.stats
            work = f"{s.dequeued} {s.pushed} {s.limit_hit}\n{list(res.settled)!r}"
        tree = ff.write_trees_text([res.tree]) if res.ok else "None\n"
        h.update(f"{c.sid!r}\n{tree}{res.cost!r} {work}\n".encode())
    return h.hexdigest()


# Each workload's k_tags.  The chart is left off the astar-peaked inputs: at
# n = 16-40 it takes about a minute per seed even at k_tags = 1.
PARITY_DEDUCTIONS = {"chart-uniform": (None, ("chart", "astar")), "astar-peaked": (6, ("astar",))}
# sha256 digests of both decoders on the benchmark inputs, taken with the
# kernel that read a signature-keyed bar and an items map per pair.
DEDUCTION_PARITY = {
    ("chart-uniform", 3, "chart"): "04583116585f8edb772a1c86ba11e7369b0ab01913c2ed421181dbc586a731d2",
    ("chart-uniform", 3, "astar"): "9abade60279f3c6222264aef6c606aa066d06aad01d1e2aa95b2408523907518",
    ("chart-uniform", 5, "chart"): "09eaa4fccfffba9abdc935d0c2262a1df4db639aa894fe1cdd56717291577381",
    ("chart-uniform", 5, "astar"): "bee56a8d5ed9c7704dcfeb1f0e389d9baff5708d92485c315e6455b444d233d4",
    ("astar-peaked", 3, "astar"): "66518dbe32bb6cae5388598817feb35386f58b14d11af5c6ea703c29057bf45b",
    ("astar-peaked", 5, "astar"): "30ae8d7b5fbaff85d4fccf747dbea897a8c7f9fe9522413f62d3ee8312450685",
}


def test_deduction_parity_on_benchmark_inputs(monkeypatch):
    import importlib
    from pathlib import Path

    from amparse import fileformats as ff

    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    lexicon = augment_closure(
        ff.parse_lexicon_text((bench / "demo.lexicon").read_text(encoding="utf-8"), name="demo")
    )
    got = {}
    for name, (k_tags, decoders) in PARITY_DEDUCTIONS.items():
        wl = workloads.WORKLOADS[name]
        for seed in (3, 5):
            sentences = ff.parse_cost_text(wl.input_text(wl.make(seed, lexicon)))
            for decoder in decoders:
                got[name, seed, decoder] = _deduction_digest(sentences, lexicon, decoder, k_tags)
    assert got == DEDUCTION_PARITY
