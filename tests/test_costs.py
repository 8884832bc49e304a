"""Cost tables: validation, lookups, tree pricing, synthetic generation."""

import random

import pytest

from amparse.costs import (
    INF, CostParams, SentenceCosts, gen_synthetic, ranked_tags, top_k_tags, tree_cost,
)
from amparse.fileformats import parse_cost_text, write_cost_text
from amparse.trees import BOTTOM, IGNORE, LABEL_IDS, LABELS, ROOT, app, mod


def test_missing_decisions_price_infinite():
    sparse = SentenceCosts(2, ("a", "b"), {(1, "writer"): 0.5}, {})
    assert sparse.tag(1, "writer") == 0.5
    assert sparse.tag(2, "writer") == INF
    assert sparse.edge(1, 2, app("s")) == INF


def test_gold_tree_costs_zero(costs, gold):
    assert tree_cost(gold, costs) == 0.0


def test_perturbed_tree_costs_positive(costs, gold):
    from amparse.trees import AmDepTree, TreeEntry

    entries = list(gold.entries)
    entries[1] = TreeEntry(entries[1].form, entries[1].constant, 5, app("s"))
    assert tree_cost(AmDepTree(tuple(entries)), costs) > 0.0


def test_validation_rejects_bad_indices():
    with pytest.raises(ValueError):
        SentenceCosts(2, ("a", "b"), {(3, "writer"): 0.1}, {})
    with pytest.raises(ValueError):
        SentenceCosts(2, ("a", "b"), {}, {(1, 1, app("s")): 0.1})
    with pytest.raises(ValueError):
        SentenceCosts(2, ("a",), {}, {})


def test_validation_rejects_negative_costs():
    with pytest.raises(ValueError):
        SentenceCosts(1, ("a",), {(1, "writer"): -0.5}, {})


# (id, tag_cost, edge_cost, message): the first offender, tags before edges
VALIDATION_ORDER = [
    ("tag-index-before-cost", {(1, "a"): 0.0, (3, "b"): INF}, {}, "token index 3 out of range 1..2"),
    ("tag-cost", {(2, "a"): float("nan"), (0, "b"): 0.0}, {},
     "costs are nonnegative finite, got nan"),
    ("tags-before-edges", {(1, "a"): -1.0}, {(0, 3, ROOT): 0.0}, "costs are nonnegative finite, got -1.0"),
    ("edge-target-before-cost", {}, {(0, 0, ROOT): -1.0}, "token index 0 out of range 1..2"),
    ("edge-cost-before-origin", {}, {(1, 2, ROOT): -INF}, "costs are nonnegative finite, got -inf"),
    ("root-origin", {}, {(0, 1, IGNORE): 0.0, (2, 1, ROOT): 0.0}, "ROOT edges originate at 0, got 2"),
    ("origin-range", {}, {(3, 1, app("s")): 0.0}, "bad edge origin 3 for APP_s into 1"),
    ("first-edge", {}, {(1, 1, app("s")): 0.0, (0, 1, app("s")): 0.0},
     "bad edge origin 1 for APP_s into 1"),
]


@pytest.mark.parametrize(
    "tags,edges,message", [row[1:] for row in VALIDATION_ORDER], ids=[row[0] for row in VALIDATION_ORDER]
)
def test_validation_reports_first_offender(tags, edges, message):
    with pytest.raises(ValueError) as exc:
        SentenceCosts(2, ("a", "b"), tags, edges)
    assert str(exc.value) == message


def test_top_k_tags_ordering(costs):
    pairs = top_k_tags(costs, 3, None)
    assert pairs[0] == ("want", 0.0)
    assert [c for _, c in pairs] == sorted(c for _, c in pairs)
    assert all(g != BOTTOM for g, _ in pairs)
    assert len(top_k_tags(costs, 3, 1)) == 1
    with pytest.raises(IndexError):
        top_k_tags(costs, 0, None)
    with pytest.raises(ValueError):
        top_k_tags(costs, 1, 0)


@pytest.mark.parametrize("seed", range(4))
def test_ranked_tags_match_a_filter_and_sort(lex, costs, seed):
    """Each token's ranked list is its non-BOT priced constants sorted by
    (cost, name) and cut to k, and top_k_tags reads the same list; costs
    drawn from {0, 1} make the name order break ties."""
    rng = random.Random(seed)
    c = gen_synthetic(seed, 2 + seed, lex) if seed else costs
    if seed % 2:
        for key in c.tag_cost:
            c.tag_cost[key] = float(rng.randint(0, 1))
    for k in [None] + list(range(1, len(lex.constants) + 2)):
        ranked = ranked_tags(c, k)
        assert len(ranked) == c.n + 1 and ranked[0] == []
        for i in range(1, c.n + 1):
            want = sorted(((g, cost) for (j, g), cost in c.tag_cost.items()
                           if j == i and g != BOTTOM), key=lambda pair: (pair[1], pair[0]))
            assert ranked[i] == want[:k] == top_k_tags(c, i, k), (i, k)
    for i in (0, -1, c.n + 1):
        with pytest.raises(IndexError, match=rf"^token index {i} out of range 1\.\.{c.n}$"):
            top_k_tags(c, i, 1)
    for k in (0, -2):
        for call in (lambda: ranked_tags(c, k), lambda: top_k_tags(c, 1, k)):
            with pytest.raises(ValueError, match=r"^k >= 1$"):
                call()


ROWS = ("ranked", "skips", "attach_in")


def test_rows_are_read_lazily_once_and_never_copied(lex):
    """The chart reads the tag and skip rows, A* also the in-edge row; each
    is built once.  A pickle, dataclasses.replace and from_table start with
    no rows and build equal ones."""
    import dataclasses
    import pickle

    from amparse.astar import astar_parse
    from amparse.chart import chart_parse

    c = gen_synthetic(4, 5, lex)
    assert not vars(c).keys() & set(ROWS)
    chart_parse(c, lex)
    assert vars(c).keys() & set(ROWS) == {"ranked", "skips"}
    astar_parse(c, lex)
    rows = {name: getattr(c, name) for name in ROWS}
    assert all(vars(c)[name] is row for name, row in rows.items())
    assert rows["skips"] == [INF] + [c.tag(j, BOTTOM) + c.edge(0, j, IGNORE)
                                     for j in range(1, c.n + 1)]
    assert rows["attach_in"] == [INF] + [
        min(x for (o, t, label), x in c.edge_cost.items() if t == j and label.kind in ("app", "mod"))
        for j in range(1, c.n + 1)
    ]
    ranked_tags(c, None)[1].clear()  # a caller's list, not the row
    assert rows["ranked"][1] and c.ranked is rows["ranked"]
    copies = (pickle.loads(pickle.dumps(c)), dataclasses.replace(c),
              SentenceCosts.from_table(c.n, c.forms, c.tag_cost, c.edge_table, c.sid))
    for copy in copies:
        assert copy == c and not vars(copy).keys() & set(ROWS)
        assert {name: getattr(copy, name) for name in ROWS} == rows


def test_gen_synthetic_is_deterministic(lex):
    a = gen_synthetic(42, 5, lex)
    b = gen_synthetic(42, 5, lex)
    assert a.tag_cost == b.tag_cost and a.edge_cost == b.edge_cost
    c = gen_synthetic(43, 5, lex)
    assert c.tag_cost != a.tag_cost


def test_gen_synthetic_prices_every_decision(lex):
    c = gen_synthetic(0, 4, lex, params=CostParams(lo=0.25, hi=0.75))
    for j in range(1, 5):
        assert (j, BOTTOM) in c.tag_cost
        for g in lex.constants:
            assert (j, g) in c.tag_cost
        assert (0, j, ROOT) in c.edge_cost
        assert (0, j, IGNORE) in c.edge_cost
    assert all(0.25 <= v <= 0.75 for v in c.tag_cost.values())
    # app/mod edges priced in both directions between distinct tokens
    assert (1, 2, app("s")) in c.edge_cost and (2, 1, app("s")) in c.edge_cost


# --- the read-only edge_cost view over the integer-keyed edge table ---------

EDGES = {(0, 2, IGNORE): 0.5, (2, 1, mod("m")): 0.25, (0, 1, ROOT): 1.0, (1, 2, app("s")): 0.0}


def test_edge_cost_view_is_an_ordered_read_only_mapping():
    c = SentenceCosts(2, ("a", "b"), {}, EDGES)
    view = c.edge_cost
    assert view == EDGES and EDGES == view and dict(view) == EDGES
    assert list(view) == list(EDGES)
    assert list(view.items()) == list(EDGES.items())
    assert list(view.values()) == list(EDGES.values())
    assert len(view) == 4 and view[(2, 1, mod("m"))] == 0.25
    assert (1, 2, app("s")) in view and (2, 1, app("s")) not in view
    for missing in [(3, 1, mod("m")), (0, 0, ROOT), (1, 2), "x", (1, 2, "APP_s")]:
        assert missing not in view
        assert view.get(missing) is None
    with pytest.raises(TypeError):
        view[(1, 2, app("s"))] = 1.0
    with pytest.raises(TypeError):
        del view[(1, 2, app("s"))]
    assert not hasattr(view, "update") and not hasattr(view, "pop")


def test_edge_cost_view_round_trips_through_the_constructor(lex):
    c = gen_synthetic(7, 4, lex)
    back = SentenceCosts(c.n, c.forms, c.tag_cost, dict(c.edge_cost), sid=c.sid)
    assert back == c
    assert list(back.edge_cost.items()) == list(c.edge_cost.items())
    assert list(back.edge_table.items()) == list(c.edge_table.items())


def test_edge_lookup_of_a_never_seen_label_does_not_intern_it():
    c = SentenceCosts(2, ("a", "b"), {}, EDGES)
    stranger = app("never_seen_by_any_cost_table")
    before = len(LABELS)
    assert c.edge(1, 2, stranger) == INF
    assert stranger not in c.edge_cost
    assert len(LABELS) == before and stranger not in LABEL_IDS


def test_dict_built_and_parsed_costs_agree_on_every_lookup(lex):
    built = [gen_synthetic(s, 2 + s % 4, lex, sid=f"s{s}") for s in range(5)]
    parsed = parse_cost_text(write_cost_text(built))
    names = lex.constant_names() + [BOTTOM, "nosuch"]
    labels = [ROOT, IGNORE, *lex.arc_labels, mod("s")]
    for a, b in zip(built, parsed):
        n = a.n
        for i in range(0, n + 2):
            assert [a.tag(i, g) for g in names] == [b.tag(i, g) for g in names]
        for o in range(-1, n + 2):
            for j in range(-1, n + 2):
                assert [a.edge(o, j, lbl) for lbl in labels] == [b.edge(o, j, lbl) for lbl in labels]
        assert a.edge_cost == b.edge_cost and a.tag_cost == b.tag_cost


PICKLE_SCRIPT = """
import pickle, sys
from amparse.chart import chart_parse
from amparse.costs import gen_synthetic
from amparse.demo import demo_lexicon
from amparse.lexicon import augment_closure
from amparse.trees import LABEL_IDS, label_id, mod

mode, path = sys.argv[1:]
if mode == "dump":
    lexicon = augment_closure(demo_lexicon())
    costs = gen_synthetic(5, 6, lexicon)
    cost = chart_parse(costs, lexicon).cost  # builds the lexicon's type table
    with open(path, "wb") as f:
        pickle.dump((lexicon, costs, cost), f)
else:
    label_id(mod("m"))  # interned before any other label, unlike in the dumping process
    with open(path, "rb") as f:
        warm, pickled, cost = pickle.load(f)
    lexicon = augment_closure(demo_lexicon())
    regenerated = gen_synthetic(5, 6, lexicon)
    print(chart_parse(regenerated, warm).cost == cost, chart_parse(pickled, lexicon).cost == cost,
          pickled == regenerated)
print(LABEL_IDS[mod("m")])
"""


def test_a_lexicon_and_costs_pickled_to_a_process_with_other_label_ids_price_the_same(
        tmp_path, src_env):
    """The type table and the edge table key on process-wide label ids, so
    neither may cross a pickle: a warm lexicon and a sentence's costs
    loaded by a process that interned its labels in another order parse
    as they did where they were made."""
    import subprocess
    import sys

    pickled = str(tmp_path / "warm.pickle")
    outs = [subprocess.run([sys.executable, "-c", PICKLE_SCRIPT, mode, pickled], env=src_env,
                           capture_output=True, text=True, check=True).stdout.split()
            for mode in ("dump", "load")]
    assert outs[0][-1] != outs[1][-1]  # MOD_m has another id in each process
    assert outs[1][:-1] == ["True", "True", "True"]
