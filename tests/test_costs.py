"""Cost tables: validation, lookups, tree pricing, synthetic generation."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse.costs import (
    INF, CostParams, SentenceCosts, gen_synthetic, ranked_tags, top_k_tags, tree_cost,
)
from amparse.fileformats import parse_cost_text, write_cost_text
from amparse.trees import BOTTOM, IGNORE, ROOT, app, mod


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
              SentenceCosts.from_table(c.n, c.forms, c.tag_cost, c.edge_table, c.labels, c.sid))
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
    assert c.labels == (ROOT, IGNORE, mod("m"), app("s"))  # arc labels in first-appearance order
    stranger = app("never_seen_by_any_cost_table")
    assert c.edge(1, 2, stranger) == INF
    assert stranger not in c.edge_cost
    assert c.label_index(stranger) == -1 and c.labels == (ROOT, IGNORE, mod("m"), app("s"))


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
from amparse.fileformats import parse_cost_text
from amparse.lexicon import augment_closure
from amparse.trees import mod

mode, path = sys.argv[1:]
if mode == "dump":
    lexicon = augment_closure(demo_lexicon())
    costs = gen_synthetic(5, 6, lexicon)
    cost = chart_parse(costs, lexicon).cost  # builds the lexicon's type table
    with open(path, "wb") as f:
        pickle.dump((lexicon, costs, cost), f)
else:
    # labels read before the pickle, in another order than the dumping process met them
    (costs,) = parse_cost_text("sentence s0 2\\nedge 2 1 MOD_m 0.5\\nedge 1 2 APP_s 0.5\\nend\\n")
    with open(path, "rb") as f:
        warm, pickled, cost = pickle.load(f)
    lexicon = augment_closure(demo_lexicon())
    regenerated = gen_synthetic(5, 6, lexicon)
    print(chart_parse(regenerated, warm).cost == cost, chart_parse(pickled, lexicon).cost == cost,
          pickled == regenerated)
print(costs.label_index(mod("m")))
"""


def test_a_lexicon_and_costs_pickled_to_a_process_with_other_label_ids_price_the_same(
        tmp_path, src_env):
    """A warm lexicon and a sentence's costs loaded by a process that met its
    labels in another order parse as they did where they were made: the
    type table and the edge table each carry their own label ids."""
    import subprocess
    import sys

    pickled = str(tmp_path / "warm.pickle")
    outs = [subprocess.run([sys.executable, "-c", PICKLE_SCRIPT, mode, pickled], env=src_env,
                           capture_output=True, text=True, check=True).stdout.split()
            for mode in ("dump", "load")]
    assert outs[0][-1] != outs[1][-1]  # MOD_m has another id in each process's costs
    assert outs[1][:-1] == ["True", "True", "True"]


# --- bulk validation against the per-entry loop ---------------------------------


def _reference_validate(n, forms, tags, edges) -> None:
    """The per-entry validation SentenceCosts ran before its bulk tests: the
    first offender, tags before edges, each edge's target, then cost, then
    origin.  edges is {(origin, target, EdgeLabel): cost}."""
    def check(i, c):
        if not 1 <= i <= n:
            raise ValueError(f"token index {i} out of range 1..{n}")
        if not 0 <= c < INF:
            raise ValueError(f"costs are nonnegative finite, got {c}")

    if n < 1:
        raise ValueError("a sentence has at least one token")
    if len(forms) != n:
        raise ValueError("one form per token")
    for (i, _), c in tags.items():
        check(i, c)
    for (o, j, label), c in edges.items():
        check(j, c)
        if label.kind in ("root", "ignore"):
            if o != 0:
                raise ValueError(f"{label} edges originate at 0, got {o}")
        elif o == 0 or o == j:
            raise ValueError(f"bad edge origin {o} for {label} into {j}")


def _outcome(build):
    try:
        build()
    except ValueError as e:
        return str(e)
    return "ok"


_BAD_COSTS = [float("nan"), INF, -INF, -1.0, -0.0]
_FAULTS = ["cost", "overflow", "tag-index", "root-origin", "ignore-origin", "arc-from-0",
           "self-loop"]


@st.composite
def _planted_tables(draw):
    """Valid tag and edge tables of a random sentence, then a few planted
    faults, each at a random place in its table's order."""
    n = draw(st.integers(1, 7))
    labels = st.sampled_from([app("s"), app("o"), mod("m")])
    token, cost = st.integers(1, n), st.floats(0.0, 10.0)
    tags = [((i, g), draw(cost)) for i in range(1, n + 1) for g in ("a", "b", BOTTOM)
            if draw(st.booleans())]
    edges = [((0, j, lbl), draw(cost)) for j in range(1, n + 1) for lbl in (ROOT, IGNORE)
             if draw(st.booleans())]
    edges += [((o, j, lbl), draw(cost)) for o in range(1, n + 1) for j in range(1, n + 1)
              if o != j for lbl in (app("s"), app("o"), mod("m")) if draw(st.booleans())]

    def plant(table, key, c):
        table.insert(draw(st.integers(0, len(table))), (key, c))

    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        j = draw(token)
        if fault == "cost":
            table = draw(st.sampled_from([tags, edges]))
            if table:
                k = draw(st.integers(0, len(table) - 1))
                table[k] = (table[k][0], draw(st.sampled_from(_BAD_COSTS)))
        elif fault == "overflow":  # two finite costs whose sum is inf
            for _ in range(2):
                if draw(st.booleans()):
                    plant(tags, (draw(token), draw(st.sampled_from(["a", "b"]))), 1e308)
                else:
                    plant(edges, (0, draw(token), ROOT), 1e308)
        elif fault == "tag-index":
            plant(tags, (draw(st.sampled_from([0, n + 1])), "a"), draw(cost))
        elif fault == "root-origin":
            plant(edges, (draw(token), j, ROOT), draw(cost))
        elif fault == "ignore-origin":
            plant(edges, (draw(token), j, IGNORE), draw(cost))
        elif fault == "arc-from-0":
            plant(edges, (0, j, draw(labels)), draw(cost))
        else:  # self-loop
            plant(edges, (j, j, draw(labels)), draw(cost))
    return n, dict(tags), dict(edges)


@settings(max_examples=400, deadline=None)
@given(_planted_tables())
def test_bulk_validation_raises_what_the_per_entry_loop_raises(tables):
    n, tags, edges = tables
    forms = tuple(f"w{i}" for i in range(1, n + 1))
    m = n + 1
    labels = (ROOT, IGNORE, app("s"), app("o"), mod("m"))
    table = {(labels.index(lbl) * m + o) * m + j: c for (o, j, lbl), c in edges.items()}
    expected = _outcome(lambda: _reference_validate(n, forms, tags, edges))
    assert _outcome(lambda: SentenceCosts(n, forms, tags, edges)) == expected
    assert _outcome(lambda: SentenceCosts.from_table(n, forms, tags, table, labels)) == expected


@pytest.mark.parametrize("table,labels,message", [
    ({-8: 0.5}, (ROOT, IGNORE), "edge key -8 out of range 0..17 of 2 labels"),
    ({23: 0.5}, (ROOT, IGNORE), "edge key 23 out of range 0..17 of 2 labels"),
    ({1: 0.5, 18: -1.0}, (ROOT, IGNORE), "edge key 18 out of range 0..17 of 2 labels"),
    ({0: 0.5}, (ROOT, IGNORE), "token index 0 out of range 1..2"),  # (0, 0, ROOT)
    ({21: 0.5}, (ROOT, IGNORE, app("s")), "token index 0 out of range 1..2"),  # (1, 0, APP_s)
], ids=["negative", "past-the-labels", "before-its-cost", "root-into-0", "arc-into-0"])
def test_from_table_rejects_keys_no_label_or_target_explains(table, labels, message):
    """A key outside the labels' key range is named before any other test
    of its entry; a key with target 0 fails as an index out of range."""
    with pytest.raises(ValueError) as exc:
        SentenceCosts.from_table(2, ("a", "b"), {}, table, labels)
    assert str(exc.value) == message


def test_bulk_validation_accepts_finite_costs_whose_sum_overflows():
    c = SentenceCosts(2, ("a", "b"), {(1, "a"): 1e308, (2, "a"): 1e308},
                      {(0, 1, ROOT): 1e308, (0, 2, IGNORE): 1e308})
    assert not c._edges_valid_in_bulk()  # the per-entry loop decided
    assert c.tag(1, "a") == c.edge(0, 2, IGNORE) == 1e308


def test_a_long_sparse_sentence_builds_in_linear_time():
    """The bulk tests probe O(n) slots per label, never the O(n^2) key
    range: a 20,000-token sentence with a dozen edges builds at once."""
    n = 20_000
    arc = app("s")  # the table's only arc label, so probes cover id 2 alone
    edges = {(0, 1, ROOT): 0.5, (0, n, IGNORE): 0.5}
    edges.update({(j, j + 1, arc): 0.25 for j in range(1, 11)})
    forms = tuple(f"w{i}" for i in range(1, n + 1))
    start = time.perf_counter()
    c = SentenceCosts(n, forms, {(1, "a"): 0.0}, edges)
    SentenceCosts.from_table(n, forms, c.tag_cost, c.edge_table, c.labels)
    assert time.perf_counter() - start < 0.25
    assert c._edges_valid_in_bulk()


# --- label ids belong to each table -------------------------------------------


def _reverse_edges(text: str) -> str:
    """The cost text with each block's edge lines in reverse order, so that
    its arc labels first appear in another order."""
    blocks = []
    for block in text.rstrip("\n").split("\n\n"):
        lines = block.split("\n")
        edges = [line for line in lines if line.startswith("edge ")]
        rest = [line for line in lines if not line.startswith("edge ")]
        blocks.append("\n".join(rest[:-1] + edges[::-1] + rest[-1:]))
    return "\n\n".join(blocks) + "\n"


def test_every_decoder_reads_a_sentence_alike_whatever_order_its_labels_come_in(closed_lex):
    """Two cost texts that differ only in the order their arc labels first
    appear, decoded on a lexicon with a label the costs lack: every decoder
    gives the same tree, cost and work counters on both, and the deductive
    decoders' cost is their tree's, up to the order of summation."""
    from amparse.astar import HEURISTICS, astar_parse
    from amparse.chart import chart_parse
    from amparse.lexicon import Lexicon, augment_closure
    from amparse.transitions import decode

    lexicon = augment_closure(
        Lexicon(closed_lex.constants, closed_lex.omega, closed_lex.labels | {mod("s")}))
    assert mod("s") in lexicon.type_table.labels
    text = write_cost_text([gen_synthetic(seed, 3 + seed % 4, closed_lex, sid=f"s{seed}")
                            for seed in range(6)])

    def runs(c):
        out = []
        for res in [chart_parse(c, lexicon)] + [
                astar_parse(c, lexicon, heuristic=h, k_tags=None) for h in HEURISTICS]:
            assert res.ok and abs(res.cost - tree_cost(res.tree, c)) <= 1e-9
            out.append((res.tree, res.cost, res.stats))
        for system in ("ltf", "ltl"):
            for beam in (1, 4):
                res = decode(c, lexicon, system, beam=beam)
                out.append((res.tree, res.cost, res.score, res.transitions))
        return out

    for a, b in zip(parse_cost_text(text), parse_cost_text(_reverse_edges(text)), strict=True):
        assert a == b and a.labels != b.labels and mod("s") not in a.labels + b.labels
        assert runs(a) == runs(b)
