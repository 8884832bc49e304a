"""Tree validation, well-typedness folding, and graph evaluation."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse.chart import chart_parse
from amparse.costs import gen_synthetic
from amparse.demo import demo_lexicon
from amparse.graphs import graph_type, graphs_isomorphic, make_graph
from amparse.lexicon import augment_closure
from amparse.transitions import config_to_tree, is_goal, random_walk
from amparse.trees import (
    BOTTOM,
    IGNORE,
    ROOT,
    AmDepTree,
    TreeEntry,
    TreeError,
    app,
    check_well_typed,
    evaluate_tree,
    mod,
    parse_edge_label,
)
from amparse.types import EMPTY_TYPE, Type, apply_set, parse_type, request, type_combine

from test_lexicon import small_lexicons

closed_lexicons = small_lexicons().map(augment_closure)


def entry(form, constant, head, label):
    return TreeEntry(form, constant, head, label)


def test_label_round_trip():
    for text in ("APP_s", "MOD_m", "ROOT", "IGNORE"):
        assert str(parse_edge_label(text)) == text
    with pytest.raises(ValueError):
        parse_edge_label("APPs")


def test_labels_are_shared_per_kind_and_source():
    from amparse import trees

    assert app("s") is app("s") and mod("m") is mod("m")
    assert parse_edge_label("MOD_s") is mod("s")
    assert parse_edge_label("APP_o") is app("o")
    assert app("s") != mod("s")
    for make in (app, mod):
        with pytest.raises(ValueError):
            make("")
    assert "" not in trees._APP and "" not in trees._MOD


def test_tree_entry_is_slotted_and_pickles():
    import dataclasses
    import pickle

    e = TreeEntry("w2", "writer", 3, app("s"))
    assert not hasattr(e, "__dict__")
    with pytest.raises(AttributeError):
        e.head = 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(e, protocol))
        assert back == e and hash(back) == hash(e)
    t = AmDepTree((entry("w1", "writer", 0, ROOT), entry("w2", "soundly", 1, mod("m"))))
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        t.entries = ()
    same = AmDepTree(tuple(list(t.entries)))
    assert same == t and hash(same) == hash(t) == hash((t.entries,))
    assert dataclasses.replace(t) == t
    assert dataclasses.replace(t, entries=t.entries[:1]) == AmDepTree(t.entries[:1])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(t, protocol))
        assert back == t and hash(back) == hash(t)


def test_label_validation():
    with pytest.raises(ValueError):
        app("")
    with pytest.raises(ValueError):
        parse_edge_label("APP_")


@pytest.mark.parametrize("make,source", [(app, "S"), (mod, "x y"), (app, "a#b"), (mod, "m-1")])
def test_label_rejects_a_bad_source_name(make, source):
    """app and mod sources follow types.NAME_PATTERN, as a type's nodes do."""
    with pytest.raises(ValueError) as exc:
        make(source)
    assert str(exc.value) == f"bad source name {source!r}"
    with pytest.raises(ValueError, match="bad source name"):
        parse_edge_label(f"APP_{source}")


def test_tree_requires_single_root():
    with pytest.raises(TreeError):
        AmDepTree((entry("a", "writer", 0, IGNORE),))
    with pytest.raises(TreeError):
        AmDepTree((
            entry("a", "writer", 0, ROOT),
            entry("b", "writer", 0, ROOT),
        ))


def test_tree_rejects_bottom_attachment():
    with pytest.raises(TreeError):
        AmDepTree((
            entry("a", "writer", 0, ROOT),
            entry("b", BOTTOM, 1, app("s")),
        ))


def test_tree_rejects_head_cycle():
    with pytest.raises(TreeError):
        AmDepTree((
            entry("a", "writer", 2, app("s")),
            entry("b", "writer", 1, app("s")),
            entry("c", "writer", 0, ROOT),
        ))


def test_tree_cycle_names_first_token_that_reaches_it():
    # token 1 reaches the 3 <-> 4 cycle without being on it
    with pytest.raises(TreeError, match="head cycle through token 1$"):
        AmDepTree((
            entry("a", "writer", 3, app("s")),
            entry("b", "writer", 0, ROOT),
            entry("c", "writer", 4, app("s")),
            entry("d", "writer", 3, app("s")),
        ))


def test_tree_rejects_ignored_head():
    with pytest.raises(TreeError):
        AmDepTree((
            entry("a", BOTTOM, 0, IGNORE),
            entry("b", "writer", 1, app("s")),
            entry("c", "writer", 0, ROOT),
        ))


def test_gold_tree_term_types(gold, lex):
    report = check_well_typed(gold, lex)
    assert report.ok
    assert report.term_types[3] == EMPTY_TYPE
    assert report.term_types[5] == parse_type("[s]")
    assert report.term_types[6] == parse_type("[m]")
    assert report.term_types[2] == EMPTY_TYPE


def test_gold_tree_evaluates_to_expected(gold, lex, expected_graph):
    assert graphs_isomorphic(evaluate_tree(gold, lex), expected_graph)


def test_nonempty_root_type_is_ill_typed(lex):
    t = AmDepTree((entry("sleep", "sleep", 0, ROOT),))
    report = check_well_typed(t, lex)
    assert not report.ok
    assert report.failure[0] == 1
    with pytest.raises(TreeError):
        evaluate_tree(t, lex)


def test_wrong_argument_type_is_ill_typed(lex):
    # want's o slot wants [s]; writer brings []
    t = AmDepTree((
        entry("writer", "writer", 2, app("o")),
        entry("wants", "want", 0, ROOT),
        entry("writer", "writer", 2, app("s")),
    ))
    report = check_well_typed(t, lex)
    assert not report.ok
    assert report.failure[0] == 1


def test_unknown_constant_is_ill_typed(lex):
    """A constant the lexicon lacks is a typing failure at its token, and
    evaluation raises TreeError, not KeyError."""
    t = AmDepTree((
        entry("writer", "writer", 0, ROOT),
        entry("soundly", "nosuch", 1, mod("m")),
    ))
    report = check_well_typed(t, lex)
    assert not report.ok
    assert report.failure == (2, "unknown constant 'nosuch'")
    with pytest.raises(TreeError, match="token 2: unknown constant 'nosuch'"):
        evaluate_tree(t, lex)


def test_app_order_is_found_automatically(lex):
    # o requests s inside want's type, so s alone is not consumable first;
    # the fold must discover the o-then-s order regardless of positions
    t = AmDepTree((
        entry("writer", "writer", 3, app("s")),
        entry("sleep", "sleep", 3, app("o")),
        entry("wants", "want", 0, ROOT),
    ))
    report = check_well_typed(t, lex)
    assert report.ok
    assert report.term_types[3] == EMPTY_TYPE


def test_single_source_mod_attaches_anywhere(lex):
    # a modifier whose only source is the mod source constrains nothing else
    t = AmDepTree((
        entry("writer", "writer", 2, app("s")),
        entry("wants", "want", 0, ROOT),
        entry("sleep", "sleep", 2, app("o")),
        entry("soundly", "soundly", 2, mod("m")),
    ))
    assert check_well_typed(t, lex).ok


def test_mod_source_missing_in_modifier_fails(lex):
    # a MOD_s edge needs the modifier to carry an s source; writer has none
    t = AmDepTree((
        entry("writer", "writer", 2, mod("s")),
        entry("sleeps", "sleep", 0, ROOT),
        entry("writer", "writer", 2, app("s")),
    ))
    report = check_well_typed(t, lex)
    assert not report.ok
    assert report.failure[0] == 1


def test_mod_on_head_that_keeps_the_source_evaluates(closed_lex):
    # _synth_1 is [m, s]: soundly's m slot fuses with _synth_1's root only,
    # and _synth_1's own m slot stays open for the second writer
    t = AmDepTree((
        entry("w1", "writer", 2, app("s")),
        entry("w2", "_synth_1", 0, ROOT),
        entry("w3", "soundly", 2, mod("m")),
        entry("w4", "writer", 2, app("m")),
    ))
    assert check_well_typed(t, closed_lex).ok
    expected = make_graph(
        [("r", "_synth"), ("m", "writer"), ("s", "writer"), ("x", "sound")],
        [("r", "op1", "m"), ("r", "op2", "s"), ("r", "manner", "x")],
        root="r",
    )
    assert graphs_isomorphic(evaluate_tree(t, closed_lex), expected)


def test_long_mod_chain_is_linear(closed_lex):
    """writer as ROOT, then 4,999 soundly tokens, each MOD_m of the one
    before: construction, typing and evaluation take a fraction of a second."""
    n = 5000
    start = time.perf_counter()
    t = AmDepTree((entry("w1", "writer", 0, ROOT),) + tuple(
        entry(f"w{k}", "soundly", k - 1, mod("m")) for k in range(2, n + 1)
    ))
    assert check_well_typed(t, closed_lex).ok
    g = evaluate_tree(t, closed_lex)
    assert len(g.nodes) == n and len(g.edges) == n - 1
    assert time.perf_counter() - start < 5.0


@given(closed_lexicons, st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_well_typed_trees_evaluate(lx, n, seed):
    """Chart optima and ltf/ltl random-walk goals that type-check evaluate to
    a graph of empty type."""
    trees = []
    res = chart_parse(gen_synthetic(seed, n, lx), lx)
    if res.ok:
        trees.append(res.tree)
    for system in ("ltf", "ltl"):
        cfg, _ = random_walk(lx, system, n, random.Random(seed))
        if is_goal(cfg):
            trees.append(config_to_tree(cfg))
    for t in trees:
        if check_well_typed(t, lx).ok:
            assert graph_type(evaluate_tree(t, lx)) == EMPTY_TYPE


# --- typing failures: one row per way the fold can fail ----------------------

# (id, entries as (form, constant, head, label), the report's failure)
TYPING_FAILURES = [
    ("unknown-constant",
     [("writer", "writer", 0, ROOT), ("soundly", "nosuch", 1, mod("m"))],
     (2, "unknown constant 'nosuch'")),
    ("mod-does-not-modify",
     [("writer", "writer", 2, mod("s")), ("sleeps", "sleep", 0, ROOT), ("writer", "writer", 2, app("s"))],
     (1, "mod edge MOD_s from 2: [] does not modify [s]")),
    ("app-argument-type",
     [("writer", "writer", 2, app("o")), ("wants", "want", 0, ROOT), ("writer", "writer", 2, app("s"))],
     (1, "app edge APP_o from 2: argument type [] != [s]")),
    # o requests s, and want has no m: stuck, reported at the lowest pending
    # position although APP_m sorts first
    ("source-requested",
     [("writer", "writer", 2, app("s")), ("wants", "want", 0, ROOT), ("soundly", "soundly", 2, app("m"))],
     (1, "app edge APP_s from 2: source not consumable in [o[s], s]")),
    ("source-twice",
     [("writer", "writer", 2, app("s")), ("wants", "want", 0, ROOT), ("sleep", "sleep", 2, app("o")),
      ("writer", "writer", 2, app("s"))],
     (4, "app edge APP_s from 2: source not consumable in []")),
    ("root-not-empty", [("sleep", "sleep", 0, ROOT)], (1, "root term type [s] is not empty")),
]


@pytest.mark.parametrize("entries,failure", [row[1:] for row in TYPING_FAILURES],
                         ids=[row[0] for row in TYPING_FAILURES])
def test_typing_failure_table(lex, entries, failure):
    t = AmDepTree(tuple(entry(*e) for e in entries))
    report = check_well_typed(t, lex)
    assert (report.ok, report.failure) == (False, failure)
    with pytest.raises(TreeError, match=f"at token {failure[0]}: "):
        evaluate_tree(t, lex)


# --- the fold against the per-head closed form -------------------------------


def _random_tree(rng: random.Random, lx, n: int) -> AmDepTree:
    """Random constants and arc labels on a random tree shape, projective or
    not; about one token in five is ignored."""
    constants, labels = sorted(lx.constants), lx.arc_labels
    ignored = {i for i in range(1, n + 1) if rng.random() < 0.2}
    kept = [i for i in range(1, n + 1) if i not in ignored] or [ignored.pop()]
    rng.shuffle(kept)
    heads = {kept[0]: (0, ROOT)}
    for k, i in enumerate(kept[1:], start=1):
        heads[i] = (rng.choice(kept[:k]), rng.choice(labels))
    return AmDepTree(tuple(
        entry(f"w{i}", BOTTOM, 0, IGNORE) if i in ignored
        else entry(f"w{i}", rng.choice(constants), *heads[i])
        for i in range(1, n + 1)
    ))


def _closed_form_term_types(t: AmDepTree, lx):
    """Every head's term type when each head meets the per-head condition, else None.

    At a head of lexical type lam with app sources S: every mod child's type
    combines with lam; S has no repeats; each app child's type is its
    source's request in lam; apply_set(lam, tau) == S for tau, lam on the
    nodes outside S.  The root's tau is empty."""
    children = {}
    for j, e in enumerate(t.entries, start=1):
        children.setdefault(e.head, []).append(j)
    types = {}

    def term(i):  # trees here are small, so recursion is fine
        lam = lx.type_of(t.token(i).constant)
        kids = [(t.token(c).label, term(c)) for c in children.get(i, [])]
        if any(ct is None for _, ct in kids):
            return None
        if any(label.kind == "mod" and type_combine(label, lam, ct) is None for label, ct in kids):
            return None
        apps = [(label.source, ct) for label, ct in kids if label.kind == "app"]
        sources = {s for s, _ in apps}
        if len(sources) != len(apps):
            return None
        if any(s not in lam.nodes or ct != request(lam, s) for s, ct in apps):
            return None
        keep = lam.nodes - sources
        tau = types[i] = Type(keep, frozenset((a, b) for a, b in lam.edges if a in keep and b in keep))
        return tau if apply_set(lam, tau) == sources else None

    root_type = term(t.root_token())
    return types if root_type is not None and root_type.is_empty() else None


@given(st.one_of(closed_lexicons, st.just(augment_closure(demo_lexicon()))),
       st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_fold_matches_the_per_head_closed_form(lx, n, seed):
    """check_well_typed accepts a tree exactly when every head meets the
    per-head condition, and then with the same term types."""
    rng = random.Random(seed)
    for _ in range(40):
        t = _random_tree(rng, lx, n)
        report = check_well_typed(t, lx)
        expected = _closed_form_term_types(t, lx)
        assert report.ok == (expected is not None)
        if report.ok:
            assert report.term_types == expected
