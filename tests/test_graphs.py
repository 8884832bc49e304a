"""Graph constants: construction, typing, apply/modify, isomorphism."""

import pytest

from amparse.graphs import (
    GraphError,
    GraphNode,
    graph_apply,
    graph_modify,
    graph_type,
    graphs_isomorphic,
    make_graph,
)
from amparse.types import EMPTY_TYPE, parse_type


def test_make_graph_basic():
    g = make_graph(
        [("a", "pred"), ("b", None, "s")],
        [("a", "ARG0", "b")],
        root="a",
    )
    assert graph_type(g) == parse_type("[s]")


def test_graph_node_is_slotted_and_pickles():
    import pickle

    node = GraphNode("n0", None, "s", parse_type("[]"))
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.label = "pred"
    back = pickle.loads(pickle.dumps(node))
    assert back == node and hash(back) == hash(node)


def test_make_graph_rejects_unknown_root():
    with pytest.raises(GraphError):
        make_graph([("a", "x")], [], root="zzz")


def test_make_graph_rejects_duplicate_ids():
    with pytest.raises(GraphError):
        make_graph([("a", "x"), ("a", "y")], [], root="a")


def test_make_graph_rejects_duplicate_sources():
    with pytest.raises(GraphError):
        make_graph([("a", "x"), ("b", None, "s"), ("c", None, "s")], [], root="a")


def test_graph_type_includes_requests():
    g = make_graph(
        [("w0", "want"), ("w1", None, "s"), ("w2", None, "o", "[s]")],
        [("w0", "ARG0", "w1"), ("w0", "ARG1", "w2")],
        root="w0",
    )
    assert graph_type(g) == parse_type("[o[s], s]")


def test_apply_merges_argument(lex):
    want = lex.constants["want"]
    writer = lex.constants["writer"]
    out = graph_apply(want, "s", writer)
    assert graph_type(out) == parse_type("[o[s]]")
    labels = sorted(n.label for n in out.nodes if n.label)
    assert labels == ["want", "writer"]


def test_apply_missing_slot_raises(lex):
    with pytest.raises(GraphError):
        graph_apply(lex.constants["writer"], "s", lex.constants["writer"])


def test_modify_keeps_head_root(lex):
    sleep = lex.constants["sleep"]
    soundly = lex.constants["soundly"]
    out = graph_modify(sleep, "m", soundly)
    assert graph_type(out) == graph_type(sleep)
    # the modifier's m slot is the head's root, so sound hangs off sleep
    assert any(lbl == "manner" for _, lbl, _ in out.edges)


def test_modify_leaves_the_heads_own_slot_open(lex):
    # the head keeps m on a non-root node: soundly's m slot fuses with the
    # head's root only, and the head's m slot stays a separate open source
    head = make_graph(
        [("v0", "sleep"), ("v1", None, "s"), ("v2", None, "m")],
        [("v0", "ARG0", "v1"), ("v0", "time", "v2")],
        root="v0",
    )
    out = graph_modify(head, "m", lex.constants["soundly"])
    expected = make_graph(
        [("a", "sleep"), ("b", None, "s"), ("c", None, "m"), ("d", "sound")],
        [("a", "ARG0", "b"), ("a", "time", "c"), ("a", "manner", "d")],
        root="a",
    )
    assert graphs_isomorphic(out, expected)
    assert graph_type(out) == graph_type(head)


def test_isomorphism_ignores_node_ids(expected_graph):
    renamed = make_graph(
        [("x0", "want"), ("x1", "writer"), ("x2", "sleep"), ("x3", "sound")],
        [
            ("x0", "ARG0", "x1"),
            ("x0", "ARG1", "x2"),
            ("x2", "ARG0", "x1"),
            ("x2", "manner", "x3"),
        ],
        root="x0",
    )
    assert graphs_isomorphic(expected_graph, renamed)


def test_isomorphism_respects_root(expected_graph):
    rerooted = make_graph(
        [("g0", "want"), ("g1", "writer"), ("g2", "sleep"), ("g3", "sound")],
        sorted(expected_graph.edges),
        root="g2",  # sleep instead of want
    )
    assert not graphs_isomorphic(expected_graph, rerooted)


def test_isomorphism_respects_edge_labels(expected_graph):
    twisted = make_graph(
        [("g0", "want"), ("g1", "writer"), ("g2", "sleep"), ("g3", "sound")],
        [
            ("g0", "ARG1", "g1"),  # swapped
            ("g0", "ARG0", "g2"),
            ("g2", "ARG0", "g1"),
            ("g2", "manner", "g3"),
        ],
        root="g0",
    )
    assert not graphs_isomorphic(expected_graph, twisted)


def test_isomorphism_mixed_labeled_unlabeled(lex):
    # lexicon entries mix labeled nodes and unlabeled source placeholders
    want = lex.constants["want"]
    assert graphs_isomorphic(want, want)
    assert not graphs_isomorphic(want, lex.constants["sleep"])


def test_isomorphism_of_large_graphs_does_not_recurse(closed_lex):
    """The evaluated graph of a writer with 2,999 soundly MOD_m children,
    against itself, a renamed copy, and copies with one node or one edge
    relabelled: the match backtracks on a stack, so 3,000 nodes stay within
    the recursion limit, and candidates come grouped by signature."""
    import time

    from amparse.graphs import AsGraph, GraphNode
    from amparse.trees import ROOT, AmDepTree, TreeEntry, evaluate_tree, mod

    n = 3000
    tree = AmDepTree((TreeEntry("w1", "writer", 0, ROOT),) + tuple(
        TreeEntry(f"w{k}", "soundly", 1, mod("m")) for k in range(2, n + 1)
    ))
    g = evaluate_tree(tree, closed_lex)
    assert len(g.nodes) == n
    rename = {node.id: f"x{n - k}" for k, node in enumerate(g.nodes)}
    renamed = AsGraph(
        tuple(GraphNode(rename[v.id], v.label, v.source, v.request) for v in reversed(g.nodes)),
        frozenset((rename[a], lbl, rename[b]) for a, lbl, b in g.edges),
        rename[g.root],
    )
    a, lbl, b = min(g.edges)
    edge_relabelled = AsGraph(g.nodes, g.edges - {(a, lbl, b)} | {(a, "time", b)}, g.root)
    node_relabelled = AsGraph(
        tuple(GraphNode(v.id, "loud" if v.id == b else v.label, v.source, v.request)
              for v in g.nodes),
        g.edges, g.root,
    )
    start = time.perf_counter()
    assert graphs_isomorphic(g, g)
    assert graphs_isomorphic(g, renamed) and graphs_isomorphic(renamed, g)
    assert not graphs_isomorphic(g, edge_relabelled)
    assert not graphs_isomorphic(node_relabelled, g)
    assert time.perf_counter() - start < 5.0
