"""Graph constants: construction, typing, apply/modify, isomorphism."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("source", ["S", "x y", "a#b", "1a"])
def test_graph_node_rejects_a_bad_source_name(source):
    """A source name follows types.NAME_PATTERN where the node is made, so no
    graph holds one that its text would not read back."""
    with pytest.raises(GraphError) as exc:
        make_graph([("a", "x"), ("b", None, source)], [("a", "ARG0", "b")], root="a")
    assert str(exc.value) == f"node b: bad source name {source!r}"


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



@st.composite
def _small_graphs(draw, n):
    """(edges, root) of a weakly connected graph on nodes 0..n-1: a random
    spanning tree with random edge directions, plus up to n more edges."""
    edges = set()
    for k in range(1, n):
        other = draw(st.integers(0, k - 1))
        edges.add((k, other) if draw(st.booleans()) else (other, k))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return edges, draw(st.integers(0, n - 1))


def _one_label_graph(edges, root, n, prefix="a"):
    return make_graph([(f"{prefix}{v}", "x") for v in range(n)],
                      [(f"{prefix}{a}", "e", f"{prefix}{b}") for a, b in edges],
                      root=f"{prefix}{root}")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_isomorphism_agrees_with_permutation_search(data):
    """With one node label and one edge label every node of a degree shares
    a signature, so the match must backtrack.  The second graph is the first
    renumbered, the same with two edges' targets swapped (every in- and
    out-degree kept, so only the search tells them apart), or a fresh graph."""
    n = data.draw(st.integers(2, 6))
    edges1, root1 = data.draw(_small_graphs(n))
    edges2, root2 = edges1, root1
    kind = data.draw(st.sampled_from(["copy", "swap", "fresh"]))
    if kind == "fresh":
        edges2, root2 = data.draw(_small_graphs(n))
    elif kind == "swap" and len(edges1) > 1:
        (a, b), (c, d) = data.draw(st.permutations(sorted(edges1)))[:2]
        swapped = edges1 - {(a, b), (c, d)} | {(a, d), (c, b)}
        if a != d and c != b and len(swapped) == len(edges1):
            try:
                _one_label_graph(swapped, root1, n)
                edges2 = swapped
            except GraphError:  # the swap disconnected the graph
                pass
    p = data.draw(st.permutations(range(n)))
    edges2, root2 = {(p[a], p[b]) for a, b in edges2}, p[root2]
    expected = any(q[root1] == root2 and {(q[a], q[b]) for a, b in edges1} == edges2
                   for q in permutations(range(n)))
    g1, g2 = _one_label_graph(edges1, root1, n), _one_label_graph(edges2, root2, n, prefix="b")
    assert graphs_isomorphic(g1, g2) is expected
    assert graphs_isomorphic(g2, g1) is expected


def test_isomorphism_fails_after_trying_every_candidate():
    """Paths 3 -> 0 -> 1 -> 2 and 3 -> 2 -> 0 -> 1, both rooted at 0: every
    node has its match's in- and out-degree, and only the search finds
    that the root's neighbours cannot be matched."""
    nodes = [(v, "x") for v in "0123"]
    g1 = make_graph(nodes, [("3", "e", "0"), ("0", "e", "1"), ("1", "e", "2")], root="0")
    g2 = make_graph(nodes, [("3", "e", "2"), ("2", "e", "0"), ("0", "e", "1")], root="0")
    assert not graphs_isomorphic(g1, g2) and not graphs_isomorphic(g2, g1)
