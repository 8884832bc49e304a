"""A small worked example: lexicon, gold tree, costs, and expected graph.

The running sentence is "The writer wants to sleep soundly".  The lexicon
has four constants: a control verb (want), a plain noun (writer), an
intransitive verb (sleep), and a manner modifier (soundly).  The cost
fixture prices every decision of that sentence so that the gold analysis
costs exactly zero and everything else costs one, which makes the optimum
unique and lets decoder tests compare trees instead of scores.
"""

from __future__ import annotations

from .costs import SentenceCosts
from .graphs import AsGraph, make_graph
from .lexicon import Lexicon
from .trees import BOTTOM, IGNORE, ROOT, AmDepTree, TreeEntry, EdgeLabel, app, mod
from .types import parse_type

DEMO_FORMS = ("The", "writer", "wants", "to", "sleep", "soundly")


def demo_lexicon() -> Lexicon:
    """Four constants over sources s (subject), o (object), m (manner).

    The want-graph requests an o whose filler must still have an open s;
    combining shares the s slot between want and its complement, which is
    what produces the control reentrancy in the expected graph.
    """
    want = make_graph(
        [("w0", "want"), ("w1", None, "s"), ("w2", None, "o", parse_type("[s]"))],
        [("w0", "ARG0", "w1"), ("w0", "ARG1", "w2")],
        "w0",
    )
    writer = make_graph([("n0", "writer")], [], "n0")
    sleep = make_graph(
        [("v0", "sleep"), ("v1", None, "s")],
        [("v0", "ARG0", "v1")],
        "v0",
    )
    # The modifier's root is its own slot: modify plugs the head in there.
    soundly = make_graph(
        [("m0", None, "m"), ("m1", "sound")],
        [("m0", "manner", "m1")],
        "m0",
    )
    omega = frozenset(
        parse_type(s) for s in ("[]", "[s]", "[m]", "[s, m]", "[o[s], s]")
    )
    labels = frozenset({app("s"), app("o"), app("m"), mod("m")})
    return Lexicon(
        constants={"want": want, "writer": writer, "sleep": sleep, "soundly": soundly},
        omega=omega,
        labels=labels,
        name="demo",
    )


def demo_gold_tree() -> AmDepTree:
    """wants heads writer and sleep; soundly modifies sleep; The/to ignored."""
    entries = (
        TreeEntry("The", BOTTOM, 0, IGNORE),
        TreeEntry("writer", "writer", 3, app("s")),
        TreeEntry("wants", "want", 0, ROOT),
        TreeEntry("to", BOTTOM, 0, IGNORE),
        TreeEntry("sleep", "sleep", 3, app("o")),
        TreeEntry("soundly", "soundly", 5, mod("m")),
    )
    return AmDepTree(entries)


def demo_expected_graph() -> AsGraph:
    """Evaluation of the gold tree: note writer fills both subject slots."""
    return make_graph(
        [("g0", "want"), ("g1", "writer"), ("g2", "sleep"), ("g3", "sound")],
        [
            ("g0", "ARG0", "g1"),
            ("g0", "ARG1", "g2"),
            ("g2", "ARG0", "g1"),
            ("g2", "manner", "g3"),
        ],
        "g0",
    )


def demo_costs() -> SentenceCosts:
    """Dense costs for the demo sentence: gold decisions 0, all others 1."""
    lex = demo_lexicon()
    gold = demo_gold_tree()
    n = gold.n
    constants = sorted(lex.constants) + [BOTTOM]
    labels = lex.arc_labels
    tag_cost: dict[tuple[int, str], float] = {}
    edge_cost: dict[tuple[int, int, EdgeLabel], float] = {}
    for i in range(1, n + 1):
        for g in constants:
            tag_cost[(i, g)] = 1.0
        edge_cost[(0, i, ROOT)] = 1.0
        edge_cost[(0, i, IGNORE)] = 1.0
        for o in range(1, n + 1):
            if o == i:
                continue
            for lbl in labels:
                edge_cost[(o, i, lbl)] = 1.0
    for i in range(1, n + 1):
        entry = gold.token(i)
        tag_cost[(i, entry.constant)] = 0.0
        edge_cost[(entry.head, i, entry.label)] = 0.0
    return SentenceCosts(
        n=n, forms=DEMO_FORMS, tag_cost=tag_cost, edge_cost=edge_cost, sid="demo"
    )
