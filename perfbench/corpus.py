"""Seeded inputs and their references.

Every input is drawn here, from the seed, and written out by this module's
own text writers: the program under test only ever sees cost text or tree
text, and the references it is checked against never pass through its
parsers.

A planted tree is drawn by random bottom-up merges of adjacent items under
a label for which the public ``type_combine`` succeeds, in either direction,
so it is projective and well-typed by construction.  Peaked costs give every
planted decision cost 0 and every other tag or edge cost uniform in [1, 2);
any other tree differs from the planted one in at least one decision, so the
planted tree is the unique optimum over all trees, projective or not, and is
the reference for every decoder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from amparse import (
    BOTTOM,
    EMPTY_TYPE,
    IGNORE,
    ROOT,
    AmDepTree,
    Lexicon,
    TreeEntry,
    gen_synthetic,
    type_combine,
)

# Share of tokens a planted tree leaves out of the analysis.
IGNORE_P = 0.1


@dataclass
class Sentence:
    sid: str
    n: int
    tags: dict
    edges: dict
    planted: Optional[AmDepTree] = None


def arc_labels(lexicon: Lexicon) -> list:
    return sorted((l for l in lexicon.labels if l.kind in ("app", "mod")), key=str)


def forms(n: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(1, n + 1))


def planted_tree(rng: random.Random, n: int, lexicon: Lexicon) -> AmDepTree:
    """A projective well-typed tree over n tokens with an empty root type.

    Each token is ignored with probability IGNORE_P, otherwise it takes a
    constant drawn uniformly from the lexicon.  Merges are drawn uniformly
    over every (adjacent pair, label, direction) that type-checks; a dead
    end redraws the whole tree.
    """
    names = lexicon.constant_names()
    labels = arc_labels(lexicon)

    def joins(left, right) -> list:
        (lh, lt), (rh, rt) = left, right
        out = []
        for lbl in labels:
            t = type_combine(lbl, lt, rt)
            if t is not None:
                out.append((lh, rh, lbl, t))
            t = type_combine(lbl, rt, lt)
            if t is not None:
                out.append((rh, lh, lbl, t))
        return out

    while True:
        constant = [BOTTOM if rng.random() < IGNORE_P else rng.choice(names) for _ in range(n)]
        items = [(i, lexicon.type_of(g)) for i, g in enumerate(constant, 1) if g != BOTTOM]
        if not items:
            continue
        head = [0] * n
        label = [IGNORE] * n
        # options[k] holds the merges of items[k] with items[k + 1]
        options = [joins(a, b) for a, b in zip(items, items[1:])]
        while len(items) > 1:
            weights = [len(o) for o in options]
            if not any(weights):
                break
            k = rng.choices(range(len(options)), weights)[0]
            h, d, lbl, t = rng.choice(options[k])
            head[d - 1], label[d - 1] = h, lbl
            items[k : k + 2] = [(h, t)]
            del options[k]
            if k > 0:
                options[k - 1] = joins(items[k - 1], items[k])
            if k < len(items) - 1:
                options[k] = joins(items[k], items[k + 1])
        if len(items) == 1 and items[0][1] == EMPTY_TYPE:
            root = items[0][0]
            label[root - 1] = ROOT
            return AmDepTree(tuple(
                TreeEntry(f"w{i}", constant[i - 1], head[i - 1], label[i - 1])
                for i in range(1, n + 1)
            ))


def peaked_sentence(rng: random.Random, sid: str, tree: AmDepTree, lexicon: Lexicon) -> Sentence:
    """Dense costs: the planted tree's decisions 0, all others in [1, 2)."""
    n = tree.n
    names = lexicon.constant_names() + [BOTTOM]
    labels = arc_labels(lexicon)
    tags = {(i, g): rng.uniform(1.0, 2.0) for i in range(1, n + 1) for g in names}
    edges = {}
    for j in range(1, n + 1):
        edges[(0, j, ROOT)] = rng.uniform(1.0, 2.0)
        edges[(0, j, IGNORE)] = rng.uniform(1.0, 2.0)
        for o in range(1, n + 1):
            if o != j:
                for lbl in labels:
                    edges[(o, j, lbl)] = rng.uniform(1.0, 2.0)
    for i, e in enumerate(tree.entries, 1):
        tags[(i, e.constant)] = 0.0
        edges[(e.head, i, e.label)] = 0.0
    return Sentence(sid, n, tags, edges, tree)


def uniform_sentence(rng: random.Random, sid: str, n: int, lexicon: Lexicon) -> Sentence:
    """Dense uniform costs in [0, 1) from the library's gen_synthetic."""
    c = gen_synthetic(rng.randrange(2**32), n, lexicon, sid=sid)
    return Sentence(sid, n, dict(c.tag_cost), dict(c.edge_cost))


def tree_cost(tree: AmDepTree, s: Sentence) -> float:
    """The tree's cost summed from the generated tables."""
    total = 0.0
    for i, e in enumerate(tree.entries, 1):
        total += s.tags.get((i, e.constant), math.inf)
        total += s.edges.get((e.head, i, e.label), math.inf)
    return total


def cost_text(sentences: list[Sentence]) -> str:
    lines = []
    for s in sentences:
        lines.append(f"sentence {s.sid} {s.n}")
        lines.extend(f"form {i} {w}" for i, w in enumerate(forms(s.n), 1))
        lines.extend(f"tag {i} {g} {c!r}" for (i, g), c in s.tags.items())
        lines.extend(f"edge {o} {j} {lbl} {c!r}" for (o, j, lbl), c in s.edges.items())
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def trees_text(trees: list[AmDepTree]) -> str:
    blocks = [
        "\n".join(
            f"{i}\t{e.form}\t{e.constant}\t{e.head}\t{e.label}"
            for i, e in enumerate(t.entries, 1)
        )
        for t in trees
    ]
    return "\n\n".join(blocks) + "\n"


def has_known_evaluate_defect(tree: AmDepTree, lexicon: Lexicon) -> bool:
    """Does some head that still has source b take a MOD_b child?

    evaluate_tree raises GraphError on such well-typed trees: the modifier's
    consumed b slot gets merged with the head's own b slot.
    """
    for e in tree.entries:
        if e.label.kind == "mod":
            head = tree.token(e.head)
            if e.label.source in lexicon.type_of(head.constant).nodes:
                return True
    return False
