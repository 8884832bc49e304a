"""Brute-force reference for the projective decoders.

Enumerates complete projective analyses as *decision sets* (one supertag or
ignore per token, one incoming edge per attached token, one root choice)
rather than as scored items, then minimizes total cost over the whole set.
Different bracketings of the same analysis collapse to the same decision
set, so this is immune to the Viterbi-merging and tie-breaking details of
the chart and A* implementations, which is exactly what makes it a useful
cross-check at small sentence lengths.  Exponential; keep n small.
"""

from __future__ import annotations

from typing import Optional

from .costs import INF, SentenceCosts, ranked_tags
from .lexicon import Lexicon
from .trees import BOTTOM, IGNORE, ROOT

# a decision is ("tag", j, g) | ("ignore", j) | ("edge", o, j, lbl) | ("root", r)
Decision = tuple
# (head, type id in lexicon.type_table, decisions)
Analysis = tuple[int, int, frozenset]


def _decision_cost(d: Decision, costs: SentenceCosts) -> float:
    if d[0] == "tag":
        return costs.tag(d[1], d[2])
    if d[0] == "ignore":
        return costs.tag(d[1], BOTTOM) + costs.edge(0, d[1], IGNORE)
    if d[0] == "edge":
        return costs.edge(d[1], d[2], d[3])
    return costs.edge(0, d[1], ROOT)


def enumerate_analyses(
    costs: SentenceCosts, lexicon: Lexicon, k_tags: Optional[int] = None
) -> set[frozenset]:
    """All decision sets of complete projective parses of the sentence."""
    n = costs.n
    table = lexicon.type_table
    tags = ranked_tags(costs, k_tags)
    memo: dict[tuple[int, int], set[Analysis]] = {}

    def spans(i: int, k: int) -> set[Analysis]:
        got = memo.get((i, k))
        if got is not None:
            return got
        out: set[Analysis] = set()
        if k - i == 1:
            for g, c in tags[i]:
                if c < INF:
                    out.add((i, table.ids[lexicon.type_of(g)], frozenset({("tag", i, g)})))
        else:
            if costs.tag(i, BOTTOM) + costs.edge(0, i, IGNORE) < INF:
                for h, t, d in spans(i + 1, k):
                    out.add((h, t, d | {("ignore", i)}))
            if costs.tag(k - 1, BOTTOM) + costs.edge(0, k - 1, IGNORE) < INF:
                for h, t, d in spans(i, k - 1):
                    out.add((h, t, d | {("ignore", k - 1)}))
            for j in range(i + 1, k):
                for hl, tl, dl in spans(i, j):
                    for hr, tr, dr in spans(j, k):
                        for lbl, _, t, head_is_left in table.combine[tl][tr]:
                            h, dep = (hl, hr) if head_is_left else (hr, hl)
                            if costs.edge(h, dep, lbl) < INF:
                                out.add((h, t, dl | dr | {("edge", h, dep, lbl)}))
        memo[(i, k)] = out
        return out

    complete: set[frozenset] = set()
    for h, t, d in spans(1, n + 1):
        if t == table.empty_id and costs.edge(0, h, ROOT) < INF:
            complete.add(d | {("root", h)})
    return complete


def best_analysis_cost(
    costs: SentenceCosts, lexicon: Lexicon, k_tags: Optional[int] = None
) -> float:
    """Minimum total cost over enumerate_analyses; infinity when unparseable."""
    best = INF
    for d in enumerate_analyses(costs, lexicon, k_tags):
        total = sum(_decision_cost(x, costs) for x in d)
        if total < best:
            best = total
    return best
