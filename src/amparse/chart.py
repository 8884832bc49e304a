"""Exhaustive projective chart decoder.

Items are spans of the sentence annotated with a head token and the term
type still open at that head.  Deduction rules: Init assigns a supertag to
a single token; Skip extends a span over an ignored token; Arc combines two
adjacent spans with an apply or modify edge between their heads.  A goal is
a full-span item of empty type plus a root edge.  The chart fills spans in
increasing length, keeping the cheapest item per (span, head, type)
signature, so the optimum over the whole derivation space is exact.
Types are the dense ids of the lexicon's type table (amparse.types), and
the Arc rule reads the table's precomputed combinations for each pair of
adjacent items instead of calling type_combine per label and direction.

Optionally every valid rule instance is recorded as a hyperedge; a backward
min-plus pass over those then yields, for each signature, the cheapest cost
of any full parse that uses it (inside plus outside), which is what the
heuristic-admissibility tests compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .costs import SentenceCosts, top_k_tags
from .lexicon import Lexicon
from .trees import BOTTOM, IGNORE, ROOT, AmDepTree, EdgeLabel, TreeEntry
from .types import type_combine  # noqa: F401  (unused; perfbench/spans.py wraps it)

INF = float("inf")

# (i, k, head, type id): tokens i..k-1 (k exclusive), head in that range.
# The type id indexes the lexicon's compiled type table, so the item's Type
# is lexicon.type_table.types[sig[3]].
Sig = tuple[int, int, int, int]

# ("goal",) is the virtual parent of all accepted full-span items.
GOAL_SIG = ("goal",)


@dataclass
class ParseItem:
    span: tuple[int, int]
    head: int
    typ: int  # type id, see Sig
    cost: float
    back: tuple


@dataclass
class ChartStats:
    n_items: int = 0
    n_goal_candidates: int = 0
    arcs_checked: int = 0
    elapsed: float = 0.0


@dataclass
class ChartResult:
    tree: Optional[AmDepTree]
    cost: float
    stats: ChartStats
    best: dict[Sig, ParseItem] = field(default_factory=dict, repr=False)
    # (parent_sig, rule_cost, child_sigs); parent GOAL_SIG for accepted roots.
    # None unless record_hyperedges was requested.
    hyperedges: Optional[list[tuple]] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.tree is not None


def chart_parse(
    costs: SentenceCosts,
    lexicon: Lexicon,
    k_tags: Optional[int] = None,
    record_hyperedges: bool = False,
) -> ChartResult:
    """Minimum-cost projective analysis of one sentence, or no-parse.

    k_tags limits Init to the k cheapest priced supertags per token
    (None: all priced).  Ties keep the first item discovered under the
    fixed rule order (Init by token, then spans by increasing length;
    within a span Skip before Arc, split points left to right).
    """
    t0 = time.perf_counter()
    n = costs.n
    stats = ChartStats()
    best: dict[Sig, ParseItem] = {}
    by_span: dict[tuple[int, int], list[Sig]] = {}
    hyper: list[tuple] = []
    table = lexicon.type_table
    checks_per_pair = 2 * len(lexicon.arc_labels)

    def offer(sig: Sig, cost: float, back: tuple, children: tuple[Sig, ...], delta: float) -> None:
        if cost == INF:
            return
        if record_hyperedges:
            hyper.append((sig, delta, children))
        cur = best.get(sig)
        if cur is None:
            by_span.setdefault(sig[:2], []).append(sig)
        elif cost >= cur.cost:
            return
        best[sig] = ParseItem(sig[:2], sig[2], sig[3], cost, back)

    for j in range(1, n + 1):
        for g, tag_cost in top_k_tags(costs, j, k_tags):
            typ = table.ids[lexicon.type_of(g)]
            offer((j, j + 1, j, typ), tag_cost, ("init", g), (), tag_cost)

    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            k = i + length
            # Skip the leftmost token, then the rightmost.
            for skipped, child_span in ((i, (i + 1, k)), (k - 1, (i, k - 1))):
                skip_cost = costs.tag(skipped, BOTTOM) + costs.edge(0, skipped, IGNORE)
                for sig in by_span.get(child_span, []):
                    child = best[sig]
                    offer((i, k, child.head, child.typ), child.cost + skip_cost,
                          ("skip", sig), (sig,), skip_cost)
            for j in range(i + 1, k):
                rights = [(rsig, best[rsig]) for rsig in by_span.get((j, k), [])]
                for lsig in by_span.get((i, j), []):
                    left = best[lsig]
                    row = table.combine[left.typ]
                    # one check per (label, direction) of each pair, though one
                    # table lookup answers them all
                    stats.arcs_checked += checks_per_pair * len(rights)
                    for rsig, right in rights:
                        for lbl, typ, head_is_left in row[right.typ]:
                            hd, dep, side = ((left.head, right.head, "left") if head_is_left
                                             else (right.head, left.head, "right"))
                            delta = costs.edge(hd, dep, lbl)
                            offer((i, k, hd, typ), left.cost + right.cost + delta,
                                  ("arc", lbl, lsig, rsig, side), (lsig, rsig), delta)

    goal_cost = INF
    goal_sig: Optional[Sig] = None
    for sig in by_span.get((1, n + 1), []):
        item = best[sig]
        if item.typ != table.empty_id:
            continue
        stats.n_goal_candidates += 1
        root_cost = costs.edge(0, item.head, ROOT)
        total = item.cost + root_cost
        if record_hyperedges and total < INF:
            hyper.append((GOAL_SIG, root_cost, (sig,)))
        if total < goal_cost:
            goal_cost = total
            goal_sig = sig

    stats.n_items = len(best)
    tree = None
    if goal_sig is not None:
        tree = _extract_tree(costs, best, goal_sig)
    stats.elapsed = time.perf_counter() - t0
    return ChartResult(
        tree, goal_cost if tree else INF, stats, best,
        hyper if record_hyperedges else None,
    )


def _extract_tree(
    costs: SentenceCosts, best: dict[Sig, ParseItem], goal_sig: Sig
) -> AmDepTree:
    n = costs.n
    constant = [BOTTOM] * (n + 1)
    head = [0] * (n + 1)
    label: list[EdgeLabel] = [IGNORE] * (n + 1)

    stack = [goal_sig]
    while stack:
        item = best[stack.pop()]
        back = item.back
        if back[0] == "init":
            constant[item.head] = back[1]
        elif back[0] == "skip":
            stack.append(back[1])
        else:
            _, lbl, lsig, rsig, side = back
            dep = best[rsig].head if side == "left" else best[lsig].head
            head[dep] = item.head
            label[dep] = lbl
            stack.append(lsig)
            stack.append(rsig)
    root = best[goal_sig].head
    head[root] = 0
    label[root] = ROOT
    entries = tuple(
        TreeEntry(costs.forms[i - 1], constant[i], head[i], label[i])
        for i in range(1, n + 1)
    )
    return AmDepTree(entries)


def outside_costs(result: ChartResult) -> dict[Sig, float]:
    """Cheapest completion cost of each signature into a full parse.

    Requires chart_parse(..., record_hyperedges=True).  Returns, per
    signature, min over full parses using it of (parse cost - inside cost);
    signatures no full parse uses map to infinity.  Computed by a backward
    min-plus sweep over the recorded hyperedges, longest parent spans first,
    which is a topological order of the derivation hypergraph.
    """
    if result.hyperedges is None:
        raise ValueError("outside_costs needs chart_parse(..., record_hyperedges=True)")
    outside: dict[tuple, float] = {GOAL_SIG: 0.0}

    def span_len(sig: tuple) -> int:
        if sig == GOAL_SIG:
            return 10**9
        return sig[1] - sig[0]

    for parent, delta, children in sorted(
        result.hyperedges, key=lambda h: span_len(h[0]), reverse=True
    ):
        out_p = outside.get(parent, INF)
        if out_p == INF:
            continue
        total_inside = sum(result.best[c].cost for c in children)
        for c in children:
            cand = out_p + delta + (total_inside - result.best[c].cost)
            if cand < outside.get(c, INF):
                outside[c] = cand
    return {sig: cost for sig, cost in outside.items() if sig != GOAL_SIG}

