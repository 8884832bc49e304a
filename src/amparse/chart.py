"""Exhaustive projective chart decoder.

The chart applies the Init, Skip and Arc rules of amparse.rules to spans in
increasing length, keeping the cheapest item per (span, head, type)
signature, so the optimum over the whole derivation space is exact.

Optionally every valid rule instance is recorded as a hyperedge, from which
outside_costs derives each signature's exact outside cost: what the
heuristic-admissibility tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import rules
from .costs import SentenceCosts
from .costs import top_k_tags  # noqa: F401  (unused; perfbench/spans.py wraps it)
from .lexicon import Lexicon
from .rules import GOAL_SIG, INF, ParseItem, Sig
from .trees import AmDepTree
from .types import type_combine  # noqa: F401  (unused; perfbench/spans.py wraps it)


@dataclass
class ChartStats:
    n_items: int = 0
    arcs_checked: int = 0


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
    n = costs.n
    stats = ChartStats()
    best: dict[Sig, ParseItem] = {}
    by_span: dict[tuple[int, int], list[Sig]] = {}
    packed: dict[tuple[int, int], list[rules.Packed]] = {}
    hyper: list[tuple] = []
    table = lexicon.type_table
    bases = rules.label_bases(costs, table)
    width = len(table.types)
    checks_per_pair = 2 * len(lexicon.arc_labels)
    # The bar of the span being built, slots as rules.arcs reads them: each
    # signature's best cost so far (INF while recording hyperedges, which
    # needs every finite rule instance).  Init's spans have no Arc to bar.
    slots = [INF] * width

    def offer(sig: Sig, cost: float, delta: float, back: tuple) -> None:
        if cost == INF:
            return
        if record_hyperedges:
            hyper.append((sig, delta, rules.children(back)))
        cur = best.get(sig)
        if cur is None:
            by_span.setdefault(sig[:2], []).append(sig)
        elif cost >= cur.cost:
            return
        best[sig] = tuple.__new__(ParseItem, (cost, back))  # skips its Python-level __new__
        if not record_hyperedges:
            slots[(sig[2] - sig[0]) * width + sig[3]] = cost

    def final(i: int, k: int) -> list[rules.Packed]:
        if (i, k) not in packed:  # first read: every shorter span is complete
            packed[i, k] = [(s, best[s].cost, s[2], s[3]) for s in by_span.get((i, k), ())]
        return packed[i, k]

    def limits(i: int, k: int) -> list[float]:
        return slots  # only the span being built takes consequences

    rules.init(costs, lexicon, k_tags, offer)

    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            k = i + length
            slots = [INF] * (length * width)
            # Skip the leftmost token, then the rightmost.
            rules.skip(costs.skips, final(i + 1, k), i, offer)
            rules.skip(costs.skips, final(i, k - 1), k - 1, offer)
            for j in range(i + 1, k):
                lefts, rights = final(i, j), final(j, k)
                # one check per (label, direction) of each pair, though one
                # table lookup answers them all
                stats.arcs_checked += checks_per_pair * len(lefts) * len(rights)
                rules.arcs(costs, table, bases, lefts, rights, offer, limits)

    goal_cost, goal_sig = INF, None
    for sig in by_span.get((1, n + 1), []):
        root_cost = rules.root_cost(costs, table, sig)
        total = best[sig].cost + root_cost
        if record_hyperedges and total < INF:
            hyper.append((GOAL_SIG, root_cost, (sig,)))
        if total < goal_cost:
            goal_cost, goal_sig = total, sig

    stats.n_items = len(best)
    tree = rules.extract_tree(costs, best, goal_sig) if goal_sig is not None else None
    return ChartResult(tree, goal_cost, stats, best, hyper if record_hyperedges else None)


def outside_costs(result: ChartResult) -> dict[Sig, float]:
    """Cheapest completion cost of each signature into a full parse.

    Requires chart_parse(..., record_hyperedges=True).  Returns, per
    signature, min over full parses using it of (parse cost - inside cost);
    signatures no full parse uses map to infinity.  Computed by a backward
    min-plus sweep over the recorded hyperedges.  chart_parse records them
    by increasing parent span length, goal edges last, so the reversed list
    is a topological order of the derivation hypergraph.
    """
    if result.hyperedges is None:
        raise ValueError("outside_costs needs chart_parse(..., record_hyperedges=True)")
    outside: dict[tuple, float] = {GOAL_SIG: 0.0}
    for parent, delta, children in reversed(result.hyperedges):
        out_p = outside.get(parent, INF)
        if out_p == INF:
            continue
        total_inside = sum(result.best[c].cost for c in children)
        for c in children:
            cand = out_p + delta + (total_inside - result.best[c].cost)
            if cand < outside.get(c, INF):
                outside[c] = cand
    return {sig: cost for sig, cost in outside.items() if sig != GOAL_SIG}

