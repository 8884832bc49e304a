"""A* search over the projective item space.

Same items and rules as the chart decoder, but items come off a priority
queue ordered by cost plus an admissible estimate of the cheapest way to
finish the parse outside the item's span.  Estimates decompose as a sum of
per-token lower bounds over the tokens outside the span, plus (for the
edge-counting estimates) an attachment floor for the item's own head: the
cheapest way the head could ever acquire its one incoming edge.

The floor term is what makes the edge-counting estimates *monotone*, not
just admissible.  When an arc rule absorbs the dependent side's span, the
dependent head's per-token bound includes an in-edge minimum that the
dependent's inside cost has not paid yet; the arc's own weight is exactly
that in-edge, and it dominates the dependent's floor.  So along every rule
the priority never decreases, the first pop of each signature is optimal,
items settle once, and the number of dequeued items is bounded by the
chart's signature count.

Four estimates, each dominating the previous:

- trivial: zero everywhere.
- supertag: every outside token still needs a supertag; charge the
  cheapest one priced for it.
- edge: outside tokens also each need one incoming edge; add the cheapest
  priced incoming edge of any origin and label, and charge the item head
  its attachment floor.
- ignore-aware: charge each outside token the cheapest of its three
  *joint* fates: ignored (BOT tag plus ignore edge), attached (cheapest
  real tag plus cheapest apply/modify in-edge), or root (cheapest real tag
  plus its root edge); the head floor again applies.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

from .chart import GOAL_SIG, INF, ParseItem, Sig, _extract_tree
from .costs import SentenceCosts, top_k_tags
from .lexicon import Lexicon
from .trees import BOTTOM, IGNORE, ROOT, AmDepTree
from .types import type_combine  # noqa: F401  (unused; perfbench/spans.py wraps it)

HEURISTICS = ("trivial", "supertag", "edge", "ignore-aware")


@dataclass(frozen=True)
class HeuristicTables:
    """Per-token lower bounds plus per-token head attachment floors.

    An item's estimate is the per-token sum outside its span; the edge and
    ignore-aware kinds add attach_floor[head]: the cheapest incoming
    apply/modify edge or root edge the head could take.  A head never ends
    up ignored, so this is a true lower bound on its future in-edge.
    """

    kind: str
    per_token: tuple[float, ...]
    attach_floor: tuple[float, ...]
    _outside: dict[tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def outside(self, i: int, k: int) -> float:
        # The direct left-to-right sum, memoized per span.  Prefix-sum
        # differences (or a compensated sum()) would round differently,
        # which would change f-values and so the pop order on ties.
        total = self._outside.get((i, k))
        if total is None:
            total = 0.0
            for c in self.per_token[: i - 1] + self.per_token[k - 1:]:
                total += c
            self._outside[(i, k)] = total
        return total

    def estimate(self, i: int, k: int, head: int) -> float:
        total = self.outside(i, k)
        if self.kind in ("edge", "ignore-aware"):
            total += self.attach_floor[head - 1]
        return total


def build_heuristic(kind: str, costs: SentenceCosts, lexicon: Lexicon) -> HeuristicTables:
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic {kind!r}; expected one of {HEURISTICS}")
    n = costs.n
    if kind == "trivial":
        return HeuristicTables(kind, (0.0,) * n, (0.0,) * n)

    best_tag_any = [INF] * (n + 1)   # over all constants including BOT
    best_tag_real = [INF] * (n + 1)  # over non-BOT constants
    for (j, g), c in costs.tag_cost.items():
        if c < best_tag_any[j]:
            best_tag_any[j] = c
        if g != BOTTOM and c < best_tag_real[j]:
            best_tag_real[j] = c

    best_in_any = [INF] * (n + 1)    # any origin, any label
    best_in_attach = [INF] * (n + 1)  # apply/modify edges only
    for (o, j, lbl), c in costs.edge_cost.items():
        if c < best_in_any[j]:
            best_in_any[j] = c
        if lbl.kind in ("app", "mod") and c < best_in_attach[j]:
            best_in_attach[j] = c

    floor = tuple(
        min(best_in_attach[j], costs.edge(0, j, ROOT)) for j in range(1, n + 1)
    )
    if kind == "supertag":
        per = tuple(best_tag_any[j] for j in range(1, n + 1))
    elif kind == "edge":
        per = tuple(best_tag_any[j] + best_in_any[j] for j in range(1, n + 1))
    else:
        per = tuple(
            min(
                costs.tag(j, BOTTOM) + costs.edge(0, j, IGNORE),
                best_tag_real[j] + best_in_attach[j],
                best_tag_real[j] + costs.edge(0, j, ROOT),
            )
            for j in range(1, n + 1)
        )
    return HeuristicTables(kind, per, floor)


@dataclass
class SearchStats:
    dequeued: int = 0
    pushed: int = 0
    goal_cost: float = INF
    elapsed: float = 0.0
    limit_hit: bool = False


@dataclass
class AStarResult:
    tree: Optional[AmDepTree]
    cost: float
    stats: SearchStats
    settled: dict[Sig, tuple[float, tuple]] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.tree is not None


def astar_parse(
    costs: SentenceCosts,
    lexicon: Lexicon,
    heuristic: str = "ignore-aware",
    k_tags: Optional[int] = 6,
    dequeue_limit: int = 1_000_000,
) -> AStarResult:
    """Minimum-cost projective analysis by best-first search.

    Ties in priority break toward shorter spans, then lower left boundary,
    lower head, type id (ids follow type serialization order), and finally
    insertion order.  dequeued counts settled item pops; the terminating
    goal pop is not an item.  Aborts with stats.limit_hit once dequeued
    reaches dequeue_limit while work remains.
    """
    t0 = time.perf_counter()
    n = costs.n
    tables = build_heuristic(heuristic, costs, lexicon)
    stats = SearchStats()
    counter = itertools.count()
    heap: list[tuple] = []
    settled: dict[Sig, tuple[float, tuple]] = {}
    by_left: dict[int, list[Sig]] = {}
    by_right: dict[int, list[Sig]] = {}
    table = lexicon.type_table

    def push(sig, cost: float, back: tuple) -> None:
        if sig in settled:
            return
        if sig == GOAL_SIG:
            f, length, i, head, typ = cost, n + 1, 0, 0, -1
        else:
            i, k, head, typ = sig
            f = cost + tables.estimate(i, k, head)
            length = k - i
        if f == INF:
            return
        stats.pushed += 1
        heapq.heappush(heap, (f, length, i, head, typ, next(counter), cost, sig, back))

    for j in range(1, n + 1):
        for g, tag_cost in top_k_tags(costs, j, k_tags):
            push((j, j + 1, j, table.ids[lexicon.type_of(g)]), tag_cost, ("init", g))

    tree = None
    while heap:
        f, _, _, _, _, _, cost, sig, back = heapq.heappop(heap)
        if sig in settled:
            continue
        settled[sig] = (cost, back)
        if sig == GOAL_SIG:
            stats.goal_cost = cost
            tree = _reconstruct(costs, settled)
            break
        stats.dequeued += 1
        if stats.dequeued >= dequeue_limit and heap:
            stats.limit_hit = True
            break

        i, k, head, typ = sig
        by_left.setdefault(i, []).append(sig)
        by_right.setdefault(k, []).append(sig)

        if (i, k) == (1, n + 1) and typ == table.empty_id:
            push(GOAL_SIG, cost + costs.edge(0, head, ROOT), ("goal", sig))
        if i >= 2:
            push(
                (i - 1, k, head, typ),
                cost + costs.tag(i - 1, BOTTOM) + costs.edge(0, i - 1, IGNORE),
                ("skip", sig),
            )
        if k <= n:
            push(
                (i, k + 1, head, typ),
                cost + costs.tag(k, BOTTOM) + costs.edge(0, k, IGNORE),
                ("skip", sig),
            )

        def arcs(lsig: Sig, rsig: Sig) -> None:
            (li, _, lhead, ltyp) = lsig
            (_, rk, rhead, rtyp) = rsig
            lcost, rcost = settled[lsig][0], settled[rsig][0]
            for lbl, new, head_is_left in table.combine[ltyp][rtyp]:
                hd, dep, side = ((lhead, rhead, "left") if head_is_left
                                 else (rhead, lhead, "right"))
                push(
                    (li, rk, hd, new),
                    lcost + rcost + costs.edge(hd, dep, lbl),
                    ("arc", lbl, lsig, rsig, side),
                )

        for other in by_right.get(i, []):
            if other != sig:
                arcs(other, sig)
        for other in by_left.get(k, []):
            if other != sig:
                arcs(sig, other)

    stats.elapsed = time.perf_counter() - t0
    return AStarResult(tree, stats.goal_cost if tree else INF, stats, settled)


def _reconstruct(costs: SentenceCosts, settled: dict) -> AmDepTree:
    goal_cost, goal_back = settled[GOAL_SIG]
    items = {
        sig: ParseItem((sig[0], sig[1]), sig[2], sig[3], cost, back)
        for sig, (cost, back) in settled.items()
        if sig != GOAL_SIG
    }
    return _extract_tree(costs, items, goal_back[1])
