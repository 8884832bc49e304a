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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Optional

from . import rules
from .costs import SentenceCosts
from .costs import top_k_tags  # noqa: F401  (unused; perfbench/spans.py wraps it)
from .lexicon import Lexicon
from .rules import GOAL_SIG, INF, ParseItem, Sig
from .trees import BOTTOM, AmDepTree
from .types import type_combine  # noqa: F401  (unused; perfbench/spans.py wraps it)

HEURISTICS = ("trivial", "supertag", "edge", "ignore-aware")


@dataclass(frozen=True)
class HeuristicTables:
    """Per-token lower bounds plus per-token head attachment floors.

    An item's estimate is the per-token sum outside its span plus
    attach_floor[head], zero for the trivial and supertag kinds.  Otherwise
    it is the cheapest incoming apply/modify edge or root edge the head could
    take; a head never ends up ignored, so this bounds its future in-edge.
    """

    kind: str
    per_token: tuple[float, ...]
    attach_floor: tuple[float, ...]
    _outside: dict[tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def _prefix(self) -> tuple[float, ...]:
        return tuple(itertools.accumulate(self.per_token, initial=0.0))

    def outside(self, i: int, k: int) -> float:
        # The direct left-to-right sum, memoized per span: the prefix before
        # the span, continued.  Prefix differences (or a compensated sum())
        # would round differently, and so change the pop order on ties.
        total = self._outside.get((i, k))
        if total is None:
            total = reduce(add, self.per_token[k - 1:], self._prefix[i - 1])
            self._outside[(i, k)] = total
        return total

    def estimate(self, i: int, k: int, head: int) -> float:
        return self.outside(i, k) + self.attach_floor[head - 1]


def build_heuristic(kind: str, costs: SentenceCosts, lexicon: Lexicon) -> HeuristicTables:
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic {kind!r}; expected one of {HEURISTICS}")
    n, tag = costs.n, costs.tag_cost.get
    zero = (0.0,) * n
    if kind == "trivial":
        return HeuristicTables(kind, zero, zero)

    # The cheapest real tag heads each ranked row; a BOT tag may undercut it.
    best_real = [tag((j, row[0])) if row else INF for j, row in enumerate(costs.ranked)]
    best_any = [min(real, tag((j, BOTTOM), INF)) for j, real in enumerate(best_real)]
    if kind == "supertag":
        return HeuristicTables(kind, tuple(best_any[1:]), zero)

    # ROOT edges are keyed by their target alone, IGNORE edges by m * m + target.
    m = n + 1
    attach, edge, skips = costs.attach_in, costs.edge_table.get, costs.skips
    floor = tuple(min(attach[j], edge(j, INF)) for j in range(1, m))
    if kind == "edge":  # the cheapest in-edge of any origin and label
        per = tuple(best_any[j] + min(floor[j - 1], edge(m * m + j, INF)) for j in range(1, m))
    else:
        per = tuple(min(skips[j], best_real[j] + attach[j], best_real[j] + edge(j, INF))
                    for j in range(1, m))
    return HeuristicTables(kind, per, floor)


@dataclass
class SearchStats:
    dequeued: int = 0
    pushed: int = 0
    limit_hit: bool = False


@dataclass
class AStarResult:
    tree: Optional[AmDepTree]
    cost: float
    stats: SearchStats
    settled: dict[Sig, ParseItem] = field(default_factory=dict, repr=False)

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
    goal pop is not an item; pushed counts queue entries (see push).  Aborts
    with stats.limit_hit once dequeued reaches dequeue_limit while work remains.
    """
    if dequeue_limit < 1:
        raise ValueError(f"dequeue_limit must be at least 1, got {dequeue_limit}")
    n = costs.n
    tables = build_heuristic(heuristic, costs, lexicon)
    stats = SearchStats()
    counter = itertools.count()
    heap: list[tuple] = []
    settled: dict[Sig, ParseItem] = {}
    by_left: defaultdict[int, list[rules.Packed]] = defaultdict(list)
    by_right: defaultdict[int, list[rules.Packed]] = defaultdict(list)
    table = lexicon.type_table
    bases = rules.label_bases(costs, table)
    width = len(table.types)
    # The least cost pushed per signature, in slot lists (see rules.arcs) made
    # once an entry in their span is queued; the goal's apart.  A consequence
    # that does not beat it has the same estimate and a later counter, so it
    # could never pop before the entry already queued: every pop stays.
    bars: dict[tuple[int, int], list[float]] = {}
    unbarred = [INF] * (n * width)
    goal_bar = INF
    memo, outside, floor, skips = tables._outside, tables.outside, tables.attach_floor, costs.skips
    heappush = heapq.heappush

    def limits(i: int, k: int) -> list[float]:
        return bars.get((i, k), unbarred)

    def push(sig: Sig, cost: float, delta: float, back: tuple) -> None:
        i, k, head, typ = sig
        span = (i, k)
        slots = bars.get(span)
        slot = (head - i) * width + typ
        if slots is not None and cost >= slots[slot]:
            return
        est = memo.get(span)
        if est is None:
            est = outside(i, k)
        f = cost + (est + floor[head - 1])  # as tables.estimate associates it
        if f == INF:
            return
        if slots is None:
            slots = bars[span] = [INF] * ((k - i) * width)
        slots[slot] = cost
        heappush(heap, (f, k - i, i, head, typ, next(counter), cost, sig, back))

    rules.init(costs, lexicon, k_tags, push)

    tree, goal_cost = None, INF
    while heap:
        f, _, _, _, _, _, cost, sig, back = heapq.heappop(heap)
        if sig in settled:
            continue
        settled[sig] = tuple.__new__(ParseItem, (cost, back))  # skips its Python-level __new__
        if sig == GOAL_SIG:
            tree, goal_cost = rules.extract_tree(costs, settled, back[1]), cost
            break
        stats.dequeued += 1
        if stats.dequeued >= dequeue_limit:
            while heap and heap[0][7] in settled:  # stale entries are no work
                heapq.heappop(heap)
            if heap:
                stats.limit_hit = True
                break

        i, k = sig[0], sig[1]
        one = ((sig, cost, sig[2], sig[3]),)  # the popped item packed, for Skip and Arc
        by_left[i].append(one[0])
        by_right[k].append(one[0])

        total = cost + rules.root_cost(costs, table, sig)
        if total < goal_bar:  # the goal's push
            goal_bar = total
            heappush(heap, (total, n + 1, 0, 0, -1, next(counter), total, GOAL_SIG, ("goal", sig)))
        if i >= 2:
            rules.skip(skips, one, i - 1, push)
        if k <= n:
            rules.skip(skips, one, k, push)
        rules.arcs(costs, table, bases, by_right.get(i, ()), one, push, limits)
        rules.arcs(costs, table, bases, one, by_left.get(k, ()), push, limits)

    stats.pushed = next(counter)  # every queue entry drew one counter value
    return AStarResult(tree, goal_cost, stats, settled)
