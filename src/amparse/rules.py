"""The deduction rules under the chart and A* decoders.

Items are spans annotated with a head token and the term type still open at
that head.  Init assigns a supertag to one token, from the costs' ranked
row; Skip extends a span over an adjacent ignored token at the token's cost
in the skips row; Arc joins two adjacent spans with an apply or modify edge
between their heads, reading the type table's precomputed combinations
instead of calling type_combine per label and direction.  A full-span item
of empty type is accepted with a root edge into its head.
Edge costs are read from costs.edge_table by the integer key that
amparse.costs documents, computed inline from label_bases: the type
table's label ids mapped once per decode onto the cost table's.

Each rule hands a consequence to the decoder's own callback, emit(sig,
inside cost, rule cost, back-pointer); decoders store ParseItem(cost, back),
built by tuple.__new__ rather than the namedtuple's Python-level __new__.
Skip and Arc read final items, packed once as (sig, cost, head, type id).
Arc emits only below the decoder's bar: slot (head - i) * T + type id of
the list limits(i, k), T the number of type ids, holds what a consequence
at (i, k, head, type id) has to beat, and the decoder lowers it as it takes
consequences.  Edge costs are nonnegative, so Arc drops a consequence whose
antecedents reach its slot before it prices the edge or builds the sig.
Arc branches once per entry on its direction, reading the slot and edge key
at that side's head.
A back-pointer names its rule, then the items it derives from:
("init", constant), ("skip", sig), ("arc", left sig, right sig, label).
Only this module builds or reads them, except A*'s own ("goal", sig).
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .costs import INF, SentenceCosts, ranked_tags
from .lexicon import Lexicon
from .trees import BOTTOM, IGNORE, ROOT, AmDepTree, EdgeLabel, TreeEntry
from .types import TypeTable

# (i, k, head, type id): tokens i..k-1 (k exclusive), head in that range.
# The type id indexes the lexicon's compiled type table, so the item's Type
# is lexicon.type_table.types[sig[3]].
Sig = tuple[int, int, int, int]

# ("goal",) is the virtual parent of all accepted full-span items.
GOAL_SIG = ("goal",)

# A final item as Skip and Arc read it: (sig, cost, head, type id).
Packed = tuple[Sig, float, int, int]
Emit = Callable[[Sig, float, float, tuple], None]
Limits = Callable[[int, int], list[float]]


class ParseItem(NamedTuple):
    cost: float
    back: tuple


def init(costs: SentenceCosts, lexicon: Lexicon, k_tags: Optional[int], emit: Emit) -> None:
    """Init: one item covering token j per (constant, cost) of ranked_tags(costs, k_tags)[j]."""
    for j, tags in enumerate(ranked_tags(costs, k_tags)):
        for g, cost in tags:
            try:
                typ = lexicon.type_of(g)
            except KeyError:
                raise ValueError(f"sentence {costs.sid}: tag for unknown constant {g!r}") from None
            emit((j, j + 1, j, lexicon.type_table.ids[typ]), cost, cost, ("init", g))


def skip(skips: Sequence[float], items: Sequence[Packed], j: int, emit: Emit) -> None:
    """Skip: extend each item over the adjacent token j, at the item's cost
    plus skips[j], from SentenceCosts.skips."""
    delta = skips[j]
    for sig, cost, head, typ in items:
        emit((j, sig[1], head, typ) if j < sig[0] else (sig[0], j + 1, head, typ), cost + delta,
             delta, ("skip", sig))


def label_bases(costs: SentenceCosts, table: TypeTable) -> list[int]:
    """Per label id of the table, its edge keys' base: the label's id in the
    costs times (n + 1) ** 2, or -(n + 1) ** 2 for a label the costs lack,
    so that every key it forms is negative and prices INF."""
    mm = (costs.n + 1) ** 2
    return [costs.label_index(lbl) * mm for lbl in table.labels]


def arcs(costs: SentenceCosts, table: TypeTable, bases: Sequence[int], lefts: Sequence[Packed],
         rights: Sequence[Packed], emit: Emit, limits: Limits) -> None:
    """Arc: every successful edge between an item of lefts and an adjacent
    item of rights that costs less than its slot in limits, pairs in order,
    labels in the table's order; bases is label_bases(costs, table)."""
    price = costs.edge_table.get
    m = costs.n + 1
    width = len(table.types)
    for lsig, lcost, lhead, ltyp in lefts:
        li, rk = lsig[0], 0  # rk: the right end whose slots are loaded
        lrow, lm = (lhead - li) * width, lhead * m
        row = table.combine[ltyp]
        for rsig, rcost, rhead, rtyp in rights:
            entries = row[rtyp]
            if not entries:
                continue
            if rsig[1] != rk:
                rk = rsig[1]
                slots = limits(li, rk)
            base = lcost + rcost
            for lbl, lid, typ, head_is_left in entries:
                if head_is_left:
                    limit = slots[lrow + typ]
                    if base >= limit:
                        continue
                    delta = price(bases[lid] + lm + rhead, INF)
                    cost = base + delta
                    if cost < limit:
                        emit((li, rk, lhead, typ), cost, delta, ("arc", lsig, rsig, lbl))
                else:
                    limit = slots[(rhead - li) * width + typ]
                    if base >= limit:
                        continue
                    delta = price(bases[lid] + rhead * m + lhead, INF)
                    cost = base + delta
                    if cost < limit:
                        emit((li, rk, rhead, typ), cost, delta, ("arc", lsig, rsig, lbl))


def root_cost(costs: SentenceCosts, table: TypeTable, sig: Sig) -> float:
    """The root edge accepting sig as a whole analysis; infinite unless sig
    spans the sentence with the empty type."""
    i, k, head, typ = sig
    if i == 1 and k == costs.n + 1 and typ == table.empty_id:
        return costs.edge_table.get(head, INF)  # ROOT's id is 0: keyed by the target alone
    return INF


def children(back: tuple) -> tuple[Sig, ...]:
    """The items a back-pointer derives its item from."""
    return () if back[0] == "init" else back[1:3]


def extract_tree(costs: SentenceCosts, items: Mapping[Sig, ParseItem],
                 root_sig: Sig) -> AmDepTree:
    """The tree root_sig's back-pointers derive, rooted at its head."""
    n = costs.n
    constant = [BOTTOM] * (n + 1)
    head = [0] * (n + 1)
    label: list[EdgeLabel] = [IGNORE] * (n + 1)
    stack = [root_sig]
    while stack:
        sig = stack.pop()
        back = items[sig].back
        if back[0] == "init":
            constant[sig[2]] = back[1]
        elif back[0] == "skip":
            stack.append(back[1])
        else:
            _, lsig, rsig, lbl = back
            dep = rsig[2] if lsig[2] == sig[2] else lsig[2]
            head[dep], label[dep] = sig[2], lbl
            stack += (lsig, rsig)
    head[root_sig[2]], label[root_sig[2]] = 0, ROOT
    return AmDepTree(tuple(
        TreeEntry(costs.forms[i - 1], constant[i], head[i], label[i]) for i in range(1, n + 1)
    ))
