"""Per-sentence decision costs.

Every decoder minimizes the same additive objective: a tag cost per token
(choice of constant, or BOTTOM) plus an edge cost per incoming edge (ROOT
and IGNORE edges originate at the virtual token 0).  Costs are nonnegative
finite floats; missing entries are treated as +inf, which is how sparse
cost tables prune the search space.

Tag costs are a plain dict, tag_cost[(token, constant)].  Edge costs are
stored as one insertion-ordered dict[int, float] per sentence, edge_table,
keyed (label id * m + origin) * m + target with m = n + 1 and the label's
index in the sentence's own labels: ROOT 0, IGNORE 1, then arc labels.  Int
keys are not tracked by the garbage collector and hash without a method
call; the cost reader writes them directly, and the rule kernel, the A*
estimates and the transition scorer compute them inline.  The constructor
takes an {(origin, target, EdgeLabel): cost} dict and numbers its arc
labels in first-appearance order; edge_cost is a read-only Mapping view of
the table with those keys, in insertion order.

Construction validates the edge table with a few tests over the whole
table, in C, and O(n) probes per arc label (_edges_valid_in_bulk); only
when one fails does a per-entry loop run, to name the first offender.

Three cached rows give each token's cheapest decisions: ranked, skips and
attach_in (index 0 is the virtual token's).  Each is built by one scan at
its first read and reflects the costs as they were then, so edit costs
only before decoding; a copy, a pickle or from_table starts with none.
"""

from __future__ import annotations

import math
import random
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import lt
from typing import NoReturn, Optional

from .lexicon import Lexicon
from .trees import AmDepTree, BOTTOM, EdgeLabel, IGNORE, ROOT

INF = math.inf


class EdgeCostView(Mapping):
    """Read-only {(origin, target, EdgeLabel): cost} view of an edge table."""

    __slots__ = ("_table", "_n", "_labels", "_ids")

    def __init__(self, table: dict[int, float], n: int, labels: tuple[EdgeLabel, ...]):
        self._table, self._n, self._labels, self._ids = table, n, labels, None

    def label_index(self, label: EdgeLabel) -> int:
        """The label's index in labels; -1 if it has none."""
        if self._ids is None:  # built on first use, as a read table may never be priced
            self._ids = {lbl: lid for lid, lbl in enumerate(self._labels)}
        return self._ids.get(label, -1)

    def key(self, origin: int, target: int, label: EdgeLabel) -> Optional[int]:
        """The edge_table key of an edge; None, which no table holds, if the
        table has no id for the label or an end is out of range."""
        lid, n = self.label_index(label), self._n
        if lid < 0 or not (0 <= origin <= n and 1 <= target <= n):
            return None
        return (lid * (n + 1) + origin) * (n + 1) + target

    def __getitem__(self, key):
        try:
            c = self._table.get(self.key(*key))
        except TypeError:
            raise KeyError(key) from None
        if c is None:
            raise KeyError(key)
        return c

    def __iter__(self):
        m = self._n + 1
        mm, labels = m * m, self._labels
        for key in self._table:
            yield key // m % m, key % m, labels[key // mm]

    def __len__(self) -> int:
        return len(self._table)

    def items(self):
        return _EdgeItems(self)

    def values(self):
        return self._table.values()

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _EdgeItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._table.values())


@dataclass
class SentenceCosts:
    """One sentence's tag and edge costs; the module docstring gives the
    edge_table layout.  Construction validates every entry."""

    n: int
    forms: tuple[str, ...]
    tag_cost: dict[tuple[int, str], float] = field(default_factory=dict)
    edge_cost: Mapping[tuple[int, int, EdgeLabel], float] = field(default_factory=dict)
    sid: str = "0"
    edge_table: dict[int, float] = field(init=False, repr=False, compare=False)
    labels: tuple[EdgeLabel, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        m = n + 1
        self.edge_table = table = {}
        ids = {ROOT: 0, IGNORE: 1}
        for (o, j, label), c in self.edge_cost.items():
            if not (0 <= o <= n and 1 <= j <= n):
                # No key holds this edge: report it unless an earlier entry
                # (tags first) is at fault.
                self.labels = tuple(ids)
                self._validate()
                self._edge_fault(o, j, label, c)
            table[(ids.setdefault(label, len(ids)) * m + o) * m + j] = c
        self.labels = tuple(ids)
        self._validate()
        self.edge_cost = EdgeCostView(table, n, self.labels)

    def __reduce__(self):
        # from_table, so that the copy starts with no cached rows
        return SentenceCosts.from_table, (self.n, self.forms, self.tag_cost, self.edge_table,
                                          self.labels, self.sid)

    @classmethod
    def from_table(cls, n: int, forms: tuple[str, ...], tag_cost: dict,
                   edge_table: dict[int, float], labels: tuple[EdgeLabel, ...],
                   sid: str = "0") -> SentenceCosts:
        """Costs over an edge table keyed by ids into labels, which a reader
        may share between sentences, each key's target in 1..n and origin in
        0..n; validated as the constructor does."""
        self = cls.__new__(cls)
        self.n, self.forms, self.tag_cost, self.edge_table, self.labels, self.sid = (
            n, forms, tag_cost, edge_table, labels, sid)
        self._validate()
        self.edge_cost = EdgeCostView(edge_table, n, labels)
        return self

    def _validate(self) -> None:
        """Raise ValueError for the first offender, tags before edges."""
        n = self.n
        if n < 1:
            raise ValueError("a sentence has at least one token")
        if len(self.forms) != n:
            raise ValueError("one form per token")
        # Inline tests; _check and _edge_fault run only to raise for the
        # first offender.  Tags are few, so each is tested in turn.
        for (i, g), c in self.tag_cost.items():
            if not (1 <= i <= n and 0 <= c < INF):
                self._check(i, c)
        if self._edges_valid_in_bulk():
            return
        m = n + 1
        mm = m * m
        first_arc = 2 * mm  # keys of app and mod labels start here
        size = len(self.labels) * mm  # keys of the labels' ids
        for key, c in self.edge_table.items():
            if not 0 <= key < size:
                raise ValueError(
                    f"edge key {key} out of range 0..{size - 1} of {len(self.labels)} labels")
            o, j = key // m % m, key % m
            if not (0 <= c < INF and j != 0
                    and (o != 0 and o != j if key >= first_arc else o == 0)):
                self._edge_fault(o, j, self.labels[key // mm], c)

    def _edges_valid_in_bulk(self) -> bool:
        """True only if every edge entry is valid, by tests over the whole
        table that run no Python step per entry; False calls for the
        per-entry loop, which names the first offender or, when two huge
        costs sum to inf, finds none.  Every cost is at least 0 and they sum
        to a finite value; no key lies past the labels' ids; every key
        below the arc labels' (so none is negative) is in one of the 2n
        origin-0 root and ignore slots; and no arc label has a key in one of
        its 3n + 1 slots with target 0, origin 0 or origin equal to the
        target.  So it costs a few passes in C over the table and 3n + 1
        probes per arc label id up to the table's largest, never one per
        possible key."""
        table = self.edge_table
        if not table:
            return True
        m = self.n + 1
        mm = m * m
        first_arc = 2 * mm  # keys of app and mod labels start here
        try:
            if not (min(table.values()) >= 0 and sum(table.values()) < INF):
                return False
        except (TypeError, OverflowError):  # a cost no float sum takes; the loop judges it
            return False
        keys = table.keys()
        top = max(keys)
        if top >= len(self.labels) * mm:
            return False  # a key past the labels' ids
        # every key below first_arc is a root or ignore key in an origin-0 slot
        if (sum(map(lt, keys, repeat(first_arc)))
                != len(keys & range(1, m)) + len(keys & range(mm + 1, mm + m))):
            return False
        return all(keys.isdisjoint(range(base, base + mm, m))  # target 0
                   and keys.isdisjoint(range(base + 1, base + m))  # origin 0
                   and keys.isdisjoint(range(base + m + 1, base + mm, m + 1))  # origin = target
                   for base in range(first_arc, top + 1, mm))

    def _check(self, i: int, c: float) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"token index {i} out of range 1..{self.n}")
        if not 0 <= c < INF:
            raise ValueError(f"costs are nonnegative finite, got {c}")

    def _edge_fault(self, o: int, j: int, label: EdgeLabel, c: float) -> NoReturn:
        """Raise for an edge known to be at fault: target, then cost, then origin."""
        self._check(j, c)
        if label.kind in ("root", "ignore"):
            raise ValueError(f"{label} edges originate at 0, got {o}")
        raise ValueError(f"bad edge origin {o} for {label} into {j}")

    def tag(self, i: int, constant: str) -> float:
        return self.tag_cost.get((i, constant), INF)

    def label_index(self, label: EdgeLabel) -> int:
        """The label's id in edge_table's keys; -1 if labels lacks it."""
        return self.edge_cost.label_index(label)

    def edge(self, origin: int, target: int, label: EdgeLabel) -> float:
        """The edge's cost; INF if unpriced, also for a label the table lacks."""
        return self.edge_table.get(self.edge_cost.key(origin, target, label), INF)

    @cached_property
    def ranked(self) -> list[tuple[str, ...]]:
        """Per token, its priced non-BOTTOM constants by cost, then name; names
        only, as a (name, cost) pair per tag that outlives the decode slows A*."""
        priced: list[list[tuple[float, str]]] = [[] for _ in range(self.n + 1)]
        for (j, g), cost in self.tag_cost.items():
            if g != BOTTOM:
                priced[j].append((cost, g))
        return [tuple([g for _, g in sorted(pairs)]) for pairs in priced]

    @cached_property
    def skips(self) -> list[float]:
        """Per token, the cost of leaving it out: BOTTOM tag plus ignore edge."""
        m = self.n + 1  # IGNORE's id is 1, so its edge into j is keyed m * m + j
        return [INF] + [self.tag(j, BOTTOM) + self.edge_table.get(m * m + j, INF) for j in range(1, m)]

    @cached_property
    def attach_in(self) -> list[float]:
        """Per token, its cheapest priced apply or modify in-edge."""
        m = self.n + 1
        first_arc = 2 * m * m  # keys of app and mod labels start here
        best = [INF] * m
        for key, c in self.edge_table.items():
            if key >= first_arc and c < best[key % m]:
                best[key % m] = c
        return best


def tree_cost(t: AmDepTree, c: SentenceCosts) -> float:
    """Sum of all tag and incoming-edge decisions; +inf if any is unpriced."""
    if t.n != c.n:
        raise ValueError(f"tree has {t.n} tokens, costs {c.n}")
    total = 0.0
    for i in range(1, t.n + 1):
        e = t.token(i)
        total += c.tag(i, e.constant)
        total += c.edge(e.head, i, e.label)
    return total


def top_k_tags(c: SentenceCosts, i: int, k: Optional[int]) -> list[tuple[str, float]]:
    """The first k constants of c.ranked[i] with their costs; all if k is None."""
    if not 1 <= i <= c.n:
        raise IndexError(f"token index {i} out of range 1..{c.n}")
    return ranked_tags(c, k)[i]


def ranked_tags(c: SentenceCosts, k: Optional[int]) -> list[list[tuple[str, float]]]:
    """top_k_tags(c, i, k) at index i for every token i; index 0 is empty."""
    if k is not None and k < 1:
        raise ValueError("k >= 1")
    return [[(g, c.tag_cost[j, g]) for g in names[:k]] for j, names in enumerate(c.ranked)]


@dataclass(frozen=True)
class CostParams:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.hi):
            raise ValueError("need 0 <= lo <= hi")


def gen_synthetic(
    seed: int,
    n: int,
    lexicon: Lexicon,
    params: CostParams = CostParams(),
    sid: Optional[str] = None,
) -> SentenceCosts:
    """Dense uniform costs over every constant and every legal edge.

    Deterministic in (seed, n, lexicon contents): iteration follows sorted
    constant and label order, so equal seeds give equal tables.
    """
    if n < 1:
        raise ValueError("n >= 1")
    rng = random.Random(seed)
    draw = lambda: rng.uniform(params.lo, params.hi)
    tags: dict[tuple[int, str], float] = {}
    names = lexicon.constant_names() + [BOTTOM]
    for i in range(1, n + 1):
        for g in names:
            tags[(i, g)] = draw()
    edges: dict[tuple[int, int, EdgeLabel], float] = {}
    labels = lexicon.arc_labels
    for j in range(1, n + 1):
        edges[(0, j, ROOT)] = draw()
        edges[(0, j, IGNORE)] = draw()
        for o in range(1, n + 1):
            if o == j:
                continue
            for label in labels:
                edges[(o, j, label)] = draw()
    forms = tuple(f"w{i}" for i in range(1, n + 1))
    return SentenceCosts(n, forms, tags, edges, sid=sid if sid is not None else str(seed))
