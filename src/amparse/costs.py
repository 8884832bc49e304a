"""Per-sentence decision costs.

Every decoder minimizes the same additive objective: a tag cost per token
(choice of constant, or BOTTOM) plus an edge cost per incoming edge (ROOT
and IGNORE edges originate at the virtual token 0).  Costs are nonnegative
finite floats; missing entries are treated as +inf, which is how sparse
cost tables prune the search space.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .lexicon import Lexicon
from .trees import AmDepTree, BOTTOM, EdgeLabel, IGNORE, ROOT

INF = math.inf


@dataclass
class SentenceCosts:
    n: int
    forms: tuple[str, ...]
    tag_cost: dict[tuple[int, str], float] = field(default_factory=dict)
    edge_cost: dict[tuple[int, int, EdgeLabel], float] = field(default_factory=dict)
    sid: str = "0"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a sentence has at least one token")
        if len(self.forms) != self.n:
            raise ValueError("one form per token")
        n = self.n
        # Inline tests; _check runs only to raise for the first offender.
        for (i, g), c in self.tag_cost.items():
            if not (1 <= i <= n and 0 <= c < INF):
                self._check(i, c)
        for (o, j, label), c in self.edge_cost.items():
            if not (1 <= j <= n and 0 <= c < INF):
                self._check(j, c)
            if label.kind in ("root", "ignore"):
                if o != 0:
                    raise ValueError(f"{label} edges originate at 0, got {o}")
            elif not 1 <= o <= n or o == j:
                raise ValueError(f"bad edge origin {o} for {label} into {j}")

    def _check(self, i: int, c: float) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"token index {i} out of range 1..{self.n}")
        if not 0 <= c < INF:
            raise ValueError(f"costs are nonnegative finite, got {c}")

    def tag(self, i: int, constant: str) -> float:
        return self.tag_cost.get((i, constant), INF)

    def edge(self, origin: int, target: int, label: EdgeLabel) -> float:
        return self.edge_cost.get((origin, target, label), INF)


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
    """The k cheapest priced non-BOTTOM constants for token i, as (name, cost).

    Ascending cost, ties broken lexicographically; k=None returns all.
    """
    if not 1 <= i <= c.n:
        raise IndexError(f"token index {i} out of range 1..{c.n}")
    if k is not None and k < 1:
        raise ValueError("k >= 1")
    priced = sorted(
        ((cost, g) for (j, g), cost in c.tag_cost.items() if j == i and g != BOTTOM),
        key=lambda pair: (pair[0], pair[1]),
    )
    if k is not None:
        priced = priced[:k]
    return [(g, cost) for cost, g in priced]


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
