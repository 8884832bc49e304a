"""Dependency trees over tokens with graph-constant leaves.

A tree assigns every token 1..n a lexicon constant (or BOTTOM for tokens
left out of the analysis), a head in 0..n, and an edge label.  Exactly one
token hangs off the virtual root 0 with label ROOT; ignored tokens hang off
0 with label IGNORE; everything else is an app or mod edge between tokens.

Well-typedness folds types bottom-up: at each head, all mod children are
checked against the full lexical type first (mods never consume sources),
then app children are consumed one per round, the first by source name whose
source is still open with no incoming request edge.  Evaluation mirrors the
same plan on graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graphs import AsGraph, combine, graph_type
from .graphs import graph_apply, graph_modify  # noqa: F401  (unused; perfbench/spans.py wraps them)
from .types import EMPTY_TYPE, NAME_PATTERN, Type, request, type_combine

BOTTOM = "BOT"


class TreeError(ValueError):
    """Structurally invalid dependency tree."""


@dataclass(frozen=True)
class EdgeLabel:
    """app_<source> / mod_<source> / root / ignore, spelled APP_s etc. on disk."""

    kind: str
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind in ("app", "mod"):
            if not self.source:
                raise ValueError(f"{self.kind} label needs a source name")
            if not NAME_PATTERN.fullmatch(self.source):
                raise ValueError(f"bad source name {self.source!r}")
        elif self.kind in ("root", "ignore"):
            if self.source is not None:
                raise ValueError(f"{self.kind} label takes no source")
        else:
            raise ValueError(f"unknown label kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "app":
            return f"APP_{self.source}"
        if self.kind == "mod":
            return f"MOD_{self.source}"
        return self.kind.upper()

    def __repr__(self) -> str:
        return f"EdgeLabel({str(self)!r})"


ROOT = EdgeLabel("root")
IGNORE = EdgeLabel("ignore")

# Process-wide label ids: ROOT is 0, IGNORE is 1, and every other label gets
# the next id the first time label_id sees it, so ids >= 2 are exactly the
# app and mod labels.  Cost tables and the type table key on these ids; being
# process-wide, they do not survive pickling into another process.
LABELS: list[EdgeLabel] = [ROOT, IGNORE]
LABEL_IDS: dict[EdgeLabel, int] = {ROOT: 0, IGNORE: 1}


def label_id(label: EdgeLabel) -> int:
    """The label's process-wide id, interning it on first sight."""
    lid = LABEL_IDS.get(label)
    if lid is None:
        lid = LABEL_IDS[label] = len(LABELS)
        LABELS.append(label)
    return lid


# One shared label per (kind, source): trees and configurations holding many
# edges of a label hold one object for it.
_APP: dict[str, EdgeLabel] = {}
_MOD: dict[str, EdgeLabel] = {}


def app(source: str) -> EdgeLabel:
    lbl = _APP.get(source)
    if lbl is None:
        lbl = _APP[source] = EdgeLabel("app", source)  # raises before caching a bad source
    return lbl


def mod(source: str) -> EdgeLabel:
    lbl = _MOD.get(source)
    if lbl is None:
        lbl = _MOD[source] = EdgeLabel("mod", source)
    return lbl


def parse_edge_label(text: str) -> EdgeLabel:
    if text == "ROOT":
        return ROOT
    if text == "IGNORE":
        return IGNORE
    if text.startswith("APP_"):
        return app(text[4:])
    if text.startswith("MOD_"):
        return mod(text[4:])
    raise ValueError(f"bad edge label {text!r}")


@dataclass(frozen=True, slots=True)
class TreeEntry:
    form: str
    constant: str  # a lexicon constant name, or BOTTOM
    head: int
    label: EdgeLabel


@dataclass(frozen=True, slots=True)
class AmDepTree:
    """Entries for tokens 1..n in order; validated on construction."""

    entries: tuple[TreeEntry, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        roots = 0
        for i, e in enumerate(self.entries, start=1):
            if not 0 <= e.head <= n:
                raise TreeError(f"token {i}: head {e.head} out of range")
            if e.head == i:
                raise TreeError(f"token {i}: self-headed")
            if e.label == ROOT:
                roots += 1
                if e.head != 0:
                    raise TreeError(f"token {i}: ROOT label with head {e.head}")
                if e.constant == BOTTOM:
                    raise TreeError(f"token {i}: ROOT token cannot be {BOTTOM}")
            elif e.label == IGNORE:
                if e.head != 0:
                    raise TreeError(f"token {i}: IGNORE label with head {e.head}")
                if e.constant != BOTTOM:
                    raise TreeError(f"token {i}: IGNORE requires constant {BOTTOM}")
            else:
                if e.head == 0:
                    raise TreeError(f"token {i}: {e.label} edge cannot come from 0")
                if e.constant == BOTTOM:
                    raise TreeError(f"token {i}: attached token cannot be {BOTTOM}")
        if roots != 1:
            raise TreeError(f"expected exactly one ROOT edge, found {roots}")
        for i, e in enumerate(self.entries, start=1):
            if e.head != 0 and self.entries[e.head - 1].label == IGNORE:
                raise TreeError(f"token {i}: head {e.head} is an ignored token")
        # acyclicity: walk heads from each token in turn, up to 0 or a token
        # already known to reach it; meeting the current walk is a cycle
        state = [0] * (n + 1)  # 0 unseen, 1 on the current walk, 2 reaches 0
        for i in range(1, n + 1):
            walk, j = [], i
            while j != 0 and state[j] == 0:
                state[j] = 1
                walk.append(j)
                j = self.entries[j - 1].head
            if j != 0 and state[j] == 1:
                raise TreeError(f"head cycle through token {i}")
            for j in walk:
                state[j] = 2

    @property
    def n(self) -> int:
        return len(self.entries)

    def token(self, i: int) -> TreeEntry:
        return self.entries[i - 1]

    def root_token(self) -> int:
        for i, e in enumerate(self.entries, start=1):
            if e.label == ROOT:
                return i
        raise AssertionError("validated tree always has a root")


@dataclass
class TypingReport:
    ok: bool
    term_types: dict[int, Type] = field(default_factory=dict)
    failure: Optional[tuple[int, str]] = None
    # token -> its children in fold order (mods by position, then apps in
    # apply order), tokens listed children before their heads
    plans: dict[int, list[int]] = field(default_factory=dict, repr=False)


def check_well_typed(t: AmDepTree, lexicon) -> TypingReport:
    """Fold types bottom-up; ok iff every step is defined and the root's term
    type is empty.  term_types carries whatever was successfully computed;
    a token whose fold failed is absent from it.

    The fold takes the root's subtree bottom-up, each token after its
    children and siblings in ascending position; plans lists the tokens in
    that order."""
    report = TypingReport(ok=True)
    term_types, plans = report.term_types, report.plans
    entries = t.entries
    children: dict[int, list[int]] = {}  # ascending position
    for j, e in enumerate(entries, start=1):
        children.setdefault(e.head, []).append(j)

    def fail(token: int, why: str) -> None:
        if report.ok:
            report.ok = False
            report.failure = (token, why)

    def fold(i: int) -> None:
        """Set term_types[i] from its children's, unless a step fails."""
        constant = entries[i - 1].constant
        try:
            tau = lexicon.type_of(constant)
        except KeyError:
            fail(i, f"unknown constant {constant!r}")
            return
        kids = children.get(i, [])
        plan = plans[i] = [c for c in kids if entries[c - 1].label.kind == "mod"]
        for c in plan:
            label = entries[c - 1].label
            ct = term_types.get(c)
            if ct is None:
                return
            combined = type_combine(label, tau, ct)
            if combined is None:
                fail(c, f"mod edge {label} from {i}: {ct} does not modify {tau}")
                return
            tau = combined
        pending = sorted((c for c in kids if entries[c - 1].label.kind == "app"),
                         key=lambda c: entries[c - 1].label.source)
        while pending:
            for k, c in enumerate(pending):
                label = entries[c - 1].label
                if label.source in tau.nodes and not tau.has_incoming(label.source):
                    break
            else:
                bad = min(pending)
                fail(bad, f"app edge {entries[bad - 1].label} from {i}: source not consumable in {tau}")
                return
            del pending[k]
            ct = term_types.get(c)
            if ct is None:
                return
            combined = type_combine(label, tau, ct)
            if combined is None:
                fail(c, f"app edge {label} from {i}: argument type {ct} != {request(tau, label.source)}")
                return
            tau = combined
            plan.append(c)
        term_types[i] = tau

    # a work stack, not recursion, so deep trees fit; the reverse of a
    # pre-order that takes the highest child first is the fold order
    root = t.root_token()
    order, todo = [], [root]
    while todo:
        i = todo.pop()
        order.append(i)
        todo.extend(children.get(i, []))
    for i in reversed(order):
        fold(i)
    if report.ok and not term_types[root].is_empty():
        fail(root, f"root term type {term_types[root]} is not empty")
    return report


def evaluate_tree(t: AmDepTree, lexicon) -> AsGraph:
    """Evaluate a well-typed tree to its graph.  Raises TreeError otherwise."""
    report = check_well_typed(t, lexicon)
    if not report.ok:
        token, why = report.failure
        raise TreeError(f"tree is not well-typed at token {token}: {why}")
    plans = report.plans

    # fragments in pre-order, each token before its children's subtrees in
    # plan order, which numbers nodes as nested apply/modify calls would
    index: dict[int, int] = {}
    graphs = []
    todo = [t.root_token()]
    while todo:
        i = todo.pop()
        index[i] = len(graphs)
        graphs.append(lexicon.constants[t.token(i).constant])
        todo.extend(reversed(plans[i]))
    steps = [
        (t.token(c).label.kind, index[i], t.token(c).label.source, index[c])
        for i, plan in plans.items()  # children before their head
        for c in plan
    ]
    result = combine(graphs, steps)
    assert graph_type(result) == EMPTY_TYPE
    return result
