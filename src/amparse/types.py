"""Request DAGs: the types of the graph-combining algebra.

A type records which argument slots (sources) a graph still has open and
what each slot demands of its filler.  Formally a type is a DAG whose nodes
are source names; an edge (a, b) says "the argument plugged into a must
itself bring an open b slot".  The request of a node is the sub-DAG
reachable from it.

Design notes
------------
Types are kept transitively reduced: an edge that duplicates a longer path
is rejected at construction time.  Reduced DAGs are exactly the type DAGs
that a graph's request annotations can induce (each source points at the
roots of its request), so anything else could never be realized by a
lexicon entry.  Reducedness is preserved by request extraction and by both
combine operations, so the invariant is free after construction.

The text syntax is

    Type  := "[" [Entry ("," Entry)*] "]"
    Entry := NAME [Type]
    NAME  := [a-z][a-z0-9_]*

where a bracket-less mention means "empty request" and repeated mentions of
one name must agree.  The canonical form lists every node at top level in
lexicographic order and unfolds each node's direct successors recursively,
e.g. the DAG {s, o} with edge (o, s) prints as "[o[s], s]".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

NAME_PATTERN = re.compile(r"[a-z][a-z0-9_]*")


class InvalidType(ValueError):
    """A node/edge set that does not form a reduced DAG."""


class TypeSyntaxError(ValueError):
    """Malformed or inconsistent type text."""


@dataclass(frozen=True)
class Type:
    """An immutable request DAG.  Equality and hashing are structural."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise InvalidType(f"edge ({a}, {b}) mentions a missing node")
            if a == b:
                raise InvalidType(f"self-loop on {a}")
        for name in self.nodes:
            if not NAME_PATTERN.fullmatch(name):
                raise InvalidType(f"bad source name {name!r}")
        order = _toposort(self.nodes, self.edges)
        if order is None:
            raise InvalidType("cyclic request structure")
        for a, b in self.edges:
            if _has_long_path(self, a, b):
                raise InvalidType(
                    f"edge ({a}, {b}) shortcuts a longer path; "
                    "types must be transitively reduced"
                )

    def successors(self, name: str) -> frozenset[str]:
        return frozenset(b for a, b in self.edges if a == name)

    def has_incoming(self, name: str) -> bool:
        return any(b == name for _, b in self.edges)

    def is_empty(self) -> bool:
        return not self.nodes

    def __str__(self) -> str:
        return serialize_type(self)

    def __repr__(self) -> str:
        return f"Type({serialize_type(self)!r})"


def _toposort(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> Optional[list[str]]:
    nodes = set(nodes)
    indeg = {n: 0 for n in nodes}
    succs: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        indeg[b] += 1
        succs[a].append(b)
    ready = sorted(n for n, d in indeg.items() if d == 0)
    out: list[str] = []
    while ready:
        n = ready.pop()
        out.append(n)
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return out if len(out) == len(nodes) else None


def _has_long_path(t: Type, a: str, b: str) -> bool:
    # Is b reachable from a without using the direct edge (a, b)?
    seen = set()
    stack = [x for (u, x) in t.edges if u == a and x != b]
    while stack:
        x = stack.pop()
        if x == b:
            return True
        if x in seen:
            continue
        seen.add(x)
        stack.extend(y for (u, y) in t.edges if u == x)
    return False


EMPTY_TYPE = Type(frozenset(), frozenset())


def make_type(edges: Iterable[tuple[str, str]] = (), nodes: Iterable[str] = ()) -> Type:
    """Build a Type from edges plus any isolated nodes."""
    edges = frozenset(edges)
    all_nodes = frozenset(nodes) | {a for a, _ in edges} | {b for _, b in edges}
    return Type(all_nodes, edges)


# --- text form -------------------------------------------------------------


def serialize_type(t: Type) -> str:
    """Canonical text: every node at top level, lexicographic, full request
    unfolded at each mention."""

    def render(name: str) -> str:
        succ = sorted(t.successors(name))
        if not succ:
            return name
        return name + "[" + ", ".join(render(s) for s in succ) + "]"

    return "[" + ", ".join(render(n) for n in sorted(t.nodes)) + "]"


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take_name(self) -> str:
        self.peek()
        m = NAME_PATTERN.match(self.text, self.pos)
        if not m:
            raise TypeSyntaxError(f"expected a source name at offset {self.pos} in {self.text!r}")
        self.pos = m.end()
        return m.group(0)

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise TypeSyntaxError(f"expected {ch!r} at offset {self.pos} in {self.text!r}")
        self.pos += 1


def parse_type(text: str) -> Type:
    """Parse the bracket syntax into a DAG.

    Each mention of a name inside another name's brackets contributes one
    requester -> requested edge.  All mentions of one name must carry the
    same direct successors; listing a name with no brackets declares an
    empty request at that mention.
    """
    toks = _Tokens(text)
    children: dict[str, frozenset[str]] = {}
    names: set[str] = set()

    def entry_list() -> frozenset[str]:
        toks.expect("[")
        here: list[str] = []
        if toks.peek() == "]":
            toks.pos += 1
            return frozenset()
        while True:
            here.append(entry())
            ch = toks.peek()
            if ch == ",":
                toks.pos += 1
                continue
            toks.expect("]")
            return frozenset(here)

    def entry() -> str:
        name = toks.take_name()
        names.add(name)
        kids = entry_list() if toks.peek() == "[" else frozenset()
        if name in children and children[name] != kids:
            raise TypeSyntaxError(
                f"inconsistent requests for {name!r}: "
                f"{sorted(children[name])} vs {sorted(kids)}"
            )
        children[name] = kids
        return name

    entry_list()
    if toks.peek():
        raise TypeSyntaxError(f"trailing text at offset {toks.pos} in {text!r}")
    edges = frozenset((a, b) for a, kids in children.items() for b in kids)
    try:
        return Type(frozenset(names), edges)
    except InvalidType as exc:
        raise TypeSyntaxError(f"{text!r}: {exc}") from exc


# --- algebra on types ------------------------------------------------------


@lru_cache(maxsize=None)
def request(t: Type, name: str) -> Type:
    """The sub-DAG reachable from name, excluding name itself."""
    if name not in t.nodes:
        raise KeyError(f"{name!r} is not a node of {t}")
    reach: set[str] = set()
    stack = list(t.successors(name))
    while stack:
        x = stack.pop()
        if x in reach:
            continue
        reach.add(x)
        stack.extend(t.successors(x))
    edges = frozenset((a, b) for a, b in t.edges if a in reach and b in reach)
    return Type(frozenset(reach), edges)


def _induced_edges(t: Type, keep: frozenset[str]) -> frozenset[tuple[str, str]]:
    return frozenset((a, b) for a, b in t.edges if a in keep and b in keep)


def remove_node(t: Type, name: str) -> Type:
    keep = t.nodes - {name}
    return Type(keep, frozenset((a, b) for a, b in t.edges if a != name and b != name))


@lru_cache(maxsize=None)
def _combine_app(head: Type, arg: Type, source: str) -> Optional[Type]:
    if source not in head.nodes:
        return None
    if head.has_incoming(source):
        return None
    if arg != request(head, source):
        return None
    return remove_node(head, source)


@lru_cache(maxsize=None)
def _combine_mod(head: Type, arg: Type, source: str) -> Optional[Type]:
    if source not in arg.nodes:
        return None
    if not request(arg, source).is_empty():
        return None
    rest = arg.nodes - {source}
    if not rest <= head.nodes:
        return None
    # Every shared source must demand the same thing on both sides, or the
    # two graphs' annotations could not merge.
    for x in rest:
        if request(arg, x) != request(head, x):
            return None
    return head


def type_combine(label, head: Type, arg: Type) -> Optional[Type]:
    """Type of combining a head with an argument/modifier; None if ill-typed.

    label is an EdgeLabel of kind app or mod (see amparse.trees).  For app,
    the applied source must be un-requested (no incoming edges) and the
    argument's type must equal its request exactly.  For mod, the modifier
    keeps the head's type unchanged but may only carry sources the head
    already has, each with an identical request.
    """
    kind = label.kind
    if kind == "app":
        return _combine_app(head, arg, label.source)
    if kind == "mod":
        return _combine_mod(head, arg, label.source)
    raise ValueError(f"type_combine needs an app or mod label, got {label}")


@lru_cache(maxsize=None)
def apply_set(lex: Type, term: Type) -> Optional[frozenset[str]]:
    """The set of sources consumed going from lexical type lex to term type
    term by applications only, or None when unreachable.

    Closed form: the difference lex.nodes - term.nodes qualifies iff term is
    the induced sub-DAG of lex on its nodes and no lex edge points from a
    surviving node into the removed set (such a source could never shed its
    incoming edge and so could never be applied).
    """
    if not term.nodes <= lex.nodes:
        return None
    if _induced_edges(lex, term.nodes) != term.edges:
        return None
    removed = lex.nodes - term.nodes
    for a, b in lex.edges:
        if a in term.nodes and b in removed:
            return None
    return frozenset(removed)


def apply_reachable(lex: Type, term: Type) -> bool:
    return apply_set(lex, term) is not None


# --- compiled type table ---------------------------------------------------


@dataclass(frozen=True)
class TypeTable:
    """Every type the deductive decoders can meet, interned as dense ids.

    types is the closure of a lexicon's lexical types under type_combine
    over its arc labels.  It is finite, because both combine operations
    return a sub-DAG of the head, but it is not omega: an apply result can
    fall outside omega.  A type's id is its index in types, which lists the
    types in serialize_type order, so comparing ids ranks types exactly as
    comparing their text would.  types[i] recovers the Type of id i; ids
    maps back.

    combine[lt][rt] lists the successful arcs between a left item of type
    id lt and an adjacent right item of type id rt, as (label, result id,
    head_is_left) triples: labels in str order, and for each label the
    left-headed arc (type_combine(label, left, right)) before the
    right-headed one.
    """

    types: tuple[Type, ...]
    ids: dict[Type, int]
    combine: tuple[tuple[tuple[tuple, ...], ...], ...]

    @property
    def empty_id(self) -> int:
        """Id of the empty type, or -1 when no lexical type reduces to it."""
        return self.ids.get(EMPTY_TYPE, -1)


def build_type_table(lexical: Iterable[Type], labels: Iterable) -> TypeTable:
    """Close the lexical types under type_combine over the given app/mod
    labels, intern them, and tabulate every successful combination."""
    labels = sorted(labels, key=str)
    closed = set(lexical)
    frontier = list(closed)
    while frontier:
        found: set[Type] = set()
        for t in frontier:
            for u in closed:
                for lbl in labels:
                    for r in (type_combine(lbl, t, u), type_combine(lbl, u, t)):
                        if r is not None and r not in closed:
                            found.add(r)
        closed |= found
        frontier = list(found)
    types = tuple(sorted(closed, key=serialize_type))
    ids = {t: i for i, t in enumerate(types)}

    def arcs(left: Type, right: Type) -> tuple:
        out = []
        for lbl in labels:
            for result, head_is_left in (
                (type_combine(lbl, left, right), True),
                (type_combine(lbl, right, left), False),
            ):
                if result is not None:
                    out.append((lbl, ids[result], head_is_left))
        return tuple(out)

    combine = tuple(tuple(arcs(lt, rt) for rt in types) for lt in types)
    return TypeTable(types, ids, combine)
