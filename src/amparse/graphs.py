"""Rooted labeled graphs with named argument slots (sources).

An AsGraph is the denotation domain of the algebra: a directed graph with a
designated root, optional node labels, and at most one source marking per
node.  A source marking names an open argument slot; its request annotation
(a Type) says what the filler must still have open.  Combining is by node
merging: apply plugs the argument's root into the head's slot, modify plugs
the head's root into the modifier's slot.  Same-named sources of the two
operands always merge, except the consumed slot, which fuses only with the
other root; that merging is what creates reentrancies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .types import EMPTY_TYPE, Type, parse_type, request


class GraphError(ValueError):
    """Malformed graph or an undefined graph combination."""


@dataclass(frozen=True, slots=True)
class GraphNode:
    id: str
    label: Optional[str] = None
    source: Optional[str] = None
    request: Optional[Type] = None

    def __post_init__(self) -> None:
        if self.request is not None and self.source is None:
            raise GraphError(f"node {self.id}: request annotation without a source marking")


@dataclass(eq=False)
class AsGraph:
    """nodes are keyed by opaque ids; edges are (from_id, label, to_id).

    Graph equality is always isomorphism (graphs_isomorphic), never id
    equality, so no __eq__ is defined.
    """

    nodes: tuple[GraphNode, ...]
    edges: frozenset[tuple[str, str, str]]
    root: str

    def __post_init__(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate node ids")
        byid = {n.id: n for n in self.nodes}
        if self.root not in byid:
            raise GraphError(f"root {self.root!r} is not a node")
        sources = [n.source for n in self.nodes if n.source is not None]
        if len(set(sources)) != len(sources):
            raise GraphError("source names must be unique across the graph")
        for a, lbl, b in self.edges:
            if a not in byid or b not in byid:
                raise GraphError(f"edge ({a}, {lbl}, {b}) mentions a missing node")
        if not self._weakly_connected():
            raise GraphError("graph must be weakly connected")

    def _weakly_connected(self) -> bool:
        if len(self.nodes) <= 1:
            return True
        adj: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        for a, _, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.root}
        stack = [self.root]
        while stack:
            for m in adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len(self.nodes)


def make_graph(
    nodes: Iterable[tuple], edges: Iterable[tuple[str, str, str]], root: str
) -> AsGraph:
    """Convenience constructor; node tuples are (id, label[, source[, request]]).

    The request slot accepts either a Type or its text form.
    """
    built = []
    for spec in nodes:
        spec = tuple(spec) + (None,) * (4 - len(spec))
        node_id, label, source, req = spec
        if isinstance(req, str):
            req = parse_type(req)
        if source is not None and req is None:
            req = EMPTY_TYPE
        built.append(GraphNode(node_id, label, source, req))
    return AsGraph(tuple(built), frozenset(edges), root)


# --- typing ----------------------------------------------------------------


def graph_type(g: AsGraph) -> Type:
    """The Type induced by g's source markings and request annotations.

    Nodes are all source names mentioned anywhere (markings plus request
    contents); each annotated source points at the roots of its request and
    contributes the request's own edges.  Raises GraphError when the
    annotations contradict each other.
    """
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    annotated: dict[str, Type] = {}
    for n in g.nodes:
        if n.source is None:
            continue
        req = n.request if n.request is not None else EMPTY_TYPE
        annotated[n.source] = req
        nodes.add(n.source)
        nodes.update(req.nodes)
        edges.update(req.edges)
        for m in req.nodes:
            if not any(b == m for _, b in req.edges):
                edges.add((n.source, m))
    try:
        t = Type(frozenset(nodes), frozenset(edges))
    except ValueError as exc:
        raise GraphError(f"inconsistent request annotations: {exc}") from exc
    for name, req in annotated.items():
        if request(t, name) != req:
            raise GraphError(
                f"request annotations disagree about {name!r}: "
                f"declared {req}, induced {request(t, name)}"
            )
    return t


# --- combination -----------------------------------------------------------


def combine(graphs: Sequence[AsGraph], steps: Sequence[tuple[str, int, str, int]]) -> AsGraph:
    """Run apply and modify steps over graphs in one merge pass.

    Each step (kind, head, source, arg) combines the fragments grown from
    graphs[head] and graphs[arg]: "app" plugs arg's root into head's source
    slot, "mod" plugs head's root into arg's source slot, and the root stays
    head's.  A step comes after every step whose head is its arg.  The
    consumed slot fuses only with the other root; every other same-named
    source of the two fragments fuses.  The result is graphs[0]'s fragment,
    built once at the end with node ids n0, n1, ... in order of first
    appearance in graphs; with no steps it is graphs[0] itself.  Raises
    GraphError on a missing slot, or when fused nodes disagree on a label
    or same-named sources on a request.  A fused node never holds two open
    sources: the consumed slot's marking goes before it fuses, and every
    other fusion pairs one name.
    """
    if not steps:
        return graphs[0]
    parent: list[int] = []  # union-find over every input node, numbered in order
    label: list[Optional[str]] = []  # a class's label, kept at its representative
    roots: list[int] = []
    sources: list[dict[str, tuple[int, Type]]] = []  # per fragment: open name -> (node, request)
    edges: list[tuple[int, str, int]] = []
    for g in graphs:
        index = {}
        for n in g.nodes:
            index[n.id] = len(parent)
            parent.append(len(parent))
            label.append(n.label)
        roots.append(index[g.root])
        sources.append({
            n.source: (index[n.id], n.request if n.request is not None else EMPTY_TYPE)
            for n in g.nodes if n.source is not None
        })
        edges += [(index[a], lbl, index[b]) for a, lbl, b in g.edges]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a != b:
            if None not in (label[a], label[b]) and label[a] != label[b]:
                raise GraphError(f"label conflict on merged node: {sorted((label[a], label[b]))}")
            parent[a] = b
            if label[b] is None:
                label[b] = label[a]

    for kind, h, source, a in steps:
        head, arg = sources[h], sources[a]
        try:
            slot, _ = (head if kind == "app" else arg).pop(source)
        except KeyError:
            raise GraphError(f"no source named {source!r}") from None
        union(slot, roots[a] if kind == "app" else roots[h])
        for name, (node, req) in arg.items():
            if name not in head:
                head[name] = (node, req)
            elif head[name][1] != req:
                raise GraphError(f"conflicting requests for source {name!r} on merge")
            else:
                union(node, head[name][0])

    marks = {find(node): (name, req) for name, (node, req) in sources[0].items()}
    ids: dict[int, str] = {}
    nodes = []
    for x in range(len(parent)):
        r = find(x)
        if r not in ids:
            ids[r] = f"n{len(ids)}"
            name, req = marks.get(r, (None, None))
            nodes.append(GraphNode(ids[r], label[r], name, req))
    return AsGraph(
        tuple(nodes),
        frozenset((ids[find(a)], lbl, ids[find(b)]) for a, lbl, b in edges),
        ids[find(roots[0])],
    )


def graph_apply(head: AsGraph, source: str, arg: AsGraph) -> AsGraph:
    """Plug arg's root into head's source slot.

    The caller is responsible for type correctness (type_combine on an app
    label); this raises GraphError when the slot is missing or the merge is
    inconsistent.
    """
    return combine((head, arg), [("app", 0, source, 1)])


def graph_modify(head: AsGraph, source: str, mod: AsGraph) -> AsGraph:
    """Plug head's root into mod's source slot; the root stays head's."""
    return combine((head, mod), [("mod", 0, source, 1)])


# --- isomorphism -----------------------------------------------------------


def graphs_isomorphic(g1: AsGraph, g2: AsGraph) -> bool:
    """Root-anchored isomorphism respecting labels, sources, requests, and
    edge labels.  Nodes are matched only to nodes of the same signature, by
    backtracking on an explicit stack, so graph size is not bounded by the
    recursion limit."""
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False

    def index(g: AsGraph):
        """out- and in-adjacency of g's nodes, and its node ids by signature:
        label, source, request, incident edge labels, and being the root."""
        out: dict[str, set[tuple[str, str]]] = {n.id: set() for n in g.nodes}
        inc: dict[str, set[tuple[str, str]]] = {n.id: set() for n in g.nodes}
        for a, lbl, b in g.edges:
            out[a].add((lbl, b))
            inc[b].add((lbl, a))
        groups: dict[tuple, list[str]] = {}
        for n in g.nodes:
            sig = (n.label, n.source, n.request, tuple(sorted(lbl for lbl, _ in out[n.id])),
                   tuple(sorted(lbl for lbl, _ in inc[n.id])), n.id == g.root)
            groups.setdefault(sig, []).append(n.id)
        return out, inc, groups

    out1, in1, groups1 = index(g1)
    out2, in2, groups2 = index(g2)
    if {s: len(ids) for s, ids in groups1.items()} != {s: len(ids) for s, ids in groups2.items()}:
        return False
    sig = {a: s for s, ids in groups1.items() for a in ids}
    # g1's nodes root-first, then most edges first, for fast failure
    ordered = sorted(sig, key=lambda a: (a != g1.root, -len(out1[a]) - len(in1[a]), a))
    mapping: dict[str, str] = {}
    # per signature, g2's candidates with the unmatched ones first: matching
    # one moves it to the end of that prefix, and undoing swaps it back
    pools = {s: list(ids) for s, ids in groups2.items()}
    free = {s: len(ids) for s, ids in groups2.items()}

    def consistent(a: str, b: str) -> bool:
        for lbl, x in out1[a]:
            if x in mapping and (lbl, mapping[x]) not in out2[b]:
                return False
        for lbl, x in in1[a]:
            if x in mapping and (lbl, mapping[x]) not in in2[b]:
                return False
        return True

    tries = [0]  # per depth d, where ordered[d]'s free candidates resume
    while tries:
        d = len(tries) - 1
        if d == len(ordered):
            return True
        a = ordered[d]
        s, k = sig[a], tries[d]
        pool = pools[s]
        if a in mapping:  # back at depth d: undo its last choice, at k - 1
            del mapping[a]
            pool[k - 1], pool[free[s]] = pool[free[s]], pool[k - 1]
            free[s] += 1
        while k < free[s] and not consistent(a, pool[k]):
            k += 1
        if k == free[s]:
            tries.pop()
        else:
            free[s] -= 1
            pool[k], pool[free[s]] = pool[free[s]], pool[k]
            mapping[a] = pool[free[s]]
            tries[d] = k + 1
            tries.append(0)
    return False
