"""Lexicons: named graph constants plus the type and label inventories.

Decoding needs a closed lexicon:

  1. every type in omega is realized by at least one constant,
  2. omega is closed under requests, and holds the empty type [] that the
     root requests,
  3. [beta] is in omega for every mod_beta label,
  4. app_alpha is a label for every source alpha occurring in the constants.

validate_closure reports violations; augment_closure repairs them by closing
omega, adding labels, and synthesizing star-shaped constants for unrealized
types (root labeled _synth, one opK edge per source of the type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .graphs import AsGraph, GraphNode, graph_type, graphs_isomorphic
from .trees import BOTTOM, EdgeLabel, IGNORE, ROOT, app, mod
from .types import EMPTY_TYPE, Type, TypeTable, build_type_table, request


@dataclass
class ClosureViolation:
    assumption: int  # 1..4 as in the module docstring
    witness: str

    def __str__(self) -> str:
        return f"assumption {self.assumption}: {self.witness}"


@dataclass
class ClosureReport:
    violations: list[ClosureViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class Lexicon:
    constants: dict[str, AsGraph]
    omega: frozenset[Type]
    labels: frozenset[EdgeLabel]
    name: str = "lexicon"

    def __post_init__(self) -> None:
        if BOTTOM in self.constants:
            raise ValueError(f"{BOTTOM} is reserved and cannot name a constant")
        self._types = {name: graph_type(g) for name, g in self.constants.items()}
        # omega always covers the realized types, labels ROOT and IGNORE; a set
        # that already does is kept, so a copy iterates, and prints, as its original
        omega, labels, realized = map(frozenset, (self.omega, self.labels, self._types.values()))
        self.omega = omega if realized <= omega else omega | realized
        self.labels = labels if {ROOT, IGNORE} <= labels else labels | {ROOT, IGNORE}
        # the sorted inventories the guards read at every step, built once
        self._names = sorted(self.constants)
        # sorted constant names per realized type; its keys are the realized types
        self.by_type: dict[Type, list[str]] = {}
        for name in self._names:
            self.by_type.setdefault(self._types[name], []).append(name)
        self._sources = {kind: sorted(l.source for l in self.labels if l.kind == kind)
                         for kind in ("app", "mod")}

    def __eq__(self, other) -> bool:
        """Equal names, omega, labels and constant names, and each constant's
        graph isomorphic to its namesake's: graphs have no __eq__."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name == other.name and self.omega == other.omega
                and self.labels == other.labels
                and self.constants.keys() == other.constants.keys()
                and all(graphs_isomorphic(g, other.constants[name])
                        for name, g in self.constants.items()))

    def type_of(self, constant: str) -> Type:
        return self._types[constant]

    @property
    def arc_labels(self) -> list[EdgeLabel]:
        """The apply and modify labels, in str order."""
        return sorted((l for l in self.labels if l.kind in ("app", "mod")), key=str)

    @cached_property
    def type_table(self) -> TypeTable:
        """The lexical types' closure under the arc labels, compiled once on
        first use (see amparse.types.TypeTable)."""
        return build_type_table(self._types.values(), self.arc_labels)

    @cached_property
    def guards(self) -> dict:
        """One memo of transition guard answers over this lexicon, shared
        whatever the setting, for as long as the lexicon lives.  Every entry
        point fills it with the answers of each token state (options, owed
        slots, dependents' term types, Choose and Finish transitions), which
        read the lexicon alone; only decode adds move sets, which also read
        the budget.
        amparse.transitions._Guards lists its keys and says why."""
        return {}

    @cached_property
    def last_typed(self) -> tuple:
        """The last (tree, TypingReport) amparse.trees.check_well_typed made
        over this lexicon, or (None, None).  It answers again only for that
        very tree object, so checking, evaluating and both oracles on one
        tree fold it once; a pickle or a copy starts without it."""
        return None, None

    @cached_property
    def max_sources(self) -> int:
        """The most sources any type of omega has: no set of sources a
        lexical type consumes is larger."""
        return max((len(t.nodes) for t in self.omega), default=0)

    def __getstate__(self) -> dict:
        """The state to pickle, without the cached properties above: each is
        a cache that is rebuilt on first use."""
        return {name: value for name, value in vars(self).items()
                if not isinstance(getattr(Lexicon, name, None), cached_property)}

    def constant_names(self) -> list[str]:
        """Sorted constant names; the list is shared, so callers copy before changing it."""
        return self._names

    def sources(self) -> frozenset[str]:
        """All source names occurring in the constants (markings and their
        request annotations, i.e. the nodes of the realized types)."""
        return frozenset(s for t in self.by_type for s in t.nodes)

    def app_sources(self) -> list[str]:
        """Sorted app-label sources; shared like constant_names."""
        return self._sources["app"]

    def mod_sources(self) -> list[str]:
        """Sorted mod-label sources; shared like constant_names."""
        return self._sources["mod"]


def constants_of_type(lexicon: Lexicon, t: Type) -> list[str]:
    """Sorted names of constants realizing t.  t must be a member of omega."""
    if t not in lexicon.omega:
        raise KeyError(f"{t} is not in the lexicon's type inventory")
    return list(lexicon.by_type.get(t, ()))


def validate_closure(lexicon: Lexicon) -> ClosureReport:
    report = ClosureReport()
    for t in sorted(lexicon.omega, key=str):
        if t not in lexicon.by_type:
            report.violations.append(
                ClosureViolation(1, f"type {t} has no realizing constant")
            )
    missing = set()
    for t in sorted(lexicon.omega, key=str):
        for node in sorted(t.nodes):
            req = request(t, node)
            if req not in lexicon.omega:
                missing.add(req)
                report.violations.append(
                    ClosureViolation(2, f"request {req} of {node} in {t} missing from omega")
                )
    if EMPTY_TYPE not in lexicon.omega and EMPTY_TYPE not in missing:
        report.violations.append(
            ClosureViolation(2, f"request {EMPTY_TYPE} of the root missing from omega"))
    for label in sorted(lexicon.labels, key=str):
        if label.kind == "mod":
            singleton = Type(frozenset({label.source}), frozenset())
            if singleton not in lexicon.omega:
                report.violations.append(
                    ClosureViolation(3, f"[{label.source}] missing from omega for {label}")
                )
    have_app = {l.source for l in lexicon.labels if l.kind == "app"}
    for source in sorted(lexicon.sources()):
        if source not in have_app:
            report.violations.append(
                ClosureViolation(4, f"no APP_{source} label for source {source}")
            )
    return report


def _close_omega(omega: frozenset[Type], mod_sources) -> frozenset[Type]:
    out = set(omega)
    out.add(EMPTY_TYPE)
    for beta in mod_sources:
        out.add(Type(frozenset({beta}), frozenset()))
    work = list(out)
    while work:
        t = work.pop()
        for node in t.nodes:
            req = request(t, node)
            if req not in out:
                out.add(req)
                work.append(req)
    return frozenset(out)


def _synthesize(t: Type, index: int) -> AsGraph:
    """A star graph realizing t: _synth root with one placeholder per source."""
    nodes = [GraphNode(f"r{index}", label="_synth")]
    edges = set()
    for k, name in enumerate(sorted(t.nodes), start=1):
        nodes.append(GraphNode(f"s{k}", source=name, request=request(t, name)))
        edges.add((f"r{index}", f"op{k}", f"s{k}"))
    return AsGraph(tuple(nodes), frozenset(edges), f"r{index}")


def augment_closure(lexicon: Lexicon) -> Lexicon:
    """The least closed lexicon extending the input.

    Closes omega under requests (plus the empty type and every mod label's
    singleton), synthesizes a constant named _synth_<k> for each unrealized
    type in canonical order, and adds the missing app labels.
    """
    omega = _close_omega(lexicon.omega, lexicon.mod_sources())
    constants = dict(lexicon.constants)
    for k, t in enumerate(sorted(omega - lexicon.by_type.keys(), key=str), start=1):
        name = f"_synth_{k}"
        while name in constants:
            name += "x"
        constants[name] = _synthesize(t, k)
    labels = set(lexicon.labels)
    for t in omega:
        for source in t.nodes:
            labels.add(app(source))
    return Lexicon(constants, omega, frozenset(labels), name=lexicon.name)
