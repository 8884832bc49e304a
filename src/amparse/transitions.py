"""Two dead-end-free transition systems for building analyses token by token.

Both systems share the configuration shape: a partial edge set, a stack of
tokens being worked on, and three per-token annotations: T(i), the set of
term types token i's subtree may still evaluate to; A(i), the argument
slots already filled at i; and G(i), the constant finally assigned to i.
W, the number of tokens still headless, is the budget of attachable
material; O, the total number of argument slots everybody still owes,
must never exceed it or somebody will starve.  Every type guard reads one
relation, which _options enumerates: the (lexical type, term type of T(i))
pairs joined by applying a superset of A(i), the paper's PossL.  Owed
slots, the budget guards that keep O <= W, and Finish's witness all come
from it, and together they make both systems dead-end free on a closed
lexicon: any random walk ends in a goal.

A lexicon's sentences meet only a few distinct token states (T, A, G), so
every entry point answers each token state once per lexicon: a token's
options, its owed slots and its dependents' term types live in
lexicon.guards, one memo that every system and type checking shares.
Each key carries exactly what its answer reads, and none depends on the
sentence, so a batch over one lexicon pays for each state once.  Move sets
also read the budget W - O; decode keeps them in lexicon.guards too, and
every other entry point (legal_transitions, apply_transition, owed, and
through them replay, the oracles and the fuzzer) in a fresh memo per call.

The lexical-type-first system (ltf) commits to a constant when a token is
pushed (Choose) and then works top-down, so the stack is depth-first.  The
lexical-type-last system (ltl) draws all of a token's outgoing edges
first, names the constant only at Finish, and only then pushes the
children, so commitment to types is maximally delayed.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .costs import INF, SentenceCosts, tree_cost
from .lexicon import Lexicon
from .trees import BOTTOM, IGNORE, LABEL_IDS, ROOT, AmDepTree, EdgeLabel, TreeEntry, app, mod
from .types import (EMPTY_TYPE, NAME_PATTERN, Type, apply_set, parse_type, request,
                    serialize_type, type_combine)

SYSTEMS = ("ltf", "ltl")


class TransitionError(ValueError):
    """An illegal transition was applied, or a malformed configuration."""


# --- configurations ---------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """Immutable parser state, hashed and compared structurally.

    terms, applied and graphs hold T(i), A(i) and G(i) at position i, for
    tokens 0..n; position 0 is the virtual root and stays undefined.  None
    marks an undefined annotation.  Build configurations with initial_config
    and apply_transition, which keep the running owed total O: a finite sum
    and a count of tokens owing INF, so that adding and removing INF terms
    never makes it nan.  Equality, hashing and digest() ignore it.
    """

    n: int
    edges: tuple[tuple[int, int, EdgeLabel], ...] = ()
    stack: tuple[int, ...] = ()
    terms: tuple[Optional[frozenset[Type]], ...] = ()
    applied: tuple[Optional[frozenset[str]], ...] = ()
    graphs: tuple[Optional[str], ...] = ()
    owed_finite: float = field(default=0.0, compare=False, repr=False)
    owed_infinite: int = field(default=0, compare=False, repr=False)

    @property
    def owed_total(self) -> float:
        """O, equal to total_owed(self, lexicon) without touching every token."""
        return INF if self.owed_infinite else self.owed_finite

    def headless(self, j: int) -> bool:
        return j not in map(itemgetter(1), self.edges)

    @property
    def active(self) -> Optional[int]:
        return self.stack[-1] if self.stack else None

    @property
    def is_initial(self) -> bool:
        """Before Init, which always adds the root edge."""
        return not self.edges

    def free_tokens(self) -> int:
        """W: how many tokens still lack an incoming edge."""
        return self.n - len(self.edges)

    def children(self, i: int) -> list[tuple[int, EdgeLabel]]:
        """Outgoing edges of i in creation order."""
        return [(d, lbl) for h, d, lbl in self.edges if h == i]

    def digest(self) -> str:
        """Short hash of the configuration's text, which lists the defined
        annotations in token order with type texts and source names sorted."""
        text = repr((
            self.n,
            tuple((h, d, str(lbl)) for h, d, lbl in self.edges),
            self.stack,
            tuple((i, tuple(sorted(map(serialize_type, ts))))
                  for i, ts in enumerate(self.terms) if ts is not None),
            tuple((i, tuple(sorted(names)))
                  for i, names in enumerate(self.applied) if names is not None),
            tuple((i, g) for i, g in enumerate(self.graphs) if g is not None),
        ))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def initial_config(n: int) -> Configuration:
    if n < 1:
        raise TransitionError("need at least one token")
    undefined = (None,) * (n + 1)
    return Configuration(n=n, terms=undefined, applied=undefined, graphs=undefined)


def _put(values: tuple, i: int, value) -> tuple:
    """values with position i replaced by value."""
    return values[:i] + (value,) + values[i + 1:]


# --- transitions ------------------------------------------------------------

_KIND_ORDER = {"init": 0, "apply": 1, "modify": 2, "choose": 3, "finish": 3, "pop": 4}


@dataclass(frozen=True, order=False)
class Transition:
    kind: str
    token: int = 0
    source: str = ""
    term_type: Optional[Type] = None
    constant: str = ""

    def sort_key(self) -> tuple:
        tstr = serialize_type(self.term_type) if self.term_type is not None else ""
        return (_KIND_ORDER[self.kind], self.token, self.source, tstr, self.constant)

    def __str__(self) -> str:
        if self.kind == "init":
            return f"Init({self.token})"
        if self.kind == "choose":
            return f"Choose({serialize_type(self.term_type)}, {self.constant})"
        if self.kind == "apply":
            return f"Apply({self.source}, {self.token})"
        if self.kind == "modify":
            return f"Modify({self.source}, {self.token})"
        if self.kind == "finish":
            return f"Finish({self.constant})"
        return "Pop"


# A token index, and a constant name: any token without whitespace or '#'.
_INDEX = re.compile(r"[0-9]+")
_CONSTANT = re.compile(r"[^\s#]+")


def parse_transition(text: str) -> Transition:
    """Inverse of str(); types inside Choose are re-parsed.  A constant may
    hold parentheses and commas, so exactly one closing parenthesis ends
    the text, and Choose splits on its last ", "."""
    text = text.strip()
    if text == "Pop":
        return Transition("pop")
    name, _, body = text.partition("(")
    body = body[:-1] if text.endswith(")") else ""
    head, comma, tail = body.rpartition(", ")
    if name == "Init" and _INDEX.fullmatch(body):
        return Transition("init", token=int(body))
    if name == "Finish" and _CONSTANT.fullmatch(body):
        return Transition("finish", constant=body)
    if name == "Choose" and comma and _CONSTANT.fullmatch(tail):
        return Transition("choose", term_type=parse_type(head), constant=tail)
    if name in ("Apply", "Modify") and NAME_PATTERN.fullmatch(head) and _INDEX.fullmatch(tail):
        return Transition("apply" if name == "Apply" else "modify", token=int(tail), source=head)
    raise TransitionError(f"cannot parse transition {text!r}")


# --- guard arithmetic -------------------------------------------------------


def owed(cfg: Configuration, i: int, lexicon: Lexicon) -> float:
    """Slots token i still has to fill, minimized over its open choices.

    Zero when T(i) or A(i) is undefined.  Candidate lexical types are the
    fixed constant's type when G(i) is set, all of omega otherwise; only
    candidates whose consumed-source set extends A(i) qualify.  Infinite
    when nothing qualifies, which poisons every budget guard downstream
    rather than crashing.
    """
    # owed reads no setting, so any valid one will do
    return _Guards(lexicon, "ltl", True, {}).owed(cfg.terms[i], cfg.applied[i], cfg.graphs[i])


def _owed(guards: _Guards, ts: frozenset[Type], done: frozenset[str], g: Optional[str]) -> float:
    """owed from a defined T and A and from G, on a miss of guards' memo."""
    lexicon = guards.lexicon
    lams = (lexicon.type_of(g),) if g is not None else lexicon.omega
    return float(min((len(c - done) for *_, c in guards.options(lams, ts, done)), default=INF))


def total_owed(cfg: Configuration, lexicon: Lexicon) -> float:
    """O recomputed over every token: the reference for cfg.owed_total."""
    return sum(owed(cfg, i, lexicon) for i in range(1, cfg.n + 1))


def _options(
    lams: Iterable[Type], ts: Iterable[Type], done: frozenset[str]
) -> tuple[tuple[Type, Type, frozenset[str]], ...]:
    """(lam, t, consumed) for every lexical type lam in lams and term type t
    in ts that lam reaches by applying the sources consumed, a superset of
    the filled slots done.  Every guard reads this one enumeration, taken
    whole, so the apply_set calls a step makes do not depend on the
    iteration order of the frozensets passed in."""
    out = []
    for lam in lams:
        for t in ts:
            consumed = apply_set(lam, t)
            if consumed is not None and done <= consumed:
                out.append((lam, t, consumed))
    return tuple(out)


# --- legality ---------------------------------------------------------------


# A configuration's move set: its guards, evaluated once.  Apply(alpha, j) is
# legal for every alpha in apply and every headless token j, Modify(beta, j)
# likewise for modify, and rest holds the legal Init, Choose, Finish and Pop
# transitions in canonical order.  No guard reads the target, so the targets
# stay out: legal_transitions lists them, decode prices them, and a checked
# apply_transition tests the one token it is given.
class Moves(NamedTuple):
    apply: tuple[str, ...] = ()  # sorted
    modify: tuple[str, ...] = ()  # sorted
    rest: tuple[Transition, ...] = ()


def legal_transitions(cfg: Configuration, lexicon: Lexicon, system: str,
                      type_checked: bool = True) -> list[Transition]:
    """All transitions applicable in cfg, in the canonical order of
    Transition.sort_key (Init < Apply < Modify < Choose/Finish < Pop, then
    token, source, type, constant).  type_checked=False drops every type
    guard (ltl only)."""
    moves = _Guards(lexicon, system, type_checked, {}).moves(cfg)
    free = _headless_tokens(cfg) if moves.apply or moves.modify else ()
    count = len(free) * (len(moves.apply) + len(moves.modify)) + len(moves.rest)
    return [_move_at(moves, free, p) for p in range(count)]


def _headless_tokens(cfg: Configuration) -> list[int]:
    headed = {d for _, d, _ in cfg.edges}
    return [j for j in range(1, cfg.n + 1) if j not in headed]


# --- guards and effects, answered once per token state ----------------------


class _Guards:
    """The guards and effects of one system over one lexicon.  Each answer
    is computed once per memo, and each key carries exactly what the
    answer reads.  A token state's answers read only the lexicon, so they
    always live in lexicon.guards, whatever the caller passes:

        ("options", lams, T, A)       the options of a token state
        ("owed", T, A, G)             its owed slots
        ("dependent", label, type)    T(j) below a head of that type

    Move sets also read the budget W - O, and live in the memo the caller
    passes in: lexicon.guards for decode, a fresh dict for every other
    entry point.  Sharing them in replay too doubles its speed, but the
    benchmark keeps every pass's operations, so its peak RSS would follow
    the extra passes past its bound (README, "Transition configurations"):

        ("ltl", T(i), A(i), min(W, cap), Modify allowed, type_checked)
        ("choose", T(i), min(W - O, cap))              ltf before Choose
        ("ltf", G(i), T(i), A(i), W - O >= 1)          ltf after Choose

    Only the ltl move set reads type_checked, and it takes it from its key,
    so one memo serves every setting; ltf is always checked.  cap is
    lexicon.max_sources.  No consumed set is larger, so every budget from
    cap up admits the same options, and the memos stop growing once the
    lexicon's token states have been met.  An unknown system or unchecked
    ltf is rejected before either memo is touched.  Threads sharing a memo
    may compute an entry twice; every copy answers the same.
    """

    __slots__ = ("lexicon", "system", "type_checked", "_memo", "_states")

    def __init__(self, lexicon: Lexicon, system: str, type_checked: bool, memo: dict):
        if system not in SYSTEMS:
            raise TransitionError(f"unknown system {system!r}")
        if not type_checked and system != "ltl":
            raise TransitionError("the unchecked ablation is defined for ltl only")
        self.lexicon, self.system, self.type_checked = lexicon, system, type_checked
        self._memo, self._states = memo, lexicon.guards

    def options(self, lams, ts, done) -> tuple[tuple[Type, Type, frozenset[str]], ...]:
        key = ("options", lams, ts, done)
        got = self._states.get(key)
        if got is None:
            got = self._states[key] = _options(lams, ts, done)
        return got

    def owed(self, ts: Optional[frozenset[Type]], done: Optional[frozenset[str]],
             g: Optional[str]) -> float:
        """owed from a token's T, A and G."""
        if ts is None or done is None:
            return 0.0
        key = ("owed", ts, done, g)
        got = self._states.get(key)
        if got is None:
            got = self._states[key] = _owed(self, ts, done, g)
        return got

    def dependent_terms(self, lbl: EdgeLabel, head_type: Type) -> frozenset[Type]:
        key = ("dependent", lbl, head_type)
        got = self._states.get(key)
        if got is None:
            got = self._states[key] = _dependent_terms(self.lexicon, lbl, head_type)
        return got

    def moves(self, cfg: Configuration) -> Moves:
        if cfg.is_initial:
            return Moves(rest=tuple(Transition("init", token=i) for i in range(1, cfg.n + 1)))
        if not cfg.stack:
            return Moves()
        i, w = cfg.stack[-1], cfg.free_tokens()
        if self.system == "ltl":
            mods_ok = not self.type_checked or w - cfg.owed_total >= 1
            key = ("ltl", cfg.terms[i], cfg.applied[i], min(w, self.lexicon.max_sources), mods_ok,
                   self.type_checked)
            build = self._ltl
        elif cfg.graphs[i] is None:
            key = ("choose", cfg.terms[i], min(w - cfg.owed_total, self.lexicon.max_sources))
            build = self._choose
        else:
            key = ("ltf", cfg.graphs[i], cfg.terms[i], cfg.applied[i], w - cfg.owed_total >= 1)
            build = self._ltf
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build(*key[1:])
        return got

    def _choose(self, ts: frozenset[Type], budget: float) -> Moves:
        lexicon = self.lexicon
        chooses = []
        for t in sorted(ts, key=serialize_type):
            allowed = {lam for lam, _, c in self.options(lexicon.omega, (t,), frozenset())
                       if len(c) <= budget}
            chooses += [Transition("choose", term_type=t, constant=g)
                        for g in lexicon.constant_names() if lexicon.type_of(g) in allowed]
        return Moves(rest=tuple(chooses))

    def _ltf(self, g: str, ts: frozenset[Type], done: frozenset[str], budget_ok: bool) -> Moves:
        lexicon = self.lexicon
        lex_type = lexicon.type_of(g)
        (term,) = ts
        consumed = apply_set(lex_type, term)
        apply = tuple(alpha for alpha in sorted(consumed - done) if app(alpha) in lexicon.labels)
        modify = tuple(beta for beta in lexicon.mod_sources()
                       if budget_ok and self.dependent_terms(mod(beta), lex_type))
        return Moves(apply, modify, (Transition("pop"),) if done == consumed else ())

    def _ltl(self, ts: frozenset[Type], done: frozenset[str], w: int, mods_ok: bool,
             type_checked: bool) -> Moves:
        lexicon = self.lexicon
        # unchecked, any source not yet applied and any constant may follow; checked,
        # Apply(alpha) needs an option owing alpha within W, Finish(g) one of g's type owing nothing
        applicable, finishable = set(lexicon.app_sources()) - done, lexicon.omega
        if type_checked:
            applicable, finishable = set(), set()
            for lam, _, consumed in self.options(lexicon.omega, ts, done):
                missing = consumed - done
                if len(missing) <= w:
                    applicable |= missing
                if not missing:
                    finishable.add(lam)
        return Moves(
            tuple(alpha for alpha in lexicon.app_sources() if alpha in applicable),
            tuple(lexicon.mod_sources()) if mods_ok else (),
            tuple(Transition("finish", constant=g) for g in lexicon.constant_names()
                  if lexicon.type_of(g) in finishable),
        )

    def apply(self, cfg: Configuration, tr: Transition, check: bool = True) -> Configuration:
        """apply_transition(cfg, tr, ...) through this object's memo."""
        kind, lexicon = tr.kind, self.lexicon
        if check:
            apply, modify, rest = self.moves(cfg)
            if kind == "apply" or kind == "modify":
                legal = (tr.source in (apply if kind == "apply" else modify)
                         and tr.term_type is None and tr.constant == ""
                         and tr.token in range(1, cfg.n + 1) and cfg.headless(tr.token))
            else:
                legal = tr in rest
            if not legal:
                raise TransitionError(f"illegal transition {tr} in {cfg}")

        n, edges, stack = cfg.n, cfg.edges, cfg.stack
        terms, applied, graphs = cfg.terms, cfg.applied, cfg.graphs
        if kind == "pop":
            return Configuration(n, edges, stack[:-1], terms, applied, graphs,
                                 cfg.owed_finite, cfg.owed_infinite)
        if kind == "init":
            i = tr.token
            touched: Iterable[int] = (i,)
            edges, stack = ((0, i, ROOT),), (i,)
            terms = _put(terms, i, frozenset([EMPTY_TYPE]))
            if self.system == "ltl":
                applied = _put(applied, i, frozenset())
        elif kind == "choose":
            i = cfg.active
            touched = (i,)
            terms = _put(terms, i, frozenset([tr.term_type]))
            applied = _put(applied, i, frozenset())
            graphs = _put(graphs, i, tr.constant)
        elif kind == "apply" or kind == "modify":
            i, j = cfg.active, tr.token
            lbl = (app if kind == "apply" else mod)(tr.source)
            edges += ((i, j, lbl),)
            if kind == "apply":
                touched = (i, j)  # A(i) grows; in ltf so does T(j)
                applied = _put(applied, i, (applied[i] or frozenset()) | {tr.source})
            else:
                touched = (j,)  # a Modify leaves i's annotations as they are
            if self.system == "ltf":
                terms = _put(terms, j, self.dependent_terms(lbl, lexicon.type_of(graphs[i])))
                stack += (j,)
        elif kind == "finish":
            i = cfg.active
            lex_type = lexicon.type_of(tr.constant)
            new_terms, new_applied = list(terms), list(applied)
            # the witness, if any: at most one term type consumes exactly A(i)
            new_terms[i] = frozenset(
                t for _, t, c in self.options((lex_type,), terms[i], applied[i]) if c == applied[i]
            ) or terms[i]
            children = cfg.children(i)
            for j, lbl in children:
                new_terms[j] = self.dependent_terms(lbl, lex_type)
                new_applied[j] = frozenset()
            touched = [i] + [j for j, _ in children]
            stack = stack[:-1] + tuple(j for j, _ in reversed(children))
            terms, applied = tuple(new_terms), tuple(new_applied)
            graphs = _put(graphs, i, tr.constant)
        else:
            raise TransitionError(f"unknown transition kind {kind!r}")

        finite, infinite = cfg.owed_finite, cfg.owed_infinite
        for p in set(touched):  # an unchecked self-edge names a token twice
            before = self.owed(cfg.terms[p], cfg.applied[p], cfg.graphs[p])
            after = self.owed(terms[p], applied[p], graphs[p])
            if before == INF:
                infinite -= 1
            else:
                finite -= before
            if after == INF:
                infinite += 1
            else:
                finite += after
        return Configuration(n, edges, stack, terms, applied, graphs, finite, infinite)


def _dependent_terms(lexicon: Lexicon, lbl: EdgeLabel, head_type: Type) -> frozenset[Type]:
    """T(j) for a dependent j attached by lbl to a head of type head_type:
    the request at an app source (none when the head has no such source),
    and every type of omega that a MOD_beta dependent may have."""
    if lbl.kind == "mod":
        return frozenset(t for t in lexicon.omega if type_combine(lbl, head_type, t) is not None)
    if lbl.source in head_type.nodes:
        return frozenset([request(head_type, lbl.source)])
    return frozenset()


# --- effects ----------------------------------------------------------------


def apply_transition(
    cfg: Configuration,
    tr: Transition,
    lexicon: Lexicon,
    system: str,
    check: bool = True,
    type_checked: bool = True,
) -> Configuration:
    """The successor configuration.  Unless check=False, raises
    TransitionError when tr is not in legal_transitions(cfg, ...), which it
    tests against cfg's move set without listing the transitions."""
    return _Guards(lexicon, system, type_checked, {}).apply(cfg, tr, check)


def is_goal(cfg: Configuration) -> bool:
    """Stack empty with at least one constant assigned."""
    return not cfg.stack and not cfg.is_initial and any(cfg.graphs)


def check_goal_config(cfg: Configuration, lexicon: Lexicon) -> bool:
    """Full goal definition, for cross-checking is_goal in tests: every
    token is either ignored (headless, unannotated) or fully finished."""
    if cfg.stack or not any(cfg.graphs):
        return False
    headed = {d for _, d, _ in cfg.edges}
    for i in range(1, cfg.n + 1):
        g, ts = cfg.graphs[i], cfg.terms[i]
        if i not in headed:
            if ts is not None or g is not None:
                return False
        elif g is None or ts is None or len(ts) != 1:
            return False
        elif apply_set(lexicon.type_of(g), next(iter(ts))) != cfg.applied[i]:
            return False
    return True


def config_to_tree(cfg: Configuration, forms: Optional[tuple[str, ...]] = None) -> AmDepTree:
    if forms is None:
        forms = tuple(f"w{i}" for i in range(1, cfg.n + 1))
    heads = {d: (h, lbl) for h, d, lbl in reversed(cfg.edges)}  # a token's first edge wins
    return AmDepTree(tuple(
        TreeEntry(forms[i - 1], cfg.graphs[i] or BOTTOM, *heads[i]) if i in heads
        else TreeEntry(forms[i - 1], BOTTOM, 0, IGNORE)
        for i in range(1, cfg.n + 1)
    ))


# --- greedy and beam decoding ----------------------------------------------


@dataclass
class DecodeResult:
    tree: Optional[AmDepTree]
    cost: float
    transitions: list[Transition] = field(default_factory=list)
    score: float = 0.0

    @property
    def ok(self) -> bool:
        return self.tree is not None


def static_scorer(costs: SentenceCosts, lexicon: Lexicon) -> Callable[..., list[float]]:
    """price(cfg, moves, free): the cost of each transition legal_transitions
    lists for moves and the headless tokens free, in that order.  That is
    the cost-file entry of its decision: root edge for Init, edge for
    Apply/Modify (by the edge_table key, each source's label id resolved
    once), supertag for Choose/Finish, nothing for Pop.  A never-interned
    label gets id -1, which makes its keys negative: it prices INF, and
    pricing interns nothing."""
    edge = costs.edge_table.get
    tag = costs.tag_cost.get
    m = costs.n + 1
    app_ids = {s: LABEL_IDS.get(app(s), -1) for s in lexicon.app_sources()}
    mod_ids = {s: LABEL_IDS.get(mod(s), -1) for s in lexicon.mod_sources()}

    def price(cfg: Configuration, moves: Moves, free: Sequence[int]) -> list[float]:
        i = cfg.stack[-1] if cfg.stack else 0
        out = []
        for ids, sources in ((app_ids, moves.apply), (mod_ids, moves.modify)):
            bases = [(ids[s] * m + i) * m for s in sources]
            out += [edge(base + j, INF) for j in free for base in bases]
        return out + [  # ROOT's id is 0, so Init is keyed by its target alone
            edge(tr.token, INF) if tr.kind == "init" else
            0.0 if tr.kind == "pop" else tag((i, tr.constant), INF)
            for tr in moves.rest
        ]

    return price


def _move_at(moves: Moves, free: Sequence[int], p: int) -> Transition:
    """Entry p of the list legal_transitions makes of moves and free."""
    for kind, sources in (("apply", moves.apply), ("modify", moves.modify)):
        if p < len(free) * len(sources):
            j, s = divmod(p, len(sources))
            return Transition(kind, token=free[j], source=sources[s])
        p -= len(free) * len(sources)
    return moves.rest[p]


def decode(
    costs: SentenceCosts,
    lexicon: Lexicon,
    system: str,
    beam: int = 1,
    type_checked: bool = True,
) -> DecodeResult:
    """Transition decoding with a static cost scorer.

    beam=1 is greedy: at each configuration take the cheapest legal
    transition, canonical order breaking ties.  beam>1 keeps that many
    partial sequences by summed score, ties going to the earlier parent,
    then the earlier transition; finished sequences stay in the beam and
    compete unchanged.  Move sets are priced without building transitions;
    only the beam's survivors are built and applied.  The returned cost is
    the tree cost of the result under the cost file, not the summed score.
    The guards read and fill lexicon.guards, move sets included, so every
    decode over one lexicon answers each token state and budget once.
    """
    if costs.n < 1:
        raise TransitionError("empty sentence")
    if beam < 1:
        raise TransitionError(f"beam must be at least 1, got {beam}")
    price = static_scorer(costs, lexicon)
    guards = _Guards(lexicon, system, type_checked, lexicon.guards)
    # (summed score, insertion order, cfg, transitions), in beam order
    beams = [(0.0, 0, initial_config(costs.n), [])]
    counter = 1
    while True:
        # (summed score, insertion order, parent cfg, its transitions, and the
        # parent's (moves, headless tokens, kept position), or None if finished)
        grown = []
        for total, tie, cfg, trs in beams:
            moves = guards.moves(cfg)
            free = _headless_tokens(cfg) if moves.apply or moves.modify else ()
            prices = price(cfg, moves, free)
            if not prices:
                grown.append((total, tie, cfg, trs, None))
                continue
            if beam == 1:  # index finds the first minimum, sorted keeps equal keys' order
                keep = [prices.index(min(prices))]
            else:
                sums = [total + c for c in prices]
                keep = sorted(range(len(sums)), key=sums.__getitem__)[:beam]
            for p in keep:
                grown.append((total + prices[p], counter + p, cfg, trs, (moves, free, p)))
            counter += len(prices)
        if all(move is None for *_, move in grown):
            break
        grown.sort(key=itemgetter(0, 1))
        beams = []
        for total, tie, cfg, trs, move in grown[:beam]:
            if move is not None:
                tr = _move_at(*move)
                cfg, trs = guards.apply(cfg, tr, check=False), trs + [tr]
            beams.append((total, tie, cfg, trs))

    best_total, _, best_cfg, best_trs = beams[0]  # beams are in (score, order) order
    if not is_goal(best_cfg):
        return DecodeResult(None, INF, best_trs, best_total)
    tree = config_to_tree(best_cfg, costs.forms)
    return DecodeResult(tree, tree_cost(tree, costs), best_trs, best_total)


# --- rendering --------------------------------------------------------------


def render_trace(
    transitions: Iterable[Transition],
    lexicon: Lexicon,
    system: str,
    n: int,
) -> list[str]:
    """Step table: per row the annotation deltas the transition caused,
    columns step | E | T | A | G | stack | transition."""
    cfg = initial_config(n)
    rows = []
    for step, tr in enumerate(transitions, start=1):
        nxt = apply_transition(cfg, tr, lexicon, system, check=False)
        e_delta = " ".join(
            f"({h},{d},{lbl})" for h, d, lbl in nxt.edges[len(cfg.edges):]
        )
        t_delta = " ".join(
            f"{i}:{{{','.join(sorted(map(serialize_type, ts)))}}}"
            for i, ts in enumerate(nxt.terms)
            if ts != cfg.terms[i]
        )
        a_delta = " ".join(
            f"{i}:{{{','.join(sorted(names))}}}"
            for i, names in enumerate(nxt.applied)
            if names != cfg.applied[i]
        )
        g_delta = " ".join(
            f"{i}:{g}" for i, g in enumerate(nxt.graphs) if g != cfg.graphs[i]
        )
        stack = "[" + " ".join(str(x) for x in nxt.stack) + "]"
        rows.append((str(step), e_delta, t_delta, a_delta, g_delta, stack, str(tr)))
        cfg = nxt
    header = ("step", "E", "T", "A", "G", "stack", "transition")
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return lines


def random_walk(
    lexicon: Lexicon,
    system: str,
    n: int,
    rng: random.Random,
    bias_apply: float = 1.0,
    max_steps: Optional[int] = None,
) -> tuple[Configuration, list[tuple[str, Transition]]]:
    """Uniform (optionally Apply-biased) random legal walk from the initial
    configuration, until no transition is legal or after max_steps steps.

    Returns the final configuration and the (config digest, transition)
    trace.  On a closed lexicon a walk run to termination always ends in a
    goal; that is the dead-end-freeness property the fuzz tests hammer on.
    """
    cfg = initial_config(n)
    trace: list[tuple[str, Transition]] = []
    limit = 4 * n + 4
    while max_steps is None or len(trace) < max_steps:
        legal = legal_transitions(cfg, lexicon, system)
        if not legal:
            break
        if len(trace) >= limit:
            raise TransitionError(f"walk exceeded {limit} steps; broken guards")
        weights = [bias_apply if t.kind == "apply" else 1.0 for t in legal]
        tr = rng.choices(legal, weights=weights, k=1)[0]
        trace.append((cfg.digest(), tr))
        cfg = apply_transition(cfg, tr, lexicon, system, check=False)
    return cfg, trace
