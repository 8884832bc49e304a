"""Static oracles, completion procedures, and random-walk fuzzing.

The oracle turns a well-typed tree into the transition sequence that
rebuilds it exactly; the completion procedure turns *any* reachable
configuration into a goal, which is what makes training with exploration
possible.  Both come per system.  Completion works in bundles: each call
inspects the active token and emits a short sequence that measurably
advances (ltf: stack shrinks by one per bundle; ltl: exactly one Finish
per bundle), so termination is a counting argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .lexicon import Lexicon
from .transitions import (
    SYSTEMS,
    Configuration,
    Transition,
    TransitionError,
    _headless_tokens,
    _options,
    apply_transition,
    config_to_tree,
    initial_config,
    is_goal,
    random_walk,
)
from .trees import AmDepTree, check_well_typed
from .types import EMPTY_TYPE, Type, apply_set, request, serialize_type


# --- oracles ----------------------------------------------------------------


def oracle_sequence(tree: AmDepTree, lexicon: Lexicon, system: str) -> list[Transition]:
    """The canonical transition sequence that reconstructs tree.

    Children are visited apply-edges first, then modify-edges, each in
    ascending token position; ltf descends as it attaches (depth-first),
    ltl finishes a token before descending, matching its stack order.
    The children come from the fold plans that type-check the tree.
    """
    report = check_well_typed(tree, lexicon)
    if not report.ok:
        raise TransitionError(f"tree is not well-typed: {report.failure}")
    if system not in SYSTEMS:
        raise TransitionError(f"unknown system {system!r}")
    root = tree.root_token()
    seq: list[Transition] = [Transition("init", token=root)]

    def arcs(i: int) -> list[Transition]:
        labels = {j: tree.token(j).label for j in report.plans[i]}
        return [
            Transition("apply" if labels[j].kind == "app" else "modify", token=j, source=labels[j].source)
            for j in sorted(labels, key=lambda j: (labels[j].kind == "mod", j))
        ]

    # work stack, not recursion, so deep trees fit: an int is a token still
    # to visit, a Transition is emitted when popped (ltf interleaves each
    # arc with its dependent's visit and closes with Pop)
    todo: list = [root]
    while todo:
        item = todo.pop()
        if isinstance(item, Transition):
            seq.append(item)
            continue
        out = arcs(item)
        constant = tree.token(item).constant
        if system == "ltf":
            seq.append(Transition("choose", term_type=report.term_types[item], constant=constant))
            later = [x for tr in out for x in (tr, tr.token)] + [Transition("pop")]
        else:
            seq.extend(out)
            seq.append(Transition("finish", constant=constant))
            later = [tr.token for tr in out]
        todo.extend(reversed(later))
    return seq


def replay(tree: AmDepTree, transitions, lexicon: Lexicon, system: str) -> Configuration:
    """Run transitions from tree's initial configuration, each step checked."""
    cfg = initial_config(tree.n)
    for tr in transitions:
        cfg = apply_transition(cfg, tr, lexicon, system)
    return cfg


# --- completion -------------------------------------------------------------


def _cheapest_constant(lexicon: Lexicon, t: Type) -> str:
    names = lexicon.by_type.get(t)
    if not names:
        raise TransitionError(f"no constant of type {serialize_type(t)}; lexicon is not closed")
    return names[0]


def complete_step(cfg: Configuration, lexicon: Lexicon, system: str) -> list[Transition]:
    """One bundle of the completion procedure; empty exactly at a goal (or
    before any Init, where it returns the one-token bootstrap bundle)."""
    if system == "ltf":
        return _complete_step_ltf(cfg, lexicon)
    if system == "ltl":
        return _complete_step_ltl(cfg, lexicon)
    raise TransitionError(f"unknown system {system!r}")


def _realized_term(lexicon: Lexicon, terms) -> Type:
    for t in sorted(terms, key=serialize_type):
        if t in lexicon.by_type:
            return t
    raise TransitionError("no realizable term type; lexicon is not closed")


_IMPOSSIBLE = "active token owes the impossible; unreachable state"


def _fill(cfg: Configuration, missing: frozenset[str]) -> list[tuple[str, int]]:
    """The missing sources in sorted order, each paired with one of the first
    headless tokens."""
    targets = _headless_tokens(cfg)[: len(missing)]
    if len(targets) < len(missing):
        raise TransitionError("owed slots exceed free tokens; configuration unreachable")
    return list(zip(sorted(missing), targets))


def _complete_step_ltf(cfg: Configuration, lexicon: Lexicon) -> list[Transition]:
    if cfg.is_initial:
        g = _cheapest_constant(lexicon, EMPTY_TYPE)
        return [
            Transition("init", token=1),
            Transition("choose", term_type=EMPTY_TYPE, constant=g),
            Transition("pop"),
        ]
    if not cfg.stack:
        return []
    terms, done, g = cfg.states[cfg.active]
    if g is None:
        t = _realized_term(lexicon, terms)
        return [
            Transition("choose", term_type=t, constant=_cheapest_constant(lexicon, t)),
            Transition("pop"),
        ]
    lex_type = lexicon.type_of(g)
    (term,) = terms
    consumed = apply_set(lex_type, term)
    if consumed is None:
        raise TransitionError(_IMPOSSIBLE)
    out: list[Transition] = []
    for alpha, j in _fill(cfg, consumed - done):
        rho = request(lex_type, alpha)
        out += [Transition("apply", token=j, source=alpha),
                Transition("choose", term_type=rho, constant=_cheapest_constant(lexicon, rho)),
                Transition("pop")]
    return out + [Transition("pop")]


def _complete_step_ltl(cfg: Configuration, lexicon: Lexicon) -> list[Transition]:
    if cfg.is_initial:
        return [
            Transition("init", token=1),
            Transition("finish", constant=_cheapest_constant(lexicon, EMPTY_TYPE)),
        ]
    if not cfg.stack:
        return []
    terms, done, _ = cfg.states[cfg.active]
    best = min(
        _options(lexicon.omega, terms, done),
        key=lambda o: (len(o[2] - done), serialize_type(o[0]), serialize_type(o[1])),
        default=None,
    )
    if best is None:
        raise TransitionError(_IMPOSSIBLE)
    lam, _, consumed = best
    g = _cheapest_constant(lexicon, lam)
    out = [Transition("apply", token=j, source=alpha) for alpha, j in _fill(cfg, consumed - done)]
    return out + [Transition("finish", constant=g)]


def _completion(cfg: Configuration, lexicon: Lexicon, system: str):
    """The completion procedure from cfg: yields (configuration, transition,
    successor) per step, each checked against the guards, and raises
    TransitionError unless it ends in a goal within 4n + 4 bundles."""
    rounds = 0
    while bundle := complete_step(cfg, lexicon, system):
        for tr in bundle:
            before, cfg = cfg, apply_transition(cfg, tr, lexicon, system)
            yield before, tr, cfg
        rounds += 1
        if rounds > 4 * cfg.n + 4:
            raise TransitionError("completion failed to converge; broken guards")
    if not is_goal(cfg):
        raise TransitionError("completion terminated off-goal")


def complete_config(cfg: Configuration, lexicon: Lexicon,
                    system: str) -> tuple[list[Transition], Configuration]:
    """Drive cfg to a goal; returns the transitions taken and the goal."""
    taken: list[Transition] = []
    for _, tr, cfg in _completion(cfg, lexicon, system):
        taken.append(tr)
    return taken, cfg


# --- fuzzing ----------------------------------------------------------------


@dataclass
class Episode:
    seed: int
    system: str
    n: int
    lexicon_name: str
    steps: tuple[tuple[str, str], ...]  # (config digest, transition)
    goal: bool
    tree: Optional[AmDepTree]


def fuzz_episode(
    seed: int,
    system: str,
    lexicon: Lexicon,
    n: int,
    steps: int,
    bias_apply: float = 1.0,
) -> Episode:
    """Seeded exploration: up to `steps` random legal transitions, then
    completion drives the rest of the way to a goal.  steps=0 is pure
    completion.  Deterministic per seed."""
    cfg, trace = random_walk(
        lexicon, system, n, random.Random(seed), bias_apply, max_steps=steps
    )
    for before, tr, cfg in _completion(cfg, lexicon, system):
        trace.append((before.digest(), tr))
    return Episode(
        seed=seed,
        system=system,
        n=n,
        lexicon_name=lexicon.name,
        steps=tuple((digest, str(tr)) for digest, tr in trace),
        goal=True,  # _completion raises off-goal
        tree=config_to_tree(cfg),
    )
