"""Oracle extraction, replay, completion, and seeded fuzzing."""

import random
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse import transitions
from amparse.lexicon import augment_closure
from amparse.oracles import (
    complete_config,
    complete_step,
    fuzz_episode,
    oracle_sequence,
    replay,
)
from amparse.transitions import (
    apply_transition,
    config_to_tree,
    initial_config,
    is_goal,
    legal_transitions,
    parse_transition,
)
from amparse.trees import (
    ROOT,
    AmDepTree,
    TreeEntry,
    check_well_typed,
    evaluate_tree,
    mod,
)

from test_lexicon import small_lexicons


GOLD_LTF = [
    "Init(3)", "Choose([], want)", "Apply(s, 2)", "Choose([], writer)", "Pop",
    "Apply(o, 5)", "Choose([s], sleep)", "Modify(m, 6)", "Choose([m], soundly)",
    "Pop", "Pop", "Pop",
]
GOLD_LTL = [
    "Init(3)", "Apply(s, 2)", "Apply(o, 5)", "Finish(want)",
    "Finish(writer)", "Modify(m, 6)", "Finish(sleep)", "Finish(soundly)",
]


@pytest.mark.parametrize("system,expected", [("ltf", GOLD_LTF), ("ltl", GOLD_LTL)])
def test_gold_oracle_sequences(closed_lex, gold, system, expected):
    seq = oracle_sequence(gold, closed_lex, system)
    assert [str(t) for t in seq] == expected


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_oracle_replays_to_exact_tree(closed_lex, gold, system):
    seq = oracle_sequence(gold, closed_lex, system)
    final = replay(gold, seq, closed_lex, system)
    assert is_goal(final)
    forms = tuple(e.form for e in gold.entries)
    assert config_to_tree(final, forms) == gold


def test_oracle_rejects_ill_typed_tree(closed_lex):
    from amparse.trees import AmDepTree, TreeEntry, ROOT

    t = AmDepTree((TreeEntry("sleeps", "sleep", 0, ROOT),))
    with pytest.raises(ValueError):
        oracle_sequence(t, closed_lex, "ltl")


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_oracle_round_trip_on_random_trees(closed_lex, system):
    """Trees sampled from random walks re-derive exactly via their oracle."""
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        ep = fuzz_episode(seed, system, closed_lex, n, steps=3 * n)
        tree = ep.tree
        assert tree is not None
        seq = oracle_sequence(tree, closed_lex, system)
        final = replay(tree, seq, closed_lex, system)
        assert config_to_tree(final, tuple(e.form for e in tree.entries)) == tree


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_completion_from_initial(closed_lex, system):
    taken, cfg = complete_config(initial_config(5), closed_lex, system)
    assert is_goal(cfg)
    assert check_well_typed(config_to_tree(cfg), closed_lex).ok


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_completion_from_random_prefixes(closed_lex, system):
    """Every reachable configuration completes to a goal with legal steps."""
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        cfg = initial_config(n)
        for _ in range(rng.randint(0, 2 * n)):
            legal = legal_transitions(cfg, closed_lex, system)
            if not legal:
                break
            cfg = apply_transition(cfg, rng.choice(legal), closed_lex, system)
        taken, goal_cfg = complete_config(cfg, closed_lex, system)
        assert is_goal(goal_cfg), f"seed {seed}"
        # completion bundles must each be legal where they are proposed
        probe = cfg
        for tr in taken:
            assert tr in legal_transitions(probe, closed_lex, system), (seed, str(tr))
            probe = apply_transition(probe, tr, closed_lex, system)
        assert is_goal(probe)


def test_complete_step_on_goal_is_empty(closed_lex):
    _, goal_cfg = complete_config(initial_config(3), closed_lex, "ltl")
    assert complete_step(goal_cfg, closed_lex, "ltl") == []


def test_ltf_completion_shrinks_stack(closed_lex):
    """Each completion bundle ends one net element lower on the stack."""
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        cfg = initial_config(n)
        for _ in range(rng.randint(1, n)):
            legal = legal_transitions(cfg, closed_lex, "ltf")
            if not legal:
                break
            cfg = apply_transition(cfg, rng.choice(legal), closed_lex, "ltf")
        while not is_goal(cfg):
            bundle = complete_step(cfg, closed_lex, "ltf")
            assert bundle
            before = len(cfg.stack)
            for tr in bundle:
                cfg = apply_transition(cfg, tr, closed_lex, "ltf")
            if before:
                assert len(cfg.stack) == before - 1


def test_ltl_completion_one_finish_per_bundle(closed_lex):
    for seed in range(20):
        rng = random.Random(seed)
        cfg = initial_config(rng.randint(2, 6))
        for _ in range(rng.randint(1, 6)):
            legal = legal_transitions(cfg, closed_lex, "ltl")
            if not legal:
                break
            cfg = apply_transition(cfg, rng.choice(legal), closed_lex, "ltl")
        while not is_goal(cfg):
            bundle = complete_step(cfg, closed_lex, "ltl")
            assert bundle
            finishes = [t for t in bundle if t.kind in ("finish", "init")]
            assert len(finishes) == 1
            for tr in bundle:
                cfg = apply_transition(cfg, tr, closed_lex, "ltl")


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_fuzz_episeach_deterministic(closed_lex, system):
    a = fuzz_episode(123, system, closed_lex, n=5, steps=6)
    b = fuzz_episode(123, system, closed_lex, n=5, steps=6)
    assert a == b
    c = fuzz_episode(124, system, closed_lex, n=5, steps=6)
    assert a != c


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_fuzz_episodes_reach_well_typed_goals(closed_lex, system):
    for seed in range(50):
        ep = fuzz_episode(seed, system, closed_lex, n=4 + seed % 3, steps=seed % 9)
        assert ep.goal
        assert ep.tree is not None
        assert check_well_typed(ep.tree, closed_lex).ok


@given(small_lexicons().map(augment_closure), st.integers(1, 6), st.integers(0, 12),
       st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_fuzz_goals_round_trip_through_both_oracles(lx, n, steps, seed):
    """On random closed lexicons, fuzzing never dead-ends, and each oracle
    rebuilds the goal tree exactly."""
    for system in ("ltf", "ltl"):
        ep = fuzz_episode(seed, system, lx, n=n, steps=steps)
        assert ep.goal
        for oracle in ("ltf", "ltl"):
            final = replay(ep.tree, oracle_sequence(ep.tree, lx, oracle), lx, oracle)
            assert config_to_tree(final) == ep.tree


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_fuzz_applies_each_transition_once(closed_lex, system, monkeypatch):
    """The walk and the completion each apply a recorded step exactly once,
    and nothing is applied that is not recorded."""
    from amparse import oracles

    calls = 0

    def counted(apply):
        def wrapped(*args, **kwargs):
            nonlocal calls
            calls += 1
            return apply(*args, **kwargs)
        return wrapped

    for module in (transitions, oracles):
        monkeypatch.setattr(module, "apply_transition", counted(module.apply_transition))
    for seed in range(10):
        calls = 0
        ep = fuzz_episode(seed, system, closed_lex, n=5, steps=seed % 4)
        assert ep.goal and calls == len(ep.steps), seed


def test_fuzz_steps_zero_is_pure_completion(closed_lex):
    ep = fuzz_episode(5, "ltl", closed_lex, n=4, steps=0)
    assert ep.goal
    # pure completion starts with Init; the first recorded step proves it
    assert ep.steps[0][1].startswith("Init(")


@contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to `frames` above the caller's depth, so a
    walk that recurses once per tree level fails on a short chain."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def test_checked_replay_of_a_long_chain_is_fast(closed_lex, monkeypatch):
    """writer as ROOT, then 4,999 soundly tokens, each MOD_m of the one
    before: checked ltf and ltl oracle round trips read the running owed
    total, not every token's owed slots, at each step.  A step recomputes
    owed slots before and after for at most the two tokens it touches, and
    tests its transition against the move set without listing it."""
    n = 5000
    entries = [TreeEntry("w1", "writer", 0, ROOT)] + [
        TreeEntry(f"w{k}", "soundly", k - 1, mod("m")) for k in range(2, n + 1)
    ]
    tree = AmDepTree(tuple(entries))
    forms = tuple(e.form for e in entries)
    calls = 0
    owed_at = transitions._owed

    def counted(*args):
        nonlocal calls
        calls += 1
        return owed_at(*args)

    def unlisted(*args):
        raise AssertionError("a checked step built the legal list")

    monkeypatch.setattr(transitions, "_owed", counted)
    monkeypatch.setattr(transitions, "legal_transitions", unlisted)
    steps = 0
    start = time.perf_counter()
    for system in ("ltf", "ltl"):
        seq = oracle_sequence(tree, closed_lex, system)
        final = replay(tree, seq, closed_lex, system)
        assert config_to_tree(final, forms) == tree
        steps += len(seq)
    assert time.perf_counter() - start < 8.0
    assert calls <= 4 * steps


def test_deep_chain_does_not_recurse(closed_lex):
    """writer as ROOT, then a chain of soundly tokens, each MOD_m of the one
    before: typing, evaluation and both oracle round trips stay iterative."""
    n = 250
    entries = [TreeEntry("w1", "writer", 0, ROOT)] + [
        TreeEntry(f"w{k}", "soundly", k - 1, mod("m")) for k in range(2, n + 1)
    ]
    tree = AmDepTree(tuple(entries))
    forms = tuple(e.form for e in entries)
    with recursion_headroom(100):
        assert check_well_typed(tree, closed_lex).ok
        assert evaluate_tree(tree, closed_lex) is not None
        for system in ("ltf", "ltl"):
            seq = oracle_sequence(tree, closed_lex, system)
            final = replay(tree, seq, closed_lex, system)
            assert config_to_tree(final, forms) == tree
