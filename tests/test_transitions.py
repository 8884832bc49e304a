"""Transition systems: legality, effects, determinism, dead-end freedom."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse.transitions import (
    Configuration,
    Moves,
    Transition,
    TransitionError,
    apply_transition,
    check_goal_config,
    config_to_tree,
    decode,
    initial_config,
    is_goal,
    legal_transitions,
    owed,
    _options,
    parse_transition,
    random_walk,
    render_trace,
    static_scorer,
    total_owed,
)
from amparse.lexicon import Lexicon, augment_closure
from amparse.trees import ROOT, app, check_well_typed, mod
from amparse.types import NAME_PATTERN, apply_set, parse_type

from test_lexicon import small_lexicons
from test_types import reduced_dags


GOLD_LTF = [
    "Init(3)", "Choose([], want)", "Apply(s, 2)", "Choose([], writer)", "Pop",
    "Apply(o, 5)", "Choose([s], sleep)", "Modify(m, 6)", "Choose([m], soundly)",
    "Pop", "Pop", "Pop",
]
GOLD_LTL = [
    "Init(3)", "Apply(s, 2)", "Apply(o, 5)", "Finish(want)",
    "Finish(writer)", "Modify(m, 6)", "Finish(sleep)", "Finish(soundly)",
]


def drive(seq, lexicon, system, n=6):
    cfg = initial_config(n)
    for text in seq:
        tr = parse_transition(text)
        legal = legal_transitions(cfg, lexicon, system)
        assert tr in legal, f"{text} not legal; options: {[str(t) for t in legal]}"
        cfg = apply_transition(cfg, tr, lexicon, system)
    return cfg


def test_transition_text_round_trip():
    for text in ("Init(3)", "Apply(s, 2)", "Modify(m, 6)", "Pop",
                 "Choose([o[s], s], want)", "Finish(want)"):
        assert str(parse_transition(text)) == text
    with pytest.raises(ValueError):
        parse_transition("Jump(1)")


def transitions_with_any_constant():
    """Transitions of every kind; constants are any token without whitespace
    or '#', often made of the characters that delimit the text."""
    constants = st.one_of(st.from_regex(r"[^\s#]+", fullmatch=True),
                          st.text(st.sampled_from("a,()[]"), min_size=1))
    sources, tokens = st.from_regex(NAME_PATTERN, fullmatch=True), st.integers(0, 10**4)
    return st.one_of(
        st.just(Transition("pop")),
        st.builds(lambda j: Transition("init", token=j), tokens),
        st.builds(lambda kind, s, j: Transition(kind, token=j, source=s),
                  st.sampled_from(["apply", "modify"]), sources, tokens),
        st.builds(lambda t, g: Transition("choose", term_type=t, constant=g),
                  reduced_dags(), constants),
        st.builds(lambda g: Transition("finish", constant=g), constants),
    )


@given(transitions_with_any_constant())
@settings(max_examples=300)
def test_transition_text_round_trips_any_constant_name(tr):
    text = str(tr)
    assert parse_transition(text) == tr
    assert str(parse_transition(text)) == text


@pytest.mark.parametrize("text", [
    "Init(3", "Init()", "Init(-1)", "Init(3))", "Finish(want) trailing)", "Finish()",
    "Finish(a#b)", "Finish(want", "Apply(s,2)", "Apply(s, 2", "Modify(, 6)", "Choose([s],x)",
    "Choose([s], )", "Pop)", "Pop()", ")",
    "Choose([s, a)", "Choose(x, a)", "Choose([s], a, b)", "Init(00)", "Apply(s, 01)",
    "Modify(m, 007)",
])
def test_parse_transition_rejects_text_no_transition_prints(text):
    with pytest.raises(TransitionError, match="cannot parse transition"):
        parse_transition(text)


def test_initial_legal_moves_are_inits(closed_lex):
    cfg = initial_config(3)
    for system in ("ltf", "ltl"):
        legal = legal_transitions(cfg, closed_lex, system)
        assert [t.kind for t in legal] == ["init"] * 3
        assert [t.token for t in legal] == [1, 2, 3]


def test_gold_ltf_sequence_reaches_goal(closed_lex, gold):
    cfg = drive(GOLD_LTF, closed_lex, "ltf")
    assert is_goal(cfg) and check_goal_config(cfg, closed_lex)
    forms = tuple(e.form for e in gold.entries)
    assert config_to_tree(cfg, forms) == gold


def test_gold_ltl_sequence_reaches_goal(closed_lex, gold):
    cfg = drive(GOLD_LTL, closed_lex, "ltl")
    assert is_goal(cfg) and check_goal_config(cfg, closed_lex)
    forms = tuple(e.form for e in gold.entries)
    assert config_to_tree(cfg, forms) == gold


def test_illegal_transition_raises(closed_lex):
    cfg = initial_config(3)
    with pytest.raises(TransitionError):
        apply_transition(cfg, parse_transition("Pop"), closed_lex, "ltf")
    with pytest.raises(TransitionError):
        apply_transition(cfg, parse_transition("Apply(s, 2)"), closed_lex, "ltl")


def test_tie_break_order():
    ts = [
        parse_transition("Pop"),
        parse_transition("Choose([], want)"),
        parse_transition("Modify(m, 6)"),
        parse_transition("Apply(s, 2)"),
        parse_transition("Init(1)"),
    ]
    ordered = sorted(ts, key=lambda t: t.sort_key())
    assert [t.kind for t in ordered] == ["init", "apply", "modify", "choose", "pop"]


def test_poss_lex_budget(lex):
    """The paper's PossL, read off _options: the lexical types that still
    reach term type t given the filled slots and at most budget more
    argument attachments."""
    def poss_lex(omega, t, done, budget):
        return {lam for lam, _, c in _options(omega, (t,), done) if len(c - done) <= budget}

    omega = lex.omega
    t = parse_type("[s]")
    assert poss_lex(omega, t, frozenset(), 1) == {
        parse_type("[s]"), parse_type("[m, s]"), parse_type("[o[s], s]"),
    }
    assert poss_lex(omega, t, frozenset(), 0) == {parse_type("[s]")}
    # done slots must be inside the apply set
    assert poss_lex(omega, t, frozenset({"o"}), 5) == {parse_type("[o[s], s]")}
    assert poss_lex(omega, t, frozenset({"zz"}), 5) == set()


def test_owed_zero_when_unannotated(closed_lex):
    cfg = initial_config(4)
    assert owed(cfg, 1, closed_lex) == 0
    assert total_owed(cfg, closed_lex) == 0


def test_owed_counts_missing_sources(closed_lex):
    # after Init + Choose(want), the active token owes both s and o
    cfg = drive(["Init(3)", "Choose([], want)"], closed_lex, "ltf")
    assert owed(cfg, 3, closed_lex) == 2
    cfg = drive(["Init(3)", "Choose([], want)", "Apply(s, 2)"], closed_lex, "ltf")
    assert owed(cfg, 3, closed_lex) == 1


def test_ltf_never_allows_overcommitment(closed_lex):
    # W - O budget: once every token has a head, Modify must be illegal
    cfg = drive(
        ["Init(2)", "Choose([], want)", "Apply(s, 1)", "Choose([], writer)",
         "Pop", "Apply(o, 3)", "Choose([s], sleep)"],
        closed_lex, "ltf", n=3,
    )
    assert cfg.free_tokens() == 0
    kinds = {t.kind for t in legal_transitions(cfg, closed_lex, "ltf")}
    assert kinds == {"pop"}


def test_ablation_only_for_ltl(closed_lex):
    cfg = initial_config(2)
    with pytest.raises(TransitionError):
        legal_transitions(cfg, closed_lex, "ltf", type_checked=False)
    legal = legal_transitions(cfg, closed_lex, "ltl", type_checked=False)
    assert legal


def test_unknown_system_rejected(closed_lex):
    with pytest.raises(TransitionError):
        legal_transitions(initial_config(2), closed_lex, "arc-eager")


def test_unchecked_steps_still_reject_undefined_systems(closed_lex):
    """An unchecked step, and a step table built from unchecked steps, name
    one system: an unknown name or an unchecked ltf is an error, not a
    mixture of the two systems' effects."""
    cfg, init = initial_config(3), parse_transition("Init(1)")
    with pytest.raises(TransitionError, match="unknown system 'LTF'"):
        apply_transition(cfg, init, closed_lex, "LTF", check=False)
    with pytest.raises(TransitionError, match="ltl only"):
        apply_transition(cfg, init, closed_lex, "ltf", check=False, type_checked=False)
    with pytest.raises(TransitionError, match="unknown system 'bogus'"):
        render_trace([init], closed_lex, "bogus", 3)


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_random_walks_always_reach_goals(closed_lex, system):
    """Dead-end freedom: uniform random legal walks always end at a goal."""
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        cfg, trace = random_walk(closed_lex, system, n, rng)
        assert is_goal(cfg), f"seed {seed} stuck"
        assert check_goal_config(cfg, closed_lex)
        tree = config_to_tree(cfg)
        assert check_well_typed(tree, closed_lex).ok, f"seed {seed} ill-typed"


def test_ltf_owed_never_exceeds_free_tokens(closed_lex):
    # invariant O <= W along every legal path
    for seed in range(40):
        rng = random.Random(seed)
        cfg = initial_config(rng.randint(2, 6))
        while True:
            assert total_owed(cfg, closed_lex) <= cfg.free_tokens()
            legal = legal_transitions(cfg, closed_lex, "ltf")
            if not legal:
                break
            cfg = apply_transition(cfg, rng.choice(legal), closed_lex, "ltf")


def test_ltl_applied_matches_app_edges(closed_lex):
    # alpha in A(i) exactly when an APP_alpha edge leaves i
    for seed in range(40):
        rng = random.Random(seed)
        cfg = initial_config(rng.randint(2, 6))
        while True:
            for i in range(1, cfg.n + 1):
                done = cfg.states[i].applied
                if done is None:
                    continue
                from_edges = {
                    lbl.source for d, lbl in cfg.children(i) if lbl.kind == "app"
                }
                assert done == from_edges
            legal = legal_transitions(cfg, closed_lex, "ltl")
            if not legal:
                break
            cfg = apply_transition(cfg, rng.choice(legal), closed_lex, "ltl")


def test_decode_beam_never_worse_than_greedy(closed_lex):
    from amparse.costs import gen_synthetic

    for seed in range(10):
        c = gen_synthetic(seed, 5, closed_lex)
        for system in ("ltf", "ltl"):
            greedy = decode(c, closed_lex, system, beam=1)
            wide = decode(c, closed_lex, system, beam=8)
            assert wide.score <= greedy.score + 1e-9


@pytest.mark.parametrize("beam", [0, -1])
def test_decode_rejects_beam_below_one(closed_lex, beam):
    from amparse.costs import gen_synthetic

    for system in ("ltf", "ltl"):
        with pytest.raises(TransitionError, match="beam must be at least 1"):
            decode(gen_synthetic(0, 3, closed_lex), closed_lex, system, beam=beam)


def test_render_trace_shape(closed_lex):
    seq = [parse_transition(t) for t in GOLD_LTL]
    lines = render_trace(seq, closed_lex, "ltl", 6)
    assert lines[0].split()[:2] == ["step", "E"]
    assert len(lines) == len(seq) + 1
    assert lines[1].endswith("Init(3)")


def test_digest_is_stable_and_distinct(closed_lex):
    a = initial_config(4)
    b = apply_transition(
        a, parse_transition("Init(2)"), closed_lex, "ltl"
    )
    assert a.digest() == initial_config(4).digest()
    assert a.digest() != b.digest()


# --- decoding does only the work that survives -------------------------------


def reference_decode(costs, lexicon, system, beam=1, type_checked=True):
    """decode as an expand-all beam: every legal transition is applied and
    scored by its cost-file entry looked up by label, then the beam is cut."""
    from amparse.costs import INF, tree_cost
    from amparse.transitions import DecodeResult
    from amparse.trees import ROOT, app, mod

    def score(cfg, tr):
        if tr.kind == "init":
            return costs.edge(0, tr.token, ROOT)
        if tr.kind in ("apply", "modify"):
            lbl = (app if tr.kind == "apply" else mod)(tr.source)
            return costs.edge(cfg.active, tr.token, lbl)
        if tr.kind in ("choose", "finish"):
            return costs.tag(cfg.active, tr.constant)
        return 0.0

    beams = [(0.0, 0, initial_config(costs.n), [])]
    counter = 1
    while True:
        grown = []
        any_open = False
        for total, tie, cfg, trs in beams:
            legal = legal_transitions(cfg, lexicon, system, type_checked)
            if not legal:
                grown.append((total, tie, cfg, trs))
                continue
            any_open = True
            if beam == 1:
                legal = [min(legal, key=lambda t: (score(cfg, t), t.sort_key()))]
            for tr in legal:
                nxt = apply_transition(cfg, tr, lexicon, system, check=False)
                grown.append((total + score(cfg, tr), counter, nxt, trs + [tr]))
                counter += 1
        if not any_open:
            break
        grown.sort(key=lambda b: (b[0], b[1]))
        beams = grown[:beam]
    best_total, _, best_cfg, best_trs = min(beams, key=lambda b: (b[0], b[1]))
    if not is_goal(best_cfg):
        return DecodeResult(None, INF, best_trs, best_total)
    tree = config_to_tree(best_cfg, costs.forms)
    return DecodeResult(tree, tree_cost(tree, costs), best_trs, best_total)


DECODE_SETTINGS = [("ltf", True), ("ltl", True), ("ltl", False)]


def assert_decodes_like_reference(costs, lexicon):
    for system, type_checked in DECODE_SETTINGS:
        for beam in (1, 2, 4, 8):
            got = decode(costs, lexicon, system, beam=beam, type_checked=type_checked)
            want = reference_decode(costs, lexicon, system, beam, type_checked)
            assert got == want, (system, type_checked, beam)


def test_decode_matches_expand_all_reference(closed_lex):
    from amparse.costs import gen_synthetic

    for seed in range(6):
        assert_decodes_like_reference(gen_synthetic(seed, 3 + seed % 3, closed_lex), closed_lex)


@given(small_lexicons().map(augment_closure), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_decode_matches_reference_on_random_lexicons(lx, n, seed):
    from amparse.costs import gen_synthetic

    assert_decodes_like_reference(gen_synthetic(seed, n, lx), lx)


def owed_walk(lexicon, system, n, rng, type_checked=True, wild=0.0):
    """A random walk that checks the running owed total against total_owed
    at every configuration.  With probability wild a Choose or Finish is
    swapped for one with a random constant and applied unchecked, which can
    leave a token owing INF (an unchecked ltf Choose is followed by an
    unchecked Pop, since ltf legality needs the active token's constant to
    fit).  Returns whether some configuration owed INF."""
    constants = sorted(lexicon.constants)
    cfg = initial_config(n)
    saw_inf = False
    for _ in range(4 * n + 4):
        total = cfg.owed_total
        assert not math.isnan(total)
        assert total == total_owed(cfg, lexicon)
        # the split too: one INF-owing token masks another in the total
        each = [owed(cfg, i, lexicon) for i in range(1, n + 1)]
        assert cfg.owed_infinite == each.count(math.inf)
        assert cfg.owed_finite == sum(x for x in each if x != math.inf)
        saw_inf = saw_inf or total == math.inf
        legal = legal_transitions(cfg, lexicon, system, type_checked)
        if not legal:
            break
        tr = rng.choice(legal)
        if tr.kind in ("choose", "finish") and rng.random() < wild:
            tr = Transition(tr.kind, term_type=tr.term_type, constant=rng.choice(constants))
            if system == "ltf":
                cfg = apply_transition(cfg, tr, lexicon, system, check=False)
                assert cfg.owed_total == total_owed(cfg, lexicon)
                tr = Transition("pop")
        cfg = apply_transition(cfg, tr, lexicon, system, check=False)
    return saw_inf


@pytest.mark.parametrize("system,type_checked", DECODE_SETTINGS)
def test_running_owed_total_matches_total_owed(closed_lex, system, type_checked):
    saw_inf = False
    for seed in range(60):
        rng = random.Random(seed)
        wild = 0.0 if seed < 20 else 0.5
        saw_inf |= owed_walk(closed_lex, system, rng.randint(1, 7), rng, type_checked, wild)
    assert saw_inf  # the walks reached tokens owing INF, and the total stayed exact


@given(small_lexicons().map(augment_closure), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_running_owed_total_on_random_lexicons(lx, n, seed):
    for system, type_checked in DECODE_SETTINGS:
        owed_walk(lx, system, n, random.Random(seed), type_checked, wild=0.3)


@given(small_lexicons().map(augment_closure))
@settings(max_examples=60, deadline=None)
def test_apply_set_picks_out_at_most_one_term_type(lx):
    """The uniqueness that lets Finish take the first witness it meets:
    for each lexical type, no two term types consume the same sources."""
    for lam in lx.omega:
        seen = {}
        for t in lx.omega:
            consumed = apply_set(lam, t)
            if consumed is not None:
                assert seen.setdefault(consumed, t) == t


# --- one move set: legal_transitions lists it, a checked step tests it -------


def near_misses(cfg, lexicon, legal):
    """Transitions a step away from the legal ones: every kind aimed at every
    token (headed ones and out-of-range ones included), every source for
    Apply and Modify, every constant for Choose and Finish, and Pop."""
    sources = sorted({*lexicon.app_sources(), *lexicon.mod_sources()}) + ["zz"]
    constants = sorted(lexicon.constants) + ["zz"]
    out = [Transition("pop")]
    for j in range(0, cfg.n + 2):
        out.append(Transition("init", token=j))
        out += [Transition(k, token=j, source=src) for k in ("apply", "modify") for src in sources]
    for tr in legal:
        if tr.kind in ("choose", "finish"):
            out += [Transition(tr.kind, term_type=tr.term_type, constant=g) for g in constants]
        if tr.kind in ("apply", "modify"):
            out.append(Transition(tr.kind, token=tr.token, source=tr.source, constant="zz"))
    return out


def move_set_walk(lexicon, system, n, rng, type_checked=True):
    """A random legal walk that, at every configuration, checks the legal
    list's order against Transition.sort_key, applies every listed
    transition checked and unchecked, and tests every near miss."""
    cfg = initial_config(n)
    for _ in range(4 * n + 4):
        legal = legal_transitions(cfg, lexicon, system, type_checked)
        assert legal == sorted(legal, key=Transition.sort_key)
        assert len(set(legal)) == len(legal)
        for tr in legal:
            checked = apply_transition(cfg, tr, lexicon, system, True, type_checked)
            unchecked = apply_transition(cfg, tr, lexicon, system, False, type_checked)
            assert checked == unchecked
            assert checked.owed_total == unchecked.owed_total
        for tr in near_misses(cfg, lexicon, legal):
            if tr not in legal:
                with pytest.raises(TransitionError, match="illegal transition"):
                    apply_transition(cfg, tr, lexicon, system, True, type_checked)
        if not legal:
            return
        cfg = apply_transition(cfg, rng.choice(legal), lexicon, system, False, type_checked)


@given(small_lexicons().map(augment_closure), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_checked_step_accepts_exactly_the_legal_list(lx, n, seed):
    for system, type_checked in DECODE_SETTINGS:
        move_set_walk(lx, system, n, random.Random(seed), type_checked)


@pytest.mark.parametrize("system,type_checked", DECODE_SETTINGS)
def test_checked_step_accepts_exactly_the_legal_list_on_the_demo(closed_lex, system, type_checked):
    for seed in range(10):
        rng = random.Random(seed)
        move_set_walk(closed_lex, system, rng.randint(1, 6), rng, type_checked)


def test_running_owed_total_is_ignored_by_equality(closed_lex):
    a = drive(["Init(3)", "Choose([], want)"], closed_lex, "ltf")
    b = Configuration(a.n, a.edges, a.stack, a.states)
    assert a.owed_total == 2 and b.owed_total == 0
    assert a == b and hash(a) == hash(b) and a.digest() == b.digest()


@pytest.mark.parametrize("system,seq,digest", [
    ("ltf", ["Init(1)", "Choose([], want)", "Apply(s, 1)"], "40e1330c9577"),
    ("ltf", ["Init(1)", "Choose([], want)", "Apply(o, 1)"], "8b629adc1538"),
    ("ltl", ["Init(1)", "Apply(s, 1)", "Finish(sleep)"], "f9120b24cc5d"),
    ("ltl", ["Init(1)", "Apply(s, 1)", "Finish(want)"], "3aaa40220bd1"),
], ids=["ltf-apply-s", "ltf-apply-o", "ltl-finish-sleep", "ltl-finish-want"])
def test_a_step_that_names_one_token_twice_makes_both_updates(closed_lex, system, seq, digest):
    # unchecked self-edges: ltf's Apply makes the active token its own dependent,
    # and ltl's Finish meets the active token among its own children
    from amparse.types import request

    cfg = initial_config(3)
    for text in seq:
        before, cfg = cfg, apply_transition(cfg, parse_transition(text), closed_lex, system, False)
    last = parse_transition(seq[-1])
    if system == "ltf":  # A(1) gains the source, and T(1) is the request at it
        _, done, g = before.states[1]
        expected = (frozenset([request(closed_lex.type_of(g), last.source)]), done | {last.source}, g)
    else:  # a child's T, A and the active token's G
        g = last.constant
        expected = (frozenset([request(closed_lex.type_of(g), "s")]), frozenset(), g)
    assert cfg.states[1] == expected
    assert cfg.owed_total == total_owed(cfg, closed_lex)
    assert cfg.digest() == digest


def test_scorer_prices_never_interned_labels_at_inf(closed_lex):
    from amparse.costs import gen_synthetic

    c = gen_synthetic(0, 3, closed_lex)
    never = {app("never_interned_source"), mod("never_interned_source")}
    lx = Lexicon(closed_lex.constants, closed_lex.omega, closed_lex.labels | never)
    price = static_scorer(c, lx)
    cfg = drive(["Init(1)"], closed_lex, "ltl", n=3)
    unknown = Moves(apply=("never_interned_source",), modify=("never_interned_source",))
    assert price(cfg, unknown, [2, 3]) == [math.inf] * 4
    # known labels still price their entries, in legal_transitions' order
    moves = Moves(apply=("o", "s"), rest=(parse_transition("Finish(want)"),))
    assert price(cfg, moves, [2, 3]) == [
        c.edge(1, 2, app("o")), c.edge(1, 2, app("s")),
        c.edge(1, 3, app("o")), c.edge(1, 3, app("s")), c.tag(1, "want"),
    ]
    init = Moves(rest=(parse_transition("Init(2)"),))
    assert price(initial_config(3), init, ()) == [c.edge(0, 2, ROOT)]


def decode_cases(lexicon):
    from amparse.costs import gen_synthetic

    return [(gen_synthetic(seed, 3 + seed, lexicon), system, type_checked, beam)
            for seed in range(3) for system, type_checked in DECODE_SETTINGS for beam in (1, 4)]


def test_decode_never_lists_the_legal_transitions(closed_lex, monkeypatch):
    """decode prices each move set itself, with the same results."""
    from amparse import transitions

    cases = decode_cases(closed_lex)
    want = [decode(c, closed_lex, s, beam=b, type_checked=tc) for c, s, tc, b in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("decode called legal_transitions")

    monkeypatch.setattr(transitions, "legal_transitions", refuse)
    assert [decode(c, closed_lex, s, beam=b, type_checked=tc) for c, s, tc, b in cases] == want


def test_decode_builds_only_the_apply_and_modify_transitions_it_applies(closed_lex, monkeypatch):
    """Every Apply or Modify decode builds is one it applies, and a step
    applies at most beam transitions, so it builds at most beam of them."""
    from amparse import transitions

    built, applied = [], []
    real_transition, real_apply = transitions.Transition, transitions._Guards.apply

    def counting_transition(kind, *args, **kwargs):
        tr = real_transition(kind, *args, **kwargs)
        if kind in ("apply", "modify"):
            built.append(tr)
        return tr

    def counting_apply(guards, cfg, tr, *args, **kwargs):
        if tr.kind in ("apply", "modify"):
            applied.append(tr)
        return real_apply(guards, cfg, tr, *args, **kwargs)

    monkeypatch.setattr(transitions, "Transition", counting_transition)
    monkeypatch.setattr(transitions._Guards, "apply", counting_apply)
    attached = 0
    for c, system, type_checked, beam in decode_cases(closed_lex):
        built.clear()
        applied.clear()
        res = decode(c, closed_lex, system, beam=beam, type_checked=type_checked)
        assert built == applied, (system, type_checked, beam)
        if beam == 1:
            assert built == [tr for tr in res.transitions if tr.kind in ("apply", "modify")]
        attached += len(built)
    assert attached  # the decodes did attach tokens


# --- one enumeration of a token's options answers every guard ----------------


def reference_owed(ts, done, g, lexicon):
    """owed from a token's T, A and G, scanning its candidate lexical types."""
    if ts is None or done is None:
        return 0
    lams = [lexicon.type_of(g)] if g is not None else lexicon.omega
    return min((len(c - done) for lam in lams for t in ts
                if (c := apply_set(lam, t)) is not None and done <= c), default=math.inf)


def reference_moves(cfg, lexicon, system, type_checked=True):
    """The move set as the guards were first written, with one scan of omega
    per source and per constant: ltl Apply(alpha) needs some t in T(i) that
    some lexical type reaches by consuming A(i) + {alpha} and at most W - 1
    more sources (PossL per source), Finish(g) some t in T(i) that g's
    type reaches by consuming exactly A(i) (a witness per constant); ltf
    Choose(t, g) needs g's type to reach t within the budget W - O."""
    from amparse.trees import mod
    from amparse.types import serialize_type, type_combine

    def reach(t, done, budget):
        return {lam for lam in lexicon.omega
                if (c := apply_set(lam, t)) is not None and done <= c and len(c - done) <= budget}

    if cfg.is_initial:
        return Moves(rest=tuple(Transition("init", token=j) for j in range(1, cfg.n + 1)))
    if not cfg.stack:
        return Moves()
    i, w = cfg.active, cfg.free_tokens()
    budget = w - sum(reference_owed(*cfg.states[j], lexicon)
                     for j in range(1, cfg.n + 1))
    names = sorted(lexicon.constants)
    app_sources = sorted(l.source for l in lexicon.labels if l.kind == "app")
    mod_sources = sorted(l.source for l in lexicon.labels if l.kind == "mod")
    terms, done, g = cfg.states[i]
    if system == "ltf":
        if g is None:
            return Moves(rest=tuple(
                Transition("choose", term_type=t, constant=g)
                for t in sorted(terms, key=serialize_type) for g in names
                if lexicon.type_of(g) in reach(t, frozenset(), budget)
            ))
        lam = lexicon.type_of(g)
        consumed = apply_set(lam, next(iter(terms)))
        return Moves(
            tuple(a for a in sorted(consumed - done) if app(a) in lexicon.labels),
            tuple(b for b in mod_sources if budget >= 1 and any(
                type_combine(mod(b), lam, t) is not None for t in lexicon.omega)),
            (Transition("pop"),) if done == consumed else (),
        )
    return Moves(
        tuple(a for a in app_sources if a not in done and (
            not type_checked or any(reach(t, done | {a}, w - 1) for t in terms))),
        tuple(mod_sources) if not type_checked or budget >= 1 else (),
        tuple(Transition("finish", constant=g) for g in names if not type_checked or any(
            apply_set(lexicon.type_of(g), t) == done for t in terms)),
    )


def guard_walk(lexicon, system, n, rng, type_checked=True):
    """A random legal walk that compares the move set with the reference at
    every configuration.  Returns how many configurations it compared."""
    from amparse.transitions import _Guards

    cfg = initial_config(n)
    for step in range(4 * n + 5):
        moves = _Guards(lexicon, system, type_checked, {}).moves(cfg)
        assert moves == reference_moves(cfg, lexicon, system, type_checked), (system, cfg)
        legal = legal_transitions(cfg, lexicon, system, type_checked)
        if not legal:
            return step + 1
        cfg = apply_transition(cfg, rng.choice(legal), lexicon, system, False, type_checked)
    raise AssertionError("walk did not end")


@given(small_lexicons().map(augment_closure), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_move_sets_match_the_per_source_reference_on_random_lexicons(lx, n, seed):
    for system, type_checked in DECODE_SETTINGS:
        guard_walk(lx, system, n, random.Random(seed), type_checked)


@pytest.mark.parametrize("system,type_checked", DECODE_SETTINGS)
def test_move_sets_match_the_per_source_reference_on_the_demo(closed_lex, system, type_checked):
    for seed in range(20):
        rng = random.Random(seed)
        guard_walk(closed_lex, system, rng.randint(1, 7), rng, type_checked)


# --- one memo per lexicon answers each token state once ----------------------


def assert_memo_answers_afresh(memo, lexicon):
    """Every entry of a guard memo equals what its key alone recomputes
    over an empty memo: options, owed slots, dependent term types and the
    Choose and Finish transitions with no setting, and each move set
    through ltl or ltf guards, the ltl ones taking type_checked from the
    key."""
    from amparse.transitions import _dependent_terms, _Guards
    from amparse.types import serialize_type

    ltl, ltf = _Guards(lexicon, "ltl", True, {}), _Guards(lexicon, "ltf", True, {})
    names = sorted(lexicon.constants)
    for key, value in memo.items():
        kind, *args = key
        if kind == "options":
            assert value == _options(*args), key
        elif kind == "owed":
            assert value == reference_owed(*args, lexicon), key
        elif kind == "dependent":
            assert value == _dependent_terms(lexicon, *args), key
        elif kind == "choices":
            (ts,) = args
            assert value == tuple(
                (len(c), Transition("choose", term_type=t, constant=g))
                for t in sorted(ts, key=serialize_type) for g in names
                if (c := apply_set(lexicon.type_of(g), t)) is not None), key
        elif kind == "finishes":
            assert args == [] and value == tuple(
                (lexicon.type_of(g), Transition("finish", constant=g)) for g in names), key
        else:
            build = {"ltl": ltl._ltl, "choose": ltf._choose, "ltf": ltf._ltf}[kind]
            assert value == build(*args), key


def memo_walk(lexicon, system, n, rng, type_checked=True):
    """A random legal walk that one guard object drives from start to goal.
    At every configuration its move set must equal the reference and its
    owed slots for every token a fresh scan; at the end every entry of its
    memo and of the lexicon's must equal a fresh computation.  Returns W at
    every configuration it stepped from."""
    from amparse.transitions import _Guards

    guards = _Guards(lexicon, system, type_checked, {})
    cfg, ws = initial_config(n), []
    for _ in range(4 * n + 5):
        assert guards.moves(cfg) == reference_moves(cfg, lexicon, system, type_checked), cfg
        for j in range(1, n + 1):
            state = cfg.states[j]
            assert guards.owed(state) == reference_owed(*state, lexicon)
        legal = legal_transitions(cfg, lexicon, system, type_checked)
        if not legal:
            break
        ws.append(cfg.free_tokens())
        tr = rng.choice(legal)
        nxt = guards.apply(cfg, tr)
        fresh = apply_transition(cfg, tr, lexicon, system, True, type_checked)
        assert nxt == fresh and nxt.owed_total == fresh.owed_total
        cfg = nxt
    else:
        raise AssertionError("walk did not end")
    assert_memo_answers_afresh(guards._memo, lexicon)
    assert_memo_answers_afresh(lexicon.guards, lexicon)
    return ws


@given(small_lexicons().map(augment_closure), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_one_guard_object_answers_like_a_fresh_computation_on_random_lexicons(lx, n, seed):
    for system, type_checked in DECODE_SETTINGS:
        memo_walk(lx, system, n, random.Random(seed), type_checked)


@pytest.mark.parametrize("system,type_checked", DECODE_SETTINGS)
def test_one_guard_object_answers_like_a_fresh_computation_on_the_demo(
        closed_lex, system, type_checked):
    ws = []
    for seed in range(30):
        rng = random.Random(seed)
        ws += memo_walk(closed_lex, system, rng.randint(1, 7), rng, type_checked)
    cap = closed_lex.max_sources
    assert min(ws) < cap < max(ws)  # the budgets met fall on both sides of cap


def test_decode_enumerates_each_token_state_once(monkeypatch):
    """Across every decode over one lexicon, whatever its setting, no
    (lams, T, A) triple reaches _options twice: the settings share one memo,
    so a first pass over the cases enumerates exactly the triples that the
    settings meet each on a lexicon of its own, each once, and a second
    pass enumerates none."""
    from amparse import transitions
    from amparse.demo import demo_lexicon

    real, seen = transitions._options, []

    def counting(lams, ts, done):
        seen.append((lams, ts, done))
        return real(lams, ts, done)

    monkeypatch.setattr(transitions, "_options", counting)
    lexicon = augment_closure(demo_lexicon())
    cases = decode_cases(lexicon)
    alone = {}  # the triples each setting enumerates on a lexicon of its own
    for setting in DECODE_SETTINGS:
        seen.clear()
        own = fresh_copy(lexicon)
        for c, system, type_checked, beam in cases:
            if (system, type_checked) == setting:
                decode(c, own, system, beam=beam, type_checked=type_checked)
        alone[setting] = set(seen)
    for first in (True, False):
        seen.clear()
        for c, system, type_checked, beam in cases:
            decode(c, lexicon, system, beam=beam, type_checked=type_checked)
        if first:
            assert len(set(seen)) == len(seen)
            assert set(seen) == set().union(*alone.values())
            assert len(seen) < sum(map(len, alone.values()))  # the settings share triples
        else:
            assert seen == []


def fresh_copy(lexicon):
    """An equal lexicon that has decoded nothing."""
    return Lexicon(lexicon.constants, lexicon.omega, lexicon.labels, lexicon.name)


# checked ltl again at the end: unchecked ltl runs directly after checked
# ltl with the same beam, and checked ltl directly after unchecked ltl
INTERLEAVED_SETTINGS = [*DECODE_SETTINGS, ("ltl", True)]


def assert_shared_guards_decode_like_fresh_ones(lexicon, sentences, beams):
    """Decoding every setting in interleaved order on one lexicon gives what
    each decode gives on a lexicon of its own, and leaves one memo whose
    every entry a fresh computation reproduces, with ltl move sets of both
    type checkings."""
    for c in sentences:
        for beam in beams:
            for system, type_checked in INTERLEAVED_SETTINGS:
                shared = decode(c, lexicon, system, beam=beam, type_checked=type_checked)
                alone = decode(c, fresh_copy(lexicon), system, beam=beam, type_checked=type_checked)
                assert shared == alone, (c.sid, system, type_checked, beam)
    assert_memo_answers_afresh(lexicon.guards, lexicon)
    assert {key[-1] for key in lexicon.guards if key[0] == "ltl"} == {True, False}


def test_decode_shares_guards_per_system_and_type_checking(closed_lex):
    from amparse.costs import gen_synthetic

    lexicon = fresh_copy(closed_lex)
    sentences = [gen_synthetic(seed, 3 + seed, lexicon) for seed in range(6)]
    assert_shared_guards_decode_like_fresh_ones(lexicon, sentences, (1, 4))
    assert {key[0] for key in lexicon.guards} == {
        "options", "owed", "dependent", "choices", "finishes", "ltl", "choose", "ltf"}
    # checked and unchecked ltl decode differently here, so sharing their move sets would show
    assert any(decode(c, lexicon, "ltl", beam=4) != decode(c, lexicon, "ltl", beam=4, type_checked=False)
               for c in sentences)


@given(small_lexicons().map(augment_closure), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_decode_shares_guards_like_fresh_ones_on_random_lexicons(lx, n, seed):
    from amparse.costs import gen_synthetic

    sentences = [gen_synthetic(seed + k, n + k, lx) for k in range(2)]
    assert_shared_guards_decode_like_fresh_ones(lx, sentences, (1, 3))


def test_rejected_decode_settings_raise_every_time_and_cache_nothing(closed_lex):
    from amparse.costs import gen_synthetic

    lexicon = fresh_copy(closed_lex)
    c = gen_synthetic(0, 4, lexicon)
    cfg = apply_transition(initial_config(4), Transition("init", token=1), closed_lex, "ltl")
    for _ in range(2):
        with pytest.raises(TransitionError, match="ltl only"):
            decode(c, lexicon, "ltf", type_checked=False)
        with pytest.raises(TransitionError, match="unknown system"):
            decode(c, lexicon, "nosuch")
        with pytest.raises(TransitionError, match="ltl only"):
            legal_transitions(cfg, lexicon, "ltf", type_checked=False)
        with pytest.raises(TransitionError, match="unknown system"):
            apply_transition(cfg, Transition("pop"), lexicon, "nosuch")
    assert lexicon.guards == {}


@pytest.mark.parametrize("system", ["ltf", "ltl"])
def test_entry_points_other_than_decode_keep_their_guards_per_call(closed_lex, gold, system):
    """Every entry point but decode shares the answers of each token state
    on the lexicon and keeps its move sets, which read the budget, per
    call: the lexicon's memo holds no move set afterwards.  ltf's moves
    read the Choose transitions, ltl's the Finish ones."""
    from amparse.oracles import complete_config, fuzz_episode, oracle_sequence, replay

    lexicon = fresh_copy(closed_lex)
    seq = oracle_sequence(gold, lexicon, system)
    replay(gold, seq, lexicon, system)
    cfg = initial_config(gold.n)
    for tr in seq:
        assert tr in legal_transitions(cfg, lexicon, system)
        cfg = apply_transition(cfg, tr, lexicon, system)
        total_owed(cfg, lexicon)
        owed(cfg, cfg.active or 1, lexicon)
    random_walk(lexicon, system, 5, random.Random(0), max_steps=3)
    complete_config(initial_config(4), lexicon, system)
    assert fuzz_episode(1, system, lexicon, 5, 4).goal
    kinds = {"options", "owed", "dependent", {"ltf": "choices", "ltl": "finishes"}[system]}
    assert {key[0] for key in lexicon.guards} == kinds
    assert_memo_answers_afresh(lexicon.guards, lexicon)


def test_a_second_oracle_round_trip_answers_no_token_state(closed_lex, gold, monkeypatch):
    """Oracle round trips of the same trees on a warm lexicon find every
    token state's options, owed slots, dependents' term types and Choose
    transitions in its memo, so the second one computes none of them: it
    neither calls apply_set nor serializes a type."""
    from amparse import transitions
    from amparse.costs import gen_synthetic
    from amparse.oracles import oracle_sequence, replay

    trees = [gold] + [
        res.tree for seed in range(6)
        if (res := decode(gen_synthetic(seed, 4 + seed, closed_lex), fresh_copy(closed_lex), "ltl")).ok
    ]
    assert len(trees) > 3
    calls = {name: 0 for name in (
        "_options", "_owed", "_dependent_terms", "apply_set", "serialize_type")}
    for name in calls:
        def counted(*args, real=getattr(transitions, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(transitions, name, counted)
    lexicon = fresh_copy(closed_lex)
    for first in (True, False):
        for system in ("ltf", "ltl"):
            for tree in trees:
                final = replay(tree, oracle_sequence(tree, lexicon, system), lexicon, system)
                assert config_to_tree(final, tuple(e.form for e in tree.entries)) == tree
        if first:
            assert all(calls.values()), calls
            calls.update(dict.fromkeys(calls, 0))
    assert not any(calls.values()), calls


def test_copies_of_a_warm_lexicon(closed_lex):
    """dataclasses.replace starts an empty memo; a pickled warm lexicon
    carries none of its caches, and decodes as the original does."""
    import dataclasses
    import pickle

    warm = fresh_copy(closed_lex)
    cases = decode_cases(warm)
    want = [decode(c, warm, s, beam=b, type_checked=tc) for c, s, tc, b in cases]
    assert {key[0] for key in warm.guards} == {
        "options", "owed", "dependent", "choices", "finishes", "ltl", "choose", "ltf"}
    assert_memo_answers_afresh(warm.guards, warm)
    assert {key[-1] for key in warm.guards if key[0] == "ltl"} == {True, False}
    warm.type_table  # the deductive decoders' cache
    assert {"type_table", "guards", "max_sources"} <= vars(warm).keys()
    copy = dataclasses.replace(warm)
    assert copy == warm and repr(copy) == repr(warm) and copy.guards == {}
    thawed = pickle.loads(pickle.dumps(warm))
    assert not {"type_table", "guards", "max_sources"} & vars(thawed).keys()
    assert [decode(c, thawed, s, beam=b, type_checked=tc) for c, s, tc, b in cases] == want
    assert thawed.guards.keys() == warm.guards.keys()


def test_a_decoded_lexicon_is_freed_without_the_cycle_collector(closed_lex):
    """The memo holds nothing that points back at the lexicon, so dropping
    the last reference frees it with the cyclic garbage collector off."""
    import gc
    import weakref

    from amparse.costs import gen_synthetic

    lexicon = fresh_copy(closed_lex)
    c = gen_synthetic(0, 5, lexicon)
    for system, type_checked in DECODE_SETTINGS:
        decode(c, lexicon, system, beam=2, type_checked=type_checked)
    assert lexicon.guards
    ref = weakref.ref(lexicon)
    gc.disable()
    try:
        del lexicon
        assert ref() is None
    finally:
        gc.enable()


HASH_SEED_SCRIPT = """
from amparse import oracles, transitions
from amparse.costs import gen_synthetic
from amparse.demo import demo_lexicon
from amparse.lexicon import augment_closure

calls = 0
for module in (transitions, oracles):
    real = module.apply_set
    def counted(*args, real=real):
        global calls
        calls += 1
        return real(*args)
    module.apply_set = counted
lx = augment_closure(demo_lexicon())
res = transitions.decode(gen_synthetic(7, 9, lx), lx, "ltl", beam=4)
for system in ("ltf", "ltl"):
    oracles.replay(res.tree, oracles.oracle_sequence(res.tree, lx, system), lx, system)
print(calls, res.cost)
"""


def test_apply_set_calls_do_not_depend_on_the_hash_seed():
    """A decode and both oracle round trips of its tree make the same
    apply_set calls under two string-hash seeds, which order the frozensets
    of types the guards enumerate differently."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import amparse

    src = str(Path(amparse.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(run.stdout.split())
    assert outs[0] == outs[1] and int(outs[0][0]) > 0 and outs[0][1] != "inf"


# --- decode parity on the benchmark's transition inputs ----------------------


def _decode_digest(sentences, lexicon, system, beam, type_checked):
    """sha256 over each sentence's tree text, cost and score reprs and
    transition strings: two decoders that agree here agree on every output."""
    import hashlib

    from amparse import fileformats as ff

    h = hashlib.sha256()
    for c in sentences:
        res = decode(c, lexicon, system, beam=beam, type_checked=type_checked)
        tree = ff.write_trees_text([res.tree]) if res.ok else "None\n"
        h.update(f"{c.sid!r}\n{tree}{res.cost!r} {res.score!r}\n".encode())
        h.update(" ".join(map(str, res.transitions)).encode() + b"\n")
    return h.hexdigest()


PARITY_DECODES = {"ltf greedy": ("ltf", 1, True), "ltl greedy": ("ltl", 1, True),
                  "ltl beam 4": ("ltl", 4, True), "unchecked ltl beam 4": ("ltl", 4, False)}
# sha256 digests of decode on the transition-peaked benchmark inputs, taken
# with the decoder that enumerated every guard afresh at every step.
DECODE_PARITY = {
    (3, "ltf greedy"): "523386d4424d5f7d18e811db2781b9f4f958251c3495e960c8ec213d414dfe8e",
    (3, "ltl greedy"): "02392663d0edc6cbf0a577ef6254b61cd0830b54a6824a3fbfe6d84a7d55c32d",
    (3, "ltl beam 4"): "31c0ac592ff1adf09cdf4611cf63e9bc4a992e41c77a8cbd267d75f68c879d0b",
    (3, "unchecked ltl beam 4"): "ac132edc7982b2e81644cc63730c19cf2fd7fbf656d0523a85cb39bab48075d3",
    (5, "ltf greedy"): "e3a632ed64b9c3143a456edf8ac2e8145d345ea5b78ec9679a47870cf94c6983",
    (5, "ltl greedy"): "bf81c98d3f2e6536c7b5b914c66a92a18236d8b6310fc0953854bb56c75571b6",
    (5, "ltl beam 4"): "edd3e265c45734047c474b40043674e8ed5c8a034f51f84cd1384d6eed824cf3",
    (5, "unchecked ltl beam 4"): "ce90635af9f3c5039e4f68f0d1a8516c24a3df880a5330684a60baab3fd7970a",
}


def test_decode_parity_on_benchmark_inputs(monkeypatch):
    import importlib
    from pathlib import Path

    from amparse import fileformats as ff

    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    lexicon = augment_closure(
        ff.parse_lexicon_text((bench / "demo.lexicon").read_text(encoding="utf-8"), name="demo")
    )
    wl = workloads.WORKLOADS["transition-peaked"]
    inputs = {seed: ff.parse_cost_text(wl.input_text(wl.make(seed, lexicon))) for seed in (3, 5)}
    # the second pass decodes with the guards the first pass left on the lexicon
    for _ in ("cold", "warm"):
        got = {(seed, name): _decode_digest(sentences, lexicon, system, beam, type_checked)
               for seed, sentences in inputs.items()
               for name, (system, beam, type_checked) in PARITY_DECODES.items()}
        assert got == DECODE_PARITY
