"""Type algebra: construction, text form, requests, combine, apply sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse.trees import app, mod
from amparse.types import (
    EMPTY_TYPE,
    MAX_TYPE_DEPTH,
    InvalidType,
    Type,
    TypeSyntaxError,
    apply_set,
    make_type,
    parse_type,
    remove_node,
    request,
    serialize_type,
    type_combine,
)


# --- construction invariants -------------------------------------------------


def test_empty_type():
    assert EMPTY_TYPE.is_empty()
    assert serialize_type(EMPTY_TYPE) == "[]"


def test_rejects_cycle():
    with pytest.raises(InvalidType):
        Type(frozenset({"a", "b"}), frozenset({("a", "b"), ("b", "a")}))


def test_rejects_self_loop():
    with pytest.raises(InvalidType):
        Type(frozenset({"a"}), frozenset({("a", "a")}))


def test_rejects_dangling_edge():
    with pytest.raises(InvalidType):
        Type(frozenset({"a"}), frozenset({("a", "b")}))


def test_rejects_transitive_shortcut():
    # a->b->c plus the shortcut a->c is not reduced
    with pytest.raises(InvalidType):
        make_type([("a", "b"), ("b", "c"), ("a", "c")])


def test_rejects_bad_name():
    with pytest.raises(InvalidType):
        make_type(nodes=["S"])
    with pytest.raises(InvalidType):
        make_type(nodes=["1s"])


def test_structural_equality():
    t1 = make_type([("o", "s")])
    t2 = Type(frozenset({"o", "s"}), frozenset({("o", "s")}))
    assert t1 == t2 and hash(t1) == hash(t2)


PICKLE_SCRIPT = """
import pickle, sys
from amparse.types import parse_type

TEXTS = ("[]", "[s]", "[m, s]", "[o[s], s]", "[m, o[s], s]", "[m, o[s[m]], s[m]]")
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps([parse_type(t) for t in TEXTS]))
else:
    types = pickle.loads(sys.stdin.buffer.read())
    found = {parse_type(t): t for t in TEXTS}
    print(all(found.get(t) == text for t, text in zip(types, TEXTS)))
"""


def test_a_pickled_type_is_found_under_another_hash_seed():
    """Type caches its hash, which follows the process's string-hash seed;
    an unpickled Type must hash as a fresh one of the new process does."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import amparse

    src = str(Path(amparse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for hash_seed, mode in (("1", "dump"), ("2", "load")):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        runs.append(subprocess.run([sys.executable, "-c", PICKLE_SCRIPT, mode], env=env,
                                   input=runs[-1].stdout if runs else b"",
                                   capture_output=True, check=True))
    assert runs[1].stdout.decode().split() == ["True"]


# --- text form ---------------------------------------------------------------


def test_serialize_canonical_order():
    t = make_type([("o", "s")])
    assert serialize_type(t) == "[o[s], s]"
    assert serialize_type(make_type(nodes=["m", "s"])) == "[m, s]"


def test_parse_shorthand_equals_expanded():
    # mentioning the requested node only inside the request is the same DAG
    assert parse_type("[o[s]]") == parse_type("[s, o[s]]")


def test_parse_rejects_inconsistent_mentions():
    with pytest.raises(TypeSyntaxError):
        parse_type("[o[s], o]")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(TypeSyntaxError):
        parse_type("[s] x")


def test_parse_rejects_cycle_text():
    with pytest.raises(TypeSyntaxError):
        parse_type("[a[b[a]]]")


def _nested(depth: int) -> str:
    """The chain a0 -> a1 -> ... written as depth nested bracket levels."""
    return "".join(f"[a{i}" for i in range(depth)) + "]" * depth


def test_parse_accepts_nesting_up_to_the_bound():
    t = parse_type(_nested(MAX_TYPE_DEPTH))
    assert len(t.nodes) == MAX_TYPE_DEPTH and len(t.edges) == MAX_TYPE_DEPTH - 1
    assert parse_type(serialize_type(t)) == t


@pytest.mark.parametrize("depth", [MAX_TYPE_DEPTH + 1, 600, 5000])
def test_parse_rejects_nesting_beyond_the_bound(depth):
    with pytest.raises(TypeSyntaxError, match=f"deeper than {MAX_TYPE_DEPTH}"):
        parse_type(_nested(depth))


@st.composite
def reduced_dags(draw):
    """Random transitively reduced DAG over a small alphabet."""
    names = draw(st.lists(st.sampled_from("abcdefg"), unique=True, max_size=5))
    edges = set()
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if draw(st.booleans()):
                edges.add((a, b))
    # reduce: drop any edge that shortcuts a longer path
    def longer_path(x, y):
        stack = [z for (u, z) in edges if u == x and z != y]
        seen = set()
        while stack:
            z = stack.pop()
            if z == y:
                return True
            if z in seen:
                continue
            seen.add(z)
            stack.extend(w for (u, w) in edges if u == z)
        return False

    reduced = frozenset((a, b) for a, b in edges if not longer_path(a, b))
    return Type(frozenset(names), reduced)


@given(reduced_dags())
@settings(max_examples=150)
def test_serialize_parse_round_trip(t):
    assert parse_type(serialize_type(t)) == t


@given(reduced_dags())
@settings(max_examples=60)
def test_request_is_reachable_subdag(t):
    for name in t.nodes:
        r = request(t, name)
        assert name not in r.nodes
        assert r.nodes <= t.nodes
        for a, b in r.edges:
            assert (a, b) in t.edges


# --- combine -----------------------------------------------------------------


def test_app_combine_consumes_source():
    head = parse_type("[o[s], s]")
    # o requests [s]; plugging [] into o is ill-typed
    assert type_combine(app("o"), head, EMPTY_TYPE) is None
    assert type_combine(app("o"), head, parse_type("[s]")) == parse_type("[s]")


def test_app_requires_no_incoming():
    # s is requested by o, so s cannot be applied until o is gone
    head = parse_type("[o[s], s]")
    assert type_combine(app("s"), head, EMPTY_TYPE) is None
    after_o = type_combine(app("o"), head, parse_type("[s]"))
    assert type_combine(app("s"), after_o, EMPTY_TYPE) == EMPTY_TYPE


def test_app_missing_source():
    assert type_combine(app("x"), parse_type("[s]"), EMPTY_TYPE) is None


def test_mod_combine_keeps_head():
    head = parse_type("[s]")
    assert type_combine(mod("m"), head, parse_type("[m]")) == head
    assert type_combine(mod("m"), head, parse_type("[m, s]")) == head


def test_mod_rejects_new_sources():
    # modifier brings x which the head lacks
    assert type_combine(mod("m"), parse_type("[s]"), parse_type("[m, x]")) is None


def test_mod_rejects_requested_mod_source():
    arg = parse_type("[m[s], s]")  # m itself has a request
    assert type_combine(mod("m"), parse_type("[s]"), arg) is None


def test_mod_rejects_request_mismatch():
    head = parse_type("[o[s], s]")
    arg = parse_type("[m, o]")  # o empty here, o[s] in head
    assert type_combine(mod("m"), head, arg) is None


def test_combine_rejects_root_label():
    from amparse.trees import ROOT

    with pytest.raises(ValueError):
        type_combine(ROOT, EMPTY_TYPE, EMPTY_TYPE)


# --- apply sets --------------------------------------------------------------


def brute_force_apply_set(lex, term):
    """Search over all application orders; None when term is unreachable."""
    seen = {lex}
    frontier = [lex]
    while frontier:
        t = frontier.pop()
        if t == term:
            return frozenset(lex.nodes - term.nodes)
        for name in t.nodes:
            if not t.has_incoming(name):
                nxt = remove_node(t, name)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return None


@given(reduced_dags(), st.data())
@settings(max_examples=120)
def test_apply_set_matches_order_search(lex, data):
    keep = data.draw(st.sets(st.sampled_from(sorted(lex.nodes)))) if lex.nodes else set()
    nodes = frozenset(keep)
    term = Type(nodes, frozenset((a, b) for a, b in lex.edges if a in nodes and b in nodes))
    assert apply_set(lex, term) == brute_force_apply_set(lex, term)


def test_apply_set_examples():
    lex = parse_type("[o[s], s]")
    assert apply_set(lex, lex) == frozenset()
    assert apply_set(lex, parse_type("[s]")) == frozenset({"o"})
    assert apply_set(lex, EMPTY_TYPE) == frozenset({"o", "s"})
    # keeping o but dropping s breaks o's request edge
    assert apply_set(lex, parse_type("[o]")) is None
