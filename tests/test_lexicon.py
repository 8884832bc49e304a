"""Lexicon bookkeeping: types, closure validation, synthetic augmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse.graphs import make_graph
from amparse.lexicon import (
    Lexicon,
    augment_closure,
    constants_of_type,
    validate_closure,
)
from amparse.trees import app, mod
from amparse.types import EMPTY_TYPE, parse_type


def test_demo_types(lex):
    assert lex.type_of("want") == parse_type("[o[s], s]")
    assert lex.type_of("sleep") == parse_type("[s]")
    assert lex.type_of("soundly") == parse_type("[m]")
    assert lex.type_of("writer") == parse_type("[]")


def test_omega_contains_realized_types(lex):
    for name in lex.constants:
        assert lex.type_of(name) in lex.omega


def test_constants_of_type_sorted(lex):
    assert constants_of_type(lex, parse_type("[]")) == ["writer"]
    assert constants_of_type(lex, parse_type("[s]")) == ["sleep"]
    with pytest.raises(KeyError):
        constants_of_type(lex, parse_type("[zz]"))


def test_raw_demo_lexicon_is_open(lex):
    report = validate_closure(lex)
    assert not report.ok
    assert any("[m, s]" in str(v) for v in report.violations)


@pytest.mark.parametrize("constants,omega,labels,violations", [
    (["want"], [], [app("o"), app("s")],
     ["assumption 2: request [s] of o in [o[s], s] missing from omega",
      "assumption 2: request [] of s in [o[s], s] missing from omega"]),
    (["writer"], [], [mod("m")], ["assumption 3: [m] missing from omega for MOD_m"]),
    (["sleep", "writer"], [EMPTY_TYPE], [], ["assumption 4: no APP_s label for source s"]),
    ([], [], [], ["assumption 2: request [] of the root missing from omega"]),
], ids=["requests", "mod-singleton", "app-label", "empty"])
def test_validate_closure_names_each_assumption(lex, constants, omega, labels, violations):
    lx = Lexicon({name: lex.constants[name] for name in constants}, frozenset(omega),
                 frozenset(labels))
    assert [str(v) for v in validate_closure(lx).violations] == violations
    assert validate_closure(augment_closure(lx)).ok


def test_lexicon_equality_compares_graphs_by_isomorphism():
    import dataclasses
    import pickle
    from pathlib import Path

    from amparse import fileformats as ff

    text = (Path(__file__).resolve().parent.parent / "perfbench" / "demo.lexicon").read_text(
        encoding="utf-8")
    first, second = (ff.parse_lexicon_text(text, name="demo") for _ in range(2))
    assert first.constants["want"] is not second.constants["want"]
    assert first == second and augment_closure(first) == augment_closure(second)
    assert pickle.loads(pickle.dumps(first)) == first
    want = first.constants["want"]
    a, lbl, b = min(want.edges)
    relabeled = dataclasses.replace(want, edges=want.edges - {(a, lbl, b)} | {(a, lbl + "x", b)})
    changed = Lexicon({**first.constants, "want": relabeled}, first.omega, first.labels, "demo")
    assert changed != first and first != changed
    assert dataclasses.replace(first, name="other") != first


COPY_SCRIPT = """
import dataclasses
from amparse.demo import demo_lexicon
from amparse.lexicon import Lexicon, augment_closure

lex = augment_closure(demo_lexicon())
for copy in (Lexicon(lex.constants, lex.omega, lex.labels, lex.name), dataclasses.replace(lex)):
    assert copy.omega is lex.omega and copy.labels is lex.labels
    assert repr(copy) == repr(lex)
"""


@pytest.mark.parametrize("hashseed", ["34", "113"])
def test_a_copy_keeps_the_inventories_it_is_given(closed_lex, src_env, hashseed):
    """A lexicon keeps a given omega and label set that already cover its
    types and ROOT and IGNORE.  A rebuilt frozenset may iterate in another
    order, as the closed demo lexicon's omega did under these hash seeds,
    and then a copy printed differently from its original."""
    import subprocess
    import sys

    assert Lexicon(closed_lex.constants, closed_lex.omega, closed_lex.labels).omega is closed_lex.omega
    subprocess.run([sys.executable, "-c", COPY_SCRIPT], env={**src_env, "PYTHONHASHSEED": hashseed},
                   check=True)


def test_augment_closes_and_is_idempotent(lex, closed_lex):
    assert validate_closure(closed_lex).ok
    again = augment_closure(closed_lex)
    assert again.constants.keys() == closed_lex.constants.keys()
    # every omega type now has a realizing constant
    for t in closed_lex.omega:
        assert constants_of_type(closed_lex, t)


def test_augment_adds_synthetic_names(lex, closed_lex):
    added = closed_lex.constants.keys() - lex.constants.keys()
    assert added and all(name.startswith("_synth_") for name in added)


def test_arc_labels_sorted(lex):
    assert [str(l) for l in lex.arc_labels] == ["APP_m", "APP_o", "APP_s", "MOD_m"]


def test_source_partition(lex):
    assert set(lex.app_sources()) >= {"s", "o"}
    assert lex.mod_sources() == ["m"]
    assert app("s") in lex.labels and mod("m") in lex.labels


@st.composite
def small_lexicons(draw):
    """Random lexicons over sources {a, b}; omega may exceed realized types."""
    source_pool = ["a", "b"]
    n_constants = draw(st.integers(1, 3))
    constants = {}
    for i in range(n_constants):
        srcs = draw(st.lists(st.sampled_from(source_pool), unique=True, max_size=2))
        nodes = [(f"c{i}", f"lbl{i}")] + [(f"c{i}{s}", None, s) for s in srcs]
        edges = [(f"c{i}", f"e{s}", f"c{i}{s}") for s in srcs]
        constants[f"k{i}"] = make_graph(nodes, edges, root=f"c{i}")
    extra = draw(st.sets(st.sampled_from(["[]", "[a]", "[b]", "[a, b]", "[a[b]]"])))
    omega = frozenset(parse_type(s) for s in extra)
    labels = frozenset(
        [app("a"), app("b")] + [mod(s) for s in draw(st.sets(st.sampled_from(source_pool)))]
    )
    return Lexicon(constants=constants, omega=omega, labels=labels, name="hyp")


@given(small_lexicons())
@settings(max_examples=60)
def test_random_lexicon_augment_closes(lx):
    closed = augment_closure(lx)
    assert validate_closure(closed).ok
    twice = augment_closure(closed)
    assert twice.constants.keys() == closed.constants.keys()
