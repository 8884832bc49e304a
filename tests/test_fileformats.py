"""Text formats: canonical writers, parsers, round-trips, error reporting."""

import hashlib
import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amparse import fileformats as ff
from amparse.costs import SentenceCosts, gen_synthetic
from amparse.graphs import graphs_isomorphic, make_graph
from amparse.lexicon import Lexicon, augment_closure
from amparse.trees import IGNORE, LABELS, ROOT, AmDepTree, TreeEntry, app, mod
from amparse.types import parse_type

ROOT_DIR = Path(__file__).resolve().parent.parent


def test_lexicon_round_trip(lex):
    text = ff.write_lexicon_text(lex)
    back = ff.parse_lexicon_text(text, name=lex.name)
    assert back.constants.keys() == lex.constants.keys()
    assert back.omega == lex.omega
    assert back.labels == lex.labels
    for name in lex.constants:
        assert graphs_isomorphic(back.constants[name], lex.constants[name])
    # canonical writer is a fixpoint
    assert ff.write_lexicon_text(back) == text


def test_augmented_lexicon_round_trip(closed_lex):
    back = ff.parse_lexicon_text(ff.write_lexicon_text(closed_lex))
    assert back.constants.keys() == closed_lex.constants.keys()
    assert back.omega == closed_lex.omega


def test_lexicon_app_labels_are_derived(lex):
    # the file format carries mod labels explicitly; app labels come from
    # the source names mentioned anywhere in constants or omega
    back = ff.parse_lexicon_text(ff.write_lexicon_text(lex))
    assert app("s") in back.labels
    assert app("o") in back.labels
    assert app("m") in back.labels
    assert mod("m") in back.labels
    assert mod("s") not in back.labels


def test_graph_round_trip(expected_graph):
    text = ff.write_graph_text(expected_graph, name="result")
    assert text.startswith("constant result\n")
    back = ff.parse_graph_text(text)
    assert graphs_isomorphic(back, expected_graph)


def test_cost_round_trip_exact(lex):
    sentences = [gen_synthetic(s, 3 + s % 3, lex, sid=f"s{s}") for s in range(4)]
    text = ff.write_cost_text(sentences)
    back = ff.parse_cost_text(text)
    assert len(back) == len(sentences)
    for a, b in zip(sentences, back):
        # repr round-trips floats exactly
        assert a.n == b.n and a.sid == b.sid and a.forms == b.forms
        assert a.tag_cost == b.tag_cost and a.edge_cost == b.edge_cost


def test_trees_round_trip_with_markers(gold):
    text = ff.write_trees_text([gold, "s7 NO-PARSE", gold])
    assert "# s7 NO-PARSE" in text
    back = ff.parse_trees_text(text)
    assert back == [gold, gold]


def test_trees_reader_shares_equal_texts(gold):
    # multi-character texts: CPython shares one-character strings anyway
    chain = "1\tword\twriter\t0\tROOT\n2\tword\tsoundly\t1\tMOD_m\n3\tword\tsoundly\t2\tMOD_m\n"
    text = ff.write_trees_text([gold]) + "\n" + chain + "\n" + chain
    trees = ff.parse_trees_text(text)
    assert ff.write_trees_text(trees) == text and trees[0] == gold
    entries = [e for tree in trees[1:] for e in tree.entries]
    assert len({id(e.form) for e in entries}) == 1
    assert len({id(e.constant) for e in entries if e.constant == "soundly"}) == 1
    assert trees[1].entries[0].constant is trees[2].entries[0].constant
    # one entry per distinct (position, line) in a call; the same text at
    # another position is another line, so it is read and checked there
    assert all(a is b for a, b in zip(trees[1].entries, trees[2].entries, strict=True))
    assert trees[1].entries[1] is not trees[1].entries[2]
    assert ff.parse_trees_text(chain)[0].entries[0] is not trees[1].entries[0]
    with pytest.raises(ff.FormatError, match="expected index 1"):
        ff.parse_trees_text(chain + "\n" + chain.split("\n", 1)[1])


def test_lexicon_error_carries_line_number():
    bad = "constant x\nnode a lbl\nroot a\nfrobnicate y\nend\n"
    with pytest.raises(ff.FormatError) as exc:
        ff.parse_lexicon_text(bad)
    assert exc.value.line == 4


def test_lexicon_rejects_duplicate_constant():
    bad = (
        "constant x\nnode a lbl\nroot a\nend\n"
        "constant x\nnode a lbl\nroot a\nend\n"
    )
    with pytest.raises(ff.FormatError):
        ff.parse_lexicon_text(bad)


def test_lexicon_source_request_syntax():
    text = (
        "constant x\nnode a lbl\nnode b _\nroot a\n"
        "source b o request [s]\nedge a ARG1 b\nend\n"
        "omega [s]\n"
    )
    lx = ff.parse_lexicon_text(text)
    assert lx.type_of("x") == parse_type("[o[s]]")


def test_cost_rejects_duplicate_entries():
    bad = "sentence s0 2\ntag 1 writer 0.5\ntag 1 writer 0.7\nend\n"
    with pytest.raises(ff.FormatError):
        ff.parse_cost_text(bad)


def test_cost_rejects_out_of_range_token():
    bad = "sentence s0 2\ntag 3 writer 0.5\nend\n"
    with pytest.raises(ff.FormatError) as exc:
        ff.parse_cost_text(bad)
    assert exc.value.line == 2


def test_cost_comments_and_blank_lines_ignored(lex):
    c = gen_synthetic(0, 2, lex)
    text = "# header\n\n" + ff.write_cost_text([c]) + "\n# trailer\n"
    assert ff.parse_cost_text(text)[0].tag_cost == c.tag_cost


def test_tree_rejects_wrong_index_column():
    bad = "1\ta\twriter\t0\tROOT\n3\tb\tBOT\t0\tIGNORE\n"
    with pytest.raises(ff.FormatError) as exc:
        ff.parse_trees_text(bad)
    assert exc.value.line == 2


def test_tree_rejects_short_row():
    with pytest.raises(ff.FormatError):
        ff.parse_trees_text("1\ta\twriter\t0\n")


def test_graph_text_rejects_trailing_blocks(expected_graph):
    text = ff.write_graph_text(expected_graph)
    with pytest.raises(ff.FormatError):
        ff.parse_graph_text(text + "\n" + text)


# --- writers: a field that would not read back as written is refused --------

# (id, sid, forms, tag constant, the ValueError's text up to the rule)
COST_WRITER_FAULTS = [
    ("sid-empty", "", ("a",), "writer", "cannot write sentence id ''"),
    ("sid-space", "s 0", ("a",), "writer", "cannot write sentence id 's 0'"),
    ("sid-tab", "s\t0", ("a",), "writer", "cannot write sentence id 's\\t0'"),
    ("sid-hash", "s#0", ("a",), "writer", "cannot write sentence id 's#0'"),
    ("form-empty", "s0", ("a", ""), "writer", "cannot write form 2 ''"),
    ("form-leading-space", "s0", (" a",), "writer", "cannot write form 1 ' a'"),
    ("form-trailing-tab", "s0", ("a\t",), "writer", "cannot write form 1 'a\\t'"),
    ("form-hash", "s0", ("a#b",), "writer", "cannot write form 1 'a#b'"),
    ("form-newline", "s0", ("a\nb",), "writer", "cannot write form 1 'a\\nb'"),
    ("form-line-separator", "s0", ("a\u2028b",), "writer", "cannot write form 1 'a\\u2028b'"),
    ("tag-empty", "s0", ("a",), "", "cannot write tag constant ''"),
    ("tag-space", "s0", ("a",), "big dog", "cannot write tag constant 'big dog'"),
    ("tag-hash", "s0", ("a",), "dog#1", "cannot write tag constant 'dog#1'"),
]


@pytest.mark.parametrize("sid,forms,constant,message", [row[1:] for row in COST_WRITER_FAULTS],
                         ids=[row[0] for row in COST_WRITER_FAULTS])
def test_cost_writer_refuses_what_would_not_read_back(sid, forms, constant, message):
    c = SentenceCosts(len(forms), forms, {(1, constant): 0.5}, {}, sid=sid)
    with pytest.raises(ValueError) as exc:
        ff.write_cost_text([c])
    assert str(exc.value).startswith(message + ": ")


def test_cost_writer_keeps_inner_whitespace_and_any_other_character():
    c = SentenceCosts(3, ("New  York", "a\tb", "\u00e9!"), {(1, "BOT"): 0.5}, {}, sid="s-1.\u00e9")
    back = ff.parse_cost_text(ff.write_cost_text([c]))
    assert [(b.sid, b.forms, b.tag_cost) for b in back] == [(c.sid, c.forms, c.tag_cost)]


# (id, form, constant, the ValueError's text up to the rule)
TREE_WRITER_FAULTS = [
    ("form-tab", "a\tb", "writer", "cannot write form 'a\\tb'"),
    ("form-hash", "a#b", "writer", "cannot write form 'a#b'"),
    ("form-newline", "a\nb", "writer", "cannot write form 'a\\nb'"),
    ("form-carriage-return", "a\rb", "writer", "cannot write form 'a\\rb'"),
    ("constant-tab", "a", "wri\tter", "cannot write constant 'wri\\tter'"),
    ("constant-hash", "a", "writer#2", "cannot write constant 'writer#2'"),
    ("constant-paragraph-separator", "a", "wri\u2029ter", "cannot write constant 'wri\\u2029ter'"),
]


@pytest.mark.parametrize("form,constant,message", [row[1:] for row in TREE_WRITER_FAULTS],
                         ids=[row[0] for row in TREE_WRITER_FAULTS])
def test_tree_writer_refuses_what_would_not_read_back(form, constant, message):
    tree = AmDepTree((TreeEntry(form, constant, 0, ROOT),))
    with pytest.raises(ValueError) as exc:
        ff.write_trees_text([tree])
    assert str(exc.value).startswith(message + ": ")


@pytest.mark.parametrize("marker", ["a\nb", "a\rb", "a\x0cb", "a\u2028b"])
def test_tree_writer_refuses_a_marker_with_a_line_break(marker):
    with pytest.raises(ValueError) as exc:
        ff.write_trees_text([marker])
    assert str(exc.value) == f"cannot write marker {marker!r}: it must hold no line break"


def test_tree_writer_keeps_spaces_and_empty_columns():
    tree = AmDepTree((TreeEntry(" New York ", "big writer", 0, ROOT),
                      TreeEntry("", "BOT", 0, IGNORE)))
    assert ff.parse_trees_text(ff.write_trees_text([tree])) == [tree]


# (id, constant name, node id, node label, edge label, the ValueError's text up to the rule)
GRAPH_WRITER_FAULTS = [
    ("name-empty", "", "b", "dog", "ARG0", "cannot write constant name ''"),
    ("name-space", "x y", "b", "dog", "ARG0", "cannot write constant name 'x y'"),
    ("name-hash", "x#", "b", "dog", "ARG0", "cannot write constant name 'x#'"),
    ("node-id-empty", "x", "", "dog", "ARG0", "cannot write node id ''"),
    ("node-id-space", "x", "b 1", "dog", "ARG0", "cannot write node id 'b 1'"),
    ("node-id-hash", "x", "b#1", "dog", "ARG0", "cannot write node id 'b#1'"),
    ("label-empty", "x", "b", "", "ARG0", "cannot write node label ''"),
    ("label-space", "x", "b", "big dog", "ARG0", "cannot write node label 'big dog'"),
    ("label-hash", "x", "b", "dog#", "ARG0", "cannot write node label 'dog#'"),
    ("label-placeholder", "x", "b", "_", "ARG0", "cannot write node label '_' of node 'b'"),
    ("edge-label-empty", "x", "b", "dog", "", "cannot write edge label ''"),
    ("edge-label-space", "x", "b", "dog", "ARG 0", "cannot write edge label 'ARG 0'"),
    ("edge-label-hash", "x", "b", "dog", "ARG#0", "cannot write edge label 'ARG#0'"),
]


@pytest.mark.parametrize("name,node_id,label,edge_label,message",
                         [row[1:] for row in GRAPH_WRITER_FAULTS],
                         ids=[row[0] for row in GRAPH_WRITER_FAULTS])
def test_graph_and_lexicon_writers_refuse_what_would_not_read_back(
        name, node_id, label, edge_label, message):
    g = make_graph([("a", "want"), (node_id, label)], [("a", edge_label, node_id)], root="a")
    for write in (lambda: ff.write_graph_text(g, name=name),
                  lambda: ff.write_lexicon_text(Lexicon({name: g}, frozenset(), frozenset()))):
        with pytest.raises(ValueError) as exc:
            write()
        assert str(exc.value).startswith(message + ": ")


# --- lexicon, graph and tree files: every fault, where and how ---------------

_BLOCK = "constant x\nnode a lbl\n"
_ROOT_ROW = "1\tw1\twriter\t0\tROOT\n"

# (id, reader, text, FormatError.line, str(FormatError))
FILE_FAULTS = [
    ("constant-nested", "lexicon", _BLOCK + "constant y\n", 3,
     "line 3: constant block opened inside another block"),
    ("constant-fields", "lexicon", "constant\n", 1, "line 1: expected: constant <name>"),
    ("constant-duplicate", "lexicon", _BLOCK + "root a\nend\n" + _BLOCK + "root a\nend\n", 5,
     "line 5: duplicate constant x"),
    ("node-outside", "lexicon", "node a lbl\n", 1, "line 1: node line outside a constant block"),
    ("end-outside", "lexicon", _BLOCK + "root a\nend\nend\n", 5,
     "line 5: end line outside a constant block"),
    ("node-fields", "lexicon", "constant x\nnode a\n", 2, "line 2: expected: node <id> <label|_>"),
    ("node-duplicate", "lexicon", _BLOCK + "node a _\n", 3, "line 3: duplicate node id a"),
    ("root-undeclared", "lexicon", _BLOCK + "root b\n", 3, "line 3: root must name a declared node"),
    ("root-fields", "lexicon", _BLOCK + "root\n", 3, "line 3: root must name a declared node"),
    ("source-fields", "lexicon", _BLOCK + "source a\n", 3,
     "line 3: expected: source <id> <name> [request <type>]"),
    ("source-undeclared", "lexicon", _BLOCK + "source b s\n", 3,
     "line 3: expected: source <id> <name> [request <type>]"),
    ("source-name", "lexicon", _BLOCK + "root a\nnode a1 _\nsource a1 S\nend\n", 5,
     "line 5: bad source name 'S'"),
    ("source-request-keyword", "lexicon", _BLOCK + "node b _\nsource b s req [o]\n", 4,
     "line 4: expected 'request' before the type"),
    ("source-request-syntax", "lexicon", _BLOCK + "node b _\nsource b s request [o\n", 4,
     "line 4: expected ']' at offset 2 in '[o'"),
    ("root-again", "lexicon", _BLOCK + "node b _\nedge a ARG0 b\nroot a\nroot b\nend\n", 6,
     "line 6: duplicate root line"),
    ("source-again", "lexicon", _BLOCK + "node a1 _\nroot a\nedge a ARG0 a1\nsource a1 s\n"
     "source a1 o\nend\n", 7, "line 7: duplicate source line for node a1"),
    ("edge-fields", "lexicon", _BLOCK + "edge a ARG0\n", 3, "line 3: expected: edge <from> <label> <to>"),
    ("edge-undeclared", "lexicon", _BLOCK + "edge a ARG0 b\n", 3,
     "line 3: edge endpoints must be declared nodes"),
    # checks made when the block closes, reported at its `end` line
    ("no-root", "lexicon", _BLOCK + "end\n", 3, "line 3: constant x: no root line"),
    ("disconnected", "lexicon", _BLOCK + "node b _\nroot a\nend\n", 5,
     "line 5: constant x: graph must be weakly connected"),
    ("source-twice", "lexicon", _BLOCK + "node b _\nnode c _\nroot a\nedge a ARG0 b\n"
     "edge a ARG1 c\nsource b s\nsource c s\nend\n", 10,
     "line 10: constant x: source names must be unique across the graph"),
    ("request-cycle", "lexicon", _BLOCK + "node b _\nnode c _\nroot a\nedge a ARG0 b\n"
     "edge a ARG1 c\nsource b s request [o]\nsource c o request [s]\nend\n", 10,
     "line 10: constant x: inconsistent request annotations: cyclic request structure"),
    ("missing-end", "lexicon", "# head\n" + _BLOCK + "root a\n", 2, "line 2: constant x: missing end"),
    ("omega-syntax", "lexicon", "omega [s\n", 1, "line 1: expected ']' at offset 2 in '[s'"),
    ("modlabel-fields", "lexicon", "modlabel m n\n", 1, "line 1: expected: modlabel <source>"),
    ("modlabel-name", "lexicon", "modlabel Big\n", 1, "line 1: bad source name 'Big'"),
    ("unknown-directive", "lexicon", "frobnicate\n", 1, "line 1: unknown directive 'frobnicate'"),
    ("no-block", "graph", "# nothing\n", 0, "line 0: expected exactly one graph block, got 0"),
    ("two-blocks", "graph", _BLOCK + "root a\nend\nconstant y\nnode a lbl\nroot a\nend\n", 0,
     "line 0: expected exactly one graph block, got 2"),
    ("columns", "trees", "1\tw1\twriter\t0\n", 1, "line 1: expected 5 tab-separated columns, got 4"),
    ("index", "trees", "2\tw1\twriter\t0\tROOT\n", 1, "line 1: expected index 1, got '2'"),
    ("head-int", "trees", "1\tw1\twriter\tzero\tROOT\n", 1,
     "line 1: expected an integer head, got 'zero'"),
    ("label", "trees", "1\tw1\twriter\t0\troot\n", 1, "line 1: bad edge label 'root'"),
    ("label-source", "trees", _ROOT_ROW + "2\tw2\tsoundly\t1\tMOD_\n", 2,
     "line 2: mod label needs a source name"),
    ("label-source-name", "trees", _ROOT_ROW + "2\tw2\tsoundly\t1\tMOD_M\n", 2,
     "line 2: bad source name 'M'"),
    # tree checks, reported at the line that closes the block
    ("head-range", "trees", _ROOT_ROW + "2\tw2\tsoundly\t3\tMOD_m\n", 2,
     "line 2: token 2: head 3 out of range"),
    ("self-headed", "trees", _ROOT_ROW + "2\tw2\tsoundly\t2\tMOD_m\n", 2,
     "line 2: token 2: self-headed"),
    ("root-head", "trees", _ROOT_ROW + "2\tw2\twriter\t1\tROOT\n", 2,
     "line 2: token 2: ROOT label with head 1"),
    ("root-bottom", "trees", "1\tw1\tBOT\t0\tROOT\n", 1, "line 1: token 1: ROOT token cannot be BOT"),
    ("ignore-head", "trees", _ROOT_ROW + "2\tw2\tBOT\t1\tIGNORE\n", 2,
     "line 2: token 2: IGNORE label with head 1"),
    ("ignore-constant", "trees", _ROOT_ROW + "2\tw2\tsoundly\t0\tIGNORE\n", 2,
     "line 2: token 2: IGNORE requires constant BOT"),
    ("edge-from-root", "trees", _ROOT_ROW + "2\tw2\tsoundly\t0\tMOD_m\n", 2,
     "line 2: token 2: MOD_m edge cannot come from 0"),
    ("attached-bottom", "trees", _ROOT_ROW + "2\tw2\tBOT\t1\tMOD_m\n", 2,
     "line 2: token 2: attached token cannot be BOT"),
    ("no-root-edge", "trees", "1\tw1\tBOT\t0\tIGNORE\n", 1,
     "line 1: expected exactly one ROOT edge, found 0"),
    ("two-root-edges", "trees", _ROOT_ROW + "2\tw2\twriter\t0\tROOT\n", 2,
     "line 2: expected exactly one ROOT edge, found 2"),
    ("ignored-head", "trees", _ROOT_ROW + "2\tw2\tBOT\t0\tIGNORE\n3\tw3\tsoundly\t2\tMOD_m\n", 3,
     "line 3: token 3: head 2 is an ignored token"),
    ("cycle", "trees", _ROOT_ROW + "2\tw2\tsoundly\t3\tMOD_m\n3\tw3\tsoundly\t2\tMOD_m\n", 3,
     "line 3: head cycle through token 2"),
    ("first-block", "trees", _ROOT_ROW + "2\tw2\tsoundly\t2\tMOD_m\n\n" + _ROOT_ROW, 3,
     "line 3: token 2: self-headed"),
    ("second-block", "trees", _ROOT_ROW + "\n" + _ROOT_ROW + "2\tw2\tsoundly\t2\tMOD_m\n", 4,
     "line 4: token 2: self-headed"),
]

_READERS = {"lexicon": ff.parse_lexicon_text, "graph": ff.parse_graph_text,
            "trees": ff.parse_trees_text}


@pytest.mark.parametrize(
    "reader,text,line,message", [row[1:] for row in FILE_FAULTS], ids=[row[0] for row in FILE_FAULTS]
)
def test_file_fault_table(reader, text, line, message):
    with pytest.raises(ff.FormatError) as exc:
        _READERS[reader](text)
    assert exc.value.line == line
    assert str(exc.value) == message


# --- cost files: every fault, where it is reported and how -------------------

_HEAD = "sentence s0 2\n"

# (id, text, FormatError.line, str(FormatError))
COST_FAULTS = [
    ("sentence-fields", "sentence s0\nend\n", 1, "line 1: expected: sentence <id> <n>"),
    ("sentence-n", "sentence s0 two\nend\n", 1, "line 1: n must be an integer"),
    ("sentence-nested", _HEAD + "sentence s1 2\nend\n", 2,
     "line 2: sentence block opened inside another block"),
    ("sentence-empty", "sentence s0 0\nend\n", 2, "line 2: a sentence has at least one token"),
    ("missing-end", "# head\n" + _HEAD + "tag 1 writer 0.5\n", 2,
     "line 2: sentence block missing end"),
    ("outside-block", "tag 1 writer 0.5\n", 1, "line 1: tag line outside a sentence block"),
    ("outside-end", _HEAD + "end\nend\n", 3, "line 3: end line outside a sentence block"),
    ("outside-unknown", "frobnicate 1\n", 1, "line 1: frobnicate line outside a sentence block"),
    ("unknown-directive", _HEAD + "frobnicate 1\nend\n", 2, "line 2: unknown directive 'frobnicate'"),
    ("form-fields", _HEAD + "form 1\nend\n", 2, "line 2: expected: form <i> <string>"),
    ("form-index-int", _HEAD + "form one The\nend\n", 2, "line 2: expected an integer, got 'one'"),
    ("form-index-range", _HEAD + "form 3 The\nend\n", 2, "line 2: index 3 out of range 1..2"),
    ("form-duplicate", _HEAD + "form 1 The\nform 1 A\nend\n", 3,
     "line 3: duplicate form entry 1"),
    ("tag-fields", _HEAD + "tag 1 writer\nend\n", 2,
     "line 2: expected: tag <i> <constant|BOT> <cost>"),
    ("tag-fields-long", _HEAD + "tag 1 writer 0.5 0.5\nend\n", 2,
     "line 2: expected: tag <i> <constant|BOT> <cost>"),
    ("tag-index-int", _HEAD + "tag 1.0 writer 0.5\nend\n", 2, "line 2: expected an integer, got '1.0'"),
    ("tag-index-range", _HEAD + "tag 0 writer 0.5\nend\n", 2, "line 2: index 0 out of range 1..2"),
    ("tag-index-before-cost", _HEAD + "tag 9 writer cheap\nend\n", 2,
     "line 2: index 9 out of range 1..2"),
    ("tag-cost", _HEAD + "tag 1 writer cheap\nend\n", 2, "line 2: expected a cost, got 'cheap'"),
    ("tag-duplicate", _HEAD + "tag 1 writer 0.5\ntag 01 writer 0.7\nend\n", 3,
     "line 3: duplicate tag entry (1, 'writer')"),
    ("tag-duplicate-bad-cost", _HEAD + "tag 1 writer 0.5\ntag 1 writer cheap\nend\n", 3,
     "line 3: duplicate tag entry (1, 'writer')"),
    ("edge-fields", _HEAD + "edge 1 2 APP_s\nend\n", 2,
     "line 2: expected: edge <o> <j> <label> <cost>"),
    ("edge-fields-before-index", _HEAD + "edge x 2 APP_s 0.5 0.5\nend\n", 2,
     "line 2: expected: edge <o> <j> <label> <cost>"),
    ("edge-origin-int", _HEAD + "edge x 2 APP_s 0.5\nend\n", 2, "line 2: expected an integer, got 'x'"),
    ("edge-origin-range", _HEAD + "edge 3 y APP_s 0.5\nend\n", 2, "line 2: index 3 out of range 0..2"),
    ("edge-target-int", _HEAD + "edge 1 y APP_s 0.5\nend\n", 2, "line 2: expected an integer, got 'y'"),
    ("edge-target-range", _HEAD + "edge 1 0 APP_s 0.5\nend\n", 2, "line 2: index 0 out of range 1..2"),
    ("edge-label", _HEAD + "edge 1 2 ARG0 0.5\nend\n", 2, "line 2: bad edge label 'ARG0'"),
    ("edge-label-case", _HEAD + "edge 0 2 root 0.5\nend\n", 2, "line 2: bad edge label 'root'"),
    ("edge-app-no-source", _HEAD + "edge 1 2 APP_ 0.5\nend\n", 2,
     "line 2: app label needs a source name"),
    ("edge-mod-no-source", _HEAD + "edge 1 2 MOD_ 0.5\nend\n", 2,
     "line 2: mod label needs a source name"),
    ("edge-source-name", _HEAD + "edge 1 2 APP_S 0.5\nend\n", 2, "line 2: bad source name 'S'"),
    ("edge-label-before-cost", _HEAD + "edge 1 2 APP_ cheap\nend\n", 2,
     "line 2: app label needs a source name"),
    ("edge-cost", _HEAD + "edge 1 2 APP_s cheap\nend\n", 2, "line 2: expected a cost, got 'cheap'"),
    ("edge-duplicate", _HEAD + "edge 1 2 APP_s 0.5\nedge 1 2 APP_s 0.7\nend\n", 3,
     "line 3: duplicate edge entry (1, 2, EdgeLabel('APP_s'))"),
    ("edge-duplicate-bad-cost", _HEAD + "edge 0 2 ROOT 0.5\nedge 0 2 ROOT cheap\nend\n", 3,
     "line 3: duplicate edge entry (0, 2, EdgeLabel('ROOT'))"),
    # checks made when the block closes, reported at its `end` line
    ("tag-cost-negative", _HEAD + "tag 1 writer -0.5\nend\n", 3,
     "line 3: costs are nonnegative finite, got -0.5"),
    ("tag-cost-nan", _HEAD + "tag 1 writer nan\nend\n", 3, "line 3: costs are nonnegative finite, got nan"),
    ("edge-cost-inf", _HEAD + "edge 1 2 APP_s inf\nend\n", 3,
     "line 3: costs are nonnegative finite, got inf"),
    ("edge-cost-overflow", _HEAD + "edge 1 2 APP_s 1e999\nend\n", 3,
     "line 3: costs are nonnegative finite, got inf"),
    ("root-origin", _HEAD + "edge 1 2 ROOT 0.5\nend\n", 3, "line 3: ROOT edges originate at 0, got 1"),
    ("ignore-origin", _HEAD + "edge 2 1 IGNORE 0.5\nend\n", 3,
     "line 3: IGNORE edges originate at 0, got 2"),
    ("app-from-root", _HEAD + "edge 0 1 APP_s 0.5\nend\n", 3, "line 3: bad edge origin 0 for APP_s into 1"),
    ("self-edge", _HEAD + "edge 2 2 MOD_m 0.5\nend\n", 3, "line 3: bad edge origin 2 for MOD_m into 2"),
    ("cost-before-origin", _HEAD + "edge 1 2 ROOT -1\nend\n", 3,
     "line 3: costs are nonnegative finite, got -1.0"),
    ("tags-before-edges", _HEAD + "edge 1 2 ROOT 0.5\ntag 2 BOT -1\nend\n", 4,
     "line 4: costs are nonnegative finite, got -1.0"),
    ("first-edge-reported", _HEAD + "edge 2 1 APP_s inf\nedge 1 2 ROOT 0.5\nend\n", 4,
     "line 4: costs are nonnegative finite, got inf"),
    ("second-block", _HEAD + "end\n" + _HEAD + "tag 2 BOT 1\nedge 1 1 APP_s 0\nend\n", 6,
     "line 6: bad edge origin 1 for APP_s into 1"),
]


@pytest.mark.parametrize(
    "text,line,message", [row[1:] for row in COST_FAULTS], ids=[row[0] for row in COST_FAULTS]
)
def test_cost_fault_table(text, line, message):
    with pytest.raises(ff.FormatError) as exc:
        ff.parse_cost_text(text)
    assert exc.value.line == line
    assert str(exc.value) == message


# (id, text, expected sentences as (sid, n, forms, tag_cost, edge_cost))
COST_ACCEPTED = [
    ("crlf", "sentence s0 2\r\nform 1 The\r\ntag 1 writer 0.5\r\nedge 0 1 ROOT 1\r\nend\r\n",
     [("s0", 2, ("The", "w2"), {(1, "writer"): 0.5}, {(0, 1, ROOT): 1.0})]),
    ("tabs", "sentence\ts0\t2\nform\t2\tsoundly\ntag\t2\tBOT\t0\nedge\t1\t2\tMOD_m\t0.25\nend\n",
     [("s0", 2, ("w1", "soundly"), {(2, "BOT"): 0.0}, {(1, 2, mod("m")): 0.25})]),
    ("comments", "# header\nsentence s0 1 # one token\n  tag 1 sleep 2.5#cheap\n\nend # done\n",
     [("s0", 1, ("w1",), {(1, "sleep"): 2.5}, {})]),
    ("form-inner-spaces", "sentence s0 2\n  form 1  New  York \t\nform 2 a\tb\nend\n",
     [("s0", 2, ("New  York", "a\tb"), {}, {})]),
    ("order-and-zero", _HEAD + "edge 2 1 APP_o 0\nedge 0 2 IGNORE -0.0\nedge 1 2 APP_s 1e-3\n"
     "tag 2 want 3\ntag 1 want 1\nend\nsentence s1 1\nend\n",
     [("s0", 2, ("w1", "w2"), {(2, "want"): 3.0, (1, "want"): 1.0},
       {(2, 1, app("o")): 0.0, (0, 2, IGNORE): -0.0, (1, 2, app("s")): 0.001}),
      ("s1", 1, ("w1",), {}, {})]),
]


@pytest.mark.parametrize(
    "text,expected", [row[1:] for row in COST_ACCEPTED], ids=[row[0] for row in COST_ACCEPTED]
)
def test_cost_accepted_table(text, expected):
    got = ff.parse_cost_text(text)
    assert [
        (c.sid, c.n, c.forms, c.tag_cost, list(c.tag_cost), c.edge_cost, list(c.edge_cost))
        for c in got
    ] == [(sid, n, forms, tags, list(tags), edges, list(edges))
          for sid, n, forms, tags, edges in expected]
    for c in got:
        assert all(type(v) is float for v in (*c.tag_cost.values(), *c.edge_cost.values()))


def _cost_digest(sentences) -> str:
    """sid, n, forms, then every tag and edge item in insertion order, with
    float reprs: two reads that agree here agree on every lookup and order."""
    h = hashlib.sha256()
    for c in sentences:
        h.update(f"{c.sid!r} {c.n} {c.forms!r}\n".encode())
        for (i, g), v in c.tag_cost.items():
            h.update(f"tag {i} {g} {v!r}\n".encode())
        for (o, j, lbl), v in c.edge_cost.items():
            h.update(f"edge {o} {j} {lbl} {v!r}\n".encode())
    return h.hexdigest()


# sha256 digests of parse_cost_text on the benchmark's input texts, taken
# with the (o, j, EdgeLabel)-keyed reader that preceded the integer-keyed one.
COST_PARITY = {
    ("chart-uniform", 3): "a2b9542be776dbe5a944e50047009eb1e95c46e30415ac2140f4ca3e16163e13",
    ("chart-uniform", 5): "be7118d8eb258c8a3e8ef03ca25a0c6ef445755639a4992598f59382e049211c",
    ("astar-peaked", 3): "64f726137b936c7063cd81c07c06090435efcbeebaa23451c904098a485c2be4",
    ("astar-peaked", 5): "afac07da7a42c292f1ea9bf814d98401f172c635f81fe000fbbafd793469346a",
    ("transition-peaked", 3): "a8f0268b6567c236b118fd33cce5811a011e3dab4dc42b4a6d8bf8edc6e25774",
    ("transition-peaked", 5): "58e97bcf774590b83f6bcbde60c7365c297d81c01553897859a912e5fa831d12",
}


def test_cost_reader_parity_on_benchmark_inputs(monkeypatch):
    bench = ROOT_DIR / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    lexicon = augment_closure(
        ff.parse_lexicon_text((bench / "demo.lexicon").read_text(encoding="utf-8"), name="demo")
    )
    got = {}
    for name, seed in COST_PARITY:
        wl = workloads.WORKLOADS[name]
        got[name, seed] = _cost_digest(ff.parse_cost_text(wl.input_text(wl.make(seed, lexicon))))
    assert got == COST_PARITY


# --- the column reader against the line reader ---------------------------------


def _outcome(read, text):
    """The digest of what read returns, or the FormatError's line and text."""
    try:
        return _cost_digest(read(text))
    except ff.FormatError as e:
        return e.line, str(e)


@pytest.mark.parametrize("n", range(1, 13))
def test_column_reader_reads_the_writers_output(lex, n):
    text = ff.write_cost_text([gen_synthetic(n, n, lex, sid=f"s{n}"), gen_synthetic(0, 1, lex)])
    got = ff._read_columns(text)
    assert got is not None and _cost_digest(got) == _cost_digest(ff._read_lines(text))


def test_column_reader_reads_the_benchmark_inputs(monkeypatch):
    bench = ROOT_DIR / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    lexicon = augment_closure(
        ff.parse_lexicon_text((bench / "demo.lexicon").read_text(encoding="utf-8"), name="demo")
    )
    got = {}
    for name, seed in COST_PARITY:
        wl = workloads.WORKLOADS[name]
        sentences = ff._read_columns(wl.input_text(wl.make(seed, lexicon)))
        got[name, seed] = sentences and _cost_digest(sentences)
    assert got == COST_PARITY


def _first_line_twice(text: str, keyword: str) -> str:
    start = text.index(f"\n{keyword} ") + 1
    return text[:start] + text[start:text.index("\n", start) + 1] + text[start:]


@pytest.mark.parametrize("edit,message", [
    (lambda t: t.replace("sentence b 2\n", "sentence b 2 x\n"), "expected: sentence <id> <n>"),
    (lambda t: t.replace("sentence b 2\n", "sentences b 2\n"),
     "sentences line outside a sentence block"),
    (lambda t: _first_line_twice(t, "tag"), "duplicate tag entry (1, "),
    (lambda t: _first_line_twice(t, "edge"), "duplicate edge entry (0, 1, EdgeLabel('"),
], ids=["header-fields", "header-keyword", "tag-twice", "edge-twice"])
def test_column_reader_declines_and_the_line_reader_reports(lex, edit, message):
    text = edit(ff.write_cost_text([gen_synthetic(1, 1, lex, sid="a"),
                                    gen_synthetic(2, 2, lex, sid="b")]))
    assert ff._read_columns(text) is None
    with pytest.raises(ff.FormatError) as exc:
        ff.parse_cost_text(text)
    assert message in str(exc.value)
    assert _outcome(ff.parse_cost_text, text) == _outcome(ff._read_lines, text)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["delete", "insert", "replace"]),
    st.integers(min_value=0),
    st.sampled_from([" ", "\t", "\r", "\n", "#", "7", "-", ".", "x", "\u00e9"]),
)
def test_one_character_off_the_layout_reads_as_the_line_reader_does(lex, edit, at, char):
    text = ff.write_cost_text([gen_synthetic(1, 1, lex, sid="a"), gen_synthetic(2, 2, lex, sid="b")])
    at %= len(text)
    text = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert"):]
    assert _outcome(ff.parse_cost_text, text) == _outcome(ff._read_lines, text)


def test_both_readers_intern_new_labels_alike():
    def text(tag):
        return (f"sentence s0 3\nform 1 a\nform 2 b\nform 3 c\ntag 1 want 0.5\n"
                f"edge 1 2 MOD_{tag}b 0.5\nedge 2 3 APP_{tag}a 0.5\nedge 1 3 MOD_{tag}b 1\nend\n\n"
                f"sentence s1 2\nform 1 a\nform 2 b\nedge 2 1 APP_{tag}c 0.5\n"
                f"edge 1 2 APP_{tag}a 0.5\nend\n")

    grown = []
    for read, tag in ((ff._read_columns, "columns"), (ff._read_lines, "lines")):
        before = len(LABELS)
        assert read(text(tag)) is not None
        grown.append([str(label).replace(tag, "") for label in LABELS[before:]])
    assert grown[0] == grown[1] == ["MOD_b", "APP_a", "APP_c"]
