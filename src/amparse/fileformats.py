"""Line-oriented disk formats: lexicons, graphs, cost files, tree files.

All formats are UTF-8 text; '#' starts a comment anywhere on a line and
blank lines separate records.  Parsing and writing round-trip: writing
always produces the canonical form (sorted ids, sorted entries, requests
omitted when empty), and parsing canonical text reproduces it bit for bit.
A writer raises ValueError, naming the field and its value, on a field
that would not read back as written (a name with whitespace or '#', a
cost-file form with '#', a line break or surrounding whitespace, a tree
column with a tab, '#' or a line break), instead of writing it.

Lexicon files hold one block per graph constant:

    constant want
    node w0 want
    node w1 _
    node w2 _
    root w0
    source w1 s
    source w2 o request [s]
    edge w0 ARG0 w1
    edge w0 ARG1 w2
    end

with one root line and at most one source line per node, followed by
optional `omega <type>` lines for types no constant realizes and
`modlabel <source>` lines naming permitted modifier sources.  Apply
labels are implicit: one per source name occurring anywhere in the
lexicon's types.  A graph file is a lexicon file with a single block.

Cost files hold one block per sentence:

    sentence <id> <n>
    form <i> <string>
    tag <i> <constant|BOT> <cost>
    edge <o> <j> <label> <cost>
    end

with labels spelled APP_x, MOD_x, ROOT, IGNORE, and origin 0 reserved for
ROOT/IGNORE edges.  Text in the layout write_cost_text writes is read a
section at a time, as columns; the edge section, most of the text, is
checked only for its line starts and its token count (see _columns).

Tree files are TSV blocks, one line per token with columns index, form,
constant (or BOT), head, label; a comment-only block (for example a
no-parse marker) is skipped on read.
"""

from __future__ import annotations

import re
from operator import add
from typing import Optional, Union

from .costs import SentenceCosts
from .graphs import AsGraph, GraphError, GraphNode, graph_type
from .lexicon import Lexicon
from .trees import IGNORE, ROOT, AmDepTree, TreeEntry, app, mod, parse_edge_label
from .types import (EMPTY_TYPE, NAME_PATTERN, TOKEN_PATTERN, Type, TypeSyntaxError,
                    parse_type, serialize_type)


class FormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# The writers raise ValueError on a field that would not read back as written.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' boundaries
_NOT_IN_FORM = re.compile(f"[#{_LINE_BREAKS}]")  # in a cost file's form line
_NOT_IN_COLUMN = re.compile(f"[\t#{_LINE_BREAKS}]")  # in a tree file's column


def _token(what: str, text: str) -> str:
    if not TOKEN_PATTERN.fullmatch(text):
        raise ValueError(f"cannot write {what} {text!r}: it must be non-empty, "
                         "with no whitespace or '#'")
    return text


def _column(what: str, text: str) -> str:
    if _NOT_IN_COLUMN.search(text):
        raise ValueError(f"cannot write {what} {text!r}: it must hold no tab, '#' or line break")
    return text


# --- lexicon and graph files -------------------------------------------------


class _GraphBlock:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.nodes: dict[str, list] = {}  # id -> [label, source, request]
        self.root: Optional[str] = None
        self.edges: list[tuple[str, str, str]] = []

    def build(self, end_line: int) -> AsGraph:
        if self.root is None:
            raise FormatError(end_line, f"constant {self.name}: no root line")
        try:
            g = AsGraph(
                tuple(GraphNode(i, *node) for i, node in self.nodes.items()),
                frozenset(self.edges),
                self.root,
            )
            graph_type(g)  # request annotations that contradict each other
            return g
        except GraphError as e:
            raise FormatError(end_line, f"constant {self.name}: {e}") from e


def parse_lexicon_text(text: str, name: str = "lexicon") -> Lexicon:
    constants: dict[str, AsGraph] = {}
    omega: set[Type] = set()
    mod_sources: set[str] = set()
    block: Optional[_GraphBlock] = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "constant":
            if block is not None:
                raise FormatError(lineno, "constant block opened inside another block")
            if len(parts) != 2:
                raise FormatError(lineno, "expected: constant <name>")
            if parts[1] in constants:
                raise FormatError(lineno, f"duplicate constant {parts[1]}")
            block = _GraphBlock(parts[1], lineno)
        elif kw in ("node", "root", "source", "edge", "end"):
            if block is None:
                raise FormatError(lineno, f"{kw} line outside a constant block")
            if kw == "node":
                if len(parts) != 3:
                    raise FormatError(lineno, "expected: node <id> <label|_>")
                node_id, label = parts[1], parts[2]
                if node_id in block.nodes:
                    raise FormatError(lineno, f"duplicate node id {node_id}")
                block.nodes[node_id] = [None if label == "_" else label, None, None]
            elif kw == "root":
                if len(parts) != 2 or parts[1] not in block.nodes:
                    raise FormatError(lineno, "root must name a declared node")
                if block.root is not None:
                    raise FormatError(lineno, "duplicate root line")
                block.root = parts[1]
            elif kw == "source":
                if len(parts) < 3 or parts[1] not in block.nodes:
                    raise FormatError(lineno, "expected: source <id> <name> [request <type>]")
                if block.nodes[parts[1]][1] is not None:
                    raise FormatError(lineno, f"duplicate source line for node {parts[1]}")
                if not NAME_PATTERN.fullmatch(parts[2]):
                    raise FormatError(lineno, f"bad source name {parts[2]!r}")
                req = EMPTY_TYPE
                if len(parts) > 3:
                    if parts[3] != "request":
                        raise FormatError(lineno, "expected 'request' before the type")
                    req_text = line.split(None, 3)[3][len("request"):].strip()
                    try:
                        req = parse_type(req_text)
                    except TypeSyntaxError as e:
                        raise FormatError(lineno, str(e)) from e
                block.nodes[parts[1]][1:] = parts[2], req
            elif kw == "edge":
                if len(parts) != 4:
                    raise FormatError(lineno, "expected: edge <from> <label> <to>")
                if parts[1] not in block.nodes or parts[3] not in block.nodes:
                    raise FormatError(lineno, "edge endpoints must be declared nodes")
                block.edges.append((parts[1], parts[2], parts[3]))
            else:
                constants[block.name] = block.build(lineno)
                block = None
        elif kw == "omega":
            rest = line[len("omega"):].strip()
            try:
                omega.add(parse_type(rest))
            except TypeSyntaxError as e:
                raise FormatError(lineno, str(e)) from e
        elif kw == "modlabel":
            if len(parts) != 2:
                raise FormatError(lineno, "expected: modlabel <source>")
            if not NAME_PATTERN.fullmatch(parts[1]):
                raise FormatError(lineno, f"bad source name {parts[1]!r}")
            mod_sources.add(parts[1])
        else:
            raise FormatError(lineno, f"unknown directive {kw!r}")
    if block is not None:
        raise FormatError(block.line, f"constant {block.name}: missing end")

    # one app label per source name of omega and of the constants' types
    names = {s for t in omega for s in t.nodes}
    names.update(s for g in constants.values() for node in g.nodes
                 if node.source is not None for s in (node.source, *node.request.nodes))
    labels = {mod(b) for b in mod_sources} | {app(a) for a in names}
    return Lexicon(constants, frozenset(omega), frozenset(labels), name=name)


def _graph_block_lines(name: str, g: AsGraph) -> list[str]:
    lines = [f"constant {_token('constant name', name)}"]
    nodes = sorted(g.nodes, key=lambda n: n.id)
    for n in nodes:
        if n.label == "_":
            raise ValueError(f"cannot write node label '_' of node {n.id!r}: "
                             "it reads back as no label")
        label = "_" if n.label is None else _token("node label", n.label)
        lines.append(f"node {_token('node id', n.id)} {label}")
    lines.append(f"root {g.root}")
    for n in nodes:
        if n.source is None:
            continue
        if n.request is not None and n.request != EMPTY_TYPE:
            lines.append(f"source {n.id} {n.source} request {serialize_type(n.request)}")
        else:
            lines.append(f"source {n.id} {n.source}")
    for a, lbl, b in sorted(g.edges):
        lines.append(f"edge {a} {_token('edge label', lbl)} {b}")
    lines.append("end")
    return lines


def write_lexicon_text(lexicon: Lexicon) -> str:
    chunks = []
    for name in sorted(lexicon.constants):
        chunks.append("\n".join(_graph_block_lines(name, lexicon.constants[name])))
    extras = sorted(lexicon.omega - lexicon.by_type.keys(), key=serialize_type)
    tail = [f"omega {serialize_type(t)}" for t in extras]
    tail += [f"modlabel {b}" for b in lexicon.mod_sources()]
    if tail:
        chunks.append("\n".join(tail))
    return "\n\n".join(chunks) + "\n"


def write_graph_text(g: AsGraph, name: str = "result") -> str:
    return "\n".join(_graph_block_lines(name, g)) + "\n"


def parse_graph_text(text: str) -> AsGraph:
    lex = parse_lexicon_text(text, name="graph")
    if len(lex.constants) != 1:
        raise FormatError(0, f"expected exactly one graph block, got {len(lex.constants)}")
    return next(iter(lex.constants.values()))


# --- cost files ---------------------------------------------------------------


def parse_cost_text(text: str) -> list[SentenceCosts]:
    """The text's sentences.  Text in the writers' layout is read a section
    at a time; any other text, and every error, comes from the line reader."""
    out = _read_columns(text)
    return out if out is not None else _read_lines(text)


# Whitespace other than " " and "\n", which includes every line boundary
# of str.splitlines but "\n"; in ASCII text, one of _ASCII_OTHER_SPACE.
_OTHER_SPACE = re.compile(r"[^\S \n]")
_ASCII_OTHER_SPACE = "\t\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _read_columns(text: str) -> Optional[list[SentenceCosts]]:
    """What _read_lines returns for text in the layout write_cost_text writes,
    and None on the first doubt: any '#' or whitespace but " " and "\n", or a
    block that is not `sentence <id> <n>`, then form lines 1..n, then its
    tag and edge lines, then `end`.  Each section is split once and read as
    columns.  A sentence's keys depend only on its shapes: n with the tag
    index and constant columns, and n with the edge origin, target and
    label columns, each column joined into one string, which is exact
    because no split token holds whitespace.  So each shape's key list is
    built once per read and shared by every later sentence of that shape;
    only the cost columns are converted per sentence.  A new edge shape's
    labels are looked up among the label texts this text has shown so far;
    only when a lookup misses is the label column scanned for new ones,
    which take the next ids in first-appearance order.  Each sentence gets
    the read's labels as they stand after it."""
    if "#" in text or text[-1:] not in ("\n", ""):
        return None
    if text.isascii():
        if any(c in text for c in _ASCII_OTHER_SPACE):
            return None
    elif _OTHER_SPACE.search(text):
        return None
    out: list[SentenceCosts] = []
    label_ids = {"ROOT": 0, "IGNORE": 1}  # label text -> its id in labels
    labels = (ROOT, IGNORE)  # the read's labels so far, by id
    tag_keys: dict[tuple, list] = {}  # (n, i, g columns joined) -> the tag keys
    edge_keys: dict[tuple, list] = {}  # (n, o, j, label columns joined) -> the edge keys
    pos, size = 0, len(text)
    try:
        while True:
            while pos < size and text[pos] == "\n":
                pos += 1
            if pos == size:
                return out
            nl = text.index("\n", pos)
            head = text[pos:nl].split()
            if len(head) != 3 or head[0] != "sentence":
                return None
            stop = text.index("\nend\n", nl)  # the block's lines are text[nl:stop], each after a "\n"
            pos = stop + 5
            e = text.find("\nedge ", nl, stop)
            e = stop if e < 0 else e
            t = text.find("\ntag ", nl, e)
            t = e if t < 0 else t

            i_col, forms = _columns(text[nl:t], "form", 3)
            n = int(head[2])
            m = n + 1
            # one form line per token, in order, so n is bounded by the text
            if len(forms) != n or i_col != [str(i) for i in range(1, m)]:
                return None
            token = {str(i): i for i in range(1, m)}  # index text -> i, for 1..n
            origin = {str(o): o * m for o in range(m)}  # origin text -> o * m, for 0..n
            i_col, g_col, c_col = _columns(text[t:e], "tag", 4)
            shape = (n, " ".join(i_col), " ".join(g_col))
            keys = tag_keys.get(shape)
            if keys is None:
                keys = tag_keys[shape] = list(zip(map(token.__getitem__, i_col), g_col))
            tags = dict(zip(keys, map(float, c_col)))
            # no edge column reads "edge", so the edge section need not be counted
            o_col, j_col, l_col, e_col = _columns(text[e:stop], "edge", 5, counted=False)
            shape = (n, " ".join(o_col), " ".join(j_col), " ".join(l_col))
            keys = edge_keys.get(shape)
            if keys is None:
                mm = m * m

                def edge_key_list() -> list[int]:  # keyed as SentenceCosts.edge_table is
                    base = {lt: lid * mm for lt, lid in label_ids.items()}
                    bases = map(add, map(base.__getitem__, l_col), map(origin.__getitem__, o_col))
                    return list(map(add, bases, map(token.__getitem__, j_col)))

                try:
                    keys = edge_key_list()
                except KeyError:  # a label new to this text, or an index out of range
                    for label_text in dict.fromkeys(l_col):
                        if label_text not in label_ids:
                            labels += (parse_edge_label(label_text),)
                            label_ids[label_text] = len(labels) - 1
                    keys = edge_key_list()
                edge_keys[shape] = keys
            edges = dict(zip(keys, map(float, e_col)))
            if len(tags) != len(g_col) or len(edges) != len(e_col):
                return None  # a duplicate entry
            out.append(SentenceCosts.from_table(n, tuple(forms), tags, edges, labels, head[1]))
    except (KeyError, ValueError):
        return None


def _columns(section: str, keyword: str, width: int, counted: bool = True) -> list[list[str]]:
    """The columns after the keyword of a section of lines, each after a
    "\n"; ValueError unless the keyword starts every line and there are
    width tokens per line.  Then every line has width tokens exactly when
    each line starts at a multiple of width: a line of any other length
    puts some line's keyword into another column.  A section whose column
    readers all reject the keyword is not counted: a misaligned one fails
    there.  A counted one raises ValueError unless its tokens hold the
    keyword once per line, all at multiples of width, because a form or
    constant column accepts any token."""
    lines = section.count("\n")
    tokens = section.split()
    if section.count(f"\n{keyword} ") != lines or len(tokens) != width * lines:
        raise ValueError
    if counted and (tokens.count(keyword) != lines or tokens[::width].count(keyword) != lines):
        raise ValueError
    return [tokens[k::width] for k in range(1, width)]


def _read_lines(text: str) -> list[SentenceCosts]:
    out: list[SentenceCosts] = []
    label_ids = {"ROOT": 0, "IGNORE": 1}  # label text -> its id in labels
    labels = (ROOT, IGNORE)  # the read's labels so far, by id
    tags: Optional[dict] = None  # None outside a sentence block
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        kw = parts[0]
        if tags is None and kw != "sentence":
            raise FormatError(lineno, f"{kw} line outside a sentence block")
        if kw == "edge":
            if len(parts) != 5:
                raise FormatError(lineno, "expected: edge <o> <j> <label> <cost>")
            _, o_text, j_text, label_text, cost_text = parts
            o, j = _int_in(o_text, 0, n, lineno), _int_in(j_text, 1, n, lineno)
            lid = label_ids.get(label_text)
            if lid is None:
                try:
                    labels += (parse_edge_label(label_text),)
                except ValueError as e:
                    raise FormatError(lineno, str(e)) from e
                lid = label_ids[label_text] = len(labels) - 1
            key = (lid * m + o) * m + j  # SentenceCosts.edge_table's key
            if key in edges:
                raise FormatError(lineno, f"duplicate edge entry {(o, j, labels[lid])}")
            edges[key] = _cost(cost_text, lineno)
        elif kw == "tag":
            if len(parts) != 4:
                raise FormatError(lineno, "expected: tag <i> <constant|BOT> <cost>")
            _, i_text, g, cost_text = parts
            i = _int_in(i_text, 1, n, lineno)
            if (i, g) in tags:
                raise FormatError(lineno, f"duplicate tag entry {(i, g)}")
            tags[i, g] = _cost(cost_text, lineno)
        elif kw == "sentence":
            if tags is not None:
                raise FormatError(lineno, "sentence block opened inside another block")
            if len(parts) != 3:
                raise FormatError(lineno, "expected: sentence <id> <n>")
            try:
                n = int(parts[2])
            except ValueError:
                raise FormatError(lineno, "n must be an integer") from None
            sid, start, forms, tags, edges, m = parts[1], lineno, {}, {}, {}, n + 1
        elif kw == "form":
            if len(parts) < 3:
                raise FormatError(lineno, "expected: form <i> <string>")
            i = _int_in(parts[1], 1, n, lineno)
            if i in forms:
                raise FormatError(lineno, f"duplicate form entry {i}")
            forms[i] = line.split("#", 1)[0].split(None, 2)[2].rstrip()
        elif kw == "end":
            try:
                forms = tuple([forms.get(i, f"w{i}") for i in range(1, n + 1)])
                out.append(SentenceCosts.from_table(n, forms, tags, edges, labels, sid))
            except ValueError as e:
                raise FormatError(lineno, str(e)) from e
            tags = None
        else:
            raise FormatError(lineno, f"unknown directive {kw!r}")
    if tags is not None:
        raise FormatError(start, "sentence block missing end")
    return out


def _int_in(text: str, lo: int, hi: int, lineno: int) -> int:
    try:
        v = int(text)
    except ValueError:
        raise FormatError(lineno, f"expected an integer, got {text!r}") from None
    if not lo <= v <= hi:
        raise FormatError(lineno, f"index {v} out of range {lo}..{hi}")
    return v


def _cost(text: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(lineno, f"expected a cost, got {text!r}") from None


def write_cost_text(sentences: list[SentenceCosts]) -> str:
    blocks = []
    for c in sentences:
        lines = [f"sentence {_token('sentence id', c.sid)} {c.n}"]
        for i, form in enumerate(c.forms, start=1):
            if not form or form != form.strip() or _NOT_IN_FORM.search(form):
                raise ValueError(f"cannot write form {i} {form!r}: it must be non-empty, "
                                 "with no '#', line break or surrounding whitespace")
            lines.append(f"form {i} {form}")
        for (i, g), cost in sorted(c.tag_cost.items()):
            lines.append(f"tag {i} {_token('tag constant', g)} {cost!r}")
        for (o, j, lbl), cost in sorted(
            c.edge_cost.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            lines.append(f"edge {o} {j} {lbl} {cost!r}")
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# --- tree files ----------------------------------------------------------------


def parse_trees_text(text: str) -> list[AmDepTree]:
    trees: list[AmDepTree] = []
    block: list[tuple[int, str]] = []
    texts: dict[str, str] = {}  # one str per distinct form or constant text
    # one entry per distinct (position, line): the line holds its index, so
    # an entry found here passed the index check at this position
    read: dict[tuple[int, str], TreeEntry] = {}

    def flush(end_line: int):
        if not block:
            return
        entries = []
        for pos, (lineno, line) in enumerate(block, start=1):
            entry = read.get((pos, line))
            if entry is not None:
                entries.append(entry)
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise FormatError(lineno, f"expected 5 tab-separated columns, got {len(cols)}")
            idx, form, constant, head, label = cols
            if idx.strip() != str(pos):
                raise FormatError(lineno, f"expected index {pos}, got {idx!r}")
            try:
                entry = read[pos, line] = TreeEntry(
                    texts.setdefault(form, form), texts.setdefault(constant, constant),
                    int(head), parse_edge_label(label),
                )
            except ValueError as e:
                try:
                    int(head)
                except ValueError:
                    raise FormatError(lineno, f"expected an integer head, got {head!r}") from None
                raise FormatError(lineno, str(e)) from e
            entries.append(entry)
        try:
            trees.append(AmDepTree(tuple(entries)))
        except ValueError as e:
            raise FormatError(end_line, str(e)) from e
        block.clear()

    last = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].rstrip()
        if line:
            block.append((lineno, line))
        else:
            flush(lineno)
        last = lineno
    flush(last)
    return trees


def write_trees_text(items: list[Union[AmDepTree, str]]) -> str:
    """Trees become TSV blocks; strings become comment marker blocks."""
    blocks = []
    for item in items:
        if isinstance(item, str):
            if any(c in item for c in _LINE_BREAKS):
                raise ValueError(f"cannot write marker {item!r}: it must hold no line break")
            blocks.append(f"# {item}")
            continue
        lines = [
            "\t".join([str(i), _column("form", e.form), _column("constant", e.constant),
                       str(e.head), str(e.label)])
            for i, e in enumerate(item.entries, start=1)
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
