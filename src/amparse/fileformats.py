"""Line-oriented disk formats: lexicons, graphs, cost files, tree files.

All formats are UTF-8 text; '#' starts a comment anywhere on a line and
blank lines separate records.  Parsing and writing round-trip: writing
always produces the canonical form (sorted ids, sorted entries, requests
omitted when empty), and parsing canonical text reproduces it bit for bit.

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

followed by optional `omega <type>` lines for types no constant realizes
and `modlabel <source>` lines naming permitted modifier sources.  Apply
labels are implicit: one per source name occurring anywhere in the
lexicon's types.  A graph file is a lexicon file with a single block.

Cost files hold one block per sentence:

    sentence <id> <n>
    form <i> <string>
    tag <i> <constant|BOT> <cost>
    edge <o> <j> <label> <cost>
    end

with labels spelled APP_x, MOD_x, ROOT, IGNORE, and origin 0 reserved for
ROOT/IGNORE edges.  Tree files are TSV blocks, one line per token with
columns index, form, constant (or BOT), head, label; a comment-only block
(for example a no-parse marker) is skipped on read.
"""

from __future__ import annotations

from typing import Optional, Union

from .costs import SentenceCosts
from .graphs import AsGraph, GraphError, GraphNode
from .lexicon import Lexicon
from .trees import LABELS, AmDepTree, TreeEntry, app, label_id, mod, parse_edge_label
from .types import EMPTY_TYPE, NAME_PATTERN, Type, TypeSyntaxError, parse_type, serialize_type


class FormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- lexicon and graph files -------------------------------------------------


class _GraphBlock:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.nodes: list[list] = []  # [id, label, source, request]
        self.ids: set[str] = set()
        self.root: Optional[str] = None
        self.edges: list[tuple[str, str, str]] = []

    def build(self, end_line: int) -> AsGraph:
        if self.root is None:
            raise FormatError(end_line, f"constant {self.name}: no root line")
        try:
            return AsGraph(
                tuple(GraphNode(i, lbl, src, req) for i, lbl, src, req in self.nodes),
                frozenset(self.edges),
                self.root,
            )
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
                if node_id in block.ids:
                    raise FormatError(lineno, f"duplicate node id {node_id}")
                block.ids.add(node_id)
                block.nodes.append([node_id, None if label == "_" else label, None, None])
            elif kw == "root":
                if len(parts) != 2 or parts[1] not in block.ids:
                    raise FormatError(lineno, "root must name a declared node")
                block.root = parts[1]
            elif kw == "source":
                if len(parts) < 3 or parts[1] not in block.ids:
                    raise FormatError(lineno, "expected: source <id> <name> [request <type>]")
                if not NAME_PATTERN.fullmatch(parts[2]):
                    raise FormatError(lineno, f"bad source name {parts[2]!r}")
                req = None
                if len(parts) > 3:
                    if parts[3] != "request":
                        raise FormatError(lineno, "expected 'request' before the type")
                    req_text = line.split(None, 3)[3][len("request"):].strip()
                    try:
                        req = parse_type(req_text)
                    except TypeSyntaxError as e:
                        raise FormatError(lineno, str(e)) from e
                for node in block.nodes:
                    if node[0] == parts[1]:
                        node[2], node[3] = parts[2], req if req is not None else EMPTY_TYPE
            elif kw == "edge":
                if len(parts) != 4:
                    raise FormatError(lineno, "expected: edge <from> <label> <to>")
                if parts[1] not in block.ids or parts[3] not in block.ids:
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
    lines = [f"constant {name}"]
    nodes = sorted(g.nodes, key=lambda n: n.id)
    for n in nodes:
        lines.append(f"node {n.id} {n.label if n.label is not None else '_'}")
    lines.append(f"root {g.root}")
    for n in nodes:
        if n.source is None:
            continue
        if n.request is not None and n.request != EMPTY_TYPE:
            lines.append(f"source {n.id} {n.source} request {serialize_type(n.request)}")
        else:
            lines.append(f"source {n.id} {n.source}")
    for a, lbl, b in sorted(g.edges):
        lines.append(f"edge {a} {lbl} {b}")
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
    out: list[SentenceCosts] = []
    label_ids: dict[str, int] = {}  # label text -> its process-wide id
    tags: Optional[dict] = None  # None outside a sentence block
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        kw = parts[0]
        if tags is None and kw != "sentence":
            raise FormatError(lineno, f"{kw} line outside a sentence block")
        # Fields convert inline: a failed conversion leaves an index out of
        # range, so _int_in redoes it to raise, and c = None marks a bad cost,
        # which is reported after the duplicate test.
        if kw == "edge":
            if len(parts) != 5:
                raise FormatError(lineno, "expected: edge <o> <j> <label> <cost>")
            _, o_text, j_text, label_text, cost_text = parts
            try:
                o, j, c = int(o_text), int(j_text), float(cost_text)
            except ValueError:
                o, c = -1, None
            if not (0 <= o <= n and 1 <= j <= n):
                o, j = _int_in(o_text, 0, n, lineno), _int_in(j_text, 1, n, lineno)
            lid = label_ids.get(label_text)
            if lid is None:
                try:
                    lid = label_ids[label_text] = label_id(parse_edge_label(label_text))
                except ValueError as e:
                    raise FormatError(lineno, str(e)) from e
            size = len(edges)
            edges[(lid * m + o) * m + j] = c  # SentenceCosts.edge_table's key
            if len(edges) == size:
                raise FormatError(lineno, f"duplicate edge entry {(o, j, LABELS[lid])}")
            if c is None:
                raise FormatError(lineno, f"expected a cost, got {cost_text!r}")
        elif kw == "tag":
            if len(parts) != 4:
                raise FormatError(lineno, "expected: tag <i> <constant|BOT> <cost>")
            _, i_text, g, cost_text = parts
            try:
                i, c = int(i_text), float(cost_text)
            except ValueError:
                i, c = 0, None
            if not 1 <= i <= n:
                i = _int_in(i_text, 1, n, lineno)
            size = len(tags)
            tags[i, g] = c
            if len(tags) == size:
                raise FormatError(lineno, f"duplicate tag entry {(i, g)}")
            if c is None:
                raise FormatError(lineno, f"expected a cost, got {cost_text!r}")
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
                out.append(SentenceCosts.from_table(n, forms, tags, edges, sid=sid))
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


def write_cost_text(sentences: list[SentenceCosts]) -> str:
    blocks = []
    for c in sentences:
        lines = [f"sentence {c.sid} {c.n}"]
        for i, form in enumerate(c.forms, start=1):
            lines.append(f"form {i} {form}")
        for (i, g), cost in sorted(c.tag_cost.items()):
            lines.append(f"tag {i} {g} {cost!r}")
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

    def flush(end_line: int):
        if not block:
            return
        entries = []
        for pos, (lineno, line) in enumerate(block, start=1):
            cols = line.split("\t")
            if len(cols) != 5:
                raise FormatError(lineno, f"expected 5 tab-separated columns, got {len(cols)}")
            idx, form, constant, head, label = cols
            if idx.strip() != str(pos):
                raise FormatError(lineno, f"expected index {pos}, got {idx!r}")
            try:
                entries.append(TreeEntry(
                    texts.setdefault(form, form), texts.setdefault(constant, constant),
                    int(head), parse_edge_label(label),
                ))
            except ValueError as e:
                raise FormatError(lineno, str(e)) from e
        try:
            trees.append(AmDepTree(tuple(entries)))
        except ValueError as e:
            raise FormatError(end_line, str(e)) from e
        block.clear()

    last = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            flush(lineno)
        else:
            block.append((lineno, line.split("#", 1)[0].rstrip()))
        last = lineno
    flush(last)
    return trees


def write_trees_text(items: list[Union[AmDepTree, str]]) -> str:
    """Trees become TSV blocks; strings become comment marker blocks."""
    blocks = []
    for item in items:
        if isinstance(item, str):
            blocks.append(f"# {item}")
            continue
        lines = [
            "\t".join([str(i), e.form, e.constant, str(e.head), str(e.label)])
            for i, e in enumerate(item.entries, start=1)
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
