"""Parser and serializer tests for both supported graph formats."""

from random import Random

import pytest

from hered3.errors import ParseError
from hered3.formats import (
    GraphDocument,
    format_dimacs,
    format_edge_list,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    sniff_format,
)
from hered3.graph import Graph


def test_sniff_format():
    assert sniff_format("p edge 3 2\ne 1 2\n") == "dimacs_col"
    assert sniff_format("c just a comment\np edge 1 0\n") == "dimacs_col"
    assert sniff_format("\n\ne 1 2\n") == "dimacs_col"
    assert sniff_format("a b\n") == "edge_list"
    assert sniff_format("edge a b\n") == "edge_list"
    assert sniff_format("") == "edge_list"
    # an edge list whose first label is c, p or e: an edge-list line has
    # one or two tokens, a DIMACS problem line four and an edge line three
    assert sniff_format("c d\nd e\n") == "edge_list"
    assert sniff_format("p q\n") == "edge_list"
    assert sniff_format("e f\n") == "edge_list"
    # a comment is cut before the tokens are counted: each first line is a
    # lone vertex (p, e) of an edge list, not a problem line or an edge line
    assert sniff_format("p # a b\na b\nb c\n") == "edge_list"
    assert sniff_format("e # x\nx y\n") == "edge_list"


def test_parse_graph_dispatch():
    assert parse_graph("1 2\n").format == "edge_list"
    assert parse_graph("p edge 2 1\ne 1 2\n").format == "dimacs_col"


# Texts that one reader accepts, with the reader: DIMACS behind c,
# `comment:` and `cx` lines, and edge lists whose first label is c, p, e or
# cat, or that hold "#" comments
ACCEPTED = [
    ("c a path\np edge 2 1\ne 1 2\n", "dimacs_col"),
    ("comment: a path\np edge 2 1\ne 1 2\n", "dimacs_col"),
    ("cx\n  c\tindented\n\np edge 3 1\nc between\ne 2 3\n", "dimacs_col"),
    ("cat: p edge 9 9\n\tcomment # x\np edge 1 0\n", "dimacs_col"),
    ("c d\nd e\n", "edge_list"),
    ("c\ne\n", "edge_list"),
    ("p q\nq r\n", "edge_list"),
    ("p # a b\na b\nb c\n", "edge_list"),
    ("e # x\nx y\n", "edge_list"),
    ("e f\nf g\n", "edge_list"),
    ("cat dog\np edge\n", "edge_list"),
    ("cat\ne 1 # 2\n", "edge_list"),
    ("# p edge 2 1\n# e 1 2\na b # note: x\n", "edge_list"),
    ("  # c\n\ncat c\n", "edge_list"),
    ("c d\n", "edge_list"),
    ("", "edge_list"),
]
READERS = {"dimacs_col": parse_dimacs, "edge_list": parse_edge_list}


@pytest.mark.parametrize("text,fmt", ACCEPTED)
def test_accepted_texts_are_sniffed_to_their_reader(text, fmt):
    # the sniff skips the lines parse_dimacs skips, so no text that one
    # reader accepts is sniffed to the other, and parse_graph gives the
    # document that reader gives
    other, = set(READERS) - {fmt}
    with pytest.raises(ParseError):
        READERS[other](text)
    want = READERS[fmt](text)
    assert sniff_format(text) == fmt
    got = parse_graph(text)
    assert (got.format, got.labels, sorted(got.graph.edges()), got.warnings) == (
        want.format, want.labels, sorted(want.graph.edges()), want.warnings)


# -- DIMACS -------------------------------------------------------------------

DIMACS_OK = """\
c a small path
p edge 4 3
e 1 2
e 2 3
e 3 4
"""


def test_parse_dimacs():
    doc = parse_dimacs(DIMACS_OK)
    assert doc.format == "dimacs_col"
    assert doc.graph.vertices() == [1, 2, 3, 4]
    assert sorted(doc.graph.edges()) == [(1, 2), (2, 3), (3, 4)]
    assert doc.warnings == []
    assert doc.label(2) == "2"


def test_parse_dimacs_empty_problem():
    doc = parse_dimacs("p edge 0 0\n")
    assert doc.graph.vertices() == []


@pytest.mark.parametrize("text,line_no,needle", [
    ("p edge 2 1\np edge 2 1\n", 2, "duplicate problem"),
    ("e 1 2\n", 1, "edge before problem"),
    ("p edge two 1\n", 1, "malformed problem"),
    ("p vertex 2 1\n", 1, "malformed problem"),
    ("p edge 2\n", 1, "malformed problem"),
    ("p edge -1 0\n", 1, "malformed problem"),
    ("p edge 3 1\ne 1\n", 2, "malformed edge"),
    ("p edge 3 1\ne 1 2 3\n", 2, "malformed edge"),
    ("p edge 3 1\ne one 2\n", 2, "malformed edge"),
    ("p edge 3 1\ne 2 2\n", 2, "self-loop"),
    ("p edge 3 1\ne 1 4\n", 2, "out of range"),
    ("p edge 3 1\nq 1 2\n", 2, "unrecognized"),
])
def test_parse_dimacs_errors(text, line_no, needle):
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert err.value.line_no == line_no
    assert needle in str(err.value)


def test_parse_dimacs_requires_problem_line():
    with pytest.raises(ParseError) as err:
        parse_dimacs("c nothing here\n")
    assert err.value.line_no is None


def test_parse_dimacs_warnings():
    doc = parse_dimacs("p edge 2 1\ne 1 2\ne 2 1\n")
    assert len(doc.warnings) == 1
    assert "duplicate edge" in doc.warnings[0]
    assert sorted(doc.graph.edges()) == [(1, 2)]

    doc = parse_dimacs("p edge 3 5\ne 1 2\n")
    assert any("declares 5" in w for w in doc.warnings)


def test_format_dimacs_reindexes_and_round_trips():
    g = Graph.from_edges((10, 20, 30, 40), [(10, 20), (20, 40)])
    text = "c hello\n" + format_dimacs(g)
    assert text.splitlines()[1] == "p edge 4 2"
    doc = parse_dimacs(text)
    assert doc.graph.vertex_count() == 4
    assert sorted(doc.graph.edges()) == [(1, 2), (2, 4)]


def reference_parse_dimacs(text):
    """The DIMACS reader on the `Graph` API, four calls an edge line, each
    checking both ends: the reference for `parse_dimacs`, which fills the
    adjacency sets directly."""
    g = Graph()
    doc = GraphDocument("dimacs_col", g)
    declared = None
    seen_edges = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if parts[0] == "p":
            if declared is not None:
                raise ParseError("duplicate problem line", line_no=line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"malformed problem line: {line!r}", line_no=line_no)
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line: {line!r}", line_no=line_no)
            if n < 0 or declared < 0:
                raise ParseError(f"malformed problem line: {line!r}", line_no=line_no)
            for v in range(1, n + 1):
                g.add_vertex(v)
        elif parts[0] == "e":
            if declared is None:
                raise ParseError("edge before problem line", line_no=line_no)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line: {line!r}", line_no=line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge line: {line!r}", line_no=line_no)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", line_no=line_no)
            if not (g.has_vertex(u) and g.has_vertex(v)):
                raise ParseError(f"edge endpoint out of range: {line!r}", line_no=line_no)
            if g.has_edge(u, v):
                doc.warnings.append(f"line {line_no}: duplicate edge {u} {v} ignored")
            else:
                g.add_edge(u, v)
                seen_edges += 1
        else:
            raise ParseError(f"unrecognized line: {line!r}", line_no=line_no)
    if declared is None:
        raise ParseError("missing problem line")
    if seen_edges != declared:
        doc.warnings.append(
            f"problem line declares {declared} edges, file has {seen_edges}")
    doc.labels = {v: str(v) for v in g.vertices()}
    return doc


def test_dimacs_reader_matches_the_graph_api_reader():
    # format_dimacs of random graphs, some edge lines repeated (either way
    # round), some isolated vertices and some miscounts: the reader on the adjacency sets
    # gives the reference's adjacency, id counter, labels and warnings
    duplicated = 0
    for i in range(200):
        rng = Random(i)
        n = rng.randrange(0, 30)
        g = Graph.from_edges(range(1, n + 1), [(u, w) for u in range(1, n + 1)
                                               for w in range(u + 1, n + 1) if rng.random() < 0.2])
        lines = format_dimacs(g).splitlines()
        for line in lines[1:]:
            if rng.random() < 0.15:
                _, u, w = line.split()
                lines.insert(rng.randrange(lines.index(line) + 1, len(lines) + 1),
                             f"e {u} {w}" if rng.random() < 0.5 else f"e {w} {u}")
                duplicated += 1
        if i % 5 == 0:
            # a problem line that miscounts the edges is warned of
            lines[0] = f"p edge {n} {len(lines)}"
        text = "\n".join(lines) + "\n"
        got, want = parse_dimacs(text), reference_parse_dimacs(text)
        assert got.graph._adj == want.graph._adj and got.graph._next_id == want.graph._next_id, i
        assert got.labels == want.labels and got.warnings == want.warnings, i
        assert list(got.labels) == list(want.labels), i
    assert duplicated > 100


# -- edge list ----------------------------------------------------------------

def test_parse_edge_list_assigns_ids_in_first_seen_order():
    doc = parse_edge_list("b a   # an edge\nc b\nz\n")
    g = doc.graph
    assert g.vertices() == [1, 2, 3, 4]
    assert doc.labels == {1: "b", 2: "a", 3: "c", 4: "z"}
    assert sorted(g.edges()) == [(1, 2), (1, 3)]
    assert not g.neighbors(4)
    assert doc.label(1) == "b"


def test_parse_edge_list_palettes():
    # a palette annotation is refused with its line number, also where it
    # would read as labels, and never as an edge between "a:" and "1"
    for line in ("a: 1 3", "a: 1", "fresh: 2", "a b: 1", "new: 3 2", "last:1#c",
                 ": 1 2", "a: one", "a: 4", "a:", "b: \t# none"):
        for text in ("a b\n" + line + "\n", "a b\n" + line + "\nb c\n"):
            with pytest.raises(ParseError) as err:
                parse_edge_list(text)
            assert err.value.line_no == 2
            assert str(err.value) == (
                f"line 2: ':' outside a comment (palette annotations are not read): {line!r}")
            with pytest.raises(ParseError, match="^line 2: "):
                parse_graph(text)


@pytest.mark.parametrize("text,line_no,needle", [
    ("a a\n", 1, "self-loop"),
    # a self-loop on a new label and on a known one
    ("x\ty\nz z\n", 2, "self-loop at 'z'"),
    ("b c\n\nc c\n", 3, "self-loop at 'c'"),
    ("a b c\n", 1, "one or two tokens"),
    ("a b\n\nc d e f\n", 3, "expected one or two tokens: 'c d e f'"),
    # the palette forms that drew their own errors when palettes were read;
    # each id names its form, and each line is now refused for its ':'
    *(pytest.param(text, line_no, "':' outside a comment", id=form) for text, line_no, form in (
        ("ok\n: 1 2\n", 2, "ok\n: 1 2\n-2-malformed palette"),
        ("a b: 1\n", 1, "a b: 1\n-1-malformed palette"),
        ("a: one\n", 1, "a: one\n-1-malformed palette"),
        ("a: 4\n", 1, "a: 4\n-1-outside 1..3"),
        ("a:\n", 1, "a:\n-1-empty palette"),
        ("b c\nb: \t# none\n", 2, "b c\nb: \t# none\n-2-empty palette"),
    )),
])
def test_parse_edge_list_errors(text, line_no, needle):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line_no == line_no
    assert needle in str(err.value)


def test_parse_edge_list_duplicate_edge_warns():
    doc = parse_edge_list("a b\nb a\n")
    assert len(doc.warnings) == 1
    assert "duplicate edge" in doc.warnings[0]
    assert len(list(doc.graph.edges())) == 1


def test_parse_edge_list_comments_and_whitespace():
    # a comment-only line, a "#" right after a label, tabs, runs of spaces
    # and blank lines: ids follow first appearance, line numbers count
    # every line
    text = "# header only\nb#note\n\n\tb \t  a  # trailing\n   \n c\t\td\n\t\n"
    doc = parse_edge_list(text)
    assert doc.labels == {1: "b", 2: "a", 3: "c", 4: "d"}
    assert sorted(doc.graph.edges()) == [(1, 2), (3, 4)]
    assert doc.warnings == []
    assert doc.graph.add_vertex() == 5


def test_parse_edge_list_reversed_duplicate_edge():
    doc = parse_edge_list("x y\n# comment\n\ny\t x\ny x # again\n")
    assert doc.labels == {1: "x", 2: "y"}
    assert sorted(doc.graph.edges()) == [(1, 2)]
    assert doc.warnings == [
        "line 4: duplicate edge y x ignored",
        "line 5: duplicate edge y x ignored",
    ]


def test_parse_edge_list_palette_for_a_new_label_is_refused():
    # a palette line gives its label no id: the text is refused at the
    # first such line, and with the annotations in comments the labels take
    # ids in order of their first edge or lone line
    with pytest.raises(ParseError) as err:
        parse_edge_list("a b\nnew: 3 2\nb new\nlast:1#c\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_edge_list("a b\nb new\nlast:1#c\n")
    assert err.value.line_no == 3
    doc = parse_edge_list("a b\n# new: 3 2\nb new\nlast #:1\n")
    assert doc.labels == {1: "a", 2: "b", 3: "new", 4: "last"}
    assert sorted(doc.graph.edges()) == [(1, 2), (2, 3)]
    assert not doc.graph.neighbors(4)
    assert doc.graph.add_vertex() == 5


def test_parse_edge_list_error_line_numbers_count_comments_and_blanks():
    with pytest.raises(ParseError) as err:
        parse_edge_list("# c\n\na b\n\t\nb\tb  # loop\n")
    assert err.value.line_no == 5
    assert "self-loop at 'b'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_edge_list("a b\n  \n a\tb c # three\n")
    assert err.value.line_no == 3
    assert "expected one or two tokens: ' a\\tb c # three'" in str(err.value)


def test_format_edge_list_round_trip():
    g = Graph.from_edges(range(1, 5), [(1, 2), (2, 3)])
    text = format_edge_list(g)
    assert text == "1 2\n2 3\n4\n"
    # the writer writes ids only; labels are written here, for the parser
    # to read
    labels = {"1": "left", "2": "mid", "3": "right", "4": "lone"}
    named = "".join(" ".join(labels[t] for t in line.split()) + "\n" for line in text.splitlines())
    doc = parse_edge_list(named)
    back = {lab: v for v, lab in doc.labels.items()}
    assert set(back) == {"left", "mid", "right", "lone"}
    assert doc.graph.has_edge(back["left"], back["mid"])
    assert doc.graph.has_edge(back["mid"], back["right"])
    assert not doc.graph.neighbors(back["lone"])


def test_format_edge_list_empty():
    assert format_edge_list(Graph()) == ""


def test_parse_edge_list_colon_in_a_comment_is_no_palette():
    doc = parse_edge_list("a b # see: x\n")
    assert doc.labels == {1: "a", 2: "b"}
    assert sorted(doc.graph.edges()) == [(1, 2)]
    assert doc.warnings == []


def document(doc):
    """A parse result as plain data: labels in id order, adjacency by
    label, warnings."""
    name = doc.labels
    assert list(name) == list(range(1, len(name) + 1))
    assert doc.graph.vertices() == list(name)
    return (doc.format, list(name.values()),
            {name[v]: {name[w] for w in doc.graph.neighbors(v)} for v in name},
            doc.warnings)


SEPARATORS = ("\n", "\r\n", "\r", "\x0c")


def test_every_line_separator_gives_the_same_document():
    lines = ["# header", "b a", "", "c b # note: x", "\t", "a b", "d"]
    docs = [document(parse_graph(sep.join(lines) + sep)) for sep in SEPARATORS]
    assert docs[0] == (
        "edge_list", ["b", "a", "c", "d"],
        {"b": {"a", "c"}, "a": {"b"}, "c": {"b"}, "d": set()},
        ["line 6: duplicate edge a b ignored"])
    assert docs == [docs[0]] * len(SEPARATORS)


def test_dimacs_is_sniffed_past_blank_and_comment_lines_with_every_separator():
    for sep in SEPARATORS:
        text = sep.join(["", "c a path", "  ", "p edge 3 2", "e 1 2", "e 2 3"]) + sep
        assert sniff_format(text) == "dimacs_col", repr(sep)
        doc = parse_graph(text)
        assert doc.format == "dimacs_col" and sorted(doc.graph.edges()) == [(1, 2), (2, 3)]


def reference_edge_list(text):
    """A plain line loop over a well-formed edge list, for the differential
    test: labels in order of first appearance, adjacency by label, and the
    duplicate-edge warnings."""
    labels, adj, warnings = [], {}, []

    def see(label):
        if label not in adj:
            labels.append(label)
            adj[label] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#")[0].split()
        for label in parts:
            see(label)
        if len(parts) == 2:
            a, b = parts
            if b in adj[a]:
                warnings.append(f"line {line_no}: duplicate edge {a} {b} ignored")
            adj[a].add(b)
            adj[b].add(a)
    return "edge_list", labels, adj, warnings


def random_edge_list(rng):
    """Edges, reversed and repeated edges, isolated labels, comments and
    blank lines, with runs of spaces and tabs."""
    pool = [f"v{i}" for i in range(rng.randint(1, 12))] + ["c", "e", "p", "cat"]
    edges = []
    lines = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < 0.4 or (kind < 0.55 and not edges):
            a, b = rng.sample(pool, 2)
            edges.append((a, b))
            lines.append(a + rng.choice(" \t") + b)
        elif kind < 0.55:
            a, b = rng.choice(edges)
            lines.append(f" {b}  {a}" if rng.random() < 0.5 else f"{a} {b}")
        elif kind < 0.65:
            lines.append(f"\t{rng.choice(pool)} ")
        elif kind < 0.75:
            lines.append(rng.choice(["# a comment", "", "  ", "\t#"]))
        else:
            lines[-1:] = [line + " # note: " + rng.choice(pool) for line in lines[-1:]]
    return "\n".join(lines) + rng.choice(["", "\n"])


def test_edge_list_reader_matches_a_plain_line_loop():
    rng = Random(2011)
    for i in range(300):
        text = random_edge_list(rng)
        # auto-sniffed: a "#" comment is cut before the sniff counts tokens
        assert document(parse_graph(text)) == reference_edge_list(text), (i, text)


def test_graph_documents_keep_their_own_defaults():
    g = Graph()
    a, b = GraphDocument("edge_list", g), GraphDocument("edge_list", g)
    a.labels[1] = "x"
    a.warnings.append("w")
    assert (b.labels, b.warnings, b.source) == ({}, [], "<memory>")
    doc = GraphDocument(format="dimacs_col", graph=g, labels={1: "y"},
                        source="in.col")
    assert (doc.format, doc.graph, doc.label(1), doc.label(2), doc.source) == (
        "dimacs_col", g, "y", "2", "in.col")
