"""Parser and serializer tests for both supported graph formats."""

from random import Random

import pytest

from hered3.errors import ParseError
from hered3.formats import (
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


def test_parse_graph_dispatch():
    assert parse_graph("1 2\n").format == "edge_list"
    assert parse_graph("p edge 2 1\ne 1 2\n").format == "dimacs_col"
    with pytest.raises(ParseError):
        parse_graph("1 2\n", fmt="adjacency_matrix")


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
    text = format_dimacs(g, comments=("hello",))
    assert text.splitlines()[0] == "c hello"
    assert "p edge 4 2" in text
    doc = parse_dimacs(text)
    assert doc.graph.vertex_count() == 4
    assert sorted(doc.graph.edges()) == [(1, 2), (2, 4)]


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
    doc = parse_edge_list("a b\na: 3 1\nfresh: 2 2\n")
    ids = {lab: v for v, lab in doc.labels.items()}
    assert doc.palettes[ids["a"]] == (1, 3)
    assert doc.palettes[ids["fresh"]] == (2,)
    assert "b" in ids and ids["b"] not in doc.palettes


@pytest.mark.parametrize("text,line_no,needle", [
    ("a a\n", 1, "self-loop"),
    # a self-loop on a new label and on a known one
    ("x\ty\nz z\n", 2, "self-loop at 'z'"),
    ("b c\n\nc c\n", 3, "self-loop at 'c'"),
    ("a b c\n", 1, "one or two tokens"),
    ("ok\n: 1 2\n", 2, "malformed palette"),
    ("a b: 1\n", 1, "malformed palette"),
    ("a: one\n", 1, "malformed palette"),
    ("a: 4\n", 1, "outside 1..3"),
    ("a:\n", 1, "outside 1..3"),
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


def test_parse_edge_list_palette_for_a_new_label_takes_the_next_id():
    doc = parse_edge_list("a b\nnew: 3 2\nb new\nlast:1#c\n")
    assert doc.labels == {1: "a", 2: "b", 3: "new", 4: "last"}
    assert doc.palettes == {3: (2, 3), 4: (1,)}
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
    labels = {1: "left", 2: "mid", 3: "right", 4: "lone"}
    palettes = {2: (1, 2), 4: (3,)}
    text = format_edge_list(g, labels=labels, palettes=palettes)
    doc = parse_edge_list(text)
    back = {lab: v for v, lab in doc.labels.items()}
    assert set(back) == {"left", "mid", "right", "lone"}
    assert doc.graph.has_edge(back["left"], back["mid"])
    assert doc.graph.has_edge(back["mid"], back["right"])
    assert not doc.graph.neighbors(back["lone"])
    assert doc.palettes[back["mid"]] == (1, 2)
    assert doc.palettes[back["lone"]] == (3,)


def test_format_edge_list_empty():
    assert format_edge_list(Graph()) == ""


def test_parse_edge_list_colon_in_a_comment_is_no_palette():
    doc = parse_edge_list("a b # see: x\n")
    assert doc.labels == {1: "a", 2: "b"}
    assert sorted(doc.graph.edges()) == [(1, 2)]
    assert doc.palettes == {}


def document(doc):
    """A parse result as plain data: labels in id order, adjacency and
    palettes by label, warnings."""
    name = doc.labels
    assert list(name) == list(range(1, len(name) + 1))
    assert doc.graph.vertices() == list(name)
    return (doc.format, list(name.values()),
            {name[v]: {name[w] for w in doc.graph.neighbors(v)} for v in name},
            {name[v]: colors for v, colors in doc.palettes.items()},
            doc.warnings)


SEPARATORS = ("\n", "\r\n", "\r", "\x0c")


def test_every_line_separator_gives_the_same_document():
    lines = ["# header", "b a", "", "c b # note: x", "a: 3 1", "\t", "a b", "d"]
    docs = [document(parse_graph(sep.join(lines) + sep)) for sep in SEPARATORS]
    assert docs[0] == (
        "edge_list", ["b", "a", "c", "d"],
        {"b": {"a", "c"}, "a": {"b"}, "c": {"b"}, "d": set()},
        {"a": (1, 3)}, ["line 7: duplicate edge a b ignored"])
    assert docs == [docs[0]] * len(SEPARATORS)


def test_dimacs_is_sniffed_past_blank_and_comment_lines_with_every_separator():
    for sep in SEPARATORS:
        text = sep.join(["", "c a path", "  ", "p edge 3 2", "e 1 2", "e 2 3"]) + sep
        assert sniff_format(text) == "dimacs_col", repr(sep)
        doc = parse_graph(text)
        assert doc.format == "dimacs_col" and sorted(doc.graph.edges()) == [(1, 2), (2, 3)]


def reference_edge_list(text):
    """A plain line loop over a well-formed edge list, for the differential
    test: labels in order of first appearance, adjacency and palettes by
    label, and the duplicate-edge warnings."""
    labels, adj, palettes, warnings = [], {}, {}, []

    def see(label):
        if label not in adj:
            labels.append(label)
            adj[label] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0]
        if ":" in line:
            name, rest = line.split(":")
            see(name.strip())
            palettes[name.strip()] = tuple(sorted({int(t) for t in rest.split()}))
            continue
        parts = line.split()
        for label in parts:
            see(label)
        if len(parts) == 2:
            a, b = parts
            if b in adj[a]:
                warnings.append(f"line {line_no}: duplicate edge {a} {b} ignored")
            adj[a].add(b)
            adj[b].add(a)
    return "edge_list", labels, adj, palettes, warnings


def random_edge_list(rng):
    """Edges, reversed and repeated edges, isolated labels, comments, blank
    lines and palettes, with runs of spaces and tabs."""
    pool = [f"v{i}" for i in range(rng.randint(1, 12))] + ["c", "e", "p"]
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
        elif kind < 0.85:
            colors = " ".join(rng.choice("123") for _ in range(rng.randint(1, 4)))
            lines.append(f"{rng.choice(pool)}: {colors}")
        else:
            lines[-1:] = [line + " # note: " + rng.choice(pool) for line in lines[-1:]]
    return "\n".join(lines) + rng.choice(["", "\n"])


def test_edge_list_reader_matches_a_plain_line_loop():
    rng = Random(2011)
    for i in range(300):
        text = random_edge_list(rng)
        assert document(parse_graph(text, "edge_list")) == reference_edge_list(text), (i, text)
