"""Graph file formats: DIMACS .col and a labeled whitespace edge list."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .graph import Graph


@dataclass
class GraphDocument:
    """A parsed input graph plus the labeling needed to answer in kind."""

    format: str                      # "dimacs_col" | "edge_list"
    graph: Graph
    labels: dict = field(default_factory=dict)      # vertex id -> display label
    palettes: dict = field(default_factory=dict)    # vertex id -> tuple of colors
    warnings: list = field(default_factory=list)
    source: str = "<memory>"

    def label(self, v) -> str:
        return self.labels.get(v, str(v))


def sniff_format(text: str, lines: list[str] | None = None) -> str:
    """DIMACS when the first line past blank and c lines is a problem line
    (p plus 3 tokens) or an edge line (e plus 2), else an edge list (1 or 2
    tokens a line), even with a label c.  lines is text.splitlines()."""
    for raw in text.splitlines() if lines is None else lines:
        parts = raw.split()
        if parts and parts[0] != "c":
            dimacs = (parts[0], len(parts)) in (("p", 4), ("e", 3))
            return "dimacs_col" if dimacs else "edge_list"
    return "edge_list"


def parse_graph(text: str, fmt: str | None = None) -> GraphDocument:
    """One line split serves the format sniff and the reader."""
    lines = text.splitlines()
    fmt = fmt or sniff_format(text, lines)
    if fmt == "dimacs_col":
        return parse_dimacs(text, lines)
    if fmt == "edge_list":
        return parse_edge_list(text, lines)
    raise ParseError(f"unknown graph format: {fmt}")


# -- DIMACS col ---------------------------------------------------------------


def parse_dimacs(text: str, lines: list[str] | None = None) -> GraphDocument:
    lines = text.splitlines() if lines is None else lines
    g = Graph()
    doc = GraphDocument("dimacs_col", g)
    declared = None
    seen_edges = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
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


def format_dimacs(g: Graph, comments: tuple = ()) -> str:
    verts = g.vertices()
    index = {v: i + 1 for i, v in enumerate(verts)}
    lines = [f"c {c}" for c in comments]
    edges = list(g.edges())
    lines.append(f"p edge {len(verts)} {len(edges)}")
    for u, v in edges:
        lines.append(f"e {index[u]} {index[v]}")
    return "\n".join(lines) + "\n"


# -- labeled edge list --------------------------------------------------------


def parse_edge_list(text: str, lines: list[str] | None = None) -> GraphDocument:
    """Ids 1, 2, ... in order of first appearance of each label.

    A text without "#" or ":" skips the per-line comment and palette tests.
    Ids start at 1, so a missing label is the only false lookup, and an
    edge whose second label is new needs no self-loop or duplicate test.
    """
    lines = text.splitlines() if lines is None else lines
    g = Graph()
    doc = GraphDocument("edge_list", g)
    adj = g._adj
    labels = doc.labels
    by_label: dict[str, int] = {}
    known = by_label.get
    comments = "#" in text
    palettes = ":" in text

    def new(label: str) -> int:
        v = by_label[label] = len(adj) + 1
        adj[v] = set()
        labels[v] = label
        return v

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0] if comments and "#" in raw else raw
        if palettes and ":" in line:
            # palette annotation: "<label>: <color> <color>..."
            name, _, rest = line.partition(":")
            name = name.strip()
            if not name or len(name.split()) != 1:
                raise ParseError(f"malformed palette line: {raw!r}", line_no=line_no)
            try:
                colors = tuple(sorted({int(t) for t in rest.split()}))
            except ValueError:
                raise ParseError(f"malformed palette line: {raw!r}", line_no=line_no)
            if not colors or any(c not in (1, 2, 3) for c in colors):
                raise ParseError(f"palette outside 1..3: {raw!r}", line_no=line_no)
            doc.palettes[known(name) or new(name)] = colors
            continue
        parts = line.split()
        if len(parts) == 2:
            a, b = parts
            u = known(a)
            if not u:
                u = by_label[a] = len(adj) + 1
                adj[u] = set()
                labels[u] = a
            v = known(b)
            if not v:
                v = by_label[b] = len(adj) + 1
                adj[v] = set()
                labels[v] = b
            elif v == u:
                raise ParseError(f"self-loop at {a!r}", line_no=line_no)
            elif v in adj[u]:
                doc.warnings.append(f"line {line_no}: duplicate edge {a} {b} ignored")
                continue
            adj[u].add(v)
            adj[v].add(u)
        elif len(parts) == 1:
            if parts[0] not in by_label:
                new(parts[0])
        elif parts:
            raise ParseError(f"expected one or two tokens: {raw!r}", line_no=line_no)
    g._next_id = len(adj) + 1
    return doc


def format_edge_list(g: Graph, labels: dict | None = None,
                     palettes: dict | None = None) -> str:
    labels = labels or {}

    def name(v):
        return str(labels.get(v, v))

    lines = []
    isolated = [v for v in g.vertices() if not g.neighbors(v)]
    for u, v in g.edges():
        lines.append(f"{name(u)} {name(v)}")
    for v in isolated:
        lines.append(name(v))
    if palettes:
        for v in sorted(palettes):
            lines.append(f"{name(v)}: " + " ".join(str(c) for c in sorted(palettes[v])))
    return "\n".join(lines) + ("\n" if lines else "")
