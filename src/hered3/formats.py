"""Graph file formats: DIMACS .col and a labeled whitespace edge list."""

from __future__ import annotations

from .errors import ParseError
from .graph import Graph


class GraphDocument:
    """A parsed input graph plus the labeling needed to answer in kind.

    A plain slotted class, not a dataclass, so importing hered3 does not
    load `dataclasses`; each document gets its own labels and warnings when
    they are not given.
    """

    __slots__ = ("format", "graph", "labels", "warnings", "source")

    def __init__(self, format: str, graph: Graph, labels: dict | None = None,
                 warnings: list | None = None, source: str = "<memory>") -> None:
        self.format = format            # "dimacs_col" | "edge_list"
        self.graph = graph
        self.labels = {} if labels is None else labels  # vertex id -> display label
        self.warnings = [] if warnings is None else warnings
        self.source = source

    def label(self, v) -> str:
        return self.labels.get(v, str(v))


def _no_data(line: str) -> bool:
    """Whether a stripped line carries no data: it is blank, or it starts
    with c, a DIMACS comment."""
    return not line or line[0] == "c"


def sniff_format(text: str, lines: list[str] | None = None) -> str:
    """DIMACS when the first line that carries data, by `_no_data` once a
    "#" comment is cut off as the edge-list reader cuts it, is a problem
    line (p plus 3 tokens) or an edge line (e plus 2), else an edge list (1
    or 2 tokens a line).  So `p # a b` is a lone vertex, and no text that
    one reader accepts is sniffed to the other: an accepted DIMACS text
    has its problem line first, and no edge-list line has 3 or 4 tokens.
    lines is text.splitlines()."""
    for raw in text.splitlines() if lines is None else lines:
        line = raw.split("#", 1)[0].strip()
        if not _no_data(line):
            parts = line.split()
            dimacs = (parts[0], len(parts)) in (("p", 4), ("e", 3))
            return "dimacs_col" if dimacs else "edge_list"
    return "edge_list"


def parse_graph(text: str) -> GraphDocument:
    """Read text in the format `sniff_format` names; one line split serves
    the sniff and the reader."""
    lines = text.splitlines()
    if sniff_format(text, lines) == "dimacs_col":
        return parse_dimacs(text, lines)
    return parse_edge_list(text, lines)


# -- DIMACS col ---------------------------------------------------------------


def parse_dimacs(text: str, lines: list[str] | None = None) -> GraphDocument:
    """Vertices 1..n, read into the adjacency sets: an endpoint is in range
    when it is a key, an edge a duplicate when one end's set holds the other."""
    lines = text.splitlines() if lines is None else lines
    g = Graph()
    doc = GraphDocument("dimacs_col", g)
    adj = g._adj
    declared = None
    seen_edges = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if _no_data(line):
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
            adj.update((v, set()) for v in range(1, n + 1))
            g._next_id = n + 1
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
            nu, nv = adj.get(u), adj.get(v)
            if nu is None or nv is None:
                raise ParseError(f"edge endpoint out of range: {line!r}", line_no=line_no)
            if v in nu:
                doc.warnings.append(f"line {line_no}: duplicate edge {u} {v} ignored")
            else:
                nu.add(v)
                nv.add(u)
                seen_edges += 1
        else:
            raise ParseError(f"unrecognized line: {line!r}", line_no=line_no)
    if declared is None:
        raise ParseError("missing problem line")
    if seen_edges != declared:
        doc.warnings.append(
            f"problem line declares {declared} edges, file has {seen_edges}")
    doc.labels = {v: str(v) for v in adj}
    return doc


def format_dimacs(g: Graph) -> str:
    index = {v: i + 1 for i, v in enumerate(g.vertices())}
    edges = [f"e {index[u]} {index[v]}" for u, v in g.edges()]
    return "\n".join([f"p edge {len(index)} {len(edges)}", *edges]) + "\n"


# -- labeled edge list --------------------------------------------------------


def parse_edge_list(text: str, lines: list[str] | None = None) -> GraphDocument:
    """Ids 1, 2, ... in order of first appearance of each label.

    A line that holds ":" outside its "#" comment is refused, so that a
    palette annotation such as `a: 1 3` is never read as an edge between
    labels `a:` and `1`.  A text without "#" or ":" skips the per-line
    comment and colon tests.  A line is unpacked into its two labels with
    no token count taken; the ValueError of any other count leads to the
    lone vertex, the blank line or the refusal.  Ids start at 1, so a
    missing label is the only false lookup, and an edge whose second label
    is new needs no self-loop or duplicate test.
    """
    lines = text.splitlines() if lines is None else lines
    g = Graph()
    doc = GraphDocument("edge_list", g)
    adj = g._adj
    labels = doc.labels
    by_label: dict[str, int] = {}
    known = by_label.get
    comments = "#" in text
    colons = ":" in text

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0] if comments and "#" in raw else raw
        if colons and ":" in line:
            raise ParseError(f"':' outside a comment (palette annotations are not read): {raw!r}",
                             line_no=line_no)
        try:
            a, b = line.split()
        except ValueError:
            parts = line.split()
            if len(parts) == 1:
                a = parts[0]
                if a not in by_label:
                    u = by_label[a] = len(adj) + 1
                    adj[u] = set()
                    labels[u] = a
            elif parts:
                raise ParseError(f"expected one or two tokens: {raw!r}", line_no=line_no) from None
            continue
        u = known(a)
        if u:
            nu = adj[u]
        else:
            u = by_label[a] = len(adj) + 1
            nu = adj[u] = set()
            labels[u] = a
        v = known(b)
        if not v:
            v = by_label[b] = len(adj) + 1
            adj[v] = set()
            labels[v] = b
        elif v == u:
            raise ParseError(f"self-loop at {a!r}", line_no=line_no)
        elif v in nu:
            doc.warnings.append(f"line {line_no}: duplicate edge {a} {b} ignored")
            continue
        nu.add(v)
        adj[v].add(u)
    g._next_id = len(adj) + 1
    return doc


def format_edge_list(g: Graph) -> str:
    """The edges, then the isolated vertices, one line each, by id."""
    lines = [f"{u} {v}" for u, v in g.edges()]
    lines += (str(v) for v in g.vertices() if not g.neighbors(v))
    return "\n".join(lines) + ("\n" if lines else "")
