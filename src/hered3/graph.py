"""Mutable simple undirected graphs with stable integer vertex ids."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError


class Graph:
    """Simple undirected graph backed by per-vertex neighbor sets.

    Vertex ids are plain integers and are never recycled: once an id has
    been handed out (or seen in a bulk constructor) it stays retired for
    the lifetime of this graph and of every copy derived from it.  Replay
    logs and witness maps therefore stay unambiguous across arbitrary
    sequences of deletions and insertions.
    """

    __slots__ = ("_adj", "_next_id")

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._next_id = 1

    @classmethod
    def from_edges(cls, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            if u not in g._adj:
                g.add_vertex(u)
            if v not in g._adj:
                g.add_vertex(v)
            g.add_edge(u, v)
        return g

    # -- basic queries ---------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def vertex_count(self) -> int:
        return len(self._adj)

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2

    def vertices(self) -> list[int]:
        """All vertex ids in ascending order."""
        return sorted(self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        """Neighbor set of v.  Callers must treat the result as read-only."""
        self._check(v)
        return self._adj[v]

    def sorted_neighbors(self, v: int) -> list[int]:
        self._check(v)
        return sorted(self._adj[v])

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def _check(self, v: int) -> None:
        if v not in self._adj:
            raise InputError(f"unknown vertex {v}")

    # -- mutation --------------------------------------------------------

    def add_vertex(self, vid: int | None = None) -> int:
        """Add a vertex.  Without an explicit id a fresh, never-used id is issued."""
        if vid is None:
            vid = self._next_id
        elif vid in self._adj:
            raise InputError(f"vertex {vid} already present")
        self._adj[vid] = set()
        if vid >= self._next_id:
            self._next_id = vid + 1
        return vid

    def add_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_vertex(self, v: int) -> None:
        self._check(v)
        for u in self._adj[v]:
            self._adj[u].discard(v)
        del self._adj[v]

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._next_id = self._next_id
        return g


# -- module level operations ----------------------------------------------


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced by `keep`, preserving vertex ids and the id counter."""
    keep_set = set(keep)
    if not g._adj.keys() >= keep_set:
        for v in keep_set:
            g._check(v)
    sub = Graph()
    sub._adj = {v: g._adj[v] & keep_set for v in keep_set}
    sub._next_id = g._next_id
    return sub


def false_twins(g: Graph) -> dict[int, int]:
    """Each vertex with a smaller false twin, mapped to the least vertex of
    its class.

    u and v are false twins when N(u) = N(v); they are never adjacent.  The
    mapped vertices are the copies and their images the representatives.
    One pass groups the vertices by open neighbourhood in ascending id
    order, O(n + m).

    Deleting every copy leaves no false twins, so one pass is a fixpoint.
    Delete the copies one at a time, and suppose deleting a copy u of r
    made x and y false twins.  Then exactly one of them, say x, was
    adjacent to u.  Since x is in N(u) = N(r), r is in N(x) and, being
    kept and not u, in N(y) as well; so y is in N(r) = N(u), against the
    choice of x.

    The same holds for true twins, N[u] = N[v], grouped by closed
    neighbourhood, which `twin_core` relies on.  Suppose deleting a copy x
    of r made u and v true twins.  Then x sees exactly one of them, say u.
    Since N[x] = N[r], u is r or u ~ r.  If u is r, v is in N[u] so v ~ x;
    otherwise r is in N[u] = N[v] (r is kept, and not x), so v is in
    N[r] = N[x].  Either way v ~ x, against the choice of u.
    """
    return _copies(g._adj, False, sorted(g._adj))


def twin_core(g: Graph) -> Graph:
    """The induced subgraph left when twins are deleted, to a fixpoint.

    u and v are false twins when N(u) = N(v) and true twins when
    N[u] = N[v].  A deletion never splits two other twins, and a vertex
    with a false twin has no true twin, so twins of twins are twins: the
    core keeps the least id of each false-twin class and each true-twin
    class, repeated until nothing changes, and the order of the deletions
    does not matter.  A pattern without twins (C5, C7, C9, 2P4, co-C7) is
    an induced subgraph of g exactly when it is one of the core.  Ids and
    the id counter are kept, as in `induced_subgraph`.

    `patterns.check_class` calls it.  `solver.solve` holds the rank masks
    of each component of its quotient, and `patterns._twin_cut` finds the
    same vertices on them instead.

    Passes alternate between the kinds: false twins (open neighbourhoods),
    then true twins (closed ones), then false again, each deleting every
    vertex with a smaller twin of its kind.  One pass of either kind leaves
    no twins of that kind (see `false_twins`), so once a pass after the
    first deletes nothing, the graph has no twins of either kind.

    From the third pass on, every twin pair was made by the previous
    pass's deletions, and it holds the representative r of a vertex x that
    pass deleted: x saw exactly one of the pair, say u, and not v.  If x
    and r were true twins and u is not r, then u ~ r, so v ~ r and v ~ x.
    If they were false twins, u ~ r, and v, if not r, sees r in
    N[u] = N[v], so v ~ x.  Twins have equal degree, so such a pass keys
    only the vertices of a representative's degree.

    A threshold graph, whose twin pairs form one at a time, takes a pass
    per vertex, each keying a few vertices.  The first pass reads g's sets;
    the copy, made in ascending order so that its filters are too, keeps
    only what it spares, and later passes delete in place.
    """
    order = sorted(g._adj)
    drop = _copies(g._adj, False, order)
    adj = {v: g._adj[v].difference(drop) for v in order if v not in drop}
    closed = True
    keyed = adj
    while drop := _copies(adj, closed, keyed):
        for v in drop:
            for w in adj.pop(v):
                adj[w].discard(v)
        degrees = {len(adj[r]) for r in drop.values()}
        keyed = [v for v, nbrs in adj.items() if len(nbrs) in degrees]
        closed = not closed
    core = Graph()
    core._adj = adj
    core._next_id = g._next_id
    return core


def _copies(adj, closed: bool, keyed) -> dict[int, int]:
    """Each vertex of keyed (ascending) whose open neighbourhood (closed,
    with `closed`) equals a smaller one's, mapped to the least such vertex.

    A closed key is built by adding v to its own set and taking it out
    again, one new set instead of three; only `twin_core`'s own sets get
    closed passes."""
    least: dict[frozenset, int] = {}
    first = least.setdefault
    copies = {}
    for v in keyed:
        nv = adj[v]
        if closed:
            nv.add(v)
            rep = first(frozenset(nv), v)
            nv.discard(v)
        else:
            rep = first(frozenset(nv), v)
        if rep != v:
            copies[v] = rep
    return copies


def connected_components(g: Graph, within: Iterable[int] | None = None) -> list[set[int]]:
    """Connected components ordered by their smallest contained vertex id.

    With `within`, components of the induced subgraph on that vertex set.
    A stack walk adds to a component each vertex's neighbours not in it yet.
    """
    adj = g._adj
    keep = None if within is None else set(within)
    if keep is not None and not adj.keys() >= keep:
        for v in keep:
            g._check(v)
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in sorted(adj if keep is None else keep):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            new = adj[stack.pop()] - comp
            if keep is not None:
                new &= keep
            if new:
                comp |= new
                stack += new
        seen |= comp
        comps.append(comp)
    return comps
