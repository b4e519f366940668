"""Mutable simple undirected graphs with stable integer vertex ids."""

from __future__ import annotations

from collections import deque
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


def twin_core(g: Graph, copies: dict[int, int] | None = None) -> Graph:
    """The induced subgraph left when twins are deleted, to a fixpoint.

    u and v are false twins when N(u) = N(v) and true twins when
    N[u] = N[v].  A deletion never splits two other twins, and a vertex
    with a false twin has no true twin, so twins of twins are twins: the
    core keeps the least id of each false-twin class and each true-twin
    class, repeated until nothing changes, and the order of the deletions
    does not matter.  A pattern without twins (C5, C7, C9, 2P4, co-C7) is
    an induced subgraph of g exactly when it is one of the core.  Ids and
    the id counter are kept, as in `induced_subgraph`.  copies, when
    given, is `false_twins(g)`, and stands in for the first pass.

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
    drop = _copies(g._adj, False, order) if copies is None else copies
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
    """
    verts = g._adj if within is None else set(within)
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in sorted(verts):
        if start in seen:
            continue
        g._check(start)
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g._adj[u]:
                if w in verts and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def bipartition(g: Graph, within: Iterable[int] | None = None) -> tuple[set[int], set[int]] | None:
    """Two-color the (sub)graph, or return None when some component is odd.

    Within each component the side holding the component's smallest vertex
    id is assigned to the first set, which makes the result deterministic
    (the first set always contains the globally smallest vertex id).
    """
    adj = g._adj
    verts = adj if within is None else set(within)
    side: dict[int, int] = {}
    first: set[int] = set()
    second: set[int] = set()
    for start in sorted(verts):
        if start in side:
            continue
        g._check(start)
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u] if within is None else adj[u] & verts:
                if w not in side:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    for v, s in side.items():
        (first if s == 0 else second).add(v)
    return first, second


def odd_cycle_transversal(g: Graph) -> set[int]:
    """A vertex set T such that g - T is bipartite; empty exactly when g is.

    Each component is searched breadth first from its least vertex.  An
    edge joins two BFS layers at most one apart, so coloring each vertex by
    the parity of its layer leaves monochromatic only the edges inside a
    layer.  T holds the smaller end of each of them: the vertices with a
    larger neighbour in their own layer.  So every odd cycle of g, induced
    or not, meets T.  The layers are fixed by the graph, so T does not
    depend on the order of set iteration.
    """
    adj = g._adj
    depth: dict[int, int] = {}
    trans: set[int] = set()
    for start in sorted(adj):
        if start in depth:
            continue
        depth[start] = 0
        queue = [start]
        # the queue grows as it is walked; a layer is complete before its
        # first vertex is reached, so an edge inside it is seen from both ends
        for u in queue:
            du = depth[u]
            for w in adj[u]:
                if w not in depth:
                    depth[w] = du + 1
                    queue.append(w)
                elif w > u and depth[w] == du:
                    trans.add(u)
    return trans


def complement_components(g: Graph, within: Iterable[int] | None = None) -> list[set[int]]:
    """Connected components of the complement, without materializing it.

    Uses the standard unvisited-set BFS so the cost stays near-linear in
    the size of the original graph even when the complement is dense.
    """
    verts = set(g._adj) if within is None else set(within)
    for v in verts:
        g._check(v)
    unvisited = set(verts)
    comps: list[set[int]] = []
    while unvisited:
        start = min(unvisited)
        unvisited.discard(start)
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            reach = unvisited - g._adj[u]
            unvisited &= g._adj[u]
            for w in reach:
                comp.add(w)
                queue.append(w)
        comps.append(comp)
    comps.sort(key=min)
    return comps


def shortest_odd_cycle(g: Graph, within: Iterable[int] | None = None) -> list[int] | None:
    """A shortest odd cycle of the (sub)graph, or None when bipartite.

    A shortest odd cycle is always chordless, so the returned vertex list
    induces a cycle.  Runs one BFS per vertex and keeps the global best.
    """
    verts = sorted(g._adj) if within is None else sorted(within)
    vset = set(verts)
    best: list[int] | None = None
    for root in verts:
        dist = {root: 0}
        parent = {root: root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and dist[u] * 2 + 1 >= len(best):
                break
            for w in g._adj[u]:
                if w not in vset:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif dist[w] == dist[u]:
                    cycle = _lift_cycle(parent, u, w)
                    if best is None or len(cycle) < len(best):
                        best = cycle
    return best


def _lift_cycle(parent: dict[int, int], u: int, w: int) -> list[int]:
    """The odd cycle closed by the edge uw between two BFS vertices at one
    depth d: both tree paths up to their lowest common ancestor, at depth
    d_lca, share no other vertex, so it has 2(d - d_lca) + 1 distinct
    vertices."""
    pu = [u]
    pw = [w]
    while parent[pu[-1]] != pu[-1]:
        pu.append(parent[pu[-1]])
    while parent[pw[-1]] != pw[-1]:
        pw.append(parent[pw[-1]])
    sw = set(pw)
    meet = next(x for x in pu if x in sw)
    cu = pu[: pu.index(meet) + 1]
    cw = pw[: pw.index(meet)]
    return cu + cw[::-1]
