"""Detectors for the induced subgraphs that drive the case analysis.

Every finder returns the canonical witness, the first hit of an ascending
scan with canonical tie-breaking, and self-verifies it before returning it.
Every induced cycle, the C5 of the class check as well as the C7 and C9
anchors, comes from one depth-first path grower.  The 2P4 search reaches
the same hit without sorting: it walks the sets unordered and keeps the
least hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import cograph
from .errors import ClassViolationError
from .graph import Graph, bipartition, odd_cycle_transversal, shortest_odd_cycle, twin_core


@dataclass(frozen=True)
class PatternWitness:
    """An induced forbidden pattern: kind plus one vertex tuple per part."""

    kind: str
    parts: tuple

    def vertices(self) -> list[int]:
        return [v for part in self.parts for v in part]


def _verify_induced(g: Graph, kind: str, seq, gaps) -> None:
    """Raise unless seq induces the pattern `kind` in g: the vertices at
    positions i < j are adjacent exactly when j - i is in gaps.  A path
    has gaps (1,), a k-cycle (1, k - 1), its complement the others, and
    a clique all of them."""
    for i, j in combinations(range(len(seq)), 2):
        if (seq[j] in g._adj[seq[i]]) != (j - i in gaps):
            raise AssertionError(f"bad {kind} witness {tuple(seq)}")


def iter_induced_p4s(g: Graph, within=None):
    """All induced P4s as canonical tuples (a,b,c,d) with a < d, lex order."""
    adj = g._adj
    verts = g.vertices() if within is None else sorted(within)
    vset = set(verts)
    for a in verts:
        na = adj[a]
        for b in sorted(na & vset):
            nb = adj[b]
            # set differences drop chord candidates in bulk, not one test each
            for c in sorted((nb & vset) - na):
                if c == a:
                    continue
                for d in sorted((adj[c] & vset) - na - nb):
                    if d > a:
                        yield (a, b, c, d)


def find_induced_p4(g: Graph, within=None):
    """Lexicographically least induced 4-vertex path (a,b,c,d), a < d."""
    path = next(iter_induced_p4s(g, within), None)
    if path is not None:
        _verify_induced(g, "path", path, (1,))
    return path


def find_induced_2p4(g: Graph, trans=None):
    """Two induced P4s with no edges between them, or None.

    A P4 a-b-c-d is scanned through its middle edge, b < c, as (b, c, a, d):
    a in N(b) - N[c], then d in N(c) - N[b] - N(a).  A 2P4
    through it exists exactly when the vertices outside N[{a, b, c, d}]
    are not a cograph, and they lie in X = V - N[b] - N[c] = V - N(b) - N(c),
    so an edge whose X has fewer than four vertices is skipped whole, on
    the count |X| = n - |N(b)| - |N(c)| + |N(b) & N(c)| before X is built.
    The intersection is taken only when the rest of the count is below four,
    and never when the odd-cycle transversal `trans` of g (computed when
    not given) is empty: adjacent b and c of a bipartite graph share no
    neighbour.
    The sets are walked in whatever order they iterate, with no sorting,
    and the scan keeps its least hit in (b, c, a, d) order, skipping every
    tuple that cannot beat it: the hit an ascending scan would meet first.
    A rest of four vertices is tested for a P4 on its degrees, and is its
    own failure set when it is one; a larger rest is tested once per call
    with `cograph.cotree_or_failure`.  The hit, written so that a < d, is
    the first part; the second is the least P4 of its rest's failure set.
    """
    n = g.vertex_count()
    if n < 8:
        return None
    if trans is None:
        trans = odd_cycle_transversal(g)
    adj = g._adj
    verts = set(adj)
    seen: dict[frozenset, frozenset | None] = {}
    best = bad = None
    for b, nb in adj.items():
        if best is not None and b > best[0]:
            continue
        for c in nb:
            if c < b or best is not None and (b, c) > best[:2]:
                continue
            nc = adj[c]
            free = n - len(nb) - len(nc)
            if free < 4 and (not trans or free + len(nb & nc) < 4):
                continue
            far = verts - nb - nc
            ends = nc - nb
            ends.discard(b)
            for a in nb - nc:
                if a == c or best is not None and (b, c, a) > best[:3]:
                    continue
                na = adj[a]
                far_a = far - na
                if len(far_a) < 4:
                    continue
                for d in ends - na:
                    if best is not None and (b, c, a, d) > best:
                        continue
                    rest = far_a - adj[d]
                    if len(rest) == 4:
                        hit = rest if _is_p4(adj, rest) else None
                    elif len(rest) > 4:
                        rest = frozenset(rest)
                        if rest not in seen:
                            seen[rest] = cograph.cotree_or_failure(g, rest)[1]
                        hit = seen[rest]
                    else:
                        continue
                    if hit is not None:
                        best, bad = (b, c, a, d), hit
    if best is None:
        return None
    b, c, a, d = best
    first = (a, b, c, d) if a < d else (d, c, b, a)
    _verify_induced(g, "path", first, (1,))
    second = find_induced_p4(g, within=bad)
    if second is None or any(adj[u].intersection(second) for u in first):
        raise AssertionError(f"bad 2p4 witness {first} {second}")
    return PatternWitness("2p4", (first, second))


def _is_p4(adj, quad) -> bool:
    """Whether four vertices induce a P4: degrees 1, 1, 2, 2 (the other
    graphs with three edges, a triangle plus a vertex and a star, have
    degrees 0, 2, 2, 2 and 1, 1, 1, 3)."""
    return sorted(len(adj[v] & quad) for v in quad) == [1, 1, 2, 2]


def find_induced_cycle(g: Graph, k: int, trans=None):
    """First induced k-cycle in canonical order, or None.

    Canonical form: the cycle's smallest vertex v0 first, then the
    lexicographically least (v1, ..., v_{k-1}) with v1 < v_{k-1}.

    For odd k the roots are bounded by an odd-cycle transversal T
    (`graph.odd_cycle_transversal`): g - T is bipartite, so every odd
    cycle meets T, and a cycle whose least vertex is v0 holds some t >= v0.
    So the root loop stops once v0 > max(T), and an empty T (g bipartite)
    answers None with no root at all.  A caller that already holds T for g
    passes it as trans; otherwise it is computed here.  `check_core` and
    the solver compute it once per core and skip the call when it is empty,
    so only direct callers meet that case.
    For k = 5 a decision runs first: each C5 is rooted at its least
    T-vertex, so T is walked in ascending order and each t searches only
    the vertices not yet used as a root.
    When it finds none, there is no C5; otherwise the canonical scan runs.

    One path grower serves every k: from each root v0 it grows a path
    v0, v1, ... in ascending order.  A vertex may follow path[i - 1] when it
    avoids N(v0) and N[path[j]] for every 1 <= j <= i - 2; the last one
    must instead be a neighbour of v0 above v1.  Those closed
    neighbourhoods are kept as one blocked set, grown by one union per
    step.
    """
    if k < 4:
        raise ValueError("use explicit triangle checks for k=3")
    adj = g._adj
    last = None
    if k % 2:
        if trans is None:
            trans = odd_cycle_transversal(g)
        trans = sorted(trans)
        if not trans or (k == 5 and not _has_c5(adj, trans)):
            return None
        last = trans[-1]
    for v0 in sorted(adj):
        if last is not None and v0 > last:
            break
        got = _find_long_cycle(adj, v0, k)
        if got is not None:
            _verify_induced(g, "cycle", got, (1, k - 1))
            return got
    return None


def _has_c5(adj, trans):
    """Whether an induced C5 exists, given an odd-cycle transversal T in
    ascending order.

    A C5 is found from its least T-vertex t: the vertices used as roots
    before t are all off the cycle.  From t, with R the vertices not yet
    used as roots and O = R - N[t], a C5 t-a-x-y-b takes a non-adjacent
    pair a < b in N(t) & R, x in N(a) - N(b) and y in N(b) - N(a), both in
    O, and x ~ y.  For each a, the y in O - N(a) that see some x are kept
    once, so a pair (a, b) whose b sees none of them costs one
    intersection with that small set.
    """
    rest = set(adj)
    for t in trans:
        rest.discard(t)
        up = sorted(adj[t] & rest)
        out = rest - adj[t]
        for i, a in enumerate(up[:-1]):
            na = adj[a]
            bs = [b for b in up[i + 1:] if b not in na]
            if not bs:
                continue
            xs = na & out
            if not xs:
                continue
            far = {y for y in out - na if not adj[y].isdisjoint(xs)}
            if not far:
                continue
            for b in bs:
                nb = adj[b]
                ys = nb & far
                if ys and any(not adj[x].isdisjoint(ys) for x in xs - nb):
                    return True
    return False


def _find_long_cycle(adj, v0, k):
    n0 = adj[v0]

    def extend(path, blocked):
        last = path[-1]
        if len(path) == k - 1:
            ends = (adj[last] & n0) - blocked
            ends = [w for w in ends if w > path[1]]
            return tuple(path) + (min(ends),) if ends else None
        for cand in sorted(adj[last] - blocked - n0):
            if cand <= v0:
                continue
            got = extend(path + [cand], blocked | adj[last] | {last})
            if got is not None:
                return got
        return None

    for v1 in sorted(w for w in n0 if w > v0):
        # N(v0) stays out of the blocked set: the closing vertex lies in it
        got = extend([v0, v1], set())
        if got is not None:
            return got
    return None


def find_co_c7(g: Graph):
    """An induced complement-of-C7, as the complement cycle order, or None.

    In the complement cycle order u0..u6 (u_i ~ u_j unless i and j are
    cyclically consecutive), N(u0) meets the pattern in {u2, u3, u4, u5},
    which induces the path u4-u2-u5-u3; u1 sees u4, u5 and u3 but not u2;
    u6 sees u4, u2 and u3 but not u5; u1 ~ u6, and both miss N[u0].  Those
    21 adjacencies are the whole pattern.  So for each u0 and each induced
    P4 (a, b, c, d) in N(u0), an adjacent pair u1 in
    N(a) & N(c) & N(d) - N(b) - N[u0] and u6 in
    N(a) & N(b) & N(d) - N(c) - N[u0] gives (u0, u1, b, d, a, c, u6).
    The reflection i -> -i fixes u0, swaps u1 with u6 and reverses the
    path, so the one orientation of each P4 that `iter_induced_p4s` yields
    is enough.  co-C7 is vertex-transitive, so u0 can be the pattern's
    least vertex: the search stays above u0.
    """
    adj = g._adj
    verts = g.vertices()
    for i, u0 in enumerate(verts):
        n0 = adj[u0]
        up = {v for v in n0 if v > u0}
        # u0 is the least pattern vertex: 4 neighbours and 2 non-neighbours above it
        if len(up) < 4 or len(verts) - 1 - i - len(up) < 2:
            continue
        # u0 sees an induced P4 above it, so an independent `up` has none
        if all(adj[v].isdisjoint(up) for v in up):
            continue
        for a, b, c, d in iter_induced_p4s(g, within=up):
            na, nb, nc = adj[a], adj[b], adj[c]
            outer = {v for v in (na & adj[d]) - n0 if v > u0}
            p6 = (outer & nb) - nc
            if not p6:
                continue
            for u1 in sorted((outer & nc) - nb):
                ends = adj[u1] & p6
                if ends:
                    got = (u0, u1, b, d, a, c, min(ends))
                    _verify_induced(g, "co-C7", got, (2, 3, 4, 5))
                    return got
    return None


def find_nonbipartite_neighborhood(g: Graph):
    """First vertex (ascending) whose neighborhood holds an odd cycle.

    Returns a PatternWitness: kind k4 for a triangle in the neighborhood,
    c5/c7/c9 for longer odd holes (a shortest odd cycle is chordless, and
    chordless within an induced neighborhood means induced in g).  An odd
    hole of length >= 11 in a neighborhood proves the graph is outside the
    class, so that case raises ClassViolationError with a 2P4 witness cut
    from the cycle.

    `solver.solve` calls this on the 3-core of its false-twin quotient.  On
    a graph with false twins a copy repeats its representative's scan,
    which comes first and so has already passed.
    """
    for v in g.vertices():
        nv = g._adj[v]
        # an odd cycle needs three vertices; one BFS settles the common
        # bipartite case; the per-vertex BFS of shortest_odd_cycle runs only
        # on a neighborhood that has an odd cycle
        if len(nv) < 3 or bipartition(g, within=nv) is not None:
            continue
        cyc = shortest_odd_cycle(g, within=nv)
        if len(cyc) == 3:
            part = tuple([v] + sorted(cyc))
            _verify_induced(g, "k4", part, (1, 2, 3))
            return PatternWitness("k4", (part,))
        _verify_induced(g, "cycle", cyc, (1, len(cyc) - 1))
        if len(cyc) <= 9:
            return PatternWitness({5: "c5", 7: "c7", 9: "c9"}[len(cyc)], (tuple(cyc),))
        first = tuple(cyc[0:4])
        second = tuple(cyc[5:9])
        for part in (first, second):
            _verify_induced(g, "path", part, (1,))
        raise ClassViolationError(PatternWitness("2p4", (first, second)))
    return None


def check_class(g: Graph):
    """A witness that g is outside the (2P4,C5)-free class, or None.

    Both scans run on `graph.twin_core(g)`.  Neither C5 nor 2P4 has twins
    (no two of its vertices have equal open or closed neighbourhoods).
    Each step of the core deletes a vertex u that has a twin v in what is
    left; an induced copy of the pattern cannot hold both, since they would
    be twins in it, so a copy through u becomes one through v.  So g holds
    the pattern exactly when its core does.  The core is an induced
    subgraph of g with g's ids, so a witness is one in g.

    The core keeps the least id of each twin class, so v < u, and putting v
    in u's place on an induced cycle gives one that comes earlier in
    canonical order.  So the first C5 of `find_induced_cycle` on g is on
    the core and is the one returned.  For a 2P4, a hit of
    `find_induced_2p4` is a P4 P whose outside, V - N[P], is not a
    cograph.  Putting v in u's place on P leaves N[P] unchanged and moves
    the hit earlier in the scan's (b, c, a, d) order, and a deletion
    outside N[P] leaves the outside a non-cograph (a P4 in it through u
    goes through v instead).  So the first hit on g avoids every deleted
    vertex, the first hit on the core is the same P4, and the first part
    of a 2P4 witness is the one found on g; the second part may differ.

    The certificates of `check_core` (a bipartite core, two cliques), the
    transversal bound on the C5 roots and the order-free C5 decision that
    runs before the C5 scan only skip work that finds nothing, and the 2P4
    scan skips only tuples that come after its least hit, so they change
    no witness.  The core is built in passes that each delete one kind of
    twin.  The README gives measured costs.
    """
    return check_core(twin_core(g))


def check_core(core: Graph, trans=None):
    """The C5 scan, then the 2P4 scan, of `check_class`, run on `core` as
    given.  The verdict holds for any graph; a caller that has already built
    a twin core passes it here and gets the witness `check_class` argues.
    trans is an odd-cycle transversal of core
    (`graph.odd_cycle_transversal`), shared by both scans: a caller that
    holds one passes it, and otherwise it is built here, after the
    two-clique test, which needs none.

    A core whose complement is bipartite (two cliques) is in class, and
    answers None with no scan: C5 is self-complementary and odd, so an
    induced C5 would be an odd cycle of the complement, and the complement
    of 2P4 is the join of two P4s, which holds a triangle.  Two cliques of
    a and n - a vertices hold at least n(n - 2)/4 edges, the least at
    a = n/2, so a core with fewer edges skips the complement's search on
    one count.  A core with an empty transversal is bipartite and has no
    odd cycle, so it skips the C5 scan, and its 2P4 scan counts each edge's
    far side without an intersection; on any other core the C5 scan tries
    only the roots that `find_induced_cycle` bounds by the transversal.
    """
    adj = core._adj
    n = len(adj)
    if 2 * sum(map(len, adj.values())) >= n * (n - 2) and _co_bipartite(adj):
        return None
    if trans is None:
        trans = odd_cycle_transversal(core)
    if trans:
        c5 = find_induced_cycle(core, 5, trans)
        if c5 is not None:
            return PatternWitness("c5", (c5,))
    return find_induced_2p4(core, trans)


def _co_bipartite(adj) -> bool:
    """Whether the complement of the graph is bipartite.

    A breadth-first search of the complement, layer by layer: the next
    layer is what the unreached vertices miss of the current one, and the
    complement is bipartite exactly when no layer holds one of its edges,
    a pair of vertices not adjacent here.
    """
    unseen = set(adj)
    while unseen:
        layer = {unseen.pop()}
        while layer:
            nxt: set[int] = set()
            for u in layer:
                if len(layer - adj[u]) > 1:
                    return False
                nxt |= unseen - adj[u]
            unseen -= nxt
            layer = nxt
    return True
