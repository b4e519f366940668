"""Independent oracles, graph generators, and a differential fuzz driver.

Everything here is deliberately naive.  The oracles re-derive answers by
exhaustive search so the solver and detector modules can be checked
against code that shares none of their logic.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from random import Random

from . import patterns, solver
from .errors import GenerationError
from .graph import Graph, connected_components, induced_subgraph

ALL = (1, 2, 3)

# drafts tried / drafts accepted, per guaranteed-class generator; tests read
# this to confirm rejection sampling stays cheap
generation_stats: dict[str, int] = {}


def _tally(key: str, by: int = 1) -> None:
    generation_stats[key] = generation_stats.get(key, 0) + by

_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def split_seed(seed: int, *path: int) -> int:
    """Derive an independent 64-bit stream seed from a root seed and path."""
    x = seed & _MASK
    for step in path:
        x = (x + _GOLD + (step & _MASK)) & _MASK
        x = ((x ^ (x >> 30)) * _MIX1) & _MASK
        x = ((x ^ (x >> 27)) * _MIX2) & _MASK
        x ^= x >> 31
    return x


# -- oracles ------------------------------------------------------------------


def verify_coloring(g: Graph, coloring: dict) -> bool:
    """Plain proper-coloring check with colors drawn from 1..3."""
    for v in g.vertices():
        if coloring.get(v) not in ALL:
            return False
        for w in g.neighbors(v):
            if coloring.get(w) == coloring.get(v):
                return False
    return True


def oracle_list3color(g: Graph, palettes: dict | None = None) -> dict | None:
    """Exhaustive list-coloring oracle: backtracking with forward checking."""
    verts = g.vertices()
    if len(verts) > 24:
        warnings.warn("oracle coloring call on a large graph", RuntimeWarning)
    if palettes is None:
        avail = {v: {1, 2, 3} for v in verts}
    else:
        avail = {v: set(palettes[v]) for v in verts}
    if any(not s for s in avail.values()):
        return None
    assign: dict[int, int] = {}

    def pick():
        best = None
        key = None
        for v in verts:
            if v in assign:
                continue
            k = (len(avail[v]), v)
            if key is None or k < key:
                best, key = v, k
        return best

    def go():
        v = pick()
        if v is None:
            return True
        for c in sorted(avail[v]):
            assign[v] = c
            pruned = []
            dead = False
            for w in g.neighbors(v):
                if w not in assign and c in avail[w]:
                    avail[w].discard(c)
                    pruned.append(w)
                    if not avail[w]:
                        dead = True
            if not dead and go():
                return True
            for w in pruned:
                avail[w].add(c)
            del assign[v]
        return False

    return dict(assign) if go() else None


def count_proper_3colorings(g: Graph) -> int:
    """Count all proper colorings with colors 1..3 by direct enumeration."""
    verts = g.vertices()
    if len(verts) > 20:
        raise ValueError("coloring count supported up to 20 vertices")
    total = 0

    def go(i):
        nonlocal total
        if i == len(verts):
            total += 1
            return
        v = verts[i]
        for c in ALL:
            if all(assign.get(w) != c for w in g.neighbors(v)):
                assign[v] = c
                go(i + 1)
                del assign[v]

    assign: dict[int, int] = {}
    go(0)
    return total


def naive_has_p4(g: Graph) -> bool:
    adj = {v: g.neighbors(v) for v in g.vertices()}
    return any(_is_path4(adj, quad) for quad in combinations(sorted(adj), 4))


def _is_path4(adj, quad) -> bool:
    # exactly a path on 4 vertices: degrees 1,1,2,2 (3 edges; K3 + K1 and
    # the star, the other graphs with 3 edges, have degrees 0,2,2,2 and 1,1,1,3)
    inside = set(quad)
    return sorted(len(adj[v] & inside) for v in quad) == [1, 1, 2, 2]


def naive_has_2p4(g: Graph) -> bool:
    """Some pair of induced P4s, each missing the other's closed
    neighbourhood, so that they share no vertex and no edge joins them."""
    adj = {v: g.neighbors(v) for v in g.vertices()}
    quads = [q for q in combinations(sorted(adj), 4) if _is_path4(adj, q)]
    for i, qa in enumerate(quads):
        closed = set(qa).union(*(adj[a] for a in qa))
        if any(closed.isdisjoint(qb) for qb in quads[i + 1:]):
            return True
    return False


def naive_has_cycle(g: Graph, k: int) -> bool:
    """Induced k-cycle test by subset enumeration."""
    for sub in combinations(g.vertices(), k):
        degs = [sum(1 for w in sub if w != v and g.has_edge(v, w)) for v in sub]
        if any(d != 2 for d in degs):
            continue
        if len(connected_components(g, within=set(sub))) == 1:
            return True
    return False


def reference_induced_cycle(g: Graph, k: int):
    """The first induced k-cycle of a plain depth-first search, or None.

    Paths grow from each start vertex v0 in ascending order through
    ascending neighbours above v0, testing each candidate for chords one
    edge at a time; the closing vertex is a neighbour of v0 above the
    second vertex.  So the result is the canonical cycle that
    `patterns.find_induced_cycle` must return.
    """
    if k < 4:
        raise ValueError("use explicit triangle checks for k=3")

    def extend(path):
        i = len(path)
        v0 = path[0]
        closing = i == k - 1
        lo = 1 if closing else 0
        for cand in g.sorted_neighbors(path[-1]):
            if cand <= v0 or cand in path:
                continue
            if any(g.has_edge(cand, path[j]) for j in range(lo, i - 1)):
                continue
            if closing:
                if cand < path[1] or not g.has_edge(cand, v0):
                    continue
                return tuple(path) + (cand,)
            got = extend(path + [cand])
            if got is not None:
                return got
        return None

    for v0 in g.vertices():
        got = extend([v0])
        if got is not None:
            return got
    return None


def reference_2p4_first_part(g: Graph):
    """The first part of a 2P4 in the scan order of
    `patterns.find_induced_2p4`, or None when g has no 2P4.

    A plain search over the induced P4s a-b-c-d by their middle edge b < c,
    in ascending (b, c, a, d) order, testing one pair for an edge at a
    time.  The first P4 whose outside, the vertices that see none of
    a, b, c, d, holds an induced P4 (`naive_has_p4`) is returned with its
    smaller end first.
    """
    verts = g.vertices()
    for b in verts:
        for c in g.sorted_neighbors(b):
            if c < b:
                continue
            for a in g.sorted_neighbors(b):
                if a == c or g.has_edge(a, c):
                    continue
                for d in g.sorted_neighbors(c):
                    if d == b or g.has_edge(d, a) or g.has_edge(d, b):
                        continue
                    path = (a, b, c, d)
                    outside = [v for v in verts if v not in path
                               and not any(g.has_edge(v, u) for u in path)]
                    if naive_has_p4(induced_subgraph(g, outside)):
                        return path if a < d else path[::-1]
    return None


def naive_has_k4(g: Graph) -> bool:
    for quad in combinations(g.vertices(), 4):
        if all(g.has_edge(a, b) for a, b in combinations(quad, 2)):
            return True
    return False


def naive_has_co_c7(g: Graph) -> bool:
    for sub in combinations(g.vertices(), 7):
        degs = [sum(1 for w in sub if w != v and not g.has_edge(v, w)) for v in sub]
        if any(d != 2 for d in degs):
            continue
        comp = Graph()
        for v in sub:
            comp.add_vertex(v)
        for a, b in combinations(sub, 2):
            if not g.has_edge(a, b):
                comp.add_edge(a, b)
        if len(connected_components(comp)) == 1:
            return True
    return False


def naive_in_class(g: Graph) -> bool:
    return not naive_has_cycle(g, 5) and not naive_has_2p4(g)


# -- generators ---------------------------------------------------------------


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    if not (n >= 0 and 0 <= p <= 1):
        raise ValueError(f"erdos-renyi needs n >= 0 and 0 <= p <= 1, got n={n}, p={p}")
    rng = Random(seed)
    g = Graph()
    ids = [g.add_vertex() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(ids[i], ids[j])
    return g


def path_graph(n: int) -> Graph:
    g = Graph()
    ids = [g.add_vertex() for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b)
    return g


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    g = path_graph(n)
    ids = g.vertices()
    g.add_edge(ids[-1], ids[0])
    return g


def complete_graph(n: int) -> Graph:
    g = Graph()
    ids = [g.add_vertex() for _ in range(n)]
    for a, b in combinations(ids, 2):
        g.add_edge(a, b)
    return g


def petersen_graph() -> Graph:
    g = Graph()
    outer = [g.add_vertex() for _ in range(5)]
    inner = [g.add_vertex() for _ in range(5)]
    for i in range(5):
        g.add_edge(outer[i], outer[(i + 1) % 5])
        g.add_edge(inner[i], inner[(i + 2) % 5])
        g.add_edge(outer[i], inner[i])
    return g


def co_c7_graph() -> Graph:
    """Complement of the 7-cycle."""
    g = Graph()
    ids = [g.add_vertex() for _ in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            if j - i not in (1, 6):
                g.add_edge(ids[i], ids[j])
    return g


def cycle_blowup(sizes, cliques=()) -> Graph:
    """C_k with vertex i replaced by a class of sizes[i] vertices.

    Classes i and i+1 (mod k) are completely joined.  A class listed in
    `cliques` is a clique (true twins); every other class is an
    independent set (false twins).  Ids run class by class from 1.

    With independent classes and k in (7, 9) the result is in class and
    3-colorable: no two vertices of C5 or 2P4 are twins, so an induced copy
    takes at most one vertex per class and would be an induced subgraph of
    C_k, which has neither; a blowup takes C_k's coloring class by class.
    """
    k = len(sizes)
    g = Graph()
    classes = [[g.add_vertex() for _ in range(size)] for size in sizes]
    for i in cliques:
        for a, b in combinations(classes[i], 2):
            g.add_edge(a, b)
    for i in range(k):
        for a in classes[i]:
            for b in classes[(i + 1) % k]:
                g.add_edge(a, b)
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}, sides on ids 1..a and a+1..a+b."""
    g = Graph()
    left = [g.add_vertex() for _ in range(a)]
    for _ in range(b):
        v = g.add_vertex()
        for u in left:
            g.add_edge(u, v)
    return g


def crown_graph(n: int) -> Graph:
    """The crown graph S_n: K_{n,n} minus a perfect matching.

    Sides are ids 1..n and n+1..2n, and i is joined to n + j unless i = j.
    It is bipartite, so it has no odd cycle, and it has no 2P4: in a
    bipartite graph an end of the first P4 misses the other end and the two
    vertices of the second P4 on the other side, three non-neighbours
    there, and each vertex here has one.  For n >= 3 no two vertices are
    twins, so nothing shrinks it before the pattern scans.
    """
    g = Graph()
    left = [g.add_vertex() for _ in range(n)]
    right = [g.add_vertex() for _ in range(n)]
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            if i != j:
                g.add_edge(u, v)
    return g


def apex_crown(n: int) -> Graph:
    """S_n plus an apex 2n + 1 joined to both ends of the edge 1, n + 2.

    It is in class.  The apex's two neighbours are adjacent, so the only
    induced cycle through it is a triangle, and S_n is bipartite: there is
    no odd hole, so no C5.  A P4 of S_n is i, n + j, k, n + i with i, j, k
    distinct (its ends are on opposite sides and not adjacent), and i and
    n + i between them see every other vertex of S_n, so every vertex of
    S_n off the P4 sees it.  So a 2P4 has no part inside S_n, since the
    other part has three vertices there; both parts would need the apex.
    It is 3-colorable: one side 1, the other 2, the apex 3.  For n >= 3 no
    two vertices are twins.
    """
    g = crown_graph(n)
    apex = g.add_vertex()
    g.add_edge(apex, 1)
    g.add_edge(apex, n + 2)
    return g


def co_bipartite(n: int, p: float, seed: int) -> Graph:
    """The complement of a seeded random bipartite graph on n vertices.

    The bipartite graph has sides 1..n // 2 and the rest, and joins each
    pair across them with probability p; so here each side is a clique, and
    a pair across is an edge exactly when the bipartite graph lacks it.

    The result is in class: an induced C5 here would be one in the
    bipartite graph, since C5 is self-complementary, and the complement of
    2P4 holds a K4, which a bipartite graph cannot.  A side of four or more
    vertices is a K4, so such a graph is not 3-colorable.
    """
    rng = Random(seed)
    g = Graph()
    ids = [g.add_vertex() for _ in range(n)]
    half = n // 2
    for i, j in combinations(range(n), 2):
        across = i < half <= j
        if not across or rng.random() >= p:
            g.add_edge(ids[i], ids[j])
    return g


def threshold_graph(n: int) -> Graph:
    """Vertex i is isolated for even i and dominating for odd i on arrival.

    Its cotree alternates union and join nodes, so it is n - 1 levels deep.
    """
    g = Graph()
    for i in range(n):
        v = g.add_vertex()
        if i % 2:
            for w in range(1, v):
                g.add_edge(v, w)
    return g


def named_graph(name: str) -> Graph:
    name = name.lower()
    if name == "petersen":
        return petersen_graph()
    if name == "k4":
        return complete_graph(4)
    if name == "co_c7":
        return co_c7_graph()
    if name.startswith("c") and name[1:].isdigit():
        return cycle_graph(int(name[1:]))
    if name.startswith("p") and name[1:].isdigit():
        return path_graph(int(name[1:]))
    raise ValueError(f"unknown graph name: {name}")


def _anchored_base(k: int) -> tuple[Graph, list]:
    g = Graph()
    anchors = [g.add_vertex() for _ in range(k)]
    for i in range(k):
        g.add_edge(anchors[i], anchors[(i + 1) % k])
    return g, anchors


def _attach(g, anchors, supports, extra_edges=()):
    """Add one vertex adjacent to the given anchor positions and extras."""
    v = g.add_vertex()
    for i in supports:
        g.add_edge(v, anchors[i])
    for w in extra_edges:
        g.add_edge(v, w)
    return v


def _blob(g, anchors, rng, max_side=3):
    """Complete-bipartite blob fully joined to one random anchor."""
    host = anchors[rng.randrange(len(anchors))]
    left = [g.add_vertex() for _ in range(rng.randint(1, max_side))]
    right = [g.add_vertex() for _ in range(rng.randint(1, max_side))]
    for a in left:
        for b in right:
            g.add_edge(a, b)
    for v in left + right:
        g.add_edge(v, host)


def _gadget_single_anchor(g, anchors, r):
    # hub with three one-anchor arms two steps apart
    hub = g.add_vertex()
    _attach(g, anchors, ((0 + r) % 7,), (hub,))
    _attach(g, anchors, ((2 + r) % 7,), (hub,))
    _attach(g, anchors, ((4 + r) % 7,), (hub,))


def _gadget_opposing_rims(g, anchors, r):
    # one rim on each of two opposing anchor pairs, tied to a shared
    # triangle; the full join between the rims' attachment sets keeps the
    # block P4-free
    x1 = g.add_vertex()
    x2 = g.add_vertex()
    a = g.add_vertex()
    b = g.add_vertex()
    bp = g.add_vertex()
    for i in ((0 + r) % 7, (2 + r) % 7):
        g.add_edge(x1, anchors[i])
    for i in ((3 + r) % 7, (5 + r) % 7):
        g.add_edge(x2, anchors[i])
    g.add_edge(x1, a)
    g.add_edge(x2, b)
    g.add_edge(x2, bp)
    g.add_edge(a, b)
    g.add_edge(a, bp)
    g.add_edge(b, bp)


_C7_TEMPLATES = ("plain", "single_anchor", "opposing_pair", "component_cases")


def c7_gadget(seed: int, decorate: bool = True) -> Graph:
    """In-class graph built around an induced 7-cycle.

    Templates target specific solver stages; random blobs and an anchor
    rotation vary the surroundings.  Out-of-class drafts are discarded
    and retried with a fresh stream.
    """
    for attempt in range(200):
        rng = Random(split_seed(seed, attempt))
        g, anchors = _anchored_base(7)
        kind = _C7_TEMPLATES[rng.randrange(len(_C7_TEMPLATES))]
        if kind == "single_anchor":
            _gadget_single_anchor(g, anchors, rng.randrange(7))
        elif kind == "opposing_pair":
            # rotation 0 lands the two rim classes on an opposing index
            # pair of the anchored cycle
            _gadget_opposing_rims(g, anchors, 0)
        elif kind == "component_cases":
            # rotations 1..3 shift the anchoring so the surviving rim
            # class faces a lone full-palette vertex
            _gadget_opposing_rims(g, anchors, rng.randrange(1, 4))
        if kind in ("plain", "single_anchor") and decorate:
            for _ in range(rng.randrange(3)):
                if g.vertex_count() <= 14:
                    _blob(g, anchors, rng)
        _tally("c7_drafts")
        if g.vertex_count() > 20:
            continue
        if patterns.check_class(g) is None:
            _tally("c7_accepted")
            return g
    raise GenerationError("no in-class 7-cycle gadget found for this seed")


def c9_gadget(seed: int) -> Graph:
    """In-class graph around an induced 9-cycle and no induced 7-cycle."""
    for attempt in range(200):
        rng = Random(split_seed(seed, 1, attempt))
        g, anchors = _anchored_base(9)
        for _ in range(rng.randrange(4)):
            i = rng.randrange(9)
            _attach(g, anchors, (i, (i + 2) % 9))
        _tally("c9_drafts")
        if patterns.check_class(g) is not None:
            continue
        if patterns.find_induced_cycle(g, 7) is None:
            _tally("c9_accepted")
            return g
    raise GenerationError("no in-class 9-cycle gadget found for this seed")


_THICKEN_STEPS = 60


def thicken(g: Graph, seed: int) -> Graph:
    """A copy of g grown toward minimum degree 3, staying in class.

    Each of up to 60 steps picks a vertex v of degree below 3 and either
    joins it to a random non-neighbour or adds a new vertex joined to v
    and to two random other vertices.  A step is kept only if the graph
    stays in class and no neighbourhood holds an odd cycle, so the result
    passes both checks whenever g does.  `solver.solve` peels a plain
    gadget whole; a thickened one often keeps a 3-core that the anchor
    search, the fixpoint and the stages run on.
    """
    rng = Random(seed)
    h = g.copy()
    for _ in range(_THICKEN_STEPS):
        low = [v for v in h.vertices() if len(h._adj[v]) < 3]
        # on four or more vertices, v has a non-neighbour and three others
        if not low or len(h) < 4:
            break
        v = rng.choice(low)
        others = [w for w in h.vertices() if w != v]
        trial = h.copy()
        hub = v
        if rng.random() < 0.5:
            trial.add_edge(v, rng.choice([w for w in others if w not in h.neighbors(v)]))
        else:
            hub = trial.add_vertex()
            for w in (v, *rng.sample(others, 2)):
                trial.add_edge(hub, w)
        # a C5 the step makes runs through hub; that cheap test rejects
        # most steps before the full check
        if (not patterns._has_c5(trial._adj, (hub,))
                and patterns.check_class(trial) is None
                and patterns.find_nonbipartite_neighborhood(trial) is None):
            h = trial
    return h


def cograph_composite(n: int, seed: int) -> Graph:
    """Large benchmark graph: a 7-cycle spine with blob attachments.

    Grows complete-bipartite blobs, each fully joined to one spine
    vertex, until n vertices are reached.  The result is meant for the
    assume-class solver path; it is not guaranteed to stay in class.
    """
    if n < 7:
        raise ValueError("composite needs at least 7 vertices")
    rng = Random(split_seed(seed, 2))
    g, anchors = _anchored_base(7)
    host = 0
    while g.vertex_count() < n:
        room = n - g.vertex_count()
        side_a = min(rng.randint(1, 4), room)
        side_b = min(rng.randint(1, 4), max(room - side_a, 1)) if room > side_a else 0
        left = [g.add_vertex() for _ in range(side_a)]
        right = [g.add_vertex() for _ in range(side_b)]
        for a in left:
            for b in right:
                g.add_edge(a, b)
        anchor = anchors[host % 7]
        host += 1
        for v in left + right:
            g.add_edge(v, anchor)
    return g


# -- differential fuzzing -----------------------------------------------------


@dataclass
class FuzzReport:
    cases: int = 0
    in_class: int = 0
    mismatches: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    witness_checked: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations

    def summary(self) -> str:
        return (f"{self.cases} cases, {self.in_class} in class, "
                f"{len(self.mismatches)} mismatches, "
                f"{len(self.violations)} invariant violations "
                f"({self.elapsed:.1f}s)")


def _case_record(g, note):
    return {"edges": list(g.edges()), "vertices": g.vertices(), "note": note}


def graph_from_record(record) -> Graph:
    """Rebuild the graph captured in a fuzz mismatch record."""
    return Graph.from_edges(record["vertices"], record["edges"])


_FUZZ_PROBABILITIES = (0.15, 0.25, 0.4)


def differential_fuzz(budget: int, seed: int, sizes=(8, 10, 12, 14, 16),
                      generator=None) -> FuzzReport:
    """Run the solver against the exhaustive oracle on random graphs.

    Out-of-class samples are discarded.  A solve that raises (a stage's
    StageAssertionError among others) is recorded as a violation; a wrong
    verdict or a bad witness as a mismatch.
    """
    report = FuzzReport()
    start = time.monotonic()
    for i in range(budget):
        rng = Random(split_seed(seed, 3, i))
        if generator is None:
            n = sizes[rng.randrange(len(sizes))]
            p = _FUZZ_PROBABILITIES[rng.randrange(len(_FUZZ_PROBABILITIES))]
            g = erdos_renyi(n, p, split_seed(seed, 4, i))
        else:
            g = generator(split_seed(seed, 4, i))
        report.cases += 1
        if patterns.check_class(g) is not None:
            continue
        report.in_class += 1
        expected = oracle_list3color(g)
        try:
            got = solver.solve(g, witness=True)
        except Exception as exc:  # any solver failure is a finding
            report.violations.append(
                _case_record(g, f"{type(exc).__name__}: {exc}"))
            continue
        want = "colorable" if expected is not None else "not_colorable"
        if got.decision != want:
            report.mismatches.append(
                _case_record(g, f"solver={got.decision} oracle={want}"))
            continue
        if got.decision == "colorable":
            if got.witness is None or not verify_coloring(g, got.witness):
                report.mismatches.append(_case_record(g, "bad witness"))
                continue
            report.witness_checked += 1
    report.elapsed = time.monotonic() - start
    return report
