"""Seeded instance families for the hered3 benchmark.

Every workload is a list of cases built from one seed.  A case carries the
generated graph, the edge-list text the program receives (vertex labels and
line order shuffled, so the parser's ids, and with them every ascending
scan, do not follow construction order), and the verdict and class
membership it must get.  Known answers come from the construction, argued in
each generator's docstring; `oracle_check` cross-checks the small ones
against the exhaustive oracle.

Imports `hered3`, so `src` must be on the path first (run.py does that).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from hered3 import testkit
from hered3.graph import Graph

ORACLE_LIMIT = 20  # vertices; the exhaustive oracle settles every case up to this

# Generator parameters per workload.  The smoke test shrinks them.  Pool
# sizes go with run.PASSES: together they fix the work of a run.
PARAMS = {
    # 3:1 mix of 7-cycle and 9-cycle gadgets, each at most 20 vertices
    "gadgets": {"pool": 300, "c9_every": 4},
    # C7:C9 refutations 3:1, so the median lies inside the C7 family
    "refute": {"pool": 192, "c9_every": 4, "free_class": (1, 3)},
    # each round: one graph per (family, vertex count) slot; C7:K_{a,b} 3:1,
    # so the median lies inside the C7 family
    "blowups": {"rounds": 20, "slots": (("c7", 28), ("c7", 28), ("c7", 28), ("kab", 30))},
    # one graph per size per round, under `labelings` labelings: the first
    # is solved and checked, the others only checked, since the time to the
    # 2P4 refusal depends on the labeling far more than the solve does
    "composite": {"sizes": (250,), "rounds": 18, "labelings": 4},
}

WORKLOADS = tuple(PARAMS)


@dataclass
class Case:
    family: str
    graph: Graph            # the generated graph, in its own vertex ids
    text: str               # edge list the request parses
    vertex_of: dict         # text label -> vertex id of `graph`
    colorable: bool | None  # known verdict; None until the oracle settles it
    in_class: bool          # known (2P4, C5)-free membership
    assume_class: bool      # passed to solve
    solved: bool = True     # False: requested with check_class only


def shuffled_edge_list(g: Graph, rng: Random) -> tuple[str, dict]:
    """Edge-list text of g under a random labeling and line order."""
    verts = g.vertices()
    order = verts[:]
    rng.shuffle(order)
    label = {v: f"v{i}" for i, v in enumerate(order)}
    lines = []
    for u, v in g.edges():
        lines.append(f"{label[u]} {label[v]}" if rng.random() < 0.5 else f"{label[v]} {label[u]}")
    lines.extend(label[v] for v in verts if not g.neighbors(v))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", {name: v for v, name in label.items()}


def cycle_blowup(sizes, cliques=()) -> Graph:
    """C_k with vertex i replaced by a class of sizes[i] vertices.

    Classes i and i+1 (mod k) are completely joined.  A class listed in
    `cliques` has exactly two vertices joined by an edge (true twins); every
    other class is an independent set (false twins).

    The result is (2P4, C5)-free.  No two vertices of C5 or of 2P4 are
    twins (equal open or closed neighbourhoods within the pattern), so an
    induced C5 or 2P4 takes at most one vertex per class and is then an
    induced subgraph of C_k.  For k in (7, 9), C_k has neither: its only
    induced cycle is itself, and two induced P4s are runs of four
    consecutive cycle vertices that need an unused vertex between them on
    both sides, ten vertices in all.
    """
    k = len(sizes)
    g = Graph()
    classes = []
    for i, size in enumerate(sizes):
        members = [g.add_vertex() for _ in range(size)]
        if i in cliques:
            if size != 2:
                raise ValueError("a clique class has exactly two vertices")
            g.add_edge(members[0], members[1])
        classes.append(members)
    for i in range(k):
        for a in classes[i]:
            for b in classes[(i + 1) % k]:
                g.add_edge(a, b)
    return g


def refutation(k: int, rng: Random, free_class=(1, 3)) -> Graph:
    """An anchored, in-class, not 3-colorable blowup of C7 or C9.

    C7 gets two-vertex clique classes at positions 0, 2, 4 and C9 at 0, 2,
    4, 6; the other classes are independent sets of seeded sizes in
    `free_class`, always summing to their mean size times their number, so
    every instance of one k has the same vertex count (14 for C7 and 18 for
    C9 with sizes 1 to 3) and the same work mix for every seed.  Not
    colorable: a clique class uses two colors, so both neighbouring classes
    take the third.  For C7 that forces c6 = c1 (around class 0), c1 = c3
    (around 2) and c3 = c5 (around 4), so the adjacent classes 5 and 6 get
    one color.  For C9 the same chain runs c8 = c1 = c3 = c5 = c7, and 7 and
    8 are adjacent.

    No preflight certificate fires, so all 126 or 510 anchor branches run.
    No two clique classes are adjacent, so every neighbourhood is bipartite
    (a star around the twin, or at most two disjoint edges): no K4 and no
    odd wheel.  co-C7 has no twins, so it would be an induced subgraph of
    C_k on seven vertices, which is C7 or a union of paths, never the
    4-regular co-C7.  A clique class of three vertices would make a K4 with
    any neighbour, so clique classes have exactly two.
    """
    cliques = (0, 2, 4) if k == 7 else (0, 2, 4, 6)
    lo, hi = free_class
    free = k - len(cliques)
    free_sizes = iter(_class_sizes(free * (lo + hi) // 2, free, rng, lo, hi))
    return cycle_blowup([2 if i in cliques else next(free_sizes) for i in range(k)], cliques)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: a cograph (no P4, so no 2P4), bipartite (no C5), colorable."""
    g = Graph()
    left = [g.add_vertex() for _ in range(a)]
    right = [g.add_vertex() for _ in range(b)]
    for u in left:
        for v in right:
            g.add_edge(u, v)
    return g


def _case(family, g, rng, colorable, in_class, assume_class=False, solved=True) -> Case:
    text, vertex_of = shuffled_edge_list(g, rng)
    return Case(family, g, text, vertex_of, colorable, in_class, assume_class, solved)


def _gadgets(seed, pool, c9_every):
    """testkit.c7_gadget and c9_gadget: in class by their rejection sampling.

    Their verdict is not known by construction; `oracle_check` fills it in
    (every gadget has at most 20 vertices).
    """
    cases = []
    for i in range(pool):
        rng = Random(testkit.split_seed(seed, 10, i))
        sub = testkit.split_seed(seed, 11, i)
        if i % c9_every == c9_every - 1:
            cases.append(_case("c9_gadget", testkit.c9_gadget(sub), rng, None, True))
        else:
            cases.append(_case("c7_gadget", testkit.c7_gadget(sub), rng, None, True))
    return cases


def _refute(seed, pool, c9_every, free_class):
    cases = []
    for i in range(pool):
        rng = Random(testkit.split_seed(seed, 20, i))
        k = 9 if i % c9_every == c9_every - 1 else 7
        cases.append(_case(f"refute_c{k}", refutation(k, rng, free_class), rng, False, True))
    return cases


def _class_sizes(total: int, k: int, rng: Random, lo: int = 2, hi: int = 5) -> list:
    """k class sizes in lo..hi summing to total, seeded."""
    sizes = [lo] * k
    for _ in range(total - lo * k):
        sizes[rng.choice([i for i in range(k) if sizes[i] < hi])] += 1
    return sizes


def _blowups(seed, rounds, slots):
    """Independent-set blowups of C7 and C9 and complete bipartite graphs.

    All colorable: a blowup takes a coloring of its cycle class by class,
    K_{a,b} one color per side.  Each slot fixes the family and the vertex
    count, and K_{a,b} has a = 0.3 n; the seed picks the class sizes of a
    blowup (2 to 5 each) and every labeling.  Fixed counts keep the mix of
    work the same for every seed.  K_{a,b} stays under the solver's 64-vertex
    witness ceiling, so its witness comes from the backtracking colorer.
    """
    cases = []
    for r in range(rounds):
        for j, (family, n) in enumerate(slots):
            rng = Random(testkit.split_seed(seed, 30, r, j))
            if family == "kab":
                g = complete_bipartite(n * 3 // 10, n - n * 3 // 10)
            else:
                g = cycle_blowup(_class_sizes(n, int(family[1:]), rng))
            cases.append(_case(f"blowup_{family}", g, rng, True, True))
    return cases


def _composite(seed, sizes, rounds, labelings):
    """testkit.cograph_composite, solved with assume_class.

    Colorable: color the 7-cycle spine properly; each blob is a complete
    bipartite graph joined to one spine vertex, so its two sides take the
    two colors its host does not.  Out of class once blobs hang on spine
    vertices 0 to 4: with x_i a blob vertex on spine vertex a_i, x0 a0 a1 x1
    and x3 a3 a4 x4 are induced P4s with no edge between them.  Hosts are
    assigned round robin and a blob has at most 8 vertices, so from
    n >= 40 a fifth blob (on a4) is always added.
    """
    if min(sizes) < 40:
        raise ValueError("composite membership is only known from n = 40")
    cases = []
    for r in range(rounds):
        for j, n in enumerate(sizes):
            rng = Random(testkit.split_seed(seed, 40, r, j))
            g = testkit.cograph_composite(n, testkit.split_seed(seed, 41, r, j))
            for copy in range(labelings):
                cases.append(_case("composite", g, rng, True, False, assume_class=True,
                                   solved=copy == 0))
    return cases


_BUILDERS = {
    "gadgets": _gadgets,
    "refute": _refute,
    "blowups": _blowups,
    "composite": _composite,
}


def build(name: str, seed: int) -> list[Case]:
    """The workload's cases for this seed, in request order."""
    return _BUILDERS[name](seed, **PARAMS[name])


def oracle_check(cases) -> list[str]:
    """Settle unknown verdicts and cross-check known ones by exhaustive search.

    Covers every case of at most ORACLE_LIMIT vertices; a larger case with
    an unknown verdict is an error.  Returns one line per disagreement.
    """
    problems = []
    for i, case in enumerate(cases):
        if case.graph.vertex_count() > ORACLE_LIMIT:
            if case.colorable is None:
                problems.append(f"case {i} ({case.family}): no known verdict")
            continue
        got = testkit.oracle_list3color(case.graph) is not None
        if case.colorable is None:
            case.colorable = got
        elif case.colorable != got:
            problems.append(f"case {i} ({case.family}): built as colorable={case.colorable}, "
                            f"oracle says {got}")
    return problems
