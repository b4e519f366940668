"""Decision pipeline for 3-coloring within the supported graph class.

`solve` works in this order: the false-twin quotient h, the class check
on h's twin core, the peel of h to its 3-core P, the two preflight
certificates on P, then each connected component of P on its own.  The
vertices peeled off and the false twins left out are colored last, and
the coloring is verified on the whole input.

h is the subgraph induced by the vertices that have no smaller false twin
(`graph.false_twins`; false twins have equal open neighborhoods).  Each
copy left out takes the color of its class's least vertex.  This is
sound: h is an induced subgraph, so it stays in class, and a graph whose
part h has no 3-coloring has none; a copy is not adjacent to its
representative and has the same neighbors, so every edge stays proper.  h
itself has no false twins.

The class check runs on the twin core of h (`graph.twin_core`).  The core
does not depend on the order of the deletions and keeps the least id of
each twin class, so it is the twin core of the whole input too, and the
check gives the verdict it gives on the input.  It is built from the
input and the solver's one false-twin pass, whose copies stand in for the
core's own first pass.

P is what is left of h after deleting vertices of degree at most 2 until
none is left (Matula & Beck 1983).  A vertex of degree at most 2 has a
free color once its neighbors are colored, so h is 3-colorable exactly
when P is: P is an induced subgraph, and a coloring of P extends to the
peeled vertices in the reverse of their deletion order, since each sees
at most two colored neighbors, those left when it was deleted.  P is an
induced subgraph of h, so it stays in class.  When nothing is left, the
colors of the peel are the whole answer, and no preflight, anchor search
or colorer runs.

Up front, on P, the solver rejects two certificates that rule out any
3-coloring regardless of class membership: a vertex whose neighborhood
contains an odd cycle (the vertex plus the cycle forms an odd wheel), and
then an induced complement-of-C7.  The cheap neighborhood check goes
first, since on dense inputs the co-C7 search is the slow one.  A graph
that holds both is refused either way, only under the other counter; out
of class, under assume_class, a neighborhood holding an odd hole of length
11 or more raises its ClassViolationError ahead of the co-C7.  Every
certificate has minimum degree 3 or more (K4 and the rim of an odd wheel
3, its hub and co-C7 more), and a subgraph of minimum degree 3 is never
peeled: its first vertex to go would still have three neighbors.  So P
holds every certificate h holds, with the same vertex and the same
shortest odd cycle length in its neighborhood, and the verdict and the
preflight counter are those of h.  The odd-neighborhood check runs on P
itself, because K4 has true twins.  It picks the vertex and kind it picks
on the input: a copy's neighborhood is its representative's, which comes
first, and a shortest odd cycle in a neighborhood holds no two false
twins, so swapping each copy on it for its representative gives one of
the same length in h.

The co-C7 preflight and each component's search for its anchor cycle run
on the twin core of P; when nothing is peeled, P is h and its core is the
one the class check used.  Neither pattern has twins, so each search
gives the verdict it gives on P.  The anchored runs, the fixpoint, the
stages and witness replay work on P.

A component containing an induced 7-cycle is anchored on that cycle: the
21 proper colorings of the anchor that begin (1, 2) are enumerated, one
per class of the 126 proper colorings under renaming the three colors,
and each branch runs the palette fixpoint followed by a short ladder of
structural stages: two that branch further (bounded by the structure),
then one that cuts off a P4-free component behind a one-vertex border.  A
branch the ladder cannot handle raises StageAssertionError naming its
shape, never a verdict.  A component with an induced 9-cycle but no
7-cycle is anchored the same way (85 of 510 colorings), and the fixpoint
alone must settle every branch.  A component with neither anchor cycle is
colored by saturation-ordered backtracking; in class, once the preflight
has passed, it is perfect with clique number at most 3, so the colorer
succeeds.  A colorable answer always rests on a coloring of every
component, verified as a whole.

The ladder rechecks nothing the fixpoint implies.  It runs only on C7, at
a CONTINUE fixpoint, and rests on three facts that hold on any graph.
F1: each live uncolored palette has 2 or 3 colors and lacks every colored
neighbor's color (every commit propagates what it forces, and palettes
only shrink); the anchors are the only colored vertices left.  F2: branch
graphs only lose vertices and palettes only shrink, so a vertex relevant
with a given support at a descendant was so at every ancestor.  F3: two
distinct anchor pairs two apart on a 7-cycle hold two anchors three apart.
Three more facts need no check, each argued where it is used.  F4, in
class: the branch graph is connected (`_analyze`).  F5, in class: the
outer neighborhoods of the relevant vertices whose support is one anchor
form a chain under inclusion (`_branch_single_anchor`).  F6, on any
graph: a relevant outer component that reaches `_component_cases` has two
or more vertices, since rule 5 deletes a lone one.  Out of class F4 and F5
may fail, and neither failure costs a verdict: a split graph is refused
by a later check, and a single-anchor split is exhaustive anyway.

Renaming the colors loses no answer.  Every proper coloring of an odd
cycle uses all three colors, so the six permutations of {1, 2, 3} act
freely on them and split them into orbits of six, whose least member is
the one that begins (1, 2).  A branch asks whether its anchor coloring
extends to a 3-coloring of the component: a solved branch's witness is
verified, and a rejected branch rests on sound rules and exhaustive
splits.  If phi extends col, then pi . phi extends pi . col, so every
member of an orbit gets the same verdict.  The first winning coloring in
the full lexicographic order is thus the least member of its orbit.  The
representatives are also the first colorings of that order, so a
colorable component runs exactly the branches the full enumeration runs,
up to the same winner and witness; only a rejection stops sooner.

Every representative is checked before it runs, by forward checking
(Haralick & Elliott 1980): `reductions.propagate` commits a prefix of the
anchor coloring, striking each committed color from the neighbors'
palettes, and every palette this leaves one color; an empty palette or a
clash refutes the prefix.  Prefixes are checked shortest first, a shared
one is propagated once, and a refuted one skips every representative that
extends it.  Every propagation step is forced, so a refuted prefix has no
extending 3-coloring of the component.  A skipped representative's full
branch could then only have been rejected, since a branch wins only on a
witness that is verified; out of class it might instead have raised, and
skipping it removes that refusal, never a verdict.  The representatives
that survive run in the same order.  Each root is the propagated state
minus its colored non-anchors: propagation that meets no clash reaches
one fixpoint whatever the order of its steps, so a root has the palettes,
colors and graph that committing its anchors one at a time on the
unreduced component leaves, and verdicts and witnesses are those of
running them all.

Deleted vertices re-enter the final coloring through the settled colors
and replay records the reduction engine collects.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from time import perf_counter

from . import cograph, patterns
from .errors import ClassViolationError, StageAssertionError
from .graph import (
    Graph,
    connected_components,
    false_twins,
    induced_subgraph,
    odd_cycle_transversal,
    twin_core,
)
from .reductions import (
    ALL_COLORS,
    REJECTED,
    SOLVED,
    Instance,
    cut_reduction,
    propagate,
    run_fixpoint,
    undo,
)

@dataclass
class SolveReport:
    decision: str               # "colorable" | "not_colorable"
    witness: dict | None        # vertex -> color, when asked for and colorable
    stats: dict


def solve(
    g: Graph,
    *,
    witness: bool = False,
    assume_class: bool = False,
) -> SolveReport:
    """Decide 3-colorability of g by building and verifying a coloring.

    witness only decides whether that coloring goes on the report.
    stats["false_twins"] counts the vertices left out of the solve as copies
    of a smaller false twin, and stats["peeled"] the vertices of the
    quotient outside its 3-core, colored after it.  The 3-core decides the
    answer, and it holds every K4, odd wheel and co-C7 certificate of the
    input, since each has minimum degree 3 (see the module docstring).
    Raises ClassViolationError when the input is outside the supported
    class, unless assume_class skips the membership check; on such input
    the structural stages may then fail loudly.
    """
    start = perf_counter()
    stats = Counter()
    copies = false_twins(g)
    h = g   # read, never changed: the anchored runs change clones only
    if copies:
        stats["false_twins"] += len(copies)
        h = induced_subgraph(g, [v for v in g.vertices() if v not in copies])
    core = trans = None
    if not assume_class:
        core = twin_core(g, copies)
        trans = odd_cycle_transversal(core)
        offending = patterns.check_core(core, trans)
        if offending is not None:
            raise ClassViolationError(offending)

    order = _peel_order(h._adj)
    if order:
        stats["peeled"] += len(order)
    coloring: dict[int, int] = {}
    if len(order) < len(h):
        p = h
        if order:
            peeled = set(order)
            p = induced_subgraph(h, [v for v in h._adj if v not in peeled])
            core = None
        if core is None:
            core = twin_core(p)
            trans = odd_cycle_transversal(core)
        odd = patterns.find_nonbipartite_neighborhood(p)
        if odd is not None:
            stats["preflight_odd_neighborhood_" + odd.kind] += 1
            return _report("not_colorable", None, stats, start)
        if patterns.find_co_c7(core) is not None:
            stats["preflight_co_c7"] += 1
            return _report("not_colorable", None, stats, start)
        for comp in connected_components(p):
            cmap = _solve_component(p, core, trans, comp, stats)
            if cmap is None:
                return _report("not_colorable", None, stats, start)
            coloring.update(cmap)
    adj = h._adj
    get = coloring.get
    for v in reversed(order):
        # at most two neighbors are colored: those left when v was peeled
        used = set(map(get, adj[v]))
        coloring[v] = 1 if 1 not in used else 2 if 2 not in used else 3
    for v, rep in copies.items():
        coloring[v] = coloring[rep]
    _verify_witness(g, coloring)
    return _report("colorable", coloring if witness else None, stats, start)


def _peel_order(adj) -> list[int]:
    """The vertices outside the 3-core, in an order of deletion.

    Each vertex, when its turn comes, has at most two neighbors that are
    not yet deleted: those later in the order or in the core.  The order is
    a list that grows as it is walked, seeded with the vertices of degree
    at most 2 in adj's order (Matula & Beck 1983).  deg holds the degree
    left to each vertex a deletion has touched, so a graph of minimum
    degree 3 costs one scan of the degrees.
    """
    order = [v for v, nbrs in adj.items() if len(nbrs) < 3]
    gone = set(order)
    deg: dict[int, int] = {}
    for v in order:
        for w in adj[v]:
            if w not in gone:
                d = deg[w] = deg.get(w, len(adj[w])) - 1
                if d < 3:
                    gone.add(w)
                    order.append(w)
    return order


def _report(decision, witness_map, stats, start) -> SolveReport:
    out = dict(sorted(stats.items()))
    out.setdefault("branches", 0)
    out["reductions"] = sum(n for k, n in stats.items() if k.startswith(("rule_", "op_")))
    out["millis"] = round((perf_counter() - start) * 1000, 3)
    return SolveReport(decision, witness_map, out)


def _verify_witness(g: Graph, coloring: dict) -> None:
    """Raise AssertionError unless coloring properly 3-colors g.

    The vertices are grouped into their color classes, and each vertex
    must see none of its own class.  Only when that fails, or a vertex has
    no color in 1..3, does the ascending walk run: it names the least
    vertex without such a color, or else the least monochromatic edge.
    """
    adj = g._adj
    classes = {c: set() for c in ALL_COLORS}
    for v in adj:
        cls = classes.get(coloring.get(v))
        if cls is None:
            break
        cls.add(v)
    else:
        if all(adj[v].isdisjoint(cls) for cls in classes.values() for v in cls):
            return
    for v in sorted(adj):
        c = coloring.get(v)
        if c not in ALL_COLORS:
            raise AssertionError(f"witness misses vertex {v}")
        for w in adj[v]:
            if coloring.get(w) == c:
                raise AssertionError(f"witness colors edge {v},{w} monochromatically")


def _solve_component(g, core, trans, comp, stats):
    """The 3-coloring of the component comp of g, or None when it has none.

    core is g's twin core and trans an odd-cycle transversal of it.  When
    comp is all of g, all three are used as given.  Otherwise they are cut
    down to comp: the induced subgraphs of g and of the core, and
    trans & comp.  That is the transversal of the core's part:
    `graph.odd_cycle_transversal` searches each component from its least
    vertex, as it would the part alone, and the part is empty or one
    component of the core, since deleting a twin keeps the rest connected.

    The anchor cycle is sought on the core's part, unless its transversal
    is empty: the part is then bipartite and holds no odd cycle.  Otherwise
    `patterns.find_induced_cycle` tries only the roots up to the largest
    vertex of the transversal.  The anchored run and the plain colorer work
    on the whole component of g and never change it: `_run_anchored` only
    reads it and changes clones, and `_backtrack_color` keeps its palettes
    and colors apart."""
    if len(comp) < len(g):
        g = induced_subgraph(g, comp)
        core = induced_subgraph(core, [v for v in comp if v in core])
        trans = trans & comp
    if trans:
        for k in (7, 9):
            cyc = patterns.find_induced_cycle(core, k, trans)
            if cyc is not None:
                stats[f"components_anchored_{k}"] += 1
                won = _run_anchored(g, cyc, stats)
                return None if won is None else won.assemble_witness(comp)
    stats["components_plain"] += 1
    return _backtrack_color(g)


@lru_cache(maxsize=None)
def _proper_cycle_colorings(k: int) -> tuple[tuple, ...]:
    """The proper 3-colorings of an odd k-cycle that begin (1, 2),
    lexicographic; built once per k.

    They are the least members of the orbits of all proper colorings under
    the six color permutations, one per orbit: 21 of 126 for k = 7, 85 of
    510 for k = 9 (see the module docstring for why one per orbit
    suffices).  Proper colorings of the path grow from (1, 2) one vertex
    at a time, each extended in color order, which keeps the list sorted;
    the cycle's closing edge filters it last.
    """
    walks = [(1, 2)]
    for _ in range(k - 2):
        walks = [w + (c,) for w in walks for c in (1, 2, 3) if c != w[-1]]
    return tuple(w for w in walks if w[-1] != w[0])


def _run_anchored(comp_graph, cycle, stats):
    """Run a DFS from each anchor coloring that begins (1, 2) in turn.

    These are the 21 (C7) or 85 (C9) orbit representatives of the cycle's
    proper colorings under renaming the colors.  None runs unchecked:
    base's palettes and colors hold a prefix of anchor colors, which
    `propagate` extends and `undo` cuts back to the prefix the next
    coloring shares.  A coloring with a refuted prefix is skipped, and so is
    each later one with the last refuted prefix (the module docstring says
    why the answer stays the same).  A root is the propagated state minus
    its colored non-anchors, the state that committing its anchors on an
    unreduced clone leaves.  The winning branch's settled colors and replay
    records hold its witness.  Returns that branch, or None when every
    representative is rejected, and then so is every proper anchor
    coloring.
    """
    base = Instance(comp_graph, stats)
    anchors = base.anchor_order = tuple(cycle)
    adj, palettes, colors = comp_graph._adj, base.palettes, base.colors
    colorings = _proper_cycle_colorings(len(cycle))
    stats["anchor_colorings"] += len(colorings)
    trail: list = []
    marks = [0]   # the trail length with each applied prefix, from the empty one
    refuted = ()
    for col in colorings:
        if refuted and col[:len(refuted)] == refuted:
            stats["anchor_colorings_skipped"] += 1
            continue
        # an applied anchor holds its color
        d = 0
        while d < len(marks) - 1 and colors[cycle[d]] == col[d]:
            d += 1
        undo(palettes, colors, trail, marks[d])
        del marks[d + 1:]
        for i in range(d, len(col)):
            if not propagate(adj, palettes, colors, cycle[i], col[i], trail):
                undo(palettes, colors, trail, marks[-1])
                refuted = col[:i + 1]
                stats["anchor_colorings_skipped"] += 1
                break
            marks.append(len(trail))
        else:
            root = base.clone()
            root.remove_region([v for v in colors if v not in anchors])
            winner = _dfs(root, stats)
            if winner is not None:
                return winner
    return None


def _dfs(root, stats):
    stack = [root]
    while stack:
        inst = stack.pop()
        stats["branches"] += 1
        if inst is None:
            # a stage's child whose commits clashed
            continue
        out, kids = _advance(inst)
        if out == "solved":
            return inst
        if out == "children":
            stack.extend(reversed(kids))
    return None


def _advance(inst):
    """Drive one branch to a verdict or a branching point.

    If neither stage branches, the relevant supports are one pair two
    apart (F3) of like-colored anchors, palettes the other two (F1).  In
    class a path branches once per single anchor i: z's outer neighbors
    hold every member's (F5), each fully adjacent to its components, so by
    F2 any full palette a later member reaches lost z's color.  A pair
    branches once (post-check, then F2) into <= 1 + 9|zs| kids.
    cut_reduction drops C - w.
    """
    while True:
        out = run_fixpoint(inst)
        if out == REJECTED:
            return "rejected", None
        if out == SOLVED:
            return "solved", None
        if len(inst.anchor_order) == 9:
            raise StageAssertionError("fixpoint did not fully resolve a C9 branch")
        view = _analyze(inst)
        kids = _branch_single_anchor(inst, view)
        if kids is None:
            kids = _branch_opposing_pair(inst, view)
        if kids is not None:
            return "children", kids
        if _component_cases(inst, view) == REJECTED:
            return "rejected", None


# -- structure analysis -------------------------------------------------------


# indexes over one anchored branch at a rule fixpoint
_View = namedtuple("_View", "anchors acolor comps cotrees comp_relevant supports "
                            "relevant adj_comps full_adj outer_nbrs")


def _analyze(inst) -> _View:
    """Index a C7 branch at a CONTINUE fixpoint.

    In class the branch graph is connected (F4).  Rules 6 and 7 spared
    every component, so each one holds the anchor cycle or is not P4-free,
    and either way holds an induced P4; P4s in two components would form
    an induced 2P4.  Out of class, a component without the anchors holds
    only outer vertices and is not P4-free, so the outer-component check
    below refuses the branch, unless a check before it does.

    Every root sets anchor_order.  By F1 no full palette touches the
    cycle, and since rule 6 spared the one component, some palette is full,
    so an outer component is relevant; the graph is connected and the rim
    separates it from the anchors, so some rim vertex is relevant.  The
    cotree that shows an outer component P4-free is kept for the stages.
    """
    g = inst.g
    anchors = inst.anchor_order
    for v in anchors:
        if not g.has_vertex(v) or v not in inst.colors:
            raise StageAssertionError("anchor cycle vertex lost before the structural stages")
    k = len(anchors)

    rim: list[int] = []
    outer: set[int] = set()
    supports: dict[int, frozenset] = {}
    for v in sorted(inst.palettes):
        sup = frozenset(i for i, u in enumerate(anchors) if u in g._adj[v])
        if sup:
            rim.append(v)
            supports[v] = sup
        else:
            outer.add(v)
    for v in rim:
        sup = supports[v]
        ok = len(sup) == 1
        if len(sup) == 2:
            i, j = sorted(sup)
            ok = (j - i) % k in (2, k - 2)
        if not ok:
            raise StageAssertionError("rim vertex touches the anchor cycle in a forbidden shape")

    comps = [frozenset(c) for c in connected_components(g, within=outer)]
    comp_of = {}
    for idx, c in enumerate(comps):
        for v in c:
            comp_of[v] = idx
    cotrees = []
    comp_relevant = []
    for c in comps:
        root, bad = cograph.cotree_or_failure(g, c)
        if bad is not None:
            raise StageAssertionError("outer component is not P4-free")
        cotrees.append(root)
        comp_relevant.append(any(len(inst.palettes[v]) == 3 for v in c))

    adj_comps = {}
    outer_nbrs = {}
    full_adj = {}
    relevant = []
    for v in rim:
        nb = frozenset(g._adj[v] & outer)
        outer_nbrs[v] = nb
        touched = frozenset(comp_of[w] for w in nb)
        adj_comps[v] = touched
        for idx in touched:
            full_adj[(v, idx)] = comps[idx] <= nb
        if any(comp_relevant[idx] for idx in touched):
            relevant.append(v)
    for v in relevant:
        for idx in adj_comps[v]:
            if not full_adj[(v, idx)]:
                if len(adj_comps[v]) != 1 or len(supports[v]) != 2:
                    raise StageAssertionError("partial outer neighbor outside its allowed shape")
    for i, j in inst.post_checks:
        if all(any(a in supports[x] for x in relevant) for a in (i, j)):
            raise StageAssertionError("opposing anchor pair survived its branching")
    inst.post_checks = []
    return _View(anchors, tuple(inst.colors[v] for v in anchors), comps, cotrees,
                 comp_relevant, supports, relevant, adj_comps, full_adj, outer_nbrs)


def _dominating_set(root):
    """A dominating set of size <= 2 from the cotree of a connected P4-free
    set of two or more vertices.

    The set's complement is disconnected, so root is a join whose children
    are the co-components, and each vertex sees all the other ones.  A
    larger co-component is connected in the complement, so a universal
    vertex is a co-component on its own; the least one is returned alone.
    Else the least vertices of the first two co-components dominate.
    """
    alone = [kid.vertex for kid in root.children if kid.kind == cograph.LEAF]
    if alone:
        return (min(alone),)
    return tuple(min(kid.leaves()) for kid in root.children[:2])


# -- branching stages ---------------------------------------------------------


def _branch_single_anchor(inst, view):
    """Branch on the widest relevant vertex whose support is one anchor.

    In class the members' outer neighborhoods form a chain (F5), so the
    widest one holds every other.  Were it not so, two members x and y
    would have outer neighbors a in N(x) - N(y) and b in N(y) - N(x).  If
    x and y are not adjacent, a-x-v_i-y is an induced P4; if they are,
    a-x-y-b is one when a and b are not adjacent, and v_i-x-a-b when they
    are.  Outer vertices see no anchor and members only v_i, so each P4
    and v_{i+2} ... v_{i+5} form an induced 2P4.  Out of class the split
    over z's palette is still exhaustive, so the answer stays exact.
    """
    for i in range(len(view.anchors)):
        members = [x for x in view.relevant if view.supports[x] == frozenset((i,))]
        if not members:
            continue
        z = max(members, key=lambda x: (len(view.outer_nbrs[x]), -x))
        inst.stats["stage_single_anchor"] += 1
        kids = []
        for c in sorted(inst.palettes[z]):
            child = inst.clone()
            kids.append(child if child.commit_color(z, c) else None)
        return kids
    return None


def _branch_opposing_pair(inst, view):
    """Branch on the relevant sets of two anchors three steps apart.

    Every member is either given the color its side does not share with
    the other side, or a first member takes the shared color; in the
    latter case a partial neighbor additionally branches over the (at
    most nine) colorings of its component's dominating set, read off the
    cotree that `_analyze` kept.  By F1 each member's palette is the two
    colors its anchor lacks.
    """
    k = len(view.anchors)
    at = [{x for x in view.relevant if i in view.supports[x]} for i in range(k)]
    for i in range(k):
        j = (i + 3) % k
        if not at[i] or not at[j]:
            continue
        ci, cj = view.acolor[i], view.acolor[j]
        zs = sorted(at[i] | at[j], key=lambda x: (-len(view.outer_nbrs[x]), x))
        if ci != cj:
            (shared,) = ALL_COLORS - {ci, cj}
            base = {x: (cj if x in at[i] else ci) for x in zs}
            alt = {x: shared for x in zs}
        else:
            # both anchors carry one color, so both sides share the same
            # two-color palette; split it by order
            lo, hi = sorted(ALL_COLORS - {ci})
            base = {x: lo for x in zs}
            alt = {x: hi for x in zs}

        kids = []

        def spawn(plan):
            child = inst.clone()
            ok = all(child.commit_color(v, c) for v, c in plan)
            child.post_checks.append((i, j))
            kids.append(child if ok else None)

        spawn([(z, base[z]) for z in zs])
        for pos, zj in enumerate(zs):
            plan = [(z, base[z]) for z in zs[:pos]] + [(zj, alt[zj])]
            partial = any(not view.full_adj[(zj, idx)] for idx in view.adj_comps[zj])
            if partial:
                (tidx,) = view.adj_comps[zj]
                dom = _dominating_set(view.cotrees[tidx])
                for combo in product((1, 2, 3), repeat=len(dom)):
                    spawn(plan + list(zip(dom, combo)))
            else:
                spawn(plan)
        inst.stats["stage_opposing_pairs"] += 1
        return kids
    return None


# -- component cases ----------------------------------------------------------


def _component_cases(inst, view):
    """Reduce the first relevant component at its one border vertex.

    This is the only shape the branch reaches here: no edge among the
    relevant vertices, each touching one outer component, and a component
    C of two or more vertices whose border, the vertices of C with a
    neighbor outside C, is one vertex w.  Any other shape raises
    StageAssertionError naming it.  Returns cut_reduction's verdict on
    C keyed by w, which colors C from the cotree that `_analyze` kept.

    C is never one vertex u, on any graph (F6).  Neither stage branched, so
    every relevant vertex has the one support {p, q}.  u has no outer
    neighbor, so each of its neighbors is a rim vertex that touches C and
    is thus relevant, and anchor v_p sees them all.  u's palette is full,
    so it holds v_p's color, and rule 3 left u three or more neighbors:
    v_p dominates u, and rule 5 would have deleted u.
    """
    g = inst.g
    relevant = set(view.relevant)
    if any(g._adj[x] & relevant for x in relevant):
        raise StageAssertionError("relevant vertices span an edge")
    if any(len(view.adj_comps[x]) > 1 for x in relevant):
        raise StageAssertionError("relevant vertex touches several outer components")
    idx = view.comp_relevant.index(True)
    comp = view.comps[idx]
    border = {v for v in comp if not g._adj[v] <= comp}
    inst.stats["stage_component_cases"] += 1
    if len(border) != 1:
        shape = ("disconnected" if len(connected_components(g, within=border)) > 1
                 else "single-edge" if len(border) == 2 else "three-or-more-vertex")
        raise StageAssertionError(f"relevant component behind a {shape} border")
    inst.stats["case_border_single_vertex"] += 1
    (w,) = border
    return cut_reduction(inst, w, view.cotrees[idx])


# -- plain components ---------------------------------------------------------


def _backtrack_color(g) -> dict | None:
    """Exact 3-coloring by saturation-ordered backtracking, or None.

    The next vertex has the fewest palette colors, then the highest degree,
    then the lowest id (DSatur order), and `propagate` tries its colors in
    ascending order and colors what each forces.  On a connected bipartite
    graph this order never needs a third color, so it never backtracks
    there.  The choice points and their trail marks sit on an explicit
    stack, so depth does not meet the recursion limit.
    """
    adj = g._adj
    palettes = {v: ALL_COLORS for v in adj}
    colors: dict[int, int] = {}
    trail: list = []
    stack = []   # (vertex, iterator over the colors it has left, trail mark)
    while palettes:
        v = min(palettes, key=lambda u: (len(palettes[u]), -len(adj[u]), u))
        stack.append((v, iter(sorted(palettes[v])), len(trail)))
        # give the newest choice point its next color; one that has tried
        # them all is dropped, and its parent moves on
        while stack:
            v, left, mark = stack[-1]
            undo(palettes, colors, trail, mark)
            c = next(left, None)
            if c is None:
                stack.pop()
            elif propagate(adj, palettes, colors, v, c, trail):
                break
        else:
            return None
    return colors
