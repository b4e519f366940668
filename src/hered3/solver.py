"""Decision pipeline for 3-coloring within the supported graph class.

`solve` works in this order: the false-twin quotient h, the order of the
peel of h to its 3-core P, the class check on h's twin core, the two
preflight certificates on every component of P, then each component on
its own.
The vertices peeled off and the false twins left out are colored last,
and the coloring is verified on the whole input.

h is the subgraph induced by the vertices that have no smaller false twin
(`graph.false_twins`; false twins have equal open neighborhoods).  Each
copy left out takes the color of its class's least vertex.  This is
sound: h is an induced subgraph, so it stays in class, and a graph whose
part h has no 3-coloring has none; a copy is not adjacent to its
representative and has the same neighbors, so every edge stays proper.  h
itself has no false twins.

The class check and the split of P take one path.  h is split once by
`graph.connected_components`, and each component of four or more
vertices (a smaller one holds no P4, C5 or 3-core) gets its rank masks
(`patterns._index`, of all of h when h is connected) and their cut to its
twin core (`patterns._twin_cut`).  Twins in two components are isolated,
so these cores make up the twin core of h but for isolated vertices, and
a twin core keeps the least id of each twin class whatever the order of
its deletions, so h's is the input's: `patterns.check_components` on all
the cores, which drops those of fewer than two vertices, gives the
check's verdict and witness on the input.  Every finder reads the masks
it is given and builds none.  A component of P that is a whole component
of h keeps its masks and cut, and any other gets masks of its own vertex
set.  Under assume_class nothing is checked, and a quotient that peels
whole walks no components.

P is what is left of h after deleting vertices of degree at most 2 until
none is left (Matula & Beck 1983).  A vertex of degree at most 2 has a
free color once its neighbors are colored, so h is 3-colorable exactly
when P is: P is an induced subgraph, and a coloring of P extends to the
peeled vertices in the reverse of their deletion order, since each sees
at most two colored neighbors, those left when it was deleted.  P is an
induced subgraph of h, so it stays in class.  When nothing is left, the
colors of the peel are the whole answer, and no preflight, anchor search
or colorer runs.

Up front, before any anchor search, the solver rejects two certificates
that rule out any 3-coloring regardless of class membership: a vertex
whose neighborhood contains an odd cycle (the vertex plus the cycle forms
an odd wheel), sought in each component of P in turn, and then an induced
complement-of-C7, sought likewise.  The cheap neighborhood check goes first,
since on dense inputs the co-C7 search is the slow one.  A graph that
holds both is refused either way, only under the other counter; out of
class, under assume_class, a neighborhood holding an odd hole of length
11 or more raises its ClassViolationError ahead of the co-C7.  Every
certificate has minimum degree 3 or more (K4 and the rim of an odd wheel
3, its hub and co-C7 more), and a subgraph of minimum degree 3 is never
peeled: its first vertex to go would still have three neighbors.  So P
holds every certificate h holds, with the same vertex and the same
shortest odd cycle length in its neighborhood, and the verdict and the
preflight counter are those of h.  The odd-neighborhood check runs on P
itself, because K4 has true twins.  The first component of P, by least
vertex, that holds such a vertex decides the counter, and in it the check
picks the vertex and kind it picks on the input: a copy's neighborhood is
its representative's, which comes first, and a shortest odd cycle in a
neighborhood holds no two false twins, so swapping each copy on it for
its representative gives one of the same length in h.

The co-C7 preflight and each component's search for its anchor cycle run
on the component's twin core.  P has no isolated vertex, so these cores
make up the twin core of P, and neither pattern has twins, so each
search gives the verdict it gives on P.  The searches, the anchored runs
and witness replay read h, which induces P with the same ids.

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
colored by saturation-ordered backtracking on its rank masks; in class,
once the preflight has passed, it is perfect with clique number at most
3, so the colorer succeeds.  A colorable answer always rests on a
coloring of every component, verified as a whole.

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
(Haralick & Elliott 1980): `reductions.propagate_masks` commits a prefix
of the anchor coloring, striking each committed color from the neighbors'
palettes, and every palette this leaves one color; an empty palette or a
clash refutes the prefix.  It runs the rule of `reductions.propagate` on
per-color bitmasks of the component.  The prefixes form a tree, walked
depth first in the representatives' order, so a shared prefix is
propagated once, and a refuted one is left with every representative that
extends it skipped, their number counted in closed form.  Every
propagation step is forced, so a refuted prefix has no extending
3-coloring of the component.  A skipped representative's full
branch could then only have been rejected, since a branch wins only on a
witness that is verified; out of class it might instead have raised, and
skipping it removes that refusal, never a verdict.  The representatives
that survive run in the same order.  Each root is read off its masks,
on the graph its palettes and anchors induce: propagation that meets no
clash reaches one fixpoint whatever the order of its steps, so a root has
the palettes and colors that committing its anchors one at a time on the
unreduced component leaves, on that component's uncolored vertices and
anchors, and verdicts and witnesses are those of running them all.

Deleted vertices re-enter the final coloring through the settled colors
and replay records the reduction engine collects.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from itertools import product
from time import perf_counter

from . import cograph, patterns
from .errors import ClassViolationError, StageAssertionError
from .graph import Graph, connected_components, false_twins, induced_subgraph
from .reductions import (
    ALL_COLORS,
    REJECTED,
    SOLVED,
    Instance,
    cut_reduction,
    propagate_masks,
    read_masks,
    run_fixpoint,
)


class SolveReport:
    """The answer of one solve.  A plain slotted class: cheaper to build than
    a NamedTuple, and it keeps `dataclasses` out of the package's imports."""

    __slots__ = ("decision", "witness", "stats")

    def __init__(self, decision: str, witness: dict | None, stats: dict) -> None:
        self.decision = decision    # "colorable" | "not_colorable"
        self.witness = witness      # vertex -> color, when asked for and colorable
        self.stats = stats


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
    Each component of the quotient gets its own rank masks, cut to its twin
    core for the class check (`patterns.check_components`); a component of
    the 3-core keeps them or, when the peel cut its component down, gets
    its own, and every search on it reads them cut as it needs
    (`patterns._cut`).
    The order of the witness's items is not specified.
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
    order = _peel_order(h._adj)
    if order:
        stats["peeled"] += len(order)
    parts = []   # (index, twin cut) of each component of the 3-core
    if not assume_class or len(order) < len(h):
        peeled = set(order)
        split = set()   # the 3-core's vertices in components of h the peel cuts down
        cuts = []       # the twin cut of each component of h indexed here
        comps = connected_components(h)
        for comp in comps:
            if len(comp) < 4:
                continue   # no P4, no C5 and no 3-core
            cut_down = not peeled.isdisjoint(comp)
            if cut_down:
                split |= comp - peeled
                if assume_class:
                    continue
            # a connected h is indexed whole, with no vertex set to meet
            index = patterns._index(h, comp if len(comps) > 1 else None)
            cut = patterns._twin_cut(index)
            cuts.append(cut)
            if not cut_down:
                parts.append((index, cut))
        offending = None if assume_class else patterns.check_components(h, cuts)
        if offending is not None:
            raise ClassViolationError(offending)
        if split:
            for comp in connected_components(h, within=split):
                index = patterns._index(h, comp)
                parts.append((index, patterns._twin_cut(index)))
            parts.sort(key=lambda part: part[0][0][0])
    for index, _ in parts:
        odd = patterns.find_nonbipartite_neighborhood(h, index)
        if odd is not None:
            stats["preflight_odd_neighborhood_" + odd.kind] += 1
            return _report("not_colorable", None, stats, start)
    if any(patterns.find_co_c7(h, cut) is not None for _, cut in parts):
        stats["preflight_co_c7"] += 1
        return _report("not_colorable", None, stats, start)
    coloring: dict[int, int] = {}
    for index, cut in parts:
        cmap = _solve_component(h, index, cut, stats)
        if cmap is None:
            return _report("not_colorable", None, stats, start)
        coloring.update(cmap)
    adj = h._adj
    # the vertices colored 1 and 2 so far: v takes the least color that no
    # colored neighbor has, and at most two neighbors are colored, those
    # left when v was peeled
    ones = {v for v, c in coloring.items() if c == 1}
    twos = {v for v, c in coloring.items() if c == 2}
    for v in reversed(order):
        nbrs = adj[v]
        if ones.isdisjoint(nbrs):
            ones.add(v)
            coloring[v] = 1
        elif twos.isdisjoint(nbrs):
            twos.add(v)
            coloring[v] = 2
        else:
            coloring[v] = 3
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


def _solve_component(p, index, core, stats):
    """The 3-coloring of a component of p, or None when it has none.

    index is the component's own index, and core is it cut to the
    component's twin core; p is any graph that induces the component with
    the same ids, such as the quotient of `solve`.  The anchor cycle is
    sought on core, and the anchored run and the plain colorer read index;
    an anchored witness takes its ids off index.  Neither changes p:
    `_run_anchored` builds each root on a new graph, and `_backtrack_color`
    works on masks only."""
    for k in (7, 9):
        cyc = patterns.find_induced_cycle(p, k, core)
        if cyc is not None:
            stats[f"components_anchored_{k}"] += 1
            won = _run_anchored(p, index, cyc, stats)
            return None if won is None else won.assemble_witness(index[0])
    stats["components_plain"] += 1
    return _backtrack_color(index)


def _extensions(k: int, d: int, last: int) -> int:
    """The proper colorings of a k-cycle that extend a proper coloring of
    its first d >= 2 vertices ending in color last.

    The rest of the cycle, closed by its edge back to vertex 0 of color 1,
    is a walk of k - d + 1 steps on the triangle K3 from last to 1, and
    there are (2^m + 2(-1)^m) / 3 such walks of m steps back to their
    start and (2^m - (-1)^m) / 3 to each other vertex.  From (1, 2) there
    are 21 for k = 7 and 85 for k = 9: the orbit representatives.
    """
    m = k - d + 1
    return (2 ** m + (2 if last == 1 else -1) * (-1) ** m) // 3


def _run_anchored(p, index, cycle, stats):
    """Run a DFS from each anchor coloring that begins (1, 2) in turn.

    These are the 21 (C7) or 85 (C9) orbit representatives of the cycle's
    proper colorings under renaming the colors, in lexicographic order.
    None runs unchecked: a depth-first walk of their prefix tree commits
    anchor 0 with color 1, anchor 1 with 2, and each later anchor with
    each color in ascending order that differs from its predecessor's (and,
    for the last anchor, from color 1), by `propagate_masks` on index, the
    component's own rank masks.  Each prefix's six masks are kept for
    its children, so a shared prefix is propagated once.  A refuted prefix
    is left, and every representative under it is skipped at once (the
    module docstring says why the answer stays the same).  A surviving
    representative's root is built whole from the palettes and colors read
    off its masks, on the graph its palettes and anchors induce in p: the
    state that committing its anchors on an unreduced copy leaves, anchors
    kept.  The winning branch's settled colors and replay records hold its
    witness.  Returns that branch, or None when every representative is
    rejected, and then so is every proper anchor coloring.
    """
    anchors = tuple(cycle)
    k = len(anchors)
    order, nbr, every = index
    bits = [1 << bisect_left(order, v) for v in anchors]
    total = _extensions(k, 2, 2)
    stats["anchor_colorings"] += total
    state = propagate_masks(nbr, (every, every, every, 0, 0, 0), bits[0], 0)
    state = state and propagate_masks(nbr, state, bits[1], 1)
    if state is None:
        stats["anchor_colorings_skipped"] += total
        return None
    winner = None
    skipped = 0
    # (anchor, color, masks of the prefix before it); popped in walk order
    stack = [(2, 3, state), (2, 1, state)]
    while stack and winner is None:
        d, c, state = stack.pop()
        state = propagate_masks(nbr, state, bits[d], c - 1)
        if state is None:
            skipped += _extensions(k, d + 1, c)
        elif d + 1 < k:
            for n in (3, 2, 1):
                # the last anchor is also a neighbor of anchor 0, of color 1
                if n != c and (n != 1 or d + 2 < k):
                    stack.append((d + 1, n, state))
        else:
            palettes, colors = read_masks(order, state)
            root = Instance(induced_subgraph(p, [*palettes, *anchors]), palettes, colors,
                            anchors, stats)
            winner = _dfs(root, stats)
    if skipped:
        stats["anchor_colorings_skipped"] += skipped
    return winner


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
    only outer vertices and is not P4-free, so the outer-set check below
    refuses the branch, unless a check before it does.

    Every root holds its anchors.  By F1 no full palette touches the
    cycle, and since rule 6 spared the one component, some palette is full,
    so the outer set is not empty and an outer component is relevant; the
    graph is connected and the rim separates it from the anchors, so some
    rim vertex is relevant.  One cotree splits the outer set: a P4 lies in
    one component, and a union root's children are the components' own
    cotrees, in ascending order of least vertex, kept for the stages.
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

    root = cograph.cotree_or_failure(g, outer)
    if root is None:
        raise StageAssertionError("outer component is not P4-free")
    cotrees = root.children if root.kind == cograph.UNION else [root]
    comps = [frozenset(t.leaves()) for t in cotrees]
    comp_of = {}
    for idx, c in enumerate(comps):
        for v in c:
            comp_of[v] = idx
    comp_relevant = [any(len(inst.palettes[v]) == 3 for v in c) for c in comps]

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


def _backtrack_color(index) -> dict | None:
    """Exact 3-coloring by saturation-ordered backtracking, or None.

    index is one component's rank masks, maybe cut to it.  The next vertex
    has the fewest palette colors, then the highest degree, then the lowest
    id (DSatur order).  Its colors are tried in ascending order, and
    `reductions.propagate_masks` colors what each forces.  On a connected
    bipartite graph this order never needs a third color, so it never
    backtracks there.  Each try is stacked with the masks it starts from,
    so a retry undoes nothing and depth does not meet the recursion limit.
    """
    order, nbr, keep = index
    by_degree = {}   # degree -> the mask of its ranks, some outside keep, never picked
    for i, m in enumerate(nbr):
        by_degree[m.bit_count()] = by_degree.get(m.bit_count(), 0) | 1 << i
    tiers = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    state = (keep, keep, keep, 0, 0, 0)
    stack = []   # (bit of a vertex, color index, masks before it); popped in try order
    while True:
        a, b, c = state[:3]
        pick = (a & b | a & c | b & c) & ~(a & b & c) or a | b | c
        if not pick:
            return read_masks(order, state)[1]
        best = next(pick & t for t in tiers if pick & t)
        best &= -best
        stack += [(best, i, state) for i in (2, 1, 0) if state[i] & best]
        state = None
        while state is None:
            if not stack:
                return None
            bit, i, before = stack.pop()
            state = propagate_masks(nbr, before, bit, i)
