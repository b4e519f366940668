"""Palette propagation rules, replay-based witness records, and the one
structural operation the stage ladder uses (cut reduction).  Rule 6 colors
a component whose palettes all have two colors by `propagate`, shared with
the solver, each vertex trying one color and on a clash the other.  Rule 7
and cut reduction color a P4-free region from a cotree built once for it.

An Instance owns a working graph plus per-vertex palettes.  Rules either
settle colors, shrink palettes, or delete vertices.  A settled color goes
straight into the instance's color map: a committed vertex, and every
vertex of a region whose coloring was solved on the spot.  A deletion whose
color depends on vertices that outlive it appends a replay record instead
(low degree, domination, or a cut region keyed by its border vertex).  Witness
assembly seeds the color map and processes the records in reverse order of
creation.

F1 of the solver holds by construction, so no rule rechecks it: every live
palette holds two or three colors and lacks the color of each colored
neighbor, and no edge between two colored vertices is monochromatic.
Every palette starts full and only shrinks.  A palette reaches one color
in two places only, rule 4 and cut reduction, and each commits it there.
commit_color runs `propagate`, which colors every vertex its strikes leave
one color and reports a clash rather than leave a palette empty.  Edges are
never added, so these properties hold for as long as the two ends stay in
the graph.  This follows the module's rule: check the answer, not each
step.  `solver` verifies every witness on the whole input, so no step
rechecks what it builds or what its callers guarantee; the docstrings say
why each holds.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Iterable

from . import cograph
from .graph import Graph, connected_components

REJECTED = "rejected"
SOLVED = "solved"
CONTINUE = "continue"

ALL_COLORS = frozenset((1, 2, 3))


# -- replay records ---------------------------------------------------------


class RecDegree:
    """Vertex deleted with more palette colors than neighbors: one is free."""

    __slots__ = ("v", "palette", "neighbors")

    def __init__(self, v: int, palette: frozenset, neighbors: tuple):
        self.v = v
        self.palette = palette
        self.neighbors = neighbors

    def apply(self, coloring: dict) -> None:
        coloring[self.v] = min(self.palette - {coloring[u] for u in self.neighbors})


class RecDominated:
    """Vertex deleted because a dominating vertex can lend its color."""

    __slots__ = ("v", "dominator")

    def __init__(self, v: int, dominator: int):
        self.v = v
        self.dominator = dominator

    def apply(self, coloring: dict) -> None:
        coloring[self.v] = coloring[self.dominator]


class RecKeyedDrop:
    """A removed region whose coloring depends on one surviving vertex.

    At replay time the key vertex is already colored; its color selects
    which stored extension to merge.  Clones share the record; nothing edits it.
    """

    __slots__ = ("key", "extensions")

    def __init__(self, key: int, extensions: dict):
        self.key = key
        self.extensions = extensions

    def apply(self, coloring: dict) -> None:
        coloring.update(self.extensions[coloring[self.key]])


# -- instance ---------------------------------------------------------------


class Instance:
    """One branch of the search: working graph, palettes, replay log.

    palettes holds exactly the live uncolored vertices.  colors holds every
    settled color: committed vertices, and the vertices of regions solved
    on the spot and removed.  A committed vertex stays in the graph only
    when it is on the anchor cycle, anchor_order.
    """

    def __init__(self, g: Graph, stats: Counter):
        self.g = g
        self.palettes: dict[int, frozenset] = {v: ALL_COLORS for v in g.vertices()}
        self.colors: dict[int, int] = {}
        self.replay: list = []
        self.stats = stats
        # branch bookkeeping used by the anchored pipeline
        self.anchor_order: tuple = ()
        self.post_checks: list = []

    def clone(self) -> "Instance":
        other = Instance.__new__(Instance)
        other.g = self.g.copy()
        other.palettes = dict(self.palettes)
        other.colors = dict(self.colors)
        other.replay = list(self.replay)
        other.stats = self.stats
        other.anchor_order = self.anchor_order
        other.post_checks = list(self.post_checks)
        return other

    def eff_palette(self, v: int) -> frozenset:
        if v in self.colors:
            return frozenset((self.colors[v],))
        return self.palettes[v]

    def commit_color(self, v: int, color: int) -> bool:
        """Color v, then every vertex this leaves one color, by `propagate`.

        Each vertex it colors leaves the graph, except the anchors, which
        stay so later structural stages can see their adjacency.  Returns
        False on a clash: v holds another color or lacks this one, or a
        palette would run empty.  The branch then has no coloring with v
        colored so, and its caller drops it half committed.
        """
        live = len(self.palettes)
        if not propagate(self.g._adj, self.palettes, self.colors, v, color, []):
            self.stats["rule_empty_palette"] += 1
            return False
        # propagate adds each vertex it colors to the end of colors
        forced = 0
        for w in islice(reversed(self.colors), live - len(self.palettes)):
            if w not in self.anchor_order:
                self.g.remove_vertex(w)
                forced += w != v
        if forced:
            self.stats["rule_singleton_color"] += forced
        return True

    def delete_recorded(self, v: int, record) -> None:
        """Delete v, which rules 3 and 5 take from palettes, so uncolored."""
        del self.palettes[v]
        self.g.remove_vertex(v)
        self.replay.append(record)

    def remove_region(self, verts: Iterable[int], solved: dict | None = None) -> None:
        """Delete verts; solved settles the colors of the uncolored ones.

        An edge inside the region goes with its endpoints' adjacency
        entries, so only edges leaving the region cost a discard.
        """
        region = set(verts)
        adj = self.g._adj
        for v in region:
            self.palettes.pop(v, None)
            for u in adj.pop(v) - region:
                adj[u].discard(v)
        if solved:
            self.colors.update(solved)

    def assemble_witness(self, original_vertices: Iterable[int]) -> dict:
        """Run the replay log backwards into a full coloring.

        The settled colors seed the map.  A record reads only vertices that
        were in the graph when it fired; each of them is settled or was
        deleted by a newer record, which reverse order replays first.
        """
        coloring: dict[int, int] = dict(self.colors)
        for rec in reversed(self.replay):
            rec.apply(coloring)
        out = {}
        for v in original_vertices:
            if v not in coloring:
                raise AssertionError(f"witness replay missed vertex {v}")
            out[v] = coloring[v]
        return out


# -- basic reduction rules --------------------------------------------------

_FIRED = "fired"


def run_fixpoint(inst: Instance) -> str:
    """Apply rules 3 to 7 by priority until none fires.

    Forced colors need no rule: commit_color propagates them as they arise.

    It ends, since every firing pass deletes a vertex or shrinks a palette.
    Rules 3 and 5 delete a vertex, and rules 6 and 7 remove a component.
    Rule 4 skips a pair with equal palettes, so their intersection is a
    proper subset of one of them.  Empty, it rejects; one color, it commits
    both sides, and at least one is uncolored, since two colored sides with
    one color have equal palettes; else both sides are uncolored (a colored
    side's palette is its one color) and both palettes become it.
    """
    while True:
        out = _one_pass(inst)
        if out != _FIRED:
            return out


def _one_pass(inst: Instance) -> str:
    if not inst.palettes:
        if inst.g.vertex_count():
            # only anchored vertices left, properly colored by F1
            inst.remove_region(inst.g.vertices())
        return SOLVED

    # rule 3: more colors than neighbors -> vertex always colorable later
    if _prune_low_degree(inst):
        return _FIRED

    # rule 4: diamond consistency
    verdict = _diamond_pass(inst)
    if verdict is not None:
        return verdict

    # rule 5: neighborhood domination
    if _domination_pass(inst):
        return _FIRED

    comps = connected_components(inst.g)

    # rule 6: component with all palettes of size 2 -> forced-choice propagation
    for comp in comps:
        verdict = _two_sat_component(inst, comp)
        if verdict is not None:
            return verdict

    # rule 7: P4-free component -> direct list coloring
    for comp in comps:
        verdict = _cograph_component(inst, comp)
        if verdict is not None:
            return verdict

    return CONTINUE


def _prune_low_degree(inst: Instance) -> bool:
    adj = inst.g._adj
    fired = False
    while True:
        cands = sorted(v for v, p in inst.palettes.items() if len(p) > len(adj[v]))
        if not cands:
            return fired
        for v in cands:
            # a deletion only lowers degrees, so every candidate still qualifies
            rec = RecDegree(v, inst.palettes[v], tuple(sorted(adj[v])))
            inst.delete_recorded(v, rec)
            inst.stats["rule_degree_prune"] += 1
            fired = True


def _diamond_pass(inst: Instance):
    """One palette-intersection update on a diamond, or a rejection.

    Candidate pairs are the nonadjacent common neighbors of each edge; in
    any 3-coloring the two edge endpoints use two colors, so both common
    neighbors are forced to the remaining one and their palettes must agree.
    An intersection of one color commits both to it.  Edges are walked in
    ascending order, and an edge with fewer than two common neighbors holds
    no pair.
    """
    adj = inst.g._adj
    for u in sorted(adj):
        nu = adj[u]
        for w in sorted(w for w in nu if w > u):
            shared = nu & adj[w]
            if len(shared) < 2:
                continue
            shared = sorted(shared)
            for i, y in enumerate(shared):
                ny = adj[y]
                py = inst.eff_palette(y)
                for yp in shared[i + 1:]:
                    if yp in ny:
                        continue
                    pyp = inst.eff_palette(yp)
                    if py == pyp:
                        continue
                    inter = py & pyp
                    inst.stats["rule_diamond"] += 1
                    if not inter:
                        return REJECTED
                    if len(inter) == 1:
                        (c,) = inter
                        ok = all(inst.commit_color(z, c) for z in (y, yp))
                        return _FIRED if ok else REJECTED
                    inst.palettes[y] = inst.palettes[yp] = inter
                    return _FIRED
    return None


def _domination_pass(inst: Instance) -> bool:
    """Delete vertices whose neighborhood and palette are dominated.

    y is dominated by y' != y when N(y) is a subset of N(y') and the
    palette of y' is a subset of y's: in any coloring of the rest, y can
    take the color of y'.  The vertices y' with N(y) inside N(y') are the
    common neighbors of N(y), tried in ascending order.
    """
    adj = inst.g._adj
    fired = False
    for y in sorted(inst.palettes):
        ny = adj[y]
        if not ny:
            continue
        # y is a common neighbor of N(y) itself
        cands = set.intersection(*[adj[x] for x in ny])
        if len(cands) < 2:
            continue
        cands.discard(y)
        pal = inst.palettes[y]
        for yp in sorted(cands):
            if inst.eff_palette(yp) <= pal:
                inst.delete_recorded(y, RecDominated(y, yp))
                inst.stats["rule_domination"] += 1
                fired = True
                break
    return fired


def propagate(adj, palettes, colors, v, c, trail) -> bool:
    """Color v with c, then every vertex this leaves a single color.

    palettes holds the uncolored vertices in play, which leave it when
    colored; a neighbor missing from it is skipped.  Coloring v and each
    strike push (vertex, old palette) on trail, and undoing a strike that
    forced a vertex uncolors it.  Returns False, its changes left on trail,
    when v holds another color or lacks c, or a palette runs empty.  A
    color comes from a palette, which lost each colored neighbor's color.
    """
    if v in colors:
        return colors[v] == c
    if c not in palettes[v]:
        return False
    trail.append((v, palettes[v]))
    todo = [(v, c)]
    while todo:
        v, c = todo.pop()
        del palettes[v]
        colors[v] = c
        for w in adj[v]:
            left = palettes.get(w)
            if left is None or c not in left:
                continue
            if len(left) == 1:
                return False
            trail.append((w, left))
            left = palettes[w] = left - {c}
            if len(left) == 1:
                # pushed once: its palette can only run empty from here
                todo.append((w, min(left)))
    return True


def undo(palettes, colors, trail, mark: int) -> None:
    """Pop trail back to length mark, restoring palettes and colors."""
    while len(trail) > mark:
        v, old = trail.pop()
        palettes[v] = old
        colors.pop(v, None)


def _two_sat_component(inst: Instance, comp: set):
    """Rule 6: list-color a component whose live palettes all have two colors.

    Each undecided vertex, in ascending id order, tries its smaller color,
    then its other one, by `propagate` on a copy of the palettes: a neighbor
    whose palette holds the tried color must take its other color.  A try
    that meets a clash is undone, since every coloring that gives the vertex
    that color has the same clash.  A try that ends without a clash is kept:
    an undecided vertex has no decided neighbor whose color its palette
    holds, or that color would have forced it, so the undecided vertices
    keep their whole palettes and no constraint to a decided vertex, and
    they are colorable exactly when they were before the try.  When both
    tries clash the branch is rejected.  This is forced-choice 2-SAT (Even,
    Itai and Shamir, SIAM J. Comput. 5(4), 1976), without their lockstep
    tries, so it is O(n * m), not linear: a try that walks a long chain to a
    clash leaves it for the next vertex to walk again (a comb of k = 2,000
    teeth takes about 7 s).  The coloring is proper, and by F1 no live
    palette holds a colored vertex's color.
    """
    pal = inst.palettes
    unc = sorted(v for v in comp if v in pal)
    if any(len(pal[v]) != 2 for v in unc):
        return None
    inst.stats["rule_two_sat_component"] += 1
    adj = inst.g._adj
    left = {v: pal[v] for v in unc}
    solved: dict[int, int] = {}
    for v in unc:
        if v in solved:
            continue
        for c in sorted(pal[v]):
            trail: list = []
            if propagate(adj, left, solved, v, c, trail):
                break
            undo(left, solved, trail, 0)
        else:
            return REJECTED
    inst.remove_region(comp, solved)
    return _FIRED


def _cograph_component(inst: Instance, comp: set):
    """Rule 7: list-color a P4-free component from its cotree.

    comp is a whole component, so every neighbor of a solved vertex is in
    it, and `cograph.list3color` colors it properly from these palettes; a
    colored vertex's palette is its own color, so the edges to it are
    proper too.
    """
    # the anchor cycle, an induced C7 or C9, holds an induced P4
    if inst.anchor_order and comp.issuperset(inst.anchor_order):
        return None
    root, bad = cograph.cotree_or_failure(inst.g, comp)
    if bad is not None:
        return None
    eff = {v: inst.eff_palette(v) for v in comp}
    solved = cograph.list3color(root, eff)
    inst.stats["rule_cograph_component"] += 1
    if solved is None:
        return REJECTED
    solved = {v: c for v, c in solved.items() if v in inst.palettes}
    inst.remove_region(comp, solved)
    return _FIRED


# -- cut reduction ----------------------------------------------------------


def cut_reduction(inst: Instance, w: int, root: cograph.Cotree) -> str:
    """Reduce a P4-free region that meets the rest of the graph at w alone.

    The region C is the leaf set of root, its cotree; it holds w, and C - w
    has no neighbor outside C, so a coloring of C - w depends on the rest
    of the graph only through w's color.  C is list-colored from root with
    w clamped to each of w's colors in turn, free colors first: those that
    no neighbor of w outside C can take.  None extends: the branch is
    rejected.  A free color extends: w keeps it alone, since any coloring
    of the graph can switch w to it.  Otherwise w keeps the colors that
    extend.  C - w is deleted, and one record keyed by w stores the
    extension of each color w kept; a lone kept color is then committed.
    Returns _FIRED or REJECTED, the latter also when that commit clashes.
    w is C's only border vertex, as `solver._component_cases` has found.
    """
    c_ids = set(root.leaves())
    rest = c_ids - {w}
    inst.stats["op_cut_reduction"] += 1
    taken = set()
    for u in inst.g._adj[w] - c_ids:
        taken |= inst.eff_palette(u)
    pal = inst.palettes[w]
    eff = {v: inst.eff_palette(v) for v in rest}
    kept = {}
    for c in sorted(pal - taken) + sorted(pal & taken):
        eff[w] = frozenset((c,))
        sol = cograph.list3color(root, eff)
        if sol is None:
            continue
        kept[c] = {v: sol[v] for v in rest}
        if c not in taken:
            break
    if not kept:
        return REJECTED
    # C - w goes first, so a commit of w strikes no color inside it
    inst.remove_region(rest)
    inst.replay.append(RecKeyedDrop(w, kept))
    if len(kept) == 1:
        (c,) = kept
        return _FIRED if inst.commit_color(w, c) else REJECTED
    inst.palettes[w] = frozenset(kept)
    return _FIRED
