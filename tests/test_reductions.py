"""Palette reduction rules, replay records, and the cut reduction."""

import time
from collections import Counter
from random import Random

import pytest

from hered3 import cograph
from hered3.graph import Graph, induced_subgraph
from hered3.patterns import find_induced_cycle
from hered3.reductions import (
    ALL_COLORS,
    CONTINUE,
    REJECTED,
    SOLVED,
    Instance,
    RecDegree,
    RecDominated,
    RecKeyedDrop,
    _cograph_component,
    _diamond_pass,
    _domination_pass,
    _one_pass,
    _two_sat_component,
    cut_reduction,
    propagate,
    run_fixpoint,
    undo,
)
from hered3.solver import _proper_cycle_colorings
from hered3.testkit import (
    c7_gadget,
    c9_gadget,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    oracle_list3color,
    path_graph,
    petersen_graph,
    split_seed,
    verify_coloring,
)

FULL = ALL_COLORS


def make_instance(g, palettes=None):
    inst = Instance(g.copy(), Counter())
    if palettes:
        for v, p in palettes.items():
            inst.palettes[v] = frozenset(p)
    return inst


def inst_feasible(inst):
    """Exhaustive list-colorability of the live uncolored part."""
    live = [v for v in inst.g.vertices() if v in inst.palettes]
    sub = induced_subgraph(inst.g, live)
    return oracle_list3color(sub, {v: set(inst.palettes[v]) for v in live}) is not None


def test_commit_color_propagates():
    g = path_graph(3)
    inst = make_instance(g)
    assert inst.commit_color(2, 1)
    assert inst.colors == {2: 1}
    assert 2 not in inst.palettes
    assert not inst.g.has_vertex(2)  # not anchored, so removed
    assert inst.palettes[1] == frozenset((2, 3))
    assert inst.palettes[3] == frozenset((2, 3))


def test_commit_color_keep_anchors():
    g = path_graph(2)
    inst = make_instance(g)
    inst.anchor_order = (1,)
    assert inst.commit_color(1, 2)
    assert inst.g.has_vertex(1) and inst.g.has_edge(1, 2)
    assert inst.colors == {1: 2}


def test_commit_color_colors_a_forced_neighbor():
    inst = make_instance(path_graph(2), {2: {2, 3}})
    assert inst.commit_color(1, 2)
    assert inst.colors == {1: 2, 2: 3}
    assert not inst.palettes and not inst.g.vertex_count()
    assert inst.stats["rule_singleton_color"] == 1


def test_commit_color_colors_a_forced_chain_in_one_call():
    # each vertex of the path is left one color by its predecessor, so one
    # commit at an end colors all of them, with no fixpoint pass
    n = 1000
    g = path_graph(n)
    inst = make_instance(g, {v: {1, 2} for v in g.vertices()})
    assert inst.commit_color(1, 1)
    assert inst.colors == {v: 2 - v % 2 for v in g.vertices()}
    assert not inst.palettes and not inst.g.vertex_count()
    assert inst.stats["rule_singleton_color"] == n - 1
    assert inst.stats["rule_empty_palette"] == 0


def test_commit_color_clash_returns_false():
    # an odd cycle on two colors: the forced colors meet and clash
    g = cycle_graph(999)
    inst = make_instance(g, {v: {1, 2} for v in g.vertices()})
    assert not inst.commit_color(1, 1)
    assert inst.stats["rule_empty_palette"] == 1
    assert inst.stats["rule_singleton_color"] == 0


def test_commit_color_rejects_a_color_its_palette_lacks():
    inst = make_instance(path_graph(3), {2: {2, 3}})
    assert not inst.commit_color(2, 1)
    assert inst.stats["rule_empty_palette"] == 1


def test_degree_prune():
    g = Graph.from_edges([1], [])
    inst = make_instance(g)
    assert _one_pass(inst) == "fired"
    assert inst.stats["rule_degree_prune"] == 1
    assert not inst.g.has_vertex(1)
    rec = inst.replay[-1]
    assert isinstance(rec, RecDegree)
    coloring = {}
    rec.apply(coloring)
    assert coloring[1] in (1, 2, 3)


def test_degree_prune_cascades():
    # a path evaporates end-first once palettes beat degrees
    inst = make_instance(path_graph(5))
    assert _one_pass(inst) == "fired"
    assert inst.g.vertex_count() == 0
    assert run_fixpoint(inst) == SOLVED
    witness = inst.assemble_witness([1, 2, 3, 4, 5])
    assert verify_coloring(path_graph(5), witness)


def diamond_graph():
    # edge (1,2) with two nonadjacent common neighbors 3 and 4
    return Graph.from_edges(range(1, 5), [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])


def test_diamond_intersects_palettes():
    inst = make_instance(diamond_graph(), {3: {1, 2}})
    assert _diamond_pass(inst) == "fired"
    assert inst.palettes[3] == inst.palettes[4] == frozenset((1, 2))
    assert inst.stats["rule_diamond"] == 1


def test_diamond_commits_a_one_color_intersection():
    # 3 and 4 can share only 2, so both take it and leave the graph
    inst = make_instance(diamond_graph(), {3: {1, 2}, 4: {2, 3}})
    assert _diamond_pass(inst) == "fired"
    assert inst.colors == {3: 2, 4: 2}
    assert set(inst.g.vertices()) == {1, 2}
    assert inst.palettes[1] == inst.palettes[2] == frozenset((1, 3))
    assert inst.stats["rule_diamond"] == 1


def test_diamond_skips_equal_palettes():
    inst = make_instance(diamond_graph())
    assert _diamond_pass(inst) is None


def test_diamond_rejects_on_disjoint():
    inst = make_instance(diamond_graph(), {3: {1}, 4: {2}})
    assert _diamond_pass(inst) == REJECTED


def test_domination_deletes():
    # opposite corners of a square dominate each other; palettes single
    # out vertex 3 as the only legal deletion
    g = cycle_graph(4)
    inst = make_instance(g, {1: {1, 2}, 3: {1, 2, 3}, 2: {1, 3}, 4: {2, 3}})
    assert _domination_pass(inst)
    assert not inst.g.has_vertex(3)
    assert inst.g.vertex_count() == 3
    assert inst.stats["rule_domination"] == 1
    rec = next(r for r in inst.replay if isinstance(r, RecDominated))
    assert rec.v == 3 and rec.dominator == 1
    coloring = {1: 2}
    rec.apply(coloring)
    assert coloring[3] == 2


def test_domination_needs_palette_containment():
    # incomparable palettes on both twin pairs: nothing may fire
    g = cycle_graph(4)
    inst = make_instance(g, {1: {1, 2}, 3: {1, 3}, 2: {1, 2}, 4: {1, 3}})
    assert not _domination_pass(inst)
    assert inst.g.vertex_count() == 4


# -- rules 4 and 5 against the per-edge and per-gate walks --------------------


def naive_diamond_pass(inst):
    """Rule 4 by every pair of common neighbors of every edge, in order."""
    for u, w in inst.g.edges():
        shared = sorted(inst.g.neighbors(u) & inst.g.neighbors(w))
        for i in range(len(shared)):
            y = shared[i]
            py = inst.eff_palette(y)
            for j in range(i + 1, len(shared)):
                yp = shared[j]
                if inst.g.has_edge(y, yp):
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
                    ok = inst.commit_color(y, c) and inst.commit_color(yp, c)
                    return "fired" if ok else REJECTED
                inst.palettes[y] = inst.palettes[yp] = inter
                return "fired"
    return None


def naive_domination_pass(inst):
    """Rule 5 by walking the neighbors of y's least-degree neighbor."""
    fired = False
    for y in sorted(inst.palettes):
        ny = inst.g.neighbors(y)
        if not ny:
            continue
        gate = min(ny, key=lambda x: (inst.g.degree(x), x))
        for yp in inst.g.sorted_neighbors(gate):
            if yp == y:
                continue
            if not inst.eff_palette(yp) <= inst.palettes[y]:
                continue
            if not ny <= inst.g.neighbors(yp):
                continue
            inst.delete_recorded(y, RecDominated(y, yp))
            inst.stats["rule_domination"] += 1
            fired = True
            break
    return fired


def rule_instance(i):
    """A random graph with planted dominators, random palettes, and up to
    two anchor vertices kept in the graph with a committed color."""
    rng = Random(split_seed(66, i))
    g = erdos_renyi(rng.randint(4, 14), rng.choice((0.3, 0.5, 0.7)), split_seed(67, i))
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(g.vertices())
        t = g.add_vertex()
        for w in list(g.neighbors(v)) + rng.sample(g.vertices()[:-1], 1):
            if w != t and not g.has_edge(t, w):
                g.add_edge(t, w)
    inst = make_instance(g, {v: rng.sample((1, 2, 3), rng.randint(1, 3)) for v in g.vertices()})
    for v in rng.sample(g.vertices(), rng.randint(0, 2)):
        if not inst.palettes.get(v):
            continue
        c = rng.choice(sorted(inst.palettes[v]))
        if all(inst.colors.get(w) != c for w in g.neighbors(v)):
            inst.anchor_order += (v,)
            inst.commit_color(v, c)
    return inst


def rule_state(inst, out):
    replay = [(type(r).__name__, *(getattr(r, a) for a in r.__slots__)) for r in inst.replay]
    adjacency = {v: sorted(inst.g.neighbors(v)) for v in inst.g.vertices()}
    return out, dict(inst.palettes), dict(inst.colors), replay, dict(inst.stats), adjacency


@pytest.mark.parametrize("rule,naive,key", [
    (_diamond_pass, naive_diamond_pass, "rule_diamond"),
    (_domination_pass, naive_domination_pass, "rule_domination"),
])
def test_set_based_rule_scans_match_the_naive_walks(rule, naive, key):
    fired = anchored = 0
    for i in range(500):
        fast, slow = rule_instance(i), rule_instance(i)
        assert rule_state(fast, rule(fast)) == rule_state(slow, naive(slow)), i
        fired += fast.stats[key] > 0
        anchored += bool(fast.colors) and fast.stats[key] > 0
    assert fired > 300 and anchored > 150


def _k4_with_pendant():
    # K4 on 1..4, vertex 5 hangs off 1; 2 and 3 may take only 1 or 2
    g = complete_graph(4)
    g.add_edge(1, g.add_vertex())
    palettes = {v: FULL for v in g.vertices()}
    palettes[2] = palettes[3] = frozenset((1, 2))
    return g._adj, palettes


def test_undo_restores_a_clashing_propagation():
    # 1 = 1 forces 2 and 3 to 2, which clash, after striking 1 from 4 and 5
    adj, palettes = _k4_with_pendant()
    colors, trail = {}, []
    before = dict(palettes)
    assert not propagate(adj, palettes, colors, 1, 1, trail)
    assert palettes[4] == {2, 3} and colors
    undo(palettes, colors, trail, 0)
    assert palettes == before and colors == {} and trail == []


def test_undo_keeps_the_propagation_before_its_mark():
    # 5 = 3 strikes 3 from 1 and is kept; then each color of 1 forces 2
    # and 3 to one color, which clash, and each try is undone to the mark
    adj, palettes = _k4_with_pendant()
    colors, trail = {}, []
    assert propagate(adj, palettes, colors, 5, 3, trail)
    assert palettes[1] == {1, 2} and colors == {5: 3}
    kept = dict(palettes)
    mark = len(trail)
    for c in (1, 2):
        assert not propagate(adj, palettes, colors, 1, c, trail)
        undo(palettes, colors, trail, mark)
        assert palettes == kept and colors == {5: 3} and len(trail) == mark


def test_two_sat_component_solves():
    # C6 with one shared binary palette: degrees match palette sizes and
    # no neighborhood contains another, so only the 2-SAT rule can act
    inst = make_instance(cycle_graph(6), {v: {1, 2} for v in range(1, 7)})
    assert run_fixpoint(inst) == SOLVED
    assert inst.stats["rule_two_sat_component"] >= 1
    witness = inst.assemble_witness(range(1, 7))
    assert verify_coloring(cycle_graph(6), witness)
    assert all(witness[v] in (1, 2) for v in range(1, 7))


def test_two_sat_component_rejects():
    inst = make_instance(complete_graph(3), {v: {1, 2} for v in range(1, 4)})
    assert run_fixpoint(inst) == REJECTED
    assert inst.stats["rule_two_sat_component"] == 1


def test_two_color_rule_retries_a_clashing_color():
    # a=1 forces b and c to 3, which clash; a=2 forces nothing and is kept,
    # then b tries 1 and forces c to 3
    inst = make_instance(complete_graph(3), {1: {1, 2}, 2: {1, 3}, 3: {1, 3}})
    assert _two_sat_component(inst, {1, 2, 3}) == "fired"
    assert inst.colors == {1: 2, 2: 1, 3: 3}
    assert not inst.g.vertex_count()


def test_two_color_rule_keeps_a_try_that_leaves_vertices_undecided():
    # no palette of the path holds vertex 1's color 1, so its try is kept
    # alone; vertex 2's try then forces 3 and, through 3, vertex 4
    inst = make_instance(path_graph(4), {1: {1, 2}, 2: {2, 3}, 3: {2, 3}, 4: {2, 3}})
    assert _two_sat_component(inst, {1, 2, 3, 4}) == "fired"
    assert inst.colors == {1: 1, 2: 2, 3: 3, 4: 2}
    assert inst.stats["rule_two_sat_component"] == 1


def test_two_color_rule_stays_linear_on_a_large_star():
    # the first leaf's try forces the centre, the last vertex, to 1, and
    # every later try walks one edge.  About 0.08 s on a 2-core x86 box; a
    # try that copies its colors and palettes, where propagate and undo
    # change them in place, is quadratic and took 10 s there
    n = 20_000
    g = complete_bipartite(n, 1)
    pals = {v: {2, 3} for v in range(1, n + 1)}
    pals[n + 1] = {1, 2}
    inst = make_instance(g, pals)
    start = time.perf_counter()
    assert _two_sat_component(inst, set(g.vertices())) == "fired"
    elapsed = time.perf_counter() - start
    assert inst.colors[n + 1] == 1
    assert all(inst.colors[v] == 2 for v in range(1, n + 1))
    assert elapsed < 2.0, elapsed


def test_cograph_component_solves():
    # triangle with one forced corner
    inst = make_instance(complete_graph(3), {1: {2}})
    assert run_fixpoint(inst) == SOLVED
    witness = inst.assemble_witness(range(1, 4))
    assert verify_coloring(complete_graph(3), witness)
    assert witness[1] == 2


def test_cograph_component_rejects():
    g = complete_graph(3)
    inst = make_instance(g, {1: {1, 2}, 2: {1, 2}, 3: {1, 2}})
    assert _cograph_component(inst, set(g.vertices())) == REJECTED


def test_fixpoint_continue_on_stubborn_graph():
    # Petersen: degrees equal palette sizes, no diamonds, no dominations,
    # no binary or P4-free component; nothing can fire
    inst = make_instance(petersen_graph())
    assert run_fixpoint(inst) == CONTINUE
    assert inst.g.vertex_count() == 10


def anchored_roots(graphs):
    """Each gadget with an instance per anchor coloring whose commits do
    not clash."""
    for g in graphs:
        for k in (7, 9):
            cycle = find_induced_cycle(g, k)
            if cycle is not None:
                break
        for coloring in _proper_cycle_colorings(k):
            inst = make_instance(g)
            inst.anchor_order = tuple(cycle)
            if all(inst.commit_color(v, c) for v, c in zip(cycle, coloring)):
                yield g, inst


def test_fixpoint_metric_strictly_decreases():
    # run_fixpoint ends because every firing pass deletes a vertex or
    # shrinks a palette: (live vertices, total palette size) drops
    def metric(inst):
        return (inst.g.vertex_count(), sum(len(p) for p in inst.palettes.values()))

    insts = [make_instance(erdos_renyi(8, 0.3, split_seed(61, i))) for i in range(40)]
    gadgets = [c7_gadget(s) for s in range(40)] + [c9_gadget(s) for s in range(6)]
    insts += [inst for _, inst in anchored_roots(gadgets)]
    fired = 0
    for inst in insts:
        prev = metric(inst)
        while _one_pass(inst) == "fired":
            cur = metric(inst)
            assert cur < prev
            prev = cur
            fired += 1
    assert fired > 0


def test_keyed_drop_replay():
    rec = RecKeyedDrop(5, {1: {8: 2}, 3: {8: 1}})
    coloring = {5: 3}
    rec.apply(coloring)
    assert coloring == {5: 3, 8: 1}


def test_anchored_branches_record_only_dependent_colors():
    # settled colors live in inst.colors; the replay log keeps only the
    # deletions whose color depends on another vertex
    dependent = (RecDegree, RecDominated, RecKeyedDrop)
    records = solved = 0
    gadgets = [c7_gadget(s) for s in range(6)] + [c9_gadget(s) for s in range(3)]
    for g, inst in anchored_roots(gadgets):
        out = run_fixpoint(inst)
        assert all(isinstance(rec, dependent) for rec in inst.replay)
        records += len(inst.replay)
        if out == SOLVED:
            assert verify_coloring(g, inst.assemble_witness(g.vertices()))
            solved += 1
    assert records > 0 and solved > 0


# -- cut reduction -----------------------------------------------------------


def border_instance(region_edges, region_palettes, outside_palette=(1, 3)):
    """Outside vertices 1 and 2 that see only the border vertex 11 of a
    small region."""
    g = Graph.from_edges([1, 2, *region_palettes], [(1, 11), (2, 11), *region_edges])
    inst = make_instance(g, region_palettes)
    inst.palettes[1] = inst.palettes[2] = frozenset(outside_palette)
    return inst


def cut(inst, w, region):
    """cut_reduction on the cotree of the region."""
    root, _ = cograph.cotree_or_failure(inst.g, region)
    return cut_reduction(inst, w, root)


def test_cut_reduction_keeps_a_free_color_alone():
    # no outside neighbor of 11 can take 2, and 2 extends, so 11 keeps it
    # alone: every coloring of the graph can switch 11 to 2
    inst = border_instance([(11, 12), (11, 13)], {11: FULL, 12: FULL, 13: FULL})
    assert cut(inst, 11, (11, 12, 13)) == "fired"
    assert inst.stats["op_cut_reduction"] == 1
    assert set(inst.g.vertices()) == {1, 2}
    assert inst.colors[11] == 2
    (rec,) = inst.replay
    assert rec.key == 11 and rec.extensions == {2: {12: 1, 13: 1}}
    assert run_fixpoint(inst) == SOLVED
    g = Graph.from_edges([1, 2, 11, 12, 13], [(1, 11), (2, 11), (11, 12), (11, 13)])
    assert verify_coloring(g, inst.assemble_witness(g.vertices()))


def test_cut_reduction_forced_color():
    # 12 and 13 pin 11 to 1, which its outside neighbors can take too
    inst = border_instance([(11, 12), (11, 13)], {11: FULL, 12: {2}, 13: {3}})
    assert cut(inst, 11, (11, 12, 13)) == "fired"
    assert inst.colors[11] == 1
    assert inst.replay[-1].extensions == {1: {12: 2, 13: 3}}
    assert run_fixpoint(inst) == SOLVED
    assert inst.colors[11] == 1 and inst.colors[1] == inst.colors[2] == 3


def test_cut_reduction_keeps_every_extending_color():
    # the free color 2 clashes with 12, and both other colors extend, so 11
    # keeps {1, 3} and one record keyed by 11 holds both extensions; no
    # vertex or edge is added
    inst = border_instance([(11, 12)], {11: FULL, 12: {2}})
    edges = set(inst.g.edges())
    assert cut(inst, 11, (11, 12)) == "fired"
    assert set(inst.g.vertices()) == {1, 2, 11}
    assert set(inst.g.edges()) <= edges
    assert inst.palettes[11] == frozenset((1, 3))
    (rec,) = inst.replay
    assert isinstance(rec, RecKeyedDrop)
    assert rec.key == 11
    assert rec.extensions == {1: {12: 2}, 3: {12: 2}}


def test_cut_reduction_rejects():
    inst = border_instance([(11, 12), (11, 13), (12, 13)],
                           {11: {1, 2}, 12: {1, 2}, 13: {1, 2}})
    assert cut(inst, 11, (11, 12, 13)) == REJECTED


def test_cut_reduction_preserves_list_colorability():
    # a random P4-free region hung on a random outside part at one vertex:
    # the reduction keeps list-colorability, and replay extends a
    # coloring of what is left to the whole graph
    fired = 0
    for i in range(200):
        rng = Random(split_seed(64, i))
        outside = erdos_renyi(rng.randint(2, 5), 0.5, split_seed(65, i))
        region = [100 + j for j in range(rng.randint(2, 5))]
        g = Graph.from_edges(outside.vertices() + region, outside.edges())
        for j, u in enumerate(region):
            for v in region[j + 1:]:
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        root, bad = cograph.cotree_or_failure(g, region)
        if bad is not None:
            continue
        for x in rng.sample(outside.vertices(), rng.randint(1, 2)):
            g.add_edge(x, region[0])
        inst = make_instance(g, {v: rng.sample((1, 2, 3), rng.randint(1, 3))
                                 for v in g.vertices()})
        pal_in = dict(inst.palettes)
        want = inst_feasible(inst)
        if cut_reduction(inst, region[0], root) == REJECTED:
            assert not want, i
            continue
        assert inst_feasible(inst) == want, i
        if not want:
            continue
        fired += 1
        sub = induced_subgraph(inst.g, inst.g.vertices())
        inst.colors.update(oracle_list3color(
            sub, {v: set(p) for v, p in inst.palettes.items()}))
        witness = inst.assemble_witness(g.vertices())
        assert verify_coloring(g, witness), i
        assert all(witness[v] in pal_in[v] for v in g.vertices()), i
    assert fired > 40


# -- randomized soundness -------------------------------------------------------


def random_instance(i):
    rng = Random(split_seed(62, i))
    n = rng.randint(4, 10)
    g = erdos_renyi(n, rng.choice((0.25, 0.4, 0.55)), split_seed(63, i))
    inst = make_instance(g)
    for v in list(inst.palettes):
        k = rng.randint(1, 3)
        inst.palettes[v] = frozenset(rng.sample((1, 2, 3), k))
    return inst


def test_reduction_passes_preserve_feasibility():
    terminals = {REJECTED: 0, SOLVED: 0, CONTINUE: 0}
    for i in range(250):
        inst = random_instance(i)
        want = inst_feasible(inst)
        while True:
            out = _one_pass(inst)
            if out != "fired":
                break
            # every firing pass keeps list-colorability unchanged
            assert inst_feasible(inst) == want, i
        terminals[out] += 1
        if out == REJECTED:
            assert not want, i
        elif out == SOLVED:
            assert want, i
    assert terminals[REJECTED] > 20
    assert terminals[SOLVED] > 20


def test_fixpoint_witnesses_are_proper():
    checked = 0
    for i in range(150):
        inst = random_instance(i)
        g0 = inst.g.copy()
        pal0 = dict(inst.palettes)
        if run_fixpoint(inst) != SOLVED:
            continue
        witness = inst.assemble_witness(g0.vertices())
        assert verify_coloring(g0, witness)
        assert all(witness[v] in pal0[v] for v in g0.vertices())
        checked += 1
    assert checked > 40
