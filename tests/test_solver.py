"""End-to-end tests for the solving pipeline.

Decisions are checked against the exhaustive oracle in testkit, and the
stats counters pin down which route of the pipeline produced each verdict.
`solve` peels its quotient to the 3-core first, and a plain gadget or cycle
peels away whole.  So a pin of the route through the anchored runs, the
stages or the plain colorer solves a gadget thickened by
`testkit.thicken`, whose 3-core holds the anchor cycle, or a graph of
minimum degree 3.  A pin of one layer on a fixed input that the peel
removes calls that layer directly: `solver._run_anchored`,
`solver._solve_component` or `solver._backtrack_color`.
"""

import sys
import time
import warnings
from collections import Counter
from itertools import combinations, product
from random import Random

import pytest

from hered3 import cograph, graph, patterns, reductions, solver
from hered3.errors import ClassViolationError, StageAssertionError
from hered3.formats import parse_edge_list
from hered3.graph import (
    Graph,
    connected_components,
    false_twins,
    induced_subgraph,
    odd_cycle_transversal,
    twin_core,
)
from hered3.patterns import check_class
from hered3.reductions import ALL_COLORS, Instance
from hered3.solver import _proper_cycle_colorings, solve
from hered3.testkit import (
    c7_gadget,
    c9_gadget,
    co_bipartite,
    complete_bipartite,
    count_proper_3colorings,
    crown_graph,
    cycle_blowup,
    cycle_graph,
    erdos_renyi,
    naive_in_class,
    named_graph,
    oracle_list3color,
    path_graph,
    split_seed,
    thicken,
    verify_coloring,
)


def oracle_solve(g, assume_class=False):
    """solve(g) with a witness, its verdict the oracle's and its witness
    verified."""
    rep = solve(g, witness=True, assume_class=assume_class)
    want = oracle_list3color(g)
    assert rep.decision == ("not_colorable" if want is None else "colorable")
    assert rep.witness is None if want is None else verify_coloring(g, rep.witness)
    return rep


def thickened(seed):
    """c7_gadget(seed) thickened with the same seed."""
    return thicken(c7_gadget(seed), seed)


# seeds of thickened(seed) whose solve fires the stage: every one is
# colorable, and each component case is a cut reduction behind a
# one-vertex border
SINGLE_ANCHOR_SEEDS = (20, 28, 101, 128, 159, 181, 204, 249, 268, 282, 322, 347)
OPPOSING_PAIR_SEEDS = (9, 448, 623, 1087, 1120, 1134, 1165)
COMPONENT_CASE_SEEDS = (254, 345, 422, 680, 777, 819, 832, 844, 1005, 1088, 1193)
STAGE_SEEDS = SINGLE_ANCHOR_SEEDS + OPPOSING_PAIR_SEEDS + COMPONENT_CASE_SEEDS


def solve_component(g, stats):
    """`solver._solve_component` on the whole of a connected g, with its
    twin core and that core's odd-cycle transversal."""
    core = twin_core(g)
    return solver._solve_component(g, core, odd_cycle_transversal(core), set(g.vertices()), stats)


def run_anchored(g, k=7):
    """`solver._run_anchored` on the whole of a connected g, anchored on its
    first induced k-cycle: its stats and the winning branch's witness, or
    None when every branch is rejected."""
    stats = Counter()
    won = solver._run_anchored(g, patterns.find_induced_cycle(g, k), stats)
    return stats, None if won is None else won.assemble_witness(g.vertices())


def disjoint_union(*graphs):
    """The graphs side by side, each one's ids shifted past the last's."""
    edges, shift = [], 0
    for h in graphs:
        edges += [(u + shift, w + shift) for u, w in h.edges()]
        shift += max(h.vertices())
    return Graph.from_edges(range(1, shift + 1), edges)


def quotient_size(g, rep):
    """The vertex count of the false-twin quotient that rep solved."""
    return g.vertex_count() - rep.stats.get("false_twins", 0)


def wheel(k):
    g = cycle_graph(k)
    hub = g.add_vertex()
    for v in range(1, k + 1):
        g.add_edge(hub, v)
    return g


def grotzsch_graph():
    # triangle-free and 4-chromatic: a 5-cycle, a second layer where
    # vertex 5+i sees the cycle neighbors of i, and an apex over the layer
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for i in range(5):
        edges += [(5 + i, (i - 1) % 5), (5 + i, (i + 1) % 5), (5 + i, 10)]
    return Graph.from_edges(range(11), edges)


def rimmed_seven_cycle(r):
    """A 7-cycle with two rim vertices two apart on the cycle, tied to a
    shared triangle.  The rotation r shifts both attachment pairs."""
    edges = [(i, (i + 1) % 7) for i in range(7)]
    x1, x2, a, b, bp = 7, 8, 9, 10, 11
    edges += [(x1, (0 + r) % 7), (x1, (2 + r) % 7), (x1, a)]
    edges += [(x2, (3 + r) % 7), (x2, (5 + r) % 7), (x2, b), (x2, bp)]
    edges += [(a, b), (a, bp), (b, bp)]
    return Graph.from_edges(range(12), edges)


# -- preflight certificates -------------------------------------------------

def test_k4_rejected_in_preflight():
    rep = solve(named_graph("k4"))
    assert rep.decision == "not_colorable"
    assert rep.witness is None
    assert rep.stats["preflight_odd_neighborhood_k4"] == 1


def test_co_c7_rejected_in_preflight():
    rep = solve(named_graph("co_c7"))
    assert rep.decision == "not_colorable"
    assert rep.stats["preflight_co_c7"] == 1
    assert "preflight_odd_neighborhood_k4" not in rep.stats


def test_k4_preflight_sees_the_whole_graph():
    # K4 is a triangle plus a true twin, and its twin core is one vertex:
    # the odd-neighborhood check must not run on the core
    g = cycle_graph(3)
    t = g.add_vertex()
    for v in (1, 2, 3):
        g.add_edge(t, v)
    assert len(twin_core(g)) == 1
    rep = solve(g)
    assert rep.decision == "not_colorable"
    assert rep.stats["preflight_odd_neighborhood_k4"] == 1


def test_co_c7_preflight_with_a_planted_twin():
    # co-C7 has no twins, so the twin core of co-C7 plus a twin is co-C7;
    # a true twin of 1 also sees 1 joined to the path N(1), which holds a
    # K4, and the odd-neighborhood check runs first
    for true_twin in (False, True):
        g = named_graph("co_c7")
        t = g.add_vertex()
        for w in list(g.neighbors(1)):
            g.add_edge(t, w)
        if true_twin:
            g.add_edge(t, 1)
        assert twin_core(g).vertices() == list(range(1, 8))
        assert patterns.find_co_c7(twin_core(g)) is not None
        rep = solve(g)
        assert rep.decision == "not_colorable"
        if true_twin:
            assert rep.stats["preflight_odd_neighborhood_k4"] == 1
            assert "preflight_co_c7" not in rep.stats
        else:
            assert rep.stats["preflight_co_c7"] == 1


def test_odd_neighborhood_check_runs_before_co_c7(monkeypatch):
    # a co-bipartite graph holds a K4 as soon as a side has four vertices;
    # the neighborhood check finds it at once, and the co-C7 search, which
    # would scan every vertex's dense neighborhood first, never runs
    calls = []
    real = patterns.find_co_c7

    def counting(g):
        calls.append(g.vertex_count())
        return real(g)

    monkeypatch.setattr(patterns, "find_co_c7", counting)
    g = co_bipartite(60, 0.5, 7)
    rep = solve(g, assume_class=True)
    assert rep.decision == "not_colorable"
    assert rep.stats["preflight_odd_neighborhood_k4"] == 1
    assert calls == []
    rep = solve(named_graph("co_c7"))
    assert rep.stats["preflight_co_c7"] == 1
    assert calls == [7]


def test_bipartite_components_skip_the_anchor_search(monkeypatch):
    # a bipartite component has no odd cycle, so no C7 or C9 is sought in it
    # (the thickening runs class checks of its own, so it comes first)
    anchored = thickened(2)
    calls = []
    real = patterns.find_induced_cycle

    def recorded(g, k, trans=None):
        calls.append(k)
        return real(g, k, trans)

    monkeypatch.setattr(patterns, "find_induced_cycle", recorded)
    # S_6 and the cube S_4 are their own 3-cores; C8 peels away whole, so
    # the component layer takes it directly
    for g in (crown_graph(6), crown_graph(4)):
        rep = oracle_solve(g)
        assert "peeled" not in rep.stats and rep.stats["components_plain"] == 1
    g = cycle_graph(8)
    stats = Counter()
    assert verify_coloring(g, solve_component(g, stats))
    assert dict(stats) == {"components_plain": 1}
    assert calls == []
    # a thickened gadget's 3-core is anchored on its 7-cycle after the
    # class check's C5 search; a cycle peels away whole, so its only
    # search is that C5
    rep = oracle_solve(anchored)
    assert rep.stats["components_anchored_7"] == 1 and "peeled" not in rep.stats
    assert calls == [5, 7]
    calls.clear()
    for g, peeled in ((cycle_graph(8), 8), (cycle_graph(7), 7)):
        assert oracle_solve(g).stats["peeled"] == peeled
    assert calls == [5]


def test_co_c7_preflight_skips_roots_with_independent_neighbourhoods(monkeypatch):
    # a co-C7's least vertex sees an induced P4 above it, so on a
    # triangle-free graph the preflight lists no P4 in any neighbourhood
    calls = []
    real = patterns.iter_induced_p4s

    def recorded(g, within=None):
        calls.append(within)
        return real(g, within)

    monkeypatch.setattr(patterns, "iter_induced_p4s", recorded)
    rep = solve(crown_graph(100))
    assert rep.decision == "colorable"
    assert calls == []
    rep = solve(named_graph("co_c7"))
    assert rep.stats["preflight_co_c7"] == 1
    assert len(calls) == 1


def test_odd_wheels_rejected_by_neighborhood_check():
    rep7 = solve(wheel(7))
    assert rep7.decision == "not_colorable"
    assert rep7.stats["preflight_odd_neighborhood_c7"] == 1

    rep9 = solve(wheel(9))
    assert rep9.decision == "not_colorable"
    assert rep9.stats["preflight_odd_neighborhood_c9"] == 1

    # the 5-wheel's rim is an excluded cycle, so the verdict needs the waiver
    with pytest.raises(ClassViolationError):
        solve(wheel(5))
    rep5 = solve(wheel(5), assume_class=True)
    assert rep5.decision == "not_colorable"
    assert rep5.stats["preflight_odd_neighborhood_c5"] == 1


# -- class membership gate --------------------------------------------------

def test_out_of_class_input_raises_with_witness():
    with pytest.raises(ClassViolationError) as err:
        solve(cycle_graph(5))
    assert err.value.witness.kind == "c5"

    with pytest.raises(ClassViolationError) as err:
        solve(named_graph("petersen"))
    assert err.value.witness.kind in ("c5", "2p4")


def test_out_of_class_inputs_solve_under_waiver():
    # the Petersen graph is its own 3-core and a plain component; C5 peels
    # away whole, and the component layer colors it as a plain one
    for g, peeled in ((cycle_graph(5), 5), (named_graph("petersen"), 0)):
        rep = oracle_solve(g, assume_class=True)
        assert rep.decision == "colorable"
        assert rep.stats.get("peeled", 0) == peeled
        assert rep.stats.get("components_plain", 0) == (not peeled)
        stats = Counter()
        assert verify_coloring(g, solve_component(g, stats))
        assert dict(stats) == {"components_plain": 1}


def test_waiver_on_uncolorable_input_stays_honest():
    # a plain component is colored, not assumed colorable, so the verdict
    # does not depend on whether the caller asked for the witness
    g = grotzsch_graph()
    assert oracle_list3color(g) is None
    for want_witness in (True, False):
        rep = solve(g, witness=want_witness, assume_class=True)
        assert rep.decision == "not_colorable"
        assert rep.witness is None
        assert rep.stats["components_plain"] == 1


def test_witness_check_names_the_first_bad_vertex():
    # vertices in ascending order: a missing or out-of-range color, or the
    # first neighbor that shares the vertex's color
    g = cycle_graph(5)
    solver._verify_witness(g, {1: 1, 2: 2, 3: 1, 4: 2, 5: 3})
    with pytest.raises(AssertionError, match="witness misses vertex 3"):
        solver._verify_witness(g, {1: 1, 2: 2, 4: 1, 5: 4})
    with pytest.raises(AssertionError, match="witness misses vertex 5"):
        solver._verify_witness(g, {1: 1, 2: 2, 3: 1, 4: 2, 5: 4})
    with pytest.raises(AssertionError, match="witness colors edge 2,3 monochromatically"):
        solver._verify_witness(g, {1: 1, 2: 2, 3: 2, 4: 1, 5: 3})
    with pytest.raises(AssertionError, match="witness colors edge 1,5 monochromatically"):
        solver._verify_witness(g, {1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 9: 1})


def test_witness_check_names_the_least_fault_in_any_adjacency_order():
    # the labels first appear out of id order (label 6 is vertex 1); a
    # parsed graph keeps its adjacency in id order, so the copy lists it
    # descending: the messages still name the least fault, as the
    # ascending walk does
    doc = parse_edge_list("6 5\n5 4\n4 3\n3 2\n2 1\n1 6\n")
    assert doc.labels == {1: "6", 2: "5", 3: "4", 4: "3", 5: "2", 6: "1"}
    back = Graph.from_edges(sorted(doc.graph.vertices(), reverse=True), doc.graph.edges())
    assert list(back._adj) == [6, 5, 4, 3, 2, 1]
    for g in (doc.graph, back):
        # the 6-cycle 1-2-3-4-5-6
        solver._verify_witness(g, {1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2})
        with pytest.raises(AssertionError, match="witness colors edge 2,3 monochromatically"):
            solver._verify_witness(g, {1: 1, 2: 2, 3: 2, 4: 1, 5: 3, 6: 3})
        with pytest.raises(AssertionError, match="witness misses vertex 3"):
            solver._verify_witness(g, {1: 1, 2: 2, 3: 0, 5: None, 6: 2})
        with pytest.raises(AssertionError, match="witness misses vertex 4"):
            solver._verify_witness(g, {1: 1, 2: 2, 3: 1, 5: 1, 6: 0})
        with pytest.raises(AssertionError, match="witness misses vertex 5"):
            solver._verify_witness(g, {1: 1, 2: 2, 3: 1, 4: 2, 5: None, 6: 0})


# -- anchored components ----------------------------------------------------

def test_seven_cycle_enumerates_all_anchor_colorings():
    # one anchor branch per orbit of the 126 proper colorings under the
    # six color permutations; on the bare cycle through the anchored layer,
    # and through solve on a thickened gadget's 3-core
    g = cycle_graph(7)
    stats, witness = run_anchored(g)
    assert verify_coloring(g, witness)
    assert stats["anchor_colorings"] == 21
    g = thickened(20)
    rep = oracle_solve(g)
    assert rep.decision == "colorable"
    assert rep.stats["anchor_colorings"] == 21
    assert rep.stats["components_anchored_7"] == 1
    # solve peels the bare cycle whole and searches no anchor
    rep = oracle_solve(cycle_graph(7))
    assert rep.stats["peeled"] == 7 and "anchor_colorings" not in rep.stats


def test_nine_cycle_enumerates_all_anchor_colorings():
    # one anchor branch per orbit of the 510 proper colorings; a thickened
    # 9-cycle gadget whose 3-core has no induced 7-cycle
    g = cycle_graph(9)
    stats, witness = run_anchored(g, 9)
    assert verify_coloring(g, witness)
    assert stats["anchor_colorings"] == 85 and stats["branches"] >= 1
    g = thicken(c9_gadget(433), 433)
    rep = oracle_solve(g)
    assert rep.decision == "colorable"
    assert rep.stats["anchor_colorings"] == 85
    assert rep.stats["components_anchored_9"] == 1
    assert rep.stats["branches"] >= 1
    rep = oracle_solve(cycle_graph(9))
    assert rep.stats["peeled"] == 9 and "anchor_colorings" not in rep.stats


def test_anchor_colorings_are_built_once_in_lexicographic_order():
    # the first winning anchor coloring picks the witness, so the order is
    # part of the answer; each orbit of six is represented by its least
    # member, the one that begins (1, 2)
    for k in (7, 9):
        cols = _proper_cycle_colorings(k)
        assert list(cols) == sorted(set(cols))
        assert all(c[i] != c[i - 1] for c in cols for i in range(k))
        assert all(c[:2] == (1, 2) for c in cols)
        assert 6 * len(cols) == count_proper_3colorings(cycle_graph(k))
        assert _proper_cycle_colorings(k) is cols


# C7 and C9 blowups with two-vertex clique classes at every other position:
# in class, not 3-colorable, and past the preflight
REFUTATION_BLOWUPS = (
    ([2, 1, 2, 1, 2, 1, 1], (0, 2, 4), 10, 21),
    ([2, 1, 2, 1, 2, 1, 2, 1, 1], (0, 2, 4, 6), 13, 85),
)


def test_anchored_refutations_reject_every_anchor_branch():
    # every orbit representative of the anchor colorings, the first
    # included, is refuted by singleton propagation on a prefix, without a
    # branch
    for sizes, cliques, n, count in REFUTATION_BLOWUPS:
        g = cycle_blowup(sizes, cliques=cliques)
        assert g.vertex_count() == n
        assert oracle_list3color(g) is None
        rep = solve(g, witness=True)
        assert rep.decision == "not_colorable"
        assert rep.witness is None
        assert rep.stats[f"components_anchored_{len(sizes)}"] == 1
        assert rep.stats["anchor_colorings"] == count
        assert rep.stats["branches"] == 0
        assert rep.stats["anchor_colorings_skipped"] == count


def _relabeled_c7_gadgets():
    # in their own ids the gadgets anchor a cycle on which no prefix is
    # refuted; relabeled, as a parsed edge list relabels them, some are
    out = []
    for s in range(40):
        g = c7_gadget(s)
        verts = g.vertices()
        ids = verts[:]
        Random(split_seed(12, s)).shuffle(ids)
        name = dict(zip(verts, ids))
        out.append(Graph.from_edges(ids, ((name[u], name[w]) for u, w in g.edges())))
    return out


def test_refuted_anchor_prefixes_only_skip_rejected_branches(monkeypatch):
    # the anchored layer on each false-twin quotient: record the root of
    # each anchor coloring that propagates in full, with every root's DFS
    # made to reject so that all of them run.  Each root equals its anchor
    # commits on a clone of the unreduced quotient, a coloring it skips is
    # rejected by that full branch too, and the witness is the first
    # winner's.  solve itself peels each colorable gadget whole and runs
    # each blowup, its own 3-core, as is
    graphs = [c7_gadget(s) for s in range(40)] + [c9_gadget(s) for s in range(6)]
    graphs += [cycle_blowup(sizes, cliques=cl) for sizes, cl, _, _ in REFUTATION_BLOWUPS]
    graphs += _relabeled_c7_gadgets()
    dfs = solver._dfs
    roots = []

    def recorded(root, stats):
        # the DFS changes its root, so keep what it starts from
        start = (dict(root.palettes), dict(root.colors), root.g.copy()._adj)
        roots.append(start + (dfs(root, stats),))
        return None

    refuted_seen = refuted_colorable = 0
    for g in graphs:
        copies = false_twins(g)
        h = induced_subgraph(g, [v for v in g.vertices() if v not in copies])
        assert len(connected_components(h)) == 1
        for k in (7, 9):
            cycle = patterns.find_induced_cycle(twin_core(h), k)
            if cycle is not None:
                break
        base = Instance(h, Counter())
        base.anchor_order = tuple(cycle)

        def full_branch(col):
            child = base.clone()
            ok = all(child.commit_color(v, c) for v, c in zip(cycle, col))
            return child if ok else None

        roots.clear()
        every = Counter()
        with monkeypatch.context() as m:
            m.setattr(solver, "_dfs", recorded)
            solver._run_anchored(h, cycle, every)
        ran = []
        first = None
        for palettes, colors, adj, won in roots:
            col = tuple(colors[v] for v in cycle)
            ran.append(col)
            committed = full_branch(col)
            assert palettes == committed.palettes
            assert colors == committed.colors
            assert adj == committed.g._adj
            if first is None and won is not None:
                first = won.assemble_witness(h.vertices())
        skipped = [col for col in _proper_cycle_colorings(k) if col not in ran]
        assert every["anchor_colorings_skipped"] == len(skipped)
        for col in skipped:
            child = full_branch(col)
            assert child is None or dfs(child, Counter()) is None
        won = solver._run_anchored(h, cycle, Counter())
        if first is None:
            assert won is None
        else:
            refuted_colorable += len(skipped)
            assert won.assemble_witness(h.vertices()) == first
        refuted_seen += len(skipped)
        whole = oracle_solve(g)
        assert whole.stats.get("peeled", 0) == (0 if first is None else len(h))
    # every representative of both blowups, and 11 of each of 11 gadgets
    assert refuted_seen - refuted_colorable == 21 + 85
    assert refuted_colorable >= 100


def test_anchor_branch_verdicts_are_constant_on_color_orbits():
    # the solver branches only on colorings that begin (1, 2); that is sound
    # because renaming the colors of an anchor coloring keeps its verdict,
    # so run every proper coloring as its own branch and compare
    graphs = [c7_gadget(s) for s in range(40)] + [c9_gadget(s) for s in range(6)]
    graphs += [cycle_blowup(sizes, cliques=cl) for sizes, cl, _, _ in REFUTATION_BLOWUPS]
    orbits_seen = 0
    for g in graphs:
        assert len(connected_components(g)) == 1
        core = twin_core(g)
        for k in (7, 9):
            cycle = patterns.find_induced_cycle(core, k)
            if cycle is not None:
                break
        full = [c for c in product((1, 2, 3), repeat=k)
                if all(c[i] != c[i - 1] for i in range(k))]
        stats = Counter()
        base = Instance(g, stats)
        base.anchor_order = tuple(cycle)
        verdicts = {}
        for col in full:
            child = base.clone()
            ok = all(child.commit_color(v, c) for v, c in zip(cycle, col))
            verdicts[col] = solver._dfs(child if ok else None, stats) is not None
        by_orbit = {}
        for col, won in verdicts.items():
            # the renaming that sends col to its orbit's least member
            rename = {col[0]: 1, col[1]: 2, 6 - col[0] - col[1]: 3}
            least = tuple(rename[c] for c in col)
            by_orbit.setdefault(least, set()).add(won)
        assert len(by_orbit) == len(full) // 6
        assert all(len(v) == 1 for v in by_orbit.values())
        winners = [col for col in full if verdicts[col]]
        if winners:
            assert winners[0][:2] == (1, 2)
        assert (oracle_list3color(g) is not None) == bool(winners)
        orbits_seen += len(by_orbit)
    assert orbits_seen == 40 * 21 + 6 * 85 + 21 + 85


def test_stage_ladder_rests_on_fixpoint_facts(monkeypatch):
    # the stages recheck nothing the fixpoint implies (see the solver
    # module docstring): F1 at every analysis and at every rule-6 call, no
    # monochromatic edge between colored vertices, F3 on the 7-cycle, a
    # connected branch graph (F4), nested single-anchor neighborhoods (F5),
    # cut regions of two or more vertices (F6), one anchor pair once
    # neither stage branches, and on every path at most one branching per
    # single anchor and per opposing pair; the corpus is that of the two
    # all-colorings tests above, every proper coloring each
    k = 7
    two_apart = [{a, (a + 2) % k} for a in range(k)]
    for p, q in combinations(two_apart, 2):
        assert any((b - a) % k in (3, 4) for a in p for b in q)   # F3
    real_analyze = solver._analyze
    real_single = solver._branch_single_anchor
    real_pair = solver._branch_opposing_pair
    real_cut = solver.cut_reduction
    real_rule6 = reductions._two_sat_component
    path = {}       # instance -> the branchings above it
    seen = {"analyzed": 0, "single": 0, "pair": 0, "one pair": 0, "cut": 0, "rule 6": 0}

    def colored_edges_proper(inst, verts):
        for v in verts:
            if v in inst.colors:
                assert all(inst.colors.get(w) != inst.colors[v] for w in inst.g.neighbors(v))

    def analyze(inst):
        g = inst.g
        assert {v for v in g.vertices() if v in inst.colors} == set(inst.anchor_order)
        for v, pal in inst.palettes.items():   # F1
            assert len(pal) in (2, 3)
            assert not pal & {inst.colors.get(w) for w in g.neighbors(v)}
        colored_edges_proper(inst, inst.anchor_order)
        assert len(connected_components(g)) == 1   # F4
        seen["analyzed"] += 1
        return real_analyze(inst)

    def rule6(inst, comp):
        for v in comp:
            if v in inst.palettes:   # F1 where rule 6 reads the palettes
                assert not inst.palettes[v] & {inst.colors.get(w) for w in inst.g.neighbors(v)}
        colored_edges_proper(inst, comp)
        seen["rule 6"] += 1
        return real_rule6(inst, comp)

    def cut(inst, w, root):
        assert len(root.leaves()) >= 2   # F6
        seen["cut"] += 1
        return real_cut(inst, w, root)

    def branch(inst, step, kids):
        hist = path.get(inst, ())
        assert step not in hist
        seen[step[0]] += 1
        for kid in kids:
            if kid is not None:
                path[kid] = hist + (step,)

    def single(inst, view):
        for i in range(k):   # F5
            members = [x for x in view.relevant if view.supports[x] == {i}]
            chain = sorted((view.outer_nbrs[x] for x in members), key=len)
            assert all(a <= b for a, b in zip(chain, chain[1:]))
        kids = real_single(inst, view)
        if kids is not None:
            i = min(min(view.supports[x]) for x in view.relevant
                    if len(view.supports[x]) == 1)
            assert len(kids) == 2 and None not in kids
            branch(inst, ("single", i), kids)
        return kids

    def pair(inst, view):
        kids = real_pair(inst, view)
        at = [{x for x in view.relevant if i in view.supports[x]} for i in range(k)]
        opposing = [i for i in range(k) if at[i] and at[(i + 3) % k]]
        if kids is None:
            assert not opposing
            (sup,) = {view.supports[x] for x in view.relevant}
            p, q = sorted(sup)
            assert (q - p) % k in (2, k - 2)
            assert view.acolor[p] == view.acolor[q]
            for x in view.relevant:
                assert inst.palettes[x] == ALL_COLORS - {view.acolor[p]}
            seen["one pair"] += 1
            return None
        i = opposing[0]
        j = (i + 3) % k
        assert len(kids) <= 1 + 9 * len(at[i] | at[j])
        for kid in kids:
            assert kid is None or kid.post_checks == [(i, j)]
        branch(inst, ("pair", i), kids)
        return kids

    monkeypatch.setattr(solver, "_analyze", analyze)
    monkeypatch.setattr(solver, "_branch_single_anchor", single)
    monkeypatch.setattr(solver, "_branch_opposing_pair", pair)
    monkeypatch.setattr(solver, "cut_reduction", cut)
    monkeypatch.setattr(reductions, "_two_sat_component", rule6)
    graphs = [c7_gadget(s) for s in range(40)] + [c9_gadget(s) for s in range(6)]
    graphs += [cycle_blowup(sizes, cliques=cl) for sizes, cl, _, _ in REFUTATION_BLOWUPS]
    graphs += _relabeled_c7_gadgets()
    for g in graphs:
        copies = false_twins(g)
        h = induced_subgraph(g, [v for v in g.vertices() if v not in copies])
        for run_on in (g, h) if copies else (g,):
            core = twin_core(run_on)
            cycle = (patterns.find_induced_cycle(core, 7)
                     or patterns.find_induced_cycle(core, 9))
            base = Instance(run_on, Counter())
            base.anchor_order = tuple(cycle)
            for col in product((1, 2, 3), repeat=len(cycle)):
                if any(col[i] == col[i - 1] for i in range(len(cycle))):
                    continue
                child = base.clone()
                ok = all(child.commit_color(v, c) for v, c in zip(cycle, col))
                path.clear()
                solver._dfs(child if ok else None, base.stats)
    assert seen["analyzed"] >= 3700 and seen["single"] >= 1800
    assert seen["pair"] >= 700 and seen["one pair"] >= 1100
    assert seen["cut"] >= 1100 and seen["rule 6"] >= 12000


def test_anchored_cycles_with_pendant_tails():
    # a pendant tail on a long anchored cycle pairs with the far arc to
    # form the forbidden double path, so these need the waiver
    g = cycle_graph(9)
    p = g.add_vertex()
    g.add_edge(p, 1)
    assert check_class(g) is not None
    rep = solve(g, witness=True, assume_class=True)
    assert rep.decision == "colorable"
    assert verify_coloring(g, rep.witness)

    g = cycle_graph(7)
    tail = [g.add_vertex() for _ in range(3)]
    g.add_edge(tail[0], 1)
    g.add_edge(tail[0], tail[1])
    g.add_edge(tail[1], tail[2])
    assert check_class(g) is not None
    rep = solve(g, witness=True, assume_class=True)
    assert rep.decision == "colorable"
    assert verify_coloring(g, rep.witness)


def test_rimmed_cycle_routes_through_expected_stages():
    # rotation 0 keeps both rims on opposing anchor pairs; rotations 1..3
    # make the solver anchor a different 7-cycle and the surviving rim
    # class faces a lone full-palette vertex.  solve peels each one whole,
    # so the anchored layer takes them directly
    for r in range(7):
        g = rimmed_seven_cycle(r)
        assert check_class(g) is None
        stats, witness = run_anchored(g)
        want = oracle_list3color(g)
        assert (witness is not None) == (want is not None)
        if witness is not None:
            assert verify_coloring(g, witness)
        if r == 0:
            assert stats["stage_opposing_pairs"] >= 1
        elif r in (1, 2, 3):
            assert stats["stage_component_cases"] >= 1
            assert stats["case_border_single_vertex"] >= 1
        assert oracle_solve(g).stats["peeled"] == 12
    # the pinned thickened gadgets keep their anchor cycle in the 3-core,
    # and solve fires each one's stage with the oracle's verdict
    for seeds, key in ((SINGLE_ANCHOR_SEEDS, "stage_single_anchor"),
                       (OPPOSING_PAIR_SEEDS, "stage_opposing_pairs"),
                       (COMPONENT_CASE_SEEDS, "stage_component_cases")):
        for seed in seeds:
            g = thickened(seed)
            rep = oracle_solve(g)
            assert rep.decision == "colorable" and rep.stats[key] >= 1, (key, seed)
            assert rep.stats["components_anchored_7"] == 1
            if key == "stage_component_cases":
                assert rep.stats["case_border_single_vertex"] == rep.stats[key]
                assert rep.stats["op_cut_reduction"] >= 1


def test_generated_anchored_graphs_match_oracle():
    for seed in range(40):
        g = c7_gadget(seed)
        rep = solve(g, witness=True)
        want = oracle_list3color(g)
        assert (rep.decision == "colorable") == (want is not None), f"c7 seed {seed}"
        if rep.witness is not None:
            assert verify_coloring(g, rep.witness)
    for seed in range(15):
        g = c9_gadget(seed)
        rep = solve(g, witness=True)
        want = oracle_list3color(g)
        assert (rep.decision == "colorable") == (want is not None), f"c9 seed {seed}"
        if rep.witness is not None:
            assert verify_coloring(g, rep.witness)


def test_cut_reduction_witnesses_cover_exactly_the_input():
    # the region behind the border vertex is colored only by replay; the
    # witness must hold the input's vertices and nothing else.  solve peels
    # the plain gadgets whole, so its witness holds them by the peel
    for seed in range(40):
        g = c7_gadget(seed)
        whole = oracle_solve(g)
        assert set(whole.witness) == set(g.vertices()), seed
        assert whole.stats["peeled"] == quotient_size(g, whole)
    cut = 0
    for seed in STAGE_SEEDS:
        g = thickened(seed)
        rep = oracle_solve(g)
        assert set(rep.witness) == set(g.vertices()), seed
        cut += bool(rep.stats.get("op_cut_reduction"))
    assert cut >= len(COMPONENT_CASE_SEEDS)


def test_anchored_branch_graphs_are_induced_subgraphs(monkeypatch):
    # the reductions only delete vertices, so every branch graph the
    # fixpoint sees is an induced subgraph of the input, and the in-class
    # arguments of the stages hold at every step
    seen = []

    def recorded(inst):
        seen.append(inst.g.copy())
        return reductions.run_fixpoint(inst)

    graphs = [thickened(s) for s in STAGE_SEEDS]
    monkeypatch.setattr(solver, "run_fixpoint", recorded)
    for seed, g in zip(STAGE_SEEDS, graphs):
        seen.clear()
        oracle_solve(g)
        assert seen, seed
        for h in seen:
            assert set(h.vertices()) <= set(g.vertices()), seed
            want = induced_subgraph(g, h.vertices())
            assert {frozenset(e) for e in h.edges()} == {frozenset(e) for e in want.edges()}, seed


def test_waived_border_of_two_parts_is_a_stage_refusal():
    # colorable and out of class (an induced 2P4): anchored on its first
    # 7-cycle, the relevant component meets the rim at two nonadjacent
    # vertices, a shape the stages refuse by name
    g = Graph.from_edges(range(1, 17), [
        (1, 2), (1, 7), (1, 13), (1, 14), (2, 3), (2, 15), (2, 16), (3, 4),
        (3, 13), (3, 14), (4, 5), (5, 6), (6, 7), (7, 16), (8, 11), (8, 12),
        (8, 13), (9, 11), (9, 12), (9, 14), (10, 11), (10, 12), (11, 12),
        (13, 15), (14, 16)])
    assert oracle_list3color(g) is not None
    with pytest.raises(ClassViolationError):
        solve(g)
    assert not false_twins(g)
    with pytest.raises(StageAssertionError, match="behind a disconnected border"):
        run_anchored(g)
    # solve peels it whole: the refusal becomes an answer
    assert oracle_solve(g, assume_class=True).stats["peeled"] == 16


def test_waived_c9_branch_the_fixpoint_leaves_open_is_a_stage_refusal():
    # colorable and out of class (an induced 2P4): a 9-cycle with two rim
    # vertices joined through a diamond and no induced 7-cycle; anchored on
    # the 9-cycle, the fixpoint leaves a branch open, and a 9-cycle anchor
    # has no stage for it
    g = Graph.from_edges(range(1, 14), [
        (1, 2), (1, 9), (2, 3), (3, 4), (3, 11), (4, 5), (5, 6), (6, 7), (7, 8),
        (7, 10), (8, 9), (10, 12), (10, 13), (11, 12), (11, 13), (12, 13)])
    assert oracle_list3color(g) is not None
    with pytest.raises(ClassViolationError):
        solve(g)
    assert not false_twins(g) and patterns.find_induced_cycle(g, 7) is None
    with pytest.raises(StageAssertionError, match="fixpoint did not fully resolve a C9 branch"):
        run_anchored(g, 9)
    # solve peels it whole: the refusal becomes an answer
    assert oracle_solve(g, assume_class=True).stats["peeled"] == 13


def test_solve_builds_one_twin_core(monkeypatch):
    # the class scans run on the core solve already has, not on a second
    # one, and the core takes solve's false-twin pass as its first pass
    calls = []
    open_passes = []

    def counted(g, copies=None):
        core = twin_core(g, copies)
        calls.append(core.vertex_count())
        return core

    real_copies = graph._copies

    def grouped(adj, closed, *rest):
        if not closed:
            open_passes.append(len(adj))
        return real_copies(adj, closed, *rest)

    monkeypatch.setattr(solver, "twin_core", counted)
    monkeypatch.setattr(patterns, "twin_core", counted)
    monkeypatch.setattr(graph, "_copies", grouped)
    g = cycle_blowup([2, 3, 1, 2, 1, 2, 1])
    rep = solve(g, witness=True)
    assert rep.decision == "colorable"
    # built once: the blowup's bare 7-cycle
    assert calls == [7]
    # one grouping by open neighbourhood, over the whole input
    assert open_passes == [12]


def test_solve_walks_one_transversal_per_core(monkeypatch):
    # the class check and the anchor search share the core's one odd-cycle
    # transversal, and an empty one stands in for a bipartite test (built
    # first: the thickening runs checks of its own)
    several = disjoint_union(thickened(2), thickened(3), crown_graph(4))
    calls = []

    def counted(g):
        calls.append(g.vertex_count())
        return odd_cycle_transversal(g)

    real_bipartition = graph.bipartition

    def refused(g, within=None):
        # the odd-neighborhood preflight 2-colors each neighborhood; no
        # check 2-colors a whole core
        if within is None:
            raise AssertionError("bipartition called on a whole graph")
        return real_bipartition(g, within)

    monkeypatch.setattr(solver, "odd_cycle_transversal", counted)
    monkeypatch.setattr(patterns, "odd_cycle_transversal", counted)
    monkeypatch.setattr(graph, "bipartition", refused)
    monkeypatch.setattr(patterns, "bipartition", refused)
    g = cycle_blowup([2, 3, 1, 2, 1, 2, 1])
    rep = solve(g, witness=True)
    assert rep.decision == "colorable"
    assert calls == [7]

    # several components of one 3-core: each is anchored on the cycle it
    # gets alone, and the cube's part of the transversal is empty, so it is
    # not searched
    g = several
    anchors = []
    searches = []
    real = solver._run_anchored
    real_search = patterns.find_induced_cycle

    def recorded(comp_graph, cycle, stats):
        anchors.append(tuple(cycle))
        return real(comp_graph, cycle, stats)

    def searched(g, k, trans=None):
        searches.append((min(g.vertices()), k))
        return real_search(g, k, trans)

    monkeypatch.setattr(solver, "_run_anchored", recorded)
    monkeypatch.setattr(patterns, "find_induced_cycle", searched)
    # two components that each hold an induced P4 form an induced 2P4
    rep = solve(g, witness=True, assume_class=True)
    assert rep.decision == "colorable" and "peeled" not in rep.stats
    assert verify_coloring(g, rep.witness)
    assert rep.stats["components_anchored_7"] == 2
    assert rep.stats["components_plain"] == 1
    assert searches == [(1, 7), (15, 7)]
    whole, anchors[:] = anchors[:], []
    for comp in connected_components(g):
        alone = solve(induced_subgraph(g, comp), witness=True, assume_class=True)
        assert alone.witness == {v: rep.witness[v] for v in comp}
    assert whole == anchors == [(1, 2, 3, 4, 8, 6, 7), (15, 16, 17, 22, 19, 20, 21)]
    # two 7-cycles and a path: solve peels all three components whole and
    # searches nothing
    second = (8, 10, 12, 14, 9, 11, 13)
    g = Graph.from_edges(range(1, 19), [(i, i % 7 + 1) for i in range(1, 8)]
                         + list(zip(second, second[1:] + second[:1]))
                         + [(15, 16), (16, 17), (17, 18)])
    searches.clear()
    anchors.clear()
    assert oracle_solve(g, assume_class=True).stats["peeled"] == 18
    assert searches == [] and anchors == []


def test_solve_colors_the_false_twin_quotient():
    # a vertex with a smaller false twin is left out of the solve and takes
    # the color of the least vertex of its class
    cases = (
        (cycle_blowup([3, 2, 4, 2, 3, 2, 5]), 14),
        # as the benchmark's refutations: two-vertex clique classes (true
        # twins) at 0, 2, 4 and free classes of one to three
        (cycle_blowup([2, 3, 2, 1, 2, 2, 2], cliques=(0, 2, 4)), 4),
        (complete_bipartite(9, 21), 28),
        # isolated vertices share the empty neighbourhood
        (Graph.from_edges([1, 2, 3, 4, 5], [(1, 2)]), 2),
    )
    for g, copies in cases:
        with warnings.catch_warnings():
            # K_{9,21} is above the oracle's size warning; being bipartite,
            # it is colored at once
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = oracle_list3color(g)
        rep = solve(g, witness=True)
        assert rep.stats["false_twins"] == copies
        assert rep.decision == ("colorable" if expected is not None else "not_colorable")
        assert rep.witness is None if expected is None else verify_coloring(g, rep.witness)
    # of the edge and three isolated vertices, the edge and one are solved,
    # both peeled, and the copies take the color of their representative
    assert rep.stats["peeled"] == 3
    assert rep.witness[3] == rep.witness[4] == rep.witness[5]


def test_solve_leaves_its_input_unchanged():
    # a twin-free input is its own quotient, so solve works on it in place:
    # anchored and plain, with and without twins, peeled or not, its
    # adjacency stays as it was.  Thickened gadgets, twin-free and with
    # two false twins and some vertices outside the 3-core, and S_6 run the
    # anchored and plain routes; the rest peel away whole
    twin_free = next(g for g in map(c7_gadget, range(40)) if not false_twins(g))
    cases = (
        (thickened(2), "components_anchored_7", 0),
        (thickened(26), "components_anchored_7", 3),
        (crown_graph(6), "components_plain", 0),
        (twin_free, None, twin_free.vertex_count()),
        (cycle_blowup([3, 2, 4, 2, 3, 2, 5]), None, 7),
        (cycle_graph(8), None, 8),
    )
    for g, kind, peeled in cases:
        before = {v: set(nbrs) for v, nbrs in g._adj.items()}
        rep = oracle_solve(g)
        assert rep.decision == "colorable" and rep.stats.get("peeled", 0) == peeled
        assert kind is None or rep.stats[kind] == 1
        assert g._adj == before
    # a refutation blowup is its own 3-core, so solve runs the anchored
    # route on the input itself
    sizes, cliques, _, _ = REFUTATION_BLOWUPS[0]
    g = cycle_blowup(sizes, cliques=cliques)
    before = {v: set(nbrs) for v, nbrs in g._adj.items()}
    rep = oracle_solve(g)
    assert rep.stats["components_anchored_7"] == 1 and "peeled" not in rep.stats
    assert g._adj == before
    assert "false_twins" in solve(cases[1][0]).stats and "false_twins" in solve(cases[4][0]).stats
    assert "false_twins" not in solve(cases[0][0]).stats and "false_twins" not in solve(twin_free).stats


def test_every_firing_pass_leaves_two_or_three_colors(monkeypatch):
    # F1 by construction: commit_color colors whatever a palette's last
    # color forces, so no fixpoint pass leaves a palette of one color or none
    real = reductions._one_pass
    fired = 0

    def checked(inst):
        nonlocal fired
        out = real(inst)
        if out == "fired":
            fired += 1
            assert all(len(p) >= 2 for p in inst.palettes.values())
        return out

    # on the anchored layer: solve peels these gadgets whole
    graphs = [(c7_gadget(s), 7) for s in range(300)] + [(c9_gadget(s), 9) for s in range(100)]
    monkeypatch.setattr(reductions, "_one_pass", checked)
    for g, k in graphs:
        run_anchored(g, k)
    assert fired > 300


# -- the 3-core peel -----------------------------------------------------------

def naive_3_core(g):
    """The 3-core by deleting one vertex of degree at most 2 at a time."""
    keep = set(g.vertices())
    while True:
        low = [v for v in sorted(keep) if len(g.neighbors(v) & keep) < 3]
        if not low:
            return keep
        keep.discard(low[0])


def test_peel_order_leaves_the_3_core():
    # the order holds every vertex outside the 3-core once, and each has at
    # most two neighbors later in it or in the core
    rng = Random(77)
    nonempty = 0
    for i in range(400):
        g = erdos_renyi(rng.randint(0, 24), rng.choice((0.1, 0.2, 0.3)), split_seed(77, i))
        order = solver._peel_order(g._adj)
        core = naive_3_core(g)
        assert len(order) == len(set(order)) and set(order) == set(g.vertices()) - core
        for pos, v in enumerate(order):
            assert len(g.neighbors(v) & (core | set(order[pos + 1:]))) <= 2
        nonempty += bool(core)
    assert nonempty >= 50


def test_empty_3_core_runs_no_preflight_search_or_colorer(monkeypatch):
    # the quotient of a gadget or a blowup peels away whole: solve colors it
    # back with no preflight, anchor search, anchored run or colorer, and
    # under the waiver it builds no twin core either
    # built first: the generators run class checks of their own
    graphs = [c7_gadget(s) for s in range(20)] + [c9_gadget(s) for s in range(10)]
    graphs += [cycle_blowup([2, 3, 1, 2, 1, 2, 1]), complete_bipartite(9, 21)]
    calls = []

    def recorded(mod, name):
        real = getattr(mod, name)

        def run(*args, **kwargs):
            calls.append((name, args[1] if name == "find_induced_cycle" else None))
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, run)

    for name in ("find_induced_cycle", "find_co_c7", "find_nonbipartite_neighborhood"):
        recorded(patterns, name)
    for name in ("_run_anchored", "_backtrack_color", "twin_core"):
        recorded(solver, name)
    for g in graphs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # K_{9,21} for the oracle
            rep = oracle_solve(g)
        assert rep.stats["peeled"] == quotient_size(g, rep)
        # the class check builds the twin core and searches it for a C5
        assert {c for c in calls if c != ("find_induced_cycle", 5)} <= {("twin_core", None)}
        calls.clear()
        rep = solve(g, witness=True, assume_class=True)
        assert rep.decision == "colorable" and verify_coloring(g, rep.witness)
        assert calls == []


def test_a_quotient_of_minimum_degree_3_is_solved_as_it_is(monkeypatch):
    # a refutation blowup's quotient is its own 3-core: _solve_component gets
    # the quotient, its twin core and its transversal, the objects solve
    # built, with no copy and no second core
    built = {"twin_core": [], "odd_cycle_transversal": []}
    handed = []

    def recorded(name):
        real = getattr(solver, name)

        def run(g, *rest):
            built[name].append(real(g, *rest))
            return built[name][-1]
        monkeypatch.setattr(solver, name, run)

    recorded("twin_core")
    recorded("odd_cycle_transversal")
    real = solver._solve_component

    def component(g, core, trans, comp, stats):
        handed.append((g, core, trans))
        return real(g, core, trans, comp, stats)

    monkeypatch.setattr(solver, "_solve_component", component)
    for sizes, cliques, _, _ in REFUTATION_BLOWUPS:
        g = cycle_blowup(sizes, cliques=cliques)
        assert not false_twins(g)
        for assume_class in (False, True):
            built["twin_core"].clear()
            built["odd_cycle_transversal"].clear()
            handed.clear()
            rep = solve(g, assume_class=assume_class)
            assert rep.decision == "not_colorable" and "peeled" not in rep.stats
            (core,), (trans,) = built["twin_core"], built["odd_cycle_transversal"]
            assert len(handed) == 1
            assert handed[0][0] is g and handed[0][1] is core and handed[0][2] is trans


def with_pendant_trees(g, rng, count):
    """g with count new vertices, each joined to one vertex before it."""
    for _ in range(count):
        v = g.add_vertex()
        g.add_edge(v, rng.choice([u for u in g.vertices() if u != v]))
    return g


def test_preflight_certificates_survive_the_peel():
    # K4, an odd wheel and co-C7 have minimum degree 3 or more, so each lies
    # in the 3-core and the preflight finds it there under the counter its
    # search gives on the whole graph
    rng = Random(31)
    cases = (("k4", "preflight_odd_neighborhood_k4"), ("w5", "preflight_odd_neighborhood_c5"),
             ("w7", "preflight_odd_neighborhood_c7"), ("co_c7", "preflight_co_c7"))
    for _ in range(10):
        for name, counter in cases:
            base = wheel(int(name[1])) if name[0] == "w" else named_graph(name)
            trees = rng.randint(1, 12)
            g = with_pendant_trees(base, rng, trees)
            rep = solve(g, witness=True, assume_class=True)
            assert rep.decision == "not_colorable" and rep.witness is None
            assert {k: v for k, v in rep.stats.items() if k.startswith("preflight")} == {counter: 1}
            assert rep.stats["peeled"] == trees - rep.stats.get("false_twins", 0)
            odd = patterns.find_nonbipartite_neighborhood(g)
            if odd is None:
                assert counter == "preflight_co_c7" and patterns.find_co_c7(twin_core(g)) is not None
            else:
                assert counter == "preflight_odd_neighborhood_" + odd.kind


def test_a_long_path_colors_back_without_recursion():
    # the peel and the color-back are loops: a 20,000-vertex path, which
    # holds an induced 2P4, peels whole under the waiver
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        g = path_graph(20_000)
        rep = solve(g, witness=True, assume_class=True)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)
    assert rep.decision == "colorable" and verify_coloring(g, rep.witness)
    assert rep.stats["peeled"] == 20_000


def test_random_graphs_match_the_oracle_through_the_peel():
    # 2,000 erdos_renyi graphs with and without the waiver: in class, solve
    # gives the oracle's verdict and a verified witness; out of class it
    # raises without the waiver and answers or refuses a stage with it
    rng = Random(2024)
    in_class = refuted = peeled_some = core_left = refused = 0
    for i in range(2000):
        g = erdos_renyi(rng.randint(5, 16), rng.choice((0.15, 0.25, 0.4)), split_seed(2024, i))
        member = check_class(g) is None
        if member:
            in_class += 1
            rep = oracle_solve(g)
        else:
            with pytest.raises(ClassViolationError):
                solve(g)
            try:
                rep = oracle_solve(g, assume_class=True)
            except StageAssertionError:
                refused += 1
                continue
        refuted += rep.decision == "not_colorable"
        peeled = rep.stats.get("peeled", 0)
        peeled_some += peeled > 0
        core_left += peeled < quotient_size(g, rep)
    assert in_class >= 900 and refuted >= 300
    assert peeled_some >= 1500 and core_left >= 500 and refused <= 20


# -- report shape and modes -------------------------------------------------

def test_witness_is_off_by_default():
    # the coloring is built and verified either way; the default only
    # leaves it off the report
    g = cycle_graph(7)
    rep = solve(g)
    assert rep.decision == "colorable"
    assert rep.witness is None
    full = solve(g, witness=True)
    assert verify_coloring(g, full.witness)
    del rep.stats["millis"], full.stats["millis"]
    assert rep.stats == full.stats


def test_report_always_carries_summary_counters():
    for rep in (solve(named_graph("k4")), solve(c7_gadget(3), witness=True)):
        assert isinstance(rep.stats["branches"], int)
        assert isinstance(rep.stats["reductions"], int)
        assert isinstance(rep.stats["millis"], float)
        assert rep.stats["millis"] >= 0


def test_large_plain_components_get_a_witness():
    # plain components of any size are colored; the star K_{1,70} and
    # K_{30,30,30} are P4-free, so in class, and have no anchor cycle
    star = Graph.from_edges(range(71), [(0, v) for v in range(1, 71)])
    tripartite = Graph.from_edges(
        range(90), [(u, v) for u in range(90) for v in range(u + 1, 90) if u // 30 != v // 30])
    big_star = complete_bipartite(1, 1100)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        # the component layer on the whole graph, one plain component, and
        # solve, which peels each quotient whole (K_{30,30,30}'s is a
        # triangle)
        for g in (star, tripartite, big_star, path_graph(6)):
            assert check_class(g) is None
            stats = Counter()
            for run in (lambda g: solve_component(g, stats),
                        lambda g: solve(g, witness=True).witness):
                t0 = time.perf_counter()
                coloring = run(g)
                took = time.perf_counter() - t0
                assert verify_coloring(g, coloring)
                assert took < 5, f"{g.vertex_count()} vertices: {took:.2f}s"
            assert dict(stats) == {"components_plain": 1}
            rep = solve(g)
            assert rep.decision == "colorable"
            assert rep.stats["peeled"] == quotient_size(g, rep)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)

    # anchored components reconstruct their coloring from replay records
    rep = solve(cycle_graph(7), witness=True)
    assert verify_coloring(cycle_graph(7), rep.witness)


def _dsatur_without_undo(g):
    """The colorer's choice order with no backtracking; None on a dead end."""
    assign = {}

    def free(v):
        return [c for c in (1, 2, 3) if c not in {assign.get(w) for w in g.neighbors(v)}]

    while len(assign) < g.vertex_count():
        v = min((u for u in g.vertices() if u not in assign),
                key=lambda u: (len(free(u)), -g.degree(u), u))
        if not free(v):
            return None
        assign[v] = free(v)[0]
    return assign


def test_plain_component_that_needs_backtracking():
    # the colorer's first choices dead-end here, so it must undo some of
    # them; the coloring it then returns is pinned, since its choice order
    # (DSatur, colors ascending) decides every plain component's witness
    edges = ("1-2 1-3 1-4 1-7 1-9 2-8 2-9 2-11 2-12 3-4 3-7 3-10 3-12 "
             "5-6 5-12 7-8 7-10 7-12 8-12")
    g = Graph.from_edges(range(1, 13), [tuple(map(int, e.split("-"))) for e in edges.split()])
    assert check_class(g) is None
    assert _dsatur_without_undo(g) is None
    assert oracle_list3color(g) is not None
    # solve peels half of it, so the component layer takes it whole
    stats = Counter()
    witness = solve_component(g, stats)
    assert dict(stats) == {"components_plain": 1}
    assert verify_coloring(g, witness)
    assert witness == {1: 1, 2: 2, 3: 3, 4: 2, 5: 2, 6: 1, 7: 2, 8: 3, 9: 3, 10: 1,
                       11: 1, 12: 1}
    assert solver._backtrack_color(g) == witness
    # solve peels six vertices and colors the 3-core of six as a plain
    # component
    rep = oracle_solve(g)
    assert rep.stats["peeled"] == 6 and rep.stats["components_plain"] == 1


def test_cograph_component_rule_fires_in_a_solve():
    # a C7 anchor, a vertex x on anchors 5 and 7, and a bowtie (two edges
    # joined to a centre) on 9..13 whose four outer vertices all see x.
    # The anchors leave x one color; once x is colored, the bowtie is a
    # component of its own whose centre keeps all three colors, which
    # 2-SAT cannot take, and rule 7 colors it as a cograph
    g = cycle_graph(7)
    x = g.add_vertex()
    g.add_edge(x, 5)
    g.add_edge(x, 7)
    for v in range(9, 14):
        g.add_vertex()
    for a, b in [(9, 10), (11, 12)] + [(13, v) for v in range(9, 13)]:
        g.add_edge(a, b)
    for v in range(9, 13):
        g.add_edge(x, v)
    assert check_class(g) is None
    assert naive_in_class(g)
    assert oracle_list3color(g) is not None
    # on the component layer: solve peels the cycle away
    stats = Counter()
    assert verify_coloring(g, solve_component(g, stats))
    assert stats["components_anchored_7"] == 1
    assert stats["rule_cograph_component"] >= 1
    # solve peels the cycle and keeps x and the bowtie, a plain component
    rep = oracle_solve(g)
    assert rep.stats["peeled"] == 7 and rep.stats["components_plain"] == 1
    # thickened, it keeps a 3-core that holds the cycle, so solve itself
    # anchors it and fires rule 7 (24 of seeds 0-399 do; 45 is another)
    h = thicken(g, 20)
    assert h.vertex_count() == 14
    assert naive_in_class(h)
    rep = oracle_solve(h)
    assert rep.decision == "colorable"
    assert rep.stats["components_anchored_7"] == 1
    assert rep.stats["rule_cograph_component"] == 1


def test_cograph_component_rule_builds_no_cotree_of_the_anchor_component(monkeypatch):
    # the anchor cycle, an induced C7 or C9, holds an induced P4, so rule 7
    # skips a component holding it without building a cotree
    calls = []     # per rule-7 call: (holds the anchor cycle, cotrees built)
    built = []
    rule7, cotree = reductions._cograph_component, cograph.cotree_or_failure

    def counted_rule7(inst, comp):
        before = len(built)
        out = rule7(inst, comp)
        calls.append((comp >= set(inst.anchor_order), len(built) - before))
        return out

    def counted_cotree(g, within=None):
        built.append(within)
        return cotree(g, within)

    # built first: the generator's class check builds cotrees of its own;
    # solve peels the gadget whole and runs rule 7 on nothing, so the
    # anchored layer takes it
    g = c7_gadget(0)
    assert oracle_solve(g).stats["peeled"] == g.vertex_count()
    monkeypatch.setattr(reductions, "_cograph_component", counted_rule7)
    monkeypatch.setattr(cograph, "cotree_or_failure", counted_cotree)
    _, witness = run_anchored(g)
    assert verify_coloring(g, witness)
    assert calls == [(True, 0)]
    # the P4-freeness check of the one outer component at the stage ladder
    assert len(built) == 1


def test_stages_build_no_cotree_of_their_own(monkeypatch):
    # within one _advance, cotrees are built only by rule 7's P4-free test
    # inside the fixpoint and by _analyze, one per outer component;
    # cut_reduction and the pair stage work from the cotrees _analyze kept;
    # the thickened gadgets are built first, since their class checks build
    # cotrees of their own
    graphs = [thickened(seed) for seed in STAGE_SEEDS]
    where = ["solve"]
    built = []     # per cotree build: the innermost layer it ran in
    advances = []  # per _advance call: {layer: cotrees built}
    analysed = []  # per _advance call: outer components analysed
    cotree = cograph.cotree_or_failure
    fixpoint, analyze, advance = solver.run_fixpoint, solver._analyze, solver._advance

    def counted_cotree(g, within=None):
        built.append(where[-1])
        return cotree(g, within)

    def layer(name, fn):
        def run(inst):
            where.append(name)
            try:
                return fn(inst)
            finally:
                where.pop()
        return run

    def counted_analyze(inst):
        view = layer("analyze", analyze)(inst)
        analysed[-1] += len(view.comps)
        return view

    def counted_advance(inst):
        before = len(built)
        analysed.append(0)
        out = layer("advance", advance)(inst)
        mine = built[before:]
        advances.append(({name: mine.count(name) for name in set(mine)}, analysed.pop()))
        return out

    monkeypatch.setattr(cograph, "cotree_or_failure", counted_cotree)
    monkeypatch.setattr(solver, "run_fixpoint", layer("fixpoint", fixpoint))
    monkeypatch.setattr(solver, "_analyze", counted_analyze)
    monkeypatch.setattr(solver, "_advance", counted_advance)
    cuts = pairs = 0
    for g in graphs:
        advances.clear()
        rep = solve(g, witness=True, assume_class=True)
        if not rep.stats.get("op_cut_reduction") and not rep.stats.get("stage_opposing_pairs"):
            continue
        cuts += bool(rep.stats.get("op_cut_reduction"))
        pairs += bool(rep.stats.get("stage_opposing_pairs"))
        assert verify_coloring(g, rep.witness)
        for counts, comps in advances:
            assert counts.get("advance", 0) == 0, (counts, comps)
            assert counts.get("analyze", 0) == comps, (counts, comps)
    assert cuts >= len(COMPONENT_CASE_SEEDS) and pairs >= len(OPPOSING_PAIR_SEEDS)


def connected_cograph(rng, size):
    """A random connected cograph on 2 or more vertices: random unions and
    joins of smaller pieces, the last one a join."""
    g = Graph()
    blocks = [[g.add_vertex()] for _ in range(size)]
    while len(blocks) > 1:
        a = blocks.pop(rng.randrange(len(blocks)))
        b = blocks.pop(rng.randrange(len(blocks)))
        if not blocks or rng.random() < 0.5:
            for u in a:
                for w in b:
                    g.add_edge(u, w)
        blocks.append(a + b)
    return g


def naive_dominating_set(g, verts):
    """The vertex-pair scan _dominating_set once ran: the least universal
    vertex, else the least dominating pair by vertex id, else None."""
    order = sorted(verts)
    vs = set(verts)
    for v in order:
        if vs <= (g.neighbors(v) & vs) | {v}:
            return (v,)
    for i, v in enumerate(order):
        cov = (g.neighbors(v) & vs) | {v}
        for w in order[i + 1:]:
            if vs <= cov | (g.neighbors(w) & vs) | {w}:
                return (v, w)
    return None


def test_dominating_set_reads_the_cotree():
    rng = Random(909)
    universal = pairs = 0
    for _ in range(400):
        g = connected_cograph(rng, rng.randint(4, 10))
        root, bad = cograph.cotree_or_failure(g)
        assert bad is None
        dom = solver._dominating_set(root)
        assert 1 <= len(dom) <= 2
        assert set(dom).union(*(g.neighbors(v) for v in dom)) == set(g.vertices())
        want = naive_dominating_set(g, g.vertices())
        if len(want) == 1:
            universal += 1
            assert dom == want
        else:
            pairs += 1
    assert universal > 50 and pairs > 50


def test_trivial_graphs():
    rep = solve(Graph(), witness=True)
    assert rep.decision == "colorable"
    assert rep.witness == {}

    g = Graph()
    v = g.add_vertex()
    rep = solve(g, witness=True)
    assert rep.witness[v] in (1, 2, 3)


def test_disconnected_components_combine():
    # a 7-cycle, a triangle and an isolated vertex peel away whole
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(7, 8), (8, 9), (7, 9)]
    g = Graph.from_edges(range(11), edges)
    rep = oracle_solve(g)
    assert set(rep.witness) == set(range(11))
    assert rep.stats["peeled"] == 11
    # a thickened gadget, the cube S_4 and S_5 are one 3-core of three
    # components, one anchored and two plain; two components that each
    # hold an induced P4 form an induced 2P4, hence the waiver
    g = disjoint_union(thickened(2), crown_graph(4), crown_graph(5))
    rep = solve(g, witness=True, assume_class=True)
    assert rep.decision == "colorable" and "peeled" not in rep.stats
    assert verify_coloring(g, rep.witness)
    assert set(rep.witness) == set(g.vertices())
    assert rep.stats["components_anchored_7"] == 1
    assert rep.stats["components_plain"] == 2

