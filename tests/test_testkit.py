"""Tests for the oracles and generators that everything else leans on.

The coloring counter is pinned against the closed form for cycles, which
is known independently of any code here: a cycle on n vertices has
2^n + 2 * (-1)^n proper 3-colorings.
"""

import pytest

from hered3 import testkit
from hered3.graph import Graph, false_twins, induced_subgraph, twin_core
from hered3.patterns import _index, check_class, find_induced_cycle
from hered3.testkit import (
    apex_crown,
    bipartition,
    c7_gadget,
    c9_gadget,
    co_bipartite,
    cograph_composite,
    count_proper_3colorings,
    crown_graph,
    crown_plus,
    cycle_graph,
    differential_fuzz,
    erdos_renyi,
    graph_from_record,
    naive_has_2p4,
    naive_has_cycle,
    naive_has_p4,
    naive_in_class,
    named_graph,
    oracle_list3color,
    split_seed,
    thicken,
    verify_coloring,
)


def test_cycle_coloring_counts_match_closed_form():
    for n in range(3, 13):
        assert count_proper_3colorings(cycle_graph(n)) == 2 ** n + 2 * (-1) ** n


def test_coloring_count_rejects_large_inputs():
    with pytest.raises(ValueError):
        count_proper_3colorings(erdos_renyi(21, 0.1, 5))


def test_verify_coloring():
    g = cycle_graph(4)
    assert verify_coloring(g, {1: 1, 2: 2, 3: 1, 4: 2})
    assert not verify_coloring(g, {1: 1, 2: 1, 3: 1, 4: 2})   # monochrome edge
    assert not verify_coloring(g, {1: 1, 2: 2, 3: 1})          # vertex missing
    assert not verify_coloring(g, {1: 1, 2: 2, 3: 1, 4: 4})   # color out of range


def test_oracle_is_relabel_invariant():
    for seed in range(30):
        g = erdos_renyi(9, 0.35, seed)
        verts = g.vertices()
        remap = {v: 100 + (v * 7) % 9 for v in verts}
        h = Graph.from_edges(remap.values(),
                             [(remap[a], remap[b]) for a, b in g.edges()])
        assert (oracle_list3color(g) is None) == (oracle_list3color(h) is None)


def test_oracle_respects_palettes():
    g = cycle_graph(3)
    full = oracle_list3color(g)
    assert full is not None and verify_coloring(g, full)

    pinned = oracle_list3color(g, {1: {2}, 2: {1, 2, 3}, 3: {1, 2, 3}})
    assert pinned is not None
    assert pinned[1] == 2

    assert oracle_list3color(g, {1: {1}, 2: {1}, 3: {1, 2, 3}}) is None
    assert oracle_list3color(g, {1: set(), 2: {1}, 3: {1}}) is None


def test_split_seed_streams_are_stable_and_distinct():
    assert split_seed(42, 1, 2) == split_seed(42, 1, 2)
    seen = {split_seed(42, 1, i) for i in range(100)}
    seen |= {split_seed(42, 2, i) for i in range(100)}
    assert len(seen) == 200


def test_named_graph_catalog():
    p = named_graph("petersen")
    assert p.vertex_count() == 10
    assert len(list(p.edges())) == 15
    assert all(len(p.neighbors(v)) == 3 for v in p.vertices())

    k4 = named_graph("k4")
    assert k4.vertex_count() == 4 and len(list(k4.edges())) == 6

    co = named_graph("co_c7")
    assert co.vertex_count() == 7 and len(list(co.edges())) == 14

    assert named_graph("c9").vertex_count() == 9
    assert named_graph("p4").vertex_count() == 4
    with pytest.raises(ValueError):
        named_graph("noitagenseciohc")


def test_bipartition():
    assert bipartition(cycle_graph(4)) is not None
    assert bipartition(cycle_graph(5)) is None
    sides = bipartition(Graph.from_edges(range(3), [(0, 1), (1, 2)]))
    assert sides == ({0, 2}, {1})
    # restricted view ignores odd structure outside
    assert bipartition(cycle_graph(5), within=[1, 2, 3]) is not None


def test_erdos_renyi_is_seeded():
    a = erdos_renyi(12, 0.3, 7)
    b = erdos_renyi(12, 0.3, 7)
    assert a.vertices() == b.vertices()
    assert sorted(a.edges()) == sorted(b.edges())
    c = erdos_renyi(12, 0.3, 8)
    assert sorted(a.edges()) != sorted(c.edges())


def test_apex_crowns_are_in_class_colorable_and_twin_free():
    for n in range(3, 7):
        g = apex_crown(n)
        apex = 2 * n + 1
        assert g.vertices() == list(range(1, apex + 1))
        assert g.neighbors(apex) == {1, n + 2}
        assert bipartition(g) is None
        assert naive_in_class(g)
        assert check_class(g) is None
        assert oracle_list3color(g) is not None
        assert len(twin_core(g)) == apex
        assert false_twins(g) == {}


def test_crowns_plus_a_vertex_are_in_class_colorable_and_twin_free():
    for n in range(4, 8):
        g = crown_plus(n)
        x = 2 * n + 1
        assert g.vertices() == list(range(1, x + 1))
        assert g.neighbors(x) == {1, n + 2, n + 3}
        assert bipartition(g) is None
        assert naive_in_class(g)
        assert check_class(g) is None
        assert oracle_list3color(g) is not None
        assert len(twin_core(g)) == x
        assert false_twins(g) == {}
        assert min(map(g.degree, g.vertices())) == 3


def test_co_bipartite_graphs_are_in_class():
    # the complement of a bipartite graph: both sides are cliques
    for n in range(1, 11):
        for p in (0.2, 0.5, 0.8):
            g = co_bipartite(n, p, split_seed(11, n))
            assert g.vertices() == list(range(1, n + 1))
            half = n // 2
            for side in (range(1, half + 1), range(half + 1, n + 1)):
                assert all(g.has_edge(a, b) for a in side for b in side if a < b)
            assert naive_in_class(g)
    a, b = co_bipartite(12, 0.5, 3), co_bipartite(12, 0.5, 3)
    assert sorted(a.edges()) == sorted(b.edges())
    assert sorted(a.edges()) != sorted(co_bipartite(12, 0.5, 4).edges())


def test_crown_graphs_are_in_class_and_twin_free():
    for n in range(1, 7):
        g = crown_graph(n)
        assert g.vertices() == list(range(1, 2 * n + 1))
        assert g.edge_count() == n * (n - 1)
        assert bipartition(g) is not None
        assert naive_in_class(g)
        assert not naive_has_cycle(g, 5) and not naive_has_cycle(g, 7)
        assert not naive_has_2p4(g)
        assert naive_has_p4(g) == (n >= 3)
        assert check_class(g) is None
        if n >= 3:
            assert len(twin_core(g)) == 2 * n
            assert false_twins(g) == {}


def test_c7_gadgets_keep_their_guarantees():
    for seed in range(60):
        g = c7_gadget(seed)
        assert g.vertex_count() <= 20, f"seed {seed} too large"
        assert check_class(g) is None
        assert find_induced_cycle(g, 7, _index(g)) is not None


def test_thickened_gadgets_stay_in_class():
    # each kept step leaves the graph in class with every neighbourhood
    # bipartite; checked here by subset enumeration and by 2-list-coloring
    # each neighbourhood with the oracle
    def shape(g):
        return g.vertices(), list(g.edges())

    checked = 0
    for make, seeds in ((c7_gadget, range(24)), (c9_gadget, range(12))):
        for seed in seeds:
            g = make(seed)
            before = shape(g)
            h = thicken(g, seed)
            assert shape(g) == before
            assert shape(thicken(g, seed)) == shape(h)
            assert set(g.edges()) <= set(h.edges())
            if h.vertex_count() <= 16:
                checked += 1
                assert naive_in_class(h), (make.__name__, seed)
            for v in h.vertices():
                nbhd = induced_subgraph(h, h.neighbors(v))
                assert oracle_list3color(nbhd, dict.fromkeys(nbhd.vertices(), {1, 2})) is not None
    assert checked >= 30


def test_c9_gadgets_keep_their_guarantees():
    for seed in range(40):
        g = c9_gadget(seed)
        assert check_class(g) is None
        index = _index(g)
        assert find_induced_cycle(g, 9, index) is not None
        assert find_induced_cycle(g, 7, index) is None


def test_generator_acceptance_rate_stays_high():
    testkit.generation_stats.clear()
    for seed in range(200, 260):
        c7_gadget(seed)
    for seed in range(200, 240):
        c9_gadget(seed)
    stats = testkit.generation_stats
    rate7 = stats["c7_accepted"] / stats["c7_drafts"]
    rate9 = stats["c9_accepted"] / stats["c9_drafts"]
    print(f"\ngenerator acceptance: 7-cycle {rate7:.2f} "
          f"({stats['c7_accepted']}/{stats['c7_drafts']}), "
          f"9-cycle {rate9:.2f} ({stats['c9_accepted']}/{stats['c9_drafts']})")
    assert rate7 >= 0.5
    assert rate9 >= 0.5


def test_cograph_composite_hits_requested_size():
    for n, seed in ((40, 0), (75, 1), (200, 2)):
        g = cograph_composite(n, seed)
        assert g.vertex_count() == n
    a = cograph_composite(50, 9)
    b = cograph_composite(50, 9)
    assert sorted(a.edges()) == sorted(b.edges())
    with pytest.raises(ValueError):
        cograph_composite(5, 0)


def test_record_round_trip():
    g = c7_gadget(17)
    rec = {"edges": list(g.edges()), "vertices": g.vertices(), "note": "x"}
    h = graph_from_record(rec)
    assert h.vertices() == g.vertices()
    assert sorted(h.edges()) == sorted(g.edges())


def test_differential_fuzz_smoke():
    rep = differential_fuzz(60, seed=123)
    assert rep.ok
    assert rep.cases == 60
    assert rep.in_class > 0
    assert rep.witness_checked > 0
    assert rep.mismatches == [] and rep.violations == []
    assert "60 cases" in rep.summary()


def test_differential_fuzz_custom_generator():
    rep = differential_fuzz(25, seed=5, generator=lambda s: c7_gadget(s))
    assert rep.ok
    assert rep.in_class == 25
    assert rep.witness_checked > 0
