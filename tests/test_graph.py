"""Adjacency-set graph and the small structural helpers on top of it."""

from random import Random

import pytest

from hered3.errors import InputError
from hered3.graph import (
    Graph,
    connected_components,
    false_twins,
    induced_subgraph,
    twin_core,
)
from hered3.testkit import (
    cograph_composite,
    complete_bipartite,
    cycle_blowup,
    erdos_renyi,
    petersen_graph,
    split_seed,
    threshold_graph,
)


def cycle(n):
    return Graph.from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


def test_from_edges_and_views():
    g = Graph.from_edges([3, 1, 2], [(1, 2), (2, 3)])
    assert g.vertices() == [1, 2, 3]
    assert g.vertex_count() == 3
    assert g.edge_count() == 2
    assert sorted(g.edges()) == [(1, 2), (2, 3)]
    assert g.has_edge(2, 1) and g.has_edge(1, 2)
    assert not g.has_edge(1, 3)
    assert g.neighbors(2) == {1, 3}
    assert g.sorted_neighbors(2) == [1, 3]
    assert g.degree(2) == 2 and g.degree(1) == 1
    assert 1 in g and 9 not in g
    assert len(g) == 3


def test_add_vertex_ids():
    g = Graph()
    assert g.add_vertex() == 1
    assert g.add_vertex(7) == 7
    assert g.add_vertex() == 8
    with pytest.raises(InputError):
        g.add_vertex(7)


def test_rejects_self_loops_and_unknown_endpoints():
    with pytest.raises(InputError):
        Graph.from_edges([1], [(1, 1)])
    g = Graph.from_edges([1, 2], [(1, 2)])
    with pytest.raises(InputError):
        g.add_edge(1, 1)
    with pytest.raises(InputError):
        g.add_edge(1, 99)


def test_remove_vertex_drops_incident_edges():
    g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    g.remove_vertex(1)
    assert g.vertices() == [0, 2, 3]
    assert sorted(g.edges()) == [(0, 3), (2, 3)]
    assert g.neighbors(0) == {3}
    with pytest.raises(InputError):
        g.remove_vertex(1)


def test_copy_is_independent():
    g = Graph.from_edges(range(3), [(0, 1)])
    h = g.copy()
    h.add_edge(1, 2)
    h.remove_vertex(0)
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 2)


def test_induced_subgraph():
    g = cycle(5)
    h = induced_subgraph(g, [0, 1, 2, 4])
    assert h.vertices() == [0, 1, 2, 4]
    assert sorted(h.edges()) == [(0, 1), (0, 4), (1, 2)]
    with pytest.raises(InputError, match="unknown vertex 9"):
        induced_subgraph(g, [0, 9, 1])


def test_connected_components():
    g = Graph.from_edges(range(6), [(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3], [4, 5]]
    within = connected_components(g, within=[0, 2, 4, 5])
    assert sorted(map(sorted, within)) == [[0], [2], [4, 5]]
    # ordered by least vertex, whatever the order of the ids' insertion
    g = Graph.from_edges([5, 3, 0, 4, 1, 2], [(5, 0), (3, 4), (1, 2), (2, 5)])
    assert connected_components(g) == [{0, 1, 2, 5}, {3, 4}]
    assert connected_components(g, within=(5, 4, 2, 0)) == [{0, 2, 5}, {4}]
    with pytest.raises(InputError, match="unknown vertex 9"):
        connected_components(g, within=[0, 9, 1])


def adjacency(g):
    return {v: set(g.neighbors(v)) for v in g.vertices()}


def test_twin_core_of_a_blowup_is_its_cycle():
    # independent classes hold false twins, clique classes true twins
    sizes = [3, 2, 1, 4, 2, 2, 3]
    g = cycle_blowup(sizes, cliques=(1, 4))
    before = adjacency(g)
    core = twin_core(g)
    firsts = [1 + sum(sizes[:i]) for i in range(7)]
    assert core.vertices() == firsts
    assert sorted(core.edges()) == sorted(
        (min(a, b), max(a, b)) for a, b in zip(firsts, firsts[1:] + firsts[:1]))
    assert adjacency(g) == before


def test_twin_core_of_cographs_is_one_vertex():
    # deleting twins to a fixpoint takes every cograph down to one vertex
    for g in (complete_bipartite(3, 5), complete_bipartite(9, 21), threshold_graph(300)):
        before = adjacency(g)
        assert twin_core(g).vertices() == [1]
        assert adjacency(g) == before


def test_twin_core_of_a_twin_free_graph_is_itself():
    for g in (cycle(7), petersen_graph()):
        core = twin_core(g)
        assert adjacency(core) == adjacency(g)
        assert core is not g


def naive_twin_core(g):
    """Rounds that each delete every vertex with a smaller twin."""
    keep = set(g.vertices())
    while True:
        sub = induced_subgraph(g, keep)
        drop = {u for u in keep for v in keep
                if v < u and sub.neighbors(u) - {v} == sub.neighbors(v) - {u}}
        if not drop:
            return sub
        keep -= drop


def planted_twin_graph(i):
    """A small random graph on random ids with up to five planted twins."""
    rng = Random(split_seed(61, i))
    base = erdos_renyi(rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)), split_seed(62, i))
    twins = rng.randint(0, 5)
    # random ids, so that a planted twin is as often the smaller one
    ids = iter(rng.sample(range(1, 40), len(base) + twins))
    name = {v: next(ids) for v in base.vertices()}
    g = Graph.from_edges(name.values(), ((name[u], name[w]) for u, w in base.edges()))
    for _ in range(twins):
        v = rng.choice(g.vertices())
        t = g.add_vertex(next(ids))
        for w in list(g.neighbors(v)):
            g.add_edge(t, w)
        if rng.random() < 0.5:
            g.add_edge(t, v)
    return g


def twin_corpus():
    # in cograph_composite, deleting false twins makes true twins and back;
    # a threshold graph's twins form one pair at a time, so from the third
    # pass on each pass keys only a few vertices; and a hub with two pendant
    # neighbours leaves, once one pendant goes, a true-twin edge
    graphs = [planted_twin_graph(i) for i in range(300)]
    graphs += [cograph_composite(7 + i, split_seed(63, i)) for i in range(30)]
    graphs += [threshold_graph(40), threshold_graph(200)]
    return graphs + [Graph.from_edges(edges=((1, 2), (1, 3)))]


def test_twin_core_matches_rounds_of_pairwise_tests():
    graphs = twin_corpus()
    assert twin_core(graphs[-1]).vertices() == [1]
    for i, g in enumerate(graphs):
        core = twin_core(g)
        assert adjacency(core) == adjacency(naive_twin_core(g)), i
        # each copy maps to the least vertex with its open neighbourhood
        copies = false_twins(g)
        for v in g.vertices():
            least = min(u for u in g.vertices() if g.neighbors(u) == g.neighbors(v))
            assert copies.get(v, v) == least, i
        # one pass leaves no false twins, and the same twin core
        h = induced_subgraph(g, [v for v in g.vertices() if v not in copies])
        assert false_twins(h) == {}, i
        assert adjacency(twin_core(h)) == adjacency(core), i
        assert core.add_vertex() == g.add_vertex()

