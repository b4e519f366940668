"""Induced-pattern detectors, cross-checked against naive enumeration."""

from itertools import permutations
from random import Random

import pytest

from hered3.errors import ClassViolationError
from hered3.graph import Graph, odd_cycle_transversal, twin_core
from hered3 import patterns
from hered3.patterns import (
    PatternWitness,
    check_class,
    check_core,
    find_co_c7,
    find_induced_2p4,
    find_induced_cycle,
    find_induced_p4,
    find_nonbipartite_neighborhood,
    iter_induced_p4s,
)
from hered3 import testkit
from hered3.testkit import (
    co_c7_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    naive_has_2p4,
    naive_has_co_c7,
    naive_has_cycle,
    naive_has_k4,
    naive_has_p4,
    naive_in_class,
    path_graph,
    petersen_graph,
    reference_induced_cycle,
    split_seed,
)


def assert_induced_path(g, path):
    k = len(path)
    for i in range(k):
        for j in range(i + 1, k):
            assert g.has_edge(path[i], path[j]) == (j == i + 1), (path, i, j)


def assert_induced_cycle(g, cyc):
    k = len(cyc)
    for i in range(k):
        for j in range(i + 1, k):
            expect = j == i + 1 or (i == 0 and j == k - 1)
            assert g.has_edge(cyc[i], cyc[j]) == expect, (cyc, i, j)


def test_find_induced_p4_basics():
    assert find_induced_p4(path_graph(3)) is None
    got = find_induced_p4(path_graph(4))
    assert_induced_path(path_graph(4), got)
    # the square contains no induced P4
    assert find_induced_p4(cycle_graph(4)) is None
    got = find_induced_p4(cycle_graph(5))
    assert_induced_path(cycle_graph(5), got)


def test_find_induced_p4_within():
    g = path_graph(6)
    assert find_induced_p4(g, within=[1, 2, 3]) is None
    got = find_induced_p4(g, within=[3, 4, 5, 6])
    assert got is not None and set(got) == {3, 4, 5, 6}


def test_iter_induced_p4s_exhaustive():
    g = path_graph(5)
    quads = {frozenset(p) for p in iter_induced_p4s(g)}
    assert quads == {frozenset({1, 2, 3, 4}), frozenset({2, 3, 4, 5})}


def test_find_induced_p4_is_the_first_enumerated():
    rng = Random(2024)
    for i in range(150):
        g = erdos_renyi(6 + i % 9, (0.2, 0.35, 0.5)[i % 3], split_seed(7, i))
        within = rng.sample(g.vertices(), rng.randint(1, g.vertex_count()))
        for sub in (None, within):
            first = next(iter_induced_p4s(g, sub), None)
            assert find_induced_p4(g, sub) == first
            if sub is not None and first is not None:
                assert set(first) <= set(sub)


def test_find_induced_2p4():
    # two far-apart P4 stretches of one long path
    g = path_graph(9)
    got = find_induced_2p4(g)
    assert got is not None and got.kind == "2p4"
    a, b = got.parts
    assert_induced_path(g, a)
    assert_induced_path(g, b)
    for u in a:
        for w in b:
            assert not g.has_edge(u, w)
    assert find_induced_2p4(path_graph(8)) is None


def test_find_induced_cycle():
    for k in (4, 5, 6, 7, 9):
        got = find_induced_cycle(cycle_graph(k), k)
        assert got is not None
        assert_induced_cycle(cycle_graph(k), got)
    assert find_induced_cycle(cycle_graph(6), 5) is None
    assert find_induced_cycle(complete_graph(5), 5) is None
    with pytest.raises(ValueError):
        find_induced_cycle(cycle_graph(4), 3)


def test_find_induced_cycle_canonical_order():
    got = find_induced_cycle(cycle_graph(7), 7)
    assert got[0] == min(got)
    assert got[1] < got[-1]


def assert_cocycle7_order(g, seq):
    """seq is a complement cycle order: only consecutive entries are non-adjacent."""
    assert seq is not None and len(set(seq)) == 7
    for i in range(7):
        for j in range(i + 1, 7):
            gap = (j - i) % 7
            assert g.has_edge(seq[i], seq[j]) == (gap not in (1, 6)), (seq, i, j)


def relabeled(g, seed):
    """g under a seeded random permutation of its vertex ids."""
    verts = g.vertices()
    ids = verts[:]
    Random(seed).shuffle(ids)
    name = dict(zip(verts, ids))
    return Graph.from_edges(ids, ((name[u], name[w]) for u, w in g.edges()))


def co_c7_on(order):
    """The complement of the 7-cycle whose cycle order is `order`."""
    g = Graph.from_edges(order)
    for i in range(7):
        for j in range(i + 2, 7 if i else 6):
            g.add_edge(order[i], order[j])
    return g


def test_find_co_c7():
    g = co_c7_graph()
    assert_cocycle7_order(g, find_co_c7(g))
    assert find_co_c7(cycle_graph(7)) is None
    assert find_co_c7(petersen_graph()) is None


def test_find_co_c7_under_every_labeling():
    # The 14 rotations and reflections of one cycle order are automorphisms
    # and give the same labelled graph, so this runs every labelled copy on
    # seven ids instead: 7!/14 = 360 cycle orders, u0 = 0 and u1 < u6.
    seen = set()
    for rest in permutations(range(1, 7)):
        if rest[0] > rest[-1]:
            continue
        g = co_c7_on((0,) + rest)
        seen.add(frozenset(g.edges()))
        assert_cocycle7_order(g, find_co_c7(g))
    assert len(seen) == 360


def plant_co_c7(g, rng):
    """Add a co-C7 on fresh vertices, each tied to three random old ones."""
    old = g.vertices()
    new = [g.add_vertex() for _ in range(7)]
    for u, w in co_c7_on(new).edges():
        g.add_edge(u, w)
    for v in new:
        for h in rng.sample(old, 3):
            g.add_edge(v, h)
    return g


def test_find_co_c7_planted_in_composite():
    for s in range(6):
        rng = Random(s)
        host = testkit.cograph_composite(120, s)
        assert find_co_c7(host) is None
        planted = plant_co_c7(host, rng)
        for r in range(3):
            g = relabeled(planted, split_seed(31, s, r))
            assert_cocycle7_order(g, find_co_c7(g))


def test_colorable_families_have_no_co_c7():
    # co-C7 needs four colors, so a 3-colorable graph cannot contain one.
    # A composite is colored by a 3-coloring of its 7-cycle spine plus, per
    # K_{a,b} blob, the two colors its spine vertex does not use; a C7
    # blowup takes the colors of C7 class by class.
    for n in (200, 500, 1000):
        assert find_co_c7(testkit.cograph_composite(n, 3)) is None
    for k in range(1, 9):
        assert find_co_c7(testkit.cycle_blowup([k, k + 1, 2, k, 3, k + 2, 1])) is None


def wheel_graph(k):
    g = cycle_graph(k)
    rim = g.vertices()
    hub = g.add_vertex()
    for v in rim:
        g.add_edge(hub, v)
    return g


def test_nonbipartite_neighborhood_kinds():
    w = find_nonbipartite_neighborhood(complete_graph(4))
    assert w.kind == "k4"
    w = find_nonbipartite_neighborhood(wheel_graph(5))
    assert w.kind == "c5"
    assert_induced_cycle(wheel_graph(5), w.parts[0])
    assert find_nonbipartite_neighborhood(wheel_graph(7)).kind == "c7"
    assert find_nonbipartite_neighborhood(wheel_graph(9)).kind == "c9"
    assert find_nonbipartite_neighborhood(cycle_graph(7)) is None
    assert find_nonbipartite_neighborhood(petersen_graph()) is None


def test_nonbipartite_neighborhood_large_hole_raises():
    with pytest.raises(ClassViolationError) as info:
        find_nonbipartite_neighborhood(wheel_graph(11))
    assert info.value.witness.kind == "2p4"


def test_check_class_witnesses():
    w = check_class(cycle_graph(5))
    assert w.kind == "c5"
    assert_induced_cycle(cycle_graph(5), w.parts[0])
    w = check_class(path_graph(9))
    assert w.kind == "2p4"
    assert check_class(cycle_graph(7)) is None
    assert check_class(complete_graph(4)) is None  # K4 is in class
    assert check_class(petersen_graph()) is not None  # induced C5s
    assert check_class(co_c7_graph()) is None


def two_block_graph(i):
    """Disjoint pair of sparse blocks, a rich source of 2P4 positives."""
    g = erdos_renyi(5, 0.4, split_seed(21, i))
    other = erdos_renyi(5, 0.4, split_seed(22, i))
    shift = {v: g.add_vertex() for v in other.vertices()}
    for u, w in other.edges():
        g.add_edge(shift[u], shift[w])
    return g


def test_detectors_against_naive_enumeration():
    hits = {"p4": 0, "2p4": 0, "c5": 0, "c7": 0}
    sample = [erdos_renyi(6 + (i % 4), (0.2, 0.35, 0.5)[i % 3], split_seed(99, i))
              for i in range(120)]
    sample += [two_block_graph(i) for i in range(30)]
    sample += [testkit.c7_gadget(i, decorate=False) for i in range(5)]
    for g in sample:
        assert (find_induced_p4(g) is not None) == naive_has_p4(g)
        assert (find_induced_2p4(g) is not None) == naive_has_2p4(g)
        assert (find_induced_cycle(g, 5) is not None) == naive_has_cycle(g, 5)
        assert (find_induced_cycle(g, 7) is not None) == naive_has_cycle(g, 7)
        if naive_has_p4(g):
            hits["p4"] += 1
        if naive_has_2p4(g):
            hits["2p4"] += 1
        if naive_has_cycle(g, 5):
            hits["c5"] += 1
        if naive_has_cycle(g, 7):
            hits["c7"] += 1
    # the sample must actually exercise both answers
    total = len(sample)
    assert 0 < hits["p4"] < total
    assert 0 < hits["2p4"] < total
    assert 0 < hits["c5"] < total
    assert 0 < hits["c7"]


def test_2p4_witness_is_the_first_hit_of_the_reference_order():
    # find_induced_2p4 walks the sets unordered and keeps its least hit: a
    # prune that skips a hit answers None where the plain reference finds
    # one, or keeps a later hit, and the kept hit must be the reference's
    # first part.  naive_has_2p4 is quartic, so it checks the reference
    # itself up to 18 vertices
    sample = [erdos_renyi(8 + i % 19, (0.1, 0.2, 0.3, 0.45, 0.6)[i % 5], split_seed(73, i))
              for i in range(880)]
    sample += [relabeled(two_block_graph(i), split_seed(74, i)) for i in range(60)]
    sample += [twin_core(testkit.cograph_composite(20 + i % 60, split_seed(75, i)))
               for i in range(60)]
    # 2P4 itself, where each middle edge has exactly four vertices outside
    # N(b) | N(c), the least the count lets through
    two_p4 = Graph.from_edges(edges=((1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)))
    sample += [relabeled(two_p4, split_seed(76, i)) for i in range(10)]
    hits = 0
    for i, g in enumerate(sample):
        got = find_induced_2p4(g)
        first = testkit.reference_2p4_first_part(g)
        assert (got is None) == (first is None), i
        if len(g) <= 18:
            assert (first is not None) == naive_has_2p4(g), i
        if got is None:
            continue
        hits += 1
        assert got.parts[0] == first, i
        one, two = got.parts
        assert_induced_path(g, one)
        assert_induced_path(g, two)
        assert not any(u == w or g.has_edge(u, w) for u in one for w in two), i
    assert 100 < hits < len(sample) - 100, hits


def test_scans_match_the_reference_search():
    # the path-growing cycle scan returns the reference search's canonical
    # cycle for every k, and the middle-edge 2P4 scan finds a 2P4 exactly
    # when one exists, with the same first part on the graph as on its twin core
    hits = {5: 0, 7: 0, 9: 0, "2p4": 0}
    total = 1500
    for i in range(total):
        n = 6 + i % 11
        p = (0.1, 0.2, 0.3, 0.45, 0.6, 0.75)[i % 6]
        g = erdos_renyi(n, p, split_seed(61, i))
        for k in (5, 7, 9):
            got = find_induced_cycle(g, k)
            assert got == reference_induced_cycle(g, k), (i, k)
            hits[k] += got is not None
        found = find_induced_2p4(g)
        assert (found is not None) == naive_has_2p4(g), i
        if found is not None:
            assert find_induced_2p4(twin_core(g)).parts[0] == found.parts[0], i
            hits["2p4"] += 1
    assert all(10 < h < total - 10 for h in hits.values()), hits
    # sparse graphs of 30 to 60 vertices, where the canonical C5 is often
    # rooted above the least vertex
    found = rooted_above = 0
    for i in range(60):
        g = erdos_renyi(30 + i % 31, (0.05, 0.08, 0.12)[i % 3], split_seed(62, i))
        got = find_induced_cycle(g, 5)
        assert got == reference_induced_cycle(g, 5), i
        if got is not None:
            found += 1
            rooted_above += got[0] > min(g.vertices())
    assert 40 < found < 60 and rooted_above > 10, (found, rooted_above)


def test_bipartite_core_skips_the_c5_scan(monkeypatch):
    calls = []
    real = patterns.find_induced_cycle

    def recorded(g, k, trans=None):
        calls.append(k)
        return real(g, k, trans)

    monkeypatch.setattr(patterns, "find_induced_cycle", recorded)
    for g in (testkit.crown_graph(6), cycle_graph(10), path_graph(9)):
        core = twin_core(g)
        check_core(core, odd_cycle_transversal(core))
    assert calls == []
    g = cycle_graph(5)
    assert check_core(g, odd_cycle_transversal(g)).kind == "c5"
    assert calls == [5]


def toggled_co_bipartite(i):
    """A small co-bipartite graph with i % 3 random pairs toggled: dense,
    and in or out of class either way."""
    rng = Random(split_seed(74, i))
    g = testkit.co_bipartite(8 + i % 7, (0.2, 0.4, 0.6)[i % 3], split_seed(75, i))
    for _ in range(i % 3):
        u, w = rng.sample(g.vertices(), 2)
        if g.has_edge(u, w):
            g.neighbors(u).discard(w)
            g.neighbors(w).discard(u)
        else:
            g.add_edge(u, w)
    return g


def test_transversal_rooted_scans_match_the_reference():
    # the C5 decision from the odd-cycle transversal and the roots it
    # bounds give the reference search's canonical cycle for every odd
    # length, and check_class agrees with naive enumeration; the sample
    # holds transversals of two or more vertices, in class and out, graphs
    # with holes of several lengths, and two-clique graphs, with and
    # without a toggled pair, for the complement certificate
    hits = {"t2_in": 0, "t2_out": 0, "mixed": 0, "two_cliques": 0, "toggled_out": 0}
    total = 480
    for i in range(total):
        if i % 6 == 5:
            g = toggled_co_bipartite(i)
        else:
            g = erdos_renyi(8 + i % 9, (0.12, 0.18, 0.25, 0.35, 0.5)[i % 5], split_seed(73, i))
            g = relabeled(g, split_seed(76, i))
        found = 0
        for k in (5, 7, 9):
            got = find_induced_cycle(g, k)
            assert got == reference_induced_cycle(g, k), (i, k)
            found += got is not None
            if k == 5:
                # the decision alone, which a false "yes" would only slow
                trans = sorted(odd_cycle_transversal(g))
                assert patterns._has_c5(g._adj, trans) == (got is not None), i
        in_class = naive_in_class(g)
        assert (check_class(g) is None) == in_class, i
        big_t = len(trans) >= 2
        two_cliques = patterns._co_bipartite(g._adj)
        if two_cliques:
            # the edge count check_core tests before the search
            n = len(g)
            assert 4 * g.edge_count() >= n * (n - 2), i
        hits["t2_in"] += big_t and in_class
        hits["t2_out"] += big_t and not in_class
        hits["mixed"] += found >= 2
        hits["two_cliques"] += two_cliques
        hits["toggled_out"] += i % 6 == 5 and not in_class
    assert all(h >= 10 for h in hits.values()), hits


def test_core_of_two_cliques_needs_no_scan(monkeypatch):
    calls = []
    for name in ("find_induced_cycle", "find_induced_2p4"):
        real = getattr(patterns, name)
        monkeypatch.setattr(patterns, name,
                            lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    # two disjoint cliques hold exactly the n(n - 2)/4 edges that check_core
    # asks for before it searches the complement
    for a, b in ((5, 5), (5, 4), (1, 1), (1, 0)):
        sides = (range(1, a + 1), range(a + 1, a + b + 1))
        g = Graph.from_edges(range(1, a + b + 1),
                             [(u, w) for side in sides for u in side for w in side if u < w])
        assert check_core(g, odd_cycle_transversal(g)) is None
    assert calls == []
    g = testkit.co_bipartite(60, 0.3, 3)
    assert check_core(g, odd_cycle_transversal(g)) is None
    assert calls == []
    # one missing edge inside a side leaves the complement with a triangle
    # (the missing pair and a vertex of the other side that sees neither
    # one), so the scans run, the C5 scan first
    side = range(1, 31)
    u, w = next((u, w) for u in side for w in side if u < w
                and any(not g.has_edge(u, x) and not g.has_edge(w, x) for x in range(31, 61)))
    g.neighbors(u).discard(w)
    g.neighbors(w).discard(u)
    check_core(g, odd_cycle_transversal(g))
    assert calls[:1] == ["find_induced_cycle"]


def small_graph(n, p, rng, plant, flip):
    """Random graph on ids 0..n-1; `plant` makes 0..6 a co-C7 first, and
    `flip` then toggles one random pair."""
    core = co_c7_on(range(7))
    toggled = tuple(sorted(rng.sample(range(n), 2))) if flip else None
    g = Graph.from_edges(range(n))
    for u in range(n):
        for w in range(u + 1, n):
            edge = core.has_edge(u, w) if plant and w < 7 else rng.random() < p
            if edge != ((u, w) == toggled):
                g.add_edge(u, w)
    return g


def test_co_c7_against_naive():
    # plain random graphs this small rarely hold a co-C7, so two of every
    # three samples plant one, and one of those two flips a random pair
    hits = [0, 0]
    for i in range(288):
        n = 7 + i % 4
        p = (0.5, 0.6, 0.7, 0.75, 0.8, 0.85)[i // 4 % 6]
        rng = Random(split_seed(7, i))
        g = relabeled(small_graph(n, p, rng, i % 3 > 0, i % 3 == 2), split_seed(9, i))
        got = find_co_c7(g)
        assert (got is not None) == naive_has_co_c7(g), i
        if got is not None:
            assert_cocycle7_order(g, got)
        hits[got is not None] += 1
    assert hits[0] > 50 and hits[1] > 50, hits


def plant_twins(g, rng, count):
    """Add `count` vertices, each a false or true twin of a random vertex."""
    for _ in range(count):
        v = rng.choice(g.vertices())
        t = g.add_vertex()
        for w in list(g.neighbors(v)):
            g.add_edge(t, w)
        if rng.random() < 0.5:
            g.add_edge(t, v)
    return g


def twin_free_sample(i, rng):
    """Bases rich in co-C7, in 2P4, in long induced cycles, and plain."""
    kind = i % 4
    if kind == 0:
        return small_graph(7 + i % 2, 0.6, rng, True, i % 8 == 4)
    if kind == 1:
        return two_block_graph(i)
    if kind == 2:
        g = cycle_graph(7 if i % 8 == 2 else 9)
        for _ in range(2):
            old = g.vertices()
            v = g.add_vertex()
            for w in rng.sample(old, rng.randint(1, 3)):
                g.add_edge(v, w)
        return g
    return erdos_renyi(8, (0.25, 0.45)[i % 8 == 3], split_seed(55, i))


def test_twin_free_searches_agree_on_the_twin_core():
    # C5, C7, C9, 2P4 and co-C7 have no twins, so the core holds each of
    # them exactly when the graph does, and the first cycle and the first
    # part of a 2P4 are the ones found on the whole graph
    hits = {"c5": 0, "c7": 0, "c9": 0, "2p4": 0, "co_c7": 0, "in_class": 0}
    total = 160
    for i in range(total):
        rng = Random(split_seed(53, i))
        g = relabeled(plant_twins(twin_free_sample(i, rng), rng, 1 + i % 3), split_seed(54, i))
        core = twin_core(g)
        assert len(core) < len(g)
        for k in (5, 7, 9):
            got = find_induced_cycle(core, k)
            assert got == find_induced_cycle(g, k), (i, k)
            hits[f"c{k}"] += got is not None
        full_2p4, core_2p4 = find_induced_2p4(g), find_induced_2p4(core)
        has_2p4 = naive_has_2p4(g)
        assert (core_2p4 is not None) == (full_2p4 is not None) == has_2p4, i
        if has_2p4:
            assert core_2p4.parts[0] == full_2p4.parts[0], i
        in_class = not naive_has_cycle(g, 5) and not has_2p4
        assert (check_class(g) is None) == in_class, i
        co_c7 = naive_has_co_c7(g)
        assert (find_co_c7(core) is not None) == co_c7, i
        hits["2p4"] += has_2p4
        hits["co_c7"] += co_c7
        hits["in_class"] += in_class
    assert all(10 < h < total - 10 for h in hits.values()), hits


def test_k4_detection_against_naive():
    for i in range(80):
        g = erdos_renyi(7, 0.5, split_seed(13, i))
        w = find_nonbipartite_neighborhood(g)
        if naive_has_k4(g):
            assert w is not None and w.kind == "k4"


def test_pattern_witness_vertices():
    w = PatternWitness("2p4", ((0, 1, 2, 3), (4, 5, 6, 7)))
    assert w.vertices() == [0, 1, 2, 3, 4, 5, 6, 7]
