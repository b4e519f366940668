"""Induced-pattern detectors, cross-checked against naive enumeration."""

from itertools import combinations, permutations
from random import Random

import pytest

from hered3.errors import ClassViolationError
from hered3.graph import Graph, connected_components, false_twins, induced_subgraph, twin_core
from hered3 import cograph, patterns
from hered3.solver import solve
from hered3.patterns import (
    PatternWitness,
    _index,
    check_class,
    check_components,
    find_co_c7,
    find_induced_2p4,
    find_induced_cycle,
    find_nonbipartite_neighborhood,
)
from hered3 import testkit
from hered3.testkit import (
    bipartition,
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


def p4s(g, within=None):
    """`patterns._p4s` on the index of g, over within (all of g by
    default), as id tuples in the order it yields them."""
    order, nbr, keep = patterns._index(g)
    if within is not None:
        keep = sum(1 << i for i, v in enumerate(order) if v in within)
    return [tuple(order[i] for i in p) for p in patterns._p4s(nbr, keep)]


def exhaustive_p4s(g, within=None):
    """Every induced P4 (a, b, c, d) of g[within] with a < d, sorted."""
    verts = sorted(g.vertices() if within is None else within)
    return sorted(p for p in permutations(verts, 4) if p[0] < p[3]
                  and all(g.has_edge(p[i], p[j]) == (j == i + 1)
                          for i, j in combinations(range(4), 2)))


def test_p4s_basics():
    assert p4s(path_graph(3)) == []
    assert p4s(path_graph(4)) == [(1, 2, 3, 4)]
    # the square contains no induced P4
    assert p4s(cycle_graph(4)) == []
    got = p4s(cycle_graph(5))
    assert len(got) == 5 and got[0] == (1, 2, 3, 4)
    for path in got:
        assert_induced_path(cycle_graph(5), path)


def test_p4s_within():
    g = path_graph(6)
    assert p4s(g, within=[1, 2, 3]) == []
    assert p4s(g, within=[3, 4, 5, 6]) == [(3, 4, 5, 6)]
    # a vertex outside within breaks the path it would carry
    assert p4s(g, within=[1, 2, 3, 5, 6]) == []


def test_p4s_exhaustive():
    g = path_graph(5)
    assert p4s(g) == [(1, 2, 3, 4), (2, 3, 4, 5)]


def test_p4s_match_an_exhaustive_list():
    # each induced P4 once, with its smaller end first, in lexicographic
    # order, over all of g or a random subset of it
    rng = Random(2024)
    hits = 0
    for i in range(150):
        g = erdos_renyi(6 + i % 9, (0.2, 0.35, 0.5)[i % 3], split_seed(7, i))
        within = rng.sample(g.vertices(), rng.randint(1, g.vertex_count()))
        got = p4s(g)
        assert got == exhaustive_p4s(g), i
        assert bool(got) == naive_has_p4(g), i
        assert p4s(g, within) == exhaustive_p4s(g, within), i
        hits += bool(got)
    assert 30 < hits < 140, hits


def test_find_induced_2p4():
    # two far-apart P4 stretches of one long path
    g = path_graph(9)
    got = find_induced_2p4(g, _index(g))
    assert got is not None and got.kind == "2p4"
    a, b = got.parts
    assert_induced_path(g, a)
    assert_induced_path(g, b)
    for u in a:
        for w in b:
            assert not g.has_edge(u, w)
    g = path_graph(8)
    assert find_induced_2p4(g, _index(g)) is None


def test_find_induced_cycle():
    for k in (5, 7, 9):
        g = cycle_graph(k)
        got = find_induced_cycle(g, k, _index(g))
        assert got is not None
        assert_induced_cycle(g, got)
    for g in (cycle_graph(6), complete_graph(5)):
        assert find_induced_cycle(g, 5, _index(g)) is None
    for k in (3, 4, 6):
        g = cycle_graph(k)
        with pytest.raises(ValueError):
            find_induced_cycle(g, k, _index(g))


def test_find_induced_cycle_canonical_order():
    g = cycle_graph(7)
    got = find_induced_cycle(g, 7, _index(g))
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
    assert_cocycle7_order(g, find_co_c7(g, _index(g)))
    for g in (cycle_graph(7), petersen_graph()):
        assert find_co_c7(g, _index(g)) is None


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
        assert_cocycle7_order(g, find_co_c7(g, _index(g)))
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
        assert find_co_c7(host, _index(host)) is None
        planted = plant_co_c7(host, rng)
        for r in range(3):
            g = relabeled(planted, split_seed(31, s, r))
            assert_cocycle7_order(g, find_co_c7(g, _index(g)))


def test_colorable_families_have_no_co_c7():
    # co-C7 needs four colors, so a 3-colorable graph cannot contain one.
    # A composite is colored by a 3-coloring of its 7-cycle spine plus, per
    # K_{a,b} blob, the two colors its spine vertex does not use; a C7
    # blowup takes the colors of C7 class by class.
    graphs = [testkit.cograph_composite(n, 3) for n in (200, 500, 1000)]
    graphs += [testkit.cycle_blowup([k, k + 1, 2, k, 3, k + 2, 1]) for k in range(1, 9)]
    for g in graphs:
        assert find_co_c7(g, _index(g)) is None


def wheel_graph(k):
    g = cycle_graph(k)
    rim = g.vertices()
    hub = g.add_vertex()
    for v in rim:
        g.add_edge(hub, v)
    return g


def test_nonbipartite_neighborhood_kinds():
    # the hub's neighbourhood: the least triangle with the hub first, or
    # the canonical rim
    def odd(g):
        return find_nonbipartite_neighborhood(g, _index(g))

    assert odd(complete_graph(4)) == PatternWitness("k4", ((1, 2, 3, 4),))
    assert odd(wheel_graph(5)) == PatternWitness("c5", ((1, 2, 3, 4, 5),))
    assert odd(wheel_graph(7)).kind == "c7"
    assert odd(wheel_graph(9)).kind == "c9"
    assert odd(cycle_graph(7)) is None
    assert odd(petersen_graph()) is None


def test_nonbipartite_neighborhood_large_hole_raises():
    # the hub sees the whole rim, so the least 2P4 of its neighbourhood is
    # the least 2P4 of the wheel, the one the class check names
    g = wheel_graph(11)
    with pytest.raises(ClassViolationError) as info:
        find_nonbipartite_neighborhood(g, _index(g))
    assert info.value.witness.kind == "2p4"
    assert info.value.witness == check_class(g)


def reference_nonbipartite_neighborhood(g):
    """The first vertex (ascending) whose neighbourhood has an odd cycle,
    by one `testkit.bipartition` per neighbourhood, or None."""
    for v in g.vertices():
        nv = g.neighbors(v)
        if len(nv) >= 3 and bipartition(g, within=nv) is None:
            return v
    return None


def plant_wheel(g, rng, k):
    """Make a random vertex the hub of an induced k-cycle of other random
    vertices: the rim's pairs are set to the cycle's, the hub sees all."""
    hub, *rim = rng.sample(g.vertices(), k + 1)
    for i, u in enumerate(rim):
        g.add_edge(hub, u)
        for j in range(i + 1, k):
            w = rim[j]
            if j - i in (1, k - 1):
                g.add_edge(u, w)
            elif g.has_edge(u, w):
                g.neighbors(u).discard(w)
                g.neighbors(w).discard(u)
    return g


def reference_odd_witness(g, v):
    """The kind and the first part of the odd-neighbourhood witness at v,
    from the testkit references on N(v): v and the least triangle by brute
    force, else the canonical induced C5, C7 or C9, else the first part of
    the least 2P4."""
    sub = induced_subgraph(g, g.neighbors(v))
    for a, b, c in combinations(sub.vertices(), 3):
        if sub.has_edge(a, b) and sub.has_edge(a, c) and sub.has_edge(b, c):
            return "k4", (v, a, b, c)
    for k in (5, 7, 9):
        cyc = reference_induced_cycle(sub, k)
        if cyc is not None:
            return f"c{k}", cyc
    return "2p4", testkit.reference_2p4_first_part(sub)


def spread(g, seed):
    """g relabelled onto sparse ids, negative ones among them, in the same
    order: the vertex of rank k becomes 10**6 * k + r - 10**7 for a seeded
    r below 10**6.  Returns the graph and the map from old ids to new."""
    rng = Random(seed)
    image = {v: 10**6 * k + rng.randrange(10**6) - 10**7 for k, v in enumerate(g.vertices())}
    return Graph.from_edges(image.values(), ((image[u], image[w]) for u, w in g.edges())), image


def shuffled(g, seed):
    """`spread` with the vertices and the edges, each end first at random,
    inserted in a seeded random order."""
    h, image = spread(g, seed)
    rng = Random(seed)
    verts = h.vertices()
    rng.shuffle(verts)
    edges = [e[::rng.choice((1, -1))] for e in h.edges()]
    rng.shuffle(edges)
    return Graph.from_edges(verts, edges), image


def odd_witness(g, index):
    """The odd-neighbourhood witness of g on index, raised or returned, or
    None."""
    try:
        return find_nonbipartite_neighborhood(g, index)
    except ClassViolationError as exc:
        return exc.witness


def test_odd_neighbourhood_check_matches_the_bipartition_reference(monkeypatch):
    # the layered mask search flags the same first vertex as one
    # bipartition per neighbourhood, and grows cycles only in that vertex's
    # non-bipartite components, from triangles up to the least odd length
    # it holds; the witness is the testkit references' on that
    # neighbourhood, and a relabelling onto sparse ids in the same order,
    # inserted in shuffled order, moves it to its image.  The sample holds
    # sparse graphs with and without planted K4s and odd wheels
    searched = []
    real = patterns._least_cycle

    def recorded(nbr, trans, k, keep):
        kept = [i for i in range(len(nbr)) if keep >> i & 1]
        # a kept vertex keeps its neighbours in the cut and no others
        assert all(not nbr[i] & ~keep for i in kept)
        searched.append((k, kept))
        return real(nbr, trans, k, keep)

    monkeypatch.setattr(patterns, "_least_cycle", recorded)
    kinds = {"none": 0, "k4": 0, "c5": 0, "c7": 0, "c9": 0, "2p4": 0}
    for i in range(2000):
        rng = Random(split_seed(91, i))
        g = erdos_renyi(10 + i % 21, (0.06, 0.1, 0.15, 0.25, 0.4)[i % 5], split_seed(92, i))
        plant = i % 8
        if plant in (1, 2, 3, 4) and len(g) > 2 * plant + 3:
            plant_wheel(g, rng, 2 * plant + 1)    # K4, W5, W7, W9
        elif plant == 5 and len(g) > 12:
            plant_wheel(g, rng, 11)               # W11: outside the class
        want = reference_nonbipartite_neighborhood(g)
        h, image = shuffled(g, split_seed(93, i))
        relabelled = odd_witness(h, _index(h))
        searched.clear()
        got = odd_witness(g, _index(g))
        assert relabelled == (None if got is None else PatternWitness(
            got.kind, tuple(tuple(image[v] for v in part) for part in got.parts))), i
        if want is None:
            assert got is None and searched == [], i
            kinds["none"] += 1
            continue
        kind, first = reference_odd_witness(g, want)
        assert got.kind == kind and got.parts[0] == first, i
        if kind == "2p4":
            second = got.parts[1]
            assert set(second) <= g.neighbors(want), i
            assert all(g.has_edge(second[a], second[b]) == (b - a == 1)
                       for a, b in combinations(range(4), 2)), i
            assert not any(g.has_edge(u, w) for u in first for w in second), i
        else:
            assert len(got.parts) == 1, i
        odd = set().union(*(c for c in connected_components(g, g.neighbors(want))
                            if bipartition(g, within=c) is None))
        grown = {"k4": 1, "c5": 2, "c7": 3}.get(kind, 4)
        assert searched == [(k, [r for r, v in enumerate(g.vertices()) if v in odd])
                            for k in (3, 5, 7, 9)[:grown]], i
        kinds[kind] += 1
    assert all(n >= 10 for n in kinds.values()), kinds
    assert 400 < kinds["none"] < 1600, kinds


def test_a_cut_index_searches_the_subgraph_it_keeps():
    # a finder handed `_cut(_index(g), keep)` searches the subgraph that
    # keep induces, and returns what it returns on that subgraph built as a
    # graph of its own: ranks follow ids in both.  keep is a random set of
    # vertices; a planted odd wheel, W11 and W13 among them, is kept whole,
    # so the odd-neighbourhood check on the cut raises from a 2P4 scan of
    # the hub's neighbourhood, cut once more.  The cut keeps the index's
    # order and length, and every row outside keep is 0.  co-C7 is rare in
    # these graphs, so its search is also run on small dense graphs, most
    # with a planted co-C7
    hits = {"2p4": 0, "cycle": 0, "odd": 0, "raised": 0, "co_c7": 0}
    for i in range(600):
        rng = Random(split_seed(94, i))
        g = erdos_renyi(16 + i % 17, (0.1, 0.15, 0.22, 0.3)[i % 4], split_seed(95, i))
        wheel = set()
        k = (0, 3, 5, 7, 11, 13)[i % 6]
        if k:
            # the hub and rim: plant_wheel's first draw from the same seed
            wheel = set(Random(split_seed(96, i)).sample(g.vertices(), k + 1))
            plant_wheel(g, Random(split_seed(96, i)), k)
        ids = [v for v in g.vertices() if v in wheel or rng.random() < 0.7]
        index = patterns._index(g)
        cut = patterns._cut(index, sum(1 << r for r, v in enumerate(index[0]) if v in ids))
        assert cut[0] == index[0] and len(cut[1]) == len(index[1]), i
        assert all(cut[2] >> r & 1 or not m for r, m in enumerate(cut[1])), i
        sub = induced_subgraph(g, ids)
        own = _index(sub)
        assert find_co_c7(g, cut) == find_co_c7(sub, own), i
        got = find_induced_2p4(g, cut)
        assert got == find_induced_2p4(sub, own), i
        hits["2p4"] += got is not None
        for k in (5, 7, 9):
            got = find_induced_cycle(g, k, cut)
            assert got == find_induced_cycle(sub, k, own), (i, k)
            hits["cycle"] += got is not None
        got = odd_witness(g, cut)
        assert got == odd_witness(sub, own), i
        hits["odd"] += got is not None
        hits["raised"] += got is not None and got.kind == "2p4"
    for i in range(300):
        rng = Random(split_seed(97, i))
        g = relabeled(small_graph(9 + i % 4, 0.6, rng, i % 3 > 0, i % 3 == 2), split_seed(98, i))
        ids = [v for v in g.vertices() if rng.random() < 0.9]
        index = patterns._index(g)
        cut = patterns._cut(index, sum(1 << r for r, v in enumerate(index[0]) if v in ids))
        got = find_co_c7(g, cut)
        sub = induced_subgraph(g, ids)
        assert got == find_co_c7(sub, _index(sub)), i
        hits["co_c7"] += got is not None
    # an empty cut holds nothing
    empty = patterns._cut(index, 0)
    assert empty == (index[0], [0] * len(index[1]), 0) and find_co_c7(g, empty) is None
    assert find_induced_cycle(g, 5, empty) is None and find_induced_2p4(g, empty) is None
    assert all(n >= 40 for n in hits.values()), hits


def test_mask_scans_place_bits_by_rank_not_id():
    # the bit of a vertex is its rank in ascending id order, so an
    # order-preserving relabelling onto sparse ids moves each canonical
    # witness to its image, the odd-neighbourhood witness among them
    hits = {"2p4": 0, 5: 0, 7: 0, 9: 0, "odd": 0}
    for i in range(200):
        g = erdos_renyi(8 + i % 23, (0.1, 0.15, 0.22, 0.3, 0.45)[i % 5], split_seed(83, i))
        h, image = spread(g, split_seed(84, i))

        def moved(part):
            return tuple(image[v] for v in part)

        gi, hi = _index(g), _index(h)
        want, got = find_induced_2p4(g, gi), find_induced_2p4(h, hi)
        assert (got is None) == (want is None), i
        if want is not None:
            assert got.parts == tuple(map(moved, want.parts)), i
            hits["2p4"] += 1
        for k in (5, 7, 9):
            want, got = find_induced_cycle(g, k, gi), find_induced_cycle(h, k, hi)
            assert got == (None if want is None else moved(want)), (i, k)
            hits[k] += want is not None
        hub = reference_nonbipartite_neighborhood(g)
        want, got = find_nonbipartite_neighborhood(g, gi), find_nonbipartite_neighborhood(h, hi)
        assert (got is None) == (want is None) == (hub is None), i
        if want is not None:
            assert got == PatternWitness(want.kind, tuple(map(moved, want.parts))), i
            assert set(got.vertices()) <= h.neighbors(image[hub]) | {image[hub]}, i
            hits["odd"] += 1
    assert all(10 < n < 190 for n in hits.values()), hits


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
        assert bool(p4s(g)) == naive_has_p4(g)
        index = _index(g)
        assert (find_induced_2p4(g, index) is not None) == naive_has_2p4(g)
        assert (find_induced_cycle(g, 5, index) is not None) == naive_has_cycle(g, 5)
        assert (find_induced_cycle(g, 7, index) is not None) == naive_has_cycle(g, 7)
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


def spider_plus(k, leg, seed):
    """A spider with one more edge between the ends of two of its legs,
    under shuffled ids: a C5 with legs of 2, and with legs of 3 a C7 that
    the P4 of a third leg and the hub make a 2P4 with."""
    rng = Random(seed)
    g = testkit.spider(k, leg)
    i, j = rng.sample(range(k), 2)
    g.add_edge(1 + (i + 1) * leg, 1 + (j + 1) * leg)
    return relabeled(g, seed)


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
    # the scan skips an edge or a start whose far set holds no P4: sparse
    # graphs give rests of five or more vertices, and spiders with one
    # leg-end edge give hits under an edge's far set of most of the graph
    sample += [erdos_renyi(20 + i % 11, (0.08, 0.1, 0.13)[i % 3], split_seed(81, i))
               for i in range(200)]
    sample += [spider_plus(3 + i % 6, 2 + i // 6 % 2, split_seed(82, i)) for i in range(120)]
    hits = 0
    for i, g in enumerate(sample):
        got = find_induced_2p4(g, _index(g))
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


def composite_cores():
    """The twin cores of the bench's `composite` graphs at seeds 5 and 7,
    under their own ids and under a shuffled labeling, as the bench sends
    them."""
    cores = []
    for seed in (5, 7):
        for r in range(18):
            g = testkit.cograph_composite(250, split_seed(seed, 41, r, 0))
            cores += [twin_core(g), twin_core(relabeled(g, split_seed(seed, 40, r)))]
    return cores


def least_p4_outside(g, part):
    """The least induced P4 (a, b, c, d) with a < d among the vertices of g
    that see none of part, found by listing their 4-subsets, or None."""
    near = set(part).union(*(g.neighbors(v) for v in part))
    best = None
    for quad in combinations([v for v in g.vertices() if v not in near], 4):
        if sum(g.has_edge(u, w) for u, w in combinations(quad, 2)) != 3:
            continue
        for p in permutations(quad):
            if p[0] < p[3] and all(g.has_edge(p[i], p[j]) == (j == i + 1)
                                   for i, j in combinations(range(4), 2)):
                best = p if best is None else min(best, p)
    return best


def test_2p4_second_part_is_the_least_p4_of_its_rest():
    # the second part of a 2P4 witness is the least induced P4 outside
    # N[first part] of the core, whichever P4 of the rest the scan's test
    # meets first; random graphs of 12 to 20 vertices give rests with
    # several P4s
    def checked(g):
        got = check_class(g)
        if got is None or got.kind != "2p4":
            return False
        first, second = got.parts
        assert second == least_p4_outside(twin_core(g), first), got
        assert find_induced_2p4(g, _index(g)) == got, got
        return True

    sample = [erdos_renyi(12 + i % 9, (0.10, 0.14, 0.18, 0.22)[i % 4], split_seed(78, i))
              for i in range(1800)]
    hits = sum(map(checked, sample))
    assert 300 <= hits < len(sample) - 300, hits
    assert all(map(checked, composite_cores()))
    # a rest of 11 vertices whose least P4 is not the first one a cotree's
    # depth-first walk meets (that gave (16, 4, 12, 18))
    got = check_class(erdos_renyi(19, 0.14, 809294379))
    assert got == PatternWitness("2p4", ((1, 7, 2, 3), (6, 5, 15, 11)))


def test_spider_rests_are_ruled_out_by_their_p4_free_supersets(monkeypatch):
    # every rest of a spider's 2P4 scan is a set of disjoint edges, one for
    # each two legs; the edge's far set holds no P4, so one test of it
    # skips the edge's k or so rests.  The check makes at most 2k P4 tests
    # (k with legs of 2, 2k with legs of 3), where testing each rest made
    # k^2 / 2 to k^2
    calls = []
    real = patterns._p4s

    def p4s(nbr, within):
        calls.append(within)
        return real(nbr, within)

    monkeypatch.setattr(patterns, "_p4s", p4s)
    for leg in (2, 3):
        for k in (20, 40):
            del calls[:]
            assert check_class(testkit.spider(k, leg)) is None
            assert len(calls) <= 2 * k, (k, leg, len(calls))
    del calls[:]
    assert check_class(testkit.spider(200, 3)) is None
    assert len(calls) <= 400, len(calls)


def test_the_class_check_builds_no_cotree(monkeypatch):
    # every rest of the 2P4 scan is tested on the masks, so neither the
    # class check nor the scan on its own calls the set-based cotree
    def refuse(*args, **kwargs):
        raise AssertionError("the class check built a cotree")

    monkeypatch.setattr(cograph, "cotree_or_failure", refuse)
    cores = composite_cores()
    found = [g for g in (erdos_renyi(12 + i % 9, 0.14, split_seed(79, i)) for i in range(500))
             if find_induced_2p4(g, _index(g)) is not None][:100]
    thick = [testkit.thicken(make(s), s) for make in (testkit.c7_gadget, testkit.c9_gadget)
             for s in range(20)]
    assert len(found) == 100
    for g in cores + found + thick:
        check_class(g)
        find_induced_2p4(g, _index(g))
    # a composite core's 2P4 hit has a rest of more than four vertices,
    # the rests the scan once handed to the cotree
    for g in cores:
        first = check_class(g).parts[0]
        assert len(g) - len(set(first).union(*(g.neighbors(v) for v in first))) > 4


def test_scans_match_the_reference_search():
    # the path-growing cycle scan returns the reference search's canonical
    # cycle for every k, and the middle-edge 2P4 scan finds a 2P4 exactly
    # when one exists, with the same witness on the graph as on its twin core
    hits = {5: 0, 7: 0, 9: 0, "2p4": 0}
    total = 1500
    for i in range(total):
        n = 6 + i % 11
        p = (0.1, 0.2, 0.3, 0.45, 0.6, 0.75)[i % 6]
        g = erdos_renyi(n, p, split_seed(61, i))
        index = _index(g)
        for k in (5, 7, 9):
            got = find_induced_cycle(g, k, index)
            assert got == reference_induced_cycle(g, k), (i, k)
            hits[k] += got is not None
        found = find_induced_2p4(g, index)
        assert (found is not None) == naive_has_2p4(g), i
        if found is not None:
            core = twin_core(g)
            assert find_induced_2p4(core, _index(core)) == found, i
            hits["2p4"] += 1
    assert all(10 < h < total - 10 for h in hits.values()), hits
    # sparse graphs of 30 to 60 vertices, where the canonical C5 is often
    # rooted above the least vertex
    found = rooted_above = 0
    for i in range(60):
        g = erdos_renyi(30 + i % 31, (0.05, 0.08, 0.12)[i % 3], split_seed(62, i))
        got = find_induced_cycle(g, 5, _index(g))
        assert got == reference_induced_cycle(g, 5), i
        if got is not None:
            found += 1
            rooted_above += got[0] > min(g.vertices())
    assert 40 < found < 60 and rooted_above > 10, (found, rooted_above)


def odd_transversal(g):
    """The `_odd_transversal` of all of g, as a set of ids."""
    order, nbr, keep = patterns._index(g)
    trans = patterns._odd_transversal(nbr, keep)
    return {v for i, v in enumerate(order) if trans >> i & 1}


def test_odd_transversal():
    assert odd_transversal(cycle_graph(4)) == set()
    # layers {0}, {1, 4}, {2, 3}: the edge 2-3 lies in one layer
    c5 = Graph.from_edges(range(5), [(i, (i + 1) % 5) for i in range(5)])
    assert odd_transversal(c5) == {2}
    k4 = Graph.from_edges(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert odd_transversal(k4) == {1, 2}
    two = Graph.from_edges(range(8), [(i, (i + 1) % 5) for i in range(5)]
                           + [(5, 6), (6, 7), (5, 7)])
    assert odd_transversal(two) == {2, 6}
    # bits are ranks, not ids: sparse and negative ids give the image of T
    image = dict(zip(range(8), (-5, 3, 40, 10**6, 10**9, 10**9 + 1, 10**9 + 7, 2 * 10**9)))
    moved = Graph.from_edges(image.values(), ((image[u], image[w]) for u, w in two.edges()))
    assert odd_transversal(moved) == {image[2], image[6]}


def test_odd_transversal_leaves_a_bipartite_graph():
    # T is the set of vertices with a larger neighbour in their own BFS
    # layer, searched from each component's least vertex; it is empty
    # exactly when the graph is bipartite, and does not depend on the order
    # in which the adjacency sets were filled
    sizes = set()
    for i in range(300):
        g = erdos_renyi(4 + i % 17, (0.08, 0.15, 0.3, 0.5)[i % 4], split_seed(31, i))
        trans = odd_transversal(g)
        assert (not trans) == (bipartition(g) is not None), i
        assert bipartition(g, within=set(g.vertices()) - trans) is not None, i
        depth = {}
        for start in g.vertices():
            if start in depth:
                continue
            depth[start] = 0
            layer = [start]
            while layer:
                nxt = sorted({w for u in layer for w in g.neighbors(u)} - set(depth))
                for w in nxt:
                    depth[w] = depth[layer[0]] + 1
                layer = nxt
        want = {u for u in g.vertices()
                if any(w > u and depth[w] == depth[u] for w in g.neighbors(u))}
        assert trans == want, i
        backwards = Graph.from_edges(sorted(g.vertices(), reverse=True),
                                     sorted(g.edges(), reverse=True))
        assert odd_transversal(backwards) == trans, i
        sizes.add(min(len(trans), 3))
    assert sizes == {0, 1, 2, 3}


def test_reach_matches_the_components_of_a_set_search():
    # `_reach(nbr, seeds, within)` is the union of the components of the
    # subgraph that within induces that hold a seed: the set search of
    # `connected_components` gives the same, on the whole index and on a
    # cut of it
    shapes = {"none": 0, "part": 0, "all": 0}
    for i in range(300):
        # one stream per graph, so no shift of i repeats another's
        rng = Random(split_seed(79, 1, i))
        g = erdos_renyi(4 + i % 25, (0.04, 0.08, 0.15, 0.3)[i % 4], rng.getrandbits(64))
        index = patterns._index(g)
        n = len(index[0])
        cut = patterns._cut(index, rng.getrandbits(n) | 1 << rng.randrange(n))
        for order, nbr, keep in (index, cut):
            within = keep & rng.getrandbits(len(order))
            seeds = within & rng.getrandbits(len(order)) & rng.getrandbits(len(order))

            def ids(mask):
                return {v for j, v in enumerate(order) if mask >> j & 1}

            got = patterns._reach(nbr, seeds, within)
            comps = connected_components(g, within=ids(within))
            assert ids(got) == set().union(*(c for c in comps if c & ids(seeds))), i
            shapes["none" if not seeds else "all" if got == within else "part"] += 1
    assert min(shapes.values()) > 50, shapes


def shuffled_union(members, rng):
    """The disjoint union of the members on the ids 1..n, shuffled across
    the members, and vertices and edges inserted in a random order."""
    ids = list(range(1, sum(map(len, members)) + 1))
    rng.shuffle(ids)
    image, edges = {}, []
    for j, h in enumerate(members):
        image[j] = {v: ids.pop() for v in h.vertices()}
        edges += [(image[j][u], image[j][w]) for u, w in h.edges()]
    verts = [v for m in image.values() for v in m.values()]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return Graph.from_edges(verts, edges)


def test_the_class_check_of_components_matches_the_whole_core():
    # `check_components` on the twin cuts of every component, of which it
    # drops those that keep fewer than two vertices, gives the witness of
    # `check_class`, its scans on one index of the whole twin core, the
    # reference; a class-checked `solve` raises that witness too.  The
    # inputs are unions of 2-5 random graphs of 1-9 vertices, ids shuffled
    # across them.  Many unions hold a C5, and many a 2P4 whose parts lie
    # in two components, which no one component's scan finds
    shapes = {"c5": 0, "2p4 across": 0}
    for i in range(2400):
        rng = Random(split_seed(83, i))
        members = [erdos_renyi(rng.randint(1, 9), rng.choice((0.3, 0.45, 0.6)),
                               rng.getrandbits(64)) for _ in range(rng.randint(2, 5))]
        g = shuffled_union(members, rng)
        cuts = [patterns._twin_cut(patterns._index(g, comp)) for comp in connected_components(g)]
        got = check_components(g, cuts)
        assert got == check_class(g), i
        try:
            solve(g)
            raised = None
        except ClassViolationError as exc:
            raised = exc.witness
        assert raised == got, i
        if got is not None and got.kind == "c5":
            shapes["c5"] += 1
        elif got is not None and sum(cut[2] & cut[2] - 1 > 0 for cut in cuts) > 1:
            shapes["2p4 across"] += 1
    assert min(shapes.values()) > 300, shapes


def test_twin_cut_keeps_the_vertices_of_the_twin_core(monkeypatch):
    # `_twin_cut` keeps on the masks the vertices that `graph.twin_core`, the
    # reference, keeps: on random graphs with false and true twins added and
    # isolated vertices among them, on the masks of a random vertex set
    # (`_index(g, within)`), on that set cut out of the whole index, and on
    # threshold graphs, whose twin pairs form one pass at a time.  Both
    # first passes must read every vertex: a second pass that read only
    # the vertices of a representative's degree misses twins the input had
    passes = []
    real = patterns._twin_pass

    def counted(*args):
        passes[-1] += 1
        return real(*args)

    monkeypatch.setattr(patterns, "_twin_pass", counted)

    def kept(index):
        passes.append(0)
        order, _, keep = patterns._twin_cut(index)
        return {v for i, v in enumerate(order) if keep >> i & 1}

    for i in range(600):
        rng = Random(split_seed(80, 1, i))
        g = erdos_renyi(rng.randint(1, 18), rng.choice((0.05, 0.2, 0.5, 0.8)), rng.getrandbits(64))
        for _ in range(rng.randrange(5)):
            v = rng.choice(g.vertices())
            u = g.add_vertex()
            # a false twin of v, or a true one
            for w in g.neighbors(v) | ({v} if rng.random() < 0.5 else set()):
                g.add_edge(u, w)
        assert kept(patterns._index(g)) == set(twin_core(g).vertices()), i
        within = {v for v in g.vertices() if rng.random() < 0.7}
        want = set(twin_core(induced_subgraph(g, within)).vertices())
        assert kept(patterns._index(g, within)) == want, i
        index = patterns._index(g)
        keep = sum(1 << j for j, v in enumerate(index[0]) if v in within)
        assert kept(patterns._cut(index, keep)) == want, i
    # every input takes the two full passes, and the degree-keyed ones ran
    assert min(passes) == 2 and sum(n > 3 for n in passes) > 50
    for n in (3, 10, 40, 120):
        g = testkit.threshold_graph(n)
        passes.clear()
        assert kept(patterns._index(g)) == set(twin_core(g).vertices()) == {1}, n
        assert passes[0] >= n - 1, n


def test_c5_decision_from_one_vertex_finds_the_c5s_through_it():
    # `testkit.thicken` hands `_has_c5` the mask of one vertex t to ask
    # whether an induced C5 runs through t; brute force over the 5-sets
    # that hold t gives the same answer
    hits = {True: 0, False: 0}
    for i in range(300):
        g = erdos_renyi(8 + i % 9, (0.15, 0.25, 0.35, 0.5)[i % 4], split_seed(77, i))
        t = Random(split_seed(78, i)).choice(g.vertices())
        order, nbr, _ = patterns._index(g)
        got = patterns._has_c5(nbr, 1 << order.index(t))
        others = [v for v in g.vertices() if v != t]
        want = False
        for rest in combinations(others, 4):
            # two neighbours each inside a 5-set: a 2-regular graph on five
            # vertices, so an induced C5
            sub = {t, *rest}
            if all(len(g.neighbors(v) & sub) == 2 for v in sub):
                want = True
                break
        assert got == want, i
        hits[got] += 1
    assert min(hits.values()) > 30, hits


def test_bipartite_core_skips_the_c5_scan(monkeypatch):
    # a bipartite graph has no odd cycle: an odd-length search on its masks
    # finds an empty transversal, and runs no C5 decision and grows no root
    work = []
    for name in ("_index", "_has_c5", "_find_long_cycle"):
        real = getattr(patterns, name)
        monkeypatch.setattr(patterns, name,
                            lambda *args, _real=real, _name=name: work.append(_name) or _real(*args))
    for g in (testkit.crown_graph(6), cycle_graph(10), path_graph(9)):
        core = twin_core(g)
        index = patterns._index(core)
        assert all(find_induced_cycle(core, k, index) is None for k in (5, 7, 9))
        # check_class builds one index, which its C5 and 2P4 scans share
        check_class(core)
        assert work == ["_index"] * 2
        work.clear()
    g = cycle_graph(5)
    assert check_class(g).kind == "c5"
    assert work == ["_index", "_has_c5", "_find_long_cycle"]


def test_a_cut_of_a_wider_index_checks_the_core(monkeypatch):
    # check_components on a lone index, the core cut out of a wider index,
    # the whole input's or its false-twin quotient's, as solve passes it,
    # gives the witness or None of `check_class`, which reads the core's
    # own index.  Inputs, each with twins added
    # on shuffled ids so that the cut keeps fewer vertices than its index:
    # refutation blowups and S_n³ (in class), co-bipartite graphs (two
    # cliques, so no scan runs on the cut either, even when few edges cross
    # between them and the core's edges are near the n(n - 2)/4 that the
    # test asks of its n vertices) and random graphs whose witness is a C5
    # or a 2P4
    calls = []
    for name in ("find_induced_cycle", "find_induced_2p4"):
        real = getattr(patterns, name)
        monkeypatch.setattr(patterns, name,
                            lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    rng = Random(48)
    inputs = [("in", testkit.cycle_blowup([2 if i in cl else rng.choice((1, 2, 3))
                                           for i in range(k)], cliques=cl))
              for k, cl in ((7, (0, 2, 4)), (9, (0, 2, 4, 6))) for _ in range(4)]
    inputs += [("in", testkit.crown_plus(n)) for n in (4, 8, 20)]
    inputs += [("two_cliques", testkit.co_bipartite(n, p, seed))
               for n, p, seed in ((12, 0.3, 1), (30, 0.5, 2), (60, 0.3, 3), (30, 0.9, 4))]
    random = [erdos_renyi(12 + i % 5, (0.1, 0.2)[i % 2], split_seed(48, i)) for i in range(60)]
    inputs += [("out", g) for g in random if check_class(g) is not None]
    kinds = {"in": 0, "two_cliques": 0, "c5": 0, "2p4": 0}
    for family, g in inputs:
        wide = g.copy()
        for _ in range(1 + rng.randrange(3)):
            v = rng.choice(wide.vertices())
            u = wide.add_vertex()
            # a false twin of v, or a true one
            for w in wide.neighbors(v) | ({v} if rng.random() < 0.5 else set()):
                wide.add_edge(u, w)
        wide = relabeled(wide, rng.randrange(1 << 30))
        core = twin_core(wide)
        calls.clear()
        want = check_class(wide)
        scans = calls[:]
        copies = false_twins(wide)
        quotient = induced_subgraph(wide, [v for v in wide.vertices() if v not in copies])
        for h in (wide, quotient):
            index = patterns._index(h)
            keep = sum(1 << i for i, v in enumerate(index[0]) if core.has_vertex(v))
            assert h is quotient or keep != index[2]
            calls.clear()
            assert check_components(core, [patterns._cut(index, keep)]) == want, family
            assert calls == scans
        if family == "out":
            assert want is not None
            kinds[want.kind] += 1
        else:
            assert want is None
            kinds[family] += 1
            assert (scans == []) == (family == "two_cliques")
    assert all(n >= 3 for n in kinds.values()), kinds


def complement(g):
    """The complement of g, on g's ids."""
    return Graph.from_edges(g.vertices(), [(u, w) for u, w in combinations(g.vertices(), 2)
                                           if not g.has_edge(u, w)])


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
            got = find_induced_cycle(g, k, _index(g))
            assert got == reference_induced_cycle(g, k), (i, k)
            found += got is not None
            if k == 5:
                # the decision alone, which a false "yes" would only slow
                order, nbr, keep = patterns._index(g)
                trans = patterns._odd_transversal(nbr, keep)
                assert patterns._has_c5(nbr, trans) == (got is not None), i
        in_class = naive_in_class(g)
        assert (check_class(g) is None) == in_class, i
        big_t = trans.bit_count() >= 2
        two_cliques = bipartition(complement(g)) is not None
        if two_cliques:
            # the edge count check_components tests before the search
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
    def check(g):
        return check_components(g, [_index(g)])

    # two disjoint cliques hold exactly the n(n - 2)/4 edges that
    # check_components asks for before it searches the complement
    for a, b in ((5, 5), (5, 4), (1, 1), (1, 0)):
        sides = (range(1, a + 1), range(a + 1, a + b + 1))
        g = Graph.from_edges(range(1, a + b + 1),
                             [(u, w) for side in sides for u in side for w in side if u < w])
        assert check(g) is None
    assert calls == []
    g = testkit.co_bipartite(60, 0.3, 3)
    assert check(g) is None
    assert calls == []
    # one missing edge inside a side leaves the complement with a triangle
    # (the missing pair and a vertex of the other side that sees neither
    # one), so the scans run, the C5 scan first
    side = range(1, 31)
    u, w = next((u, w) for u in side for w in side if u < w
                and any(not g.has_edge(u, x) and not g.has_edge(w, x) for x in range(31, 61)))
    g.neighbors(u).discard(w)
    g.neighbors(w).discard(u)
    check(g)
    assert calls[:1] == ["find_induced_cycle"]
    # the scans are skipped exactly when the complement is bipartite, by a
    # breadth-first reference on the complement itself
    skipped = 0
    for i in range(300):
        g = toggled_co_bipartite(i)
        calls.clear()
        check(g)
        two_cliques = bipartition(complement(g)) is not None
        assert (calls == []) == two_cliques, i
        skipped += two_cliques
    assert 50 < skipped < 250, skipped


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
        got = find_co_c7(g, _index(g))
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
            got = find_induced_cycle(core, k, _index(core))
            assert got == find_induced_cycle(g, k, _index(g)), (i, k)
            hits[f"c{k}"] += got is not None
        full_2p4, core_2p4 = find_induced_2p4(g, _index(g)), find_induced_2p4(core, _index(core))
        has_2p4 = naive_has_2p4(g)
        assert (core_2p4 is not None) == (full_2p4 is not None) == has_2p4, i
        if has_2p4:
            assert core_2p4.parts[0] == full_2p4.parts[0], i
        in_class = not naive_has_cycle(g, 5) and not has_2p4
        assert (check_class(g) is None) == in_class, i
        co_c7 = naive_has_co_c7(g)
        assert (find_co_c7(core, _index(core)) is not None) == co_c7, i
        hits["2p4"] += has_2p4
        hits["co_c7"] += co_c7
        hits["in_class"] += in_class
    assert all(10 < h < total - 10 for h in hits.values()), hits


def test_k4_detection_against_naive():
    for i in range(80):
        g = erdos_renyi(7, 0.5, split_seed(13, i))
        w = find_nonbipartite_neighborhood(g, _index(g))
        if naive_has_k4(g):
            assert w is not None and w.kind == "k4"


def test_pattern_witness_vertices():
    w = PatternWitness("2p4", ((0, 1, 2, 3), (4, 5, 6, 7)))
    assert w.vertices() == [0, 1, 2, 3, 4, 5, 6, 7]


def test_pattern_witness_is_an_immutable_value():
    w = PatternWitness(kind="c5", parts=((1, 2, 3, 4, 5),))
    assert repr(w) == "PatternWitness(kind='c5', parts=((1, 2, 3, 4, 5),))"
    assert w == PatternWitness("c5", ((1, 2, 3, 4, 5),))
    assert w != PatternWitness("c5", ((1, 2, 3, 5, 4),))
    assert hash(w) == hash(PatternWitness("c5", ((1, 2, 3, 4, 5),)))
    assert len({w, PatternWitness("c5", ((1, 2, 3, 4, 5),))}) == 1
    with pytest.raises(AttributeError):
        w.kind = "c7"
