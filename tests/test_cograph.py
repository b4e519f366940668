"""Cotree recognition and palette-respecting 3-coloring of cographs."""

import sys
from pathlib import Path
from random import Random


from hered3 import cograph
from hered3.graph import Graph
from hered3.testkit import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    naive_has_p4,
    oracle_list3color,
    path_graph,
    split_seed,
    threshold_graph,
    verify_coloring,
)

FULL = frozenset((1, 2, 3))


def random_cograph(seed, size=8):
    """Grow a cograph by random unions and joins of smaller pieces."""
    rng = Random(seed)
    g = Graph()
    blocks = [[g.add_vertex()] for _ in range(size)]
    while len(blocks) > 1:
        a = blocks.pop(rng.randrange(len(blocks)))
        b = blocks.pop(rng.randrange(len(blocks)))
        if rng.random() < 0.5:
            for u in a:
                for w in b:
                    g.add_edge(u, w)
        blocks.append(a + b)
    return g


def p4_free(g, within=None):
    return cograph.cotree_or_failure(g, within)[1] is None


def color(g, palettes, within=None):
    """list3color on the cotree of g, or of its subgraph on within."""
    root, _ = cograph.cotree_or_failure(g, within)
    return cograph.list3color(root, palettes)


def test_is_p4_free():
    assert p4_free(cycle_graph(4))
    assert p4_free(complete_graph(5))
    assert not p4_free(path_graph(4))
    assert not p4_free(cycle_graph(5))
    assert p4_free(path_graph(5), within=[1, 2, 3])


def test_is_p4_free_matches_naive():
    for i in range(120):
        g = erdos_renyi(7, (0.3, 0.5, 0.7)[i % 3], split_seed(31, i))
        assert p4_free(g) == (not naive_has_p4(g))


def test_cotree_or_failure():
    root, bad = cograph.cotree_or_failure(cycle_graph(4))
    assert bad is None
    assert sorted(root.leaves()) == [1, 2, 3, 4]
    root, bad = cograph.cotree_or_failure(path_graph(4))
    assert root is None
    assert len(bad) >= 4


def test_cotree_on_random_cographs():
    for i in range(40):
        g = random_cograph(split_seed(32, i))
        root, bad = cograph.cotree_or_failure(g)
        assert bad is None
        assert sorted(root.leaves()) == g.vertices()


def test_list3color_trivial_cases():
    g = Graph()
    # an empty graph has no cotree, so there is nothing to color
    assert cograph.cotree_or_failure(g) == (None, None)
    v = g.add_vertex()
    got = color(g, {v: frozenset((2,))})
    assert got == {v: 2}
    assert color(g, {v: frozenset()}) is None


def test_list3color_triangle():
    g = complete_graph(3)
    got = color(g, {v: FULL for v in g.vertices()})
    assert verify_coloring(g, got)
    # pinning two corners to one color kills it
    pal = {1: frozenset((1,)), 2: frozenset((1,)), 3: FULL}
    assert color(g, pal) is None
    # list constraints flow: corner palettes {1,2},{2,3},{1,3} still work
    pal = {1: frozenset((1, 2)), 2: frozenset((2, 3)), 3: frozenset((1, 3))}
    got = color(g, pal)
    assert verify_coloring(g, got)
    assert all(got[v] in pal[v] for v in pal)


def test_list3color_within():
    g = path_graph(5)  # not a cograph, but its ends are
    pal = {1: frozenset((1,)), 5: frozenset((1,))}
    got = color(g, pal, within=[1, 5])
    assert got == {1: 1, 5: 1}


def test_list3color_against_oracle():
    rng = Random(1234)
    sat = unsat = 0
    for i in range(300):
        g = random_cograph(split_seed(33, i), size=6 + (i % 3))
        pal = {}
        for v in g.vertices():
            k = rng.randint(1, 3)
            pal[v] = frozenset(rng.sample((1, 2, 3), k))
        got = color(g, pal)
        want = oracle_list3color(g, {v: set(p) for v, p in pal.items()})
        assert (got is None) == (want is None), (list(g.edges()), pal)
        if got is None:
            unsat += 1
        else:
            sat += 1
            assert verify_coloring(g, got)
            assert all(got[v] in pal[v] for v in pal)
    assert sat > 50 and unsat > 50


def test_cotree_shape_smoke():
    # join of two singletons is one edge
    g = complete_graph(2)
    root, _ = cograph.cotree_or_failure(g)
    assert root.kind == "join"
    kinds = {child.kind for child in root.children}
    assert kinds == {"leaf"}


def test_deep_cotree_leaves_the_recursion_limit_alone():
    g = threshold_graph(300)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        root, bad = cograph.cotree_or_failure(g)
        assert bad is None
        depth, node = 0, root
        while node.kind != "leaf":
            node = max(node.children, key=lambda c: len(c.children))
            depth += 1
        assert depth == 299
        assert sorted(root.leaves()) == g.vertices()
        # the dominating vertices form a clique of 150
        assert cograph.list3color(root, {v: FULL for v in g.vertices()}) is None
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def test_library_never_sets_the_recursion_limit():
    src = Path(cograph.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert "setrecursionlimit" not in path.read_text(), path.name
