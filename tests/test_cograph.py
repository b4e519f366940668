"""Cotree recognition and palette-respecting 3-coloring of cographs."""

import sys
import time
from pathlib import Path
from random import Random

import pytest

from hered3 import cograph
from hered3.errors import InputError
from hered3.graph import Graph, connected_components, induced_subgraph
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
    return cograph.cotree_or_failure(g, within) is not None


def color(g, palettes, within=None):
    """list3color on the cotree of g, or of its subgraph on within."""
    return cograph.list3color(cograph.cotree_or_failure(g, within), palettes)


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
    root = cograph.cotree_or_failure(cycle_graph(4))
    assert sorted(root.leaves()) == [1, 2, 3, 4]
    assert cograph.cotree_or_failure(path_graph(4)) is None
    # a vertex missing from the graph is an input error, not a failure
    with pytest.raises(InputError):
        cograph.cotree_or_failure(path_graph(4), [1, 2, 9])


def test_cotree_on_random_cographs():
    for i in range(40):
        g = random_cograph(split_seed(32, i))
        root = cograph.cotree_or_failure(g)
        assert sorted(root.leaves()) == g.vertices()


def leaf_sets(root):
    """Node -> the set of its leaves, children before parents."""
    below = {}
    for node in reversed(root.nodes()):
        below[node] = ({node.vertex} if node.kind == "leaf"
                       else set().union(*(below[c] for c in node.children)))
    return below


def shape(root):
    """The nodes of a cotree in preorder: kind, vertex and child count."""
    return [(node.kind, node.vertex, len(node.children)) for node in root.nodes()]


def split_matches_components(g, within, root):
    """Whether root, the cotree of within, is a union, and if so, whether
    its children are the cotrees of within's components built alone, node
    by node and in order: `solver._analyze` splits its outer set so."""
    if root.kind != cograph.UNION:
        return False
    alone = [shape(cograph.cotree_or_failure(g, c)) for c in connected_components(g, within)]
    assert [shape(kid) for kid in root.children] == alone
    return True


def test_cotree_shape_on_random_vertex_sets():
    # a root exactly when the subset is P4-free; its leaves are the subset;
    # two leaves are adjacent exactly when their lowest common ancestor, the
    # node where they part, is a join; no node has a child of its own kind;
    # children come in ascending order of least leaf; and a union's
    # children are its components' cotrees.  Random sets of sparse graphs
    # add P4-free sets of many components
    rng = Random(4545)
    graphs = [erdos_renyi(16, p, split_seed(45, i)) for i, p in enumerate((0.2, 0.4, 0.6, 0.8))]
    graphs += [random_cograph(split_seed(46, i), size=16) for i in range(4)]
    graphs.append(threshold_graph(40))
    roots = unions = 0
    for case in range(600):
        g = graphs[case % len(graphs)]
        within = rng.sample(g.vertices(), rng.randint(1, 10))
        root = cograph.cotree_or_failure(g, within)
        assert (root is None) == naive_has_p4(induced_subgraph(g, within))
        if root is None:
            continue
        roots += 1
        below = leaf_sets(root)
        assert len(root.leaves()) == len(within) and below[root] == set(within)
        for node in root.nodes():
            if node.kind == "leaf":
                continue
            kids = node.children
            assert len(kids) >= 2 and all(c.kind != node.kind for c in kids)
            least = [min(below[c]) for c in kids]
            assert least == sorted(least)
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    for u in below[a]:
                        assert all((w in g.neighbors(u)) == (node.kind == "join")
                                   for w in below[b])
        unions += split_matches_components(g, within, root)
    assert 200 < roots < 600
    sparse = [erdos_renyi(40, p, split_seed(47, i)) for i, p in enumerate((0.03, 0.06, 0.1))]
    for case in range(600):
        g = sparse[case % len(sparse)]
        within = rng.sample(g.vertices(), rng.randint(2, 24))
        root = cograph.cotree_or_failure(g, within)
        assert (root is None) == naive_has_p4(induced_subgraph(g, within))
        if root is not None:
            roots += 1
            unions += split_matches_components(g, within, root)
    assert unions > 400, (roots, unions)


def test_deep_cotree_time_grows_quadratically():
    # a threshold graph's cotree is as deep as the graph is large, and each
    # level walks the masks of what is left: doubling n should cost about
    # 4.3 times as much, where a component search over every level's whole
    # part costs n * m, about 8.6 times.  Best of 3 thread times, the two
    # sizes interleaved, so a busy machine slows both alike
    small, large = threshold_graph(300), threshold_graph(600)
    best = {300: float("inf"), 600: float("inf")}
    for _ in range(3):
        for n, g in ((300, small), (600, large)):
            start = time.thread_time()
            cograph.cotree_or_failure(g)
            best[n] = min(best[n], time.thread_time() - start)
    assert best[600] <= 6 * best[300], best


def test_list3color_trivial_cases():
    g = Graph()
    # an empty graph has no cotree, so there is nothing to color
    assert cograph.cotree_or_failure(g) is None
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
    root = cograph.cotree_or_failure(g)
    assert root.kind == "join"
    kinds = {child.kind for child in root.children}
    assert kinds == {"leaf"}


def test_deep_cotree_leaves_the_recursion_limit_alone():
    g = threshold_graph(300)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        root = cograph.cotree_or_failure(g)
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
