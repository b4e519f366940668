"""Cotree construction and list 3-coloring of P4-free graphs.

The coloring routine takes a cotree that `cotree_or_failure` built, so a
caller that colors one vertex set several times builds its cotree once.
It works on "achievable color sets": for a cotree node, the family of
exact color sets that some proper palette-respecting coloring of its
leaves uses.  With 3 colors every table has at most 7 entries, so the
dynamic program is linear in the cotree size.  The rule is to check the
answer, not each step: the coloring is proper by construction, and
`solver` verifies every witness on the whole input.

`cotree_or_failure` builds a cotree on the rank masks of `patterns._index`,
one walk of a part's masks per level.  Cotrees of threshold-like graphs are
about as deep as the graph is large, so a threshold graph costs quadratic
time, and every walk over a cotree runs on an explicit stack, never by
recursion.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import patterns
from .graph import Graph

LEAF = "leaf"
UNION = "union"
JOIN = "join"

ColorSet = frozenset


class Cotree:
    __slots__ = ("kind", "vertex", "children")

    def __init__(self) -> None:
        # cotree_or_failure fills a node in once it has split its vertex set
        self.kind = LEAF
        self.vertex: int | None = None
        self.children: list[Cotree] = []

    def nodes(self) -> list["Cotree"]:
        """Every node of the subtree in depth-first preorder."""
        out: list[Cotree] = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def leaves(self) -> list[int]:
        return [node.vertex for node in self.nodes() if node.kind == LEAF]


def cotree_or_failure(g: Graph, within: Iterable[int] | None = None):
    """The cotree of g, or of its subgraph on within, or None when that
    holds an induced P4 (or is empty).

    It splits each part on the rank masks of `patterns._index` with
    `patterns._reach`: into its components, the children of a union node,
    or, when it is connected, into the components of its complement, those
    of a join node.  A part connected both ways holds an induced P4.
    Children come in ascending order of least vertex.  A level is one walk
    of its part's masks, so a deep cotree, a threshold graph's, costs
    quadratic time: 0.02, 0.08 and 0.36 s at 300, 600 and 1,200 vertices
    (thread time on a shared 2-core x86-64 machine).
    """
    order, nbr, full = patterns._index(g, within)
    if not full:
        return None
    co = [full ^ m ^ 1 << i for i, m in enumerate(nbr)]
    root = Cotree()
    stack = [(root, full)]
    while stack:
        node, part = stack.pop()
        if not part & part - 1:
            node.vertex = order[part.bit_length() - 1]
            continue
        for kind, masks in ((UNION, nbr), (JOIN, co)):
            parts, rest = [], part
            while rest:
                parts.append(patterns._reach(masks, rest & -rest, rest))
                rest ^= parts[-1]
            if len(parts) > 1:
                break
        else:
            return None
        node.kind = kind
        node.children = [Cotree() for _ in parts]
        stack.extend(zip(reversed(node.children), reversed(parts)))
    return root


def _set_key(s: ColorSet) -> tuple:
    return (len(s), tuple(sorted(s)))


def _color_tables(root: Cotree, palettes: Mapping[int, frozenset]) -> dict:
    """Node -> {achievable color set: tuple of per-child color set choices}.

    Children come before their parent in reversed preorder.
    """
    tables: dict = {}
    for node in reversed(root.nodes()):
        if node.kind == LEAF:
            tables[node] = {frozenset((c,)): None for c in palettes[node.vertex]}
            continue
        first, *rest = node.children
        acc = {s: (s,) for s in tables[first]}
        for child in rest:
            child_sets = sorted(tables[child], key=_set_key)
            nxt: dict = {}
            for s_acc in sorted(acc, key=_set_key):
                for s_child in child_sets:
                    if node.kind == JOIN and s_acc & s_child:
                        continue
                    merged = s_acc | s_child
                    if merged not in nxt:
                        nxt[merged] = acc[s_acc] + (s_child,)
            acc = nxt
        tables[node] = acc
    return tables


def list3color(root: Cotree, palettes: Mapping[int, frozenset]) -> dict | None:
    """A proper palette-respecting coloring of the leaves of root, or None.

    root is the cotree of a vertex set, as `cotree_or_failure` built it;
    holding one already means the set is P4-free.  Every caller passes a
    palette for each leaf.  Adjacent leaves meet at a join, whose children
    take disjoint color sets, so the coloring is proper.
    """
    tables = _color_tables(root, palettes)
    if not tables[root]:
        return None
    coloring: dict = {}
    stack = [(root, min(tables[root], key=_set_key))]
    while stack:
        node, target = stack.pop()
        if node.kind == LEAF:
            (coloring[node.vertex],) = target
        else:
            stack.extend(reversed(list(zip(node.children, tables[node][target]))))
    return coloring
