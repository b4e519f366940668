"""Cotree construction and list 3-coloring of P4-free graphs.

The coloring routine takes a cotree that `cotree_or_failure` built, so a
caller that colors one vertex set several times builds its cotree once.
It works on "achievable color sets": for a cotree node, the family of
exact color sets that some proper palette-respecting coloring of its
leaves uses.  With 3 colors every table has at most 7 entries, so the
dynamic program is linear in the cotree size.  The rule is to check the
answer, not each step: the coloring is proper by construction, and
`solver` verifies every witness on the whole input.

Cotrees of threshold-like graphs are about as deep as the graph is large,
so every walk over a cotree runs on an explicit stack, never by recursion.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .graph import Graph, complement_components, connected_components

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
    """Build the cotree, or report failure without extracting a witness.

    Returns (root, None) for a cograph and (None, bad_set) otherwise, where
    bad_set is a vertex set that is connected in both the graph and its
    complement (hence contains an induced P4): the first such set in
    depth-first order.  Witness extraction is left to the caller.

    Each cotree level reruns the component searches over the part that is
    still unsplit, so the cost is O(n + m) per level: a deep cotree, such
    as a threshold graph's, costs about n * m in all.
    """
    verts = set(g.vertices()) if within is None else set(within)
    if not verts:
        return None, None
    root = Cotree()
    stack = [(root, verts)]
    while stack:
        node, part = stack.pop()
        if len(part) == 1:
            (node.vertex,) = part
            continue
        node.kind = UNION
        parts = connected_components(g, within=part)
        if len(parts) == 1:
            node.kind = JOIN
            parts = complement_components(g, within=part)
            if len(parts) == 1:
                return None, frozenset(part)
        node.children = [Cotree() for _ in parts]
        stack.extend(zip(reversed(node.children), reversed(parts)))
    return root, None


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
