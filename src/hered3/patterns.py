"""Detectors for the induced subgraphs that drive the case analysis.

Every finder returns vertex tuples in a deterministic order (ascending
scan with canonical tie-breaking) and self-verifies its witness before
returning it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cograph
from .errors import ClassViolationError
from .graph import Graph, shortest_odd_cycle


@dataclass(frozen=True)
class PatternWitness:
    """An induced forbidden pattern: kind plus one vertex tuple per part."""

    kind: str
    parts: tuple

    def vertices(self) -> list[int]:
        return [v for part in self.parts for v in part]


def _verify_path(g: Graph, path) -> None:
    k = len(path)
    for i in range(k):
        for j in range(i + 1, k):
            want = j == i + 1
            if g.has_edge(path[i], path[j]) != want:
                raise AssertionError(f"bad path witness {path}")


def _verify_cycle(g: Graph, cyc) -> None:
    k = len(cyc)
    for i in range(k):
        for j in range(i + 1, k):
            want = (j - i) % k in (1, k - 1)
            if g.has_edge(cyc[i], cyc[j]) != want:
                raise AssertionError(f"bad cycle witness {cyc}")


def iter_induced_p4s(g: Graph, within=None):
    """All induced P4s as canonical tuples (a,b,c,d) with a < d, lex order."""
    verts = g.vertices() if within is None else sorted(within)
    vset = set(verts)
    for a in verts:
        na = g.neighbors(a)
        for b in sorted(na & vset):
            for c in sorted(g.neighbors(b) & vset):
                if c == a or c in na:
                    continue
                for d in sorted(g.neighbors(c) & vset):
                    if d <= a or d == b or d in na or g.has_edge(b, d):
                        continue
                    yield (a, b, c, d)


def find_induced_p4(g: Graph, within=None):
    """Lexicographically least induced 4-vertex path (a,b,c,d), a < d."""
    path = next(iter_induced_p4s(g, within), None)
    if path is not None:
        _verify_path(g, path)
    return path


def find_induced_2p4(g: Graph):
    """Two induced P4s with no edges between them, or None.

    Scans induced P4s in canonical order; for each, the second path is
    sought outside the closed neighborhood of the first, which guarantees
    there are no connecting edges.
    """
    if g.vertex_count() < 8:
        return None
    for first in iter_induced_p4s(g):
        banned = set(first)
        for v in first:
            banned |= g.neighbors(v)
        rest = [v for v in g.vertices() if v not in banned]
        if len(rest) < 4:
            continue
        root, bad = cograph.cotree_or_failure(g, rest)
        if bad is None:
            continue
        second = find_induced_p4(g, within=bad)
        if second is None:
            raise AssertionError("non-cograph set without a P4")
        for u in first:
            for w in second:
                if g.has_edge(u, w):
                    raise AssertionError("2P4 parts touch")
        return PatternWitness("2p4", (first, second))
    return None


def find_induced_cycle(g: Graph, k: int):
    """First induced k-cycle in canonical order, or None.

    Canonical form: the cycle's smallest vertex first, second-smallest
    neighbor direction fixed by v1 < v_{k-1}.
    """
    if k < 4:
        raise ValueError("use explicit triangle checks for k=3")

    def extend(path):
        i = len(path)
        v0 = path[0]
        last = path[-1]
        closing = i == k - 1
        # chordlessness: internal vertices avoid v0 and everything before
        # the previous one; the closing vertex must reach back to v0.
        lo = 1 if closing else 0
        for cand in g.sorted_neighbors(last):
            if cand <= v0 or cand in path:
                continue
            if any(g.has_edge(cand, path[j]) for j in range(lo, i - 1)):
                continue
            if closing:
                if cand < path[1] or not g.has_edge(cand, v0):
                    continue
                return tuple(path) + (cand,)
            got = extend(path + [cand])
            if got is not None:
                return got
        return None

    for v0 in g.vertices():
        got = extend([v0])
        if got is not None:
            _verify_cycle(g, got)
            return got
    return None


def find_co_c7(g: Graph):
    """An induced complement-of-C7, as the complement cycle order, or None.

    Searches directly in g: u_i must be adjacent to u_0..u_{i-2} and
    non-adjacent to u_{i-1}; the last vertex must additionally avoid u_0.
    """
    verts = g.vertices()
    for u0 in verts:
        n0 = g.neighbors(u0)
        non0 = [v for v in verts if v > u0 and v not in n0]
        for u1 in non0:
            got = _co_c7_extend(g, [u0, u1], g.neighbors(u0))
            if got is not None:
                _verify_cocycle7(g, got)
                return got
    return None


def _co_c7_extend(g: Graph, seq, inter):
    # inter = common neighborhood of seq[:-1]
    i = len(seq)
    u0 = seq[0]
    if i == 6:
        pool = g.neighbors(seq[1])
        for u in seq[2:5]:
            pool = pool & g.neighbors(u)
        cands = [v for v in sorted(pool)
                 if v > u0 and v > seq[1] and v not in seq
                 and not g.has_edge(v, seq[5]) and not g.has_edge(v, u0)]
        if cands:
            return tuple(seq + [cands[0]])
        return None
    prev = seq[-1]
    for cand in sorted(inter):
        if cand <= u0 or cand in seq or g.has_edge(cand, prev):
            continue
        got = _co_c7_extend(g, seq + [cand], inter & g.neighbors(prev))
        if got is not None:
            return got
    return None


def _verify_cocycle7(g: Graph, seq) -> None:
    for i in range(7):
        for j in range(i + 1, 7):
            gap = (j - i) % 7
            want = gap not in (1, 6)
            if g.has_edge(seq[i], seq[j]) != want:
                raise AssertionError(f"bad co-C7 witness {seq}")


def find_nonbipartite_neighborhood(g: Graph):
    """First vertex (ascending) whose neighborhood holds an odd cycle.

    Returns a PatternWitness: kind k4 for a triangle in the neighborhood,
    c5/c7/c9 for longer odd holes (a shortest odd cycle is chordless, and
    chordless within an induced neighborhood means induced in g).  An odd
    hole of length >= 11 in a neighborhood proves the graph is outside the
    class, so that case raises ClassViolationError with a 2P4 witness cut
    from the cycle.
    """
    for v in g.vertices():
        cyc = shortest_odd_cycle(g, within=g.neighbors(v))
        if cyc is None:
            continue
        if len(cyc) == 3:
            part = tuple([v] + sorted(cyc))
            w = PatternWitness("k4", (part,))
            for a in part:
                for b in part:
                    if a < b and not g.has_edge(a, b):
                        raise AssertionError(f"bad k4 witness {part}")
            return w
        _verify_cycle(g, cyc)
        if len(cyc) <= 9:
            return PatternWitness({5: "c5", 7: "c7", 9: "c9"}[len(cyc)], (tuple(cyc),))
        first = tuple(cyc[0:4])
        second = tuple(cyc[5:9])
        witness = PatternWitness("2p4", (first, second))
        _verify_path(g, first)
        _verify_path(g, second)
        raise ClassViolationError(witness)
    return None


def check_class(g: Graph):
    """A witness that g is outside the (2P4,C5)-free class, or None."""
    c5 = find_induced_cycle(g, 5)
    if c5 is not None:
        return PatternWitness("c5", (c5,))
    return find_induced_2p4(g)
