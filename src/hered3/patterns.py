"""Detectors for the induced subgraphs that drive the case analysis.

Every finder returns the canonical witness, the first hit of an ascending
scan with canonical tie-breaking, and self-verifies it before returning it.
Every cycle witness, the C5 of the class check, the C7 and C9 anchors and
the triangle or odd hole of the odd-neighbourhood check, comes from one
depth-first path grower.

Every search runs on one int bitmask per vertex, built by `_index`: bit
i stands for the vertex of rank i in ascending id order, so a mask
walked from its lowest bit gives its vertices in ascending order with no
sorting, and a set operation is one int operation.  Each finder takes its
caller's index: the masks of `_index` and a vertex set, which `_cut`
narrows.  It searches the subgraph that set induces, and as ranks follow
ids in every induced subgraph, it returns what it returns on that
subgraph built on its own.  Past `_index`, only the witness checks read
the adjacency sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import ClassViolationError
from .graph import Graph, twin_core


class PatternWitness(NamedTuple):
    """An induced forbidden pattern: kind plus one vertex tuple per part."""

    kind: str
    parts: tuple

    def vertices(self) -> list[int]:
        return [v for part in self.parts for v in part]


def _verify_induced(g: Graph, kind: str, seq, gaps) -> None:
    """Raise unless seq induces the pattern `kind` in g: the vertices at
    positions i < j are adjacent exactly when j - i is in gaps.  A path
    has gaps (1,), a k-cycle (1, k - 1), its complement the others, and
    a clique all of them."""
    for i, j in combinations(range(len(seq)), 2):
        if (seq[j] in g._adj[seq[i]]) != (j - i in gaps):
            raise AssertionError(f"bad {kind} witness {tuple(seq)}")


def _index(g: Graph, within=None):
    """(order, nbr, keep): the vertices of g in ascending order, for each
    its neighbourhood as an int, and the mask keep of the vertices a search
    reads, here all of them.  Bit i stands for the vertex of rank i in that
    order, so a mask has one bit per vertex whatever the ids are.

    The finders here take their caller's index, which `_cut` narrows, and
    build none; a vertex set, within, gives the index of the subgraph it
    induces.  Indexes are built where a graph enters a stage: `check_class`
    builds one of its twin core, `solver.solve` one per component of its
    quotient and one per component of its 3-core that is not a whole
    component of the quotient, and `cograph.cotree_or_failure` one per
    cotree.

    The scans below walk a mask from its lowest bit, inline: `low = m & -m`
    isolates that bit, `m ^= low` clears it and `low.bit_length() - 1` is
    its rank.  `m >> i + 1 << i + 1` keeps the bits of m above rank i."""
    adj = g._adj
    if within is not None:
        within = set(within)
        adj = {v: g.neighbors(v) & within for v in within}
    order = sorted(adj)
    bit = {v: 1 << i for i, v in enumerate(order)}
    nbr = []
    for v in order:
        m = 0
        for w in adj[v]:
            m |= bit[w]
        nbr.append(m)
    return order, nbr, (1 << len(order)) - 1


def _reach(nbr, seeds, within) -> int:
    """The vertices of the mask within joined to the mask seeds by a path
    inside within, seeds included; left holds those not reached yet."""
    front = seeds
    left = within & ~seeds
    while front:
        low = front & -front
        front ^= low
        grown = nbr[low.bit_length() - 1] & left
        left ^= grown
        front |= grown
    return seeds | within ^ left


def _cut(index, keep):
    """The index cut to the vertices of the mask keep, within its own, in
    the index's order: they keep their neighbours in keep, and any other
    vertex has none, so no scan takes it as a root."""
    order, nbr, whole = index
    if keep == whole:
        return index
    return order, [m & keep if keep >> i & 1 else 0 for i, m in enumerate(nbr)], keep


def _twin_cut(index):
    """The index cut (`_cut`) to the twin core of the graph it holds: the
    vertices that `graph.twin_core` keeps, found on the masks.

    A pass keys each vertex it reads by its neighbourhood within keep, an
    int: `nbr[i] & keep`, with the vertex's own bit for a closed one.  It
    deletes every vertex whose key a smaller rank has, so it keeps the least
    rank, and so the least id, of each class.  The kinds alternate, closed
    first, until a pass after the first deletes nothing; the core does not
    depend on the order of the deletions, so it is `twin_core`'s, which
    starts with open ones.  The first two passes read every vertex, since
    each may meet twins that were there from the start.  From the third on,
    every twin pair was made by the previous pass's deletions and holds one
    of its representatives (`graph.twin_core`), so a pass reads only the
    vertices of a representative's degree.

    Those are found on bit-sliced degree counters, built at the third pass:
    planes[k] is the mask of the vertices whose degree within keep has bit
    k set.  A deletion takes one off each of its neighbours' counts, with a
    borrow that ripples up the planes, and the vertices of degree d are one
    AND per plane.  So a threshold graph, which takes a pass per vertex,
    costs a few mask operations per pass, not one per vertex.
    """
    order, nbr, keep = index
    drop, _ = _twin_pass(nbr, keep, keep, True)
    keep ^= drop
    drop, reps = _twin_pass(nbr, keep, keep, False)
    closed = True
    planes = None
    while drop:
        keep ^= drop
        if planes is None:
            planes = _degree_planes(nbr, keep)
        else:
            while drop:
                low = drop & -drop
                drop ^= low
                borrow = nbr[low.bit_length() - 1] & keep
                for k, plane in enumerate(planes):
                    planes[k] = plane ^ borrow
                    borrow &= ~plane
                    if not borrow:
                        break
        keyed = 0
        for d in {(nbr[r] & keep).bit_count() for r in reps}:
            same = keep
            for k, plane in enumerate(planes):
                same &= plane if d >> k & 1 else ~plane
            keyed |= same
        drop, reps = _twin_pass(nbr, keep, keyed, closed)
        closed = not closed
    return _cut(index, keep)


def _twin_pass(nbr, keep, keyed, closed):
    """(drop, reps): the mask of the vertices of keyed whose neighbourhood
    within keep (closed, with `closed`) a smaller rank of keyed has, and the
    ranks of the least of each such class."""
    least: dict[int, int] = {}
    first = least.setdefault
    drop = 0
    reps = set()
    while keyed:
        low = keyed & -keyed
        keyed ^= low
        i = low.bit_length() - 1
        rep = first(nbr[i] & keep | low if closed else nbr[i] & keep, i)
        if rep != i:
            drop |= low
            reps.add(rep)
    return drop, reps


def _degree_planes(nbr, keep) -> list[int]:
    """The bit-sliced degrees of the vertices of keep within keep: bit k of
    a vertex's degree is its bit in the k-th mask."""
    planes: list[int] = []
    rest = keep
    while rest:
        low = rest & -rest
        rest ^= low
        d = (nbr[low.bit_length() - 1] & keep).bit_count()
        planes += [0] * (d.bit_length() - len(planes))
        for k in range(d.bit_length()):
            if d >> k & 1:
                planes[k] |= low
    return planes


def find_induced_2p4(g: Graph, index):
    """Two induced P4s with no edges between them, or None.

    A P4 a-b-c-d is scanned through its middle edge, b < c, as (b, c, a, d):
    a in N(b) - N[c], then d in N(c) - N[b] - N(a).  A 2P4 through it exists
    exactly when the rest, the vertices outside N[{a, b, c, d}], holds an
    induced P4, and the rest lies in X = V - N[b] - N[c] = V - N(b) - N(c),
    so an edge whose X has fewer than four vertices is skipped whole.
    The scan runs on the neighbourhood masks of `_index` and walks every
    mask from its lowest bit, so it meets the tuples in ascending
    (b, c, a, d) order and its first hit is the least.
    A rest of four vertices is tested for a P4 on its degrees; a larger
    rest by whether `_p4s` yields one, once per rest.  The hit, written so
    that a < d, is the first part; the second is the least P4 of its rest.
    """
    order, nbr, keep = index
    if keep.bit_count() < 8:
        return None
    found = _least_2p4_hit(nbr, keep)
    if found is None:
        return None
    (a, b, c, d), rest = found
    return _2p4_witness(g, tuple(order[i] for i in (a, b, c, d)),
                        tuple(order[i] for i in next(_p4s(nbr, rest), ())))


def _2p4_witness(g: Graph, first, second) -> PatternWitness:
    """The 2P4 witness of the P4 first = (a, b, c, d), written so that
    a < d, and the P4 second, verified on g."""
    if first[0] > first[3]:
        first = first[::-1]
    for part in (first, second):
        _verify_induced(g, "path", part, (1,))
    if len(second) != 4 or any(g._adj[u].intersection(second) for u in first):
        raise AssertionError(f"bad 2p4 witness {first} {second}")
    return PatternWitness("2p4", (first, second))


def _least_2p4_hit(nbr, full):
    """The first (b, c, a, d) of the scan that `find_induced_2p4` describes
    on the vertices of full, as ranks, with the mask of its rest.

    A rest lies in the start's far_a, which lies in the edge's far, and
    P4-containment is hereditary.  So before the first rest of five or
    more vertices that the memo has not seen, the edge's far, and then the
    start's far_a, is tested once through the same memo, and the edge or
    the start is skipped when its set holds no P4: a skipped rest holds no
    hit, so the first hit stays the first.  On a spider every rest is a
    set of disjoint edges, and the edge's far answers for all of them.
    """
    n = full.bit_count()
    seen: dict[int, bool] = {}   # mask -> whether it holds a P4

    def holds_p4(mask):
        hit = seen.get(mask)
        if hit is None:
            hit = seen[mask] = next(_p4s(nbr, mask), None) is not None
        return hit

    for b, nb in enumerate(nbr):
        cs = nb >> b + 1 << b + 1
        while cs:
            cbit = cs & -cs
            cs ^= cbit
            c = cbit.bit_length() - 1
            nc = nbr[c]
            near = nb | nc
            if near.bit_count() > n - 4:
                continue
            far = full & ~near
            far_p4 = None   # whether far holds a P4, once a rest asks
            ends = nc & ~nb & ~(1 << b)
            starts = nb & ~nc & ~cbit
            while starts:
                abit = starts & -starts
                starts ^= abit
                na = nbr[abit.bit_length() - 1]
                far_a = far & ~na
                if far_a.bit_count() < 4:
                    continue
                far_a_p4 = None
                ds = ends & ~na
                while ds:
                    dbit = ds & -ds
                    ds ^= dbit
                    rest = far_a & ~nbr[dbit.bit_length() - 1]
                    size = rest.bit_count()
                    if size == 4:
                        hit = _is_p4(nbr, rest)
                    elif size > 4:
                        if rest not in seen:
                            if far_p4 is None and not (far_p4 := holds_p4(far)):
                                starts = 0
                                break
                            if far_a_p4 is None and not (far_a_p4 := holds_p4(far_a)):
                                break
                        hit = holds_p4(rest)
                    else:
                        continue
                    if hit:
                        return (abit.bit_length() - 1, b, c, dbit.bit_length() - 1), rest
    return None


def _least_p4(nbr):
    """The first (b, c, a, d) of the scan that `find_induced_2p4` describes,
    as ranks, when every P4 is a hit: the least induced P4 a-b-c-d in that
    order, or None."""
    for b, nb in enumerate(nbr):
        cs = nb >> b + 1 << b + 1
        while cs:
            cbit = cs & -cs
            cs ^= cbit
            nc = nbr[cbit.bit_length() - 1]
            ends = nc & ~nb & ~(1 << b)
            starts = nb & ~nc & ~cbit
            while starts:
                abit = starts & -starts
                starts ^= abit
                ds = ends & ~nbr[abit.bit_length() - 1]
                if ds:
                    return (b, cbit.bit_length() - 1, abit.bit_length() - 1,
                            (ds & -ds).bit_length() - 1)
    return None


def _p4s(nbr, within):
    """The induced P4s (a, b, c, d) of the vertices of the mask within, as
    ranks with a < d, in lexicographic order: b in N(a), c in N(b) - N[a]
    and d in N(c) - N(a) - N(b) above a, each walked from its lowest bit."""
    rest = within
    while rest:
        abit = rest & -rest
        rest ^= abit
        a = abit.bit_length() - 1
        bs = na = nbr[a] & within
        # rest now holds the vertices above a
        far = rest & ~na
        while bs:
            b = (bs & -bs).bit_length() - 1
            bs ^= 1 << b
            nb = nbr[b] & within
            far_b = far & ~nb
            cs = nb & ~na & ~abit if far_b else 0
            while cs:
                c = (cs & -cs).bit_length() - 1
                cs ^= 1 << c
                ds = nbr[c] & far_b
                while ds:
                    dbit = ds & -ds
                    ds ^= dbit
                    yield a, b, c, dbit.bit_length() - 1


def _is_p4(nbr, quad) -> bool:
    """Whether the four vertices of the mask quad induce a P4: degrees
    1, 1, 2, 2 (the other graphs with three edges, a triangle plus a vertex
    and a star, have degrees 0, 2, 2, 2 and 1, 1, 1, 3)."""
    degrees = []
    q = quad
    while q:
        low = q & -q
        q ^= low
        degrees.append((nbr[low.bit_length() - 1] & quad).bit_count())
    degrees.sort()
    return degrees == [1, 1, 2, 2]


def find_induced_cycle(g: Graph, k: int, index):
    """First induced k-cycle in canonical order, or None, for odd k >= 5.

    Canonical form: the cycle's smallest vertex v0 first, then the
    lexicographically least (v1, ..., v_{k-1}) with v1 < v_{k-1}.

    The roots are bounded by the odd-cycle transversal T of
    `_odd_transversal`: g - T is bipartite, so every odd cycle meets T, and
    a cycle whose least vertex is v0 holds some t >= v0.  So the root loop
    stops once v0 > max(T), and an empty T (g bipartite) answers None with
    no C5 decision and no root grown.
    For k = 5 the decision `_has_c5` runs first; when it finds no C5, there
    is none, and otherwise the canonical scan runs.

    One path grower serves every k: from each root v0 it grows a path
    v0, v1, ... in ascending order.  A vertex may follow path[i - 1] when it
    avoids N(v0) and N[path[j]] for every 1 <= j <= i - 2; the last one
    must instead be a neighbour of v0 above v1.  Those closed
    neighbourhoods are kept as one blocked mask, grown by one OR per step,
    and the candidates come from the masks of `_index` lowest bit first.
    """
    if k < 5 or not k % 2:
        raise ValueError(f"find_induced_cycle takes an odd k of 5 or more, not {k}")
    order, nbr, keep = index
    got = _least_cycle(nbr, _odd_transversal(nbr, keep), k, keep)
    if got is None:
        return None
    got = tuple(order[i] for i in got)
    _verify_induced(g, "cycle", got, (1, k - 1))
    return got


def _least_cycle(nbr, trans, k, keep):
    """The canonical induced k-cycle on the masks nbr, as ranks, or None:
    the root loop of `find_induced_cycle`, over the vertices of keep up to
    max(trans).  Every k-cycle must hold a vertex of trans; an empty trans answers None,
    and for k = 5 `_has_c5` decides first.  k = 3 gives the least triangle.
    """
    if not trans or (k == 5 and not _has_c5(nbr, trans)):
        return None
    roots = keep & (1 << trans.bit_length()) - 1
    while roots:
        low = roots & -roots
        roots ^= low
        got = _find_long_cycle(nbr, low.bit_length() - 1, k)
        if got is not None:
            return got
    return None


def _odd_transversal(nbr, within) -> int:
    """An odd-cycle transversal T of the vertices of the mask `within`, as
    a mask; empty exactly when they induce a bipartite graph.

    A breadth-first search of each component, one layer at a time, from its
    least vertex.  An edge joins layers at most one apart, so coloring each
    vertex by the parity of its layer leaves monochromatic only the edges
    inside a layer.  T holds the smaller end of each of them: the vertices
    with a larger neighbour in their own layer.  So every odd cycle, induced
    or not, meets T.  The layers are fixed by the graph, so T does not
    depend on the order of set iteration.
    """
    trans = 0
    unseen = within
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        while layer:
            nxt = 0
            # once low is taken, rest holds the layer's vertices above it
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                nu = nbr[low.bit_length() - 1]
                if nu & rest:
                    trans |= low
                nxt |= nu
            layer = nxt & unseen
            unseen ^= layer
    return trans


def _has_c5(nbr, trans) -> bool:
    """Whether an induced C5 passes through a vertex of the mask trans;
    for an odd-cycle transversal T, whether there is any.

    A C5 is found from its least vertex t in trans, walked in ascending
    order: the vertices used as roots before t are all off the cycle.  From
    t, with R the vertices not yet used as roots and O = R - N[t], a C5
    t-a-x-y-b takes a non-adjacent pair a < b in N(t) & R, x in
    N(a) - N(b) and y in N(b) - N(a), both in O, and x ~ y.  For each a,
    the y in O - N(a) that see some x are kept once, so a pair (a, b)
    whose b sees none of them costs one AND with that small mask.
    """
    rest = (1 << len(nbr)) - 1
    while trans:
        tbit = trans & -trans
        trans ^= tbit
        rest ^= tbit
        nt = nbr[tbit.bit_length() - 1]
        up = nt & rest
        out = rest & ~nt
        while up:
            abit = up & -up
            up ^= abit
            na = nbr[abit.bit_length() - 1]
            bs = up & ~na
            xs = na & out
            if not bs or not xs:
                continue
            far = 0
            each = out & ~na
            while each:
                low = each & -each
                each ^= low
                if nbr[low.bit_length() - 1] & xs:
                    far |= low
            while far and bs:
                bbit = bs & -bs
                bs ^= bbit
                nb = nbr[bbit.bit_length() - 1]
                ys = nb & far
                if not ys:
                    continue
                each = xs & ~nb
                while each:
                    low = each & -each
                    each ^= low
                    if nbr[low.bit_length() - 1] & ys:
                        return True
    return False


def _find_long_cycle(nbr, r0, k):
    """The canonical induced k-cycle rooted at rank r0, as ranks, or None:
    the path grower of `find_induced_cycle` on the masks of `_index`."""
    n0 = nbr[r0]
    # a vertex after v1 lies above v0 and outside N(v0)
    inner = ~(n0 | ((2 << r0) - 1))

    def extend(path, blocked):
        last = path[-1]
        if len(path) == k - 1:
            ends = nbr[last] & n0 & ~blocked
            ends = ends >> path[1] + 1 << path[1] + 1
            return path + [(ends & -ends).bit_length() - 1] if ends else None
        grown = blocked | nbr[last] | 1 << last
        cands = nbr[last] & inner & ~blocked
        while cands:
            low = cands & -cands
            cands ^= low
            got = extend(path + [low.bit_length() - 1], grown)
            if got is not None:
                return got
        return None

    ones = n0 >> r0 + 1 << r0 + 1
    while ones:
        low = ones & -ones
        ones ^= low
        # N(v0) stays out of the blocked set: the closing vertex lies in it
        got = extend([r0, low.bit_length() - 1], 0)
        if got is not None:
            return got
    return None


def find_co_c7(g: Graph, index):
    """An induced complement-of-C7, as the complement cycle order, or None.

    In the complement cycle order u0..u6 (u_i ~ u_j unless i and j are
    cyclically consecutive), N(u0) meets the pattern in {u2, u3, u4, u5},
    which induces the path u4-u2-u5-u3; u1 sees u4, u5 and u3 but not u2;
    u6 sees u4, u2 and u3 but not u5; u1 ~ u6, and both miss N[u0].  Those
    21 adjacencies are the whole pattern.  So for each u0 and each induced
    P4 (a, b, c, d) in N(u0), an adjacent pair u1 in
    N(a) & N(c) & N(d) - N(b) - N[u0] and u6 in
    N(a) & N(b) & N(d) - N(c) - N[u0] gives (u0, u1, b, d, a, c, u6).
    The reflection i -> -i fixes u0, swaps u1 with u6 and reverses the
    path, so the one orientation of each P4 that `_p4s` yields is enough.
    co-C7 is vertex-transitive, so u0 can be the pattern's least vertex:
    the search stays above u0.
    """
    order, nbr, keep = index
    for r0, n0 in enumerate(nbr):
        # u0 is the least pattern vertex: 4 neighbours and 2 non-neighbours above it
        if (n0 >> r0 + 1).bit_count() < 4:
            continue
        rest = keep >> r0 + 1 << r0 + 1
        far = rest & ~n0
        if far.bit_count() < 2:
            continue
        for a, b, c, d in _p4s(nbr, n0 & rest):
            nb, nc = nbr[b], nbr[c]
            outer = nbr[a] & nbr[d] & far
            p6 = outer & nb & ~nc
            u1s = outer & nc & ~nb if p6 else 0
            while u1s:
                u1 = u1s & -u1s
                u1s ^= u1
                ends = nbr[u1.bit_length() - 1] & p6
                if ends:
                    u6 = (ends & -ends).bit_length() - 1
                    got = tuple(order[i] for i in (r0, u1.bit_length() - 1, b, d, a, c, u6))
                    _verify_induced(g, "co-C7", got, (2, 3, 4, 5))
                    return got
    return None


def find_nonbipartite_neighborhood(g: Graph, index):
    """First vertex v (ascending) whose neighborhood holds an odd cycle.

    Returns a PatternWitness: kind k4 for v and the least triangle of N(v),
    or c5/c7/c9 for the canonical induced cycle of the least odd length
    that N(v) holds (induced in N(v), so induced in g).  Both come from the
    path grower of `find_induced_cycle`, through `_least_cycle`, so the
    witness follows the ids and not the order of set iteration.

    index is the caller's: the masks of `_index`, of g or of the part of g
    to search, cut or not.  Each neighborhood is tested on them for a
    non-empty odd-cycle transversal T of `_odd_transversal`.  Every odd
    cycle meets T, so the grower runs on the first failing N(v) cut to its
    components that meet T, walked from T by `_reach`, with its roots
    bounded by T.  The grower and `_has_c5` mask away every vertex outside
    that cut.  A shortest odd cycle is chordless, so when no induced C3,
    C5, C7 or C9 is found, N(v) holds an odd hole of 11 or more vertices;
    its vertices 1-4 and 6-9 form a 2P4, so the graph is outside the class,
    and that case raises ClassViolationError with the least 2P4 of N(v).

    `solver.solve` calls this on each component of the 3-core of its
    false-twin quotient, each with the component's own index, not cut to
    its twin core, since K4 has true twins.  When the component is a whole
    component of the quotient, that index is the one whose twin cut the
    class check read.  On a graph with false twins a copy repeats its
    representative's scan, which comes first and so has already passed.
    """
    order, nbr, _ = index
    for v, nv in zip(order, nbr):
        # an odd cycle needs three vertices
        if nv.bit_count() < 3 or not (trans := _odd_transversal(nbr, nv)):
            continue
        # the masks cut to the components of N(v) that meet T
        keep = _reach(nbr, trans, nv)
        cut = [m & keep for m in nbr]
        for k in (3, 5, 7, 9):
            cyc = _least_cycle(cut, trans, k, keep)
            if cyc is not None:
                break
        else:
            raise ClassViolationError(find_induced_2p4(g, _cut(index, nv)))
        cyc = tuple(order[i] for i in cyc)
        if k == 3:
            part = (v, *cyc)
            _verify_induced(g, "k4", part, (1, 2, 3))
            return PatternWitness("k4", (part,))
        _verify_induced(g, "cycle", cyc, (1, k - 1))
        return PatternWitness(f"c{k}", (cyc,))
    return None


def check_class(g: Graph):
    """A witness that g is outside the (2P4,C5)-free class, or None.

    Both scans run on `graph.twin_core(g)`.  Neither C5 nor 2P4 has twins
    (no two of its vertices have equal open or closed neighbourhoods).
    Each step of the core deletes a vertex u that has a twin v in what is
    left; an induced copy of the pattern cannot hold both, since they would
    be twins in it, so a copy through u becomes one through v.  So g holds
    the pattern exactly when its core does.  The core is an induced
    subgraph of g with g's ids, so a witness is one in g.

    The core keeps the least id of each twin class, so v < u, and putting v
    in u's place on an induced cycle gives one that comes earlier in
    canonical order.  So the first C5 of `find_induced_cycle` on g is on
    the core and is the one returned.  For a 2P4, a hit of
    `find_induced_2p4` is a P4 P whose outside, V - N[P], holds a P4.
    Putting v in u's place on P leaves N[P] unchanged and moves the hit
    earlier in the scan's (b, c, a, d) order, and a deletion outside N[P]
    leaves a P4 in the outside (one through u goes through v instead).  So
    the first hit on g avoids every deleted vertex and the first hit on the
    core is the same P4.  The second part is the least P4 of the outside,
    and a P4 there through u comes after the one with v in u's place, so
    the least avoids u too: the whole 2P4 witness is the one found on g.

    The scans read one index of the whole core, passed to
    `check_components` as its lone index.  The certificates (fewer than two
    vertices, a bipartite core, two cliques), the transversal bound on the
    C5 roots and the order-free C5 decision that runs before the C5 scan
    only skip work that finds nothing, and the 2P4 scan stops at its first
    hit in ascending order, so they change no witness.  The core is built
    in passes that each delete one kind of twin.  The README gives measured
    costs.
    """
    core = twin_core(g)
    return check_components(core, [_index(core)])


def check_components(g: Graph, cuts):
    """The witness `check_class` gives on a graph, or None, read off
    indexes of its twin core: either one index of the whole core, or one
    per component of the graph, each cut to the component's twin core
    (`_twin_cut`), in ascending order of least vertex.  g only verifies the
    witness: any graph that induces each core with the same ids will do,
    such as the graph the indexes were built on.

    An index that keeps fewer than two vertices holds no P4, and so no C5.
    Among several, such an index is dropped; a lone one is two cliques, at
    most one vertex each, and the certificate below answers None.  With one
    index per component, those left are the components that hold a P4: a
    P4 has no twins, and every cograph on two or more vertices has a pair
    of twins (Corneil, Lerchs & Stewart Burlingham 1981), so a connected
    cograph's core is one vertex.

    One index left: the C5 scan, then the 2P4 scan, on it.  The verdict
    holds for any graph the index holds.  The index is the whole twin core
    (the lone index of `check_class`, which may span several components),
    or the core of the one component that holds a P4, whose hits and rests
    are those of the whole core; so the witness is `check_class`'s.  A
    core whose complement is bipartite (two cliques: the complement's masks
    have an empty `_odd_transversal`) is in class, and answers None with no
    scan: C5 is self-complementary and odd, so an induced C5 would be an
    odd cycle of the complement, and the complement of 2P4 is the join of
    two P4s, which holds a triangle.  Two cliques of a and n - a vertices
    hold at least n(n - 2)/4 edges, the least at a = n/2, so a core with
    fewer edges skips that test on one count.

    Several left: a C5 or a P4 lies in one component, and two P4s in two
    components form an induced 2P4.  So the graph is in class exactly when
    every component is C5-free, at most one holds a P4, and that one is
    2P4-free.  Twins in two components are isolated vertices, so the twin
    core of the graph is these cores and at most one isolated vertex, and
    the witness is the one `check_class` finds on that core:

    - C5: the least C5 over the cores.  A canonical cycle starts at its
      least vertex, so the least is the canonical one of the graph.
    - 2P4: the rest of any P4 holds every other core, so every P4 is a hit
      of the 2P4 scan.  The first part is the least P4 in the scan's
      (b, c, a, d) order over the cores, and the second part the least P4
      of that P4's rest, over every core.
    """
    if len(cuts) > 1:
        cuts = [cut for cut in cuts if cut[2] & cut[2] - 1]
    if not cuts:
        return None
    if len(cuts) == 1:
        _, nbr, keep = index = cuts[0]
        n = keep.bit_count()
        if (2 * sum(m.bit_count() for m in nbr) >= n * (n - 2)
                and not _odd_transversal([keep ^ m ^ 1 << i if keep >> i & 1 else 0
                                          for i, m in enumerate(nbr)], keep)):
            return None
        c5 = find_induced_cycle(g, 5, index)
        if c5 is not None:
            return PatternWitness("c5", (c5,))
        return find_induced_2p4(g, index)
    c5s = [c5 for cut in cuts if (c5 := find_induced_cycle(g, 5, cut)) is not None]
    if c5s:
        return PatternWitness("c5", (min(c5s),))
    hits = []
    for j, (order, nbr, _) in enumerate(cuts):
        ranks = _least_p4(nbr)
        hits.append((tuple(order[r] for r in ranks), j, ranks))
    (b, c, a, d), j, ranks = min(hits)
    seconds = []
    for i, (order, nbr, keep) in enumerate(cuts):
        if i == j:
            for r in ranks:
                keep &= ~(nbr[r] | 1 << r)
        p4 = next(_p4s(nbr, keep), None)
        if p4 is not None:
            seconds.append(tuple(order[r] for r in p4))
    return _2p4_witness(g, (a, b, c, d), min(seconds))
