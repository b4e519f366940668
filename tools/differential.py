"""Differential run of hered3 over a fixed corpus, and a comparison of two runs.

    python tools/differential.py --src DIR --out FILE [--limit N]
    python tools/differential.py --compare A B [--same FIELD,...]

The first form imports hered3 from DIR/src (and the benchmark's
instance families from DIR/bench), so DIR can be any checkout, such as a
parent tree unpacked from `git archive`, whose finders take the index of
`patterns._index` as their last argument.  It writes one JSON line per
input of the corpus, with these fields:

- id: the input's name in the corpus
- input: a digest of the graph's vertices and edges
- class: the `check_class` witness, or null
- cycles: `find_induced_cycle(core, k, index)` for k = 5, 7 and 9, with
  core = `twin_core(g)` and index = `_index(core)`
- odd: `find_nonbipartite_neighborhood(g, _index(g))`, the
  odd-neighbourhood witness, or the error it raises
- co_c7: `find_co_c7(core, index)`, the co-C7 in complement cycle order,
  or null
- solve: `solve(witness=True, assume_class=...)`, as the decision, the
  witness items sorted by id and the stats without `millis`, or the
  exception's type, message and witness
- witness_order: the ids of that witness in the order of its items, or
  null; so a change that reorders a witness without changing its colors
  differs here and not in solve

A witness is [kind, parts]; an error is ["raise", type, message,
witness or null].  --limit N takes N inputs, one family after another in
turn, in place of the whole corpus.

The second form reads two such files, prints for each field the number
of inputs on which it differs and the first ids that differ, and exits 1
when a field named in --same (all of them by default) differs anywhere.

Only the standard library is used, so the script runs wherever the
package does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import chain, islice, zip_longest
from pathlib import Path
from random import Random
from types import SimpleNamespace

FIELDS = ("input", "class", "cycles", "odd", "co_c7", "solve", "witness_order")
BENCH_SEEDS = (3, 5)
GADGETS = 600
RANDOM_GRAPHS = 600
REST_GRAPHS = 2000
CROWN_SIZES = (3, 4, 5, 8, 20, 40, 60)
WHEELS = range(3, 16, 2)
WHEEL_EXTRAS = (0, 6, 12)
WHEEL_SEEDS = 6
CO_C7_HOSTS = 40
CO_BIPARTITE_SIZES = (6, 7, 10, 14)
CO_BIPARTITE_PS = (0.2, 0.4, 0.6)
CO_BIPARTITE_SEEDS = 3
UNIONS = 200
UNION_POOL = {"c7": 60, "c9": 30, "refute": 30}
K4_STARS = (3, 5, 10, 20)
SPIDERS = (3, 5, 10, 25)
SPIDER_LEGS = (2, 3)
RANDOM_UNIONS = 600


def load(src: Path):
    """Import hered3 (and the bench's workloads, if present) from src."""
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    import hered3
    from hered3 import formats, graph, patterns, testkit

    if Path(hered3.__file__).resolve().parent != (src / "src" / "hered3").resolve():
        raise SystemExit(f"hered3 was imported from {hered3.__file__}, not {src}")
    try:
        import workloads
    except ModuleNotFoundError:
        workloads = None
    return SimpleNamespace(hered3=hered3, formats=formats, graph=graph, patterns=patterns,
                           testkit=testkit, workloads=workloads)


def planted_wheel(k: int, extra: int, seed: int, graph):
    """The wheel W_k (rim 1..k, hub k + 1) with `extra` more vertices, each
    joined to three earlier vertices at random, so that nothing peels."""
    rng = Random(seed)
    edges = [(i, i % k + 1) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    for v in range(k + 2, k + 2 + extra):
        edges += [(v, w) for w in rng.sample(range(1, v), 3)]
    return graph.Graph.from_edges(range(1, k + 2 + extra), edges)


def planted_co_c7(g, ties: int, seed: int):
    """g with a co-C7 added on seven new vertices, each joined to `ties`
    random old ones."""
    rng = Random(seed)
    old = g.vertices()
    new = [g.add_vertex() for _ in range(7)]
    for i in range(7):
        # the complement of the 7-cycle new[0], ..., new[6]
        for j in range(i + 2, 7 if i else 6):
            g.add_edge(new[i], new[j])
    for v in new:
        for w in rng.sample(old, ties):
            g.add_edge(v, w)
    return g


def k4_star(k: int, graph):
    """A hub, vertex 1, joined by a path of length 2 to one vertex of each
    of k K4s: connected, with a 3-core of k components."""
    edges = []
    for base in range(2, 5 * k + 2, 5):
        edges += [(1, base), (base, base + 1)]
        edges += [(u, w) for u in range(base + 1, base + 5) for w in range(u + 1, base + 5)]
    return graph.Graph.from_edges(range(1, 5 * k + 2), edges)


def spider(k: int, leg: int, graph, plus: bool):
    """A hub, vertex 1, and k legs of leg vertices each, leg j on the ids
    2 + j * leg onwards; with plus, one more edge joins the ends of the
    first and the last leg.  Built here, as `testkit.spider` builds it
    without the edge, so that a tree older than that function runs it."""
    edges = []
    for j in range(k):
        path = [1, *range(2 + j * leg, 2 + (j + 1) * leg)]
        edges += zip(path, path[1:])
    if plus:
        edges.append((1 + leg, 1 + k * leg))
    return graph.Graph.from_edges(range(1, k * leg + 2), edges)


def interleaved_union(members, rng: Random, graph):
    """The disjoint union of the members, relabelled onto 1..n so that the
    members' ids interleave at random while each member keeps the order of
    its own ids."""
    tags = [j for j, h in enumerate(members) for _ in range(len(h))]
    rng.shuffle(tags)
    slots = [[] for _ in members]
    for new, j in enumerate(tags, 1):
        slots[j].append(new)
    image = [dict(zip(h.vertices(), ids)) for h, ids in zip(members, slots)]
    edges = [(m[u], m[w]) for h, m in zip(members, image) for u, w in h.edges()]
    return graph.Graph.from_edges(range(1, len(tags) + 1), edges)


def corpus(m):
    """The families of the corpus, each an iterator of
    (id, graph, assume_class)."""
    testkit = m.testkit

    def bench():
        if m.workloads is None:
            return
        for seed in BENCH_SEEDS:
            for name in ("refute", "blowups", "composite", "gadgets"):
                for i, case in enumerate(m.workloads.build(name, seed)):
                    g = m.formats.parse_graph(case.text).graph
                    yield f"bench/{name}/{seed}/{i}", g, case.assume_class

    def gadgets(kind, make):
        for s in range(GADGETS):
            g = make(s)
            yield f"{kind}/{s}/plain", g, False
            yield f"{kind}/{s}/thick", testkit.thicken(g, s), False

    def random_graphs():
        for i in range(RANDOM_GRAPHS):
            g = testkit.erdos_renyi(5 + i % 36, (0.08, 0.12, 0.18, 0.25, 0.35, 0.5)[i % 6],
                                    testkit.split_seed(41, i))
            for assume in (False, True):
                yield f"er/{i}/{'assume' if assume else 'check'}", g, assume

    def rests():
        # sparse enough that the rest of a 2P4's first part often holds
        # several P4s, so the second part shows which of them is named
        for i in range(REST_GRAPHS):
            g = testkit.erdos_renyi(12 + i % 9, (0.10, 0.14, 0.18, 0.22)[i % 4],
                                    testkit.split_seed(41, i))
            yield f"rest/{i}", g, False

    def crowns():
        for n in CROWN_SIZES:
            for name in ("crown_plus", "apex_crown"):
                g = getattr(testkit, name)(n)
                for assume in (False, True):
                    yield f"{name}/{n}/{'assume' if assume else 'check'}", g, assume

    def wheels():
        for k in WHEELS:
            for extra in WHEEL_EXTRAS:
                for s in range(WHEEL_SEEDS):
                    g = planted_wheel(k, extra, testkit.split_seed(43, k, extra, s), m.graph)
                    for assume in (False, True):
                        yield f"wheel/{k}/{extra}/{s}/{'assume' if assume else 'check'}", g, assume

    def co_c7s():
        # co-C7 is in class; a composite is not, and under assume_class most
        # planted ones are refused by the co-C7 preflight
        yield "co_c7/named", testkit.co_c7_graph(), False
        for s in range(CO_C7_HOSTS):
            host = testkit.cograph_composite(20 + 5 * (s % 8), s)
            g = planted_co_c7(host, 1 + s % 3, testkit.split_seed(47, s))
            for assume in (False, True):
                yield f"co_c7/planted/{s}/{'assume' if assume else 'check'}", g, assume
        # in class and dense: two cliques, with a K4 from eight vertices on
        for n in CO_BIPARTITE_SIZES:
            for p in CO_BIPARTITE_PS:
                for s in range(CO_BIPARTITE_SEEDS):
                    g = testkit.co_bipartite(n, p, testkit.split_seed(48, n, s))
                    yield f"co_bipartite/{n}/{p}/{s}", g, False

    def unions():
        # two or three members, each a thickened gadget or a bench refute
        # blowup, so that the 3-core often has several components; a P4 in
        # each of two members makes a 2P4, so most unions are out of class
        # and only their assume_class solve reaches the components
        pool = {kind: [testkit.thicken(make(s), s) for s in range(UNION_POOL[kind])]
                for kind, make in (("c7", testkit.c7_gadget), ("c9", testkit.c9_gadget))}
        if m.workloads is not None:
            cases = m.workloads.build("refute", BENCH_SEEDS[0])[:UNION_POOL["refute"]]
            pool["refute"] = [m.formats.parse_graph(case.text).graph for case in cases]
        kinds = [kind for kind in ("c7", "c7", "c9", "refute") if kind in pool]
        for i in range(UNIONS):
            rng = Random(testkit.split_seed(49, 0, i))
            members = [rng.choice(pool[rng.choice(kinds)]) for _ in range(2 + i % 2)]
            g = interleaved_union(members, rng, m.graph)
            for assume in (False, True):
                yield f"union/{i}/{'assume' if assume else 'check'}", g, assume

    def stars():
        for k in K4_STARS:
            yield f"k4_star/{k}", k4_star(k, m.graph), False
        # trees in class whose 2P4 scan meets one rest for each two legs;
        # the leg-end edge closes a C5 (legs of 2) or a C7 that the hub and
        # a third leg make a 2P4 with (legs of 3)
        for k in SPIDERS:
            for leg in SPIDER_LEGS:
                yield f"spider/{k}/{leg}", spider(k, leg, m.graph, False), False
                g = spider(k, leg, m.graph, True)
                for assume in (False, True):
                    yield f"spider/{k}/{leg}/plus/{'assume' if assume else 'check'}", g, assume

    def random_unions():
        # 2-5 small random graphs side by side, ids interleaved: many hold
        # a C5, or a 2P4 whose two parts lie in two components
        for i in range(RANDOM_UNIONS):
            rng = Random(testkit.split_seed(53, i))
            members = [testkit.erdos_renyi(rng.randint(1, 9), rng.choice((0.3, 0.45, 0.6)),
                                           rng.getrandbits(64)) for _ in range(rng.randint(2, 5))]
            g = interleaved_union(members, rng, m.graph)
            for assume in (False, True):
                yield f"er_union/{i}/{'assume' if assume else 'check'}", g, assume

    return [wheels(), crowns(), co_c7s(), random_graphs(), gadgets("c7", testkit.c7_gadget),
            gadgets("c9", testkit.c9_gadget), bench(), unions(), rests(), stars(),
            random_unions()]


def round_robin(families):
    """One input of each family in turn, until all are spent."""
    done = object()
    for row in zip_longest(*families, fillvalue=done):
        yield from (item for item in row if item is not done)


def pattern(w):
    """A PatternWitness, a vertex tuple, or None, as JSON."""
    if w is None:
        return None
    if hasattr(w, "kind"):
        return [w.kind, [list(part) for part in w.parts]]
    return list(w)


def raised(exc):
    return ["raise", type(exc).__name__, str(exc), pattern(getattr(exc, "witness", None))]


def record(m, name, g, assume):
    out = {"id": name}
    edges = ";".join(f"{u},{w}" for u, w in g.edges())
    digest = f"{','.join(map(str, g.vertices()))}|{edges}"
    out["input"] = hashlib.sha256(digest.encode()).hexdigest()[:16]
    try:
        out["class"] = pattern(m.patterns.check_class(g))
    except Exception as exc:
        out["class"] = raised(exc)
    core = m.graph.twin_core(g)
    index = m.patterns._index(core)
    out["cycles"] = [pattern(m.patterns.find_induced_cycle(core, k, index)) for k in (5, 7, 9)]
    try:
        out["odd"] = pattern(m.patterns.find_nonbipartite_neighborhood(g, m.patterns._index(g)))
    except Exception as exc:
        out["odd"] = raised(exc)
    out["co_c7"] = pattern(m.patterns.find_co_c7(core, index))
    out["witness_order"] = None
    try:
        rep = m.hered3.solve(g, witness=True, assume_class=assume)
        stats = {k: v for k, v in rep.stats.items() if k != "millis"}
        witness = None
        if rep.witness is not None:
            witness = [list(kv) for kv in sorted(rep.witness.items())]
            out["witness_order"] = list(rep.witness)
        out["solve"] = [rep.decision, witness, stats]
    except Exception as exc:
        out["solve"] = raised(exc)
    return out


def run(src: Path, out: Path, limit: int | None) -> int:
    m = load(src)
    families = corpus(m)
    inputs = chain(*families) if limit is None else islice(round_robin(families), limit)
    count = 0
    with open(out, "w") as fh:
        for name, g, assume in inputs:
            fh.write(json.dumps(record(m, name, g, assume)) + "\n")
            count += 1
    print(f"{count} records written to {out}")
    return 0


def compare(a: Path, b: Path, same) -> int:
    with open(a) as fa, open(b) as fb:
        left = [json.loads(line) for line in fa]
        right = [json.loads(line) for line in fb]
    diffs = {f: [] for f in ("id",) + FIELDS}
    for i, (x, y) in enumerate(zip_longest(left, right, fillvalue={})):
        name = x.get("id", y.get("id", f"line {i + 1}"))
        for f in diffs:
            if x.get(f) != y.get(f):
                diffs[f].append(name)
    print(f"{len(left)} records in {a}, {len(right)} in {b}")
    failed = []
    for f, names in diffs.items():
        first = ", ".join(names[:5]) + (", ..." if len(names) > 5 else "")
        print(f"{f}: {len(names)} differ" + (f" ({first})" if names else ""))
        if names and (f == "id" or f in same):
            failed.append(f)
    if failed:
        print("differing fields: " + ", ".join(failed))
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, help="checkout whose src/hered3 is run")
    ap.add_argument("--out", type=Path, help="JSON lines file to write")
    ap.add_argument("--limit", type=int, help="take this many inputs, families in turn")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--same", default=",".join(FIELDS),
                    help="comma-separated fields that must not differ (default: all)")
    args = ap.parse_args(argv)
    if args.compare:
        same = set(filter(None, args.same.split(",")))
        unknown = same - set(FIELDS)
        if unknown:
            ap.error(f"unknown fields: {', '.join(sorted(unknown))}")
        return compare(*args.compare, same)
    if args.src is None or args.out is None:
        ap.error("give --src and --out, or --compare A B")
    return run(args.src.resolve(), args.out, args.limit)


if __name__ == "__main__":
    sys.exit(main())
