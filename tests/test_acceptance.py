"""Acceptance gates: the release checklist, one test per gate.

Every gate re-derives its expected values from an independent oracle or a
closed form, runs at the full stated population, and prints a single PASS
line with the measured numbers.  A failing gate is a plain test failure.
"""

import math
import time
from collections import Counter
from itertools import combinations, permutations, product
from random import Random

from hered3 import cograph
from hered3.errors import StageAssertionError
from hered3.graph import (
    Graph,
    connected_components,
    false_twins,
    induced_subgraph,
    odd_cycle_transversal,
    twin_core,
)
from hered3.patterns import check_class, find_nonbipartite_neighborhood
from hered3.reductions import (
    REJECTED,
    SOLVED,
    Instance,
    _one_pass,
    _two_sat_component,
)
from hered3.solver import _proper_cycle_colorings, _run_anchored, _solve_component, solve
from hered3.testkit import (
    apex_crown,
    c7_gadget,
    c9_gadget,
    co_bipartite,
    cograph_composite,
    complete_bipartite,
    count_proper_3colorings,
    crown_graph,
    cycle_blowup,
    cycle_graph,
    differential_fuzz,
    erdos_renyi,
    named_graph,
    oracle_list3color,
    split_seed,
    thicken,
    verify_coloring,
)


# -- gate 1: exhaustive small-graph equivalence -------------------------------

def test_exhaustive_small_graphs_match_oracle():
    start = time.monotonic()
    total = members = 0
    for n in range(7):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph.from_edges(range(1, n + 1), edges)
            total += 1
            if check_class(g) is not None:
                continue
            members += 1
            rep = solve(g, witness=True, assume_class=True)
            want = oracle_list3color(g)
            assert (rep.decision == "colorable") == (want is not None), \
                f"n={n} mask={mask}"
            if rep.witness is not None:
                assert verify_coloring(g, rep.witness), f"n={n} mask={mask}"
    elapsed = time.monotonic() - start
    assert total == 33868
    assert elapsed < 300
    print(f"PASS exhaustive small-n: {members}/{total} class members "
          f"agree with the oracle in {elapsed:.1f}s")


# -- gate 2: randomized equivalence at scale ----------------------------------

def test_randomized_class_equivalence_at_scale():
    rep = differential_fuzz(10_000, seed=416)
    assert rep.cases == 10_000
    assert rep.mismatches == []
    assert rep.violations == []
    assert rep.in_class >= 1_000
    assert rep.witness_checked > 0
    assert rep.elapsed < 600
    print(f"PASS randomized equivalence: {rep.summary()}, "
          f"{rep.witness_checked} witnesses checked")


# -- gate 3: anchored-pipeline coverage ----------------------------------------

def _oracle_checked(g, rep, what):
    want = oracle_list3color(g)
    assert (rep.decision == "colorable") == (want is not None), what
    if rep.witness is not None:
        assert verify_coloring(g, rep.witness), what
    return rep


def test_anchored_gadgets_cover_every_stage_family():
    # solve peels every gadget's quotient whole; thickened with its own
    # seed, a gadget often keeps a 3-core that the anchor search, the
    # anchored runs and the stages work on.  Every answer is the oracle's, and in
    # class no stage refuses (a StageAssertionError fails the gate)
    stage_keys = ("stage_single_anchor", "stage_opposing_pairs",
                  "stage_component_cases", "case_border_single_vertex",
                  "op_cut_reduction", "components_anchored_9")
    totals = dict.fromkeys(stage_keys, 0)
    anchored = 0
    start = time.monotonic()
    for make in (c7_gadget, c9_gadget):
        for seed in range(1000):
            g = make(seed)
            what = f"{make.__name__}({seed})"
            assert g.vertex_count() <= 20, f"{what} oversized"
            rep = _oracle_checked(g, solve(g, witness=True), what)
            assert rep.stats["peeled"] == g.vertex_count() - rep.stats.get("false_twins", 0)
            g = thicken(g, seed)
            rep = _oracle_checked(g, solve(g, witness=True), f"{what} thickened")
            anchored += "anchor_colorings" in rep.stats
            for k in stage_keys:
                totals[k] += rep.stats.get(k, 0)
    for k in stage_keys:
        assert totals[k] >= 1, f"{k} never fired across 2000 thickened gadgets"
    elapsed = time.monotonic() - start
    print(f"PASS anchored coverage: 1000+1000 gadgets and their thickenings, zero "
          f"mismatches, {anchored} thickenings anchored, stage firings {totals} "
          f"in {elapsed:.1f}s")


# -- gate 4: exact anchor enumeration counts ------------------------------------

def test_anchor_enumeration_counts_are_exact():
    # the solver branches on one coloring per orbit of the proper anchor
    # colorings under the six color permutations; their images under those
    # permutations must tile the full set, so no coloring goes unrepresented
    for k, reps, full in ((7, 21, 126), (9, 85, 510)):
        # on the anchored layer: solve peels the cycle whole
        stats = Counter()
        assert _run_anchored(cycle_graph(k), tuple(range(1, k + 1)), stats) is not None
        got = stats["anchor_colorings"]
        assert got == reps
        assert solve(cycle_graph(k)).stats["peeled"] == k
        proper = {c for c in product((1, 2, 3), repeat=k)
                  if all(c[i] != c[i - 1] for i in range(k))}
        assert len(proper) == count_proper_3colorings(cycle_graph(k)) == full
        cols = _proper_cycle_colorings(k)
        images = [{tuple(pi[c - 1] for c in col) for col in cols}
                  for pi in permutations((1, 2, 3))]
        assert sum(map(len, images)) == len(set().union(*images))
        assert set().union(*images) == proper
        print(f"PASS anchor counts: {k}-cycle branches on {got} colorings, "
              f"whose 6 color-permuted images tile all {full}")


# -- gate 5: safety net under the stage ladder -----------------------------------

def _rimmed_c7_draft(rng):
    """A 7-cycle, 1-6 rim vertices each on one anchor or on two anchors two
    apart, 1-7 outer vertices, and random edges among rim and outer."""
    g = cycle_graph(7)
    anchors = g.vertices()
    loose = []
    for _ in range(rng.randint(1, 6)):
        v = g.add_vertex()
        i = rng.randrange(7)
        g.add_edge(v, anchors[i])
        if rng.random() < 0.5:
            g.add_edge(v, anchors[(i + 2) % 7])
        loose.append(v)
    loose += [g.add_vertex() for _ in range(rng.randint(1, 7))]
    p = rng.choice((0.2, 0.35, 0.5, 0.65))
    for a, b in combinations(loose, 2):
        if rng.random() < p:
            g.add_edge(a, b)
    return g


def _layer_checked(g, colorable, what):
    """Run `solver._solve_component` on each component of g's whole
    false-twin quotient, check its answer against colorable, the oracle's
    verdict, and return the number of components anchored on a 7-cycle.

    solve runs that layer on the quotient's 3-core, which holds no anchor
    cycle for most drafts.  A neighbourhood with an odd cycle is ruled out
    first, as solve's preflight does: the layer assumes there is none."""
    h = induced_subgraph(g, [v for v in g.vertices() if v not in false_twins(g)])
    if find_nonbipartite_neighborhood(h) is not None:
        assert not colorable, what
        return 0
    core = twin_core(h)
    trans = odd_cycle_transversal(core)
    stats = Counter()
    coloring = {}
    for comp in connected_components(h):
        cmap = _solve_component(h, core, trans, comp, stats)
        if cmap is None:
            assert not colorable, what
            return stats["components_anchored_7"]
        coloring.update(cmap)
    assert colorable and verify_coloring(h, coloring), what
    return stats["components_anchored_7"]


def test_stage_ladder_safety_net():
    # the stage ladder keeps only the stages some input reaches; any other
    # branch shape raises StageAssertionError, which fails this gate in
    # class.  Out of class, solved under assume_class, every rule is still
    # sound and every split exhaustive, so the answer must be right unless
    # the stages refuse the shape.  solve peels every in-class draft to a
    # 3-core without an anchor cycle, so each draft is also solved by the
    # per-component layer on its whole quotient (_layer_checked), where the
    # anchored runs and the stages see the whole draft
    rng = Random(505)
    drafts = in_class = anchored = refuted = 0
    waived = waived_refusals = peeled_refusals = peeled_anchored = 0
    start = time.monotonic()
    while in_class < 2000:
        drafts += 1
        g = _rimmed_c7_draft(rng)
        if check_class(g) is not None:
            if waived < 1500:
                waived += 1
                try:
                    rep = solve(g, witness=True, assume_class=True)
                except StageAssertionError:
                    peeled_refusals += 1
                    colorable = oracle_list3color(g) is not None
                else:
                    _oracle_checked(g, rep, f"draft {drafts} solve")
                    colorable = rep.decision == "colorable"
                    peeled_anchored += rep.stats.get("components_anchored_7", 0)
                try:
                    _layer_checked(g, colorable, f"draft {drafts} layer")
                except StageAssertionError:
                    waived_refusals += 1
            continue
        in_class += 1
        rep = _oracle_checked(g, solve(g, witness=True), f"draft {drafts}")
        refuted += rep.decision == "not_colorable"
        anchored += _layer_checked(g, rep.decision == "colorable", f"draft {drafts} layer")
    assert anchored >= 1500 and refuted >= 50
    assert waived == 1500 and waived - waived_refusals >= 1400
    assert peeled_refusals <= waived_refusals and peeled_anchored >= 50
    elapsed = time.monotonic() - start
    print(f"PASS stage-ladder safety net: {in_class} in-class drafts of {drafts} "
          f"({anchored} anchored on the layer, {refuted} not colorable) agree "
          f"with the oracle; {waived - waived_refusals} of {waived} out-of-class "
          f"drafts too, {waived_refusals} refused on the layer and "
          f"{peeled_refusals} by solve ({peeled_anchored} anchored), "
          f"in {elapsed:.1f}s")


def test_waived_drafts_reach_the_stages_through_the_peel():
    # two out-of-class drafts of Random(505), numbered from 0 in the order
    # drawn, whose quotient keeps a 3-core that the anchored stages run on.
    # Draft 2715 (18 vertices) is not colorable and fires the single-anchor
    # stage through solve: of 9,395 answered solves of unthickened c7 and
    # c9 gadgets and 6,000 drafts, the only stage firing that survives the
    # peel.  Draft 2108 (17 vertices) is colorable and is refused at a
    # partial outer neighbor; it is the CLI's stage-refusal input
    rng = Random(505)
    drafts = [_rimmed_c7_draft(rng) for _ in range(2716)]
    g = drafts[2715]
    assert g.vertex_count() == 18 and check_class(g) is not None
    assert oracle_list3color(g) is None
    before = {v: set(nbrs) for v, nbrs in g._adj.items()}
    rep = solve(g, witness=True, assume_class=True)
    assert g._adj == before
    assert rep.decision == "not_colorable"
    assert rep.stats["peeled"] == 3 and rep.stats["components_anchored_7"] == 1
    assert rep.stats["stage_single_anchor"] == 1

    g = drafts[2108]
    assert g.vertex_count() == 17 and check_class(g) is not None
    assert oracle_list3color(g) is not None
    try:
        solve(g, witness=True, assume_class=True)
    except StageAssertionError as err:
        assert str(err) == "partial outer neighbor outside its allowed shape"
    else:
        raise AssertionError("solve answered draft 2108")


# -- gate 6: single reduction steps preserve colorability -------------------------

def _live_feasible(inst):
    live = sorted(inst.palettes)
    sub = Graph.from_edges(live, [(a, b) for a, b in inst.g.edges()
                                  if a in inst.palettes and b in inst.palettes])
    return oracle_list3color(sub, {v: set(inst.palettes[v]) for v in live}) is not None


def test_reduction_steps_preserve_colorability():
    rng = Random(606)
    steps = instances = 0
    start = time.monotonic()
    while steps < 1000:
        instances += 1
        assert instances < 3000, "reduction sampler starved"
        n = rng.randint(4, 12)
        g = erdos_renyi(n, rng.choice((0.2, 0.35, 0.5)), rng.getrandbits(32))
        inst = Instance(g, Counter())
        for v in list(inst.palettes):
            if rng.random() < 0.4:
                inst.palettes[v] = frozenset(
                    rng.sample((1, 2, 3), rng.randint(1, 3)))
        before = _live_feasible(inst)
        while True:
            out = _one_pass(inst)
            if out == REJECTED:
                assert not before, "a reduction pass rejected a colorable instance"
                break
            if out == SOLVED:
                assert before, "a reduction pass solved an uncolorable instance"
                break
            if out != "fired":
                break
            steps += 1
            after = _live_feasible(inst)
            assert after == before, "a reduction step changed colorability"
            before = after
    elapsed = time.monotonic() - start
    print(f"PASS reduction soundness: {steps} fired steps over {instances} "
          f"instances, colorability preserved, {elapsed:.1f}s")


# -- gate 7: rule 6 (two-color palettes) against the oracle -----------------------

def test_two_color_rule_matches_oracle():
    rng = Random(707)
    solved = rejected = 0
    start = time.monotonic()
    for case in range(10_000):
        n = rng.randint(1, 12)
        g = Graph.from_edges(range(1, n + 1), [])
        for v in range(2, n + 1):   # a random spanning tree keeps g connected
            g.add_edge(v, rng.randint(1, v - 1))
        p = rng.choice((0.1, 0.25, 0.45))
        for a, b in combinations(range(1, n + 1), 2):
            if rng.random() < p:
                g.add_edge(a, b)
        palettes = {v: frozenset(rng.sample((1, 2, 3), 2)) for v in range(1, n + 1)}
        inst = Instance(g.copy(), Counter())
        inst.palettes = dict(palettes)
        verdict = _two_sat_component(inst, set(g.vertices()))
        want = oracle_list3color(g, palettes)
        assert (verdict == REJECTED) == (want is None), f"case {case}"
        if verdict == REJECTED:
            rejected += 1
            continue
        solved += 1
        assert verify_coloring(g, inst.colors), f"case {case}"
        assert all(inst.colors[v] in palettes[v] for v in g.vertices()), f"case {case}"
    assert solved > 1000 and rejected > 1000

    # anchored cases: one to three vertices are committed with keep first,
    # in a proper coloring, as the anchors are; each neighbour's two-color
    # palette lacks its color (F1), so an edge to a second anchor color is
    # dropped; the rule runs on each component, as _one_pass runs it
    rng = Random(708)
    anchored_solved = anchored_rejected = anchor_edges = 0
    for case in range(2_000):
        n = rng.randint(2, 12)
        edges = {(v, rng.randint(1, v - 1)) for v in range(2, n + 1)}
        p = rng.choice((0.1, 0.25, 0.45))
        edges |= {(b, a) for a, b in combinations(range(1, n + 1), 2) if rng.random() < p}
        nbrs = {v: set() for v in range(1, n + 1)}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        anchors = rng.sample(range(1, n + 1), rng.randint(1, min(3, n - 1)))
        acolor = {}
        for a in anchors:
            taken = {acolor[b] for b in nbrs[a] if b in acolor}
            acolor[a] = rng.choice(sorted({1, 2, 3} - taken))
        palettes = {}
        for v in sorted(set(nbrs) - set(acolor)):
            seen = sorted(a for a in nbrs[v] if a in acolor)
            if seen:
                c = acolor[seen[0]]
                edges -= {(max(a, v), min(a, v)) for a in seen if acolor[a] != c}
                palettes[v] = frozenset({1, 2, 3} - {c})
            else:
                palettes[v] = frozenset(rng.sample((1, 2, 3), 2))
        g = Graph.from_edges(range(1, n + 1), edges)
        inst = Instance(g.copy(), Counter())
        inst.anchor_order = tuple(anchors)
        inst.colors.update(acolor)
        inst.palettes = dict(palettes)
        verdict = None
        for comp in connected_components(g):
            verdict = _two_sat_component(inst, comp)
            if verdict == REJECTED:
                break
        want = oracle_list3color(g, {**palettes, **{a: {c} for a, c in acolor.items()}})
        assert (verdict == REJECTED) == (want is None), f"anchored case {case}"
        if verdict == REJECTED:
            anchored_rejected += 1
            continue
        anchored_solved += 1
        assert verify_coloring(g, inst.colors), f"anchored case {case}"
        assert all(inst.colors[a] == c for a, c in acolor.items()), f"anchored case {case}"
        assert all(inst.colors[v] in palettes[v] for v in palettes), f"anchored case {case}"
        anchor_edges += sum(1 for a in acolor for v in g.neighbors(a) if v in palettes)
    assert anchored_solved > 200 and anchored_rejected > 200 and anchor_edges > 1000
    elapsed = time.monotonic() - start
    print(f"PASS rule 6: 10000 two-color instances ({solved} solved, {rejected} "
          f"rejected) and 2000 with anchors ({anchored_solved} solved, "
          f"{anchored_rejected} rejected, {anchor_edges} solved edges to an anchor) "
          f"match the oracle in {elapsed:.1f}s")


# -- gate 8: cograph coloring against brute force ----------------------------------

def _random_cograph(rng, size):
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


def test_cograph_coloring_matches_brute_force():
    rng = Random(808)
    sat = unsat = 0
    for case in range(1000):
        g = _random_cograph(rng, rng.randint(1, 8))
        palettes = {v: frozenset(rng.sample((1, 2, 3), rng.randint(1, 3)))
                    for v in g.vertices()}
        root, _ = cograph.cotree_or_failure(g)
        got = cograph.list3color(root, palettes)
        want = oracle_list3color(g, palettes)
        assert (got is None) == (want is None), f"case {case}"
        if got is None:
            unsat += 1
            continue
        sat += 1
        assert verify_coloring(g, got), f"case {case}"
        assert all(got[v] in palettes[v] for v in g.vertices()), f"case {case}"
    assert sat > 100 and unsat > 100
    print(f"PASS cograph engine: 1000 pairs ({sat} colorable, {unsat} not) "
          f"match brute force")


# -- gate 9: scaling on large guaranteed instances ----------------------------------

def test_scaling_stays_polynomial_on_large_instances():
    times = []
    for n in (200, 500, 1000):
        g = cograph_composite(n, seed=3)
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            rep = solve(g, assume_class=True)
            dt = time.perf_counter() - t0
            assert rep.decision == "colorable"
            best = dt if best is None else min(best, dt)
        assert best < 60, f"n={n} took {best:.1f}s"
        times.append(best)
    assert times[0] <= times[1] <= times[2], f"runtime not monotone: {times}"
    slope = (math.log(times[2]) - math.log(times[0])) / (math.log(1000) - math.log(200))
    assert slope < 3, f"log-log slope {slope:.2f}"
    print(f"PASS scaling: n=200/500/1000 in "
          f"{times[0]:.2f}/{times[1]:.2f}/{times[2]:.2f}s, slope {slope:.2f}")


# -- gate 10: fixed verdicts on named graphs -----------------------------------------

def test_fixed_verdicts_on_named_graphs():
    for name in ("k4", "co_c7"):
        g = named_graph(name)
        assert oracle_list3color(g) is None
        assert solve(g).decision == "not_colorable", name
    for name, waive in (("c5", True), ("c7", False), ("c9", False),
                        ("petersen", True)):
        g = named_graph(name)
        assert oracle_list3color(g) is not None
        rep = solve(g, witness=True, assume_class=waive)
        assert rep.decision == "colorable", name
        assert verify_coloring(g, rep.witness), name
    print("PASS fixed verdicts: k4 and co_c7 rejected; "
          "c5, c7, c9, petersen colored and verified")


# -- gate 11: in-class scaling -----------------------------------------------------

def test_in_class_scaling_on_blowups_and_bicliques():
    # in class by construction (see testkit.cycle_blowup; K_{a,b} is a
    # bipartite cograph) and full of twins: the class check stays fast
    # only because the pattern scans run on the twin core
    timings = []
    cases = [(f"C7 blowup n={n}", cycle_blowup([n // 7 + d for d in (-3, 2, 0, 1, -1, 3, -2)]))
             for n in (70, 140, 280)]
    cases.append(("K_{50,50}", complete_bipartite(50, 50)))
    for name, g in cases:
        t0 = time.perf_counter()
        assert check_class(g) is None, name
        t1 = time.perf_counter()
        rep = solve(g, witness=True)
        t2 = time.perf_counter()
        assert rep.decision == "colorable", name
        assert verify_coloring(g, rep.witness), name
        assert t1 - t0 < 5 and t2 - t1 < 5, f"{name}: {t1 - t0:.2f}s, {t2 - t1:.2f}s"
        timings.append(f"{name} {t1 - t0:.3f}/{t2 - t1:.3f}s")
    print("PASS in-class scaling (check_class/solve): " + ", ".join(timings))


# -- gate 12: twin-free in-class scaling --------------------------------------------

def test_in_class_scaling_on_twin_free_graphs():
    # in class by construction (see testkit.crown_graph and co_bipartite)
    # and twin-free, so the twin core leaves the pattern scans at full size
    timings = []
    cases = [("S_50", crown_graph(50), True), ("S_100", crown_graph(100), True),
             ("co-bipartite n=100", co_bipartite(100, 0.5, split_seed(12, 100)), False)]
    for name, g, colorable in cases:
        t0 = time.perf_counter()
        assert check_class(g) is None, name
        t1 = time.perf_counter()
        rep = solve(g, witness=True)
        t2 = time.perf_counter()
        assert (rep.decision == "colorable") == colorable, name
        if colorable:
            assert verify_coloring(g, rep.witness), name
        assert t1 - t0 < 5 and t2 - t1 < 5, f"{name}: {t1 - t0:.2f}s, {t2 - t1:.2f}s"
        timings.append(f"{name} {t1 - t0:.3f}/{t2 - t1:.3f}s")
    # the class check alone, on cores the bipartite shortcut does not
    # settle: S_200+ is not bipartite, S_300's 2P4 scan meets 89,700 edges,
    # and the co-bipartite core is dense
    checks = []
    for name, g in (("S_200+", apex_crown(200)), ("S_300", crown_graph(300)),
                    ("co-bipartite n=300", co_bipartite(300, 0.3, 3))):
        t0 = time.perf_counter()
        assert check_class(g) is None, name
        dt = time.perf_counter() - t0
        assert dt < 1, f"{name}: check_class {dt:.2f}s"
        checks.append(f"{name} {dt:.3f}s")
    print("PASS twin-free in-class scaling (check_class/solve): " + ", ".join(timings)
          + "; check_class: " + ", ".join(checks))
