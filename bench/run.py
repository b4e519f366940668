"""The hered3 benchmark: seeded workloads, checked answers, named metrics.

    python3 bench/run.py --workload refute --seed 1 --seconds 20 --trace 0

A request is one instance's edge-list text: `formats.parse_graph`, then
`hered3.solve(graph, witness=True, assume_class=...)`.  The load is a
closed loop, one caller in one process and thread.  Every answer is checked
against the workload's known answer outside the timed span; a wrong
verdict, a missing or improper witness, a wrong `check_class` answer or an
exception counts as a failed request, and the command then exits 1.

The work of a run is fixed by the workload and `--seconds`, never by how
fast the program is.  With `--trace 0` the run makes a fixed number of
passes over the workload's cases; in each pass every case is solved and
then checked with `check_class` alone (some `composite` cases are only
checked).  It reports the end-to-end metrics, a case's latency being its
fastest request over the passes.  With `--trace 1` it makes one pass,
running every request twice in a row, untraced and then with spans around
every layer (see spans.py), and reports per-layer means per request plus
the tracing overhead.  Requests are timed in the calling thread's CPU
time, scaled to the machine's reference speed (see `Clock`).  Both print
one metric per line, then a JSON line with `correct`, `attempted`,
`failed` and `metrics`.  Traced runs also write their spans to
`.bench_spans/<workload>-seed<seed>.tsv`.

The benchmark imports `hered3` from the checkout's `src`; without it the
command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import thread_time_ns

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_spans"

SETUP_REPEATS = 5

# Passes over the workload's cases in a `--trace 0` run of SIZED_SECONDS.
# With the pools in workloads.PARAMS they make such a run take 15 to 25
# seconds of wall time at the seed commit on the shared 2-core x86-64 box
# the benchmark was built on; other `--seconds` scale the passes.  The
# number of requests per case never depends on program speed.
SIZED_SECONDS = 20
PASSES = {"gadgets": 10, "refute": 3, "blowups": 2, "composite": 3}

END_TO_END = {
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "graphs_per_s": "1/s",
    "check_class_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics taken from spans: metric -> (span name, "ms" for mean
# self time per request or "calls" for mean calls per request).
SPAN_METRICS = {
    "patterns.c5_ms": ("patterns.c5", "ms"),
    "patterns.2p4_ms": ("patterns.2p4", "ms"),
    "patterns.2p4_cotree_tests": ("cograph.cotree@patterns.2p4", "calls"),
    "patterns.co_c7_ms": ("patterns.co_c7", "ms"),
    "patterns.odd_nbhd_ms": ("patterns.odd_nbhd", "ms"),
    "patterns.anchor_search_ms": ("patterns.anchor_search", "ms"),
    "reductions.clones": ("reductions.clone", "calls"),
    "reductions.clone_ms": ("reductions.clone", "ms"),
    "reductions.fixpoint_ms": ("reductions.fixpoint", "ms"),
    "reductions.fixpoint_calls": ("reductions.fixpoint", "calls"),
    "reductions.replay_ms": ("reductions.replay", "ms"),
    "solver.stage_ms": ("solver.stage", "ms"),
    "solver.backtrack_ms": ("solver.backtrack", "ms"),
    "solver.verify_ms": ("solver.verify", "ms"),
    "solver.self_ms": ("solver.solve", "ms"),
    "cograph.list3color_ms": ("cograph.list3color", "ms"),
    "cograph.list3color_calls": ("cograph.list3color", "calls"),
    "cograph.cotree_ms": ("cograph.cotree", "ms"),
    "cograph.cotree_calls": ("cograph.cotree", "calls"),
    "twosat.solve_ms": ("twosat.solve", "ms"),
    "twosat.calls": ("twosat.solve", "calls"),
    "formats.parse_ms": ("formats.parse", "ms"),
}

# Per-layer metrics counted elsewhere: from the tracer, from
# SolveReport.stats (exact counts, summed by key prefix), or derived.
OTHER_LAYER_UNITS = {
    "patterns.anchor_search_misses": "count",
    "solver.branches": "count",
    "solver.branch_yield": "ratio",
    "solver.stage_firings": "count",
    "reductions.rule_firings": "count",
    "trace_overhead_frac": "ratio",
    "trace_uncovered_frac": "ratio",
}

PER_LAYER = {
    **{m: ("ms" if kind == "ms" else "count") for m, (_, kind) in SPAN_METRICS.items()},
    **OTHER_LAYER_UNITS,
}

# a 7-cycle: one cheap request that runs every lazy path before timing
WARMUP_TEXT = "a b\nb c\nc d\nd e\ne f\nf g\ng a\n"


# -- machine speed ---------------------------------------------------------------

# The reference loop's time at the build machine's usual fast speed.
REFERENCE_NS = 500_000
REFERENCE_ITERATIONS = 2500


def reference_ns() -> int:
    """CPU time of a fixed loop of dict and set work, the program's staple."""
    start = thread_time_ns()
    seen, counts = set(), {}
    for i in range(REFERENCE_ITERATIONS):
        k = i * 7919 % 1009
        counts[k] = counts.get(k, 0) + 1
        if k not in seen:
            seen.add(k)
    return thread_time_ns() - start


class Clock:
    """Times scaled to the machine's reference speed.

    The shared 2-core machine the benchmark was built on ran a fixed loop
    anywhere between 1.0x and 1.8x its fastest time, in stretches of
    seconds, in CPU time as in wall time.  The reference loop runs before
    and after every timed piece of work, and the work's time is multiplied
    by REFERENCE_NS over the mean of the two.  On `refute` that cut the
    variation of one case's time from pass to pass from 20% to 7%.
    """

    def __init__(self) -> None:
        self.last = reference_ns()

    def scaled(self, ns: int) -> float:
        """`ns`, just measured since the previous call, at reference speed."""
        before, self.last = self.last, reference_ns()
        return ns * 2 * REFERENCE_NS / (before + self.last)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import hered3 from the checkout's src.  Returns (modules, seconds at
    reference speed)."""
    src = ROOT / "src"
    if not (src / "hered3" / "__init__.py").is_file():
        raise ProgramMissing(f"no hered3 package under {src}")
    sys.path.insert(0, str(src))
    clock = Clock()
    start = thread_time_ns()
    hered3 = importlib.import_module("hered3")
    mods = {"hered3": hered3, "testkit": importlib.import_module("hered3.testkit")}
    for name in ("formats", "patterns", "solver", "reductions", "cograph", "twosat"):
        try:
            mods[name] = importlib.import_module(f"hered3.{name}")
        except ModuleNotFoundError:
            mods[name] = None
    import_s = clock.scaled(thread_time_ns() - start) / 1e9
    if Path(hered3.__file__).resolve().parent != (src / "hered3").resolve():
        raise ProgramMissing(f"hered3 was imported from {hered3.__file__}, not {src}")
    return mods, import_s


# -- requests -----------------------------------------------------------------


def solve_request(mods, case, tracer=None, rid=0):
    """Parse and solve one case.  Returns (ns, problem or None, report)."""
    hered3 = mods["hered3"]
    report = doc = None
    start = thread_time_ns()
    try:
        with tracer.request(rid) if tracer else nullcontext():
            doc = mods["formats"].parse_graph(case.text)
            with tracer.span("solver.solve") if tracer else nullcontext():
                report = hered3.solve(doc.graph, witness=True, assume_class=case.assume_class)
    except Exception as exc:  # a crash is a failed request, not a failed benchmark
        return thread_time_ns() - start, f"{type(exc).__name__}: {exc}", None
    ns = thread_time_ns() - start
    return ns, _check_answer(mods["testkit"], case, doc, report), report


def _check_answer(testkit, case, doc, report):
    want = "colorable" if case.colorable else "not_colorable"
    if report.decision != want:
        return f"decision {report.decision}, known answer {want}"
    if not case.colorable:
        return None
    if report.witness is None:
        return "colorable without a witness"
    # check on the generated graph, not the parsed one, so that a parse that
    # lost an edge or a vertex cannot pass
    coloring = {case.vertex_of.get(doc.label(v)): c for v, c in report.witness.items()}
    if not testkit.verify_coloring(case.graph, coloring):
        return "witness fails testkit.verify_coloring"
    return None


def class_request(mods, case):
    """Parse, then time check_class alone.  Returns (ns, problem or None)."""
    start = None
    try:
        graph = mods["formats"].parse_graph(case.text).graph
        start = thread_time_ns()
        found = mods["hered3"].check_class(graph)
    except Exception as exc:
        ns = 0 if start is None else thread_time_ns() - start
        return ns, f"{type(exc).__name__}: {exc}"
    ns = thread_time_ns() - start
    if (found is None) != case.in_class:
        return ns, f"check_class says in_class={found is None}, known {case.in_class}"
    return ns, None


class Tally:
    """Attempted and failed requests, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, family: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{family}: {problem}")


# -- statistics -----------------------------------------------------------------


def rank(q: float, n: int) -> int:
    """Nearest rank of quantile q among n sorted values (1-based)."""
    return max(1, math.ceil(round(q * n, 6)))


def tail_quantile(n: int) -> float:
    """p99 when it leaves ten of n values beyond it, else p90.  It depends
    only on the case count, so it is fixed per workload."""
    return 0.99 if n - rank(0.99, n) >= 10 else 0.90


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


# -- the two kinds of run -----------------------------------------------------


def set_up(workloads, name: str, seed: int, import_s: float):
    """Build the cases SETUP_REPEATS times; set-up is import + median build."""
    builds = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        clock = Clock()
        start = thread_time_ns()
        cases = workloads.build(name, seed)
        builds.append(clock.scaled(thread_time_ns() - start) / 1e9)
    return import_s + statistics.median(builds), cases


def warm_up(mods) -> None:
    doc = mods["formats"].parse_graph(WARMUP_TEXT)
    mods["hered3"].solve(doc.graph, witness=True)


def end_to_end_run(mods, cases, passes, setup_s, tally):
    """`passes` passes over the cases; in each, every case is solved (unless
    it is marked check-only), then checked with check_class alone.  A
    case's latency is its fastest request over the passes: the shared
    machine runs slower in stretches of seconds, and the passes spread a
    case's requests across the run."""
    solve = {idx: [] for idx, case in enumerate(cases) if case.solved}
    check = [[] for _ in cases]
    gc.collect()
    clock = Clock()
    for _ in range(passes):
        for idx, case in enumerate(cases):
            if case.solved:
                ns, problem, _ = solve_request(mods, case)
                solve[idx].append(clock.scaled(ns))
                tally.add(case.family, problem)
            ns, problem = class_request(mods, case)
            check[idx].append(clock.scaled(ns))
            tally.add(case.family, problem)

    solve_ms = sorted(min(times) / 1e6 for times in solve.values())
    check_ms = sorted(min(times) / 1e6 for times in check)
    n = len(solve_ms)
    q = tail_quantile(n)
    tail_rank = rank(q, n)
    solves = n * passes
    metrics = {
        "solve_p50_ms": statistics.median(solve_ms),
        "solve_tail_ms": solve_ms[tail_rank - 1],
        "graphs_per_s": solves / (sum(map(sum, solve.values())) / 1e9),
        "check_class_p50_ms": statistics.median(check_ms),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "solve_p50_ms": f"{n} cases, fastest of {passes} solves each",
        "solve_tail_ms": f"p{round(q * 100)} of {n} cases, {n - tail_rank} beyond it",
        "graphs_per_s": f"{solves} solves over their time",
        "check_class_p50_ms": f"{len(cases)} cases, fastest of {passes} calls each",
    }
    return metrics, notes


def traced_run(mods, spans, cases, tally, span_path):
    """One pass, each request twice in a row, untraced then traced: the
    untraced twin is the reference for the tracing overhead, and both see
    the same stretch of machine time."""
    tracer = spans.Tracer()
    plain_ns, traced_ns, scale, reports = [], [], [], []
    gc.collect()
    clock = Clock()
    for rid, case in enumerate(c for c in cases if c.solved):
        ns, problem, _ = solve_request(mods, case)
        plain_ns.append(clock.scaled(ns))
        tally.add(case.family, problem)
        tracer.install(mods)
        try:
            ns, problem, report = solve_request(mods, case, tracer, rid)
        finally:
            tracer.restore()
        traced_ns.append(clock.scaled(ns))
        scale.append(traced_ns[-1] / ns)
        reports.append((case.family, report))
        tally.add(case.family, problem)
    tracer.write(span_path)

    n = len(traced_ns)
    totals = tracer.totals(scale)
    metrics = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        calls, self_ns = totals.get(span, (0, 0))
        metrics[metric] = self_ns / 1e6 / n if kind == "ms" else calls / n
    stats = [r.stats for _, r in reports if r is not None]

    def stat_sum(prefix):
        return sum(v for s in stats for k, v in s.items() if k.startswith(prefix))

    branches = stat_sum("branches")
    wins = totals.get("reductions.replay", (0, 0))[0]
    metrics["patterns.anchor_search_misses"] = tracer.misses / n
    metrics["solver.branches"] = branches / n
    metrics["solver.branch_yield"] = wins / branches if branches else 0.0
    metrics["solver.stage_firings"] = stat_sum("stage_") / n
    metrics["reductions.rule_firings"] = stat_sum("rule_") / n
    metrics["trace_overhead_frac"] = sum(traced_ns) / sum(plain_ns) - 1
    # time inside a request that no layer span covers: the request's own
    # glue and solver code outside every wrapped function
    glue_ns = totals.get("request", (0, 0))[1]
    solver_ns = totals.get("solver.solve", (0, 0))[1]
    metrics["trace_uncovered_frac"] = (glue_ns + solver_ns) / sum(traced_ns)

    absent = tracer.absent
    notes = {m: "absent" for m, (span, _) in SPAN_METRICS.items() if span in absent}
    if "reductions.replay" in absent:
        notes["solver.branch_yield"] = "absent"

    per_family: dict = {}
    for family, report in reports:
        if report is not None:
            per_family.setdefault(family, []).append(report.stats.get("branches", 0))
    print(f"traced {n} requests; spans in {span_path}")
    print("solver.branches per request by family: "
          + ", ".join(f"{f} {statistics.mean(b):g}" for f, b in sorted(per_family.items())))
    print(f"outside the layer spans: {(glue_ns + solver_ns) / 1e6:.3f} ms of "
          f"{sum(traced_ns) / 1e6:.3f} ms traced request time (request glue "
          f"{glue_ns / 1e6:.3f} ms, solver.solve self {solver_ns / 1e6:.3f} ms)")
    if absent:
        print("absent from the program: " + ", ".join(sorted(absent)))
    return metrics, notes


# -- command line ---------------------------------------------------------------


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    try:
        mods, import_s = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    setup_s, cases = set_up(workloads, args.workload, args.seed, import_s)
    problems = workloads.oracle_check(cases)
    if problems:
        print("bench: generated cases disagree with the oracle:", *problems, sep="\n  ",
              file=sys.stderr)
        return 2
    warm_up(mods)

    tally = Tally()
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} cases, "
          f"--seconds {args.seconds:g}, trace {args.trace}")
    if args.trace:
        span_path = SPAN_DIR / f"{args.workload}-seed{args.seed}.tsv"
        metrics, notes = traced_run(mods, spans, cases, tally, span_path)
        units = PER_LAYER
    else:
        passes = max(1, round(PASSES[args.workload] * args.seconds / SIZED_SECONDS))
        metrics, notes = end_to_end_run(mods, cases, passes, setup_s, tally)
        units = END_TO_END
    for metric, unit in units.items():
        note = notes.get(metric)
        print(f"{metric} {metrics[metric]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_frac {tally.failed / tally.attempted:.6g} ratio  "
          f"({tally.failed} of {tally.attempted} requests)")
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
