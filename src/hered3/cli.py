"""Command-line front end.

Subcommands: solve, check-class, generate, fuzz, count-colorings.
Exit codes: 0 colorable/ok, 1 not colorable (or failing fuzz run),
2 class violation, 3 usage or parse error, or a stage refusal under
--assume-class.  The input's text decides its format (`formats.parse_graph`);
no option overrides the sniff.

Start-up is part of every run's wall time, so this module imports only what
solve and check-class need: `testkit` loads on first use, in the three
commands that call it (count-colorings, generate, fuzz), and `json` only
when --json is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import formats, patterns
from .errors import (ClassViolationError, GenerationError, InputError, ParseError,
                     StageAssertionError)
from .formats import GraphDocument
from .graph import Graph
from .solver import solve

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CLASS = 2
EXIT_USAGE = 3


def _read_document(args) -> GraphDocument:
    """Parse the input file or stdin as UTF-8 text.

    Both are read as bytes and decoded strictly, so an undecodable input
    is a ParseError whatever the locale or the interpreter's UTF-8 mode.
    One leading byte-order mark is dropped after the decode, so a decode
    error still names its byte offset in the file.  The text is sniffed as
    DIMACS or as an edge list; an edge-list line with ":" outside its
    comment, such as the palette annotation `a: 1 3`, is a ParseError.
    """
    if args.path == "-":
        data = sys.stdin.buffer.read()
        source = "<stdin>"
    else:
        data = Path(args.path).read_bytes()
        source = args.path
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not UTF-8 text (byte {exc.start})") from exc
    text = text.removeprefix("\ufeff")
    doc = formats.parse_graph(text)
    doc.source = source
    return doc


def _base_report(command: str, doc: GraphDocument) -> dict:
    report = {
        "command": command,
        "input": {
            "source": doc.source,
            "format": doc.format,
            "vertices": doc.graph.vertex_count(),
            "edges": doc.graph.edge_count(),
        },
        "stats": {"branches": 0, "reductions": 0, "millis": 0},
    }
    if doc.warnings:
        report["warnings"] = list(doc.warnings)
    return report


def _emit(args, report: dict, text_lines: list) -> None:
    """Write the report.  A closed stdout (`| head -c 1`) ends it quietly:
    stdout goes to the null device, and the command keeps its exit code."""
    try:
        if args.json:
            import json
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    for w in report.get("warnings", ()):
        print(f"warning: {w}", file=sys.stderr)


def _witness_lines(doc: GraphDocument, coloring: dict) -> list:
    return [f"v {doc.label(v)} {coloring[v]}" for v in sorted(coloring)]


def _class_violation(args, report: dict, doc: GraphDocument, witness) -> int:
    """Report witness, an induced forbidden pattern, and return EXIT_CLASS."""
    labels = [doc.label(v) for v in witness.vertices()]
    report["decision"] = "class_violation"
    report["class_witness"] = {"kind": witness.kind, "vertices": labels}
    _emit(args, report, [f"class violation: induced {witness.kind} on " + " ".join(labels)])
    return EXIT_CLASS


# -- subcommands ---------------------------------------------------------------


def _cmd_solve(args) -> int:
    doc = _read_document(args)
    report = _base_report("solve", doc)
    try:
        res = solve(doc.graph, witness=args.witness,
                    assume_class=args.assume_class)
    except ClassViolationError as exc:
        return _class_violation(args, report, doc, exc.witness)
    report["decision"] = res.decision
    report["stats"].update(res.stats)
    lines = [res.decision]
    if res.witness is not None:
        report["witness"] = {doc.label(v): c for v, c in res.witness.items()}
        lines += _witness_lines(doc, res.witness)
    _emit(args, report, lines)
    return EXIT_OK if res.decision == "colorable" else EXIT_NEGATIVE


def _cmd_check_class(args) -> int:
    doc = _read_document(args)
    report = _base_report("check-class", doc)
    witness = patterns.check_class(doc.graph)
    if witness is None:
        report["decision"] = "in_class"
        _emit(args, report, ["in class"])
        return EXIT_OK
    return _class_violation(args, report, doc, witness)


def _cmd_count(args) -> int:
    doc = _read_document(args)
    if doc.graph.vertex_count() > 20:
        raise InputError("count-colorings is limited to 20 vertices")
    report = _base_report("count-colorings", doc)
    from . import testkit
    n = testkit.count_proper_3colorings(doc.graph)
    report["decision"] = "count"
    report["count"] = n
    _emit(args, report, [str(n)])
    return EXIT_OK if n > 0 else EXIT_NEGATIVE


def _generate_graph(args):
    from . import testkit
    kind = args.kind
    if kind == "erdos-renyi":
        if args.n is None or args.p is None:
            raise InputError("erdos-renyi needs --n and --p")
        return testkit.erdos_renyi(args.n, args.p, args.seed)
    if kind == "c7-gadget":
        return testkit.c7_gadget(args.seed)
    if kind == "c9-gadget":
        return testkit.c9_gadget(args.seed)
    if kind == "cograph-composite":
        if args.n is None:
            raise InputError("cograph-composite needs --n")
        return testkit.cograph_composite(args.n, args.seed)
    if kind == "named":
        if not args.name:
            raise InputError("named needs --name")
        return testkit.named_graph(args.name)
    raise InputError(f"unknown generator kind: {kind}")


def _cmd_generate(args) -> int:
    try:
        g = _generate_graph(args)
    except ValueError as exc:
        # generator rejections (unknown name, undersized composite) are
        # usage errors, not crashes
        raise InputError(str(exc)) from exc
    text = (formats.format_dimacs(g) if args.output_format == "dimacs_col"
            else formats.format_edge_list(g))
    doc = GraphDocument(args.output_format, g)
    report = _base_report("generate", doc)
    report["input"]["source"] = f"generator:{args.kind}"
    report["decision"] = "generated"
    report["detail"] = {"graph": text}
    _emit(args, report, [text.rstrip("\n")])
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    if args.budget < 1:
        raise InputError("--budget must be a positive number of cases")
    if args.sizes is not None and args.kind != "erdos-renyi":
        raise InputError(f"--sizes applies to --kind erdos-renyi only, not {args.kind}")
    try:
        sizes = tuple(int(t) for t in (args.sizes or "8,10,12,14,16").split(",") if t)
    except ValueError as exc:
        raise InputError("--sizes entries must be integers") from exc
    if not sizes or any(n < 1 for n in sizes):
        raise InputError("--sizes needs one or more positive entries")
    from . import testkit
    generator = None
    if args.kind != "erdos-renyi":
        # the gadget kinds size themselves; a bare gadget peels away whole,
        # so each one is thickened with its own seed, which often keeps its
        # anchor cycle, and with it the stages, in the 3-core
        gadget = testkit.c7_gadget if args.kind == "c7-gadget" else testkit.c9_gadget
        generator = lambda seed: testkit.thicken(gadget(seed), seed)
    rep = testkit.differential_fuzz(args.budget, args.seed, sizes=sizes,
                                    generator=generator)
    report = _base_report("fuzz", GraphDocument("edge_list", Graph(), source=f"fuzz:{args.kind}"))
    report["stats"]["millis"] = round(rep.elapsed * 1000, 3)
    bad = rep.mismatches + rep.violations
    report["decision"] = "fuzz_clean" if not bad else "fuzz_mismatch"
    report["detail"] = {
        "cases": rep.cases,
        "in_class": rep.in_class,
        "mismatches": len(rep.mismatches),
        "violations": len(rep.violations),
        "witness_checked": rep.witness_checked,
        "elapsed": rep.elapsed,
    }
    artifacts = []
    for i, case in enumerate(bad):
        g = testkit.graph_from_record(case)
        path = Path(args.artifact_dir) / f"fuzz_mismatch_{i}.edges"
        path.write_text(formats.format_edge_list(g))
        artifacts.append(str(path))
    if artifacts:
        report["detail"]["artifacts"] = artifacts
    lines = [rep.summary()]
    lines += [f"wrote {p}" for p in artifacts]
    _emit(args, report, lines)
    return EXIT_OK if not bad else EXIT_NEGATIVE


# -- argument plumbing ---------------------------------------------------------


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="input graph file, or - for stdin; DIMACS or edge list")
    p.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hered3",
        description="Decide 3-colorability on graphs with no induced C5 or 2P4.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide 3-colorability")
    _add_input_args(p)
    p.add_argument("--witness", action="store_true",
                   help="print the verified coloring behind a colorable answer")
    p.add_argument("--assume-class", action="store_true",
                   help="skip the class membership scan")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-class", help="test membership in the supported class")
    _add_input_args(p)
    p.set_defaults(func=_cmd_check_class)

    p = sub.add_parser("count-colorings", help="count proper 3-colorings (n <= 20)")
    _add_input_args(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("generate", help="emit a generated instance")
    p.add_argument("--kind", required=True,
                   choices=("erdos-renyi", "c7-gadget", "c9-gadget",
                            "cograph-composite", "named"))
    p.add_argument("--n", type=int, default=None, help="vertex count")
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--name", default=None,
                   help="catalog name for --kind named (petersen, k4, co_c7, c7, ...)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-format", choices=("edge_list", "dimacs_col"),
                   default="edge_list")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fuzz", help="run the differential fuzzer")
    p.add_argument("--budget", type=int, default=200, help="number of cases")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default=None,
                   help="comma-separated vertex counts for --kind erdos-renyi "
                        "(default 8,10,12,14,16)")
    p.add_argument("--kind", choices=("erdos-renyi", "c7-gadget", "c9-gadget"),
                   default="erdos-renyi")
    p.add_argument("--artifact-dir", default=".",
                   help="where to write mismatch replay files")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_fuzz)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; the contract reserves 2 for class
        # violations, so remap.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, InputError, GenerationError, StageAssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
