"""CLI tests: exit codes, text output, and JSON reports against the schema."""

import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from hered3 import cli, solver
from hered3.errors import StageAssertionError
from hered3.formats import format_edge_list, parse_edge_list
from hered3.patterns import check_class, find_induced_cycle
from hered3.testkit import cograph_composite, erdos_renyi, split_seed, verify_coloring

SCHEMA = json.loads((Path(cli.__file__).parent / "report_schema.json").read_text())

C7_LETTERS = "a b\nb c\nc d\nd e\ne f\nf g\ng a\n"
C5_NUMBERS = "1 2\n2 3\n3 4\n4 5\n5 1\n"
K4_DIMACS = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
TRIANGLE = "x y\ny z\nz x\n"


def check_schema(value, schema, where="report"):
    """Validate against the subset of JSON Schema the report schema uses."""
    if "enum" in schema:
        assert value in schema["enum"], f"{where}: {value!r} not allowed"
    t = schema.get("type")
    if t == "object":
        assert isinstance(value, dict), where
        for key in schema.get("required", ()):
            assert key in value, f"{where}: missing required {key!r}"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, sub in value.items():
            if key in props:
                check_schema(sub, props[key], f"{where}.{key}")
            elif extra is False:
                raise AssertionError(f"{where}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                check_schema(sub, extra, f"{where}.{key}")
    elif t == "array":
        assert isinstance(value, list), where
        for i, item in enumerate(value):
            check_schema(item, schema.get("items", {}), f"{where}[{i}]")
    elif t == "string":
        assert isinstance(value, str), where
    elif t == "integer":
        assert isinstance(value, int) and not isinstance(value, bool), where
    elif t == "number":
        assert isinstance(value, (int, float)) and not isinstance(value, bool), where
    if "minimum" in schema:
        assert value >= schema["minimum"], where
    if "maximum" in schema:
        assert value <= schema["maximum"], where


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return _write


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    report = json.loads(out)
    check_schema(report, SCHEMA)
    return code, report, err


# -- solve --------------------------------------------------------------------

def test_solve_text_verdicts(write, capsys):
    code, out, _ = run(capsys, "solve", write("c7.edges", C7_LETTERS))
    assert code == 0
    assert out.strip() == "colorable"

    code, out, _ = run(capsys, "solve", write("k4.col", K4_DIMACS))
    assert code == 1
    assert out.strip() == "not_colorable"


def test_solve_witness_lines(write, capsys):
    path = write("c7.edges", C7_LETTERS)
    code, out, _ = run(capsys, "solve", path, "--witness")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "colorable"
    assert len(lines) == 8
    by_label = {}
    for line in lines[1:]:
        tag, label, color = line.split()
        assert tag == "v"
        by_label[label] = int(color)
    doc = parse_edge_list(C7_LETTERS)
    coloring = {v: by_label[lab] for v, lab in doc.labels.items()}
    assert verify_coloring(doc.graph, coloring)


def test_solve_json_report(write, capsys):
    code, report, _ = run_json(
        capsys, "solve", write("c7.edges", C7_LETTERS), "--witness", "--json")
    assert code == 0
    assert report["command"] == "solve"
    assert report["decision"] == "colorable"
    assert report["input"]["vertices"] == 7
    assert report["input"]["edges"] == 7
    assert report["input"]["format"] == "edge_list"
    assert set(report["witness"]) == set("abcdefg")
    assert report["stats"]["branches"] >= 0


def test_report_counts_an_isolated_vertex_and_a_duplicate_edge_once(write, capsys):
    # x has no edge, and "b a" repeats "a b"
    path = write("dup.edges", "a b\nb a\nb c\nx\n")
    for argv in (("solve", path, "--json"), ("check-class", path, "--json")):
        code, report, _ = run_json(capsys, *argv)
        assert code == 0
        assert report["input"]["vertices"] == 4
        assert report["input"]["edges"] == 2


def test_solve_class_violation(write, capsys):
    path = write("c5.edges", C5_NUMBERS)
    code, out, _ = run(capsys, "solve", path)
    assert code == 2
    assert "class violation: induced c5" in out

    code, report, _ = run_json(capsys, "solve", path, "--json")
    assert code == 2
    assert report["decision"] == "class_violation"
    assert report["class_witness"]["kind"] == "c5"
    assert len(report["class_witness"]["vertices"]) == 5


def test_solve_assume_class(write, capsys):
    path = write("c5.edges", C5_NUMBERS)
    code, out, _ = run(capsys, "solve", path, "--assume-class", "--witness")
    assert code == 0
    assert out.splitlines()[0] == "colorable"


# a waived draft of tests/test_acceptance.py's gate 5 (number 2108 of
# Random(505)): out of class (induced C5) and 3-colorable, and its 3-core
# holds the anchor cycle and the partial outer neighbor the stages refuse
STAGE_REFUSAL = ("1 2, 1 7, 1 11, 2 3, 2 10, 3 4, 3 11, 4 5, 4 9, 5 6, 5 8, 6 7, 6 9, "
                 "7 10, 8 10, 8 13, 8 17, 9 12, 9 16, 10 12, 10 13, 10 15, 11 16, "
                 "12 17, 14 17, 16 17")


def assert_waived_solve_answers(capsys, path):
    """solve --assume-class --witness exits 0 with a verified witness."""
    code, out, err = run(capsys, "solve", path, "--assume-class", "--witness")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "colorable"
    doc = parse_edge_list(Path(path).read_text())
    by_label = {label: int(color) for _, label, color in map(str.split, lines[1:])}
    assert verify_coloring(doc.graph, {v: by_label[lab] for v, lab in doc.labels.items()})
    return doc


def test_solve_stage_refusal_is_an_error(write, capsys):
    # out of class (induced C5) and 3-colorable; with the scan waived the
    # stage ladder refuses the shape, which must not read as "not colorable"
    path = write("draft.edges", "\n".join(STAGE_REFUSAL.split(", ")) + "\n")
    code, out, err = run(capsys, "solve", path, "--assume-class")
    assert code == 3
    assert out == ""
    assert err == "error: partial outer neighbor outside its allowed shape\n"
    # the input this test used before: the stages refuse it when the
    # anchored layer runs on the whole graph, and solve peels its quotient
    # whole and colors it
    g = erdos_renyi(16, 0.15, split_seed(9, 1209))
    with pytest.raises(StageAssertionError, match="^partial outer neighbor outside its allowed shape$"):
        solver._run_anchored(g, find_induced_cycle(g, 7), Counter())
    path = write("er.edges", format_edge_list(g))
    doc = assert_waived_solve_answers(capsys, path)
    code, report, _ = run_json(capsys, "solve", path, "--assume-class", "--json")
    assert code == 0
    assert report["stats"]["peeled"] == doc.graph.vertex_count() - report["stats"].get("false_twins", 0)


def test_solve_waived_two_part_border_is_a_stage_refusal(write, capsys):
    # colorable, with an induced 2P4; when the anchored layer runs on the
    # whole graph, the relevant component behind the anchor meets the rim at
    # two nonadjacent vertices, a stage refusal, and solve peels the
    # quotient whole and exits 0
    edges = ("1 2, 1 7, 1 13, 1 14, 2 3, 2 15, 2 16, 3 4, 3 13, 3 14, 4 5, 5 6, "
             "6 7, 7 16, 8 11, 8 12, 8 13, 9 11, 9 12, 9 14, 10 11, 10 12, "
             "11 12, 13 15, 14 16")
    path = write("border.edges", "\n".join(edges.split(", ")) + "\n")
    doc = assert_waived_solve_answers(capsys, path)
    with pytest.raises(StageAssertionError, match="^relevant component behind a disconnected border$"):
        solver._run_anchored(doc.graph, find_induced_cycle(doc.graph, 7), Counter())
    code, report, _ = run_json(capsys, "solve", path, "--assume-class", "--json")
    assert code == 0 and report["stats"]["peeled"] == 16


def test_solve_palette_annotations_warn(write, capsys):
    path = write("annotated.edges", "a b\nb c\na: 1\n")
    code, _, err = run(capsys, "solve", path)
    assert code == 0
    assert "palette annotations are ignored by solve" in err

    code, report, _ = run_json(capsys, "solve", path, "--json")
    assert any("palette annotations" in w for w in report["warnings"])


def test_palette_annotations_warn_in_check_class_and_count(write, capsys):
    # count-colorings counts plain 3-colorings: 12 on this path, where the
    # palette of a would allow 8
    path = write("annotated.edges", "a b\nb c\na: 1 2\n")
    for argv, want in ((("count-colorings", path), "12"), (("check-class", path), "in class")):
        code, out, err = run(capsys, *argv)
        assert (code, out.strip()) == (0, want)
        assert err == f"warning: palette annotations are ignored by {argv[0]}\n"
        code, report, _ = run_json(capsys, *argv, "--json")
        assert report["warnings"] == [f"palette annotations are ignored by {argv[0]}"]


def test_solve_reads_stdin(write, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(C7_LETTERS.encode())))
    code, report, _ = run_json(capsys, "solve", "-", "--json")
    assert code == 0
    assert report["input"]["source"] == "<stdin>"


def test_removed_thread_options_are_gone(write, capsys, monkeypatch):
    path = write("c7.edges", C7_LETTERS)
    for argv in (("solve", path, "--threads", "2"),
                 ("solve", path, "--seed-irrelevant"),
                 ("fuzz", "--threads", "2")):
        code, _, _ = run(capsys, *argv)
        assert code == 3, argv

    # the environment variable is no longer read
    monkeypatch.setenv("HERED3_THREADS", "lots")
    code, out, _ = run(capsys, "solve", path)
    assert code == 0 and out.strip() == "colorable"


# -- usage and parse failures ---------------------------------------------------

def test_usage_errors(write, capsys):
    assert cli.main([]) == 3
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 3
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "solve" in out


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "absent.edges"))
    assert code == 3
    assert err.startswith("error:")


def test_undecodable_input_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # exit 1 would read as "not colorable"; both paths decode strictly, so
    # stdin fails the same way under any error handler its wrapper has
    data = b"1 2\n2 \xff3\n"
    path = tmp_path / "latin.edges"
    path.write_bytes(data)
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: {path}: not UTF-8 text (byte 6)\n"

    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, "check-class", "-")
    assert (code, out) == (3, "")
    assert err == "error: <stdin>: not UTF-8 text (byte 6)\n"


def test_format_override_can_fail_parse(write, capsys):
    path = write("c7.edges", C7_LETTERS)
    code, _, err = run(capsys, "solve", path, "--format", "dimacs_col")
    assert code == 3
    assert "error: line 1" in err


# -- check-class ----------------------------------------------------------------

def test_check_class(write, capsys):
    code, out, _ = run(capsys, "check-class", write("c7.edges", C7_LETTERS))
    assert code == 0
    assert out.strip() == "in class"

    code, report, _ = run_json(
        capsys, "check-class", write("c5.edges", C5_NUMBERS), "--json")
    assert code == 2
    assert report["decision"] == "class_violation"
    assert report["class_witness"]["kind"] == "c5"

    # a composite with blobs on five spine vertices holds a 2P4, and the
    # witness is the least hit of the (b, c, a, d) scan on its labels
    composite = write("composite.edges", format_edge_list(cograph_composite(60, 1)))
    code, out, _ = run(capsys, "check-class", composite)
    assert code == 2
    assert out.strip() == "class violation: induced 2p4 on 7 1 2 15 27 4 5 31"
    code, report, _ = run_json(capsys, "check-class", composite, "--json")
    assert code == 2
    assert report["class_witness"] == {
        "kind": "2p4", "vertices": ["7", "1", "2", "15", "27", "4", "5", "31"]}


# -- count-colorings --------------------------------------------------------------

def test_count_colorings(write, capsys):
    code, out, _ = run(capsys, "count-colorings", write("tri.edges", TRIANGLE))
    assert code == 0
    assert out.strip() == "6"

    code, out, _ = run(capsys, "count-colorings", write("k4.col", K4_DIMACS))
    assert code == 1
    assert out.strip() == "0"

    code, report, _ = run_json(
        capsys, "count-colorings", write("tri.edges", TRIANGLE), "--json")
    assert report["decision"] == "count"
    assert report["count"] == 6


def test_count_colorings_size_cap(write, capsys):
    text = "\n".join(f"n{i:02d}" for i in range(21)) + "\n"
    code, _, err = run(capsys, "count-colorings", write("big.edges", text))
    assert code == 3
    assert "20 vertices" in err


# -- generate ---------------------------------------------------------------------

def test_generate_named(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "named", "--name", "petersen")
    assert code == 0
    doc = parse_edge_list(out)
    assert doc.graph.vertex_count() == 10
    assert len(list(doc.graph.edges())) == 15

    code, out, _ = run(capsys, "generate", "--kind", "named", "--name", "petersen",
                       "--output-format", "dimacs_col")
    assert code == 0
    assert out.splitlines()[0] == "p edge 10 15"


def test_generate_is_seeded(capsys):
    args = ("generate", "--kind", "erdos-renyi", "--n", "10", "--p", "0.3")
    _, first, _ = run(capsys, *args, "--seed", "4")
    _, again, _ = run(capsys, *args, "--seed", "4")
    _, other, _ = run(capsys, *args, "--seed", "5")
    assert first == again
    assert first != other


def test_generate_gadgets_and_composite(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "c7-gadget", "--seed", "3")
    assert code == 0
    g = parse_edge_list(out).graph
    assert check_class(g) is None
    assert find_induced_cycle(g, 7) is not None

    code, out, _ = run(capsys, "generate", "--kind", "cograph-composite",
                       "--n", "30", "--seed", "1")
    assert code == 0
    assert parse_edge_list(out).graph.vertex_count() == 30


def test_generate_json_report(capsys):
    code, report, _ = run_json(capsys, "generate", "--kind", "named",
                               "--name", "k4", "--json")
    assert code == 0
    assert report["decision"] == "generated"
    assert "graph" in report["detail"]


@pytest.mark.parametrize("argv", [
    ("generate", "--kind", "erdos-renyi", "--p", "0.3"),
    ("generate", "--kind", "cograph-composite"),
    ("generate", "--kind", "cograph-composite", "--n", "5"),
    ("generate", "--kind", "named"),
    ("generate", "--kind", "named", "--name", "mystery"),
    ("generate", "--kind", "erdos-renyi", "--n", "-3", "--p", "0.5"),
    ("generate", "--kind", "erdos-renyi", "--n", "5", "--p", "1.5"),
    ("generate", "--kind", "erdos-renyi", "--n", "5", "--p", "-1"),
    ("generate", "--kind", "erdos-renyi", "--n", "5", "--p", "nan"),
])
def test_generate_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:")


# -- fuzz -------------------------------------------------------------------------

def test_fuzz_clean_run(tmp_path, capsys):
    code, report, _ = run_json(
        capsys, "fuzz", "--budget", "15", "--seed", "2",
        "--artifact-dir", str(tmp_path), "--json")
    assert code == 0
    assert report["decision"] == "fuzz_clean"
    assert report["detail"]["cases"] == 15
    assert report["detail"]["mismatches"] == 0
    assert list(tmp_path.iterdir()) == []

    code, out, _ = run(capsys, "fuzz", "--budget", "6", "--seed", "2",
                       "--artifact-dir", str(tmp_path))
    assert code == 0
    assert "6 cases" in out


def test_fuzz_gadget_generator(tmp_path, capsys, monkeypatch):
    # each gadget is thickened with its own seed, so its 3-core often keeps
    # the anchor cycle and the fuzz reaches the single-anchor stage and the
    # cut reduction; this is CI's run
    calls = dict.fromkeys(("_branch_single_anchor", "cut_reduction"), 0)
    for name in calls:
        def counted(*args, name=name, real=getattr(solver, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(solver, name, counted)
    code, report, _ = run_json(
        capsys, "fuzz", "--budget", "300", "--seed", "5", "--kind", "c7-gadget",
        "--artifact-dir", str(tmp_path), "--json")
    assert code == 0 and report["decision"] == "fuzz_clean"
    assert report["detail"]["in_class"] == 300
    assert all(calls.values()), calls


def test_fuzz_sizes_must_be_integers(tmp_path, capsys):
    # exit 1 would read as "the fuzzer found a mismatch"; a gadget kind
    # sizes itself, so --sizes with one would be ignored
    for flags in (("--sizes", "8,x"), ("--sizes", "8,0"), ("--sizes", ","),
                  ("--kind", "c7-gadget", "--sizes", "9999999"),
                  ("--kind", "c9-gadget", "--sizes", "9999999")):
        code, out, err = run(capsys, "fuzz", "--budget", "2", *flags,
                             "--artifact-dir", str(tmp_path))
        assert (code, out) == (3, ""), flags
        assert err.startswith("error: --sizes "), flags


def test_fuzz_budget_must_be_positive(tmp_path, capsys):
    # exit 0 would read as a clean run of no cases
    for budget in ("0", "-1"):
        code, out, err = run(capsys, "fuzz", "--budget", budget,
                             "--artifact-dir", str(tmp_path))
        assert (code, out) == (3, ""), budget
        assert err.startswith("error: --budget "), budget
