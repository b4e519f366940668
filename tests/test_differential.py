"""Smoke test of tools/differential.py on a 20-input slice of its corpus."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "differential.py"


def differential(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_differential_of_a_tree_with_itself(tmp_path):
    out = tmp_path / "run.jsonl"
    done = differential("--src", ROOT, "--out", out, "--limit", 20)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 20
    # the slice takes the families in turn, the last two of them the
    # disjoint unions and the 2P4 rests
    assert len({r["id"].split("/")[0] for r in records}) >= 5
    assert [r["id"] for r in records if r["id"].startswith("rest/")] == ["rest/0", "rest/1"]
    unions = [r for r in records if r["id"].startswith("union/")]
    assert [r["id"] for r in unions] == ["union/0/check", "union/0/assume"]
    # two members that hold a P4 each make a 2P4: the check refuses the
    # union, and only the waived half is solved
    assert all(r["class"][0] == "2p4" for r in unions)
    assert unions[0]["solve"][:2] == ["raise", "ClassViolationError"]
    assert unions[1]["solve"][0] == "colorable"
    assert all(set(r) == {"id", "input", "class", "cycles", "odd", "co_c7", "solve",
                          "witness_order"} for r in records)
    # the co-C7 family is in the slice, and the named co-C7 is refused by
    # the co-C7 preflight
    named = next(r for r in records if r["id"] == "co_c7/named")
    assert named["co_c7"] == [1, 7, 6, 5, 4, 3, 2], named
    assert named["solve"][0] == "not_colorable" and named["solve"][2]["preflight_co_c7"] == 1
    # the witness is kept as items sorted by id, its order apart
    for r in records:
        witness = r["solve"][1] if r["solve"][0] == "colorable" else None
        if witness is None:
            assert r["witness_order"] is None, r["id"]
        else:
            assert witness == sorted(witness), r["id"]
            assert sorted(r["witness_order"]) == [v for v, _ in witness], r["id"]
    same = differential("--compare", out, out)
    assert same.returncode == 0, same.stdout
    assert "solve: 0 differ" in same.stdout

    # one doctored field: the comparison names it and fails, unless it is
    # left out of --same
    records[7]["odd"] = ["raise", "ClassViolationError", "doctored", None]
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("".join(json.dumps(r) + "\n" for r in records))
    done = differential("--compare", out, doctored)
    assert done.returncode == 1
    assert f"odd: 1 differ ({records[7]['id']})" in done.stdout
    assert done.stdout.splitlines()[-1] == "differing fields: odd"
    assert differential("--compare", out, doctored, "--same", "class,solve").returncode == 0

    # a reordered witness differs in witness_order alone
    records = [json.loads(line) for line in out.read_text().splitlines()]
    moved = next(r for r in records if r["witness_order"] and len(r["witness_order"]) > 1)
    moved["witness_order"].reverse()
    doctored.write_text("".join(json.dumps(r) + "\n" for r in records))
    done = differential("--compare", out, doctored)
    assert done.returncode == 1
    assert f"witness_order: 1 differ ({moved['id']})" in done.stdout
    assert "solve: 0 differ" in done.stdout
    assert done.stdout.splitlines()[-1] == "differing fields: witness_order"
