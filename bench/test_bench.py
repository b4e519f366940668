"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench

Every metric prints with its unit, the JSON line carries exactly the
declared metrics, and a deliberately wrong known answer shows up in
failed_frac and the exit code.
"""

import json
from types import SimpleNamespace

import pytest

import run

run.load_program()  # puts the checkout's src on the path for workloads
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "gadgets": {"pool": 4},
    "refute": {"pool": 4},
    "blowups": {"rounds": 1, "slots": (("kab", 24), ("c7", 14), ("c9", 18))},
    "composite": {"sizes": (40, 50), "rounds": 1, "labelings": 2},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, params in TINY.items():
        monkeypatch.setitem(workloads.PARAMS, name, {**workloads.PARAMS[name], **params})
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(tiny, capsys, workload, trace):
    code, lines, result = bench(capsys, workload, trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0
    # one pass at this --seconds: the request count is fixed by the cases alone
    cases = workloads.build(workload, 3)
    solved = sum(case.solved for case in cases)
    assert result["attempted"] == (2 * solved if trace else solved + len(cases))
    assert set(result["metrics"]) == set(units)
    for name, unit in {**units, "failed_frac": "ratio"}.items():
        assert any(line.startswith(f"{name} ") and line.split()[2] == unit for line in lines), name
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
    if trace:
        # the named layer spans cover part of every request, never more than all of it
        assert 0 <= result["metrics"]["trace_uncovered_frac"]["value"] < 1


@pytest.mark.parametrize("field", ["colorable", "in_class"])
def test_wrong_known_answer_counts_as_failed(tiny, monkeypatch, capsys, field):
    build = workloads.build

    def wrong(name, seed):
        cases = build(name, seed)
        kab = next(c for c in cases if c.family == "blowup_kab")  # above the oracle's limit
        setattr(kab, field, not getattr(kab, field))
        return cases

    monkeypatch.setattr(workloads, "build", wrong)
    code, lines, result = bench(capsys, "blowups", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    failed_frac = next(line for line in lines if line.startswith("failed_frac "))
    assert float(failed_frac.split()[1]) > 0


def test_missing_program_exits_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "refute", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_deleted_targets_are_reported_absent():
    mods, _ = run.load_program()
    solver = SimpleNamespace(**{k: v for k, v in vars(mods["solver"]).items() if k != "_advance"})
    tracer = spans.Tracer()
    tracer.install({**mods, "solver": solver, "twosat": None})
    try:
        assert {"solver.stage", "twosat.solve"} <= set(tracer.absent)
    finally:
        tracer.restore()
    assert mods["cograph"].list3color.__module__ == "hered3.cograph"
