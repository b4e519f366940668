"""Implication-graph 2-SAT, checked against truth-table enumeration."""

from itertools import product
from random import Random

import pytest

from hered3.twosat import TwoSat, lit


def brute_sat(num_vars, clauses):
    for bits in product((False, True), repeat=num_vars):
        if all(_holds(bits, a) or _holds(bits, b) for a, b in clauses):
            return True
    return not clauses or num_vars == 0 and not clauses


def _holds(bits, literal):
    value = bits[literal // 2]
    return value if literal % 2 == 0 else not value


def test_lit_encoding():
    assert lit(0, True) == 0
    assert lit(0, False) == 1
    assert lit(3, True) == 6
    assert lit(3, False) == 7


def test_empty_instance():
    assert TwoSat(0).solve() == {}
    model = TwoSat(3).solve()
    assert set(model) == {0, 1, 2}


def test_unit_propagation():
    s = TwoSat(2)
    s.add_clause(lit(0, True), lit(0, True))
    s.add_clause(lit(0, False), lit(1, True))  # x0 -> x1
    model = s.solve()
    assert model == {0: True, 1: True}


def test_contradiction():
    s = TwoSat(1)
    s.add_clause(lit(0, True), lit(0, True))
    s.add_clause(lit(0, False), lit(0, False))
    assert s.solve() is None


def test_implication_cycle_is_fine():
    # x0 <-> x1, both polarities allowed
    s = TwoSat(2)
    s.add_clause(lit(0, False), lit(1, True))
    s.add_clause(lit(1, False), lit(0, True))
    model = s.solve()
    assert model[0] == model[1]


def test_forced_chain():
    # (x or y) and (not x or y) forces y
    s = TwoSat(2)
    s.add_clause(lit(0, True), lit(1, True))
    s.add_clause(lit(0, False), lit(1, True))
    model = s.solve()
    assert model[1] is True


def test_xor_chain_unsat():
    s = TwoSat(2)
    for pa, pb in ((True, True), (True, False), (False, True), (False, False)):
        s.add_clause(lit(0, pa), lit(1, pb))
    assert s.solve() is None


def test_literal_range_checked():
    s = TwoSat(1)
    with pytest.raises(ValueError):
        s.add_clause(0, 2)
    with pytest.raises(ValueError):
        s.add_clause(-1, 0)


def test_against_bruteforce():
    rng = Random(4321)
    sat = unsat = 0
    for trial in range(600):
        nv = rng.randint(1, 8)
        nc = rng.randint(0, 3 * nv)
        clauses = []
        s = TwoSat(nv)
        for _ in range(nc):
            a = lit(rng.randrange(nv), rng.random() < 0.5)
            b = lit(rng.randrange(nv), rng.random() < 0.5)
            clauses.append((a, b))
            s.add_clause(a, b)
        model = s.solve()
        want = brute_sat(nv, clauses)
        assert (model is not None) == want, (nv, clauses)
        if model is None:
            unsat += 1
        else:
            sat += 1
            bits = tuple(model[v] for v in range(nv))
            assert all(_holds(bits, a) or _holds(bits, b) for a, b in clauses)
    assert sat > 100 and unsat > 100
