import itertools
import random

import pytest

from hwassure.satattack import CdclSolver, CnfFormula, SolverBudgetExceeded
from hwassure.satattack import solver as solver_module
from hwassure.satattack import solve as sat_solve


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        val = (None,) + bits
        if all(any(val[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def model_satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def random_3cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def pigeonhole(pigeons, holes):
    """p_{i,j} = pigeon i sits in hole j; unsatisfiable when pigeons > holes."""
    var = lambda i, j: i * holes + j + 1
    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append((-var(i1, j), -var(i2, j)))
    return pigeons * holes, clauses


def test_plain_contradiction_is_unsat():
    assert sat_solve(CnfFormula(1, [(1,), (-1,)])) is None


def test_assumption_forces_the_other_disjunct():
    model = sat_solve(CnfFormula(2, [(1, 2)]), assumptions=[-1])
    assert model is not None
    assert model[1] is False and model[2] is True


def test_agreement_with_exhaustive_enumeration():
    # clause density straddles the 3-SAT phase transition so the sweep
    # exercises both outcomes
    rng = random.Random(2024)
    sat_seen = unsat_seen = 0
    for _ in range(150):
        n = rng.randint(4, 12)
        clauses = random_3cnf(rng, n, rng.randint(3 * n, 7 * n))
        expect = brute_force_sat(n, clauses)
        model = sat_solve(CnfFormula(n, clauses))
        if expect:
            sat_seen += 1
            assert model is not None
            assert model_satisfies(model, clauses)
        else:
            unsat_seen += 1
            assert model is None
    assert sat_seen > 20 and unsat_seen > 20


def test_unsat_under_assumptions_recovers():
    s = CdclSolver()
    s.add_clause([-1, -2, 3])
    assert s.solve([1, 2, -3]) is False
    # the formula itself is still satisfiable afterwards
    assert s.solve([]) is True
    assert s.solve([1, 2]) is True
    assert s.model[3] is True


def test_incremental_clause_addition_between_solves():
    s = CdclSolver()
    s.add_clause([1, 2])
    assert s.solve([-2]) is True
    assert s.model[1] is True
    s.add_clause([-1, 3])
    assert s.solve([-2]) is True
    assert s.model[3] is True
    s.add_clause([-3])
    assert s.solve([-2]) is False  # forces 1, 3, contradiction
    assert s.solve([]) is True  # 2 alone still works


def test_level_zero_contradiction_poisons_the_instance():
    s = CdclSolver()
    s.add_clause([1])
    s.add_clause([-1])
    assert s.solve([]) is False
    assert s.solve([2]) is False


def test_pigeonhole_is_unsat_and_budget_interrupts_it():
    n, clauses = pigeonhole(6, 5)
    f = CnfFormula(n, clauses)
    assert sat_solve(f) is None
    with pytest.raises(SolverBudgetExceeded):
        sat_solve(f, max_conflicts=3)


def test_determinism_across_fresh_solvers():
    rng = random.Random(7)
    clauses = random_3cnf(rng, 14, 55)
    runs = []
    for _ in range(2):
        s = CdclSolver()
        for c in clauses:
            s.add_clause(c)
        ok = s.solve([])
        runs.append((ok, tuple(s.model) if ok else None, s.conflicts_total))
    assert runs[0] == runs[1]


def test_tautologies_and_duplicate_literals_are_normalized():
    s = CdclSolver()
    s.add_clause([1, -1])  # tautology, dropped
    s.add_clause([2, 2, 3])
    assert s.solve([-2, -3]) is False
    assert s.solve([-2]) is True
    assert s.model[3] is True


@pytest.mark.parametrize("budget", [0, 0.0, -1.5])
def test_non_positive_time_budget_raises_before_search(budget):
    s = CdclSolver()
    s.add_clause([1, 2])
    with pytest.raises(SolverBudgetExceeded):
        s.solve([-1], time_budget_s=budget)
    assert s.model is None and s.trail == []
    # the instance is untouched and still answers without a budget
    assert s.solve([-1]) is True and s.model[2] is True
    with pytest.raises(SolverBudgetExceeded):
        sat_solve(CnfFormula(2, [(1, 2)]), time_budget_s=budget)


@pytest.mark.parametrize("budget", [0, -3])
def test_non_positive_conflict_budget_raises_before_search(budget):
    s = CdclSolver()
    s.add_clause([1, 2])
    with pytest.raises(SolverBudgetExceeded):
        s.solve(max_conflicts=budget)
    assert s.model is None and s.trail == [] and s.conflicts_total == 0
    assert s.solve() is True
    with pytest.raises(SolverBudgetExceeded):
        sat_solve(CnfFormula(2, [(1, 2)]), max_conflicts=budget)


class SteppedClock:
    """Stands in for the solver module's ``time``: the first reading is 0,
    every later one is ``later``."""

    def __init__(self, later):
        self.readings = 0
        self.later = later

    def monotonic(self):
        self.readings += 1
        return 0.0 if self.readings == 1 else self.later


def test_time_budget_holds_on_a_search_without_conflicts(monkeypatch):
    # every decision takes the negative phase and satisfies every clause,
    # so the search makes one decision per variable and no conflict
    n = 1000
    clauses = [(-v, -(v + 1)) for v in range(1, n)]
    s = CdclSolver()
    for c in clauses:
        s.add_clause(c)
    clock = SteppedClock(later=5.0)
    monkeypatch.setattr(solver_module, "time", clock)
    with pytest.raises(SolverBudgetExceeded):
        s.solve(time_budget_s=1.0)
    assert s.conflicts_total == 0 and s.trail == [] and s.model is None
    assert clock.readings >= 2
    assert_heap_invariant(s)
    # within the budget the same search finds a model
    monkeypatch.setattr(solver_module, "time", SteppedClock(later=0.5))
    assert s.solve(time_budget_s=1.0) is True and model_satisfies(s.model, clauses)
    assert s.conflicts_total == 0


# Recorded with the lazy heapq decision order that the indexed heap
# replaced: the same decisions give the same conflict count and model.
@pytest.mark.parametrize(
    "seed, num_vars, num_clauses, conflicts, model_bits",
    [
        (12, 80, 330, 69,
         "01111001111000101000001100001001011011000000111011011000010001101000110000011000"),
        (13, 100, 410, 334,
         "1010101110000011110101011110001000000010101101010010110101111110"
         "011101100001001100011111000111011001"),
    ],
)
def test_decision_order_is_pinned(seed, num_vars, num_clauses, conflicts, model_bits):
    clauses = random_3cnf(random.Random(seed), num_vars, num_clauses)
    s = CdclSolver()
    for c in clauses:
        s.add_clause(c)
    assert s.solve([]) is True
    assert s.conflicts_total == conflicts
    assert "".join("1" if b else "0" for b in s.model[1:]) == model_bits


def assert_heap_invariant(s):
    heap, pos, act = s.heap, s.heap_pos, s.activity
    assert len(heap) <= s.nvars
    assert len(set(heap)) == len(heap)
    for i, v in enumerate(heap):
        assert pos[v] == i
        if i:
            u = heap[(i - 1) >> 1]
            assert act[u] > act[v] or (act[u] == act[v] and u < v)
    in_heap = set(heap)
    for v in range(1, s.nvars + 1):
        assert (pos[v] >= 0) == (v in in_heap)
        if s.value[2 * v] == 2:  # unassigned
            assert v in in_heap


def test_decision_heap_invariant_across_incremental_solves():
    rng = random.Random(31)
    rescaled = 0
    for _ in range(40):
        n = rng.randint(6, 12)
        clauses = random_3cnf(rng, n, rng.randint(3 * n, 6 * n))
        s = CdclSolver()
        s.ensure_vars(n)
        added = []
        for step in range(4):
            added.extend(clauses[step::4])
            for c in clauses[step::4]:
                s.add_clause(c)
            if step == 2:
                s.var_inc = 1e100  # the next bumps cross the rescale threshold
            assumptions = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 2)]
            ok = s.solve(assumptions)
            constrained = added + [(a,) for a in assumptions]
            assert ok == brute_force_sat(n, constrained)
            if ok:
                assert model_satisfies(s.model, constrained)
            if step == 2 and s.var_inc < 1e100:
                rescaled += 1
            assert_heap_invariant(s)
    assert rescaled > 0
