import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwassure.bundled import load_bundled
from hwassure.netlist import _gate_value, batch_evaluate, evaluate, index_input_matrix, make_circuit
from hwassure.satattack import CnfFormula, parse_dimacs, to_dimacs, tseitin_encode
from hwassure.satattack.cnf import encode_folded
from hwassure.satattack import solve as sat_solve


KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")


def single_gate(kind, n_inputs=2):
    ins = [f"a{i}" for i in range(n_inputs)]
    return make_circuit("g", [("y", kind, ins)], ins, ["y"])


def literal_value(model, lit):
    """The value a solver model gives a DIMACS literal."""
    return model[abs(lit)] == (lit > 0)


def clause_satisfied(clause, valuation):
    """valuation: dict var -> bool"""
    return any(valuation[abs(l)] == (l > 0) for l in clause)


def test_single_and_gate_clause_and_variable_counts():
    f = tseitin_encode(single_gate("AND"))
    assert f.num_variables == 3
    assert len(f.clauses) == 3


def test_single_xor_gate_clause_count():
    f = tseitin_encode(single_gate("XOR"))
    assert len(f.clauses) == 4


def test_wide_xor_introduces_chain_variables():
    f = tseitin_encode(single_gate("XOR", n_inputs=3))
    # 4 nets plus one auxiliary for the two-level chain
    assert f.num_variables == 5
    assert len(f.clauses) == 8


def test_encoding_rejects_sequential_circuits():
    circ = make_circuit("seq", [("q", "DFF", ["d"]), ("d", "NOT", ["q"])], [], ["q"])
    with pytest.raises(Exception):
        tseitin_encode(circ)


def test_c17_cnf_agrees_with_exhaustive_evaluation():
    # unit-assume each input pattern; the solver's model at the output
    # variables must equal direct evaluation
    c17 = load_bundled("c17")
    f = tseitin_encode(c17)
    for bits in itertools.product((0, 1), repeat=len(c17.primary_inputs)):
        pattern = dict(zip(c17.primary_inputs, bits))
        assumptions = [
            f.net_to_var[n] if b else -f.net_to_var[n] for n, b in pattern.items()
        ]
        model = sat_solve(f, assumptions)
        assert model is not None
        ref, _ = evaluate(c17, pattern)
        for net, want in ref.items():
            assert literal_value(model, f.net_to_var[net]) == bool(want)


def test_circuit_valuations_satisfy_the_encoding():
    # the valuation the circuit computes from any input pattern must
    # satisfy every clause that mentions only net variables
    kinds = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF"]
    rng = random.Random(11)
    for trial in range(10):
        specs = []
        nets = ["i0", "i1", "i2"]
        for idx in range(8):
            kind = rng.choice(kinds)
            arity = 1 if kind in ("NOT", "BUF") else 2
            specs.append((f"n{idx}", kind, rng.sample(nets, arity)))
            nets.append(f"n{idx}")
        circ = make_circuit(f"rnd{trial}", specs, ["i0", "i1", "i2"], [nets[-1]])
        f = tseitin_encode(circ)
        lanes = 8
        values, _ = batch_evaluate(
            circ, index_input_matrix(circ.primary_inputs, lanes), all_nets=True
        )
        for lane in range(lanes):
            # a net's literal may be negative: a NOT output reuses its
            # input's variable
            valuation = {
                abs(lit): bool(values[n][lane]) == (lit > 0) for n, lit in f.net_to_var.items()
            }
            for clause in f.clauses:
                if any(abs(l) not in valuation for l in clause):
                    continue  # auxiliary chain variable, unconstrained here
                assert clause_satisfied(clause, valuation)


@st.composite
def combinational_circuits(draw):
    """A random combinational circuit with every gate kind, arity 1 to 4
    and duplicate inputs, plus one assignment of its primary inputs."""
    pis = [f"i{k}" for k in range(draw(st.integers(1, 5)))]
    nets = list(pis)
    specs = []
    for k in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(KINDS))
        arity = 1 if kind in ("NOT", "BUF") else draw(st.integers(2, 4))
        specs.append((f"n{k}", kind, draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))))
        nets.append(f"n{k}")
    outputs = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3, unique=True))
    pattern = {pi: draw(st.integers(0, 1)) for pi in pis}
    return make_circuit("prop", specs, pis, outputs), pattern


@settings(max_examples=150, deadline=None)
@given(case=combinational_circuits())
def test_tseitin_encode_agrees_with_evaluate(case):
    # under unit assumptions on the primary inputs, the model must give
    # every net's literal the value the circuit computes
    circuit, pattern = case
    f = tseitin_encode(circuit)
    assert set(f.net_to_var) == set(circuit.nets())
    assumptions = [f.net_to_var[pi] if bit else -f.net_to_var[pi] for pi, bit in pattern.items()]
    model = sat_solve(f, assumptions)
    assert model is not None
    want, _ = evaluate(circuit, pattern, all_nets=True)
    assert {n: literal_value(model, lit) for n, lit in f.net_to_var.items()} == {
        n: bool(v) for n, v in want.items()
    }


def test_tseitin_encode_folds_buffers_and_inverters():
    circ = make_circuit(
        "fold",
        [("b", "BUF", ["a"]), ("n", "NOT", ["b"]), ("nn", "NOT", ["n"]), ("y", "AND", ["nn", "c"])],
        ["a", "c"],
        ["y"],
    )
    f = tseitin_encode(circ)
    assert f.net_to_var == {"a": 1, "c": 2, "b": 1, "n": -1, "nn": 1, "y": 3}
    assert f.num_variables == 3 and len(f.clauses) == 3


def test_dimacs_round_trip_preserves_formula():
    rng = random.Random(5)
    clauses = []
    for _ in range(40):
        width = rng.randint(1, 4)
        clauses.append(
            tuple(rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(width))
        )
    f = CnfFormula(num_variables=9, clauses=clauses)
    g = parse_dimacs(to_dimacs(f, comments=["generated"]))
    assert g.num_variables == 9
    assert list(g.clauses) == clauses


def test_dimacs_parse_handles_clauses_spanning_lines():
    text = "c split clause\np cnf 3 2\n1 -2\n3 0\n-1 2 0\n"
    f = parse_dimacs(text)
    assert f.clauses == [(1, -2, 3), (-1, 2)]


def test_dimacs_parse_rejects_clause_count_mismatch():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 3\n1 0\n-2 0\n")


@pytest.mark.parametrize("kind", ["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF"])
def test_encode_folded_matches_the_gate_under_every_input(kind):
    # each input is a constant or a free variable; for every assignment of
    # the free ones, the clauses must force the gate's value on the output
    for arity in (1,) if kind in ("NOT", "BUF") else (2, 3):
        for pattern in itertools.product((False, True, None), repeat=arity):
            free = [i for i, p in enumerate(pattern) if p is None]
            f = CnfFormula(len(free))
            ins = [p if p is not None else free.index(i) + 1 for i, p in enumerate(pattern)]
            out = encode_folded(f, kind, ins)
            if len(free) < 2:
                assert f.clauses == [] and f.num_variables == len(free)
            for bits in itertools.product((0, 1), repeat=len(free)):
                want = _gate_value(
                    kind, [bits[free.index(i)] if p is None else int(p) for i, p in enumerate(pattern)]
                )
                seen = set()
                extra = f.num_variables - len(free)
                for rest in itertools.product((False, True), repeat=extra):
                    val = dict(enumerate((bool(b) for b in bits + rest), start=1))
                    if all(clause_satisfied(c, val) for c in f.clauses):
                        if isinstance(out, bool):
                            seen.add(int(out))
                        else:
                            seen.add(int(val[abs(out)] == (out > 0)))
                assert seen == {want}, (kind, pattern, bits)
