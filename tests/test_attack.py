import hashlib
import itertools
import os
import stat
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwassure.benchgen import synth_circuit
from hwassure.bundled import bundled_names, load_bundled
from hwassure.locking import LockedCircuit, LockingKey, evaluate_locked, insert_random_locking
from hwassure.netlist import (
    batch_evaluate,
    fanin_cone,
    fanout_cone,
    index_input_matrix,
    make_circuit,
)
from hwassure.platform_model import frame
from hwassure.satattack import (
    CdclSolver,
    CircuitOracle,
    Miter,
    attack_report,
    build_platform_instance,
    sat_attack,
    tseitin_encode,
    verify_recovered_key,
)


def all_patterns(nets):
    for bits in itertools.product((0, 1), repeat=len(nets)):
        yield dict(zip(nets, bits))


def keys_equivalent(locked, key_a, key_b):
    """Exhaustive check that two keys induce the same function."""
    for pattern in all_patterns(locked.functional_inputs()):
        got_a, _ = evaluate_locked(locked, key_a, pattern)
        got_b, _ = evaluate_locked(locked, key_b, pattern)
        if got_a != got_b:
            return False
    return True


def test_tiny_circuit_recovers_an_equivalent_key():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 2, seed=0)
    res = sat_attack(locked, CircuitOracle(c17))
    assert res.status == "success"
    assert res.verified is True
    assert keys_equivalent(locked, res.recovered_key, locked.correct_key)


def test_iteration_bound_and_dip_uniqueness():
    c17 = load_bundled("c17")
    for seed in range(6):
        for k in (2, 4, 6):
            locked = insert_random_locking(c17, k, seed=seed)
            res = sat_attack(locked, CircuitOracle(c17), verify=False)
            assert res.status == "success"
            assert res.iterations == len(res.dip_trace)
            assert res.iterations <= 2**k - 1
            assert len(set(res.dips)) == len(res.dips)


def test_trace_outputs_match_the_oracle():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 4, seed=3)
    oracle = CircuitOracle(c17)
    res = sat_attack(locked, oracle, verify=False)
    for dip, out_bits in res.dip_trace:
        pattern = dict(zip(locked.functional_inputs(), dip))
        want = oracle.query(pattern)
        assert tuple(want[n] for n in dict.fromkeys(c17.primary_outputs)) == out_bits


def test_attack_is_deterministic():
    circ = load_bundled("rs160")
    runs = []
    for _ in range(2):
        model, oracle, _ = build_platform_instance(circ, key_length=6, cr=2, seed=5)
        res = sat_attack(model, oracle, verify=False)
        runs.append((res.status, res.iterations, res.recovered_key.as_string(), res.dip_trace))
    assert runs[0] == runs[1]



@pytest.mark.parametrize(
    "key_length, cr, iterations, key",
    [(6, 1, 2, "011000"), (10, 4, 3, "0010000000"), (10, 1, 3, "0010000000")],
)
def test_platform_attack_decisions_are_pinned(key_length, cr, iterations, key):
    # k6 CR1 and k10 CR4 were recorded before the solver's decision heap
    # became an indexed heap; k10 CR1 was recorded when the miter began to
    # share every net outside the key cone between its copies. Any change to
    # the decision order would show here as another DIP sequence, iteration
    # count or recovered key
    circ = load_bundled("rs280")
    model, oracle, _ = build_platform_instance(circ, key_length=key_length, cr=cr, seed=0)
    res = sat_attack(model, oracle, verify=False)
    assert res.status == "success"
    assert (res.iterations, res.recovered_key.as_string()) == (iterations, key)


def test_clause_streams_are_pinned(monkeypatch):
    # Recorded before gate semantics moved into one table. The clause order
    # steers the solver's search, so a reordered, re-signed or extra clause
    # shows here even where DIPs and conflict counts happen not to move
    frames = hashlib.sha256()
    for name in bundled_names():
        f = tseitin_encode(frame(load_bundled(name)).frame)
        frames.update(repr((name, f.num_variables, f.clauses, list(f.net_to_var.items()))).encode())
    assert frames.hexdigest() == (
        "55ecf4b3352ebe525405c8c1f11d1355719b22e907de6c2b1944fdbeab7fe6df"
    )

    added = []
    add_clause = CdclSolver.add_clause

    def spy(self, lits):
        added.append(tuple(lits))
        return add_clause(self, lits)

    monkeypatch.setattr(CdclSolver, "add_clause", spy)
    streams = {}
    for design, key_length, cr in (("c17", 4, 1), ("s1423", 16, 4)):
        added.clear()
        model, oracle, _ = build_platform_instance(
            load_bundled(design), key_length=key_length, cr=cr, seed=0
        )
        sat_attack(model, oracle, verify=False)
        streams[design] = (len(added), hashlib.sha256(repr(added).encode()).hexdigest())
    assert streams == {
        "c17": (123, "a6226589bf37726589f411ea75ff4e6c6a81bcbf3fa12a0e3f830eb578125243"),
        "s1423": (1547, "bbaa40ffb968642d92953d8e896ad822ba5b2be0105eb35fc533c25b55986cf9"),
    }


class RecordingSolver(CdclSolver):
    def __init__(self):
        super().__init__()
        self.added = []

    def add_clause(self, lits):
        self.added.append(tuple(lits))
        return super().add_clause(self.added[-1])


def test_miter_encodes_only_the_key_cone_twice():
    model, _, _ = build_platform_instance(load_bundled("rs400"), key_length=10, cr=4, seed=0)
    core = model.core
    cone = fanout_cone(core, model.key_inputs)
    outputs = tuple(dict.fromkeys(core.primary_outputs))
    sources = model.functional_inputs() + model.key_inputs
    sat = RecordingSolver()
    miter = Miter(model, sat)
    # the difference literals cover exactly the outputs inside the cone
    assert miter.diff_outputs == tuple(o for o in outputs if o in cone)
    assert 0 < len(miter.diff_outputs) < len(outputs)
    support = fanin_cone(core, miter.diff_outputs)
    support_gates = [g for g in core.topo_gates() if g.output in support]
    assert all(n in support for g in support_gates for n in g.inputs)
    assert len(support_gates) < len(core.gates)

    # copy A is the support alone, with every input and key bit a variable;
    # every later clause names a variable of its own
    base = tseitin_encode(make_circuit(
        "support", [(g.output, g.kind, g.inputs) for g in support_gates], sources, miter.diff_outputs
    ))
    n_a = base.num_variables
    assert sat.added[: len(base.clauses)] == base.clauses
    later = sat.added[len(base.clauses):]
    assert all(max(abs(l) for l in c) > n_a for c in later)
    lit = base.net_to_var
    assert set(lit) == support | set(sources)
    key_b = list(range(n_a + 1, n_a + 1 + len(model.key_inputs)))
    assert miter.key_vars == ([lit[k] for k in model.key_inputs], key_b)

    # BUF and NOT outputs reuse their input's variable; every other gate
    # output has one of its own, and the only other variables are XOR chains
    folded = [g for g in support_gates if g.kind in ("BUF", "NOT")]
    assert folded
    for g in folded:
        assert lit[g.output] == (-1 if g.kind == "NOT" else 1) * lit[g.inputs[0]]
    net_vars = {abs(l) for l in lit.values()}
    assert len(net_vars) == len(sources) + len(support_gates) - len(folded)
    chain = sum(len(g.inputs) - 2 for g in support_gates if g.kind in ("XOR", "XNOR"))
    assert n_a == len(net_vars) + chain
    assert len({abs(l) for c in base.clauses for l in c} - net_vars) == chain

    # copy B adds exactly the clauses copy A spends on the cone gates inside
    # the support, then two clauses per difference literal and the miter's OR
    cone_gates = [(g.output, g.kind, g.inputs) for g in support_gates if g.output in cone]
    cone_inputs = {n for _, _, ins in cone_gates for n in ins} - cone | set(model.key_inputs)
    cone_clauses = len(tseitin_encode(make_circuit("cone", cone_gates, sorted(cone_inputs), [])).clauses)
    assert len(later) == cone_clauses + 2 * len(miter.diff_outputs) + 1
    diff_clauses = later[cone_clauses:-1]
    for net, (up, down) in zip(miter.diff_outputs, zip(diff_clauses[::2], diff_clauses[1::2])):
        assert up[:2] == (down[0], lit[net]) and down[1] == -lit[net]
    assert set(later[-1][1:]) == {-c[0] for c in diff_clauses}


@st.composite
def locked_instances(draw):
    """A small random design, locked and composed at a random CR, with at
    most 16 functional inputs."""
    kinds = draw(st.fixed_dictionaries({
        "AND": st.integers(1, 4),
        "NAND": st.integers(0, 2),
        "OR": st.integers(0, 2),
        "NOR": st.integers(0, 2),
        "XOR": st.integers(0, 3),
        "XNOR": st.integers(0, 2),
        "NOT": st.integers(0, 2),
        "BUF": st.integers(0, 1),
    }))
    gates = sum(kinds.values())
    circuit = synth_circuit(
        "prop", draw(st.integers(2, 8)), draw(st.integers(1, min(4, gates))),
        draw(st.integers(0, 3)), kinds, seed=draw(st.integers(0, 2**16)), p_wide=0.3,
    )
    return build_platform_instance(
        circuit, draw(st.integers(1, min(5, gates))), draw(st.sampled_from((1, 2, 4))),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None)
@given(instance=locked_instances())
def test_recovered_key_is_exhaustively_equivalent_to_the_oracle(instance):
    model, oracle, _ = instance
    shared = model.functional_inputs()
    assert len(shared) <= 16
    res = sat_attack(model, oracle, verify=False)
    assert res.status == "success"
    lanes = 1 << len(shared)
    patterns = index_input_matrix(shared, lanes)
    keyed = dict(patterns)
    for name, bit in zip(model.key_inputs, res.recovered_key.bits):
        keyed[name] = np.full(lanes, bit, dtype=np.uint8)
    got, _ = batch_evaluate(model.core, keyed)
    want, _ = batch_evaluate(oracle.circuit, patterns)
    for po in oracle.output_names:
        assert np.array_equal(got[po], want[po]), po


def test_unlockable_site_yields_trivial_attack():
    # a key gate on a net no output can see leaves every key correct:
    # the miter is unsatisfiable at once and any key verifies
    circ = make_circuit(
        "dead",
        [("n0", "AND", ["a", "b"]), ("n1", "OR", ["a", "b"])],
        ["a", "b"],
        ["n1"],
    )
    locked_core = make_circuit(
        "dead_enc1",
        [
            ("n0$raw0", "AND", ["a", "b"]),
            ("n0", "XOR", ["n0$raw0", "keyinput0"]),
            ("n1", "OR", ["a", "b"]),
        ],
        ["a", "b", "keyinput0"],
        ["n1"],
    )
    locked = LockedCircuit(locked_core, ("keyinput0",), LockingKey((0,)))
    res = sat_attack(locked, CircuitOracle(circ))
    assert res.status == "success"
    assert res.iterations == 0
    assert res.verified is True


def test_oracle_that_no_key_matches_is_reported():
    # n1 lies outside the key cone: when the oracle disagrees there, no key
    # can meet the DIP constraint and key extraction finds no key
    locked_core = make_circuit(
        "mismatch_enc1",
        [
            ("n0$raw0", "AND", ["a", "b"]),
            ("n0", "XOR", ["n0$raw0", "keyinput0"]),
            ("n1", "OR", ["a", "b"]),
        ],
        ["a", "b", "keyinput0"],
        ["n0", "n1"],
    )
    locked = LockedCircuit(locked_core, ("keyinput0",), LockingKey((0,)))
    oracle = make_circuit(
        "mismatch", [("n0", "AND", ["a", "b"]), ("n1", "NOR", ["a", "b"])], ["a", "b"], ["n0", "n1"]
    )
    with pytest.raises(RuntimeError, match="unsatisfiable"):
        sat_attack(locked, CircuitOracle(oracle))


def test_platform_instances_attack_cleanly_across_cr():
    circ = load_bundled("rs220")
    for cr in (1, 2, 4):
        model, oracle, topology = build_platform_instance(circ, key_length=6, cr=cr, seed=1)
        assert topology.compression_ratio == cr
        res = sat_attack(model, oracle)
        assert res.status == "success"
        assert res.verified is True
        assert res.iterations <= 2**6 - 1


def test_combinational_instance_ignores_topology():
    c17 = load_bundled("c17")
    model, oracle, topology = build_platform_instance(c17, key_length=4, cr=4, seed=0)
    assert topology is None
    assert model.core.primary_outputs == c17.primary_outputs
    res = sat_attack(model, oracle)
    assert res.status == "success" and res.verified is True


def test_timeout_reports_partial_trace():
    circ = load_bundled("rs400")
    model, oracle, _ = build_platform_instance(circ, key_length=10, cr=4, seed=2)
    res = sat_attack(model, oracle, time_limit_s=1e-9)
    assert res.status == "timeout"
    assert res.recovered_key is None
    assert res.iterations == len(res.dip_trace)


def test_iteration_cap_stops_the_loop():
    circ = load_bundled("rs160")
    model, oracle, _ = build_platform_instance(circ, key_length=10, cr=1, seed=2)
    res = sat_attack(model, oracle, max_iterations=1)
    assert res.status == "timeout"
    assert res.iterations <= 1


def test_oracle_interface_mismatch_is_rejected():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 2, seed=0)
    other = make_circuit("tiny", [("z", "AND", ["x", "y"])], ["x", "y"], ["z"])
    with pytest.raises(ValueError):
        sat_attack(locked, CircuitOracle(other))


def test_verify_rejects_a_wrong_key():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 4, seed=7)
    # find a key that actually corrupts some output
    for wrong in range(16):
        bits = tuple((wrong >> i) & 1 for i in range(4))
        if bits == locked.correct_key.bits:
            continue
        key = LockingKey(bits)
        if not keys_equivalent(locked, key, locked.correct_key):
            assert verify_recovered_key(locked, key, c17) is False
            break
    else:
        pytest.fail("no corrupting key found; pick a different seed")
    assert verify_recovered_key(locked, locked.correct_key, c17) is True


def test_external_dimacs_solver_runs_the_attack(tmp_path):
    # a stub external solver: reads DIMACS, answers with the bundled CDCL
    stub = tmp_path / "stubsolver.py"
    stub.write_text(
        "#!%s\n"
        "import sys\n"
        "from hwassure.satattack import parse_dimacs, solve\n"
        "model = solve(parse_dimacs(open(sys.argv[1]).read()))\n"
        "if model is None:\n"
        "    print('s UNSATISFIABLE'); sys.exit(20)\n"
        "print('s SATISFIABLE')\n"
        "lits = [i if v else -i for i, v in enumerate(model[1:], start=1)]\n"
        "print('v ' + ' '.join(map(str, lits)) + ' 0')\n"
        "sys.exit(10)\n" % sys.executable
    )
    os.chmod(stub, os.stat(stub).st_mode | stat.S_IEXEC)
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 4, seed=2)
    res = sat_attack(locked, CircuitOracle(c17), solver=f"dimacs:{stub}")
    assert res.status == "success"
    assert res.verified is True


def test_attack_report_shape():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 2, seed=1)
    res = sat_attack(locked, CircuitOracle(c17))
    rec = attack_report(res, design="c17", key_length=2, cr=1, seed=1)
    assert rec["design"] == "c17"
    assert rec["key_length"] == 2
    assert rec["cr"] == 1
    assert rec["iterations"] == res.iterations
    assert rec["status"] == "success"
    assert rec["recovered_key"] == res.recovered_key.as_string()
    assert isinstance(rec["elapsed_s"], float)
