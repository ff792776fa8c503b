import numpy as np
import pytest

from hwassure.assurance_metrics import (
    FsmSpec,
    FsmTransition,
    cdc,
    controllability,
    defects_from_csv,
    fsm_fi_vulnerability,
    fsm_from_csv,
    gate_controllability_transfer,
    gate_observability_transfer,
    hex_to_bits,
    observability,
    observation_hardness,
    puf_inter_hd,
    puf_intra_hd,
)
from hwassure.benchgen import synth_circuit
from hwassure.bundled import load_bundled
from hwassure.netlist import evaluate, input_patterns, make_circuit


def test_gate_transfer_hand_values():
    assert gate_controllability_transfer("NOT", 1) == 1.0
    assert gate_controllability_transfer("BUF", 1) == 1.0
    assert gate_controllability_transfer("AND", 2) == 0.75
    assert gate_controllability_transfer("OR", 2) == 0.75
    assert gate_controllability_transfer("XOR", 2) == 1.0
    assert gate_controllability_transfer("AND", 2, classical=True) == 0.5
    assert gate_observability_transfer("NOT", 1) == 1.0
    assert gate_observability_transfer("AND", 2) == 0.5
    assert gate_observability_transfer("XOR", 2) == 1.0


def test_controllability_single_gates():
    c = make_circuit("inv", [("y", "NOT", ("a",))], ["a"], ["y"])
    cy = controllability(c)
    assert cy["a"] == 1.0
    assert cy["y"] == 1.0
    c2 = make_circuit("and2", [("y", "AND", ("a", "b"))], ["a", "b"], ["y"])
    assert controllability(c2)["y"] == 0.75


def test_controllability_chain_hand_value():
    c = make_circuit(
        "chain",
        [("n1", "AND", ("a", "b")), ("y", "AND", ("c", "n1"))],
        ["a", "b", "c"],
        ["y"],
    )
    cy = controllability(c)
    assert abs(cy["y"] - 0.65625) < 1e-12


def test_controllability_rejects_sequential_and_wide_gates():
    seq = make_circuit("seq", [("q", "DFF", ("a",))], ["a"], ["q"])
    with pytest.raises(ValueError):
        controllability(seq)
    wide = make_circuit("wide", [("y", "AND", tuple(f"i{k}" for k in range(17)))],
                        [f"i{k}" for k in range(17)], ["y"])
    with pytest.raises(ValueError):
        controllability(wide)


def test_observability_single_gates():
    c = make_circuit("inv", [("y", "NOT", ("a",))], ["a"], ["y"])
    oy = observability(c)
    assert oy["y"] == 1.0
    assert oy["a"] == 1.0
    c2 = make_circuit("and2", [("y", "AND", ("a", "b"))], ["a", "b"], ["y"])
    oy2 = observability(c2)
    assert oy2["a"] == 0.5
    assert oy2["b"] == 0.5


def test_observability_buffer_fanout_and_dangling():
    c = make_circuit(
        "fan",
        [("p", "BUF", ("x",)), ("q", "BUF", ("x",)), ("dead", "NOT", ("x",))],
        ["x"],
        ["p", "q"],
    )
    oy = observability(c)
    # two fully observable consumers average to 1; the dead branch drags
    # the mean down by contributing 0
    assert oy["dead"] == 0.0
    assert abs(oy["x"] - (1.0 + 1.0 + 0.0) / 3) < 1e-12


def test_observability_scores_lie_in_unit_interval():
    c = load_bundled("c17")
    oy = observability(c)
    cy = controllability(c)
    for net in c.nets():
        assert 0.0 <= oy[net] <= 1.0
        assert 0.0 <= cy[net] <= 1.0
    assert all(oy[po] == 1.0 for po in c.primary_outputs)
    assert all(cy[pi] == 1.0 for pi in c.primary_inputs)


def exhaustive_fault_oracle(circuit, node):
    """Scalar re-simulation of every single PI stuck-at fault."""
    pis = circuit.primary_inputs
    detected = 0
    for pi in pis:
        for stuck in (0, 1):
            hit = False
            for pattern in range(1 << len(pis)):
                vec = {p: (pattern >> i) & 1 for i, p in enumerate(pis)}
                good = node_value(circuit, vec, node)
                bad_vec = dict(vec)
                bad_vec[pi] = stuck
                if node_value(circuit, bad_vec, node) != good:
                    hit = True
                    break
            detected += int(hit)
    return detected / (2 * len(pis))


def node_value(circuit, vec, node):
    """Scalar net value by direct topological recomputation."""
    from hwassure.netlist import _gate_value

    vals = dict(vec)
    for gate in circuit.topo_gates():
        vals[gate.output] = _gate_value(gate.kind, [vals[x] for x in gate.inputs])
    return vals[node]


def test_observation_hardness_matches_exhaustive_oracle():
    c = load_bundled("c17")
    for node in ("10", "16", "22", "11"):
        assert observation_hardness(c, node) == exhaustive_fault_oracle(c, node)


def test_observation_hardness_primary_input_self():
    c = load_bundled("c17")
    assert observation_hardness(c, "1") == 2 / (2 * 5)


def test_observation_hardness_constant_cone_is_zero():
    c = make_circuit("const", [("y", "XOR", ("a", "a"))], ["a"], ["y"])
    assert observation_hardness(c, "y") == 0.0


def test_observation_hardness_random_patterns_and_validation():
    c = load_bundled("c17")
    value = observation_hardness(c, "22", n_patterns=64, seed=1)
    assert 0.0 <= value <= 1.0
    assert value == observation_hardness(c, "22", n_patterns=64, seed=1)
    with pytest.raises(ValueError):
        observation_hardness(c, "nope")
    with pytest.raises(ValueError):
        observation_hardness(c, "22", n_patterns=0)


def sampled_fault_oracle(circuit, n_patterns, seed):
    """Scalar :func:`evaluate` over the patterns ``observation_hardness``
    draws: per net, the share of PI stuck-at faults that change it on one."""
    pis = circuit.primary_inputs
    (lanes,) = input_patterns(pis, n_patterns, seed)
    vectors = [{pi: int(lanes[pi][i]) for pi in pis} for i in range(n_patterns)]
    good = [evaluate(circuit, vec, all_nets=True)[0] for vec in vectors]
    detected = dict.fromkeys(circuit.nets(), 0)
    for pi in pis:
        for stuck in (0, 1):
            changed = set()
            for vec, want in zip(vectors, good):
                got, _ = evaluate(circuit, {**vec, pi: stuck}, all_nets=True)
                changed.update(n for n in detected if got[n] != want[n])
            for net in changed:
                detected[net] += 1
    return {net: hits / (2 * len(pis)) for net, hits in detected.items()}


def test_observation_hardness_matches_scalar_evaluation_on_sampled_patterns():
    # 100 patterns fill one word and part of a second; its padding lanes
    # must not count. "y" is 1 only when all 12 inputs are 0, which none of
    # the sampled patterns is, so no fault reaches it there; the all-zero
    # padding lanes would show every stuck-at-1 fault
    pis = [f"i{k}" for k in range(12)]
    wide = make_circuit(
        "wide",
        [("o1", "OR", pis[:6]), ("o2", "OR", pis[6:]), ("y", "NOR", ["o1", "o2"]),
         ("m", "NAND", ["o1", "i0"]), ("x", "XNOR", ["m", "i11", "i5"])],
        pis,
        ["y", "x"],
    )
    kinds = {"AND": 8, "NAND": 8, "OR": 6, "NOR": 6, "XOR": 5, "XNOR": 4, "NOT": 8, "BUF": 3}
    rand = synth_circuit("rand", 9, 4, 0, kinds, seed=7, p_wide=0.3)
    for circuit in (wide, rand):
        want = sampled_fault_oracle(circuit, 100, 3)
        got = {net: observation_hardness(circuit, net, n_patterns=100, seed=3) for net in want}
        assert got == want
        assert len(set(got.values())) > 2
        if circuit is wide:
            assert got["y"] == 0.0


def test_fsm_hand_example():
    spec = FsmSpec(
        (
            FsmTransition("s0", "s1", True, (5.0,), (3.0,)),
            FsmTransition("s1", "s2", False),
            FsmTransition("s2", "s3", False),
            FsmTransition("s3", "s0", False),
        ),
        design_delays=(2.0, 4.0),
    )
    result = fsm_fi_vulnerability(spec)
    assert result.vulnerable_percent == 25.0
    assert abs(result.susceptibility_factors[0] - 2 / 3) < 1e-12
    assert abs(result.mean_susceptibility - 2 / 3) < 1e-12


def test_fsm_two_vulnerable_transitions():
    # factors 0.5 and 1.5 against a unit average design delay
    spec = FsmSpec(
        (
            FsmTransition("a", "b", True, (1.5,), (1.0,)),
            FsmTransition("b", "c", True, (2.5,), (1.0,)),
            FsmTransition("c", "d", False),
            FsmTransition("d", "e", False),
            FsmTransition("e", "a", False),
        ),
        design_delays=(1.0,),
    )
    result = fsm_fi_vulnerability(spec)
    assert result.vulnerable_percent == 40.0
    assert result.susceptibility_factors == (0.5, 1.5)
    assert result.mean_susceptibility == 1.0


def test_fsm_no_vulnerable_transitions():
    spec = FsmSpec(
        (FsmTransition("a", "b", False),),
        design_delays=(1.0,),
    )
    result = fsm_fi_vulnerability(spec)
    assert result.vulnerable_percent == 0.0
    assert result.mean_susceptibility is None
    assert result.susceptibility_factors == ()


def test_fsm_no_safe_paths_uses_violated_delay_alone():
    spec = FsmSpec(
        (FsmTransition("a", "b", True, (3.0,), ()),),
        design_delays=(2.0,),
    )
    assert fsm_fi_vulnerability(spec).susceptibility_factors == (1.5,)


def test_fsm_validation():
    with pytest.raises(ValueError):
        FsmTransition("a", "b", True, (), ())
    with pytest.raises(ValueError):
        FsmTransition("a", "b", False, (-1.0,), ())
    with pytest.raises(ValueError):
        FsmSpec((), (1.0,))
    with pytest.raises(ValueError):
        FsmSpec((FsmTransition("a", "b", False),), ())


def test_fsm_csv_round_trip():
    text = (
        "from,to,vulnerable,pv,po,p_fs\n"
        "s0,s1,1,5,3,2;4\n"
        "s1,s2,0,,,\n"
        "s2,s3,0,,,\n"
        "s3,s0,0,,,\n"
    )
    spec = fsm_from_csv(text)
    assert spec.states == ("s0", "s1", "s2", "s3")
    assert spec.design_delays == (2.0, 4.0)
    result = fsm_fi_vulnerability(spec)
    assert result.vulnerable_percent == 25.0
    assert abs(result.mean_susceptibility - 2 / 3) < 1e-12


def test_fsm_csv_reads_vulnerable_words():
    rows = "s0,s1,{},5,3,2;4\ns1,s0,{},,,\n"
    header = "from,to,vulnerable,pv,po,p_fs\n"
    want = fsm_from_csv(header + rows.format(1, 0))
    for yes, no in (("true", "false"), ("True", "False"), (" 1", "0 ")):
        assert fsm_from_csv(header + rows.format(yes, no)) == want


def test_fsm_csv_validation():
    with pytest.raises(ValueError):
        fsm_from_csv("a,b\n1,2\n")
    with pytest.raises(ValueError):
        fsm_from_csv("from,to,vulnerable,pv,po,p_fs\ns0,s1,0,,,\n")
    with pytest.raises(ValueError):
        fsm_from_csv(
            "from,to,vulnerable,pv,po,p_fs\n"
            "s0,s1,0,,,1;2\n"
            "s1,s0,0,,,3;4\n"
        )
    with pytest.raises(ValueError, match="FSM line 2, column 'vulnerable'"):
        fsm_from_csv("from,to,vulnerable,pv,po,p_fs\ns0,s1,yes,5,3,2;4\ns1,s0,0,,,\n")


def test_puf_inter_hd_hand_values():
    assert puf_inter_hd(["0000", "0000"]) == 0.0
    assert puf_inter_hd(["00000000", "11111111"]) == 100.0
    assert abs(puf_inter_hd(["00", "01", "11"]) - 200 / 3) < 1e-9


def test_puf_inter_hd_permutation_invariant():
    responses = ["0110", "1010", "0011", "1111"]
    base = puf_inter_hd(responses)
    assert puf_inter_hd(list(reversed(responses))) == base


def test_puf_intra_hd_hand_values():
    assert puf_intra_hd("1010", ["1010", "1010"]) == 0.0
    assert puf_intra_hd("00000000", ["00000001"]) == 12.5
    assert puf_intra_hd("0000", ["0000", "1111"]) == 50.0


def test_puf_validation():
    with pytest.raises(ValueError):
        puf_inter_hd(["0101"])
    with pytest.raises(ValueError):
        puf_inter_hd(["01", "011"])
    with pytest.raises(ValueError):
        puf_intra_hd("01", [])
    with pytest.raises(ValueError):
        puf_intra_hd("01", ["0x"])


def test_hex_to_bits():
    assert hex_to_bits("a5") == "10100101"
    assert hex_to_bits("0xF") == "1111"
    with pytest.raises(ValueError):
        hex_to_bits("xyz")


def test_cdc_hand_values():
    assert cdc([(1.0, 2.0), (1.0, 5.0)]) == 100.0
    assert cdc([(0.0, 2.0), (0.0, 5.0)]) == 0.0
    assert abs(cdc([(0.8, 3.0), (0.5, 1.0)]) - 72.5) < 1e-12


def test_cdc_validation():
    with pytest.raises(ValueError):
        cdc([])
    with pytest.raises(ValueError):
        cdc([(0.5, 0.0)])
    with pytest.raises(ValueError):
        cdc([(1.5, 1.0)])
    with pytest.raises(ValueError):
        cdc([(0.5, -1.0)])


def test_defects_from_csv():
    rows = defects_from_csv("confidence,frequency\n0.8,3\n0.5,1\n")
    assert rows == [(0.8, 3.0), (0.5, 1.0)]
    assert abs(cdc(rows) - 72.5) < 1e-12
    with pytest.raises(ValueError):
        defects_from_csv("x,y\n1,2\n")


def test_metric_sweep_on_random_circuits():
    rng = np.random.default_rng(77)
    kinds = ["AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF"]
    for trial in range(10):
        n_pi = int(rng.integers(2, 5))
        pis = [f"p{k}" for k in range(n_pi)]
        nets = list(pis)
        specs = []
        for g in range(int(rng.integers(2, 10))):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            fan = 1 if kind in ("NOT", "BUF") else int(rng.integers(2, 4))
            ins = tuple(nets[int(rng.integers(0, len(nets)))] for _ in range(fan))
            out = f"g{g}"
            specs.append((out, kind, ins))
            nets.append(out)
        c = make_circuit(f"rand{trial}", specs, pis, [specs[-1][0]])
        cy = controllability(c)
        oy = observability(c)
        assert all(0.0 <= v <= 1.0 for v in cy.values())
        assert all(0.0 <= v <= 1.0 for v in oy.values())
        oh = observation_hardness(c, specs[-1][0])
        assert 0.0 <= oh <= 1.0
