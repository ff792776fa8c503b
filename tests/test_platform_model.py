import itertools

import numpy as np
import pytest

from hwassure.benchgen import synth_circuit
from hwassure.bundled import load_bundled
from hwassure.netlist import NetlistError, batch_evaluate, evaluate, index_input_matrix, make_circuit
from hwassure.platform_model import (
    FrameModel,
    ScanTopology,
    compose_platform_frame,
    frame,
)


def seq_circuit(n_ff=9, seed=0):
    return synth_circuit(
        f"seq{n_ff}", 4, 3, n_ff,
        {"AND": 10, "NAND": 8, "OR": 8, "NOR": 6, "NOT": 4, "XOR": 4},
        seed=seed,
    )


def test_frame_shapes_and_correspondence():
    c = seq_circuit(9)
    fm = frame(c)
    assert fm.ff_count == 9
    assert len(fm.frame.primary_inputs) == len(c.primary_inputs) + 9
    assert len(fm.frame.primary_outputs) == len(c.primary_outputs) + 9
    assert fm.frame.is_combinational

    rng = np.random.default_rng(1)
    for _ in range(30):
        ins = {pi: int(rng.integers(2)) for pi in c.primary_inputs}
        st = {ff.output: int(rng.integers(2)) for ff in c.flip_flops}
        ref_out, ref_next = evaluate(c, ins, st)
        fr_out, _ = evaluate(fm.frame, {**ins, **st})
        assert {po: fr_out[po] for po in c.primary_outputs} == ref_out
        for q, d in zip(fm.ff_input_order, fm.ff_output_order):
            assert fr_out[d] == ref_next[q]


def test_frame_of_combinational_is_identity():
    c17 = load_bundled("c17")
    fm = frame(c17)
    assert fm.frame is c17
    assert fm.ff_count == 0


def test_topology_validation():
    with pytest.raises(ValueError, match="multiple"):
        ScanTopology(num_chains=6, chain_length=2, external_channels=4)
    with pytest.raises(ValueError, match="positive"):
        ScanTopology(num_chains=0, chain_length=1, external_channels=1)
    t = ScanTopology.for_ff_count(32, cr=16)
    assert (t.num_chains, t.chain_length, t.external_channels) == (16, 2, 1)
    assert t.compression_ratio == 16


def scan_probe(n_ff):
    """Frame of n flip-flops whose D pin i is driven by primary input x<i> and
    whose Q net i is observed at primary output p<i>, so that on a one-cycle
    scan the codec alone sits between the scan ports and these nets."""
    specs = [(f"q{i}", "DFF", [f"d{i}"]) for i in range(n_ff)]
    specs += [(f"d{i}", "BUF", [f"x{i}"]) for i in range(n_ff)]
    specs += [(f"p{i}", "BUF", [f"q{i}"]) for i in range(n_ff)]
    return frame(make_circuit(
        f"probe{n_ff}", specs, [f"x{i}" for i in range(n_ff)], [f"p{i}" for i in range(n_ff)]
    ))


def scan_ports(composed):
    return (
        [n for n in composed.primary_inputs if n.startswith("si_")],
        [n for n in composed.primary_outputs if n.startswith("so_")],
    )


def test_decompressor_broadcast_reach():
    topo = ScanTopology(num_chains=4, chain_length=1, external_channels=2)
    composed = compose_platform_frame(scan_probe(4), topo)
    scan_ins, _ = scan_ports(composed)
    assert len(scan_ins) == 2
    loaded = [f"p{i}" for i in range(4)]
    patterns = set()
    for bits in itertools.product((0, 1), repeat=2):
        assign = {pi: 0 for pi in composed.primary_inputs}
        assign.update(zip(scan_ins, bits))
        out, _ = evaluate(composed, assign)
        patterns.add(tuple(out[p] for p in loaded))
    # broadcast: channel value repeats across its CR chains
    assert patterns == {(a, a, b, b) for a in (0, 1) for b in (0, 1)}
    assert len(patterns) == 4


def test_compactor_parity():
    topo = ScanTopology(num_chains=3, chain_length=1, external_channels=1)
    composed = compose_platform_frame(scan_probe(3), topo)
    captured = ["x0", "x1", "x2"]
    out, _ = evaluate(composed, {"si_g0_c0": 0, "x0": 1, "x1": 1, "x2": 0})
    assert out["so_g0_c0"] == 0
    for bits in itertools.product((0, 1), repeat=3):
        out, _ = evaluate(composed, {"si_g0_c0": 0, **dict(zip(captured, bits))})
        assert out["so_g0_c0"] == sum(bits) % 2


def test_compactor_cr1_is_identity():
    topo = ScanTopology(num_chains=3, chain_length=1, external_channels=3)
    composed = compose_platform_frame(scan_probe(3), topo)
    scan_ins, scan_outs = scan_ports(composed)
    for bits in itertools.product((0, 1), repeat=3):
        assign = {si: 0 for si in scan_ins}
        assign.update((f"x{i}", b) for i, b in enumerate(bits))
        out, _ = evaluate(composed, assign)
        assert tuple(out[so] for so in scan_outs) == bits


def test_compose_codec_copy_counts():
    c = seq_circuit(9)
    fm = frame(c)
    topo = ScanTopology(num_chains=3, chain_length=3, external_channels=1)
    composed = compose_platform_frame(fm, topo)
    scan_ins = [n for n in composed.primary_inputs if n.startswith("si_")]
    scan_outs = [n for n in composed.primary_outputs if n.startswith("so_")]
    # one channel per shift cycle on each side
    assert scan_ins == [f"si_g{g}_c0" for g in range(3)]
    assert scan_outs == [f"so_g{g}_c0" for g in range(3)]
    # 3 compactor copies, each folding 3 chains into 1 net -> 2 XORs per copy
    xor_gates = [g for g in composed.gates if g.kind == "XOR" and g.output.startswith("so_")]
    assert len(xor_gates) == 3 * 2
    # decompressor copies: one BUF per (chain, cycle) slot
    buf_gates = [g for g in composed.gates if g.kind == "BUF" and g.inputs[0].startswith("si_")]
    assert len(buf_gates) == 9


def test_compose_cr1_equivalent_to_frame():
    c = seq_circuit(4, seed=3)
    fm = frame(c)
    topo = ScanTopology(num_chains=2, chain_length=2, external_channels=2)
    composed = compose_platform_frame(fm, topo)
    n_pi = len(c.primary_inputs)

    # map each FF slot to its scan-in/scan-out channel nets
    si_of = {}
    so_of = {}
    for idx in range(fm.ff_count):
        chain, pos = divmod(idx, topo.chain_length)
        si_of[fm.ff_input_order[idx]] = f"si_g{pos}_c{chain}"
        so_of[fm.ff_output_order[idx]] = f"so_g{pos}_c{chain}"

    total_inputs = fm.frame.primary_inputs
    for bits in itertools.product((0, 1), repeat=len(total_inputs)):
        assign = dict(zip(total_inputs, bits))
        ref, _ = evaluate(fm.frame, assign)
        got, _ = evaluate(
            composed,
            {si_of.get(n, n): v for n, v in assign.items()},
        )
        for po in c.primary_outputs:
            assert got[po] == ref[po]
        for d in fm.ff_output_order:
            assert got[so_of[d]] == ref[d]


def test_compose_identity_for_combinational():
    c17 = load_bundled("c17")
    fm = frame(c17)
    topo = ScanTopology(num_chains=2, chain_length=1, external_channels=2)
    assert compose_platform_frame(fm, topo) is c17


def test_compose_capacity_check_and_padding():
    c = seq_circuit(3, seed=5)
    fm = frame(c)
    with pytest.raises(NetlistError, match="covers"):
        compose_platform_frame(fm, ScanTopology(2, 1, 1))
    padded = compose_platform_frame(fm, ScanTopology(2, 2, 1))
    # capacity 4 > 3 FFs: evaluates fine, deterministic naming
    assign = {pi: 0 for pi in padded.primary_inputs}
    out, _ = evaluate(padded, assign)
    assert set(out) == set(padded.primary_outputs)


def test_compactor_observability_shrinks_with_cr():
    """Nested groupings: patterns distinguishable at higher CR stay
    distinguishable at lower CR."""
    n = 8
    vectors = list(itertools.product((0, 1), repeat=n))
    sigs = {}
    for cr in (1, 2, 4):
        topo = ScanTopology(num_chains=n, chain_length=1, external_channels=n // cr)
        composed = compose_platform_frame(scan_probe(n), topo)
        scan_ins, scan_outs = scan_ports(composed)
        mat = index_input_matrix([f"x{i}" for i in range(n)], 1 << n)
        mat.update((si, np.zeros(1 << n, dtype=np.uint8)) for si in scan_ins)
        outs, _ = batch_evaluate(composed, mat)
        sig = np.stack([outs[so] for so in scan_outs])
        sigs[cr] = sig
    for hi, lo in ((4, 2), (2, 1)):
        # the low-CR partition must refine the high-CR one: vectors sharing a
        # low-CR signature always share the high-CR signature too
        lo_to_hi = {}
        for i in range(1 << n):
            lo_key = tuple(sigs[lo][:, i])
            hi_key = tuple(sigs[hi][:, i])
            assert lo_to_hi.setdefault(lo_key, hi_key) == hi_key

