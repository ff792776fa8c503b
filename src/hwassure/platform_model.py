"""Scan-compression platform modeling.

Framing converts a sequential circuit into its one-cycle combinational
frame: every DFF output becomes a primary input and every DFF input a
primary output. Scan access is then modeled structurally: a broadcast
decompressor copy feeds the flip-flop inputs loaded on each shift cycle,
and an XOR-tree compactor copy observes the flip-flop outputs unloaded
on that cycle. One codec copy per shift cycle makes the whole scan
operation (shift in, capture, shift out) a single combinational circuit,
which is what a SAT attack needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .netlist import Circuit, Gate, NetlistError, make_circuit


@dataclass(frozen=True)
class FrameModel:
    frame: Circuit
    ff_input_order: Tuple[str, ...]  # DFF output nets, now primary inputs
    ff_output_order: Tuple[str, ...]  # DFF input nets, now primary outputs

    @property
    def ff_count(self) -> int:
        return len(self.ff_input_order)


@dataclass(frozen=True)
class ScanTopology:
    num_chains: int
    chain_length: int
    external_channels: int

    def __post_init__(self):
        if self.num_chains < 1 or self.chain_length < 1 or self.external_channels < 1:
            raise ValueError("topology dimensions must be positive")
        if self.num_chains % self.external_channels != 0:
            raise ValueError("num_chains must be a multiple of external_channels")

    @property
    def compression_ratio(self) -> int:
        return self.num_chains // self.external_channels

    @property
    def capacity(self) -> int:
        return self.num_chains * self.chain_length

    @staticmethod
    def for_ff_count(ff_count: int, cr: int, external_channels: int = 1) -> "ScanTopology":
        """Smallest topology with ``cr * external_channels`` chains covering the FFs."""
        if ff_count < 1:
            raise ValueError("need at least one flip-flop")
        chains = cr * external_channels
        length = -(-ff_count // chains)
        return ScanTopology(chains, length, external_channels)


def frame(circuit: Circuit) -> FrameModel:
    """Cut every DFF, exposing its Q net as a PI and its D net as a PO.

    Combinational circuits frame to themselves. The appended PI/PO orders
    follow DFF declaration order, so index i of both lists refers to the
    same flip-flop.
    """
    ffs = circuit.flip_flops
    if not ffs:
        return FrameModel(circuit, (), ())
    q_nets = tuple(ff.output for ff in ffs)
    d_nets = tuple(ff.inputs[0] for ff in ffs)
    comb = [g for g in circuit.gates if g.kind != "DFF"]
    gates = [Gate(i, g.kind, g.inputs, g.output) for i, g in enumerate(comb)]
    framed = Circuit(
        circuit.name + "_frame",
        gates,
        circuit.primary_inputs + q_nets,
        circuit.primary_outputs + d_nets,
    )
    return FrameModel(framed, q_nets, d_nets)


def _xor_fold(specs: List[Tuple[str, str, Sequence[str]]], nets: Sequence[str], out: str) -> None:
    """Append gates computing out = parity(nets)."""
    if len(nets) == 1:
        specs.append((out, "BUF", [nets[0]]))
        return
    acc = nets[0]
    for i, net in enumerate(nets[1:-1], start=1):
        t = f"{out}$t{i}"
        specs.append((t, "XOR", [acc, net]))
        acc = t
    specs.append((out, "XOR", [acc, nets[-1]]))


def compose_platform_frame(fm: FrameModel, topology: ScanTopology) -> Circuit:
    """Stitch per-shift-cycle codec copies around a frame.

    Shift cycle g loads chain positions g through one decompressor copy and
    unloads them through one compactor copy, so the composed circuit has
    ``chain_length`` copies of each codec. Original PIs and POs pass through
    untouched; scan I/O nets are named si_g{cycle}_c{channel} and
    so_g{cycle}_c{channel}. Unfilled chain slots loop the decompressor
    output straight into the compactor.

    A frame with no flip-flops composes to itself.
    """
    if fm.ff_count == 0:
        return fm.frame
    if topology.capacity < fm.ff_count:
        raise NetlistError(
            f"topology covers {topology.capacity} flip-flops, circuit has {fm.ff_count}"
        )
    cr = topology.compression_ratio
    n_orig_pi = len(fm.frame.primary_inputs) - fm.ff_count
    n_orig_po = len(fm.frame.primary_outputs) - fm.ff_count
    orig_pis = fm.frame.primary_inputs[:n_orig_pi]
    orig_pos = fm.frame.primary_outputs[:n_orig_po]

    existing = set(fm.frame.nets())
    specs: List[Tuple[str, str, Sequence[str]]] = [
        (g.output, g.kind, g.inputs) for g in fm.frame.gates
    ]
    scan_ins: List[str] = []
    scan_outs: List[str] = []

    for g in range(topology.chain_length):
        chan_nets = []
        for c in range(topology.external_channels):
            net = f"si_g{g}_c{c}"
            if net in existing:
                raise NetlistError(f"net name collision on {net!r}")
            chan_nets.append(net)
            scan_ins.append(net)
        # decompressor copy g: broadcast each channel onto its CR chains
        observed: List[str] = []
        for i in range(topology.num_chains):
            ff_index = i * topology.chain_length + g
            src = chan_nets[i // cr]
            if ff_index < fm.ff_count:
                q_net = fm.ff_input_order[ff_index]
                specs.append((q_net, "BUF", [src]))
                observed.append(fm.ff_output_order[ff_index])
            else:
                pad = f"pad_g{g}_ch{i}"
                if pad in existing:
                    raise NetlistError(f"net name collision on {pad!r}")
                specs.append((pad, "BUF", [src]))
                observed.append(pad)
        # compactor copy g: parity of each channel group of chains
        for c in range(topology.external_channels):
            out = f"so_g{g}_c{c}"
            if out in existing:
                raise NetlistError(f"net name collision on {out!r}")
            _xor_fold(specs, observed[c * cr : (c + 1) * cr], out)
            scan_outs.append(out)

    return make_circuit(
        f"{fm.frame.name}_cr{cr}",
        specs,
        tuple(orig_pis) + tuple(scan_ins),
        tuple(orig_pos) + tuple(scan_outs),
    )

