"""Gate-level netlist representation and bench-format I/O.

Circuits are flat gate lists over named nets. The supported gate kinds are
the usual bench primitives (AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF) plus
DFF for sequential state. Every net has exactly one driver: a primary
input, a combinational gate output, or a DFF output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

GATE_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF", "DFF")
_UNARY_KINDS = ("NOT", "BUF", "DFF")


class NetlistError(ValueError):
    """Structural problem in a circuit (duplicate driver, cycle, bad arity)."""


class BenchParseError(NetlistError):
    """Malformed bench text; message carries the offending line number."""


@dataclass(frozen=True)
class Gate:
    gid: int
    kind: str
    inputs: Tuple[str, ...]
    output: str


@dataclass(frozen=True)
class CircuitMetadata:
    name: str
    key_length: int
    num_gates: int
    num_primary_inputs: int
    num_primary_outputs: int
    num_flip_flop_io: int


class Circuit:
    """Immutable gate-level circuit. Do not mutate fields after construction."""

    def __init__(
        self,
        name: str,
        gates: Sequence[Gate],
        primary_inputs: Sequence[str],
        primary_outputs: Sequence[str],
    ):
        self.name = name
        self.gates = tuple(gates)
        self.primary_inputs = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def flip_flops(self) -> Tuple[Gate, ...]:
        return tuple(g for g in self.gates if g.kind == "DFF")

    @property
    def is_combinational(self) -> bool:
        return not any(g.kind == "DFF" for g in self.gates)

    def nets(self) -> Tuple[str, ...]:
        """All nets in deterministic order: primary inputs, then gate outputs."""
        return self.primary_inputs + tuple(g.output for g in self.gates)

    def driver_of(self, net: str) -> Optional[Gate]:
        return self._drivers.get(net)

    def _validate(self) -> None:
        for i, g in enumerate(self.gates):
            if g.gid != i:
                raise NetlistError(f"gate ids must be dense and ordered, got {g.gid} at {i}")
            if g.kind not in GATE_KINDS:
                raise NetlistError(f"unknown gate kind {g.kind!r}")
            if g.kind in _UNARY_KINDS:
                if len(g.inputs) != 1:
                    raise NetlistError(f"{g.kind} gate {g.output!r} must have exactly 1 input")
            elif len(g.inputs) < 2:
                raise NetlistError(f"{g.kind} gate {g.output!r} must have at least 2 inputs")

        drivers: Dict[str, Optional[Gate]] = {}
        for pi in self.primary_inputs:
            if pi in drivers:
                raise NetlistError(f"duplicate driver for net {pi!r}")
            drivers[pi] = None
        for g in self.gates:
            if g.output in drivers:
                raise NetlistError(f"duplicate driver for net {g.output!r}")
            drivers[g.output] = g
        self._drivers: Dict[str, Optional[Gate]] = {n: g for n, g in drivers.items() if g is not None}

        for g in self.gates:
            for net in g.inputs:
                if net not in drivers:
                    raise NetlistError(f"undefined net {net!r} read by gate {g.output!r}")
        for po in self.primary_outputs:
            if po not in drivers:
                raise NetlistError(f"undefined net {po!r} listed as primary output")

        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # DFF outputs act as sources, so only combinational gates can form a cycle.
        comb = [g for g in self.gates if g.kind != "DFF"]
        by_output = {g.output: g for g in comb}
        indeg = {g.gid: 0 for g in comb}
        fanout: Dict[int, List[int]] = {g.gid: [] for g in comb}
        for g in comb:
            for net in g.inputs:
                src = by_output.get(net)
                if src is not None:
                    indeg[g.gid] += 1
                    fanout[src.gid].append(g.gid)
        gate_by_id = {g.gid: g for g in comb}
        ready = [g.gid for g in comb if indeg[g.gid] == 0]
        order: List[Gate] = []
        while ready:
            gid = ready.pop()
            order.append(gate_by_id[gid])
            for succ in fanout[gid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(comb):
            stuck = sorted(gate_by_id[gid].output for gid, d in indeg.items() if d > 0)
            raise NetlistError(f"combinational cycle through nets: {', '.join(stuck[:8])}")
        self._topo_order = tuple(order)

    def topo_gates(self) -> Tuple[Gate, ...]:
        """Combinational gates in evaluation order (DFFs excluded)."""
        return self._topo_order

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, gates={len(self.gates)}, "
            f"pi={len(self.primary_inputs)}, po={len(self.primary_outputs)}, "
            f"dff={len(self.flip_flops)})"
        )


def make_circuit(
    name: str,
    gate_specs: Iterable[Tuple[str, str, Sequence[str]]],
    primary_inputs: Sequence[str],
    primary_outputs: Sequence[str],
) -> Circuit:
    """Build a circuit from (output, kind, inputs) triples, assigning gate ids."""
    gates = [
        Gate(i, kind.upper(), tuple(ins), out)
        for i, (out, kind, ins) in enumerate(gate_specs)
    ]
    return Circuit(name, gates, primary_inputs, primary_outputs)


# -- bench format ------------------------------------------------------------

_GATE_RE = re.compile(r"^([^\s=]+)\s*=\s*([A-Za-z]+)\s*\((.*)\)$")
_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\((.*)\)$", re.IGNORECASE)


def parse_bench(text: str, name: str = "bench") -> Circuit:
    """Parse ISCAS-style bench text into a Circuit.

    Keywords are case-insensitive; '#' starts a comment; net names are
    case-sensitive opaque tokens.
    """
    inputs: List[str] = []
    outputs: List[str] = []
    specs: List[Tuple[str, str, List[str]]] = []
    seen_drivers: Dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_m = _IO_RE.match(line)
        if io_m:
            net = io_m.group(2).strip()
            if not net or any(ch.isspace() for ch in net):
                raise BenchParseError(f"line {lineno}: bad net name in {raw.strip()!r}")
            if io_m.group(1).upper() == "INPUT":
                if net in seen_drivers:
                    raise BenchParseError(
                        f"line {lineno}: duplicate driver for net {net!r} "
                        f"(first at line {seen_drivers[net]})"
                    )
                seen_drivers[net] = lineno
                inputs.append(net)
            else:
                outputs.append(net)
            continue
        gate_m = _GATE_RE.match(line)
        if gate_m:
            out, kind, arglist = gate_m.groups()
            kind = kind.upper()
            if kind not in GATE_KINDS:
                raise BenchParseError(f"line {lineno}: unknown gate kind {kind!r}")
            args = [a.strip() for a in arglist.split(",")] if arglist.strip() else []
            if any(not a or any(ch.isspace() for ch in a) for a in args):
                raise BenchParseError(f"line {lineno}: bad argument list in {raw.strip()!r}")
            if out in seen_drivers:
                raise BenchParseError(
                    f"line {lineno}: duplicate driver for net {out!r} "
                    f"(first at line {seen_drivers[out]})"
                )
            seen_drivers[out] = lineno
            specs.append((out, kind, args))
            continue
        raise BenchParseError(f"line {lineno}: cannot parse {raw.strip()!r}")

    try:
        return make_circuit(name, specs, inputs, outputs)
    except BenchParseError:
        raise
    except NetlistError as exc:
        raise BenchParseError(str(exc)) from exc


def load_bench(path: str, name: Optional[str] = None) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if name is None:
        base = path.rsplit("/", 1)[-1]
        name = base[:-6] if base.endswith(".bench") else base
    return parse_bench(text, name=name)


def write_bench(circuit: Circuit) -> str:
    lines = [f"# {circuit.name}"]
    lines += [f"INPUT({n})" for n in circuit.primary_inputs]
    lines += [f"OUTPUT({n})" for n in circuit.primary_outputs]
    lines.append("")
    lines += [f"{g.output} = {g.kind}({', '.join(g.inputs)})" for g in circuit.gates]
    return "\n".join(lines) + "\n"


def save_bench(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_bench(circuit))


# -- evaluation --------------------------------------------------------------


def _gate_value(kind: str, vals: Sequence[int]) -> int:
    if kind == "AND":
        return int(all(vals))
    if kind == "NAND":
        return int(not all(vals))
    if kind == "OR":
        return int(any(vals))
    if kind == "NOR":
        return int(not any(vals))
    if kind == "XOR":
        return sum(vals) & 1
    if kind == "XNOR":
        return (sum(vals) & 1) ^ 1
    if kind == "NOT":
        return vals[0] ^ 1
    if kind == "BUF":
        return vals[0]
    raise NetlistError(f"cannot evaluate gate kind {kind!r}")


def evaluate(
    circuit: Circuit,
    inputs: Mapping[str, int],
    state: Optional[Mapping[str, int]] = None,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One combinational evaluation.

    ``inputs`` assigns every primary input; ``state`` assigns every DFF
    output net. Returns (primary output values, next state keyed by DFF
    output net), where the next state of a DFF is the value sampled at its
    D pin.
    """
    values = _evaluate_nets(circuit, inputs, state)
    outputs = {po: values[po] for po in circuit.primary_outputs}
    next_state = {ff.output: values[ff.inputs[0]] for ff in circuit.flip_flops}
    return outputs, next_state


def _evaluate_nets(
    circuit: Circuit,
    inputs: Mapping[str, int],
    state: Optional[Mapping[str, int]],
) -> Dict[str, int]:
    values: Dict[str, int] = {}
    for pi in circuit.primary_inputs:
        if pi not in inputs:
            raise NetlistError(f"missing assignment for primary input {pi!r}")
        values[pi] = int(inputs[pi]) & 1
    ffs = circuit.flip_flops
    if ffs:
        if state is None:
            raise NetlistError("sequential circuit requires a state assignment")
        for ff in ffs:
            if ff.output not in state:
                raise NetlistError(f"missing state for flip-flop output {ff.output!r}")
            values[ff.output] = int(state[ff.output]) & 1
    for g in circuit.topo_gates():
        values[g.output] = _gate_value(g.kind, [values[n] for n in g.inputs])
    return values


def batch_evaluate(
    circuit: Circuit,
    inputs: Mapping[str, np.ndarray],
    state: Optional[Mapping[str, np.ndarray]] = None,
    all_nets: bool = False,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Vectorized evaluation over parallel lanes.

    Every value is a uint8 ndarray of identical shape; one lane per
    independent pattern. Returns the same pair as :func:`evaluate`; with
    ``all_nets`` the first dict maps every net instead of just the POs.
    """
    values = _batch_nets(circuit, inputs, state)
    if all_nets:
        out = values
    else:
        out = {po: values[po] for po in circuit.primary_outputs}
    next_state = {ff.output: values[ff.inputs[0]] for ff in circuit.flip_flops}
    return out, next_state


def _batch_nets(
    circuit: Circuit,
    inputs: Mapping[str, np.ndarray],
    state: Optional[Mapping[str, np.ndarray]],
) -> Dict[str, np.ndarray]:
    values: Dict[str, np.ndarray] = {}
    for pi in circuit.primary_inputs:
        if pi not in inputs:
            raise NetlistError(f"missing assignment for primary input {pi!r}")
        values[pi] = np.asarray(inputs[pi], dtype=np.uint8)
    ffs = circuit.flip_flops
    if ffs:
        if state is None:
            raise NetlistError("sequential circuit requires a state assignment")
        for ff in ffs:
            if ff.output not in state:
                raise NetlistError(f"missing state for flip-flop output {ff.output!r}")
            values[ff.output] = np.asarray(state[ff.output], dtype=np.uint8)
    one = np.uint8(1)
    for g in circuit.topo_gates():
        ins = [values[n] for n in g.inputs]
        kind = g.kind
        if kind in ("AND", "NAND"):
            acc = ins[0] & ins[1]
            for extra in ins[2:]:
                acc = acc & extra
            values[g.output] = acc ^ one if kind == "NAND" else acc
        elif kind in ("OR", "NOR"):
            acc = ins[0] | ins[1]
            for extra in ins[2:]:
                acc = acc | extra
            values[g.output] = acc ^ one if kind == "NOR" else acc
        elif kind in ("XOR", "XNOR"):
            acc = ins[0] ^ ins[1]
            for extra in ins[2:]:
                acc = acc ^ extra
            values[g.output] = acc ^ one if kind == "XNOR" else acc
        elif kind == "NOT":
            values[g.output] = ins[0] ^ one
        else:  # BUF
            values[g.output] = ins[0].copy()
    return values


def index_input_matrix(nets: Sequence[str], lanes: int, offset: int = 0) -> Dict[str, np.ndarray]:
    """Assign lane index bits to nets: net i carries bit i of (lane + offset).

    Enumerates all assignments when lanes == 2**len(nets) and offset == 0.
    """
    idx = np.arange(offset, offset + lanes, dtype=np.uint64)
    return {
        net: ((idx >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
        for i, net in enumerate(nets)
    }


# Lanes per exhaustive chunk; batch_evaluate holds one array this long per net.
_PATTERN_CHUNK = 1 << 14


def input_patterns(
    nets: Sequence[str], samples: Optional[int] = None, seed: int = 0
) -> Iterator[Dict[str, np.ndarray]]:
    """Lane matrices assigning ``nets``, in the form :func:`batch_evaluate` takes.

    With ``samples=None`` the yielded chunks together hold every assignment
    once, in :func:`index_input_matrix` order. Otherwise one batch of
    ``samples`` lanes is drawn net by net from ``np.random.default_rng(seed)``.
    """
    if samples is None:
        total = 1 << len(nets)
        for offset in range(0, total, _PATTERN_CHUNK):
            yield index_input_matrix(nets, min(_PATTERN_CHUNK, total - offset), offset)
        return
    if samples < 1:
        raise ValueError("need at least one pattern")
    rng = np.random.default_rng(seed)
    yield {net: rng.integers(0, 2, samples, dtype=np.uint8) for net in nets}


# -- metadata ----------------------------------------------------------------


def extract_metadata(
    circuit: Circuit,
    key_length: int = 0,
    exclude_inputs: Sequence[str] = (),
) -> CircuitMetadata:
    """Summarize a circuit for model selection.

    ``exclude_inputs`` removes key inputs from the primary input count so a
    locked instance reports its functional interface width.
    """
    excluded = set(exclude_inputs)
    return CircuitMetadata(
        name=circuit.name,
        key_length=key_length,
        num_gates=len(circuit.gates),
        num_primary_inputs=sum(1 for pi in circuit.primary_inputs if pi not in excluded),
        num_primary_outputs=len(circuit.primary_outputs),
        num_flip_flop_io=len(circuit.flip_flops),
    )

