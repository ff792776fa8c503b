"""Gate-level netlist representation and bench-format I/O.

Circuits are flat gate lists over named nets. The supported gate kinds are
the usual bench primitives (AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF) plus
DFF for sequential state. Every net has exactly one driver: a primary
input, a combinational gate output, or a DFF output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# The meaning of every combinational gate kind, read by scalar evaluation,
# lane simulation and CNF encoding alike: kind -> (reduction over its
# inputs, whether the result is inverted). BUF and NOT are one-input XOR and
# XNOR.
GATE_OPS = {
    "AND": ("and", False), "NAND": ("and", True),
    "OR": ("or", False), "NOR": ("or", True),
    "XOR": ("xor", False), "XNOR": ("xor", True),
    "NOT": ("xor", True), "BUF": ("xor", False),
}
GATE_KINDS = (*GATE_OPS, "DFF")
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
        self._lane_program: Optional["LaneProgram"] = None

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

    def lane_program(self) -> "LaneProgram":
        """This circuit compiled for bit-parallel simulation, built on first use."""
        if self._lane_program is None:
            self._lane_program = LaneProgram(self)
        return self._lane_program

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


def fanout_cone(circuit: Circuit, nets: Iterable[str]) -> FrozenSet[str]:
    """``nets`` and every net that reads one of them, directly or through
    other gates (DFFs included)."""
    readers: Dict[str, List[str]] = {net: [] for net in circuit.nets()}
    for g in circuit.gates:
        for net in g.inputs:
            readers[net].append(g.output)
    cone = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in cone:
            continue
        if net not in readers:
            raise NetlistError(f"unknown net {net!r}")
        cone.add(net)
        stack.extend(readers[net])
    return frozenset(cone)


def fanin_cone(circuit: Circuit, nets: Iterable[str]) -> FrozenSet[str]:
    """``nets`` and every net one of them reads, directly or through other
    gates (DFFs included)."""
    inputs = set(circuit.primary_inputs)
    cone = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in cone:
            continue
        driver = circuit.driver_of(net)
        if driver is None and net not in inputs:
            raise NetlistError(f"unknown net {net!r}")
        cone.add(net)
        if driver is not None:
            stack.extend(driver.inputs)
    return frozenset(cone)


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


def load_bench(path: str) -> Circuit:
    """The circuit in a bench file, named after the file without ``.bench``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bench(fh.read(), name=path.rsplit("/", 1)[-1].removesuffix(".bench"))


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


# reduction -> its value over 0/1 inputs
_SCALAR_REDUCTIONS = {"and": all, "or": any, "xor": lambda vals: sum(vals) & 1}


def _gate_value(kind: str, vals: Iterable[int]) -> int:
    """The output of a combinational gate of ``kind`` over 0/1 ``vals``."""
    try:
        op, inverted = GATE_OPS[kind]
    except KeyError:
        raise NetlistError(f"cannot evaluate gate kind {kind!r}") from None
    return int(_SCALAR_REDUCTIONS[op](vals)) ^ inverted


def evaluate(
    circuit: Circuit,
    inputs: Mapping[str, int],
    state: Optional[Mapping[str, int]] = None,
    all_nets: bool = False,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One combinational evaluation.

    ``inputs`` assigns every primary input; ``state`` assigns every DFF
    output net. Returns (primary output values, next state keyed by DFF
    output net), where the next state of a DFF is the value sampled at its
    D pin; with ``all_nets`` the first dict maps every net.
    """
    values = _evaluate_nets(circuit, inputs, state)
    outputs = values if all_nets else {po: values[po] for po in circuit.primary_outputs}
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
    read = values.__getitem__
    for g in circuit.topo_gates():
        values[g.output] = _gate_value(g.kind, map(read, g.inputs))
    return values


# -- lane simulation ----------------------------------------------------------
#
# Parallel-pattern simulation: every net is one row of a (rows, words) uint64
# matrix and lane l is bit l % 64 of word l // 64, so one bitwise operation
# evaluates a gate on 64 patterns. Lanes above the caller's count (the padding
# bits of the last word) carry garbage once an inverting gate has run; only
# the caller's lanes are ever unpacked.

# reduction -> its numpy reduction over a gate's input rows
_REDUCTIONS = {
    "and": np.bitwise_and.reduce, "or": np.bitwise_or.reduce, "xor": np.bitwise_xor.reduce,
}
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def lane_words(lanes: int) -> int:
    """Words of 64 lanes needed to hold ``lanes`` lanes."""
    return -(-lanes // 64)


def pack_lanes(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack a (rows, lanes) array into (rows, words) uint64, reading each
    entry as its bit 0; the padding lanes are zero."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8) & 1, axis=-1, bitorder="little")
    out = np.zeros((packed.shape[0], words * 8), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def unpack_lanes(packed: np.ndarray, lanes: int) -> np.ndarray:
    """The first ``lanes`` lanes of a (rows, words) packed matrix, as a
    (rows, lanes) uint8 array of 0s and 1s."""
    as_bytes = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=lanes, bitorder="little")


class LaneProgram:
    """A circuit compiled for bit-parallel simulation over packed lanes.

    Row :attr:`row` ``[net]`` of a (:attr:`rows`, words) uint64 matrix holds
    a net's lanes. The sources come first: the primary inputs, then the DFF
    outputs in :attr:`Circuit.flip_flops` order. Combinational gates are
    levelized and grouped by (level, operation, arity), and each group's
    outputs take consecutive rows, so a group evaluates as one gather of
    its input rows, one reduction into its rows and an optional inversion.
    """

    def __init__(self, circuit: Circuit):
        ffs = circuit.flip_flops
        sources = circuit.primary_inputs + tuple(ff.output for ff in ffs)
        row = {net: i for i, net in enumerate(sources)}
        self.sources = len(row)
        level = dict.fromkeys(row, 0)
        level_of = level.__getitem__
        groups: Dict[Tuple[int, str, int], List[Gate]] = {}
        for g in circuit.topo_gates():
            level[g.output] = lv = 1 + max(map(level_of, g.inputs))
            groups.setdefault((lv, GATE_OPS[g.kind][0], len(g.inputs)), []).append(g)
        keys = sorted(groups)
        sizes = [len(groups[key]) for key in keys]
        gates = [g for key in keys for g in groups[key]]
        row.update(zip([g.output for g in gates], range(len(row), len(row) + len(gates))))
        # One array each for all input rows and all inversion masks, built
        # once: the steps hold views into them.
        in_rows = np.array([row[n] for g in gates for n in g.inputs], dtype=np.intp)
        inverted = np.array([GATE_OPS[g.kind][1] for g in gates], dtype=bool)
        masks = np.where(inverted, _ALL_ONES, np.uint64(0))[:, None]
        self._steps = []
        start = offset = 0
        for (_, op, arity), size in zip(keys, sizes):
            stop, end = start + size, offset + size * arity
            self._steps.append((
                _REDUCTIONS[op],
                self.sources + start,
                self.sources + stop,
                in_rows[offset:end].reshape(size, arity),
                masks[start:stop] if inverted[start:stop].any() else None,
            ))
            start, offset = stop, end
        self.row: Dict[str, int] = row
        self.rows = len(row)
        self.output_rows = np.array([row[po] for po in circuit.primary_outputs], dtype=np.intp)
        self.next_state_rows = np.array([row[ff.inputs[0]] for ff in ffs], dtype=np.intp)

    def run(self, values: np.ndarray, sources: np.ndarray) -> None:
        """Load ``sources`` (the packed primary inputs, then the packed DFF
        state) into ``values`` and evaluate every combinational gate."""
        values[: self.sources] = sources
        for reduce, start, stop, in_rows, flip in self._steps:
            out = values[start:stop]
            reduce(values[in_rows], axis=1, out=out)
            if flip is not None:
                out ^= flip


def batch_evaluate(
    circuit: Circuit,
    inputs: Mapping[str, np.ndarray],
    state: Optional[Mapping[str, np.ndarray]] = None,
    all_nets: bool = False,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Vectorized evaluation over parallel lanes.

    Every value is a uint8 ndarray of identical shape; one lane per
    independent pattern, read as its bit 0 like :func:`evaluate` does.
    Returns the same pair as :func:`evaluate`; with ``all_nets`` the first
    dict maps every net instead of just the POs.
    """
    for pi in circuit.primary_inputs:
        if pi not in inputs:
            raise NetlistError(f"missing assignment for primary input {pi!r}")
    ffs = circuit.flip_flops
    if ffs:
        if state is None:
            raise NetlistError("sequential circuit requires a state assignment")
        for ff in ffs:
            if ff.output not in state:
                raise NetlistError(f"missing state for flip-flop output {ff.output!r}")
    sources = [np.asarray(inputs[pi], dtype=np.uint8) for pi in circuit.primary_inputs]
    sources += [np.asarray(state[ff.output], dtype=np.uint8) for ff in ffs]
    if not sources:
        return {}, {}
    shape = sources[0].shape
    bits = np.stack(sources).reshape(len(sources), -1)
    lanes = bits.shape[1]
    words = lane_words(lanes)
    program = circuit.lane_program()
    values = np.empty((program.rows, words), dtype=np.uint64)
    program.run(values, pack_lanes(bits, words))
    if all_nets:
        names: Sequence[str] = circuit.nets()
        rows = np.array([program.row[net] for net in names], dtype=np.intp)
    else:
        names = circuit.primary_outputs
        rows = program.output_rows
    unpacked = unpack_lanes(values[np.concatenate((rows, program.next_state_rows))], lanes)
    out = {net: unpacked[i].reshape(shape) for i, net in enumerate(names)}
    next_state = {
        ff.output: unpacked[len(names) + i].reshape(shape) for i, ff in enumerate(ffs)
    }
    return out, next_state


def index_input_matrix(nets: Sequence[str], lanes: int, offset: int = 0) -> Dict[str, np.ndarray]:
    """Assign lane index bits to nets: net i carries bit i of (lane + offset).

    Enumerates all assignments when lanes == 2**len(nets) and offset == 0.
    """
    idx = np.arange(offset, offset + lanes, dtype=np.uint64)
    return {
        net: ((idx >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
        for i, net in enumerate(nets)
    }


# Lanes per exhaustive chunk; batch_evaluate holds one bit per lane and net.
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

