"""Structural and statistical assurance metrics.

Testability-style controllability/observability scores propagated
through combinational netlists, fault-propagation hardness of a chosen
net, finite-state-machine fault-injection susceptibility, physical
unclonable function quality figures, and counterfeit defect coverage.
All calculators are pure functions over explicit inputs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .netlist import Circuit, _gate_value, batch_evaluate, input_patterns

MAX_TRUTH_TABLE_FANIN = 16


@lru_cache(maxsize=None)
def _gate_truth_table(kind: str, fan_in: int) -> Tuple[int, ...]:
    """Output for every input pattern; bit i of the index drives input i."""
    if fan_in > MAX_TRUTH_TABLE_FANIN:
        raise ValueError(f"fan-in {fan_in} exceeds truth-table limit {MAX_TRUTH_TABLE_FANIN}")
    rows = []
    for pattern in range(1 << fan_in):
        vals = [(pattern >> i) & 1 for i in range(fan_in)]
        rows.append(_gate_value(kind, vals))
    return tuple(rows)


def gate_controllability_transfer(kind: str, fan_in: int, classical: bool = False) -> float:
    """1 - |N(0) - N(1)| / 2 over the fraction of patterns per output value.

    ``classical`` switches the divisor to N(0) + N(1), the textbook
    normalization; both agree only for balanced gates.
    """
    table = _gate_truth_table(kind, fan_in)
    n1 = sum(table) / len(table)
    n0 = 1.0 - n1
    divisor = (n0 + n1) if classical else 2.0
    return 1.0 - abs(n0 - n1) / divisor


def gate_observability_transfer(kind: str, fan_in: int) -> float:
    """Mean over inputs of the fraction of patterns where that input flips the output."""
    table = _gate_truth_table(kind, fan_in)
    total = 0.0
    for i in range(fan_in):
        sensitized = sum(
            1 for p in range(len(table)) if table[p] != table[p ^ (1 << i)]
        )
        total += sensitized / len(table)
    return total / fan_in


def _require_combinational(circuit: Circuit) -> None:
    if not circuit.is_combinational:
        raise ValueError("metric defined for combinational circuits; frame first")


def controllability(circuit: Circuit, classical: bool = False) -> Dict[str, float]:
    """Per-net controllability in [0, 1]; primary inputs are fully controllable.

    Each gate output scores its transfer factor times the mean of its
    input scores, propagated in topological order. Reconvergent fanout
    is treated as independent.
    """
    _require_combinational(circuit)
    cy: Dict[str, float] = {pi: 1.0 for pi in circuit.primary_inputs}
    for gate in circuit.topo_gates():
        ctf = gate_controllability_transfer(gate.kind, len(gate.inputs), classical)
        cy[gate.output] = ctf * float(np.mean([cy[x] for x in gate.inputs]))
    return cy


def observability(circuit: Circuit) -> Dict[str, float]:
    """Per-net observability in [0, 1]; primary outputs are fully observable.

    A net scores the mean over its consumers of that gate's transfer
    factor times the gate output's score; nets driving nothing score 0.
    """
    _require_combinational(circuit)
    contributions: Dict[str, List[float]] = {}
    pos = set(circuit.primary_outputs)

    def resolve(net: str) -> float:
        if net in pos:
            return 1.0
        got = contributions.get(net)
        return float(np.mean(got)) if got else 0.0

    oy: Dict[str, float] = {}
    for gate in reversed(circuit.topo_gates()):
        out_score = resolve(gate.output)
        oy[gate.output] = out_score
        otf = gate_observability_transfer(gate.kind, len(gate.inputs))
        for x in gate.inputs:
            contributions.setdefault(x, []).append(otf * out_score)
    for pi in circuit.primary_inputs:
        oy[pi] = resolve(pi)
    return oy


def observation_hardness(
    circuit: Circuit,
    node: str,
    n_patterns: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Fraction of primary-input stuck-at faults whose effect reaches the node.

    Both stuck values are injected at every primary input; a fault
    counts as detected when any simulated pattern makes the node differ
    from the fault-free value. ``n_patterns=None`` runs every input
    pattern exhaustively.
    """
    _require_combinational(circuit)
    if node not in circuit.nets():
        raise ValueError(f"unknown net {node!r}")
    pis = circuit.primary_inputs
    if not pis:
        raise ValueError("circuit has no primary inputs")
    if n_patterns is None and len(pis) > MAX_TRUTH_TABLE_FANIN:
        raise ValueError("too many inputs for exhaustive patterns")
    undetected = [(pi, stuck) for pi in pis for stuck in (0, 1)]
    for inputs in input_patterns(pis, n_patterns, seed):
        good_node = batch_evaluate(circuit, inputs, all_nets=True)[0][node]
        lanes = good_node.shape[0]
        missed = []
        for pi, stuck in undetected:
            forced = dict(inputs)
            forced[pi] = np.full(lanes, stuck, dtype=np.uint8)
            faulty, _ = batch_evaluate(circuit, forced, all_nets=True)
            if not np.any(faulty[node] != good_node):
                missed.append((pi, stuck))
        undetected = missed
    return (2 * len(pis) - len(undetected)) / (2 * len(pis))


@dataclass(frozen=True)
class FsmTransition:
    source: str
    target: str
    vulnerable: bool
    violated_delays: Tuple[float, ...] = ()
    safe_delays: Tuple[float, ...] = ()

    def __post_init__(self):
        if any(d <= 0 for d in self.violated_delays + self.safe_delays):
            raise ValueError("path delays must be positive")
        if self.vulnerable and not self.violated_delays:
            raise ValueError("a vulnerable transition needs violated-path delays")


@dataclass(frozen=True)
class FsmSpec:
    transitions: Tuple[FsmTransition, ...]
    design_delays: Tuple[float, ...]

    def __post_init__(self):
        if not self.transitions:
            raise ValueError("need at least one transition")
        if not self.design_delays or any(d <= 0 for d in self.design_delays):
            raise ValueError("design delay set must be non-empty and positive")

    @property
    def states(self) -> Tuple[str, ...]:
        seen = []
        for t in self.transitions:
            for s in (t.source, t.target):
                if s not in seen:
                    seen.append(s)
        return tuple(seen)


@dataclass(frozen=True)
class FsmVulnerability:
    vulnerable_percent: float
    mean_susceptibility: Optional[float]
    susceptibility_factors: Tuple[float, ...]


def fsm_fi_vulnerability(spec: FsmSpec) -> FsmVulnerability:
    """Fault-injection exposure of a state machine.

    Reports the vulnerable share of transitions as a percentage and a
    per-vulnerable-transition susceptibility factor: the gap between the
    fastest violated path and the slowest safe path, in units of the
    design's average path delay. No safe paths makes the gap the
    violated delay itself. With no vulnerable transitions the mean
    susceptibility is undefined and reported as None.
    """
    total = len(spec.transitions)
    vulnerable = [t for t in spec.transitions if t.vulnerable]
    pvt = 100.0 * len(vulnerable) / total
    avg_design = float(np.mean(spec.design_delays))
    factors = tuple(
        (min(t.violated_delays) - (max(t.safe_delays) if t.safe_delays else 0.0)) / avg_design
        for t in vulnerable
    )
    mean_sf = sum(factors) / len(factors) if factors else None
    return FsmVulnerability(pvt, mean_sf, factors)


def _delay_cell(cell: str) -> Tuple[float, ...]:
    cell = cell.strip()
    if not cell:
        return ()
    return tuple(float(v) for v in cell.split(";"))


def fsm_from_csv(text: str) -> FsmSpec:
    """Columns: from,to,vulnerable,pv,po,p_fs; delay sets ;-separated.

    The design delay set may sit on any row; non-empty cells must agree.
    """
    reader = csv.DictReader(io.StringIO(text))
    expected = ["from", "to", "vulnerable", "pv", "po", "p_fs"]
    if reader.fieldnames != expected:
        raise ValueError(f"bad FSM header: {reader.fieldnames}")
    transitions = []
    design: Optional[Tuple[float, ...]] = None
    for row in reader:
        delays = _delay_cell(row["p_fs"])
        if delays:
            if design is not None and delays != design:
                raise ValueError("conflicting design delay sets")
            design = delays
        transitions.append(
            FsmTransition(
                source=row["from"].strip(),
                target=row["to"].strip(),
                vulnerable=row["vulnerable"].strip() in ("1", "true", "True"),
                violated_delays=_delay_cell(row["pv"]),
                safe_delays=_delay_cell(row["po"]),
            )
        )
    if design is None:
        raise ValueError("no design delay set in the table")
    return FsmSpec(tuple(transitions), design)


def _check_bits(bits: str) -> str:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError("responses are non-empty strings over 0/1")
    return bits


def _hamming(a: str, b: str) -> int:
    if len(a) != len(b):
        raise ValueError("response length mismatch")
    return sum(x != y for x, y in zip(a, b))


def puf_inter_hd(responses: Sequence[str]) -> float:
    """Mean pairwise Hamming distance across devices, percent of width."""
    if len(responses) < 2:
        raise ValueError("need at least two responses")
    bits = [_check_bits(r) for r in responses]
    k = len(bits[0])
    pair_sum = 0.0
    n = len(bits)
    for i in range(n):
        for j in range(i + 1, n):
            pair_sum += _hamming(bits[i], bits[j]) / k
    return 2.0 / (n * (n - 1)) * pair_sum * 100.0


def puf_intra_hd(reference: str, samples: Sequence[str]) -> float:
    """Mean Hamming distance of repeated reads from the reference, percent."""
    if not samples:
        raise ValueError("need at least one sample")
    ref = _check_bits(reference)
    k = len(ref)
    total = sum(_hamming(ref, _check_bits(s)) / k for s in samples)
    return total / len(samples) * 100.0


def hex_to_bits(text: str) -> str:
    """Hex digits to a bit string, four bits per digit, MSB first."""
    text = text.strip().lower()
    if text.startswith("0x"):
        text = text[2:]
    if not text or any(c not in "0123456789abcdef" for c in text):
        raise ValueError("not a hex string")
    return "".join(format(int(c, 16), "04b") for c in text)


def cdc(defects: Sequence[Tuple[float, float]]) -> float:
    """Counterfeit detection confidence: frequency-weighted mean, percent.

    Each entry pairs a detection confidence in [0, 1] with the defect's
    occurrence frequency.
    """
    if not defects:
        raise ValueError("need at least one defect entry")
    num = 0.0
    den = 0.0
    for confidence, frequency in defects:
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        if frequency < 0:
            raise ValueError("frequencies cannot be negative")
        num += confidence * frequency
        den += frequency
    if den == 0.0:
        raise ValueError("all defect frequencies are zero")
    return num / den * 100.0


def defects_from_csv(text: str) -> List[Tuple[float, float]]:
    """Columns: confidence,frequency."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["confidence", "frequency"]:
        raise ValueError(f"bad defect header: {reader.fieldnames}")
    return [(float(r["confidence"]), float(r["frequency"])) for r in reader]
