"""Structural and statistical assurance metrics.

Testability-style controllability/observability scores propagated
through combinational netlists, fault-propagation hardness of a chosen
net, finite-state-machine fault-injection susceptibility, physical
unclonable function quality figures, and counterfeit defect coverage.
All calculators are pure functions over explicit inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .netlist import _ALL_ONES, Circuit, _gate_value, input_patterns, lane_words, pack_lanes
from .tables import csv_rows

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
    program = circuit.lane_program()
    node_row = program.row[node]
    # (source row, stuck value); the primary inputs are the first rows
    undetected = [(row, stuck) for row in range(len(pis)) for stuck in (0, 1)]
    for inputs in input_patterns(pis, n_patterns, seed):
        bits = np.stack([inputs[pi] for pi in pis])
        words = lane_words(bits.shape[1])
        sources = pack_lanes(bits, words)
        # the caller's lanes: padding lanes carry garbage after an inversion
        live = pack_lanes(np.ones((1, bits.shape[1]), dtype=np.uint8), words)[0]
        values = np.empty((program.rows, words), dtype=np.uint64)
        program.run(values, sources)
        good = values[node_row].copy()
        missed = []
        for row, stuck in undetected:
            kept = sources[row].copy()
            sources[row] = _ALL_ONES if stuck else 0
            program.run(values, sources)
            sources[row] = kept
            if not ((values[node_row] ^ good) & live).any():
                missed.append((row, stuck))
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


def _flag(cell: str) -> bool:
    cell = cell.strip()
    if cell in ("1", "true", "True"):
        return True
    if cell in ("0", "false", "False"):
        return False
    raise ValueError(f"expected 1, true, True, 0, false or False, got {cell!r}")


# column -> how its cells read
_FSM_COLUMNS = {
    "from": str.strip, "to": str.strip, "vulnerable": _flag,
    "pv": _delay_cell, "po": _delay_cell, "p_fs": _delay_cell,
}


def fsm_from_csv(text: str) -> FsmSpec:
    """Columns: from,to,vulnerable,pv,po,p_fs; delay sets ;-separated, and
    ``vulnerable`` one of 1/true/True or 0/false/False.

    The design delay set may sit on any row; non-empty cells must agree.
    """
    transitions = []
    design: Optional[Tuple[float, ...]] = None
    for row in csv_rows(text, _FSM_COLUMNS, "FSM"):
        delays = row["p_fs"]
        if delays:
            if design is not None and delays != design:
                raise ValueError("conflicting design delay sets")
            design = delays
        transitions.append(
            FsmTransition(
                source=row["from"],
                target=row["to"],
                vulnerable=row["vulnerable"],
                violated_delays=row["pv"],
                safe_delays=row["po"],
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
    rows = csv_rows(text, {"confidence": float, "frequency": float}, "defect")
    return [(r["confidence"], r["frequency"]) for r in rows]
