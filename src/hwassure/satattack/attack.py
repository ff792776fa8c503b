"""Oracle-guided SAT attack on locked combinational models.

The attack builds a miter of two key-differentiated copies of the locked
circuit that share every functional input. While the miter is satisfiable
there exists a distinguishing input pattern (DIP): some pair of keys that
disagree on it. Each DIP is resolved against the oracle and both key
copies are constrained to reproduce the oracle's response, pruning every
key inconsistent with the observation. When no DIP remains, any key
satisfying the accumulated constraints is I/O-equivalent to the oracle,
and one is extracted with a final solver call (Subramanyan, Ray and Malik,
HOST 2015).

Only the key's fanout cone can differ between the copies, and only its
outputs can show a difference, so the miter encodes only what those
outputs read. Copy A is their support (:func:`fanin_cone`), a cone-of-
influence reduction with buffers and inverters folded into literals by
:func:`tseitin_encode` (Kuehlmann, Paruthi, Krohm and Ganai, TCAD 2002);
every functional input and key bit still gets a variable. Copy B reads
copy A's literal for every net outside the cone, which is the structural
sharing step of equivalence checking (Kuehlmann and Krohm, DAC 1997): its
clauses cover the cone gates inside the support alone, and only outputs
inside the cone get a difference literal. Each DIP constraint likewise
encodes those cone gates alone, once per key copy. The DIP fixes every
net outside the cone, so one evaluation of the core gives those nets as
constants, and they are folded into the cone's gates as it is encoded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..locking import LockedCircuit, LockingKey, insert_random_locking, keyed_outputs
from ..netlist import (
    Circuit,
    NetlistError,
    batch_evaluate,
    evaluate,
    fanin_cone,
    fanout_cone,
    input_patterns,
    make_circuit,
)
from ..platform_model import ScanTopology, compose_platform_frame, frame
from .cnf import CnfFormula, Value, encode_folded, tseitin_encode
from .solver import CdclSolver, DimacsSolver, SolverBudgetExceeded, make_solver


class CircuitOracle:
    """Black-box oracle backed by an unlocked circuit at the same interface."""

    def __init__(self, circuit: Circuit):
        if not circuit.is_combinational:
            raise NetlistError("oracle circuit must be combinational; compose the platform first")
        self.circuit = circuit

    @property
    def input_names(self) -> Tuple[str, ...]:
        return self.circuit.primary_inputs

    @property
    def output_names(self) -> Tuple[str, ...]:
        return self.circuit.primary_outputs

    def query(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        out, _ = evaluate(self.circuit, inputs)
        return out


@dataclass
class AttackResult:
    recovered_key: Optional[LockingKey]
    iterations: int
    elapsed_seconds: float
    status: str  # "success" or "timeout"
    dip_trace: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = field(default_factory=list)
    verified: Optional[bool] = None

    @property
    def dips(self) -> List[Tuple[int, ...]]:
        return [dip for dip, _ in self.dip_trace]


# Recovered-key check: every functional input pattern up to this many
# inputs, otherwise this many seeded random patterns.
VERIFY_EXHAUSTIVE_LIMIT = 16
VERIFY_SAMPLES = 10000


class Miter:
    """Two copies of a locked core under separate keys, driven by the same
    functional inputs, plus the I/O constraints the attack has added on
    both keys. ``sat`` is an empty solver (see :func:`make_solver`)."""

    def __init__(self, locked: LockedCircuit, sat: Union[CdclSolver, DimacsSolver]):
        core = locked.core
        if not core.is_combinational:
            raise NetlistError("attack model must be combinational; compose the platform first")
        self.locked = locked
        self.sat = sat
        self.inputs = locked.functional_inputs()
        self.outputs = tuple(dict.fromkeys(core.primary_outputs))
        self._cone = cone = fanout_cone(core, locked.key_inputs)
        self.diff_outputs = tuple(n for n in self.outputs if n in cone)
        # only what the cone's outputs read can tell two keys apart
        support = fanin_cone(core, self.diff_outputs)
        support_gates = [g for g in core.topo_gates() if g.output in support]
        self._cone_gates = [g for g in support_gates if g.output in cone]
        # nets outside the cone that cone gates read
        self._boundary = tuple(
            dict.fromkeys(n for g in self._cone_gates for n in g.inputs if n not in cone)
        )
        self._key_zero = dict.fromkeys(locked.key_inputs, 0)

        # every input and key bit keeps a variable, read or not
        base = tseitin_encode(make_circuit(
            core.name,
            [(g.output, g.kind, g.inputs) for g in support_gates],
            (*self.inputs, *locked.key_inputs),
            self.diff_outputs,
        ))
        self._add(base)
        lit = base.net_to_var
        self._input_vars = [lit[n] for n in self.inputs]
        key_b = [sat.new_var() for _ in locked.key_inputs]
        self.key_vars = ([lit[k] for k in locked.key_inputs], key_b)
        copy_b = self._encode_cone({n: lit[n] for n in self._boundary}, key_b)

        diff_lits = []
        for net in self.diff_outputs:
            a, b = lit[net], copy_b[net]
            d = sat.new_var()
            sat.add_clause([-d, a, b])
            sat.add_clause([-d, -a, -b])
            diff_lits.append(d)
        self._miter_lit = sat.new_var()
        sat.add_clause([-self._miter_lit] + diff_lits)

    def _add(self, f: CnfFormula) -> None:
        while self.sat.nvars < f.num_variables:
            self.sat.new_var()
        for clause in f.clauses:
            self.sat.add_clause(clause)

    def _encode_cone(self, boundary: Mapping[str, Value], key_vars: Sequence[int]) -> Dict[str, Value]:
        """Encode the cone's gates over ``boundary`` (a value for each net in
        ``self._boundary``) and ``key_vars``; returns every cone net's value."""
        f = CnfFormula(self.sat.nvars)
        values: Dict[str, Value] = dict(boundary)
        values.update(zip(self.locked.key_inputs, key_vars))
        for g in self._cone_gates:
            values[g.output] = encode_folded(f, g.kind, [values[n] for n in g.inputs])
        self._add(f)
        return values

    def find_dip(self, time_budget_s: float) -> Optional[Tuple[int, ...]]:
        """A functional input pattern on which two keys still allowed
        disagree, or None when no such pattern remains."""
        if not self.sat.solve([self._miter_lit], time_budget_s=time_budget_s):
            return None
        model = self.sat.model
        return tuple(int(model[v]) for v in self._input_vars)

    def add_io_constraint(self, dip: Sequence[int], response: Sequence[int]) -> None:
        """Require both key copies to give ``response`` (one bit per entry of
        ``self.outputs``) on the functional input pattern ``dip``."""
        # the key does not reach the nets read here, so any key will do
        assign = {**dict(zip(self.inputs, dip)), **self._key_zero}
        values, _ = evaluate(self.locked.core, assign, all_nets=True)
        wanted = dict(zip(self.outputs, response))
        for net, bit in wanted.items():
            if net not in self._cone:
                self._require(bool(values[net]), bit)
        boundary = {n: bool(values[n]) for n in self._boundary}
        for key_vars in self.key_vars:
            cone = self._encode_cone(boundary, key_vars)
            for net in self.diff_outputs:
                self._require(cone[net], wanted[net])

    def _require(self, value: Value, bit: int) -> None:
        """Add ``value == bit``; a constant that differs from ``bit`` leaves
        no key, so it adds the empty clause."""
        if isinstance(value, bool):
            if value != bit:
                self.sat.add_clause([])
        else:
            self.sat.add_clause([value if bit else -value])

    def extract_key(self, time_budget_s: float) -> LockingKey:
        """A key of copy A that meets every constraint added so far."""
        if not self.sat.solve([], time_budget_s=time_budget_s):
            raise RuntimeError("key extraction is unsatisfiable; attack bookkeeping is broken")
        return LockingKey(tuple(int(self.sat.model[v]) for v in self.key_vars[0]))


def sat_attack(
    locked: LockedCircuit,
    oracle: CircuitOracle,
    time_limit_s: float = 3600.0,
    max_iterations: Optional[int] = None,
    solver: str = "builtin",
    verify: bool = True,
    verify_seed: int = 0,
) -> AttackResult:
    """Recover a functionally correct key from a locked model and an oracle."""
    shared = locked.functional_inputs()
    if tuple(sorted(oracle.input_names)) != tuple(sorted(shared)):
        raise ValueError("oracle inputs do not match the model's functional inputs")
    started = time.monotonic()
    deadline = started + time_limit_s
    miter = Miter(locked, make_solver(solver))
    dip_trace: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []

    def timed_out_result() -> AttackResult:
        return AttackResult(
            recovered_key=None,
            iterations=len(dip_trace),
            elapsed_seconds=time.monotonic() - started,
            status="timeout",
            dip_trace=dip_trace,
        )

    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return timed_out_result()
        if max_iterations is not None and len(dip_trace) >= max_iterations:
            return timed_out_result()
        try:
            dip = miter.find_dip(remaining)
        except SolverBudgetExceeded:
            return timed_out_result()
        if dip is None:
            break
        response = oracle.query(dict(zip(shared, dip)))
        out_bits = tuple(int(response[n]) for n in miter.outputs)
        dip_trace.append((dip, out_bits))
        miter.add_io_constraint(dip, out_bits)

    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return timed_out_result()
    try:
        key = miter.extract_key(remaining)
    except SolverBudgetExceeded:
        return timed_out_result()
    result = AttackResult(
        recovered_key=key,
        iterations=len(dip_trace),
        elapsed_seconds=time.monotonic() - started,
        status="success",
        dip_trace=dip_trace,
    )
    if verify:
        result.verified = verify_recovered_key(locked, key, oracle.circuit, seed=verify_seed)
    return result


def verify_recovered_key(
    locked: LockedCircuit,
    key: LockingKey,
    oracle_circuit: Circuit,
    seed: int = 0,
) -> bool:
    """I/O equivalence of the keyed model against the oracle circuit.

    Exhaustive up to ``VERIFY_EXHAUSTIVE_LIMIT`` functional inputs,
    otherwise ``VERIFY_SAMPLES`` patterns drawn from ``seed``; zero
    mismatches required either way.
    """
    shared = locked.functional_inputs()
    samples = None if len(shared) <= VERIFY_EXHAUSTIVE_LIMIT else VERIFY_SAMPLES
    for patterns in input_patterns(shared, samples, seed):
        got = keyed_outputs(locked, key, patterns)
        ref, _ = batch_evaluate(oracle_circuit, patterns)
        rows = zip(got, locked.core.primary_outputs)
        if not all(np.array_equal(row, ref[po]) for row, po in rows):
            return False
    return True


def build_platform_instance(
    circuit: Circuit,
    key_length: int,
    cr: int,
    seed: int,
    external_channels: int = 1,
) -> Tuple[LockedCircuit, CircuitOracle, Optional[ScanTopology]]:
    """Lock a design and compose the matching attack-model/oracle pair.

    Sequential designs are framed and wrapped in the scan codec at the
    requested compression ratio; the oracle is the unlocked design under
    the identical topology, so both sides expose the same scan-port
    interface. Combinational designs need no scan path and pass through
    unchanged regardless of ``cr``.
    """
    locked = insert_random_locking(circuit, key_length, seed=seed)
    if circuit.flip_flops:
        topology = ScanTopology.for_ff_count(len(circuit.flip_flops), cr, external_channels)
        model_core = compose_platform_frame(frame(locked.core), topology)
        oracle_circuit = compose_platform_frame(frame(circuit), topology)
    else:
        topology = None
        model_core = locked.core
        oracle_circuit = circuit
    model = LockedCircuit(model_core, locked.key_inputs, locked.correct_key)
    return model, CircuitOracle(oracle_circuit), topology


def attack_report(
    result: AttackResult, design: str, key_length: int, cr: int, seed: Optional[int] = None
) -> Dict[str, object]:
    """JSON-ready record; wall-clock time sits in its own field so the rest
    of the record is byte-stable across runs."""
    rec: Dict[str, object] = {
        "design": design,
        "key_length": key_length,
        "cr": cr,
        "iterations": result.iterations,
        "status": result.status,
        "recovered_key": result.recovered_key.as_string() if result.recovered_key else None,
        "verified": result.verified,
        "elapsed_s": round(result.elapsed_seconds, 6),
    }
    if seed is not None:
        rec["seed"] = seed
    return rec
