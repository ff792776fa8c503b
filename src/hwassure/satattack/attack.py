"""Oracle-guided SAT attack on locked combinational models.

The attack builds a miter of two key-differentiated copies of the locked
circuit that share every functional input. While the miter is satisfiable
there exists a distinguishing input pattern (DIP): some pair of keys that
disagree on it. Each DIP is resolved against the oracle and both key
copies are constrained to reproduce the oracle's response, pruning every
key inconsistent with the observation. When no DIP remains, any key
satisfying the accumulated constraints is I/O-equivalent to the oracle,
and one is extracted with a final solver call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..locking import LockedCircuit, LockingKey, insert_random_locking, keyed_outputs
from ..netlist import Circuit, NetlistError, batch_evaluate, evaluate, input_patterns
from ..platform_model import ScanTopology, compose_platform_frame, frame
from .cnf import tseitin_encode
from .solver import SolverBudgetExceeded, make_solver


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
    core = locked.core
    if not core.is_combinational:
        raise NetlistError("attack model must be combinational; compose the platform first")
    shared = locked.functional_inputs()
    outputs = tuple(dict.fromkeys(core.primary_outputs))
    if tuple(sorted(oracle.input_names)) != tuple(sorted(shared)):
        raise ValueError("oracle inputs do not match the model's functional inputs")

    started = time.monotonic()
    deadline = started + time_limit_s

    base = tseitin_encode(core)
    nbase = base.num_variables
    shared_vars = {base.net_to_var[n] for n in shared}
    sat = make_solver(solver)
    for _ in range(nbase):
        sat.new_var()

    def remap_block(bound: Dict[int, int]) -> List[int]:
        """Fresh variable block for one circuit copy; ``bound`` pins nets."""
        m = [0] * (nbase + 1)
        for v in range(1, nbase + 1):
            m[v] = bound.get(v) or sat.new_var()
        return m

    def add_copy(mapping: Sequence[int]) -> None:
        for clause in base.clauses:
            sat.add_clause([mapping[l] if l > 0 else -mapping[-l] for l in clause])

    # copy A is the identity block
    ident = list(range(nbase + 1))
    add_copy(ident)
    # copy B shares functional inputs, gets fresh everything else
    map_b = remap_block({v: v for v in shared_vars})
    add_copy(map_b)

    key_vars_a = [base.net_to_var[k] for k in locked.key_inputs]
    key_vars_b = [map_b[v] for v in key_vars_a]

    # difference detector: diff var per output, OR'd into one assumption literal
    diff_lits = []
    for net in outputs:
        a, b = base.net_to_var[net], map_b[base.net_to_var[net]]
        d = sat.new_var()
        sat.add_clause([-d, a, b])
        sat.add_clause([-d, -a, -b])
        diff_lits.append(d)
    miter_lit = sat.new_var()
    sat.add_clause([-miter_lit] + diff_lits)

    shared_var_list = [base.net_to_var[n] for n in shared]
    out_var_list = [base.net_to_var[n] for n in outputs]
    dip_trace: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []

    def budget() -> float:
        return deadline - time.monotonic()

    def timed_out_result() -> AttackResult:
        return AttackResult(
            recovered_key=None,
            iterations=len(dip_trace),
            elapsed_seconds=time.monotonic() - started,
            status="timeout",
            dip_trace=dip_trace,
        )

    while True:
        remaining = budget()
        if remaining <= 0:
            return timed_out_result()
        if max_iterations is not None and len(dip_trace) >= max_iterations:
            return timed_out_result()
        try:
            if not sat.solve([miter_lit], time_budget_s=remaining):
                break
        except SolverBudgetExceeded:
            return timed_out_result()
        model = sat.model
        dip_bits = tuple(int(model[v]) for v in shared_var_list)
        response = oracle.query(dict(zip(shared, dip_bits)))
        out_bits = tuple(int(response[n]) for n in outputs)
        dip_trace.append((dip_bits, out_bits))

        # pin each key copy to reproduce the oracle on this DIP
        for key_vars in (key_vars_a, key_vars_b):
            pinned = dict(zip(key_vars_a, key_vars))
            block = remap_block(pinned)
            add_copy(block)
            for v, bit in zip(shared_var_list, dip_bits):
                sat.add_clause([block[v] if bit else -block[v]])
            for v, bit in zip(out_var_list, out_bits):
                sat.add_clause([block[v] if bit else -block[v]])

    remaining = budget()
    if remaining <= 0:
        return timed_out_result()
    try:
        if not sat.solve([], time_budget_s=remaining):
            raise RuntimeError("key extraction is unsatisfiable; attack bookkeeping is broken")
    except SolverBudgetExceeded:
        return timed_out_result()
    key = LockingKey(tuple(int(sat.model[v]) for v in key_vars_a))
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
