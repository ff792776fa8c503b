"""Random XOR/XNOR logic locking and piracy-resilience metrics.

A key gate is spliced onto a gate-output net: the original driver is
renamed and the key gate re-drives the old net name, so every reader
(and the output list) picks up the keyed value. An XOR gate is used for
a key bit of 0 and an XNOR for a key bit of 1, so the correct key makes
every key gate transparent and the locked circuit collapses back to the
original function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .netlist import Circuit, Gate, NetlistError, batch_evaluate, evaluate, input_patterns

KEY_INPUT_PREFIX = "keyinput"


@dataclass(frozen=True)
class LockingKey:
    bits: Tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("key must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("key bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @staticmethod
    def from_string(text: str) -> "LockingKey":
        return LockingKey(tuple(int(ch) for ch in text.strip()))

    @staticmethod
    def from_int(value: int, width: int) -> "LockingKey":
        return LockingKey(tuple((value >> i) & 1 for i in range(width)))


@dataclass(frozen=True)
class LockedCircuit:
    core: Circuit
    key_inputs: Tuple[str, ...]
    correct_key: LockingKey
    lock_sites: Optional[Tuple[Tuple[str, str], ...]] = None  # (net, key gate kind)

    def __post_init__(self):
        if len(self.key_inputs) != len(self.correct_key):
            raise ValueError("key width does not match the number of key inputs")
        if self.lock_sites is not None and len(self.lock_sites) != len(self.key_inputs):
            raise ValueError("one lock site per key input expected")
        pi = set(self.core.primary_inputs)
        for k in self.key_inputs:
            if k not in pi:
                raise ValueError(f"key input {k!r} is not a primary input of the core")

    @property
    def key_length(self) -> int:
        return len(self.key_inputs)

    def functional_inputs(self) -> Tuple[str, ...]:
        keys = set(self.key_inputs)
        return tuple(pi for pi in self.core.primary_inputs if pi not in keys)


def insert_random_locking(circuit: Circuit, key_length: int, seed: int) -> LockedCircuit:
    """Insert ``key_length`` XOR/XNOR key gates on distinct gate-output nets.

    Site selection, key bits, and therefore gate kinds are all drawn from
    ``seed``. Primary-input nets are never locked.
    """
    lockable = [g.output for g in circuit.gates]
    if key_length < 1:
        raise ValueError("key_length must be >= 1")
    if key_length > len(lockable):
        raise ValueError(
            f"cannot place {key_length} key gates on {len(lockable)} lockable nets"
        )
    rng = random.Random(seed)
    sites = rng.sample(lockable, key_length)
    bits = tuple(rng.randrange(2) for _ in range(key_length))

    taken = {g.output for g in circuit.gates} | set(circuit.primary_inputs)
    renamed: Dict[str, str] = {}
    for i, net in enumerate(sites):
        pre = f"{net}$raw{i}"
        while pre in taken:
            pre += "_"
        renamed[net] = pre
        taken.add(pre)

    specs: List[Tuple[str, str, Sequence[str]]] = []
    for g in circuit.gates:
        out = renamed.get(g.output, g.output)
        specs.append((out, g.kind, g.inputs))
    key_names = []
    site_records = []
    for i, net in enumerate(sites):
        kname = f"{KEY_INPUT_PREFIX}{i}"
        if kname in taken:
            raise NetlistError(f"net name {kname!r} already in use; cannot lock")
        kind = "XOR" if bits[i] == 0 else "XNOR"
        specs.append((net, kind, (renamed[net], kname)))
        key_names.append(kname)
        site_records.append((net, kind))

    gates = [Gate(i, kind, tuple(ins), out) for i, (out, kind, ins) in enumerate(specs)]
    core = Circuit(
        circuit.name + f"_enc{key_length}",
        gates,
        tuple(circuit.primary_inputs) + tuple(key_names),
        circuit.primary_outputs,
    )
    return LockedCircuit(core, tuple(key_names), LockingKey(bits), tuple(site_records))


def key_assignment(locked: LockedCircuit, key: LockingKey) -> Dict[str, int]:
    if len(key) != locked.key_length:
        raise ValueError(f"expected a {locked.key_length}-bit key, got {len(key)} bits")
    return dict(zip(locked.key_inputs, key.bits))


def evaluate_locked(
    locked: LockedCircuit,
    key: LockingKey,
    inputs: Mapping[str, int],
    state: Optional[Mapping[str, int]] = None,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    merged = dict(inputs)
    merged.update(key_assignment(locked, key))
    return evaluate(locked.core, merged, state)


def _outputs_matrix(circuit: Circuit, assignments: Mapping[str, np.ndarray]) -> np.ndarray:
    outs, _ = batch_evaluate(circuit, assignments)
    return np.stack([outs[po] for po in circuit.primary_outputs])


def keyed_outputs(
    locked: LockedCircuit, key: LockingKey, patterns: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Outputs of the core with ``key`` on every lane of ``patterns``, which
    assigns the functional inputs: one row per primary output, one column
    per lane."""
    bits = key_assignment(locked, key)
    lanes = len(next(iter(patterns.values())))
    assign = dict(patterns)
    for name, bit in bits.items():
        assign[name] = np.full(lanes, bit, dtype=np.uint8)
    return _outputs_matrix(locked.core, assign)


# -- piracy metrics ------------------------------------------------------------
#
# All three metrics treat the circuit combinationally, so they require a
# DFF-free core (frame a sequential design first).


def _require_combinational(locked: LockedCircuit) -> None:
    if not locked.core.is_combinational:
        raise NetlistError("piracy metrics are defined on combinational cores; frame first")


def _corrupted_lanes(got: np.ndarray, ref: np.ndarray) -> int:
    return int(np.any(got != ref, axis=0).sum())


def _key_to_int(key: LockingKey) -> int:
    return sum(b << i for i, b in enumerate(key.bits))


def _wrong_keys(rng: random.Random, locked: LockedCircuit, count: int) -> List[LockingKey]:
    k = locked.key_length
    correct = _key_to_int(locked.correct_key)
    keys = []
    for _ in range(count):
        while True:
            v = rng.randrange(1 << k)
            if v != correct:
                break
        keys.append(LockingKey.from_int(v, k))
    return keys


def _corrupted_share(
    locked: LockedCircuit, keys: Sequence[LockingKey], samples: Optional[int], seed: int
) -> float:
    """Share of (functional input pattern, key) pairs whose output word
    differs from the correct key's; patterns as :func:`input_patterns`."""
    corrupted = pairs = 0
    for patterns in input_patterns(locked.functional_inputs(), samples, seed):
        ref = keyed_outputs(locked, locked.correct_key, patterns)
        for key in keys:
            corrupted += _corrupted_lanes(keyed_outputs(locked, key, patterns), ref)
        pairs += ref.shape[1] * len(keys)
    return corrupted / pairs


def compute_output_corruptibility(
    locked: LockedCircuit,
    mode: str = "exhaustive",
    n_inputs: int = 1000,
    n_keys: int = 32,
    seed: int = 0,
) -> float:
    """Fraction of (input pattern, wrong key) pairs whose output word differs
    from the original circuit's: every pattern and wrong key, or ``n_inputs``
    random patterns and ``n_keys`` random wrong keys drawn from ``seed``."""
    _require_combinational(locked)
    k = locked.key_length
    if mode == "exhaustive":
        if len(locked.functional_inputs()) + k > 24:
            raise ValueError("exhaustive corruptibility limited to numPI + k <= 24")
        correct = _key_to_int(locked.correct_key)
        keys = [LockingKey.from_int(v, k) for v in range(1 << k) if v != correct]
        return _corrupted_share(locked, keys, None, seed)
    if mode == "sampled":
        keys = _wrong_keys(random.Random(seed), locked, n_keys)
        return _corrupted_share(locked, keys, n_inputs, seed)
    raise ValueError(f"unknown mode {mode!r}")


def compute_ker(locked: LockedCircuit, key: LockingKey) -> float:
    """Key execution rate: fraction of input minterms the given key corrupts."""
    _require_combinational(locked)
    if len(locked.functional_inputs()) > 22:
        raise ValueError("KER enumeration limited to 22 functional inputs")
    return _corrupted_share(locked, [key], None, 0)


def compute_ier(locked: LockedCircuit, minterm: Mapping[str, int]) -> float:
    """Incorrect execution rate of one minterm over all 2^k - 1 wrong keys."""
    _require_combinational(locked)
    k = locked.key_length
    if k > 22:
        raise ValueError("IER enumeration limited to 22 key bits")
    bits = {n: int(minterm[n]) & 1 for n in locked.functional_inputs()}
    point = {n: np.full(1, bit, dtype=np.uint8) for n, bit in bits.items()}
    ref = keyed_outputs(locked, locked.correct_key, point)
    corrupted = 0
    for keys in input_patterns(locked.key_inputs):
        lanes = len(next(iter(keys.values())))
        assign = {n: np.full(lanes, bit, dtype=np.uint8) for n, bit in bits.items()}
        assign.update(keys)
        corrupted += _corrupted_lanes(_outputs_matrix(locked.core, assign), ref)
    return corrupted / ((1 << k) - 1)


# -- serialization -------------------------------------------------------------


def save_locked(locked: LockedCircuit, bench_path: str, key_path: Optional[str] = None) -> str:
    """Write the locked core as bench text plus a sidecar key file."""
    from .netlist import save_bench

    save_bench(locked.core, bench_path)
    if key_path is None:
        key_path = bench_path + ".key"
    with open(key_path, "w", encoding="utf-8") as fh:
        fh.write(locked.correct_key.as_string() + "\n")
    return key_path


def load_locked(bench_path: str, key_path: Optional[str] = None) -> LockedCircuit:
    """Rebuild a LockedCircuit from bench text and its sidecar key.

    Key inputs are recognized by name. Lock sites are not recoverable from
    the serialized form and are left unset.
    """
    from .netlist import load_bench

    core = load_bench(bench_path)
    if key_path is None:
        key_path = bench_path + ".key"
    with open(key_path, "r", encoding="utf-8") as fh:
        key = LockingKey.from_string(fh.read())
    key_names = sorted(
        (pi for pi in core.primary_inputs if pi.startswith(KEY_INPUT_PREFIX)),
        key=lambda n: int(n[len(KEY_INPUT_PREFIX):]),
    )
    return LockedCircuit(core, tuple(key_names), key, None)
