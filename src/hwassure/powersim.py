"""Switching-activity simulation: toggle counts as a power-trace proxy.

Gate-level circuits are simulated cycle by cycle under uniform random
stimulus; the per-cycle toggle count (number of nets changing value,
primary inputs included) stands in for dynamic power. An encryption
subsystem combines the AES core's register toggles with any number of
noise circuits running alongside it; per-component counts add up to the
subsystem sample, so profiles decompose exactly into their blocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .aes import CYCLES_PER_ENCRYPTION, aes128_encrypt_batch
from .bundled import load_bench_ref
from .netlist import Circuit, lane_words, pack_lanes, unpack_lanes

PER_ENCRYPTION = "per-encryption"
PER_CYCLE = "per-cycle"
GRANULARITIES = (PER_ENCRYPTION, PER_CYCLE)

AES_BLOCK_NAME = "aes"


@dataclass(frozen=True, eq=False)
class SwitchingProfile:
    """One run's toggle samples under one key.

    ``samples`` is a read-only 1-D ``int64`` copy of whatever sequence or
    array the constructor gets, so a profile never changes after it is
    built and never shares memory with its source.
    """

    samples: np.ndarray
    key_hex: str
    granularity: str

    def __post_init__(self):
        samples = np.array(self.samples)
        if samples.size == 0:
            raise ValueError("a profile needs at least one sample")
        if samples.ndim != 1:
            raise ValueError("toggle samples form one flat sequence")
        if not np.issubdtype(samples.dtype, np.integer):
            raise ValueError("toggle samples are integers")
        if samples.min() < 0:
            raise ValueError("toggle samples cannot be negative")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        samples = samples.astype(np.int64, copy=False)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def as_array(self) -> np.ndarray:
        return self.samples

    def per_encryption(self, cycles: int) -> "SwitchingProfile":
        """A per-cycle profile summed over each encryption of ``cycles``
        cycles; a count that does not divide the samples raises ValueError."""
        if self.granularity != PER_CYCLE:
            raise ValueError("only a per-cycle profile sums per encryption")
        return SwitchingProfile(
            self.samples.reshape(-1, cycles).sum(axis=1), self.key_hex, PER_ENCRYPTION
        )


@dataclass(frozen=True)
class SubsystemConfig:
    noise_ips: Tuple[Tuple[Circuit, int], ...] = ()
    aes_core: bool = True
    cycles_per_encryption: int = CYCLES_PER_ENCRYPTION
    scheduler: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.aes_core and self.cycles_per_encryption != CYCLES_PER_ENCRYPTION:
            raise ValueError(
                f"the AES core takes {CYCLES_PER_ENCRYPTION} cycles per encryption"
            )
        if not self.aes_core and not self.noise_ips:
            raise ValueError("subsystem has no components")
        if self.scheduler is not None:
            rows = len(self.scheduler)
            if rows != len(self.noise_ips):
                raise ValueError("scheduler needs one activity row per noise circuit")
            for row in self.scheduler:
                if len(row) != self.cycles_per_encryption:
                    raise ValueError("scheduler rows must cover every cycle")
                if any(v not in (0, 1) for v in row):
                    raise ValueError("scheduler entries are 0 or 1")

    def scheduler_mask(self) -> np.ndarray:
        if self.scheduler is None:
            return np.ones((len(self.noise_ips), self.cycles_per_encryption), dtype=np.int64)
        return np.asarray(self.scheduler, dtype=np.int64)


def windowed_toggle_samples(
    circuit: Circuit,
    stimulus_seed: int,
    windows: int,
    cycles_per_window: int = CYCLES_PER_ENCRYPTION,
) -> np.ndarray:
    """Per-window toggle matrix, shape (windows, cycles_per_window).

    Every window is an independent run from the all-zero reset state, so
    samples are identically distributed; windows simulate in parallel
    lanes. The random stream is consumed per cycle in primary-input
    order with one draw of ``windows`` bits per input.
    """
    if windows < 1 or cycles_per_window < 1:
        raise ValueError("need at least one window and one cycle")
    rng = np.random.default_rng(stimulus_seed)
    program = circuit.lane_program()
    if not program.rows:
        return np.zeros((windows, cycles_per_window), dtype=np.int64)
    words = lane_words(windows)
    # Net values stay packed from cycle to cycle: the state is read back from
    # the previous cycle's D-pin rows, and only the toggle counts get unpacked.
    values = np.zeros((program.rows, words), dtype=np.uint64)
    previous = np.zeros_like(values)
    stimulus = np.empty((len(circuit.primary_inputs), windows), dtype=np.uint8)
    # The reset state is all zeros, which no inverter computes, so the first
    # cycle counts every net on its own.
    every_net = [(1, np.arange(program.rows, dtype=np.intp))]
    toggle_classes = _toggle_classes(circuit)
    out = np.empty((windows, cycles_per_window), dtype=np.int64)
    for t in range(cycles_per_window):
        for i in range(len(stimulus)):
            stimulus[i] = rng.integers(0, 2, size=windows, dtype=np.uint8)
        sources = np.concatenate(
            (pack_lanes(stimulus, words), previous[program.next_state_rows])
        )
        program.run(values, sources)
        classes = every_net if t == 0 else toggle_classes
        out[:, t] = _count_toggles(values, previous, classes, windows)
        values, previous = previous, values
    return out


def _toggle_classes(circuit: Circuit) -> List[Tuple[int, np.ndarray]]:
    """(weight, rows) pairs whose weighted toggles add up to every net's.

    A one-input gate (NOT or BUF) toggles exactly when its input does,
    once every net holds the value its driver computes, so a chain of them
    is counted through the row that drives it: a row standing for w nets
    goes into the class of weight 2**j for every bit j set in w.
    """
    row = circuit.lane_program().row
    source = list(range(len(row)))
    for g in circuit.topo_gates():
        if len(g.inputs) == 1:
            source[row[g.output]] = source[row[g.inputs[0]]]
    weight = np.bincount(source, minlength=len(row))
    classes = [
        (1 << j, np.flatnonzero((weight >> j) & 1)) for j in range(int(weight.max()).bit_length())
    ]
    return [(w, rows) for w, rows in classes if len(rows)]


def _count_toggles(
    values: np.ndarray,
    previous: np.ndarray,
    classes: Sequence[Tuple[int, np.ndarray]],
    lanes: int,
) -> np.ndarray:
    """Per-lane count of nets whose value changed, each class's rows
    counted with its weight."""
    planes: List[np.ndarray] = []
    weights: List[int] = []
    for weight, rows in classes:
        sums = _vertical_sum(values[rows] ^ previous[rows])
        planes += sums
        weights += [weight << i for i in range(len(sums))]
    return np.asarray(weights, dtype=np.int64) @ unpack_lanes(np.stack(planes), lanes)


def _vertical_sum(packed: np.ndarray) -> List[np.ndarray]:
    """Bit planes, least significant first, of each lane's count of set
    bits down the rows of a (rows, words) packed matrix.

    A bit-sliced adder tree: each round adds the top half of the partial
    sums to the bottom half, one plane at a time with ripple carry, so
    the work is a few bitwise operations per packed word.
    """
    planes = [packed]
    while len(planes[0]) > 1:
        if len(planes[0]) % 2:
            planes = [np.concatenate((p, np.zeros_like(p[:1]))) for p in planes]
        half = len(planes[0]) // 2
        carry = None
        summed = []
        for p in planes:
            low, high = p[:half], p[half:]
            bit = low ^ high
            next_carry = low & high
            if carry is not None:
                next_carry |= bit & carry
                bit ^= carry
            summed.append(bit)
            carry = next_carry
        summed.append(carry)
        planes = summed
    return [p[0] for p in planes]


def generate_plaintexts(seed: int, count: int) -> np.ndarray:
    """Deterministic uniform random 16-byte blocks, shape (count, 16)."""
    if count < 1:
        raise ValueError("need at least one plaintext")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, 16), dtype=np.uint8)


def _unique_block_names(config: SubsystemConfig) -> List[str]:
    names: List[str] = []
    seen: Dict[str, int] = {}
    for circ, _ in config.noise_ips:
        base = circ.name
        seen[base] = seen.get(base, 0) + 1
        names.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
    return names


def simulate_subsystem(
    config: SubsystemConfig,
    keys: Sequence[bytes],
    plaintexts: Sequence[bytes],
    granularity: str = PER_ENCRYPTION,
) -> List[Tuple[SwitchingProfile, Dict[str, SwitchingProfile]]]:
    """Collect the subsystem profile and its per-block decomposition, one
    pair per key, every key encrypting the same plaintexts.

    The subsystem sample is, by construction, the sum of the block
    samples at every cycle: the AES core's register toggles plus each
    noise circuit's toggles wherever the scheduler marks it active. The
    noise circuits never see the key, so each one is simulated once and
    its samples are shared by every key.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}")
    n = len(plaintexts)
    if n == 0:
        raise ValueError("need at least one plaintext")
    cyc = config.cycles_per_encryption

    def samples_of(mat: np.ndarray) -> np.ndarray:
        return mat.sum(axis=1) if granularity == PER_ENCRYPTION else mat.reshape(-1)

    mask = config.scheduler_mask()
    noise_total = np.zeros((n, cyc), dtype=np.int64)
    noise_samples: Dict[str, np.ndarray] = {}
    for i, ((circ, seed), name) in enumerate(zip(config.noise_ips, _unique_block_names(config))):
        mat = windowed_toggle_samples(circ, seed, n, cyc) * mask[i]
        noise_total += mat
        noise_samples[name] = samples_of(mat)

    runs = []
    for key in keys:
        block_samples: Dict[str, np.ndarray] = {}
        total = noise_total
        if config.aes_core:
            _, aes_toggles = aes128_encrypt_batch(key, plaintexts)
            block_samples[AES_BLOCK_NAME] = samples_of(aes_toggles)
            total = noise_total + aes_toggles
        block_samples.update(noise_samples)
        runs.append(
            (
                SwitchingProfile(samples_of(total), key.hex(), granularity),
                {
                    name: SwitchingProfile(samples, key.hex(), granularity)
                    for name, samples in block_samples.items()
                },
            )
        )
    return runs


def profiles_to_csv(
    subsystem: SwitchingProfile, blocks: Mapping[str, SwitchingProfile]
) -> str:
    """One row per sample: the subsystem count then each block's share."""
    names = list(blocks)
    n = len(subsystem.samples)
    for name in names:
        if len(blocks[name].samples) != n:
            raise ValueError("block profiles must align with the subsystem profile")
    table = np.column_stack([subsystem.samples] + [blocks[m].samples for m in names])
    lines = [",".join(["subsystem"] + names)]
    lines += [",".join(map(str, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def load_subsystem_config(payload: Mapping[str, object], base_dir: str = ".") -> SubsystemConfig:
    """Build a config from its declarative form.

    Shape: {"aes": {"enabled": bool}, "noise_ips": [{"bench": ref, "seed": n}, ...],
    "scheduler": [[...], ...]}. Bench references are 'pkg:NAME' or paths
    relative to ``base_dir``. Other keys are ignored. A field of the wrong
    shape raises ``ValueError`` naming the field.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("subsystem config must be a JSON object")
    aes = payload.get("aes", {})
    if not isinstance(aes, Mapping):
        raise ValueError("config field 'aes' must be an object")
    if type(aes.get("enabled", True)) is not bool:
        raise ValueError("config field 'aes.enabled' must be true or false")
    entries = payload.get("noise_ips", [])
    if not isinstance(entries, list) or not all(isinstance(e, Mapping) for e in entries):
        raise ValueError("config field 'noise_ips' must be a list of objects")
    ips = []
    for i, entry in enumerate(entries):
        if "bench" not in entry:
            raise ValueError(f"config field 'noise_ips[{i}].bench' is required")
        ref = str(entry["bench"])
        if not ref.startswith("pkg:") and not os.path.isabs(ref):
            ref = os.path.join(base_dir, ref)
        seed = entry.get("seed", 0)
        if type(seed) is not int:
            raise ValueError(f"config field 'noise_ips[{i}].seed' must be an integer")
        ips.append((load_bench_ref(ref), seed))
    scheduler = payload.get("scheduler")
    if scheduler is not None:
        try:
            scheduler = tuple(tuple(int(v) for v in row) for row in scheduler)
        except (TypeError, ValueError):
            raise ValueError("config field 'scheduler' must be a list of integer rows") from None
    return SubsystemConfig(
        noise_ips=tuple(ips), aes_core=aes.get("enabled", True), scheduler=scheduler
    )


def load_subsystem_config_file(path: str) -> SubsystemConfig:
    with open(path) as fh:
        payload = json.load(fh)
    return load_subsystem_config(payload, base_dir=os.path.dirname(os.path.abspath(path)))
