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
from .netlist import Circuit, batch_evaluate

PER_ENCRYPTION = "per-encryption"
PER_CYCLE = "per-cycle"
GRANULARITIES = (PER_ENCRYPTION, PER_CYCLE)

AES_BLOCK_NAME = "aes"


@dataclass(frozen=True)
class SwitchingProfile:
    samples: Tuple[int, ...]
    key_hex: str
    granularity: str

    def __post_init__(self):
        if not self.samples:
            raise ValueError("a profile needs at least one sample")
        if any(s < 0 for s in self.samples):
            raise ValueError("toggle samples cannot be negative")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.samples, dtype=np.int64)


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
    nets = list(circuit.nets())
    prev = {n: np.zeros(windows, dtype=np.uint8) for n in nets}
    state = {ff.output: np.zeros(windows, dtype=np.uint8) for ff in circuit.flip_flops}
    out = np.zeros((windows, cycles_per_window), dtype=np.int64)
    for t in range(cycles_per_window):
        pis = {
            pi: rng.integers(0, 2, size=windows, dtype=np.uint8)
            for pi in circuit.primary_inputs
        }
        vals, state = batch_evaluate(circuit, pis, state, all_nets=True)
        acc = np.zeros(windows, dtype=np.int64)
        for n in nets:
            acc += vals[n] != prev[n]
        out[:, t] = acc
        prev = vals
    return out


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

    def samples_of(mat: np.ndarray) -> Tuple[int, ...]:
        samples = mat.sum(axis=1) if granularity == PER_ENCRYPTION else mat.reshape(-1)
        return tuple(int(s) for s in samples)

    mask = config.scheduler_mask()
    noise_total = np.zeros((n, cyc), dtype=np.int64)
    noise_samples: Dict[str, Tuple[int, ...]] = {}
    for i, ((circ, seed), name) in enumerate(zip(config.noise_ips, _unique_block_names(config))):
        mat = windowed_toggle_samples(circ, seed, n, cyc) * mask[i]
        noise_total += mat
        noise_samples[name] = samples_of(mat)

    runs = []
    for key in keys:
        block_samples: Dict[str, Tuple[int, ...]] = {}
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
    header = ",".join(["subsystem"] + names)
    n = len(subsystem.samples)
    for name in names:
        if len(blocks[name].samples) != n:
            raise ValueError("block profiles must align with the subsystem profile")
    lines = [header]
    for i in range(n):
        row = [str(subsystem.samples[i])] + [str(blocks[m].samples[i]) for m in names]
        lines.append(",".join(row))
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
