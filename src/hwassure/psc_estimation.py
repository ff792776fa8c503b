"""Power side-channel measurement and fast estimation.

Measurement simulates the crypto core once per key of a maximum
Hamming-distance pair, and the key-independent noise circuits once, and
scores the binned Jensen-Shannon divergence between the two
switching-activity sample sets. Estimation skips the
noise-circuit simulation: each noise block is mapped by structural
attributes onto a pre-simulated benchmark profile database, composite
samples are synthesized by adding profile draws to the crypto core's
samples, and the same divergence scoring is applied.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .aes import CYCLES_PER_ENCRYPTION
from .netlist import Circuit
from .powersim import (
    PER_ENCRYPTION,
    SubsystemConfig,
    SwitchingProfile,
    generate_plaintexts,
    simulate_subsystem,
    windowed_toggle_samples,
)
from .pscmetrics import compare_profiles, security_score
from .sat_estimation import nearest_neighbour
from .tables import csv_rows

KEY_ZEROS = bytes(16)
KEY_ONES = bytes([0xFF]) * 16
DEFAULT_KEY_PAIR = (KEY_ZEROS, KEY_ONES)

ATTRIBUTE_FIELDS = (
    "num_inputs",
    "num_outputs",
    "num_dff",
    "num_inverters",
    "num_gates",
    "num_and",
    "num_nand",
    "num_or",
    "num_nor",
)

# The attribute columns follow ATTRIBUTE_FIELDS' order; save and load rely on it.
DB_INDEX_HEADER = (
    "name,numInputs,numOutputs,numDFF,numInverters,numGates,numAND,numNAND,"
    "numOR,numNOR,stimulusSeed"
)


@dataclass(frozen=True)
class IpAttributes:
    """Structural counts used to map a block onto the profile database.

    num_gates is the AND+NAND+OR+NOR total; inverters are counted
    separately, matching the published benchmark attribute tables.
    """

    num_inputs: int
    num_outputs: int
    num_dff: int
    num_inverters: int
    num_gates: int
    num_and: int
    num_nand: int
    num_or: int
    num_nor: int

    def __post_init__(self):
        for name in ATTRIBUTE_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    def vector(self) -> np.ndarray:
        return np.asarray([getattr(self, name) for name in ATTRIBUTE_FIELDS], dtype=np.float64)


def attributes_of(circuit: Circuit) -> IpAttributes:
    counts = {"NOT": 0, "AND": 0, "NAND": 0, "OR": 0, "NOR": 0}
    for gate in circuit.gates:
        if gate.kind in counts:
            counts[gate.kind] += 1
    four_kind = counts["AND"] + counts["NAND"] + counts["OR"] + counts["NOR"]
    return IpAttributes(
        num_inputs=len(circuit.primary_inputs),
        num_outputs=len(circuit.primary_outputs),
        num_dff=len(circuit.flip_flops),
        num_inverters=counts["NOT"],
        num_gates=four_kind,
        num_and=counts["AND"],
        num_nand=counts["NAND"],
        num_or=counts["OR"],
        num_nor=counts["NOR"],
    )


@dataclass(frozen=True)
class BenchmarkProfile:
    attributes: IpAttributes
    profile: SwitchingProfile
    source_name: str
    stimulus_seed: int


@dataclass(frozen=True)
class ProfileDatabase:
    entries: Tuple[BenchmarkProfile, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("profile database is empty")
        names = [e.source_name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate profile names in database")


def build_profile_db(
    circuits: Sequence[Circuit],
    windows: int = 1000,
    seed: int = 0,
) -> ProfileDatabase:
    """Pre-simulate per-encryption toggle profiles under random stimulus.

    Circuit i runs with stimulus seed ``seed + i`` using the same
    windowed protocol as live subsystem measurement, so a database entry
    replayed with a matching seed reproduces the measured samples
    sample for sample.
    """
    if not circuits:
        raise ValueError("need at least one circuit")
    entries = []
    for i, circuit in enumerate(circuits):
        stimulus_seed = seed + i
        matrix = windowed_toggle_samples(circuit, stimulus_seed, windows, CYCLES_PER_ENCRYPTION)
        entries.append(
            BenchmarkProfile(
                attributes=attributes_of(circuit),
                profile=SwitchingProfile(matrix.sum(axis=1), "", PER_ENCRYPTION),
                source_name=circuit.name,
                stimulus_seed=stimulus_seed,
            )
        )
    return ProfileDatabase(tuple(entries))


def _attribute_scales(db: ProfileDatabase) -> np.ndarray:
    stacked = np.stack([e.attributes.vector() for e in db.entries])
    scales = stacked.max(axis=0)
    scales[scales == 0.0] = 1.0
    return scales


def map_ip(query: IpAttributes, db: ProfileDatabase) -> BenchmarkProfile:
    """Most similar database entry under max-normalized cosine similarity.

    Ties fall back to the closest four-kind gate total, then to name
    order, so the mapping is deterministic.
    """
    entries = sorted(db.entries, key=lambda e: e.source_name)
    index = nearest_neighbour(
        query.vector(),
        query.num_gates,
        [(e.attributes.vector(), e.attributes.num_gates) for e in entries],
        _attribute_scales(db),
    )
    return entries[index]


def _noise_draws(profile: SwitchingProfile, length: int, rng: np.random.Generator) -> np.ndarray:
    samples = profile.as_array()
    if samples.size == length:
        return samples
    idx = rng.integers(0, samples.size, size=length)
    return samples[idx]


def composite_samples(
    aes_profile_pair: Tuple[SwitchingProfile, SwitchingProfile],
    mapped_profiles: Sequence[BenchmarkProfile],
    draw_seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesized per-encryption subsystem samples for both keys.

    Noise draws are key-independent, mirroring measurement where the
    noise circuits never see the key: the same draw vector is added to
    both composites. Profiles whose length already matches the crypto
    core's sample count are used aligned, index for index; others are
    resampled with replacement.
    """
    first, second = aes_profile_pair
    if len(first.samples) != len(second.samples):
        raise ValueError("key-pair profiles must have equal sample counts")
    if first.granularity != PER_ENCRYPTION or second.granularity != PER_ENCRYPTION:
        raise ValueError("estimation composes per-encryption profiles")
    length = len(first.samples)
    rng = np.random.default_rng(draw_seed)
    noise = np.zeros(length, dtype=np.int64)
    for entry in mapped_profiles:
        noise = noise + _noise_draws(entry.profile, length, rng)
    return first.as_array() + noise, second.as_array() + noise


def estimate_subsystem_score(
    aes_profile_pair: Tuple[SwitchingProfile, SwitchingProfile],
    mapped_profiles: Sequence[BenchmarkProfile],
    draw_seed: int = 0,
) -> Tuple[float, int]:
    """Estimated key-pair divergence of the composite subsystem, scored."""
    comp1, comp2 = composite_samples(aes_profile_pair, mapped_profiles, draw_seed)
    js = compare_profiles(comp1, comp2)
    return js, security_score(js)


def simulate_key_pair(
    config: SubsystemConfig,
    plaintext_seed: int,
    count: int,
    granularity: str = PER_ENCRYPTION,
) -> Tuple[
    Tuple[SwitchingProfile, Dict[str, SwitchingProfile]],
    Tuple[SwitchingProfile, Dict[str, SwitchingProfile]],
]:
    """One plaintext batch simulated under each key of the pair.

    The noise circuits are simulated once and shared by both runs; only
    the crypto core's toggles change with the key.
    """
    plaintexts = generate_plaintexts(plaintext_seed, count)
    run1, run2 = simulate_subsystem(config, DEFAULT_KEY_PAIR, plaintexts, granularity)
    return run1, run2


def save_profile_db(db: ProfileDatabase, directory: str) -> None:
    """Directory layout: attribute index CSV plus one sample CSV per entry."""
    os.makedirs(directory, exist_ok=True)
    lines = [DB_INDEX_HEADER]
    for entry in db.entries:
        counts = [getattr(entry.attributes, name) for name in ATTRIBUTE_FIELDS]
        lines.append(",".join(map(str, [entry.source_name, *counts, entry.stimulus_seed])))
        with open(os.path.join(directory, f"{entry.source_name}.csv"), "w") as fh:
            fh.write("toggles\n")
            fh.write("\n".join(map(str, entry.profile.samples.tolist())) + "\n")
    with open(os.path.join(directory, "index.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_profile_db(directory: str) -> ProfileDatabase:
    with open(os.path.join(directory, "index.csv")) as fh:
        name_column, *count_columns = DB_INDEX_HEADER.split(",")
        columns = {name_column: str, **dict.fromkeys(count_columns, int)}
        rows = csv_rows(fh.read(), columns, "profile index")
    entries = []
    for row in rows:
        name, *counts, stimulus_seed = row.values()
        with open(os.path.join(directory, f"{name}.csv")) as fh:
            samples = csv_rows(fh.read(), {"toggles": int}, f"profile {name}.csv")
        entries.append(
            BenchmarkProfile(
                attributes=IpAttributes(**dict(zip(ATTRIBUTE_FIELDS, counts))),
                profile=SwitchingProfile(
                    [sample["toggles"] for sample in samples], "", PER_ENCRYPTION
                ),
                source_name=name,
                stimulus_seed=stimulus_seed,
            )
        )
    return ProfileDatabase(tuple(entries))


def map_config_blocks(config: SubsystemConfig, db: ProfileDatabase) -> List[BenchmarkProfile]:
    """Map every noise circuit of a subsystem onto its database profile."""
    return [map_ip(attributes_of(circuit), db) for circuit, _ in config.noise_ips]
