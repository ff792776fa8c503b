"""The benchmark's workloads: set-up, the ops of one pass, and per-op checks.

Inputs come from the benchmark seed or from the constants below, each with
the reason it is fixed; the program only ever sees the generated circuits,
lock seeds, stimulus seeds and plaintexts. Checks
run outside the timed interval and return ``(problems, fingerprint)``:
an op with any problem counts as failed, and the fingerprint is the op's
deterministic output.
"""

from __future__ import annotations

import io
import random
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import hwassure.cli as cli
from hwassure import load_bundled
from hwassure.aes import aes128_encrypt_batch
from hwassure.locking import key_assignment
from hwassure.netlist import evaluate
from hwassure.powersim import PER_CYCLE, SubsystemConfig, generate_plaintexts
from hwassure.psc_estimation import (
    DEFAULT_KEY_PAIR,
    build_profile_db,
    estimate_subsystem_score,
    map_config_blocks,
    simulate_key_pair,
)
from hwassure.pscmetrics import compare_profiles, per_cycle_js_matrix, security_score
from hwassure.satattack import build_platform_instance, sat_attack

Check = Tuple[List[str], Any]

# (design, key length, compression ratio): a slice of the criterion-1 grid.
# Lock seeds are fixed: one attack's time and memory move by up to 2x across
# lock seeds, and a run holds too few attacks to average that out, so the
# benchmark seed varies the verification samples and replay patterns instead.
# Six rs280 cells (about 1 s each) and one rs340 and one rs400 cell (about
# 2.5 s) make a pass of about 11 s, so a run usually holds two passes and the
# median op lies inside the rs280 cluster, not at the edge of a gap. The sizes
# are interleaved so that a few seconds of machine slowdown touch every size.
GRID_CELLS = (
    ("rs280", 6, 1), ("rs280", 10, 1), ("rs340", 10, 4), ("rs280", 6, 2),
    ("rs280", 10, 2), ("rs400", 6, 1), ("rs280", 6, 4), ("rs280", 10, 4),
)
GRID_LOCK_SEED = 0
# design, key length, compression ratio, lock seed
LARGE_INSTANCE = ("s1423", 16, 4, 0)
# The demo's own seed stays at its reference value: the attacks inside the
# demo change with it, and two of the ten seeds 0-9 cost 1.5x the others.
DEMO_SEED = 0
NOISE_ROSTER = ("s1488", "s832", "s953", "s1238", "s641", "s5378")
PSC_PLAINTEXTS = 5000
PSC_DB_WINDOWS = 1000
REPLAY_PATTERNS = 32
AES_CHECKED = 32

SMOKE_GRID_CELLS = [("rs160", 4, 1), ("rs160", 4, 2)]
SMOKE_LARGE_INSTANCE = ("rs220", 8, 4, 0)
SMOKE_NOISE_ROSTER = ("s1488", "s832")
SMOKE_PSC_PLAINTEXTS = 300


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]


@dataclass
class Workload:
    name: str
    setup: Callable[[int, bool], Dict[str, Any]]
    ops: Callable[[Dict[str, Any], int, bool, Path], List[Op]]


# -- attacks -------------------------------------------------------------------


def _attack_op(circuit, key_length: int, cr: int, lock_seed: int, check_seed: int) -> Op:
    label = f"{circuit.name}-k{key_length}-cr{cr}-lock{lock_seed}"

    def run():
        locked, oracle, _ = build_platform_instance(circuit, key_length, cr, lock_seed)
        return locked, oracle, sat_attack(locked, oracle, verify_seed=check_seed)

    def check(out) -> Check:
        locked, oracle, result = out
        key = result.recovered_key
        fingerprint = [label, result.iterations, key.as_string() if key else None]
        problems = []
        if result.status != "success":
            problems.append(f"status {result.status!r}")
        if result.verified is not True:
            problems.append(f"verified is {result.verified!r}")
        if result.iterations > 2 ** key_length - 1:
            problems.append(f"{result.iterations} iterations exceed 2^k-1")
        if len(set(result.dips)) != len(result.dips):
            problems.append("a distinguishing input repeats")
        if key is not None:
            problems += _replay(locked, oracle.circuit, key, result.dips, check_seed)
        return problems, fingerprint

    return Op(label, run, check)


def _replay(locked, oracle_circuit, key, dips, seed: int) -> List[str]:
    """Scalar re-evaluation of the keyed model against the oracle circuit on
    the recorded DIPs and fixed random patterns (not the vectorised path
    the attack's own verification uses)."""
    shared = locked.functional_inputs()
    rng = random.Random(seed)
    patterns = list(dips) + [
        tuple(rng.getrandbits(1) for _ in shared) for _ in range(REPLAY_PATTERNS)
    ]
    key_bits = key_assignment(locked, key)
    for bits in patterns:
        assign = dict(zip(shared, bits))
        want, _ = evaluate(oracle_circuit, assign)
        got, _ = evaluate(locked.core, {**assign, **key_bits})
        if any(got[o] != want[o] for o in oracle_circuit.primary_outputs):
            return ["recovered key disagrees with the oracle under scalar replay"]
    return []


def _grid_setup(seed: int, smoke: bool) -> Dict[str, Any]:
    cells = SMOKE_GRID_CELLS if smoke else GRID_CELLS
    return {"designs": {name: load_bundled(name) for name in dict.fromkeys(c[0] for c in cells)},
            "cells": cells}


def _grid_ops(ctx, seed: int, smoke: bool, work: Path) -> List[Op]:
    return [_attack_op(ctx["designs"][name], k, cr, GRID_LOCK_SEED, seed)
            for name, k, cr in ctx["cells"]]


def _large_setup(seed: int, smoke: bool) -> Dict[str, Any]:
    instance = SMOKE_LARGE_INSTANCE if smoke else LARGE_INSTANCE
    return {"circuit": load_bundled(instance[0]), "instance": instance}


def _large_ops(ctx, seed: int, smoke: bool, work: Path) -> List[Op]:
    _, k, cr, lock_seed = ctx["instance"]
    return [_attack_op(ctx["circuit"], k, cr, lock_seed, seed)]


# -- power side channel -----------------------------------------------------------


def _psc_setup(seed: int, smoke: bool) -> Dict[str, Any]:
    roster = SMOKE_NOISE_ROSTER if smoke else NOISE_ROSTER
    windows = SMOKE_PSC_PLAINTEXTS if smoke else PSC_DB_WINDOWS
    base = 100 * seed
    circuits = [load_bundled(name) for name in roster]
    config = SubsystemConfig(noise_ips=tuple((c, base + i) for i, c in enumerate(circuits)))
    return {"config": config, "db": build_profile_db(circuits, windows=windows, seed=base)}


def _psc_ops(ctx, seed: int, smoke: bool, work: Path) -> List[Op]:
    config, db = ctx["config"], ctx["db"]
    count = SMOKE_PSC_PLAINTEXTS if smoke else PSC_PLAINTEXTS
    cycles = config.cycles_per_encryption

    def run():
        # psc-measure: per-cycle key-pair simulation and divergence
        (sub1, blocks1), (sub2, blocks2) = simulate_key_pair(config, seed, count, granularity=PER_CYCLE)
        js = compare_profiles(sub1.as_array().reshape(-1, cycles).sum(axis=1),
                              sub2.as_array().reshape(-1, cycles).sum(axis=1))
        matrix = per_cycle_js_matrix(
            {"subsystem": sub1.samples, **{n: p.samples for n, p in blocks1.items()}},
            {"subsystem": sub2.samples, **{n: p.samples for n, p in blocks2.items()}},
            cycles,
        )
        # psc-estimate: the AES core alone plus database profiles for the noise
        (aes1, _), (aes2, _) = simulate_key_pair(SubsystemConfig(), seed, count)
        est_js, est_score = estimate_subsystem_score(
            (aes1, aes2), map_config_blocks(config, db), draw_seed=seed
        )
        return {"js": js, "score": security_score(js), "matrix": matrix,
                "est_js": est_js, "est_score": est_score,
                "runs": ((sub1, blocks1), (sub2, blocks2))}

    def check(out) -> Check:
        fingerprint = [out["js"], out["score"], out["est_js"], out["est_score"]]
        problems = []
        values = [out["js"], out["est_js"]] + [v for row in out["matrix"].values() for v in row]
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append("a JS divergence lies outside [0, 1]")
        for sub, blocks in out["runs"]:
            parts = np.sum([p.as_array() for p in blocks.values()], axis=0)
            if not np.array_equal(sub.as_array(), parts):
                problems.append("subsystem samples differ from the sum of their blocks")
        problems += _check_aes(generate_plaintexts(seed, AES_CHECKED))
        return problems, fingerprint

    return [Op(f"psc-{len(config.noise_ips)}blocks-{count}pt", run, check)]


def _check_aes(plaintexts: np.ndarray) -> List[str]:
    """Ciphertexts against an independent AES-ECB implementation."""
    try:
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    except ImportError:
        return []  # no reference implementation installed; the other checks still run
    for key in DEFAULT_KEY_PAIR:
        ours, _ = aes128_encrypt_batch(key, plaintexts)
        encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        if ours.tobytes() != encryptor.update(plaintexts.tobytes()) + encryptor.finalize():
            return [f"AES ciphertexts differ from the reference under key {key.hex()}"]
    return []


# -- demo ------------------------------------------------------------------------


def _demo_setup(seed: int, smoke: bool) -> Dict[str, Any]:
    return {}


def _demo_ops(ctx, seed: int, smoke: bool, work: Path) -> List[Op]:
    def run():
        out = Path(tempfile.mkdtemp(prefix="demo-", dir=work))
        try:
            with redirect_stdout(io.StringIO()):
                return cli.main(["demo", "--out", str(out), "--seed", str(DEMO_SEED)]), out
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise

    def check(result) -> Check:
        code, out = result
        try:
            digest_file = out / "digest.txt"
            digest = digest_file.read_text(encoding="utf-8").strip() if digest_file.is_file() else None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = [] if code == 0 else [f"demo exited {code}"]
        if digest is None:
            problems.append("demo wrote no digest")
        return problems, digest

    return [Op(f"demo-seed{DEMO_SEED}", run, check)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("attack-grid", _grid_setup, _grid_ops),
        Workload("attack-large", _large_setup, _large_ops),
        Workload("psc-subsystem", _psc_setup, _psc_ops),
        Workload("demo", _demo_setup, _demo_ops),
    )
}
