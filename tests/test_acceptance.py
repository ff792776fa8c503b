"""End-to-end acceptance checks, one test per criterion.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion. Budgets are generous on purpose; every check is
seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

from hwassure.aes import aes128_encrypt
from hwassure.assurance_metrics import (
    FsmSpec,
    FsmTransition,
    cdc,
    controllability,
    fsm_fi_vulnerability,
    observability,
    observation_hardness,
    puf_inter_hd,
    puf_intra_hd,
)
from hwassure.bundled import load_bundled
from hwassure.cli import main as cli_main
from hwassure.cli import stable_digest
from hwassure.netlist import _gate_value
from hwassure.powersim import SubsystemConfig
from hwassure.psc_estimation import (
    build_profile_db,
    estimate_subsystem_score,
    map_config_blocks,
    simulate_key_pair,
)
from hwassure.pscmetrics import (
    build_distribution,
    compare_profiles,
    js_divergence,
    kl_divergence,
    security_score,
    tvla,
)
from hwassure.sat_estimation import fit_quadratic
from hwassure.satattack import build_platform_instance, sat_attack

ATTACK_BENCHES = ("rs160", "rs220", "rs280", "rs340", "rs400")

REFERENCE_MULTIPLIER_SERIES = [
    (1.0, 1.0),
    (2.0, 1.028257),
    (4.0, 3.0492296),
    (8.0, 2.8186724),
    (16.0, 16.9930236),
]

DEMO_SEED0_DIGEST = "b8e826af717d6a1ae1399e2266eeef0326d2ac3e34f9489a402f9db503618346"

NOISE_ROSTER = ("s1488", "s832", "s953", "s1238", "s641", "s5378")


@pytest.fixture(scope="module")
def attack_grid():
    """Sixty seeded platform attacks shared by criteria 1 and 2."""
    runs = []
    started = time.monotonic()
    for name in ATTACK_BENCHES:
        circuit = load_bundled(name)
        assert len(circuit.gates) <= 600
        for key_length in (6, 10):
            for cr in (1, 2, 4):
                for seed in (0, 1):
                    locked, oracle, _ = build_platform_instance(
                        circuit, key_length, cr, seed
                    )
                    result = sat_attack(locked, oracle, time_limit_s=600.0)
                    runs.append((name, key_length, cr, seed, result))
    return runs, time.monotonic() - started


def test_criterion_01_attack_soundness(attack_grid):
    runs, elapsed = attack_grid
    assert len(runs) >= 50
    failures = [
        (name, k, cr, seed)
        for name, k, cr, seed, result in runs
        if result.status != "success" or not result.verified
    ]
    assert failures == []
    assert elapsed < 600.0
    print(
        f"\nCRITERION 1 PASS: {len(runs)}/{len(runs)} seeded instances recovered "
        f"I/O-equivalent keys in {elapsed:.1f}s (< 600s)"
    )


def test_criterion_02_dip_progress_bound(attack_grid):
    runs, _ = attack_grid
    for name, key_length, cr, seed, result in runs:
        assert result.iterations <= 2**key_length - 1, (name, key_length, cr, seed)
        dips = [tuple(d) for d in result.dips]
        assert len(dips) == len(set(dips)), (name, key_length, cr, seed)
    print(
        f"\nCRITERION 2 PASS: all {len(runs)} runs stayed within 2^k-1 iterations "
        f"with no repeated distinguishing patterns"
    )


def test_criterion_03_compression_trend():
    started = time.monotonic()
    key_length = 12
    winners = 0
    details = []
    for name in ATTACK_BENCHES:
        circuit = load_bundled(name)
        medians = {}
        for cr in (1, 16):
            iteration_counts = []
            for seed in range(5):
                locked, oracle, _ = build_platform_instance(
                    circuit, key_length, cr, seed
                )
                result = sat_attack(locked, oracle, time_limit_s=600.0)
                assert result.status == "success"
                iteration_counts.append(result.iterations)
            medians[cr] = float(np.median(iteration_counts))
        winners += medians[16] >= medians[1]
        details.append(f"{name}: {medians[1]:.0f}->{medians[16]:.0f}")
    elapsed = time.monotonic() - started
    assert winners >= 3
    assert elapsed < 1800.0
    print(
        f"\nCRITERION 3 PASS: median iterations rose with compression on "
        f"{winners}/5 benchmarks ({'; '.join(details)}) in {elapsed:.1f}s (< 1800s)"
    )


def test_criterion_04_curve_fit_oracle():
    started = time.monotonic()
    got = fit_quadratic(REFERENCE_MULTIPLIER_SERIES)
    xs = np.array([p[0] for p in REFERENCE_MULTIPLIER_SERIES])
    ys = np.array([p[1] for p in REFERENCE_MULTIPLIER_SERIES])
    design = np.vander(xs, 3, increasing=True)
    normal = design.T @ design
    expected = np.linalg.solve(normal, design.T @ ys)
    assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"\nCRITERION 4 PASS: quadratic fit matches the normal-equations "
        f"solution to 1e-9 in {elapsed * 1000:.0f}ms"
    )


def test_criterion_05_aes_known_answers():
    fips_key = bytes(range(16))
    fips_pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert aes128_encrypt(fips_key, fips_pt) == bytes.fromhex(
        "69c4e0d86a7b0430d8cdb78070b4c55a"
    )
    ecb_key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    vectors = [
        ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
        ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
        ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
    ]
    for pt_hex, ct_hex in vectors:
        assert aes128_encrypt(ecb_key, bytes.fromhex(pt_hex)) == bytes.fromhex(ct_hex)
    print("\nCRITERION 5 PASS: all 5 standard AES-128 known-answer vectors exact")


def test_criterion_06_divergence_suite():
    p = build_distribution([3, 1, 4, 1, 5])
    assert js_divergence(p, p) == 0.0
    q = build_distribution([9, 9, 10, 10])
    assert js_divergence(build_distribution([0, 0, 1, 1]), q) == 1.0

    rng = np.random.default_rng(60)
    for _ in range(10000):
        a = build_distribution(rng.integers(0, 8, size=rng.integers(1, 25)))
        b = build_distribution(rng.integers(0, 8, size=rng.integers(1, 25)))
        assert kl_divergence(a, b) >= 0.0

    same = [4.0, 6.0, 5.0, 7.0]
    assert tvla(same, same) == 0.0

    hits = 0
    for seed in range(100):
        g = np.random.default_rng(seed)
        fixed = g.normal(100.0, 5.0, size=1000)
        shifted = g.normal(105.0, 5.0, size=1000)
        hits += abs(tvla(fixed, shifted)) > 4.5
    assert hits >= 95
    print(
        f"\nCRITERION 6 PASS: divergence identities hold over 10k random pairs; "
        f"one-sigma shift detected in {hits}/100 seeds"
    )


def test_criterion_07_noise_trend():
    started = time.monotonic()
    circuits = [load_bundled(n) for n in NOISE_ROSTER]
    means = {}
    for k in (0, 2, 4, 6):
        values = []
        for seed in range(5):
            noise = tuple((circuits[i], seed * 100 + i) for i in range(k))
            config = SubsystemConfig(noise_ips=noise)
            (sub1, _), (sub2, _) = simulate_key_pair(config, plaintext_seed=seed, count=1000)
            values.append(compare_profiles(sub1.samples, sub2.samples))
        means[k] = float(np.mean(values))
    elapsed = time.monotonic() - started
    series = [means[k] for k in (0, 2, 4, 6)]
    assert all(b <= a for a, b in zip(series, series[1:])), means
    assert means[6] < means[0]
    assert elapsed < 900.0
    print(
        f"\nCRITERION 7 PASS: mean key-pair JS declines "
        f"{series[0]:.4f} -> {series[1]:.4f} -> {series[2]:.4f} -> {series[3]:.4f} "
        f"with 0/2/4/6 noise blocks in {elapsed:.1f}s (< 900s)"
    )


def test_criterion_08_estimation_consistency():
    roster = ("s1488", "s832", "s953", "s1238")
    circuits = [load_bundled(n) for n in roster]
    db = build_profile_db(circuits, windows=1000, seed=40)
    config = SubsystemConfig(
        noise_ips=tuple((circuits[i], 40 + i) for i in range(len(circuits)))
    )
    (sub1, _), (sub2, _) = simulate_key_pair(config, plaintext_seed=7, count=1000)
    measured_js = compare_profiles(sub1.samples, sub2.samples)
    (aes1, _), (aes2, _) = simulate_key_pair(SubsystemConfig(), plaintext_seed=7, count=1000)
    mapped = map_config_blocks(config, db)
    assert [m.source_name for m in mapped] == list(roster)
    estimated_js, estimated_score = estimate_subsystem_score((aes1, aes2), mapped)
    delta = abs(estimated_js - measured_js)
    assert delta <= 0.02
    assert estimated_score == security_score(measured_js)
    print(
        f"\nCRITERION 8 PASS: |estimated - measured| = {delta:.6f} <= 0.02 "
        f"(measured {measured_js:.4f}, estimated {estimated_js:.4f}, n=1000)"
    )


def scalar_fault_oracle(circuit, node):
    def value(vec):
        vals = dict(vec)
        for gate in circuit.topo_gates():
            vals[gate.output] = _gate_value(gate.kind, [vals[x] for x in gate.inputs])
        return vals[node]

    pis = circuit.primary_inputs
    detected = 0
    for pi in pis:
        for stuck in (0, 1):
            for pattern in range(1 << len(pis)):
                vec = {p: (pattern >> i) & 1 for i, p in enumerate(pis)}
                faulty = dict(vec)
                faulty[pi] = stuck
                if value(faulty) != value(vec):
                    detected += 1
                    break
    return detected / (2 * len(pis))


def test_criterion_09_metric_calculators():
    from hwassure.netlist import make_circuit

    and2 = make_circuit("and2", [("y", "AND", ("a", "b"))], ["a", "b"], ["y"])
    assert abs(controllability(and2)["y"] - 0.75) <= 1e-12
    inv = make_circuit("inv", [("y", "NOT", ("a",))], ["a"], ["y"])
    assert abs(controllability(inv)["y"] - 1.0) <= 1e-12
    assert abs(observability(inv)["a"] - 1.0) <= 1e-12
    chain = make_circuit(
        "chain",
        [("n1", "AND", ("a", "b")), ("y", "AND", ("c", "n1"))],
        ["a", "b", "c"],
        ["y"],
    )
    assert abs(controllability(chain)["y"] - 0.65625) <= 1e-12
    assert abs(observability(and2)["a"] - 0.5) <= 1e-12

    c17 = load_bundled("c17")
    for node in ("10", "11", "16", "19", "22"):
        assert observation_hardness(c17, node) == scalar_fault_oracle(c17, node)

    fsm = FsmSpec(
        (
            FsmTransition("s0", "s1", True, (5.0,), (3.0,)),
            FsmTransition("s1", "s2", False),
            FsmTransition("s2", "s3", False),
            FsmTransition("s3", "s0", False),
        ),
        design_delays=(2.0, 4.0),
    )
    result = fsm_fi_vulnerability(fsm)
    assert result.vulnerable_percent == 25.0
    assert abs(result.mean_susceptibility - 2 / 3) <= 1e-12

    assert abs(puf_inter_hd(["00", "01", "11"]) - 200 / 3) <= 1e-9
    assert puf_intra_hd("00000000", ["00000001"]) == 12.5
    assert abs(cdc([(0.8, 3.0), (0.5, 1.0)]) - 72.5) <= 1e-12
    print(
        "\nCRITERION 9 PASS: controllability/observability, fault-propagation, "
        "FSM, PUF, and defect-coverage calculators match hand oracles"
    )


def test_criterion_10_demo_determinism(tmp_path):
    first = str(tmp_path / "run1")
    second = str(tmp_path / "run2")
    assert cli_main(["demo", "--out", first, "--seed", "0"]) == 0
    assert cli_main(["demo", "--out", second, "--seed", "0"]) == 0
    d1 = stable_digest(first)
    d2 = stable_digest(second)
    assert d1 == d2
    # a pure refactor must leave the demo's artifacts byte-identical
    assert d1 == DEMO_SEED0_DIGEST
    with open(f"{first}/digest.txt") as fh:
        recorded = fh.read().strip()
    assert recorded == d1
    print(f"\nCRITERION 10 PASS: two demo runs hash identically ({d1[:16]}...)")
