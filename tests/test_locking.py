import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hwassure.benchgen import synth_circuit
from hwassure.bundled import load_bundled
from hwassure.locking import (
    LockedCircuit,
    LockingKey,
    compute_ier,
    compute_ker,
    compute_output_corruptibility,
    evaluate_locked,
    insert_random_locking,
    load_locked,
    save_locked,
)
from hwassure.netlist import NetlistError, evaluate, make_circuit, write_bench
from hwassure.satattack import verify_recovered_key


def all_patterns(nets):
    for bits in itertools.product((0, 1), repeat=len(nets)):
        yield dict(zip(nets, bits))


def brute_force_corruption(locked, key):
    """Reference KER: plain double loop over minterms."""
    original_inputs = locked.functional_inputs()
    hits = 0
    total = 0
    for pattern in all_patterns(original_inputs):
        ref, _ = evaluate_locked(locked, locked.correct_key, pattern)
        got, _ = evaluate_locked(locked, key, pattern)
        hits += int(ref != got)
        total += 1
    return hits / total


def test_lock_c17_structure_and_restoration():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 4, seed=1)
    assert locked.key_length == 4
    assert locked.key_inputs == ("keyinput0", "keyinput1", "keyinput2", "keyinput3")
    assert len(locked.core.gates) == len(c17.gates) + 4
    kinds = {g.kind for g in locked.core.gates[len(c17.gates):]}
    assert kinds <= {"XOR", "XNOR"}
    # correct key restores the original function on every input pattern
    for pattern in all_patterns(c17.primary_inputs):
        ref, _ = evaluate(c17, pattern)
        got, _ = evaluate_locked(locked, locked.correct_key, pattern)
        assert got == ref


def test_key_bit_polarity_matches_gate_kind():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 6, seed=9)
    assert locked.lock_sites is not None
    for (net, kind), bit in zip(locked.lock_sites, locked.correct_key.bits):
        assert kind == ("XOR" if bit == 0 else "XNOR")


def test_locked_single_and_behaves_as_nand_under_wrong_key():
    c = make_circuit("and1", [("y", "AND", ["a", "b"])], ["a", "b"], ["y"])
    locked = insert_random_locking(c, 1, seed=0)
    wrong = LockingKey((locked.correct_key.bits[0] ^ 1,))
    for pattern in all_patterns(("a", "b")):
        got, _ = evaluate_locked(locked, wrong, pattern)
        assert got["y"] == int(not (pattern["a"] and pattern["b"]))


def test_locking_is_deterministic_per_seed():
    c = load_bundled("s298")
    a = insert_random_locking(c, 8, seed=42)
    b = insert_random_locking(c, 8, seed=42)
    assert write_bench(a.core) == write_bench(b.core)
    assert a.correct_key == b.correct_key
    c2 = insert_random_locking(c, 8, seed=43)
    assert write_bench(c2.core) != write_bench(a.core) or c2.correct_key != a.correct_key


def test_key_length_bounds():
    c17 = load_bundled("c17")
    with pytest.raises(ValueError, match="lockable"):
        insert_random_locking(c17, 7, seed=0)
    with pytest.raises(ValueError):
        insert_random_locking(c17, 0, seed=0)


def test_functional_preservation_random_seeds():
    c17 = load_bundled("c17")
    for seed in range(6):
        locked = insert_random_locking(c17, 3, seed=seed)
        for pattern in all_patterns(c17.primary_inputs):
            ref, _ = evaluate(c17, pattern)
            got, _ = evaluate_locked(locked, locked.correct_key, pattern)
            assert got == ref


@st.composite
def small_locked_designs(draw):
    """A random combinational circuit of at most 10 gates and its random lock."""
    kinds = draw(st.fixed_dictionaries({
        "AND": st.integers(1, 3),
        "XOR": st.integers(0, 3),
        "NOR": st.integers(0, 2),
        "NOT": st.integers(0, 2),
    }))
    gates = sum(kinds.values())
    circuit = synth_circuit(
        "prop", draw(st.integers(2, 5)), draw(st.integers(1, min(3, gates))), 0, kinds,
        seed=draw(st.integers(0, 2**16)),
    )
    locked = insert_random_locking(
        circuit, draw(st.integers(1, min(4, gates))), seed=draw(st.integers(0, 2**16))
    )
    return circuit, locked


@settings(max_examples=60, deadline=None)
@given(design=small_locked_designs(), data=st.data())
def test_keyed_checks_agree_with_brute_force(design, data):
    circuit, locked = design
    k = locked.key_length
    brute = {v: brute_force_corruption(locked, LockingKey.from_int(v, k)) for v in range(1 << k)}
    for v in data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=4)):
        key = LockingKey.from_int(v, k)
        assert compute_ker(locked, key) == brute[v]
        assert verify_recovered_key(locked, key, circuit) is (brute[v] == 0)
    wrong = [ker for v, ker in brute.items() if LockingKey.from_int(v, k) != locked.correct_key]
    assert compute_output_corruptibility(locked, mode="exhaustive") == pytest.approx(
        sum(wrong) / len(wrong)
    )


def test_corruptibility_matches_brute_force_and_mean_ker():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 3, seed=5)
    cr = compute_output_corruptibility(locked, mode="exhaustive")
    assert 0.0 <= cr <= 1.0
    kers = []
    for kv in range(8):
        key = LockingKey.from_int(kv, 3)
        if key.bits == locked.correct_key.bits:
            continue
        ker = compute_ker(locked, key)
        assert ker == pytest.approx(brute_force_corruption(locked, key))
        kers.append(ker)
    assert cr == pytest.approx(sum(kers) / len(kers))


def test_sampled_corruptibility_tracks_exhaustive():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 4, seed=2)
    exact = compute_output_corruptibility(locked, mode="exhaustive")
    est = compute_output_corruptibility(
        locked, mode="sampled", n_inputs=2000, n_keys=60, seed=3
    )
    assert abs(est - exact) < 0.05


def test_correct_key_never_corrupts():
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 5, seed=11)
    assert compute_ker(locked, locked.correct_key) == 0.0


def test_dead_end_lock_site_yields_zero_corruptibility():
    # Key gate on a net nobody reads: outputs can never differ.
    core = make_circuit(
        "dead",
        [
            ("y", "AND", ["a", "b"]),
            ("d$raw0", "OR", ["a", "b"]),
            ("d", "XNOR", ["d$raw0", "keyinput0"]),
        ],
        ["a", "b", "keyinput0"],
        ["y"],
    )
    locked = LockedCircuit(core, ("keyinput0",), LockingKey((1,)), (("d", "XNOR"),))
    assert compute_output_corruptibility(locked, mode="exhaustive") == 0.0


def test_ier_inverting_site_on_every_cone():
    core = make_circuit(
        "inv",
        [("y$raw0", "BUF", ["a"]), ("y", "XOR", ["y$raw0", "keyinput0"])],
        ["a", "keyinput0"],
        ["y"],
    )
    locked = LockedCircuit(core, ("keyinput0",), LockingKey((0,)), (("y", "XOR"),))
    for pattern in all_patterns(("a",)):
        assert compute_ier(locked, pattern) == 1.0


def test_ier_zero_outside_lock_cone():
    # y = AND(a, b^key): with a=0 the key cannot reach the output.
    core = make_circuit(
        "gated",
        [("bk", "XOR", ["b", "keyinput0"]), ("y", "AND", ["a", "bk"])],
        ["a", "b", "keyinput0"],
        ["y"],
    )
    locked = LockedCircuit(core, ("keyinput0",), LockingKey((0,)), (("bk", "XOR"),))
    assert compute_ier(locked, {"a": 0, "b": 0}) == 0.0
    assert compute_ier(locked, {"a": 1, "b": 0}) == 1.0


def test_metrics_require_combinational_core():
    s = load_bundled("s298")
    locked = insert_random_locking(s, 4, seed=0)
    with pytest.raises(NetlistError, match="combinational"):
        compute_ker(locked, locked.correct_key)


def test_save_load_roundtrip(tmp_path):
    c17 = load_bundled("c17")
    locked = insert_random_locking(c17, 4, seed=7)
    bench = tmp_path / "c17_enc4.bench"
    save_locked(locked, str(bench))
    back = load_locked(str(bench))
    assert back.correct_key == locked.correct_key
    assert back.key_inputs == locked.key_inputs
    assert write_bench(back.core) == write_bench(locked.core)
    for pattern in all_patterns(c17.primary_inputs):
        a, _ = evaluate_locked(locked, locked.correct_key, pattern)
        b, _ = evaluate_locked(back, back.correct_key, pattern)
        assert a == b
