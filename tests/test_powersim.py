import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwassure.bundled import load_bundled
from hwassure.netlist import evaluate, make_circuit
from hwassure.powersim import (
    PER_CYCLE,
    PER_ENCRYPTION,
    SubsystemConfig,
    SwitchingProfile,
    generate_plaintexts,
    load_subsystem_config,
    load_subsystem_config_file,
    profiles_to_csv,
    simulate_subsystem,
    windowed_toggle_samples,
)

KEY = bytes(range(16))


def replayed_toggles(circuit, seed, windows, cycles):
    """The toggle matrix windowed_toggle_samples should return, replayed
    one window at a time through the scalar evaluate."""
    rng = np.random.default_rng(seed)
    draws = [
        {pi: rng.integers(0, 2, size=windows, dtype=np.uint8) for pi in circuit.primary_inputs}
        for _ in range(cycles)
    ]
    mat = np.zeros((windows, cycles), dtype=np.int64)
    for w in range(windows):
        prev = {n: 0 for n in circuit.nets()}
        state = {ff.output: 0 for ff in circuit.flip_flops}
        for t in range(cycles):
            pis = {pi: int(draws[t][pi][w]) for pi in circuit.primary_inputs}
            vals, state = evaluate(circuit, pis, state, all_nets=True)
            mat[w, t] = sum(int(vals[n] != prev[n]) for n in circuit.nets())
            prev = vals
    return mat


@pytest.mark.parametrize("windows", [7, 64, 70])
def test_windowed_samples_match_per_window_replay(windows):
    # window counts on both sides of the 64-lane word boundary; the
    # padding lanes of the last word must not leak into any count
    s344 = load_bundled("s344")
    mat = windowed_toggle_samples(s344, 5, windows, 11)
    assert mat.shape == (windows, 11)
    assert (mat == replayed_toggles(s344, 5, windows, 11)).all()


@pytest.mark.parametrize(
    "specs",
    [
        [("n0", "BUF", ["i0"])],
        [("n0", "NOT", ["i0"]), ("n1", "NOT", ["n0"]), ("n2", "BUF", ["n1"])],
        [
            ("n0", "NOT", ["i0"]), ("n1", "AND", ["n0", "i1"]),
            ("n2", "NOT", ["n1"]), ("n3", "NOT", ["n0"]),
        ],
    ],
)
def test_windowed_samples_count_inverter_chains_through_their_driver(specs):
    # a net standing for 2 or 3 others leaves some weight classes empty
    pis = sorted({n for _, _, ins in specs for n in ins if n.startswith("i")})
    circuit = make_circuit("chain", specs, pis, [specs[-1][0]])
    mat = windowed_toggle_samples(circuit, 1, 70, 3)
    assert (mat == replayed_toggles(circuit, 1, 70, 3)).all()


@st.composite
def toggle_cases(draw):
    """A small sequential circuit rich in NOT and BUF chains, whose
    outputs toggle with their inputs after the reset cycle."""
    pis = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    qs = [f"q{k}" for k in range(draw(st.integers(0, 2)))]
    nets = pis + qs
    specs = []
    for k in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("NOT", "BUF", "NOT", "BUF", "AND", "NOR", "XNOR")))
        arity = 1 if kind in ("NOT", "BUF") else draw(st.integers(2, 3))
        ins = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
        specs.append((f"n{k}", kind, ins))
        nets.append(f"n{k}")
    specs += [(q, "DFF", [draw(st.sampled_from(nets))]) for q in qs]
    circuit = make_circuit("toggles", specs, pis, [nets[-1]])
    return circuit, draw(st.integers(0, 2**16)), draw(st.integers(1, 70)), draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(case=toggle_cases())
def test_windowed_samples_match_replay_on_random_circuits(case):
    circuit, seed, windows, cycles = case
    mat = windowed_toggle_samples(circuit, seed, windows, cycles)
    assert (mat == replayed_toggles(circuit, seed, windows, cycles)).all()


def test_windowed_samples_are_seed_deterministic():
    s298 = load_bundled("s298")
    a = windowed_toggle_samples(s298, 4, 20, 11)
    b = windowed_toggle_samples(s298, 4, 20, 11)
    c = windowed_toggle_samples(s298, 5, 20, 11)
    assert (a == b).all()
    assert (a != c).any()


def test_subsystem_without_noise_is_exactly_the_aes_profile():
    pts = generate_plaintexts(1, 30)
    [(sub, blocks)] = simulate_subsystem(SubsystemConfig(), [KEY], pts)
    assert list(blocks) == ["aes"]
    assert np.array_equal(sub.samples, blocks["aes"].samples)
    assert sub.key_hex == KEY.hex()
    assert sub.granularity == PER_ENCRYPTION


def test_subsystem_sample_is_the_exact_block_sum():
    cfg = SubsystemConfig(
        noise_ips=((load_bundled("s832"), 7), (load_bundled("s953"), 8))
    )
    pts = generate_plaintexts(2, 40)
    for granularity in (PER_ENCRYPTION, PER_CYCLE):
        [(sub, blocks)] = simulate_subsystem(cfg, [KEY], pts, granularity)
        total = sum(b.as_array() for b in blocks.values())
        assert (total == sub.as_array()).all()
        assert list(blocks) == ["aes", "s832", "s953"]
    [(sub_cycle, _)] = simulate_subsystem(cfg, [KEY], pts, PER_CYCLE)
    assert len(sub_cycle.samples) == 40 * 11


def test_repeated_noise_circuit_names_are_deduplicated():
    s298 = load_bundled("s298")
    cfg = SubsystemConfig(noise_ips=((s298, 1), (s298, 2)))
    [(_, blocks)] = simulate_subsystem(cfg, [KEY], generate_plaintexts(0, 5))
    assert list(blocks) == ["aes", "s298", "s298#2"]


def test_scheduler_mask_silences_inactive_cycles():
    s298 = load_bundled("s298")
    active = tuple([1] * 11)
    silent = tuple([0] * 11)
    cfg_on = SubsystemConfig(noise_ips=((s298, 3),), scheduler=(active,))
    cfg_off = SubsystemConfig(noise_ips=((s298, 3),), scheduler=(silent,))
    pts = generate_plaintexts(3, 25)
    [(sub_on, blocks_on)] = simulate_subsystem(cfg_on, [KEY], pts)
    [(sub_off, blocks_off)] = simulate_subsystem(cfg_off, [KEY], pts)
    assert np.array_equal(sub_off.samples, blocks_off["aes"].samples)
    assert all(s == 0 for s in blocks_off["s298"].samples)
    assert sum(blocks_on["s298"].samples) > 0
    # half-open mask only counts the active cycles
    half = tuple([1] * 5 + [0] * 6)
    cfg_half = SubsystemConfig(noise_ips=((s298, 3),), scheduler=(half,))
    [(_, blocks_half)] = simulate_subsystem(cfg_half, [KEY], pts, PER_CYCLE)
    arr = np.asarray(blocks_half["s298"].samples).reshape(25, 11)
    assert (arr[:, 5:] == 0).all()


def test_active_noise_raises_mean_subsystem_toggles():
    pts = generate_plaintexts(4, 200)
    [(base, _)] = simulate_subsystem(SubsystemConfig(), [KEY], pts)
    [(louder, _)] = simulate_subsystem(
        SubsystemConfig(noise_ips=((load_bundled("s953"), 11),)), [KEY], pts
    )
    assert louder.as_array().mean() > base.as_array().mean()


def test_config_validation():
    with pytest.raises(ValueError):
        SubsystemConfig(aes_core=False)
    with pytest.raises(ValueError):
        SubsystemConfig(cycles_per_encryption=10)
    s298 = load_bundled("s298")
    with pytest.raises(ValueError):
        SubsystemConfig(noise_ips=((s298, 1),), scheduler=())
    with pytest.raises(ValueError):
        SubsystemConfig(noise_ips=((s298, 1),), scheduler=((1, 0),))
    with pytest.raises(ValueError):
        SubsystemConfig(noise_ips=((s298, 1),), scheduler=(tuple([2] * 11),))
    with pytest.raises(ValueError):
        simulate_subsystem(SubsystemConfig(), [KEY], [])
    with pytest.raises(ValueError):
        simulate_subsystem(SubsystemConfig(), [KEY], generate_plaintexts(0, 2), "per-week")


def test_profile_validation():
    source = np.array([3, 1, 4], dtype=np.int64)
    for given in ((3, 1, 4), [3, 1, 4], source):
        profile = SwitchingProfile(given, "00", PER_CYCLE)
        assert profile.samples.dtype == np.int64 and profile.samples.ndim == 1
        assert profile.samples.tolist() == [3, 1, 4]
        assert profile.as_array() is profile.samples
        with pytest.raises(ValueError):
            profile.samples[0] = 9
    copied = SwitchingProfile(source, "00", PER_CYCLE)
    source[0] = 9
    assert copied.samples.tolist() == [3, 1, 4]
    for bad in ((), (1, -2), [[1, 2], [3, 4]], (1, 1.5), [2.0], np.array([1.5, 2.5]), ("1",)):
        with pytest.raises(ValueError):
            SwitchingProfile(bad, "00", PER_CYCLE)
    with pytest.raises(ValueError):
        SwitchingProfile((1, 2), "00", "per-week")


def test_per_encryption_sums_each_encryptions_cycles():
    cfg = SubsystemConfig(noise_ips=((load_bundled("s298"), 2),))
    pts = generate_plaintexts(5, 12)
    [(sub_cycle, blocks_cycle)] = simulate_subsystem(cfg, [KEY], pts, PER_CYCLE)
    [(sub_enc, blocks_enc)] = simulate_subsystem(cfg, [KEY], pts, PER_ENCRYPTION)
    pairs = [(sub_cycle, sub_enc)] + [(blocks_cycle[n], blocks_enc[n]) for n in blocks_enc]
    for cycle, enc in pairs:
        summed = cycle.per_encryption(cfg.cycles_per_encryption)
        assert (summed.key_hex, summed.granularity) == (enc.key_hex, PER_ENCRYPTION)
        assert np.array_equal(summed.samples, enc.samples)
    with pytest.raises(ValueError):
        sub_enc.per_encryption(11)
    with pytest.raises(ValueError):
        sub_cycle.per_encryption(5)


def test_plaintext_generation_is_deterministic():
    a = generate_plaintexts(6, 12)
    b = generate_plaintexts(6, 12)
    assert a.shape == (12, 16) and a.dtype == np.uint8
    assert (a == b).all()
    assert (generate_plaintexts(7, 12) != a).any()
    with pytest.raises(ValueError):
        generate_plaintexts(0, 0)


def test_profile_csv_layout():
    cfg = SubsystemConfig(noise_ips=((load_bundled("s298"), 1),))
    [(sub, blocks)] = simulate_subsystem(cfg, [KEY], generate_plaintexts(0, 6))
    text = profiles_to_csv(sub, blocks)
    lines = text.strip().splitlines()
    assert lines[0] == "subsystem,aes,s298"
    assert len(lines) == 7
    first = [int(v) for v in lines[1].split(",")]
    assert first[0] == first[1] + first[2]
    with pytest.raises(ValueError):
        profiles_to_csv(sub, {"aes": SwitchingProfile((1,), "00", PER_ENCRYPTION)})


def test_config_loader_resolves_package_references(tmp_path):
    payload = {
        "aes": {"enabled": True},
        "noise_ips": [{"bench": "pkg:s298", "seed": 5}],
        "granularity": "per-cycle",
    }
    cfg = load_subsystem_config(payload)
    assert cfg.aes_core is True
    assert len(cfg.noise_ips) == 1
    assert cfg.noise_ips[0][0].name == "s298"
    assert cfg.noise_ips[0][1] == 5

    path = tmp_path / "subsystem.json"
    path.write_text(json.dumps(payload))
    cfg2 = load_subsystem_config_file(str(path))
    assert cfg2.noise_ips[0][0].name == "s298"


def test_config_loader_names_a_missing_bench():
    with pytest.raises(ValueError, match=r"config field 'noise_ips\[1\]\.bench' is required"):
        load_subsystem_config({"noise_ips": [{"bench": "pkg:s298"}, {"seed": 1}]})
