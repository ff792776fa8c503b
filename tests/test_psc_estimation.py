import numpy as np
import pytest

from hwassure.bundled import load_bundled
from hwassure import powersim
from hwassure.netlist import make_circuit
from hwassure.powersim import (
    PER_CYCLE,
    PER_ENCRYPTION,
    SubsystemConfig,
    SwitchingProfile,
    generate_plaintexts,
    simulate_subsystem,
    windowed_toggle_samples,
)
from hwassure.psc_estimation import (
    DEFAULT_KEY_PAIR,
    KEY_ONES,
    KEY_ZEROS,
    BenchmarkProfile,
    IpAttributes,
    ProfileDatabase,
    attributes_of,
    build_profile_db,
    composite_samples,
    estimate_subsystem_score,
    load_profile_db,
    map_config_blocks,
    map_ip,
    save_profile_db,
    simulate_key_pair,
)
from hwassure.pscmetrics import compare_profiles, security_score


def small_noise_circuit(name="mix"):
    return make_circuit(
        name,
        [
            ("n1", "AND", ("a", "b")),
            ("n2", "NOT", ("a",)),
            ("q", "DFF", ("n1",)),
            ("y", "OR", ("n2", "q")),
        ],
        ["a", "b"],
        ["y"],
    )


def test_key_pair_constants():
    assert KEY_ZEROS == bytes(16)
    assert KEY_ONES == bytes([0xFF]) * 16
    assert DEFAULT_KEY_PAIR == (KEY_ZEROS, KEY_ONES)


def test_attributes_of_catalog_circuit():
    c = load_bundled("s953")
    a = attributes_of(c)
    assert (
        a.num_inputs,
        a.num_outputs,
        a.num_dff,
        a.num_inverters,
        a.num_gates,
        a.num_and,
        a.num_nand,
        a.num_or,
        a.num_nor,
    ) == (16, 23, 29, 84, 311, 49, 114, 36, 112)


def test_attributes_of_single_gate_circuit():
    c = make_circuit("tiny", [("y", "NAND", ("a", "b"))], ["a", "b"], ["y"])
    a = attributes_of(c)
    assert a.num_nand == 1
    assert a.num_gates == 1
    assert a.num_and == a.num_or == a.num_nor == a.num_inverters == 0
    assert a.num_dff == 0


def test_attribute_validation_and_vector_order():
    with pytest.raises(ValueError):
        IpAttributes(-1, 0, 0, 0, 0, 0, 0, 0, 0)
    a = IpAttributes(1, 2, 3, 4, 10, 5, 3, 1, 1)
    assert a.vector().tolist() == [1, 2, 3, 4, 10, 5, 3, 1, 1]


def test_build_profile_db_protocol_and_determinism():
    c = small_noise_circuit()
    db = build_profile_db([c], windows=50, seed=9)
    entry = db.entries[0]
    assert entry.source_name == "mix"
    assert entry.stimulus_seed == 9
    expected = windowed_toggle_samples(c, 9, 50).sum(axis=1)
    assert list(entry.profile.samples) == [int(v) for v in expected]
    again = build_profile_db([c], windows=50, seed=9)
    assert np.array_equal(again.entries[0].profile.samples, entry.profile.samples)


def test_build_profile_db_seed_offsets_per_circuit():
    a = small_noise_circuit("one")
    b = small_noise_circuit("two")
    db = build_profile_db([a, b], windows=20, seed=100)
    assert [e.stimulus_seed for e in db.entries] == [100, 101]


def test_profile_db_validation():
    with pytest.raises(ValueError):
        build_profile_db([], windows=10, seed=0)
    c = small_noise_circuit()
    db = build_profile_db([c], windows=10, seed=0)
    with pytest.raises(ValueError):
        ProfileDatabase(db.entries + db.entries)


def test_map_ip_exact_row_maps_to_itself():
    circuits = [load_bundled(n) for n in ("s832", "s953", "s1488")]
    db = build_profile_db(circuits, windows=10, seed=0)
    hit = map_ip(attributes_of(load_bundled("s953")), db)
    assert hit.source_name == "s953"


def test_map_ip_hand_computed_winner():
    entries = []
    rows = {
        "alpha": IpAttributes(4, 4, 0, 2, 10, 10, 0, 0, 0),
        "beta": IpAttributes(8, 8, 0, 4, 20, 20, 0, 0, 0),
        "gamma": IpAttributes(4, 4, 8, 2, 10, 0, 10, 0, 0),
    }
    for name, attrs in rows.items():
        entries.append(
            BenchmarkProfile(attrs, SwitchingProfile((1, 2, 3), "", PER_ENCRYPTION), name, 0)
        )
    db = ProfileDatabase(tuple(sorted(entries, key=lambda e: e.source_name)))
    # query proportional to alpha and beta (cosine 1 for both); beta's
    # gate total is farther from the query's, so alpha wins the tie-break
    query = IpAttributes(2, 2, 0, 1, 5, 5, 0, 0, 0)
    assert map_ip(query, db).source_name == "alpha"
    # a DFF-heavy query swings to gamma
    query2 = IpAttributes(4, 4, 8, 2, 10, 0, 10, 0, 0)
    assert map_ip(query2, db).source_name == "gamma"


def test_map_ip_name_tie_break():
    attrs = IpAttributes(2, 2, 0, 1, 5, 5, 0, 0, 0)
    profile = SwitchingProfile((4, 5), "", PER_ENCRYPTION)
    db = ProfileDatabase(
        (
            BenchmarkProfile(attrs, profile, "zeta", 0),
            BenchmarkProfile(attrs, profile, "acme", 1),
        )
    )
    assert map_ip(attrs, db).source_name == "acme"


def test_map_ip_scale_invariance():
    rows = [
        ("small", IpAttributes(2, 2, 1, 1, 6, 2, 2, 1, 1)),
        ("large", IpAttributes(16, 12, 30, 40, 200, 50, 60, 40, 50)),
    ]
    profile = SwitchingProfile((4, 5), "", PER_ENCRYPTION)
    base = ProfileDatabase(
        tuple(BenchmarkProfile(a, profile, n, 0) for n, a in rows)
    )
    tripled = ProfileDatabase(
        tuple(
            BenchmarkProfile(
                IpAttributes(*(3 * v for v in a.vector().astype(int))), profile, n, 0
            )
            for n, a in rows
        )
    )
    query = IpAttributes(15, 11, 28, 42, 190, 48, 58, 38, 46)
    tripled_query = IpAttributes(*(3 * v for v in query.vector().astype(int)))
    assert map_ip(query, base).source_name == map_ip(tripled_query, tripled).source_name


def test_zero_mapped_ips_reduces_to_crypto_core_alone():
    (aes1, _), (aes2, _) = simulate_key_pair(SubsystemConfig(), plaintext_seed=3, count=200)
    est_js, _ = estimate_subsystem_score((aes1, aes2), [])
    direct = compare_profiles(aes1.as_array(), aes2.as_array())
    assert est_js == direct


def test_constant_noise_profile_leaves_divergence_unchanged():
    (aes1, _), (aes2, _) = simulate_key_pair(SubsystemConfig(), plaintext_seed=3, count=200)
    flat = BenchmarkProfile(
        IpAttributes(1, 1, 0, 0, 1, 1, 0, 0, 0),
        SwitchingProfile((70,) * 200, "", PER_ENCRYPTION),
        "flat",
        0,
    )
    est_js, _ = estimate_subsystem_score((aes1, aes2), [flat])
    base_js, _ = estimate_subsystem_score((aes1, aes2), [])
    assert est_js == base_js


def test_estimation_matches_measurement_for_exact_db_members():
    circuits = [load_bundled(n) for n in ("s1488", "s832")]
    db = build_profile_db(circuits, windows=400, seed=40)
    cfg = SubsystemConfig(noise_ips=tuple((circuits[i], 40 + i) for i in range(2)))
    (sub1, _), (sub2, _) = simulate_key_pair(cfg, plaintext_seed=7, count=400)
    meas_js = compare_profiles(sub1.samples, sub2.samples)
    (aes1, _), (aes2, _) = simulate_key_pair(SubsystemConfig(), plaintext_seed=7, count=400)
    mapped = map_config_blocks(cfg, db)
    assert [m.source_name for m in mapped] == ["s1488", "s832"]
    est_js, est_score = estimate_subsystem_score((aes1, aes2), mapped)
    assert abs(est_js - meas_js) <= 0.02
    assert est_score == security_score(meas_js)


def test_composite_resamples_shorter_profiles():
    (aes1, _), (aes2, _) = simulate_key_pair(SubsystemConfig(), plaintext_seed=1, count=100)
    short = BenchmarkProfile(
        IpAttributes(1, 1, 0, 0, 1, 1, 0, 0, 0),
        SwitchingProfile((5, 9, 13), "", PER_ENCRYPTION),
        "short",
        0,
    )
    c1, c2 = composite_samples((aes1, aes2), [short], draw_seed=11)
    noise = c1 - aes1.as_array()
    assert set(np.unique(noise)) <= {5, 9, 13}
    # the same draws go into both composites
    assert np.array_equal(noise, c2 - aes2.as_array())
    c1b, _ = composite_samples((aes1, aes2), [short], draw_seed=11)
    assert np.array_equal(c1, c1b)


def test_composite_validation():
    (aes1, _), (aes2, _) = simulate_key_pair(SubsystemConfig(), plaintext_seed=1, count=10)
    truncated = SwitchingProfile(aes2.samples[:5], aes2.key_hex, PER_ENCRYPTION)
    with pytest.raises(ValueError):
        composite_samples((aes1, truncated), [])


def test_simulate_key_pair_shares_noise_streams():
    noise = small_noise_circuit()
    cfg = SubsystemConfig(noise_ips=((noise, 5),))
    (sub1, blocks1), (sub2, blocks2) = simulate_key_pair(cfg, plaintext_seed=2, count=30)
    assert np.array_equal(blocks1["mix"].samples, blocks2["mix"].samples)
    assert not np.array_equal(blocks1["aes"].samples, blocks2["aes"].samples)
    assert sub1.key_hex == "00" * 16
    assert sub2.key_hex == "ff" * 16


def test_simulate_key_pair_simulates_each_noise_block_once(monkeypatch):
    calls = []
    real = powersim.windowed_toggle_samples

    def counted(circuit, *args):
        calls.append(circuit.name)
        return real(circuit, *args)

    monkeypatch.setattr(powersim, "windowed_toggle_samples", counted)
    cfg = SubsystemConfig(
        noise_ips=((small_noise_circuit(), 5), (load_bundled("s298"), 6)),
        scheduler=(tuple([1] * 11), tuple([1] * 5 + [0] * 6)),
    )
    pair = simulate_key_pair(cfg, plaintext_seed=2, count=20, granularity=PER_CYCLE)
    assert calls == ["mix", "s298"]
    # sharing the noise across keys gives what each key simulated alone gives
    plaintexts = generate_plaintexts(2, 20)
    for key, (sub, blocks) in zip(DEFAULT_KEY_PAIR, pair):
        [(alone_sub, alone_blocks)] = simulate_subsystem(cfg, [key], plaintexts, PER_CYCLE)
        assert list(alone_blocks) == list(blocks)
        for a, b in [(alone_sub, sub)] + [(alone_blocks[n], blocks[n]) for n in blocks]:
            assert (a.key_hex, a.granularity) == (b.key_hex, b.granularity)
            assert np.array_equal(a.samples, b.samples)


def test_noise_injection_lowers_measured_divergence():
    big = load_bundled("s5378")
    scored = []
    for cfg in (SubsystemConfig(), SubsystemConfig(noise_ips=((big, 0),))):
        (sub1, _), (sub2, _) = simulate_key_pair(cfg, plaintext_seed=0, count=300)
        js = compare_profiles(sub1.samples, sub2.samples)
        scored.append((js, security_score(js)))
    (base_js, base_score), (noisy_js, noisy_score) = scored
    assert base_js > 0.9
    assert noisy_js < base_js
    assert noisy_score >= base_score


def test_db_round_trip(tmp_path):
    circuits = [load_bundled("s832"), small_noise_circuit()]
    db = build_profile_db(circuits, windows=25, seed=3)
    directory = str(tmp_path / "db")
    save_profile_db(db, directory)
    loaded = load_profile_db(directory)
    assert len(loaded.entries) == 2
    for a, b in zip(db.entries, loaded.entries):
        assert a.source_name == b.source_name
        assert a.stimulus_seed == b.stimulus_seed
        assert a.attributes == b.attributes
        assert np.array_equal(a.profile.samples, b.profile.samples)
    index_text = (tmp_path / "db" / "index.csv").read_text()
    assert index_text.startswith(
        "name,numInputs,numOutputs,numDFF,numInverters,numGates,numAND,numNAND,numOR,numNOR,stimulusSeed"
    )


def test_db_load_names_the_file_line_and_column_of_a_bad_sample(tmp_path):
    directory = str(tmp_path / "db")
    save_profile_db(build_profile_db([load_bundled("s298")], windows=4, seed=0), directory)
    sample_file = tmp_path / "db" / "s298.csv"
    lines = sample_file.read_text().splitlines()
    lines[2] = "x7"
    sample_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"^profile s298\.csv line 3, column 'toggles': "
                                         r"invalid literal for int\(\) .*'x7'$"):
        load_profile_db(directory)


def test_db_load_rejects_bad_header(tmp_path):
    directory = tmp_path / "db"
    directory.mkdir()
    (directory / "index.csv").write_text("name,whatever\nx,1\n")
    with pytest.raises(ValueError):
        load_profile_db(str(directory))
